//! Speech frontend for the Offline Model Guard reproduction.
//!
//! Reproduces the paper's audio pipeline (§VI):
//!
//! * [`wav`] — PCM16 mono WAV encoding/decoding (the Speech Commands
//!   container format);
//! * [`dataset`] — a deterministic synthetic Speech Commands corpus
//!   (the real 105k-file dataset cannot be bundled; see README.md,
//!   "Substitutions and calibration", for the substitution argument);
//! * [`fft`] — the 512-point q15 fixed-point FFT ("256 bin fixed point
//!   FFT");
//! * [`frontend`] — 30 ms windows, 20 ms shift, 6-bin averaging → 43
//!   features/frame × 49 frames = the 49 × 43 fingerprint.
//!
//! # Examples
//!
//! From microphone samples to a model-ready fingerprint:
//!
//! ```
//! use omg_speech::dataset::SyntheticSpeechCommands;
//! use omg_speech::frontend::{FeatureExtractor, FINGERPRINT_LEN};
//!
//! let data = SyntheticSpeechCommands::new(1);
//! let extractor = FeatureExtractor::new()?;
//! let utterance = data.utterance(2, 0)?; // "yes", take 0
//! let fingerprint = extractor.fingerprint(&utterance)?;
//! assert_eq!(fingerprint.len(), FINGERPRINT_LEN); // 49 × 43
//! # Ok::<(), omg_speech::SpeechError>(())
//! ```

#![warn(missing_docs)]

pub mod dataset;
mod error;
pub mod fft;
pub mod frontend;
pub mod streaming;
pub mod wav;

pub use error::{Result, SpeechError};
