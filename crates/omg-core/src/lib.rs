//! OFFLINE MODEL GUARD (OMG): the paper's protocol, end to end.
//!
//! OMG (Bayerl et al., DATE 2020) protects on-device ML against a
//! normal-world adversary while keeping the vendor's model confidential:
//! the model runs in a SANCTUARY enclave, reaches the device only
//! encrypted, and audio enters through the TrustZone secure world.
//!
//! * [`vendor`] — the model owner: attestation-gated provisioning,
//!   `K_U = KDF(PK, n)`, licensing/revocation, model updates;
//! * [`user`] — challenge generation and report verification (step ①);
//! * [`device`] — [`device::OmgDevice`], orchestrating the three phases
//!   against the simulated platform;
//! * [`session`] — warm [`session::QuerySession`]s that amortize enclave
//!   park/resume across query bursts, and [`session::provision_devices`]
//!   for installing one model on many devices (the `omg-serve` crate
//!   serves them concurrently);
//! * [`storage`] — attacker-controlled local storage (step ④);
//! * [`native`] — the unprotected baseline of Table I;
//! * [`trace`] — protocol tracing and the Fig. 2 renderer.
//!
//! # Examples
//!
//! The full protocol on a tiny stand-in model:
//!
//! ```
//! use omg_core::device::{expected_enclave_measurement, OmgDevice};
//! use omg_core::user::User;
//! use omg_core::vendor::Vendor;
//! # use omg_nn::model::{Activation, Model, Op};
//! # use omg_nn::quantize::QuantParams;
//! # use omg_nn::tensor::DType;
//! # use omg_speech::frontend::FINGERPRINT_LEN;
//!
//! # fn tiny_model() -> Model {
//! #     let mut b = Model::builder();
//! #     let input = b.add_activation("in", vec![1, FINGERPRINT_LEN], DType::I8,
//! #         Some(QuantParams { scale: 1.0 / 255.0, zero_point: -128 }));
//! #     let w = b.add_weight_i8("w", vec![12, FINGERPRINT_LEN],
//! #         vec![1i8; 12 * FINGERPRINT_LEN], QuantParams::symmetric(0.01));
//! #     let bias = b.add_weight_i32("b", vec![12], vec![0; 12]);
//! #     let out = b.add_activation("out", vec![1, 12], DType::I8,
//! #         Some(QuantParams { scale: 0.5, zero_point: 0 }));
//! #     b.add_op(Op::FullyConnected { input, filter: w, bias, output: out,
//! #         activation: Activation::None });
//! #     b.set_input(input);
//! #     b.set_output(out);
//! #     b.set_labels(omg_speech::dataset::LABELS);
//! #     b.build().unwrap()
//! # }
//! let mut device = OmgDevice::new(1)?;
//! let mut user = User::new(2);
//! let mut vendor = Vendor::new(3, "kws", tiny_model(), expected_enclave_measurement());
//!
//! device.prepare(&mut user, &mut vendor)?;   // phase I  (steps 1-4)
//! device.initialize(&mut vendor)?;           // phase II (steps 5-6)
//!
//! let samples = vec![500i16; 16_000];
//! let result = device.classify_utterance(&samples)?; // phase III
//! assert!(!result.label.is_empty());
//! # Ok::<(), omg_core::OmgError>(())
//! ```

#![warn(missing_docs)]

pub mod device;
mod error;
pub mod native;
pub mod session;
pub mod storage;
pub mod trace;
pub mod user;
pub mod vendor;

pub use device::{OmgDevice, Transcription};
pub use error::{OmgError, Result};
pub use native::NativeSpotter;
pub use session::{provision_devices, provision_devices_with_cache, ModelCache, QuerySession};
pub use user::User;
pub use vendor::Vendor;
