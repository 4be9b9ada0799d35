//! Offline Model Guard (OMG) — workspace facade.
//!
//! This crate re-exports the nine workspace crates under one roof so the
//! root integration tests, the `examples/` directory and downstream users
//! can depend on a single package. The layering mirrors the paper's stack:
//!
//! ```text
//! omg_crypto ─→ omg_hal ─→ omg_sanctuary ─→ { omg_nn, omg_speech }
//!      └→ omg_train ─→ omg_core ─→ omg_baselines ─→ omg_bench
//! ```
//!
//! See the individual crates for the real documentation; start with
//! [`core`] for the protocol and [`bench`] for the paper's measurements.
//!
//! # Quickstart
//!
//! The full protocol — prepare (attestation + encrypted provisioning),
//! initialize (key release + in-enclave decryption), classify — against a
//! small stand-in model:
//!
//! ```
//! use omg::core::device::{expected_enclave_measurement, OmgDevice};
//! use omg::core::{User, Vendor};
//! # use omg::nn::model::{Activation, Model, Op};
//! # use omg::nn::quantize::QuantParams;
//! # use omg::nn::tensor::DType;
//! # use omg::speech::frontend::FINGERPRINT_LEN;
//! #
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
//! #     b.set_labels(omg::speech::dataset::LABELS);
//! #     b.build().unwrap()
//! # }
//! let mut device = OmgDevice::new(1)?;
//! let mut user = User::new(2);
//! let mut vendor = Vendor::new(3, "kws", tiny_model(), expected_enclave_measurement());
//!
//! device.prepare(&mut user, &mut vendor)?;   // phase I   (steps 1-4)
//! device.initialize(&mut vendor)?;           // phase II  (steps 5-6)
//!
//! let samples = vec![500i16; 16_000];        // phase III (steps 7-8)
//! let result = device.classify_utterance(&samples)?;
//! assert!(!result.label.is_empty());
//! # Ok::<(), omg::core::OmgError>(())
//! ```
//!
//! For bursts of queries, open a warm [`core::session::QuerySession`]
//! instead of paying the park/resume cycle per utterance:
//!
//! ```
//! # use omg::core::device::{expected_enclave_measurement, OmgDevice};
//! # use omg::core::{User, Vendor};
//! # use omg::nn::model::{Activation, Model, Op};
//! # use omg::nn::quantize::QuantParams;
//! # use omg::nn::tensor::DType;
//! # use omg::speech::frontend::FINGERPRINT_LEN;
//! #
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
//! #     b.set_labels(omg::speech::dataset::LABELS);
//! #     b.build().unwrap()
//! # }
//! # let mut device = OmgDevice::new(1)?;
//! # let mut user = User::new(2);
//! # let mut vendor = Vendor::new(3, "kws", tiny_model(), expected_enclave_measurement());
//! # device.prepare(&mut user, &mut vendor)?;
//! # device.initialize(&mut vendor)?;
//! device.set_park_between_queries(true);
//!
//! let mut session = device.session()?;       // resume once
//! let samples = vec![500i16; 16_000];
//! for _ in 0..3 {
//!     let t = session.classify(&samples)?;   // warm: no park/resume, no
//!     assert!(!t.label.is_empty());          // per-query allocation
//! }
//! assert_eq!(session.queries(), 3);
//! session.finish()?;                         // scrub arena + park once
//! # Ok::<(), omg::core::OmgError>(())
//! ```
//!
//! To scale out and serve many principals concurrently, put a
//! [`serve::ServeHandle`] fleet in front: N provisioned devices on worker
//! threads behind a bounded admission queue, with latency percentiles and
//! graceful drain:
//!
//! ```
//! use omg::serve::{ServeConfig, ServeHandle};
//! # use omg::nn::model::{Activation, Model, Op};
//! # use omg::nn::quantize::QuantParams;
//! # use omg::nn::tensor::DType;
//! # use omg::speech::frontend::FINGERPRINT_LEN;
//! #
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
//! #     b.set_labels(omg::speech::dataset::LABELS);
//! #     b.build().unwrap()
//! # }
//! let handle = ServeHandle::provision(2, ServeConfig::default(), "kws", tiny_model(), 9)?;
//! let samples = vec![500i16; 16_000];
//! let pending: Vec<_> = (0..6).map(|_| handle.submit(&samples).unwrap()).collect();
//! for p in pending {
//!     assert!(!p.wait()?.label.is_empty());
//! }
//! let drained = handle.drain();                    // finish + scrub + park
//! assert!(drained.is_healthy());
//! assert_eq!(drained.stats.completed, 6);
//! assert!(drained.stats.p99 >= drained.stats.p50); // percentiles reported
//! # Ok::<(), omg::serve::ServeError>(())
//! ```

pub use omg_baselines as baselines;
pub use omg_bench as bench;
pub use omg_core as core;
pub use omg_crypto as crypto;
pub use omg_hal as hal;
pub use omg_nn as nn;
pub use omg_obs as obs;
pub use omg_sanctuary as sanctuary;
pub use omg_serve as serve;
pub use omg_sim as sim;
pub use omg_speech as speech;
pub use omg_train as train;
