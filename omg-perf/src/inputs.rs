//! Seeded inputs, the reference oracle and the provisioning-seed book.
//!
//! Everything a workload feeds the program is generated here from the
//! `--seed` argument: held-out utterances, the open-loop arrival schedule,
//! the keyword stream and every device seed. The oracle answers are
//! computed outside the enclave with the scalar reference kernels, so a
//! fast path that drifts from the reference shows up as a failed query.

use std::collections::HashSet;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use omg_nn::{Interpreter, KernelSet, Model};
use omg_speech::dataset::{SyntheticSpeechCommands, SILENCE_CLASS};
use omg_speech::frontend::{FeatureExtractor, SAMPLE_RATE_HZ, SHIFT_SAMPLES, UTTERANCE_SAMPLES};
use omg_speech::streaming::{classify_stream, Detection, DetectionSmoother, SmootherConfig};

/// Stream hop: one frame shift (20 ms), as in the micro_speech example.
pub const HOP: usize = SHIFT_SAMPLES;
/// Windows per `classify_stream` call: the audio stack hands the device
/// 160 ms of new audio (8 hops) per buffer.
pub const CHUNK_WINDOWS: usize = 8;
/// First dataset index of the held-out split (training uses lower ones).
const HELD_OUT_BASE: u64 = 2_000_000;

/// SplitMix64: the one generator every input is drawn from.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// An independent generator for one purpose, so adding draws to one
    /// input never shifts another.
    pub fn fork(&mut self, purpose: u64) -> SplitMix {
        SplitMix::new(self.next_u64() ^ purpose.wrapping_mul(0xA24B_AED4_963E_E407))
    }
}

/// One held-out 1-second utterance of a keyword class.
#[derive(Debug, Clone, PartialEq)]
pub struct Clip {
    pub class: usize,
    pub samples: Vec<i16>,
}

/// `n` held-out utterances across the ten keyword classes 2..=11.
pub fn clips(rng: &mut SplitMix, n: usize) -> Vec<Clip> {
    let dataset = SyntheticSpeechCommands::new(0);
    (0..n)
        .map(|_| {
            let class = 2 + rng.below(10) as usize;
            let index = HELD_OUT_BASE + rng.below(1_000_000);
            let samples = dataset.utterance(class, index).expect("keyword class");
            Clip { class, samples }
        })
        .collect()
}

/// Poisson arrivals at `rate_hz` over `seconds`, as ns offsets from start.
pub fn poisson_schedule(rng: &mut SplitMix, rate_hz: f64, seconds: f64) -> Vec<u64> {
    let mut t = 0.0;
    let mut due = Vec::new();
    loop {
        t += -rng.unit().ln() / rate_hz;
        if t >= seconds {
            return due;
        }
        due.push((t * 1e9) as u64);
    }
}

/// A keyword stream: `utterances` held-out utterances joined by 0.2–0.8 s
/// gaps of background noise (the dataset's silence class).
pub fn stream(rng: &mut SplitMix, utterances: usize) -> Vec<i16> {
    let dataset = SyntheticSpeechCommands::new(0);
    let mut out = Vec::new();
    for clip in clips(rng, utterances) {
        let gap = SAMPLE_RATE_HZ / 5 + rng.below(3 * SAMPLE_RATE_HZ as u64 / 5) as usize;
        let noise = dataset
            .utterance(SILENCE_CLASS, HELD_OUT_BASE + rng.below(1_000_000))
            .expect("silence class");
        out.extend_from_slice(&noise[..gap]);
        out.extend_from_slice(&clip.samples);
    }
    out
}

/// Sample ranges of the stream's `classify_stream` calls: consecutive
/// buffers of [`CHUNK_WINDOWS`] windows that together cover every window
/// of the stream once (a trailing partial buffer is dropped).
pub fn chunk_ranges(stream_len: usize) -> Vec<Range<usize>> {
    let windows = (stream_len.saturating_sub(UTTERANCE_SAMPLES)) / HOP + 1;
    let span = UTTERANCE_SAMPLES + (CHUNK_WINDOWS - 1) * HOP;
    (0..windows / CHUNK_WINDOWS)
        .map(|c| {
            let start = c * CHUNK_WINDOWS * HOP;
            start..start + span
        })
        .collect()
}

/// Device seeds handed out once each. `RsaPrivateKey::generate_memoized`
/// caches keys process-wide by RNG stream, so a repeated device seed would
/// time that cache instead of key generation: the book refuses repeats.
#[derive(Debug)]
pub struct SeedBook {
    state: Mutex<(SplitMix, HashSet<u64>)>,
}

impl SeedBook {
    pub fn new(rng: SplitMix) -> Self {
        SeedBook {
            state: Mutex::new((rng, HashSet::new())),
        }
    }

    /// A fresh seed for `OmgDevice::new`.
    pub fn device(&self) -> u64 {
        self.claim(1, 0)
    }

    /// A fresh seed for `ServeHandle::provision` of `workers` devices,
    /// which seeds its devices `seed + 1000 + i`.
    pub fn fleet(&self, workers: usize) -> u64 {
        self.claim(workers, 1000)
    }

    fn claim(&self, devices: usize, offset: u64) -> u64 {
        let mut state = self.state.lock().expect("seed book lock");
        let (rng, used) = &mut *state;
        let seed = rng.next_u64() >> 1;
        for i in 0..devices as u64 {
            let device_seed = seed.wrapping_add(offset + i);
            assert!(
                used.insert(device_seed),
                "device seed {device_seed} handed out twice in one process"
            );
        }
        seed
    }
}

/// A reference answer: class index and softmax score.
pub type Answer = (usize, f32);

/// Reference answers for `inputs`, from `FeatureExtractor` and the scalar
/// reference kernels outside the enclave, spread over two threads.
pub fn reference_answers(model: &Model, inputs: &[&[i16]]) -> Vec<Answer> {
    let half = inputs.len().div_ceil(2);
    std::thread::scope(|s| {
        let workers: Vec<_> = inputs
            .chunks(half.max(1))
            .map(|part| {
                s.spawn(move || {
                    let extractor = FeatureExtractor::new().expect("frontend");
                    let mut interp = Interpreter::with_kernels(model.clone(), KernelSet::Reference)
                        .expect("reference interpreter");
                    part.iter()
                        .map(|samples| {
                            let fp = extractor.fingerprint(samples).expect("fingerprint");
                            interp.classify(&fp).expect("reference classify")
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("oracle thread"))
            .collect()
    })
}

/// Reference detections of each stream buffer: the same `classify_stream`
/// loop and smoother settings the device uses, fed reference answers.
pub fn reference_detections(
    stream: &[i16],
    chunks: &[Range<usize>],
    window_answers: &[Answer],
) -> Vec<Vec<Detection>> {
    chunks
        .iter()
        .enumerate()
        .map(|(c, range)| {
            let mut smoother = DetectionSmoother::new(SmootherConfig::default());
            classify_stream(&stream[range.clone()], HOP, &mut smoother, |w| {
                Ok::<_, std::convert::Infallible>(window_answers[c * CHUNK_WINDOWS + w.index])
            })
            .expect("infallible")
        })
        .collect()
}

/// Every window of the stream that some buffer covers, in order.
pub fn stream_windows<'a>(stream: &'a [i16], chunks: &[Range<usize>]) -> Vec<&'a [i16]> {
    chunks
        .iter()
        .flat_map(|r| {
            (0..CHUNK_WINDOWS).map(move |j| {
                let start = r.start + j * HOP;
                &stream[start..start + UTTERANCE_SAMPLES]
            })
        })
        .collect()
}

/// Whether a served answer matches the reference: same class, and the
/// label the expected model version gives that class.
pub fn matches(class: usize, label: &str, expected: Answer, labels: &[Arc<str>]) -> bool {
    class == expected.0 && labels.get(class).is_some_and(|l| &**l == label)
}

/// Model version `v` (1-based): the shipped weights with the label table
/// rotated by `v - 1`, so every version answers with different labels and
/// a stale model is caught by the label check.
pub fn model_version(base: &Model, version: u32) -> Model {
    let mut labels = base.labels().to_vec();
    let turn = (version as usize - 1) % labels.len().max(1);
    labels.rotate_left(turn);
    // Tensor ids are opaque outside omg-nn: recover each index's id from
    // the graph that references it.
    let mut ids = vec![None; base.tensors().len()];
    for op in base.ops() {
        for id in op.inputs().into_iter().chain([op.output()]) {
            ids[id.index()] = Some(id);
        }
    }
    let mut b = Model::builder();
    for (t, id) in base.tensors().iter().zip(ids) {
        let id = id.expect("every tensor of the shipped model is used by an op");
        let data = base.weight_data(id).expect("tensor id");
        match (data, t.dtype()) {
            (None, _) => {
                b.add_activation(t.name(), t.shape().to_vec(), t.dtype(), t.quant());
            }
            (Some(bytes), omg_nn::tensor::DType::I8) => {
                let q = t.quant().expect("i8 weights are quantized");
                b.add_weight_i8(
                    t.name(),
                    t.shape().to_vec(),
                    bytes.iter().map(|&x| x as i8).collect(),
                    q,
                );
            }
            (Some(bytes), _) => {
                let words = bytes
                    .chunks_exact(4)
                    .map(|w| i32::from_le_bytes([w[0], w[1], w[2], w[3]]))
                    .collect();
                b.add_weight_i32(t.name(), t.shape().to_vec(), words);
            }
        }
    }
    for op in base.ops() {
        b.add_op(op.clone());
    }
    b.set_input(base.input());
    b.set_output(base.output());
    b.set_labels(labels);
    b.set_description(&format!("{} (v{version})", base.description()));
    b.build().expect("relabelled model validates")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generate(seed: u64) -> (Vec<Clip>, Vec<u64>, Vec<i16>) {
        let mut rng = SplitMix::new(seed);
        let clips = clips(&mut rng.fork(1), 4);
        let schedule = poisson_schedule(&mut rng.fork(4), 300.0, 1.0);
        let stream = stream(&mut rng.fork(5), 2);
        (clips, schedule, stream)
    }

    #[test]
    fn one_seed_gives_the_same_inputs_and_answers() {
        assert_eq!(generate(7), generate(7));
        assert_ne!(generate(7).0, generate(8).0);
        let model = omg_nn::format::deserialize(crate::MODEL_BLOB).expect("model");
        let (clips, _, _) = generate(7);
        let inputs: Vec<&[i16]> = clips.iter().map(|c| c.samples.as_slice()).collect();
        assert_eq!(
            reference_answers(&model, &inputs),
            reference_answers(&model, &inputs)
        );
    }

    #[test]
    #[should_panic(expected = "handed out twice")]
    fn seed_book_refuses_a_repeated_device_seed() {
        let book = SeedBook::new(SplitMix::new(1));
        let next = SplitMix::new(1).next_u64() >> 1;
        book.state.lock().expect("seed book lock").1.insert(next);
        book.device();
    }

    #[test]
    fn model_versions_differ_only_in_labels() {
        let base = omg_nn::format::deserialize(crate::MODEL_BLOB).expect("model");
        let v1 = model_version(&base, 1);
        let v2 = model_version(&base, 2);
        assert_eq!(v1.labels(), base.labels());
        assert_ne!(v2.labels(), base.labels());
        assert_eq!(v2.labels()[0], base.labels()[1]);
        assert_eq!(v2.ops(), base.ops());
    }

    #[test]
    fn buffers_cover_each_window_once() {
        let len = UTTERANCE_SAMPLES + 20 * HOP;
        let chunks = chunk_ranges(len);
        assert_eq!(chunks.len(), 21 / CHUNK_WINDOWS);
        for pair in chunks.windows(2) {
            assert_eq!(pair[1].start - pair[0].start, CHUNK_WINDOWS * HOP);
        }
    }
}
