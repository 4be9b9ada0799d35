//! Warm query sessions and multi-device provisioning.
//!
//! The paper measures one utterance per park/resume cycle; serving real
//! traffic needs the opposite shape: keep the enclave core bound and its
//! buffers warm across a burst of queries, and spread load over many
//! devices. [`QuerySession`] amortizes enclave resume/park and fingerprint
//! allocation across a whole burst; [`provision_devices`] installs one
//! vendor's model on N simulated devices, which the `omg-serve` crate
//! then serves concurrently.

use std::time::Duration;

use omg_nn::{Model, ModelBuf};
use omg_speech::frontend::FingerprintBuffer;
use omg_speech::streaming::{classify_stream, Detection, DetectionSmoother};

use crate::device::{expected_enclave_measurement, OmgDevice, Transcription};
use crate::error::Result;
use crate::user::User;
use crate::vendor::Vendor;

/// Global-registry counters for provisioning-path effectiveness, cached in
/// `OnceLock`s so the registry mutex is never taken on repeat hits.
mod counters {
    use std::sync::OnceLock;

    use omg_obs::Counter;

    fn cached(
        cell: &'static OnceLock<Counter>,
        name: &'static str,
        help: &'static str,
    ) -> &'static Counter {
        cell.get_or_init(|| omg_obs::global().counter(name, help))
    }

    pub(super) fn cache_hits() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        cached(
            &C,
            "omg_core_model_cache_hits_total",
            "ModelCache lookups served from an already-decoded image",
        )
    }

    pub(super) fn cache_misses() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        cached(
            &C,
            "omg_core_model_cache_misses_total",
            "ModelCache fills (model decoded from a fresh image)",
        )
    }

    pub(super) fn devices_provisioned() -> &'static Counter {
        static C: OnceLock<Counter> = OnceLock::new();
        cached(
            &C,
            "omg_core_devices_provisioned_total",
            "Devices taken through the full prepare + initialize flow",
        )
    }
}

/// A warm, exclusive serving session on one device.
///
/// Opening the session resumes the enclave once; every query then runs on
/// the already-bound core with a reused fingerprint buffer, so the
/// per-query cost is pure frontend + inference. Parking (when the device
/// has `park_between_queries` set) happens once, at [`QuerySession::finish`]
/// or drop — not per query like [`OmgDevice::classify_utterance`].
///
/// The interpreter arena is scrubbed when the session ends, so no
/// activation residue outlives the session.
#[derive(Debug)]
pub struct QuerySession<'d> {
    device: &'d mut OmgDevice,
    buf: FingerprintBuffer,
    queries: u64,
    last_compute: Duration,
    finished: bool,
}

impl OmgDevice {
    /// Opens a warm query session, resuming the enclave if it was parked.
    ///
    /// # Errors
    ///
    /// [`crate::OmgError::PhaseViolation`] unless the device is
    /// initialized; resume failures.
    pub fn session(&mut self) -> Result<QuerySession<'_>> {
        self.ensure_running()?;
        Ok(QuerySession {
            device: self,
            buf: FingerprintBuffer::new(),
            queries: 0,
            last_compute: Duration::ZERO,
            finished: false,
        })
    }
}

impl QuerySession<'_> {
    /// Classifies one utterance on the warm enclave.
    ///
    /// # Errors
    ///
    /// Frontend and inference errors.
    pub fn classify(&mut self, samples: &[i16]) -> Result<Transcription> {
        let (class_index, score) = self.classify_class(samples)?;
        let compute = self.last_compute;
        Ok(self.device.transcription(class_index, score, compute))
    }

    /// Like [`Self::classify`] but label-free: returns `(class, score)`
    /// without even the label-string allocation. The per-window primitive
    /// for streaming recognition.
    ///
    /// # Errors
    ///
    /// Frontend and inference errors.
    pub fn classify_class(&mut self, samples: &[i16]) -> Result<(usize, f32)> {
        let (class_index, score, compute) =
            self.device.classify_class_warm(samples, &mut self.buf)?;
        self.last_compute = compute;
        self.queries += 1;
        Ok((class_index, score))
    }

    /// Streams an unbounded sample buffer through the warm enclave:
    /// every sliding window (advanced by `hop` samples) is classified
    /// without per-window allocation and smoothed into debounced keyword
    /// detections.
    ///
    /// # Errors
    ///
    /// Frontend and inference errors from any window.
    pub fn classify_stream(
        &mut self,
        stream: &[i16],
        hop: usize,
        smoother: &mut DetectionSmoother,
    ) -> Result<Vec<Detection>> {
        classify_stream(stream, hop, smoother, |window| {
            self.classify_class(window.samples)
        })
    }

    /// Queries served by this session so far.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Scrubs the session's transient state — the interpreter's activation
    /// arena and the fingerprint buffer — without ending the session.
    /// Serving runtimes that multiplex *different principals* over one
    /// warm session call this between queries, so no user's activations
    /// or audio features are resident while the next user's query runs.
    pub fn scrub(&mut self) {
        self.buf.scrub();
        self.device.scrub_interpreter();
    }

    /// **Fault-injection API**: crashes the underlying device mid-session
    /// ([`OmgDevice::crash`]): the enclave is torn down through the
    /// scrub-on-release path and every subsequent query on this session
    /// fails. Chaos harnesses (`omg-sim`) script this to model a device
    /// dying while its worker is serving.
    ///
    /// # Errors
    ///
    /// Propagates teardown failures.
    pub fn crash_device(&mut self) -> Result<()> {
        self.device.crash()
    }

    /// Ends the session: scrubs the interpreter arena (no activation
    /// residue outlives the session) and parks the enclave if the device
    /// is configured to park between queries.
    ///
    /// # Errors
    ///
    /// Park failures. Dropping the session instead performs the same
    /// cleanup best-effort, swallowing errors.
    pub fn finish(mut self) -> Result<()> {
        self.finished = true;
        self.scrub();
        self.device.finish_query()
    }
}

impl Drop for QuerySession<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.scrub();
            let _ = self.device.finish_query();
        }
    }
}

/// The fleet-provisioning model cache: lets N devices initializing against
/// one vendor share a single decrypted, decoded model instead of N
/// independent decodes and N buffer copies.
///
/// Every device still runs the full protocol — its own attestation, key
/// unwrap, and authenticated decryption (licensing and rollback protection
/// stay per-device). The cache only kicks in *after* a device's own AEAD
/// open succeeds: if the resulting plaintext is byte-identical to the image
/// a sibling device already decoded, the sibling's [`Model`] (whose
/// buffers all borrow one shared aligned image) is reused and the fresh
/// plaintext copy is dropped. Memory for the fleet's weights is therefore
/// one image, not N.
///
/// The cache is a small LRU keyed by `(model_id, version)` (capacity
/// [`ModelCache::DEFAULT_CAPACITY`]), so a host serving several models —
/// or rolling a version forward while the old one still provisions —
/// does not thrash on every alternation.
#[derive(Debug)]
pub struct ModelCache {
    /// Most-recently-used first.
    entries: Vec<CacheEntry>,
    capacity: usize,
    hits: u64,
}

impl Default for ModelCache {
    fn default() -> Self {
        Self::new()
    }
}

#[derive(Debug)]
struct CacheEntry {
    model_id: String,
    version: u32,
    image: ModelBuf,
    model: Model,
}

impl ModelCache {
    /// Default number of `(model_id, version)` entries kept.
    pub const DEFAULT_CAPACITY: usize = 4;

    /// An empty cache with the default capacity.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// An empty cache holding up to `capacity` distinct
    /// `(model_id, version)` entries (minimum 1).
    pub fn with_capacity(capacity: usize) -> Self {
        ModelCache {
            entries: Vec::new(),
            capacity: capacity.max(1),
            hits: 0,
        }
    }

    /// How many initializations were served from the cache so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Maximum entries kept.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The cached `(model_id, version)` keys, most recently used first
    /// (diagnostics / eviction-order tests).
    pub fn keys(&self) -> Vec<(String, u32)> {
        self.entries
            .iter()
            .map(|e| (e.model_id.clone(), e.version))
            .collect()
    }

    /// Returns the cached model if `plaintext` is byte-identical to the
    /// already-decoded image for the same `(model_id, version)`, marking
    /// the entry most-recently used.
    pub(crate) fn lookup(
        &mut self,
        model_id: &str,
        version: u32,
        plaintext: &ModelBuf,
    ) -> Option<Model> {
        let pos = self.entries.iter().position(|e| {
            e.model_id == model_id
                && e.version == version
                && e.image.as_slice() == plaintext.as_slice()
        })?;
        let entry = self.entries.remove(pos);
        let model = entry.model.clone();
        self.entries.insert(0, entry);
        self.hits += 1;
        counters::cache_hits().inc();
        Some(model)
    }

    /// Records a freshly decoded image as most-recently used, evicting
    /// the least-recently-used entry once the capacity is exceeded (and
    /// superseding any stale entry under the same key).
    pub(crate) fn store(&mut self, model_id: &str, version: u32, image: ModelBuf, model: Model) {
        // A store means a lookup just failed and the image was re-decoded.
        counters::cache_misses().inc();
        self.entries
            .retain(|e| !(e.model_id == model_id && e.version == version));
        self.entries.insert(
            0,
            CacheEntry {
                model_id: model_id.to_owned(),
                version,
                image,
                model,
            },
        );
        self.entries.truncate(self.capacity);
    }
}

/// Provisions `n` fresh devices through the full preparation and
/// initialization phases against a single vendor — a production install
/// base in miniature. Every device attests to the same vendor and receives
/// the same model; each gets its own simulated platform and virtual clock.
///
/// Initialization runs through a shared [`ModelCache`], so after the first
/// device decodes the model, the remaining `n - 1` devices reuse its
/// decoded form and all `n` interpreters borrow their weights from **one**
/// decrypted image (see [`Model::shares_storage_with`]) — per-device
/// incremental provisioning no longer re-decodes (or re-buffers) the model.
///
/// This is the provisioning primitive of serving runtimes (e.g. the
/// `omg-serve` crate) that move the returned devices into worker threads —
/// [`OmgDevice`] is `Send`, so the whole query path can run off-thread.
///
/// # Errors
///
/// [`crate::OmgError::InvalidConfig`] if `n` is zero; any attestation,
/// provisioning, or initialization failure.
pub fn provision_devices(
    n: usize,
    model_id: &str,
    model: Model,
    seed: u64,
) -> Result<Vec<OmgDevice>> {
    provision_devices_with_cache(n, model_id, model, seed, &mut ModelCache::new())
}

/// [`provision_devices`] with a caller-supplied [`ModelCache`], so the
/// caller can observe cache effectiveness ([`ModelCache::hits`]) or keep
/// the cache warm across successive provisioning waves.
///
/// # Errors
///
/// Same conditions as [`provision_devices`].
pub fn provision_devices_with_cache(
    n: usize,
    model_id: &str,
    model: Model,
    seed: u64,
    cache: &mut ModelCache,
) -> Result<Vec<OmgDevice>> {
    if n == 0 {
        return Err(crate::OmgError::InvalidConfig {
            reason: "provisioning needs at least one device",
        });
    }
    let mut vendor = Vendor::new(
        seed ^ 0x464c_4545, // "FLEE"
        model_id,
        model,
        expected_enclave_measurement(),
    );
    let mut user = User::new(seed ^ 0x5553_4552); // "USER"
    let mut devices = Vec::with_capacity(n);
    for i in 0..n {
        let mut device = OmgDevice::new(seed.wrapping_add(1000 + i as u64))?;
        device.prepare(&mut user, &mut vendor)?;
        device.initialize_with_cache(&mut vendor, cache)?;
        counters::devices_provisioned().inc();
        devices.push(device);
    }
    Ok(devices)
}

// The serving runtime moves provisioned devices (and the transcriptions
// they produce) across threads; keep that guarantee compile-checked.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<OmgDevice>();
    assert_send::<crate::Transcription>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use omg_nn::model::{Activation, Op};
    use omg_nn::quantize::QuantParams;
    use omg_nn::tensor::DType;
    use omg_speech::dataset::SyntheticSpeechCommands;
    use omg_speech::frontend::FINGERPRINT_LEN;
    use omg_speech::streaming::SmootherConfig;

    /// A small FC model over the fingerprint so session tests stay fast.
    fn test_model() -> Model {
        let mut b = Model::builder();
        let input = b.add_activation(
            "in",
            vec![1, FINGERPRINT_LEN],
            DType::I8,
            Some(QuantParams {
                scale: 1.0 / 255.0,
                zero_point: -128,
            }),
        );
        let w = b.add_weight_i8(
            "w",
            vec![12, FINGERPRINT_LEN],
            (0..12 * FINGERPRINT_LEN)
                .map(|i| ((i % 17) as i8) - 8)
                .collect(),
            QuantParams::symmetric(0.01),
        );
        let bias = b.add_weight_i32("b", vec![12], (0..12).map(|i| i * 50).collect());
        let out = b.add_activation(
            "logits",
            vec![1, 12],
            DType::I8,
            Some(QuantParams {
                scale: 0.5,
                zero_point: 0,
            }),
        );
        b.add_op(Op::FullyConnected {
            input,
            filter: w,
            bias,
            output: out,
            activation: Activation::None,
        });
        b.set_input(input);
        b.set_output(out);
        b.set_labels(omg_speech::dataset::LABELS);
        b.build().unwrap()
    }

    fn ready_device(park: bool) -> OmgDevice {
        let mut device = OmgDevice::new(700).unwrap();
        let mut user = User::new(701);
        let mut vendor = Vendor::new(702, "kws", test_model(), expected_enclave_measurement());
        device.prepare(&mut user, &mut vendor).unwrap();
        device.initialize(&mut vendor).unwrap();
        device.set_park_between_queries(park);
        device
    }

    #[test]
    fn session_matches_one_shot_classification() {
        let data = SyntheticSpeechCommands::new(40);
        let mut one_shot = ready_device(false);
        let mut warm = ready_device(false);
        let mut session = warm.session().unwrap();
        for class in 2..6 {
            let samples = data.utterance(class, 0).unwrap();
            let a = one_shot.classify_utterance(&samples).unwrap();
            let b = session.classify(&samples).unwrap();
            assert_eq!(a.class_index, b.class_index);
            assert_eq!(a.label, b.label);
            assert_eq!(a.score, b.score);
        }
        assert_eq!(session.queries(), 4);
        session.finish().unwrap();
    }

    #[test]
    fn session_amortizes_park_resume() {
        let data = SyntheticSpeechCommands::new(41);
        let samples = data.utterance(3, 0).unwrap();
        let queries = 5;

        // One-shot with parking: resume + park per query.
        let mut cold = ready_device(true);
        let _ = cold.classify_utterance(&samples).unwrap(); // enter steady state
        let cold_clock = cold.clock();
        let start = cold_clock.now();
        for _ in 0..queries {
            cold.classify_utterance(&samples).unwrap();
        }
        let cold_time = cold_clock.now() - start;

        // Warm session on an identically configured device: one resume,
        // one park, N queries in between.
        let mut warm = ready_device(true);
        let _ = warm.classify_utterance(&samples).unwrap();
        let warm_clock = warm.clock();
        let start = warm_clock.now();
        let mut session = warm.session().unwrap();
        for _ in 0..queries {
            session.classify(&samples).unwrap();
        }
        session.finish().unwrap();
        let warm_time = warm_clock.now() - start;

        assert!(
            warm_time < cold_time,
            "warm {warm_time:?} should beat one-shot {cold_time:?}"
        );
    }

    #[test]
    fn session_scrubs_arena_on_finish() {
        let data = SyntheticSpeechCommands::new(42);
        let mut device = ready_device(false);
        {
            let mut session = device.session().unwrap();
            session.classify(&data.utterance(2, 0).unwrap()).unwrap();
        } // dropped without finish(): scrub still runs
        assert!(device.interpreter_arena_scrubbed().unwrap());

        let mut session = device.session().unwrap();
        session.classify(&data.utterance(3, 0).unwrap()).unwrap();
        session.finish().unwrap();
        assert!(device.interpreter_arena_scrubbed().unwrap());
    }

    #[test]
    fn session_streams_keywords() {
        let data = SyntheticSpeechCommands::new(43);
        // 3 seconds: silence, then a keyword utterance, then silence.
        let keyword = data.utterance(4, 0).unwrap();
        let mut stream = vec![0i16; 16_000];
        stream.extend_from_slice(&keyword);
        stream.extend_from_slice(&[0i16; 16_000]);

        let mut device = ready_device(false);
        let mut session = device.session().unwrap();
        let mut smoother = DetectionSmoother::new(SmootherConfig {
            min_score: 0.0,
            ..SmootherConfig::default()
        });
        let detections = session
            .classify_stream(&stream, 4_000, &mut smoother)
            .unwrap();
        // Every window got classified (windows = (48000-16000)/4000 + 1).
        assert_eq!(session.queries(), 9);
        // Detections only report non-background classes.
        assert!(detections.iter().all(|d| d.class >= 2));
        session.finish().unwrap();
    }

    #[test]
    fn crashed_session_fails_queries_cleanly() {
        let data = SyntheticSpeechCommands::new(48);
        let samples = data.utterance(2, 0).unwrap();
        let mut device = ready_device(true);
        let mut session = device.session().unwrap();
        session.classify(&samples).unwrap();
        session.crash_device().unwrap();
        // Every query after the crash fails with DeviceCrashed — no hang,
        // no panic — and dropping the session tolerates the lost enclave.
        assert!(matches!(
            session.classify(&samples),
            Err(crate::OmgError::DeviceCrashed)
        ));
        drop(session);
        assert_eq!(device.phase(), crate::device::DevicePhase::Fresh);
    }

    #[test]
    fn session_requires_initialized_device() {
        let mut device = OmgDevice::new(703).unwrap();
        assert!(device.session().is_err());
    }

    #[test]
    fn provisioned_fleet_shares_one_decrypted_image() {
        let mut cache = ModelCache::new();
        let devices =
            provision_devices_with_cache(3, "kws", test_model(), 910, &mut cache).unwrap();
        // Every device past the first was served from the cache...
        assert_eq!(cache.hits(), 2);
        // ...and all three interpreters borrow their weights from one
        // shared decrypted image: fleet weight memory is 1x, not Nx.
        let first = devices[0].model().expect("initialized");
        for d in &devices[1..] {
            assert!(first.shares_storage_with(d.model().unwrap()));
        }
        // An independently provisioned device does not share storage.
        let solo = provision_devices(1, "kws", test_model(), 911).unwrap();
        assert!(!first.shares_storage_with(solo[0].model().unwrap()));
    }

    #[test]
    fn cached_provisioning_matches_uncached_results() {
        let data = SyntheticSpeechCommands::new(47);
        let mut cached = provision_devices(2, "kws", test_model(), 912)
            .unwrap()
            .pop()
            .unwrap();
        let mut uncached = ready_device(false);
        for class in 2..8 {
            let samples = data.utterance(class, 0).unwrap();
            let a = cached.classify_utterance(&samples).unwrap();
            let b = uncached.classify_utterance(&samples).unwrap();
            assert_eq!(a.class_index, b.class_index);
            assert_eq!(a.label, b.label);
            assert_eq!(a.score, b.score);
        }
    }

    #[test]
    fn cache_rejects_different_models_and_versions() {
        // Two different vendors/models through one cache: the second
        // device's plaintext differs, so it must decode fresh (no false
        // sharing).
        let mut cache = ModelCache::new();
        let mut vendor_a = Vendor::new(920, "kws", test_model(), expected_enclave_measurement());
        let mut user = User::new(921);
        let mut dev_a = OmgDevice::new(922).unwrap();
        dev_a.prepare(&mut user, &mut vendor_a).unwrap();
        dev_a
            .initialize_with_cache(&mut vendor_a, &mut cache)
            .unwrap();

        // Same weights but a distinct model id: the id check must prevent
        // cross-model sharing even when the images happen to match.
        let mut vendor_b = Vendor::new(
            923,
            "kws-other",
            test_model(),
            expected_enclave_measurement(),
        );
        let mut dev_b = OmgDevice::new(924).unwrap();
        dev_b.prepare(&mut user, &mut vendor_b).unwrap();
        dev_b
            .initialize_with_cache(&mut vendor_b, &mut cache)
            .unwrap();
        assert_eq!(cache.hits(), 0, "distinct model ids must not share");
        assert!(!dev_a
            .model()
            .unwrap()
            .shares_storage_with(dev_b.model().unwrap()));
    }

    #[test]
    fn model_cache_lru_evicts_oldest_and_refreshes_on_hit() {
        let mut cache = ModelCache::with_capacity(2);
        let image = |tag: u8| ModelBuf::copy_from_slice(&[tag; 16]);
        cache.store("a", 1, image(1), test_model());
        cache.store("b", 1, image(2), test_model());
        assert_eq!(cache.len(), 2);

        // Touch "a": it becomes most-recently used.
        assert!(cache.lookup("a", 1, &image(1)).is_some());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.keys()[0].0, "a");

        // Storing "c" overflows capacity 2: the LRU entry ("b") goes.
        cache.store("c", 1, image(3), test_model());
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.keys(), vec![("c".to_owned(), 1), ("a".to_owned(), 1)]);
        assert!(cache.lookup("b", 1, &image(2)).is_none());
        assert!(cache.lookup("a", 1, &image(1)).is_some());
    }

    #[test]
    fn model_cache_distinguishes_versions_and_supersedes_same_key() {
        let mut cache = ModelCache::new();
        assert_eq!(cache.capacity(), ModelCache::DEFAULT_CAPACITY);
        assert!(cache.is_empty());
        let image = |tag: u8| ModelBuf::copy_from_slice(&[tag; 8]);
        cache.store("m", 1, image(1), test_model());
        cache.store("m", 2, image(2), test_model());
        assert_eq!(cache.len(), 2, "versions are distinct keys");
        // A vendor re-pushing (model_id, version) with new bytes replaces
        // the stale entry instead of duplicating the key.
        cache.store("m", 2, image(3), test_model());
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup("m", 2, &image(2)).is_none());
        assert!(cache.lookup("m", 2, &image(3)).is_some());
        // Key matches but plaintext differs: never falsely shared.
        assert!(cache.lookup("m", 1, &image(9)).is_none());
    }

    #[test]
    fn multi_model_host_does_not_thrash_one_cache() {
        // Two vendors with distinct model ids alternate through one
        // cache: with the LRU both stay resident, so the second round of
        // provisioning hits for both (the single-slot cache thrashed
        // here). Cache hits still share storage with the first decode.
        let mut cache = ModelCache::new();
        let mut user = User::new(930);
        let mut provision_one = |id: &str, seed: u64, cache: &mut ModelCache| {
            let mut vendor = Vendor::new(seed, id, test_model(), expected_enclave_measurement());
            let mut device = OmgDevice::new(seed + 1).unwrap();
            device.prepare(&mut user, &mut vendor).unwrap();
            device.initialize_with_cache(&mut vendor, cache).unwrap();
            device
        };
        let dev_a1 = provision_one("model-a", 931, &mut cache);
        let _dev_b1 = provision_one("model-b", 933, &mut cache);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 2);
        let dev_a2 = provision_one("model-a", 935, &mut cache);
        let _dev_b2 = provision_one("model-b", 937, &mut cache);
        assert_eq!(cache.hits(), 2, "second round must hit for both models");
        assert!(dev_a1
            .model()
            .unwrap()
            .shares_storage_with(dev_a2.model().unwrap()));
    }

    #[test]
    fn empty_fleet_is_rejected() {
        assert!(matches!(
            provision_devices(0, "kws", test_model(), 902),
            Err(crate::OmgError::InvalidConfig { .. })
        ));
    }
}
