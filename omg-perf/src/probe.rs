//! Layer probes for the traced run. The serving workers and the device
//! call the frontend, the interpreter, the enclave and the crypto from
//! inside the program, where this benchmark records no spans; so the
//! traced run also calls each layer's public functions directly, on the
//! workload's own inputs and at the sizes the workloads use, inside spans.

use omg_core::device::{expected_enclave_measurement, omg_enclave_image, ENCLAVE_MEMORY_BYTES};
use omg_core::{NativeSpotter, OmgDevice, User, Vendor};
use omg_crypto::aead::ChaCha20Poly1305;
use omg_crypto::rng::ChaChaRng;
use omg_crypto::rsa::RsaPrivateKey;
use omg_crypto::sha256::Sha256;
use omg_hal::clock::SimClock;
use omg_hal::Platform;
use omg_nn::model::Op;
use omg_nn::{Interpreter, Model};
use omg_sanctuary::enclave::{sanctuary_library_image, EnclaveConfig, SanctuaryEnclave};
use omg_sanctuary::identity::{DevicePki, DEFAULT_KEY_BITS};
use omg_speech::fft::FixedFft;
use omg_speech::frontend::{FeatureExtractor, FingerprintBuffer, FFT_LEN, WINDOW_SAMPLES};

use crate::inputs::{Clip, SeedBook};
use crate::trace::Tracer;

/// Probe results that are not span durations.
#[derive(Debug, Default)]
pub struct Direct {
    pub modelled_us_per_query: f64,
    pub measured_us_per_query: f64,
    pub world_switches_per_query: f64,
    pub omg_native_ratio: f64,
    pub conv2d_us: f64,
    pub fully_connected_us: f64,
    pub softmax_us: f64,
    pub conv_mmacs_per_s: f64,
}

const REPS: usize = 64;

pub fn run(model: &Model, clips: &[Clip], seeds: &SeedBook, tracer: &Tracer) -> Direct {
    let mut direct = Direct::default();
    let clip = |i: usize| clips[i % clips.len()].samples.as_slice();

    // omg-speech: the whole frontend and one 512-point FFT.
    let extractor = FeatureExtractor::new().expect("frontend");
    let mut buf = FingerprintBuffer::new();
    for i in 0..REPS {
        tracer.scope("speech.fingerprint", None, i as u64, || {
            extractor
                .fingerprint_into(clip(i), &mut buf)
                .expect("fingerprint")
        });
    }
    let fft = FixedFft::new(FFT_LEN).expect("fft plan");
    let (mut re, mut im) = (vec![0i16; FFT_LEN], vec![0i16; FFT_LEN]);
    for i in 0..4 * REPS {
        re.fill(0);
        im.fill(0);
        re[..WINDOW_SAMPLES].copy_from_slice(&clip(i)[..WINDOW_SAMPLES]);
        tracer.scope("speech.fft512", None, i as u64, || {
            fft.forward(&mut re, &mut im).expect("fft")
        });
    }

    // omg-nn: load, build, classify, and per-op time from the profiler.
    let blob = omg_nn::format::serialize(model);
    for i in 0..REPS / 2 {
        tracer.scope("nn.deserialize", None, i as u64, || {
            omg_nn::format::deserialize(&blob).expect("model")
        });
        tracer.scope("nn.interpreter_new", None, i as u64, || {
            Interpreter::new(model.clone()).expect("interpreter")
        });
    }
    let fingerprints: Vec<Vec<i8>> = (0..REPS)
        .map(|i| extractor.fingerprint(clip(i)).expect("fingerprint"))
        .collect();
    let mut interp = Interpreter::new(model.clone()).expect("interpreter");
    for (i, fp) in fingerprints.iter().enumerate() {
        tracer.scope("nn.classify", None, i as u64, || {
            interp.classify(fp).expect("classify")
        });
    }
    interp.enable_profiling();
    for fp in &fingerprints {
        interp.classify(fp).expect("classify");
    }
    let profile = interp.profile().expect("profiling on");
    let per_invoke_us = |kernel: &str| {
        profile
            .entries
            .iter()
            .filter(|e| e.kernel == kernel)
            .map(|e| e.total_ns as f64)
            .sum::<f64>()
            / profile.invokes.max(1) as f64
            / 1e3
    };
    direct.conv2d_us = per_invoke_us("conv2d");
    direct.fully_connected_us = per_invoke_us("fully_connected");
    direct.softmax_us = per_invoke_us("softmax");
    direct.conv_mmacs_per_s = conv_macs(model) as f64 / direct.conv2d_us.max(1e-9);

    // omg-core and omg-hal: a warm session on a provisioned device, with
    // the virtual clock's split before and after, and the native baseline.
    let seed = seeds.device();
    let mut vendor = Vendor::new(
        seed ^ 0x5645,
        "kws",
        model.clone(),
        expected_enclave_measurement(),
    );
    let mut user = User::new(seed ^ 0x5553);
    let mut device = OmgDevice::new(seed).expect("probe device");
    device.prepare(&mut user, &mut vendor).expect("prepare");
    device.initialize(&mut vendor).expect("initialize");
    let clock = device.clock();
    let (now0, modelled0, measured0, switches0) = (
        clock.now(),
        clock.modelled(),
        clock.measured(),
        clock.world_switch_count(),
    );
    {
        let mut session = device.session().expect("session");
        for i in 0..REPS {
            tracer.scope("core.session_classify", None, i as u64, || {
                session.classify(clip(i)).expect("classify")
            });
            tracer.scope("core.scrub", None, i as u64, || session.scrub());
        }
        session.finish().expect("finish");
    }
    let n = REPS as f64;
    direct.modelled_us_per_query = (clock.modelled() - modelled0).as_secs_f64() * 1e6 / n;
    direct.measured_us_per_query = (clock.measured() - measured0).as_secs_f64() * 1e6 / n;
    direct.world_switches_per_query = (clock.world_switch_count() - switches0) as f64 / n;
    let omg_virtual = (clock.now() - now0).as_secs_f64();
    let mut native = NativeSpotter::new(model.clone()).expect("native");
    let native_clock = SimClock::default();
    for i in 0..REPS {
        native
            .classify_utterance(&native_clock, clip(i))
            .expect("native classify");
    }
    direct.omg_native_ratio = omg_virtual / native_clock.now().as_secs_f64().max(1e-12);
    device.teardown().expect("teardown");

    // omg-sanctuary: an enclave of the deployed image on its own platform.
    let mut platform = Platform::hikey960();
    let mut rng = ChaChaRng::seed_from_u64(seeds.device());
    let pki = DevicePki::new(&mut rng).expect("pki");
    let mut enclave = SanctuaryEnclave::setup(
        &mut platform,
        EnclaveConfig::new("probe", omg_enclave_image()),
    )
    .expect("enclave setup");
    enclave
        .boot(&mut platform, &pki, &mut rng)
        .expect("enclave boot");
    for i in 0..8 * REPS {
        tracer.scope("sanctuary.run_compute", None, i as u64, || {
            enclave.run_compute(&mut platform, || ()).expect("compute")
        });
    }
    for i in 0..REPS {
        tracer.scope("sanctuary.park_resume", None, i as u64, || {
            enclave.park(&mut platform).expect("park");
            enclave.resume(&mut platform).expect("resume");
        });
    }
    let identity = enclave.identity().expect("booted").keypair().clone();
    enclave.teardown(&mut platform).expect("teardown");

    // omg-crypto at the sizes provisioning uses: fresh 1024-bit keys, the
    // 1 MiB enclave measurement, report signatures, the K_U unwrap and
    // the model package.
    for i in 0..3 {
        let mut rng = ChaChaRng::seed_from_u64(seeds.device());
        tracer.scope("crypto.rsa_keygen", None, i, || {
            RsaPrivateKey::generate(&mut rng, DEFAULT_KEY_BITS).expect("keygen")
        });
    }
    let mut image = sanctuary_library_image();
    image.extend_from_slice(&omg_enclave_image());
    image.resize(ENCLAVE_MEMORY_BYTES as usize, 0);
    for i in 0..REPS / 4 {
        tracer.scope("crypto.sha256", None, i as u64, || Sha256::digest(&image));
    }
    let wrapped = identity
        .public_key()
        .encrypt(&mut rng, &[7u8; 32])
        .expect("wrap");
    let sealer = ChaCha20Poly1305::new(&[9u8; 32]);
    let sealed = sealer.seal(&[3u8; 12], b"kws", &blob);
    for i in 0..REPS / 2 {
        let q = i as u64;
        tracer.scope("crypto.rsa_sign", None, q, || {
            identity.sign(&image[..64]).expect("sign")
        });
        tracer.scope("crypto.rsa_decrypt", None, q, || {
            identity.decrypt(&wrapped).expect("unwrap")
        });
        tracer.scope("crypto.aead_open", None, q, || {
            sealer.open(&[3u8; 12], b"kws", &sealed).expect("open")
        });
    }
    direct
}

/// Times the frontend and the network on single stream windows, between
/// the buffers of the traced stream phase, so the stream's anatomy is
/// compared with stage times from the same minutes of the run.
pub struct WindowProbe {
    extractor: FeatureExtractor,
    buf: FingerprintBuffer,
    interp: Interpreter,
}

impl WindowProbe {
    pub fn new(model: &Model) -> Self {
        WindowProbe {
            extractor: FeatureExtractor::new().expect("frontend"),
            buf: FingerprintBuffer::new(),
            interp: Interpreter::new(model.clone()).expect("interpreter"),
        }
    }

    pub fn run(&mut self, window: &[i16], tracer: &Tracer, q: u64) {
        let WindowProbe {
            extractor,
            buf,
            interp,
        } = self;
        tracer.scope("speech.fingerprint", None, q, || {
            extractor
                .fingerprint_into(window, buf)
                .expect("fingerprint")
        });
        tracer.scope("nn.classify", None, q, || {
            interp.classify(buf.fingerprint()).expect("classify")
        });
    }
}

/// Multiply-accumulates of the model's `Conv2D` ops per invoke, from the
/// tensor shapes: output elements × filter taps × input channels.
fn conv_macs(model: &Model) -> u64 {
    model
        .ops()
        .iter()
        .filter_map(|op| match *op {
            Op::Conv2D { filter, output, .. } => {
                let out = model.tensor(output).ok()?.elem_count() as u64;
                let f = model.tensor(filter).ok()?.shape().to_vec();
                Some(out * (f[1] * f[2] * f[3]) as u64)
            }
            _ => None,
        })
        .sum()
}
