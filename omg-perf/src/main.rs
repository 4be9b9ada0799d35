//! The OMG benchmark: drives one seeded workload through the public APIs
//! of the pipeline (audio → enclave frontend → int8 interpreter → label,
//! served by `omg-serve`), checks every answer against a reference oracle
//! and prints the metrics as one JSON line. See README.md.
//!
//! ```text
//! omg-perf --workload <fleet_closed|device_open|kws_stream|provision>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```

mod inputs;
mod lifecycle;
mod probe;
mod queries;
mod serve;
mod stats;
mod stream;
mod trace;

use std::path::PathBuf;
use std::time::{Duration, Instant};

use omg_nn::Model;

use inputs::{Clip, SeedBook, SplitMix};
use lifecycle::{Lifecycle, LifecycleStats};
use queries::Queries;
use stats::Samples;
use trace::Tracer;

/// The shipped keyword model (OMGM, the checked-in pre-trained blob).
const MODEL_BLOB: &[u8] =
    include_bytes!("../../crates/omg-bench/data/tiny_conv_fast_seed0_v2.omgm");
/// Set-up is repeated, each one torn down before the next (only the last
/// is kept for the workload), until the set-ups have taken this long and
/// at least [`MIN_SETUP_REPS`] have run; `setup_s` is their median. Most of
/// a set-up is RSA key generation, whose time varies from key to key, so
/// a steady median needs a few dozen of the shorter set-ups.
const SETUP_BUDGET_S: f64 = 10.0;
const MIN_SETUP_REPS: usize = 11;
/// Fresh devices at least in an untraced `provision` run: enough that ten
/// cold starts lie beyond p90.
const LIFECYCLE_DEVICES: usize = 100;
/// Devices in the lifecycle phase of a traced run of the other workloads
/// (per-layer medians only).
const TRACED_LIFECYCLE_DEVICES: usize = 16;
/// Closed-loop clients: the host's two vCPUs.
const THREADS: usize = 2;
/// Open-loop arrival rate for `device_open`.
const OPEN_RATE_HZ: f64 = 200.0;
/// Distinct utterances a run cycles through.
const CLIPS: usize = 96;
/// Utterances in the keyword stream.
const STREAM_UTTERANCES: usize = 12;
/// Anatomy check: the stage medians on a query's blocking path must sum
/// to the end-to-end median within this share of it.
const ANATOMY_TOLERANCE: f64 = 0.25;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    FleetClosed,
    DeviceOpen,
    KwsStream,
    Provision,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "fleet_closed" => Workload::FleetClosed,
            "device_open" => Workload::DeviceOpen,
            "kws_stream" => Workload::KwsStream,
            "provision" => Workload::Provision,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::FleetClosed => "fleet_closed",
            Workload::DeviceOpen => "device_open",
            Workload::KwsStream => "kws_stream",
            Workload::Provision => "provision",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or(format!("missing {flag}"))
    };
    let workload = get("--workload")?;
    let workload = Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run found, before it is printed.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn count(&mut self, q: &Queries) {
        self.attempted += q.attempted();
        self.failed += q.failed;
        self.problems.extend(q.failures.iter().cloned());
    }

    fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.problems.is_empty() && self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Inputs and oracle answers every workload shares.
struct Shared {
    model: Model,
    versions: Vec<Model>,
    clips: Vec<Clip>,
    answers: Vec<inputs::Answer>,
    seeds: SeedBook,
}

/// Generates the shared inputs from the seed and checks that a second
/// generation from the same seed is identical, answers included.
fn shared_inputs(rng: &mut SplitMix, out: &mut Outcome) -> Shared {
    let model = omg_nn::format::deserialize(MODEL_BLOB).expect("shipped model loads");
    let versions: Vec<Model> = (1..=lifecycle::UPDATES_PER_DEVICE as u32 + 1)
        .map(|v| inputs::model_version(&model, v))
        .collect();
    let mut clip_rng = rng.fork(1);
    let repeat_rng = clip_rng.clone();
    let clips = inputs::clips(&mut clip_rng, CLIPS);
    let refs: Vec<&[i16]> = clips.iter().map(|c| c.samples.as_slice()).collect();
    let answers = inputs::reference_answers(&model, &refs);

    let again = inputs::clips(&mut repeat_rng.clone(), CLIPS);
    let again_refs: Vec<&[i16]> = again.iter().take(8).map(|c| c.samples.as_slice()).collect();
    out.check(
        again == clips && inputs::reference_answers(&model, &again_refs) == answers[..8],
        || "the same seed generated different inputs or answers".into(),
    );
    let seeds = SeedBook::new(rng.fork(2));
    Shared {
        model,
        versions,
        clips,
        answers,
        seeds,
    }
}

fn lifecycle<'a>(s: &'a Shared, tracer: &'a Tracer) -> Lifecycle<'a> {
    Lifecycle {
        versions: &s.versions,
        clips: &s.clips,
        answers: &s.answers,
        seeds: &s.seeds,
        tracer,
    }
}

/// What a workload's requests came to. A request is a query in the
/// serving workloads, an 8-window buffer in `kws_stream`, and a model
/// update in `provision` (vendor update → first correct answer on the new
/// version; the cold starts are timed as its set-up).
#[derive(Default)]
struct Requests {
    latency_ms: Samples,
    on_time: f64,
    /// Correct answers per second (windows for the stream).
    throughput_qps: f64,
    device_ms_per_query: f64,
}

impl Requests {
    /// `work` is the number of windows one answer covers.
    fn new(q: &Queries, work: f64, life: Option<&LifecycleStats>) -> Requests {
        let (latency_ms, on_time) = match life {
            Some(l) => (l.model_update_ms.clone(), l.updates_on_time()),
            None => (q.latency_ms(), q.on_time()),
        };
        Requests {
            latency_ms,
            on_time,
            throughput_qps: q.per_second() * work,
            device_ms_per_query: q.device_ms_mean(),
        }
    }
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
fn end_to_end(out: &mut Outcome, r: &Requests, setup: &Samples, peak_rss_mb: f64) {
    out.put("latency_p90_ms", r.latency_ms.pct(0.9), "ms");
    out.put("on_time_frac", r.on_time, "fraction");
    out.put("setup_s", setup.median(), "s");
    out.put("peak_rss_mb", peak_rss_mb, "MiB");
}

/// Layer numbers gathered during a traced run, beside the spans.
#[derive(Default)]
struct LayerExtras {
    serve_counts: [u64; 3],
    stream_windows: u64,
    detections: u64,
    gen_late_ms: Samples,
    trace_overhead: f64,
    /// The untraced half's requests.
    requests: Requests,
    /// The lifecycle's cold starts and model updates.
    life: LifecycleStats,
    anatomy: Anatomy,
}

fn per_layer(out: &mut Outcome, tracer: &Tracer, direct: &probe::Direct, x: &LayerExtras) {
    let dur = tracer.durations_us();
    let (request_stages, _) = tracer.anatomy("serve.request");
    let reply = request_stages
        .iter()
        .find(|(n, _)| *n == "self")
        .map_or(0.0, |&(_, v)| v);
    let p50 = |name: &str| dur.get(name).map_or(0.0, Samples::median);
    let ms = |v: f64| v / 1e3;
    out.put("serve.submit_us_p50", p50("serve.submit"), "us");
    out.put("serve.queue_wait_ms_p50", ms(p50("serve.queue_wait")), "ms");
    let qw99 = dur.get("serve.queue_wait").map_or(0.0, |s| s.pct(0.99));
    out.put("serve.queue_wait_ms_p99", ms(qw99), "ms");
    out.put(
        "serve.worker_compute_ms_p50",
        ms(p50("serve.worker_compute")),
        "ms",
    );
    out.put("serve.reply_us_p50", reply, "us");
    out.put("serve.rejected", x.serve_counts[0] as f64, "count");
    out.put("serve.failed", x.serve_counts[1] as f64, "count");
    out.put("serve.discarded", x.serve_counts[2] as f64, "count");
    out.put(
        "core.session_classify_ms_p50",
        ms(p50("core.session_classify")),
        "ms",
    );
    out.put("core.scrub_us_p50", p50("core.scrub"), "us");
    out.put("core.device_new_ms", ms(p50("core.device_new")), "ms");
    out.put("core.prepare_ms", ms(p50("core.prepare")), "ms");
    out.put("core.initialize_ms", ms(p50("core.initialize")), "ms");
    out.put("core.update_model_ms", ms(p50("core.update_model")), "ms");
    out.put("core.teardown_ms", ms(p50("core.teardown")), "ms");
    out.put(
        "sanctuary.run_compute_us_p50",
        p50("sanctuary.run_compute"),
        "us",
    );
    out.put(
        "sanctuary.park_resume_us_p50",
        p50("sanctuary.park_resume"),
        "us",
    );
    out.put(
        "hal.modelled_us_per_query",
        direct.modelled_us_per_query,
        "us",
    );
    out.put(
        "hal.measured_us_per_query",
        direct.measured_us_per_query,
        "us",
    );
    out.put(
        "hal.world_switches_per_query",
        direct.world_switches_per_query,
        "count",
    );
    out.put("hal.omg_native_ratio", direct.omg_native_ratio, "ratio");
    out.put(
        "speech.fingerprint_ms_p50",
        ms(p50("speech.fingerprint")),
        "ms",
    );
    out.put("speech.fft512_us_p50", p50("speech.fft512"), "us");
    out.put("speech.stream_windows", x.stream_windows as f64, "count");
    out.put("speech.detections", x.detections as f64, "count");
    out.put("nn.classify_us_p50", p50("nn.classify"), "us");
    out.put("nn.op.conv2d_us", direct.conv2d_us, "us");
    out.put("nn.op.fully_connected_us", direct.fully_connected_us, "us");
    out.put("nn.op.softmax_us", direct.softmax_us, "us");
    out.put("nn.conv_mmacs_per_s", direct.conv_mmacs_per_s, "MMAC/s");
    out.put("nn.deserialize_us", p50("nn.deserialize"), "us");
    out.put("nn.interpreter_new_us", p50("nn.interpreter_new"), "us");
    out.put("crypto.rsa_keygen_ms", ms(p50("crypto.rsa_keygen")), "ms");
    out.put("crypto.sha256_us", p50("crypto.sha256"), "us");
    out.put("crypto.rsa_sign_us", p50("crypto.rsa_sign"), "us");
    out.put("crypto.rsa_decrypt_us", p50("crypto.rsa_decrypt"), "us");
    out.put("crypto.aead_open_us", p50("crypto.aead_open"), "us");
    out.put("bench.throughput_qps", x.requests.throughput_qps, "1/s");
    out.put("bench.latency_p50_ms", x.requests.latency_ms.median(), "ms");
    out.put(
        "bench.latency_p99_ms",
        x.requests.latency_ms.pct(0.99),
        "ms",
    );
    out.put(
        "bench.device_ms_per_query",
        x.requests.device_ms_per_query,
        "ms",
    );
    let (cold, update) = (&x.life.cold_start_ms, &x.life.model_update_ms);
    out.put("bench.cold_start_ms_p50", cold.median(), "ms");
    out.put("bench.cold_start_ms_p90", cold.pct(0.9), "ms");
    out.put("bench.model_update_ms_p50", update.median(), "ms");
    out.put("bench.model_update_ms_p90", update.pct(0.9), "ms");
    out.put("bench.gen_late_ms_p99", x.gen_late_ms.pct(0.99), "ms");
    out.put("bench.trace_overhead", x.trace_overhead, "ratio");
    let (stages, e2e) = &x.anatomy;
    let sum: f64 = stages.iter().map(|(_, v)| v).sum();
    let gap = (sum - e2e) / e2e.max(1e-9);
    out.put("bench.anatomy_gap", gap, "ratio");
    out.put("bench.spans", tracer.len() as f64, "count");
    out.check(gap.abs() <= ANATOMY_TOLERANCE, || {
        format!(
            "anatomy: stage medians {stages:?} sum to {sum:.1} us, end-to-end median {e2e:.1} us"
        )
    });
}

/// The anatomy of a query: its blocking-path stages with their medians
/// (µs), and the end-to-end median they should sum to.
type Anatomy = (Vec<(&'static str, f64)>, f64);

/// One run: the inputs, what has been measured so far and the outcome.
struct Run<'a> {
    args: &'a Args,
    shared: Shared,
    rng: SplitMix,
    /// The measured time of one phase. A traced run splits `--seconds`:
    /// an untraced half gives the baseline for the tracing overhead, a
    /// traced half the spans.
    phase: Duration,
    order: Vec<usize>,
    /// On in a traced run; `off` serves the untraced phases.
    tracer: Tracer,
    off: Tracer,
    setup: Samples,
    x: LayerExtras,
    out: Outcome,
}

fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut rng = SplitMix::new(args.seed);
    let shared = shared_inputs(&mut rng, &mut out);
    let mut order_rng = rng.fork(3);
    let order = (0..4 * CLIPS)
        .map(|_| order_rng.below(CLIPS as u64) as usize)
        .collect();
    let secs = Duration::from_secs_f64(args.seconds);
    let mut r = Run {
        args,
        shared,
        rng,
        phase: if args.trace { secs / 2 } else { secs },
        order,
        tracer: Tracer::new(args.trace),
        off: Tracer::default(),
        setup: Samples::default(),
        x: LayerExtras::default(),
        out,
    };
    let (queries, work, life) = match args.workload {
        Workload::FleetClosed => (r.serve(false), 1.0, None),
        Workload::DeviceOpen => (r.serve(true), 1.0, None),
        Workload::KwsStream => (r.stream(), inputs::CHUNK_WINDOWS as f64, None),
        Workload::Provision => {
            let (q, life) = r.provision();
            (q, 1.0, Some(life))
        }
    };
    r.out.count(&queries);
    // Read before the summaries below allocate.
    let peak_rss_mb = stats::peak_rss_mb();
    let requests = Requests::new(&queries, work, life.as_ref());
    if args.trace {
        r.x.life = life.unwrap_or_else(|| r.traced_lifecycle());
        r.x.requests = requests;
        r.traced_tail();
    } else {
        end_to_end(&mut r.out, &requests, &r.setup, peak_rss_mb);
    }
    r.out
}

impl Run<'_> {
    fn more_setups(&self) -> bool {
        self.setup.count() < MIN_SETUP_REPS || self.setup.sum() < SETUP_BUDGET_S
    }

    /// `fleet_closed` (`open` false) or `device_open`: returns the
    /// untraced phase's queries.
    fn serve(&mut self, open: bool) -> Queries {
        let workers = if open { 1 } else { 2 };
        let mut fleet: Option<omg_serve::ServeHandle> = None;
        while self.more_setups() {
            if let Some(h) = fleet.take() {
                h.drain();
            }
            let (h, d) =
                serve::provision(MODEL_BLOB, workers, &self.shared.seeds, &self.shared.clips);
            self.setup.push(d.as_secs_f64());
            fleet = Some(h);
        }
        let handle = fleet.expect("set-up reps");
        let shared = &self.shared;
        let oracle = serve::Oracle {
            clips: &shared.clips,
            answers: &shared.answers,
            model: &shared.model,
        };
        let flight = serve::FlightLog::default();
        let traced = serve::Traced {
            tracer: &self.tracer,
            flight: &flight,
        };
        let mut sched_rng = self.rng.fork(4);
        let (phase, order) = (self.phase, &self.order);
        let mut measure = |t: Option<&serve::Traced<'_>>,
                           x: &mut LayerExtras,
                           out: &mut Outcome| {
            if !open {
                return serve::closed_loop(
                    &handle,
                    &oracle,
                    order,
                    THREADS,
                    Instant::now() + phase,
                    t,
                );
            }
            let repeat = sched_rng.clone();
            let due = inputs::poisson_schedule(&mut sched_rng, OPEN_RATE_HZ, phase.as_secs_f64());
            out.check(
                inputs::poisson_schedule(&mut repeat.clone(), OPEN_RATE_HZ, phase.as_secs_f64())
                    == due,
                || "the same seed generated a different arrival schedule".into(),
            );
            let r = serve::open_loop(&handle, &oracle, order, &due, t);
            out.check(r.backlog_at_end <= serve::MAX_BACKLOG, || {
                format!(
                    "backlog grew: {} queries outstanding when arrivals ended",
                    r.backlog_at_end
                )
            });
            if t.is_some() {
                x.gen_late_ms = r.gen_late_ms;
            }
            r.queries
        };
        let q = measure(None, &mut self.x, &mut self.out);
        if self.args.trace {
            let tq = measure(Some(&traced), &mut self.x, &mut self.out);
            self.x.trace_overhead = tq.per_second() / q.per_second().max(1e-9);
            self.x.anatomy = self.tracer.anatomy("serve.request");
            self.out.count(&tq);
        }
        let drained = handle.drain();
        let s = &drained.stats;
        self.x.serve_counts = [s.rejected, s.failed, s.discarded];
        self.out.check(drained.is_healthy(), || {
            format!("fleet drained unhealthy: {:?}", drained.worker_errors)
        });
        q
    }

    /// `kws_stream`: returns the untraced phase's buffers.
    fn stream(&mut self) -> Queries {
        let mut stream_rng = self.rng.fork(5);
        let repeat = stream_rng.clone();
        let audio = inputs::stream(&mut stream_rng, STREAM_UTTERANCES);
        let chunks = inputs::chunk_ranges(audio.len());
        let windows = inputs::stream_windows(&audio, &chunks);
        let window_answers = inputs::reference_answers(&self.shared.model, &windows);
        let expected = inputs::reference_detections(&audio, &chunks, &window_answers);
        let again = inputs::stream(&mut repeat.clone(), STREAM_UTTERANCES);
        self.out.check(
            again == audio
                && inputs::reference_answers(&self.shared.model, &windows[..8])
                    == window_answers[..8],
            || "the same seed generated a different stream or answers".into(),
        );
        let mut kept: Option<omg_core::OmgDevice> = None;
        while self.more_setups() {
            if let Some(mut d) = kept.take() {
                d.teardown().expect("teardown");
            }
            let (d, t) = stream::provision(MODEL_BLOB, &self.shared.seeds, &audio, &chunks);
            self.setup.push(t.as_secs_f64());
            kept = Some(d);
        }
        let mut device = kept.expect("set-up reps");
        let untraced = stream::run(
            &mut device,
            &audio,
            &chunks,
            &expected,
            Instant::now() + self.phase,
            &self.off,
            None,
        );
        if self.args.trace {
            let mut probe = probe::WindowProbe::new(&self.shared.model);
            let deadline = Instant::now() + self.phase;
            let traced = stream::run(
                &mut device,
                &audio,
                &chunks,
                &expected,
                deadline,
                &self.tracer,
                Some(&mut probe),
            );
            self.x.trace_overhead =
                traced.queries.per_second() / untraced.queries.per_second().max(1e-9);
            self.x.stream_windows = traced.windows;
            self.x.detections = traced.detections;
            self.out.count(&traced.queries);
            // A buffer's blocking path: per window, the frontend and the
            // network (entering the enclave costs ~1 µs and is left out).
            let dur = self.tracer.durations_us();
            let windows = inputs::CHUNK_WINDOWS as f64;
            let stages = ["speech.fingerprint", "nn.classify"]
                .map(|s| (s, windows * dur.get(s).map_or(0.0, Samples::median)));
            let buffer = dur.get("core.classify_stream").map_or(0.0, Samples::median);
            self.x.anatomy = (stages.to_vec(), buffer);
        }
        device.teardown().expect("teardown");
        untraced.queries
    }

    /// `provision`: the lifecycle for the whole measured time (at least
    /// [`LIFECYCLE_DEVICES`] devices untraced), one device after another;
    /// returns its answers and its cold starts and updates.
    fn provision(&mut self) -> (Queries, LifecycleStats) {
        while self.more_setups() {
            self.setup
                .push(provision_setup(&self.shared.seeds, &self.shared.clips));
        }
        let min_devices = if self.args.trace {
            0
        } else {
            LIFECYCLE_DEVICES
        };
        let mut untraced =
            lifecycle(&self.shared, &self.off).run(min_devices, Some(Instant::now() + self.phase));
        if self.args.trace {
            let traced =
                lifecycle(&self.shared, &self.tracer).run(0, Some(Instant::now() + self.phase));
            self.x.trace_overhead =
                traced.queries.per_second() / untraced.queries.per_second().max(1e-9);
            self.x.anatomy = self.tracer.anatomy("lifecycle.cold_start");
            self.out.count(&traced.queries);
        }
        (std::mem::take(&mut untraced.queries), untraced)
    }

    /// The lifecycle phase of a traced run of the other workloads, after
    /// their serving phase: the `core.*` spans and model update times of a
    /// few fresh devices.
    fn traced_lifecycle(&mut self) -> LifecycleStats {
        let life = lifecycle(&self.shared, &self.tracer).run(TRACED_LIFECYCLE_DEVICES, None);
        self.out.count(&life.queries);
        life
    }

    /// The end of a traced run: layer probes, the per-layer metrics and
    /// the span file.
    fn traced_tail(&mut self) {
        let direct = probe::run(
            &self.shared.model,
            &self.shared.clips,
            &self.shared.seeds,
            &self.tracer,
        );
        per_layer(&mut self.out, &self.tracer, &direct, &self.x);
        let args = self.args;
        let path = spans_path(args);
        let header = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"kernel_tier\":\"{}\",\"nproc\":{}}}",
            args.workload.name(),
            args.seed,
            omg_nn::arch::detect().name,
            nproc()
        );
        if let Err(e) = self.tracer.write(&path, &header) {
            self.out
                .problems
                .push(format!("writing spans to {}: {e}", path.display()));
        }
    }
}

/// One provision set-up: load the model, build its versions, and bring a
/// warm-up device from nothing to its first answer.
fn provision_setup(seeds: &SeedBook, clips: &[Clip]) -> f64 {
    let seed = seeds.device();
    let start = Instant::now();
    let model = omg_nn::format::deserialize(MODEL_BLOB).expect("shipped model loads");
    let versions: Vec<Model> = (1..=lifecycle::UPDATES_PER_DEVICE as u32 + 1)
        .map(|v| inputs::model_version(&model, v))
        .collect();
    let mut vendor = omg_core::Vendor::new(
        seed ^ 0x5645,
        "kws",
        versions[0].clone(),
        omg_core::device::expected_enclave_measurement(),
    );
    let mut user = omg_core::User::new(seed ^ 0x5553);
    let mut device = omg_core::OmgDevice::new(seed).expect("device");
    device.prepare(&mut user, &mut vendor).expect("prepare");
    device.initialize(&mut vendor).expect("initialize");
    device
        .classify_utterance(&clips[0].samples)
        .expect("warm-up answer");
    let t = start.elapsed().as_secs_f64();
    device.teardown().expect("teardown");
    t
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Spans go beside the build: `$CARGO_TARGET_DIR/omg-perf/`, by default
/// `.bench_build/omg-perf/` under the working directory.
fn spans_path(args: &Args) -> PathBuf {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from(".bench_build"), PathBuf::from);
    dir.join("omg-perf").join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("omg-perf: {e}");
            std::process::exit(2);
        }
    };
    let out = run(&args);
    for p in &out.problems {
        eprintln!("omg-perf: FAILED CHECK: {p}");
    }
    println!(
        "# omg-perf workload={} seed={} seconds={} trace={} kernel_tier={} nproc={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        omg_nn::arch::detect().name,
        nproc()
    );
    println!("{}", out.json());
    if !out.problems.is_empty() || out.failed > 0 {
        std::process::exit(1);
    }
}
