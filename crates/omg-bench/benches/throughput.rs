//! Throughput bench: queries/sec of the serving configurations enabled by
//! the zero-copy engine and warm sessions.
//!
//! Reports four configurations over the same workload:
//!
//! * **one-shot** — `classify_utterance` with park-between-queries, the
//!   paper's §V operation mode (resume + park around every query);
//! * **warm session** — one `QuerySession` serving the whole burst
//!   (resume once, park once);
//! * **fleet** — N devices served concurrently by an `omg-serve` fleet;
//!   throughput is measured against the busiest device's virtual clock
//!   since devices run concurrently;
//! * **batched interpreter** — raw `Interpreter::classify` vs
//!   `classify_batch` on precomputed fingerprints (host wall time; the
//!   virtual clock does not model interpreter internals).
//!
//! Device-path numbers use the simulated platform's virtual clock, so they
//! are deterministic; the bench *asserts* that the warm session beats the
//! one-shot path, making the perf claim regression-checked. Run with
//! `--quick` (the CI smoke mode) for a reduced workload.

use std::time::{Duration, Instant};

use omg_bench::{cached_tiny_conv, paper_test_subset, ModelKind};
use omg_core::device::expected_enclave_measurement;
use omg_core::{provision_devices, OmgDevice, User, Vendor};
use omg_nn::Interpreter;
use omg_serve::{ServeConfig, ServeHandle};

struct Config {
    queries: usize,
    fleet_size: usize,
    batch_rounds: usize,
}

fn ready_device(seed: u64, park: bool) -> OmgDevice {
    let model = cached_tiny_conv(ModelKind::Fast);
    let mut device = OmgDevice::new(seed).expect("device");
    let mut user = User::new(seed + 1);
    let mut vendor = Vendor::new(seed + 2, "kws", model, expected_enclave_measurement());
    device.prepare(&mut user, &mut vendor).expect("prepare");
    device.initialize(&mut vendor).expect("initialize");
    device.set_park_between_queries(park);
    device
}

fn qps(queries: usize, elapsed: Duration) -> f64 {
    queries as f64 / elapsed.as_secs_f64().max(1e-12)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = if quick {
        Config {
            queries: 12,
            fleet_size: 2,
            batch_rounds: 5,
        }
    } else {
        Config {
            queries: 60,
            fleet_size: 4,
            batch_rounds: 50,
        }
    };
    let eval = paper_test_subset(if quick { 1 } else { 3 });
    let workload: Vec<&[i16]> = (0..cfg.queries)
        .map(|i| eval.utterances[i % eval.utterances.len()].as_slice())
        .collect();

    println!(
        "== OMG serving throughput ({} queries{}) ==",
        cfg.queries,
        {
            if quick {
                ", --quick"
            } else {
                ""
            }
        }
    );

    // --- one-shot: park/resume around every query ------------------------
    let mut device = ready_device(10, true);
    let _ = device.classify_utterance(workload[0]).expect("warmup");
    let clock = device.clock();
    let start = clock.now();
    let host_start = Instant::now();
    for samples in &workload {
        device.classify_utterance(samples).expect("one-shot");
    }
    let one_shot_virtual = clock.now() - start;
    let one_shot_host = host_start.elapsed();
    let one_shot_qps = qps(cfg.queries, one_shot_virtual);
    println!(
        "one-shot (park per query):   {one_shot_qps:>9.1} q/s virtual  ({:.1} q/s host)",
        qps(cfg.queries, one_shot_host)
    );

    // --- warm session: resume once, park once ----------------------------
    let mut device = ready_device(20, true);
    let _ = device.classify_utterance(workload[0]).expect("warmup");
    let clock = device.clock();
    let start = clock.now();
    let host_start = Instant::now();
    let mut session = device.session().expect("session");
    for samples in &workload {
        session.classify(samples).expect("warm");
    }
    session.finish().expect("finish");
    let warm_virtual = clock.now() - start;
    let warm_host = host_start.elapsed();
    let warm_qps = qps(cfg.queries, warm_virtual);
    println!(
        "warm QuerySession:           {warm_qps:>9.1} q/s virtual  ({:.1} q/s host)",
        qps(cfg.queries, warm_host)
    );

    // --- fleet: N concurrent devices behind omg-serve ---------------------
    let model = cached_tiny_conv(ModelKind::Fast);
    let devices = provision_devices(cfg.fleet_size, "kws", model, 30).expect("fleet");
    // The clocks are shared handles, so they outlive the devices' move
    // into the workers and the deltas survive the runtime.
    let clocks: Vec<_> = devices.iter().map(|d| d.clock()).collect();
    let fleet = ServeHandle::start(
        devices,
        ServeConfig {
            queue_capacity: cfg.queries,
            ..ServeConfig::default()
        },
    )
    .expect("start fleet");
    // One warm-up query per worker, so every worker holds an open session
    // before the clocks are read.
    let warmup: Vec<_> = (0..cfg.fleet_size)
        .map(|_| fleet.submit(workload[0]).expect("fleet warm-up"))
        .collect();
    for p in warmup {
        p.wait().expect("fleet warm-up");
    }
    let before: Vec<Duration> = clocks.iter().map(|c| c.now()).collect();
    let pending: Vec<_> = workload
        .iter()
        .map(|samples| fleet.submit(samples).expect("fleet submit"))
        .collect();
    for p in pending {
        p.wait().expect("fleet");
    }
    let drained = fleet.drain();
    assert!(drained.is_healthy(), "{:?}", drained.worker_errors);
    let makespan = clocks
        .iter()
        .zip(&before)
        .map(|(c, &b)| c.now() - b)
        .max()
        .unwrap_or(Duration::ZERO);
    let fleet_qps = qps(cfg.queries, makespan);
    println!(
        "fleet of {} (omg-serve):      {fleet_qps:>9.1} q/s virtual  (makespan {:.1} ms)",
        cfg.fleet_size,
        makespan.as_secs_f64() * 1e3
    );

    // --- batched interpreter: invoke_batch vs per-call classify ----------
    let model = cached_tiny_conv(ModelKind::Fast);
    let fingerprints: Vec<&[i8]> = eval.fingerprints.iter().map(Vec::as_slice).collect();
    let mut interp = Interpreter::new(model.clone()).expect("interpreter");
    let host_start = Instant::now();
    for _ in 0..cfg.batch_rounds {
        for fp in &fingerprints {
            interp.classify(fp).expect("classify");
        }
    }
    let sequential = host_start.elapsed();
    let mut interp = Interpreter::new(model).expect("interpreter");
    let host_start = Instant::now();
    for _ in 0..cfg.batch_rounds {
        interp.classify_batch(&fingerprints).expect("batch");
    }
    let batched = host_start.elapsed();
    let n = cfg.batch_rounds * fingerprints.len();
    println!(
        "interpreter sequential:      {:>9.0} q/s host",
        qps(n, sequential)
    );
    println!(
        "interpreter classify_batch:  {:>9.0} q/s host",
        qps(n, batched)
    );

    // --- regression-checked perf claims ----------------------------------
    assert!(
        warm_qps > one_shot_qps,
        "warm session ({warm_qps:.1} q/s) must beat one-shot ({one_shot_qps:.1} q/s)"
    );
    assert!(
        fleet_qps > warm_qps,
        "fleet makespan throughput ({fleet_qps:.1} q/s) must beat a single session ({warm_qps:.1} q/s)"
    );
    println!(
        "PASS: warm/one-shot speedup {:.2}x, fleet/warm speedup {:.2}x",
        warm_qps / one_shot_qps,
        fleet_qps / warm_qps
    );
}
