//! The `kws_stream` workload: one bench-owned device runs a warm
//! `QuerySession::classify_stream` over a long keyword stream, hop one
//! frame shift, one call per 8-window audio buffer.

use std::ops::Range;
use std::time::{Duration, Instant};

use omg_core::device::expected_enclave_measurement;
use omg_core::{OmgDevice, User, Vendor};
use omg_speech::frontend::UTTERANCE_SAMPLES;
use omg_speech::streaming::{Detection, DetectionSmoother, SmootherConfig};

use crate::inputs::{SeedBook, CHUNK_WINDOWS, HOP};
use crate::probe::WindowProbe;
use crate::trace::Tracer;
use crate::Queries;

/// One buffer in this many is followed by a window probe.
const PROBE_EVERY: u64 = 8;
/// Windows classified while a stream device warms up.
const WARMUP_CHUNKS: usize = 4;

/// Provisions the stream device and warms a session on it; returns it
/// with its set-up time.
pub fn provision(
    blob: &[u8],
    seeds: &SeedBook,
    stream: &[i16],
    chunks: &[Range<usize>],
) -> (OmgDevice, Duration) {
    let seed = seeds.device();
    let start = Instant::now();
    let model = omg_nn::format::deserialize(blob).expect("shipped model loads");
    let mut vendor = Vendor::new(seed ^ 0x5645, "kws", model, expected_enclave_measurement());
    let mut user = User::new(seed ^ 0x5553);
    let mut device = OmgDevice::new(seed).expect("device");
    device.prepare(&mut user, &mut vendor).expect("prepare");
    device.initialize(&mut vendor).expect("initialize");
    {
        let mut session = device.session().expect("session");
        for range in chunks.iter().take(WARMUP_CHUNKS) {
            let mut smoother = DetectionSmoother::new(SmootherConfig::default());
            session
                .classify_stream(&stream[range.clone()], HOP, &mut smoother)
                .expect("warm-up window");
        }
        session.finish().expect("session finish");
    }
    (device, start.elapsed())
}

/// Streaming tallies beyond the per-buffer queries.
#[derive(Debug, Default)]
pub struct StreamStats {
    pub queries: Queries,
    pub windows: u64,
    pub detections: u64,
}

/// Classifies stream buffers in order, wrapping around, until `deadline`.
/// Each buffer is one query; its answer is the list of detections, which
/// must equal the reference list.
pub fn run(
    device: &mut OmgDevice,
    stream: &[i16],
    chunks: &[Range<usize>],
    expected: &[Vec<Detection>],
    deadline: Instant,
    tracer: &Tracer,
    mut probe: Option<&mut WindowProbe>,
) -> StreamStats {
    let clock = device.clock();
    let mut stats = StreamStats::default();
    let mut session = device.session().expect("session");
    let started = Instant::now();
    let mut q = 0u64;
    while Instant::now() < deadline {
        let c = q as usize % chunks.len();
        let mut smoother = DetectionSmoother::new(SmootherConfig::default());
        let virtual_before = clock.now();
        let start = Instant::now();
        let result = tracer.scope("core.classify_stream", None, q, || {
            session.classify_stream(&stream[chunks[c].clone()], HOP, &mut smoother)
        });
        let latency = start.elapsed();
        let device_time = clock.now() - virtual_before;
        match result {
            Ok(d) if d == expected[c] => {
                stats.windows += CHUNK_WINDOWS as u64;
                stats.detections += d.len() as u64;
                stats
                    .queries
                    .answered(latency, device_time / CHUNK_WINDOWS as u32);
            }
            Ok(d) => stats.queries.fail(format!(
                "buffer {c}: detections {d:?}, expected {:?}",
                expected[c]
            )),
            Err(e) => stats.queries.fail(format!("buffer {c}: {e}")),
        }
        if let Some(p) = probe
            .as_deref_mut()
            .filter(|_| q.is_multiple_of(PROBE_EVERY))
        {
            let start = chunks[c].start;
            p.run(&stream[start..start + UTTERANCE_SAMPLES], tracer, q);
        }
        q += 1;
    }
    stats.queries.period(started, Instant::now());
    session.finish().expect("session finish");
    stats
}
