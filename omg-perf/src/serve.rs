//! The two `omg-serve` workloads: a closed loop against a 2-worker fleet
//! and an open Poisson loop against a 1-worker fleet. Both fleets come
//! from `ServeHandle::provision` with the default `RestartPolicy` and
//! `HangPolicy`, and the flight recorder at its default (on).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use omg_core::Transcription;
use omg_nn::Model;
use omg_obs::{Stage, TraceSnapshot};
use omg_serve::{HangPolicy, Pending, RestartPolicy, ServeConfig, ServeError, ServeHandle};

use crate::inputs::{matches, Answer, Clip, SeedBook};
use crate::stats::Samples;
use crate::trace::{now_ns, SpanId, Tracer};
use crate::Queries;

/// Queries each client sends while a fleet warms up.
const WARMUP_QUERIES: usize = 16;
/// A backlog this deep when the schedule ends means arrivals outran
/// completions.
pub const MAX_BACKLOG: u64 = 32;
/// Answer records a closed-loop client reserves per second of its phase:
/// more than a client answers here (see [`Queries::with_capacity`]).
const RECORDS_PER_SECOND: f64 = 5_000.0;

/// Provisions a fleet and warms it up; returns it with its set-up time.
pub fn provision(
    blob: &[u8],
    workers: usize,
    seeds: &SeedBook,
    clips: &[Clip],
) -> (ServeHandle, Duration) {
    let seed = seeds.fleet(workers);
    let start = Instant::now();
    let model = omg_nn::format::deserialize(blob).expect("shipped model loads");
    let config = ServeConfig {
        restart: Some(RestartPolicy::default()),
        hang: Some(HangPolicy::default()),
        ..ServeConfig::default()
    };
    let handle =
        ServeHandle::provision(workers, config, "kws", model, seed).expect("fleet provisions");
    let warm: Vec<Pending> = (0..WARMUP_QUERIES * workers)
        .map(|i| {
            handle
                .submit(&clips[i % clips.len()].samples)
                .expect("warm-up submit")
        })
        .collect();
    for p in warm {
        p.wait().expect("warm-up query");
    }
    (handle, start.elapsed())
}

/// What the serving loops check answers against.
pub struct Oracle<'a> {
    pub clips: &'a [Clip],
    pub answers: &'a [Answer],
    pub model: &'a Model,
}

impl Oracle<'_> {
    fn settle(
        &self,
        queries: &mut Queries,
        c: usize,
        result: Result<Transcription, ServeError>,
        latency: Duration,
    ) {
        match result {
            Ok(t)
                if matches(
                    t.class_index,
                    &t.label,
                    self.answers[c],
                    self.model.labels(),
                ) =>
            {
                queries.answered(latency, t.compute)
            }
            Ok(t) => queries.fail(format!(
                "clip {c}: served {}/{}, expected class {}",
                t.class_index, t.label, self.answers[c].0
            )),
            Err(e) => queries.fail(format!("clip {c}: {e}")),
        }
    }
}

/// Where a traced serving phase records its spans.
pub struct Traced<'a> {
    pub tracer: &'a Tracer,
    pub flight: &'a FlightLog,
}

/// The fleet's flight-recorder events, gathered from repeated snapshots
/// (the per-worker rings hold only the most recent few hundred queries).
#[derive(Debug, Default)]
pub struct FlightLog {
    events: Mutex<HashMap<(u64, Stage), (u64, u64)>>,
}

impl FlightLog {
    pub fn absorb(&self, snapshot: Option<TraceSnapshot>) {
        let Some(snapshot) = snapshot else { return };
        let mut events = self.events.lock().expect("flight log lock");
        for e in snapshot.events {
            events
                .entry((e.seq, e.stage))
                .or_insert((e.ts_ns, e.payload));
        }
    }

    /// The query admitted between `lo` and `hi` (ns), if exactly one was:
    /// its (queue-wait start, dequeue, compute start, compute end) stamps.
    fn stages(&self, submits: &[(u64, u64)], lo: u64, hi: u64) -> Option<[u64; 4]> {
        let start = submits.partition_point(|&(ts, _)| ts < lo);
        let end = submits.partition_point(|&(ts, _)| ts <= hi);
        if end != start + 1 {
            return None;
        }
        let (ts, seq) = submits[start];
        let events = self.events.lock().expect("flight log lock");
        let at = |stage| events.get(&(seq, stage)).map(|&(t, _)| t);
        Some([
            ts,
            at(Stage::Dequeue)?,
            at(Stage::ComputeStart)?,
            at(Stage::ComputeEnd)?,
        ])
    }

    fn submits(&self) -> Vec<(u64, u64)> {
        let events = self.events.lock().expect("flight log lock");
        let mut v: Vec<_> = events
            .iter()
            .filter(|((_, stage), _)| *stage == Stage::Submit)
            .map(|(&(seq, _), &(ts, _))| (ts, seq))
            .collect();
        v.sort_unstable();
        v
    }
}

/// After a traced phase: adds the flight recorder's queue-wait and
/// compute intervals as child spans of each request span. `requests`
/// holds (query, request span, submit-call start, submit-call end).
pub fn attach_flight_spans(traced: &Traced<'_>, requests: Vec<(u64, SpanId, u64, u64)>) {
    let submits = traced.flight.submits();
    for (q, span, lo, hi) in requests {
        if let Some([submit, dequeue, start, end]) = traced.flight.stages(&submits, lo, hi) {
            traced
                .tracer
                .record("serve.queue_wait", submit, dequeue, Some(span), q);
            traced
                .tracer
                .record("serve.worker_compute", start, end, Some(span), q);
        }
    }
}

/// Closed loop: `clients` threads each submit a clip and wait for the
/// reply, back to back, until `deadline`.
pub fn closed_loop(
    handle: &ServeHandle,
    oracle: &Oracle<'_>,
    order: &[usize],
    clients: usize,
    deadline: Instant,
    traced: Option<&Traced<'_>>,
) -> Queries {
    let next = AtomicU64::new(0);
    let started = Instant::now();
    let reserve =
        (deadline.saturating_duration_since(started).as_secs_f64() * RECORDS_PER_SECOND) as usize;
    let mut total = Queries::default();
    let mut requests = Vec::new();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut queries = Queries::with_capacity(reserve);
                    let mut requests = Vec::new();
                    while Instant::now() < deadline {
                        let q = next.fetch_add(1, Ordering::Relaxed);
                        let c = order[q as usize % order.len()];
                        let samples = &oracle.clips[c].samples;
                        let start = Instant::now();
                        let Some(t) = traced else {
                            let result = handle.submit(samples).and_then(Pending::wait);
                            oracle.settle(&mut queries, c, result, start.elapsed());
                            continue;
                        };
                        let root = t.tracer.begin("serve.request", None, q);
                        let lo = now_ns();
                        let pending = handle.submit(samples);
                        let hi = now_ns();
                        t.tracer.record("serve.submit", lo, hi, Some(root), q);
                        let result = pending.and_then(Pending::wait);
                        t.tracer.end(root);
                        oracle.settle(&mut queries, c, result, start.elapsed());
                        requests.push((q, root, lo, hi));
                        if q.is_multiple_of(64) {
                            t.flight.absorb(handle.flight_trace());
                        }
                    }
                    (queries, requests)
                })
            })
            .collect();
        for w in workers {
            let (q, r) = w.join().expect("client thread");
            total.merge(q);
            requests.extend(r);
        }
    });
    total.period(started, Instant::now());
    if let Some(t) = traced {
        t.flight.absorb(handle.flight_trace());
        attach_flight_spans(t, requests);
    }
    total
}

/// Open loop result: the queries plus how late the generator ran and
/// how far completions trailed arrivals when the schedule ended.
pub struct OpenLoop {
    pub queries: Queries,
    pub gen_late_ms: Samples,
    pub backlog_at_end: u64,
}

/// Open loop: one generator thread submits each clip at its due time
/// (offsets in `due_ns` from the start), one collector thread waits for
/// the replies in order. Latency is timed from the due time.
pub fn open_loop(
    handle: &ServeHandle,
    oracle: &Oracle<'_>,
    order: &[usize],
    due_ns: &[u64],
    traced: Option<&Traced<'_>>,
) -> OpenLoop {
    let (tx, rx) = std::sync::mpsc::channel::<(
        u64,
        usize,
        Instant,
        Option<SpanId>,
        Result<Pending, ServeError>,
    )>();
    let completed = AtomicU64::new(0);
    let origin = Instant::now() + Duration::from_millis(5);
    let origin_ns = now_ns() + 5_000_000;
    let mut gen_late_ms = Samples::default();
    let mut backlog_at_end = 0;
    let mut requests = Vec::new();
    let queries = std::thread::scope(|s| {
        let collector = s.spawn(|| {
            let mut queries = Queries::with_capacity(due_ns.len());
            for (q, c, due, root, pending) in rx {
                let result = pending.and_then(Pending::wait);
                let latency = due.elapsed();
                completed.fetch_add(1, Ordering::Release);
                if let (Some(t), Some(root)) = (traced, root) {
                    t.tracer.end(root);
                    if q.is_multiple_of(64) {
                        t.flight.absorb(handle.flight_trace());
                    }
                }
                oracle.settle(&mut queries, c, result, latency);
            }
            queries
        });
        for (q, &offset) in due_ns.iter().enumerate() {
            let due = origin + Duration::from_nanos(offset);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            gen_late_ms.push(due.elapsed().as_secs_f64() * 1e3);
            let c = order[q % order.len()];
            let q = q as u64;
            let root = traced.map(|t| {
                let due_ns = origin_ns + offset;
                let root = t.tracer.record("serve.request", due_ns, due_ns, None, q);
                t.tracer
                    .record("bench.gen_late", due_ns, now_ns(), Some(root), q);
                root
            });
            let lo = now_ns();
            let pending = handle.submit(&oracle.clips[c].samples);
            let hi = now_ns();
            if let (Some(t), Some(root)) = (traced, root) {
                t.tracer.record("serve.submit", lo, hi, Some(root), q);
                requests.push((q, root, lo, hi));
            }
            tx.send((q, c, due, root, pending))
                .expect("collector alive");
        }
        backlog_at_end = due_ns.len() as u64 - completed.load(Ordering::Acquire);
        drop(tx);
        collector.join().expect("collector thread")
    });
    let mut queries = queries;
    queries.period(
        origin,
        origin + Duration::from_nanos(due_ns.last().copied().unwrap_or(0)),
    );
    if let Some(t) = traced {
        t.flight.absorb(handle.flight_trace());
        attach_flight_spans(t, requests);
    }
    OpenLoop {
        queries,
        gen_late_ms,
        backlog_at_end,
    }
}
