//! The device lifecycle: a fresh device goes `OmgDevice::new` → `prepare`
//! → `initialize` → first answer (the cold start), then takes ten vendor
//! model updates, each `Vendor::update_model` → `OmgDevice::update_model`
//! → `initialize` → first answer on the new version, then `teardown`.
//! Every device has a seed no other device in the process had.

use std::time::Instant;

use omg_core::device::expected_enclave_measurement;
use omg_core::{OmgDevice, User, Vendor};
use omg_nn::Model;

use crate::inputs::{matches, Answer, Clip, SeedBook};
use crate::queries::ON_TIME;
use crate::stats::Samples;
use crate::trace::{now_ns, SpanId, Tracer};
use crate::Queries;

/// Model updates each device takes after its cold start.
pub const UPDATES_PER_DEVICE: usize = 10;

/// What a lifecycle run needs: model versions 1..=11, the clips answered
/// and their reference answers, and the seed book.
pub struct Lifecycle<'a> {
    pub versions: &'a [Model],
    pub clips: &'a [Clip],
    pub answers: &'a [Answer],
    pub seeds: &'a SeedBook,
    pub tracer: &'a Tracer,
}

#[derive(Debug, Default)]
pub struct LifecycleStats {
    pub cold_start_ms: Samples,
    pub model_update_ms: Samples,
    /// Model updates attempted; `model_update_ms` holds the ones that
    /// ended in a correct answer on the new version.
    pub updates: u64,
    /// The answers given after each cold start and update.
    pub queries: Queries,
}

impl LifecycleStats {
    /// Share of attempted model updates answered correctly on the new
    /// version within [`ON_TIME`]; a failed update is a miss.
    pub fn updates_on_time(&self) -> f64 {
        let limit = ON_TIME.as_secs_f64() * 1e3;
        let on_time = self
            .model_update_ms
            .iter()
            .filter(|&ms| ms <= limit)
            .count();
        on_time as f64 / self.updates.max(1) as f64
    }
}

impl Lifecycle<'_> {
    /// Runs devices one after another, on the calling thread, until
    /// `min_devices` are done and `deadline` (if any) has passed.
    pub fn run(&self, min_devices: usize, deadline: Option<Instant>) -> LifecycleStats {
        let started = Instant::now();
        let mut stats = LifecycleStats::default();
        for k in 0.. {
            let time_left = deadline.is_some_and(|d| Instant::now() < d);
            if k >= min_devices && !time_left {
                break;
            }
            self.device(k, &mut stats);
        }
        stats.queries.period(started, Instant::now());
        stats
    }

    /// One device's whole life. Failures are counted, never fatal.
    fn device(&self, k: usize, stats: &mut LifecycleStats) {
        let (t, q) = (self.tracer, k as u64);
        let clip = |j: usize| (k * (UPDATES_PER_DEVICE + 1) + j) % self.clips.len();
        let seed = self.seeds.device();
        let mut vendor = Vendor::new(
            seed ^ 0x5645,
            "kws",
            self.versions[0].clone(),
            expected_enclave_measurement(),
        );
        let mut user = User::new(seed ^ 0x5553);

        let t0 = Instant::now();
        let root = t.begin("lifecycle.cold_start", None, q);
        let mut device = match t.scope("core.device_new", Some(root), q, || OmgDevice::new(seed)) {
            Ok(device) => device,
            Err(e) => {
                t.end(root);
                return stats.queries.fail(format!("device {k}: new failed: {e}"));
            }
        };
        let up = t
            .scope("core.prepare", Some(root), q, || {
                device.prepare(&mut user, &mut vendor)
            })
            .and_then(|()| {
                t.scope("core.initialize", Some(root), q, || {
                    device.initialize(&mut vendor)
                })
            });
        if let Err(e) = up {
            t.end(root);
            return stats
                .queries
                .fail(format!("device {k}: provisioning failed: {e}"));
        }
        if self.answer(&mut device, clip(0), 1, root, q, stats) {
            stats.cold_start_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        t.end(root);

        for v in 2..=(UPDATES_PER_DEVICE as u32 + 1) {
            stats.updates += 1;
            let t0 = Instant::now();
            let root = t.begin("lifecycle.model_update", None, q);
            let model = &self.versions[v as usize - 1];
            t.scope("core.vendor_update", Some(root), q, || {
                vendor.update_model(model.clone())
            });
            let up = t
                .scope("core.update_model", Some(root), q, || {
                    device.update_model(&mut vendor)
                })
                .and_then(|()| {
                    t.scope("core.initialize", Some(root), q, || {
                        device.initialize(&mut vendor)
                    })
                });
            match up {
                Err(e) => stats
                    .queries
                    .fail(format!("device {k}: update to v{v} failed: {e}")),
                Ok(()) if device.model_version() != v => stats.queries.fail(format!(
                    "device {k}: serving v{} after update to v{v}",
                    device.model_version()
                )),
                Ok(()) => {
                    if self.answer(&mut device, clip(v as usize - 1), v, root, q, stats) {
                        stats.model_update_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                }
            }
            t.end(root);
        }
        if let Err(e) = t.scope("core.teardown", None, q, || device.teardown()) {
            stats
                .queries
                .fail(format!("device {k}: teardown failed: {e}"));
        }
    }

    /// Answers clip `c` on model version `v` and checks it against the
    /// oracle; returns whether the answer was correct.
    fn answer(
        &self,
        device: &mut OmgDevice,
        c: usize,
        v: u32,
        parent: SpanId,
        q: u64,
        stats: &mut LifecycleStats,
    ) -> bool {
        let labels = self.versions[v as usize - 1].labels();
        let start = Instant::now();
        let begin = now_ns();
        let result = device.classify_utterance(&self.clips[c].samples);
        let latency = start.elapsed();
        self.tracer
            .record("core.classify_utterance", begin, now_ns(), Some(parent), q);
        match result {
            Ok(t) if matches(t.class_index, &t.label, self.answers[c], labels) => {
                stats.queries.answered(latency, t.compute);
                true
            }
            Ok(t) => {
                stats.queries.fail(format!(
                    "device {q}: v{v} answered {}/{} for clip {c}, expected class {}",
                    t.class_index, t.label, self.answers[c].0
                ));
                false
            }
            Err(e) => {
                stats
                    .queries
                    .fail(format!("device {q}: v{v} query failed: {e}"));
                false
            }
        }
    }
}
