//! Per-answer tallies of one measured phase, and their summaries.

use std::time::{Duration, Instant};

use crate::stats::Samples;

/// A query answered later than this (one frame hop) is not on time.
pub const ON_TIME: Duration = Duration::from_millis(20);

/// One attempted query: for a correct answer, its latency and device
/// time in ms (single precision keeps the record small, so the harness's
/// own memory barely grows with the number of queries).
type Attempt = Option<(f32, f32)>;

#[derive(Debug, Default)]
pub struct Queries {
    attempts: Vec<Attempt>,
    pub failed: u64,
    pub failures: Vec<String>,
    period: Option<(Instant, Instant)>,
}

impl Queries {
    /// Empty, with room for `n` records: a phase that reserves what it
    /// will write never moves its records, and moved records would leave
    /// their old copies resident and make the peak memory depend on how
    /// many queries the phase ran.
    pub fn with_capacity(n: usize) -> Queries {
        Queries {
            attempts: Vec::with_capacity(n),
            ..Queries::default()
        }
    }

    pub fn answered(&mut self, latency: Duration, device: Duration) {
        let ms = |d: Duration| (d.as_secs_f64() * 1e3) as f32;
        self.attempts.push(Some((ms(latency), ms(device))));
    }

    pub fn fail(&mut self, why: String) {
        self.attempts.push(None);
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(why);
        }
    }

    pub fn merge(&mut self, other: Queries) {
        if self.attempts.is_empty() {
            self.attempts = other.attempts;
        } else {
            self.attempts.extend(other.attempts);
        }
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.failures.truncate(5);
    }

    /// Sets the measured period the answers fall in.
    pub fn period(&mut self, start: Instant, end: Instant) {
        self.period = Some((start, end));
    }

    pub fn attempted(&self) -> u64 {
        self.attempts.len() as u64
    }

    /// Latencies of the correct answers, ms.
    pub fn latency_ms(&self) -> Samples {
        self.answers().map(|(l, _)| l).collect()
    }

    /// Mean virtual device time of the correct answers, ms.
    pub fn device_ms_mean(&self) -> f64 {
        self.answers().map(|(_, d)| d).collect::<Samples>().mean()
    }

    /// Share of attempts answered correctly within [`ON_TIME`].
    pub fn on_time(&self) -> f64 {
        let limit = ON_TIME.as_secs_f64() * 1e3;
        let on_time = self.answers().filter(|&(l, _)| l <= limit).count();
        on_time as f64 / self.attempts.len().max(1) as f64
    }

    /// Correct answers per second over the whole period.
    pub fn per_second(&self) -> f64 {
        let secs = self.period.map_or(0.0, |(s, e)| (e - s).as_secs_f64());
        (self.attempted() - self.failed) as f64 / secs.max(1e-9)
    }

    fn answers(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.attempts
            .iter()
            .flatten()
            .map(|&(l, d)| (f64::from(l), f64::from(d)))
    }
}
