//! Named metrics: counters, gauges, log-scale histograms, and a registry
//! that renders them as Prometheus-style text or a flat JSON snapshot.
//!
//! Handles are cheap `Arc`-backed clones; recording is a relaxed atomic
//! op with no allocation, so handles can live on serving hot paths. The
//! registry itself takes a mutex only on registration and rendering —
//! never on the record path.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of histogram buckets (plus one implicit overflow bucket).
const BUCKETS: usize = 96;

/// Lowest bucket boundary: 1 µs in nanoseconds.
const FIRST_BOUNDARY_NS: u64 = 1_000;

/// A monotonically increasing counter. Clones share the same cell.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh unregistered counter (registries hand out shared ones).
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Add one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one and return the *previous* value — an allocation-free
    /// sequence-number source.
    pub fn fetch_inc(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can move both ways. Clones share the same cell.
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// A fresh unregistered gauge.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Set the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjust by `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket, log-scale histogram of nanosecond values with
/// lock-free recording.
///
/// Bucket boundaries grow geometrically (~25 % per bucket) from 1 µs, so
/// 96 buckets span 1 µs to ≈30 min with bounded relative error — fixed
/// memory, no allocation on the record path, quantiles accurate to one
/// bucket width. Values are nanoseconds by convention; the Prometheus
/// renderer converts boundaries to seconds.
#[derive(Debug)]
pub struct Histogram {
    /// `counts[i]` holds samples with `value <= boundaries_ns[i]`; the
    /// last slot is the overflow bucket.
    counts: [AtomicU64; BUCKETS + 1],
    boundaries_ns: [u64; BUCKETS],
    total: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        let mut boundaries_ns = [0u64; BUCKETS];
        let mut b = FIRST_BOUNDARY_NS;
        for slot in &mut boundaries_ns {
            *slot = b;
            // ~25 % geometric growth, with a floor so early buckets advance.
            b += (b / 4).max(250);
        }
        Histogram {
            counts: std::array::from_fn(|_| AtomicU64::new(0)),
            boundaries_ns,
            total: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// The bucket upper boundaries, in nanoseconds (exclusive of the
    /// overflow bucket).
    pub fn boundaries_ns(&self) -> &[u64] {
        &self.boundaries_ns
    }

    fn bucket_index(&self, ns: u64) -> usize {
        // partition_point: first boundary >= ns, i.e. the covering bucket.
        self.boundaries_ns.partition_point(|&b| b < ns)
    }

    /// Records one sample. Lock- and allocation-free.
    pub fn record_ns(&self, ns: u64) {
        self.counts[self.bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values, in nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns.load(Ordering::Relaxed)
    }

    /// Mean value in nanoseconds, or zero when empty.
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns().checked_div(self.count()).unwrap_or(0)
    }

    /// Largest recorded value (exact, not bucketed), in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns.load(Ordering::Relaxed)
    }

    /// Computes several quantiles from **one** snapshot of the bucket
    /// counts, so the results are mutually consistent even while writers
    /// record concurrently: for `q1 <= q2` the reported values obey
    /// `quantiles_ns(&[q1, q2])[0] <= [1]`, and every value is bounded by
    /// the observed maximum at snapshot time. Each quantile is the upper
    /// boundary of the bucket containing its rank — conservative by at
    /// most one bucket width (~25 %) — clamped to [`Self::max_ns`] (a
    /// bucket boundary can exceed every sample actually recorded into
    /// it). Zeroes when empty.
    pub fn quantiles_ns(&self, qs: &[f64]) -> Vec<u64> {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        // Rank against the snapshot's own total (not the live `total`
        // counter, which may already include samples the snapshot missed).
        let n: u64 = counts.iter().sum();
        let max = self.max_ns();
        qs.iter()
            .map(|&q| {
                if n == 0 {
                    return 0;
                }
                let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
                let mut cumulative = 0u64;
                for (i, &count) in counts.iter().enumerate() {
                    cumulative += count;
                    if cumulative >= rank {
                        return if i < BUCKETS {
                            // Clamp: no recorded sample exceeds `max`, so a
                            // bucket boundary above it is pure rounding.
                            self.boundaries_ns[i].min(max)
                        } else {
                            // Overflow bucket: report the observed maximum.
                            max
                        };
                    }
                }
                max
            })
            .collect()
    }

    /// One coherent snapshot of the cumulative bucket counts (Prometheus
    /// `le` semantics), the total, and the sum — for renderers.
    fn cumulative_snapshot(&self) -> (Vec<u64>, u64, u64) {
        let mut cumulative = Vec::with_capacity(BUCKETS + 1);
        let mut running = 0u64;
        for c in &self.counts {
            running += c.load(Ordering::Relaxed);
            cumulative.push(running);
        }
        (cumulative, running, self.sum_ns())
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

struct Entry {
    name: String,
    help: String,
    metric: Metric,
}

/// A set of named metrics, rendered in registration order.
///
/// Registration is idempotent: asking for an existing name of the same
/// type returns a handle to the same underlying cell, so call sites
/// don't need to coordinate. Re-registering a name as a *different*
/// type panics (a programming error worth failing loudly on).
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let entries = self.entries.lock().unwrap();
        f.debug_struct("Registry")
            .field("metrics", &entries.len())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register<T: Clone>(
        &self,
        name: &str,
        help: &str,
        get: impl Fn(&Metric) -> Option<T>,
        make: impl FnOnce() -> (Metric, T),
    ) -> T {
        let mut entries = self.entries.lock().unwrap();
        if let Some(entry) = entries.iter().find(|e| e.name == name) {
            return get(&entry.metric).unwrap_or_else(|| {
                panic!(
                    "metric `{name}` already registered as {}",
                    entry.metric.type_name()
                )
            });
        }
        let (metric, handle) = make();
        entries.push(Entry {
            name: name.to_owned(),
            help: help.to_owned(),
            metric,
        });
        handle
    }

    /// Register (or look up) a counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.register(
            name,
            help,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            || {
                let c = Counter::new();
                (Metric::Counter(c.clone()), c)
            },
        )
    }

    /// Register (or look up) a gauge.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.register(
            name,
            help,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            || {
                let g = Gauge::new();
                (Metric::Gauge(g.clone()), g)
            },
        )
    }

    /// Register (or look up) a histogram of nanosecond values.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.register(
            name,
            help,
            |m| match m {
                Metric::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
            || {
                let h = Arc::new(Histogram::new());
                (Metric::Histogram(Arc::clone(&h)), h)
            },
        )
    }

    /// Names of all registered metrics, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.entries
            .lock()
            .unwrap()
            .iter()
            .map(|e| e.name.clone())
            .collect()
    }

    /// Render every metric as Prometheus text-exposition format.
    /// Histogram values are recorded in nanoseconds and exposed with
    /// boundaries converted to seconds (the Prometheus convention for
    /// `*_seconds` histograms).
    pub fn render_prometheus(&self) -> String {
        let entries = self.entries.lock().unwrap();
        let mut out = String::new();
        for e in entries.iter() {
            let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
            let _ = writeln!(out, "# TYPE {} {}", e.name, e.metric.type_name());
            match &e.metric {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{} {}", e.name, c.get());
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{} {}", e.name, g.get());
                }
                Metric::Histogram(h) => {
                    let (cumulative, total, sum_ns) = h.cumulative_snapshot();
                    for (i, &le_ns) in h.boundaries_ns().iter().enumerate() {
                        let _ = writeln!(
                            out,
                            "{}_bucket{{le=\"{}\"}} {}",
                            e.name,
                            fmt_seconds(le_ns),
                            cumulative[i]
                        );
                    }
                    let _ = writeln!(out, "{}_bucket{{le=\"+Inf\"}} {}", e.name, total);
                    let _ = writeln!(out, "{}_sum {}", e.name, fmt_seconds(sum_ns));
                    let _ = writeln!(out, "{}_count {}", e.name, total);
                }
            }
        }
        out
    }

    /// Render every metric as one flat JSON object. Counters and gauges
    /// become bare numbers; histograms become
    /// `{"count":…,"sum_ns":…,"max_ns":…,"p50_ns":…,"p95_ns":…,"p99_ns":…}`
    /// computed from one coherent snapshot.
    pub fn render_json(&self) -> String {
        let entries = self.entries.lock().unwrap();
        let mut out = String::from("{");
        for (i, e) in entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            match &e.metric {
                Metric::Counter(c) => {
                    let _ = write!(out, "\"{}\":{}", e.name, c.get());
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, "\"{}\":{}", e.name, g.get());
                }
                Metric::Histogram(h) => {
                    let qs = h.quantiles_ns(&[0.50, 0.95, 0.99]);
                    let _ = write!(
                        out,
                        "\"{}\":{{\"count\":{},\"sum_ns\":{},\"max_ns\":{},\
                         \"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{}}}",
                        e.name,
                        h.count(),
                        h.sum_ns(),
                        h.max_ns(),
                        qs[0],
                        qs[1],
                        qs[2]
                    );
                }
            }
        }
        out.push('}');
        out
    }
}

/// Format nanoseconds as a seconds literal with full ns precision and no
/// trailing-zero noise (`1500000` → `0.0015`).
fn fmt_seconds(ns: u64) -> String {
    let mut s = format!("{}.{:09}", ns / 1_000_000_000, ns % 1_000_000_000);
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.push('0');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_handles_share_cells() {
        let r = Registry::new();
        let a = r.counter("requests_total", "requests");
        let b = r.counter("requests_total", "requests");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(a.fetch_inc(), 3);
        assert_eq!(b.get(), 4);

        let g = r.gauge("queued", "queued jobs");
        g.set(5);
        g.add(-2);
        assert_eq!(r.gauge("queued", "queued jobs").get(), 3);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn type_mismatch_panics() {
        let r = Registry::new();
        r.counter("x", "");
        r.gauge("x", "");
    }

    #[test]
    fn histogram_boundaries_are_strictly_increasing() {
        let h = Histogram::new();
        for w in h.boundaries_ns().windows(2) {
            assert!(w[1] > w[0]);
        }
        // 96 geometric buckets reach far beyond any plausible query time.
        assert!(h.boundaries_ns()[BUCKETS - 1] > 60_000_000_000); // > 1 min
    }

    #[test]
    fn histogram_quantiles_bound_true_values() {
        let h = Histogram::new();
        for i in 1..=100u64 {
            h.record_ns(i * 1_000_000); // 1 ms .. 100 ms
        }
        assert_eq!(h.count(), 100);
        let qs = h.quantiles_ns(&[0.50, 0.99]);
        // True p50 = 50 ms, p99 = 99 ms; bucketing may round up ~25 %.
        assert!((50_000_000..65_000_000).contains(&qs[0]), "p50 {}", qs[0]);
        assert!((99_000_000..130_000_000).contains(&qs[1]), "p99 {}", qs[1]);
        assert_eq!(h.max_ns(), 100_000_000);
        assert!((50_000_000..51_000_000).contains(&h.mean_ns()));
    }

    #[test]
    fn histogram_sparse_quantile_never_exceeds_observed_max() {
        let h = Histogram::new();
        h.record_ns(3_000);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert!(h.quantiles_ns(&[q])[0] <= h.max_ns());
        }
    }

    #[test]
    fn histogram_overflow_bucket_reports_observed_max() {
        let h = Histogram::new();
        h.record_ns(3_600_000_000_000); // beyond the last boundary
        assert_eq!(h.quantiles_ns(&[1.0])[0], 3_600_000_000_000);
    }

    #[test]
    fn histogram_empty_reports_zero() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantiles_ns(&[0.99]), [0]);
        assert_eq!(h.mean_ns(), 0);
    }

    #[test]
    fn histogram_percentiles_come_from_one_snapshot() {
        // The standard ladder is a single `quantiles_ns` call, so even a
        // pathological recording pattern can't produce a non-monotone
        // (p50, p95, p99) triple.
        let h = Histogram::new();
        for i in 0..50u64 {
            h.record_ns(10_000 + i * 97_000);
        }
        let qs = h.quantiles_ns(&[0.50, 0.95, 0.99]);
        assert!(qs[0] <= qs[1] && qs[1] <= qs[2], "{qs:?}");
        assert!(qs[2] <= h.max_ns());
    }

    proptest::proptest! {
        /// For any sample set and any quantile ladder, quantiles are
        /// monotone in q and never exceed the observed maximum.
        #[test]
        fn prop_histogram_quantiles_monotone_and_bounded_by_max(
            samples in proptest::collection::vec(0u64..120_000_000_000, 1..120),
            qs in proptest::collection::vec(0.0f64..=1.0, 2..12),
        ) {
            let h = Histogram::new();
            for &ns in &samples {
                h.record_ns(ns);
            }
            let mut ladder = qs;
            ladder.sort_by(f64::total_cmp);
            let values = h.quantiles_ns(&ladder);
            let max = h.max_ns();
            for pair in values.windows(2) {
                proptest::prop_assert!(pair[0] <= pair[1], "not monotone: {pair:?}");
            }
            for (q, v) in ladder.iter().zip(&values) {
                proptest::prop_assert!(*v <= max, "q={q}: {v} > max {max}");
            }
            // Single-quantile calls agree with the ladder when nothing
            // records concurrently.
            for (q, v) in ladder.iter().zip(&values) {
                proptest::prop_assert_eq!(h.quantiles_ns(&[*q])[0], *v);
            }
        }
    }

    #[test]
    fn histogram_quantiles_stay_monotone_under_concurrent_recording() {
        // Writers hammer the histogram while a reader repeatedly takes
        // quantile ladders; every snapshot must be internally monotone and
        // bounded by a max read *after* it (max only grows, and the
        // snapshot clamps against the max at snapshot time).
        let h = Arc::new(Histogram::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let writers: Vec<_> = (0..3u64)
            .map(|t| {
                let h = Arc::clone(&h);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        // Spread samples across many buckets, including the
                        // sparse high end where the clamp matters.
                        h.record_ns(1_000 * (1 + (i * 7919 + t * 131) % 500_000));
                        i += 1;
                    }
                })
            })
            .collect();
        let ladder = [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        for _ in 0..2_000 {
            let values = h.quantiles_ns(&ladder);
            let max_after = h.max_ns();
            for pair in values.windows(2) {
                assert!(pair[0] <= pair[1], "snapshot not monotone: {values:?}");
            }
            assert!(
                values.iter().all(|v| *v <= max_after),
                "quantile exceeded max: {values:?} vs {max_after}"
            );
        }
        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn histogram_concurrent_recording_loses_nothing() {
        let h = Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let h = Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        h.record_ns(1_000 * (t * 1000 + i % 997));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(h.count(), 40_000);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = Registry::new();
        let c = r.counter("omg_test_total", "total things");
        c.add(7);
        let g = r.gauge("omg_test_depth", "depth");
        g.set(-2);
        let h = r.histogram("omg_test_latency_seconds", "latency");
        h.record_ns(1_500_000);
        h.record_ns(2_500_000);

        let text = r.render_prometheus();
        assert!(text.contains("# TYPE omg_test_total counter"));
        assert!(text.contains("omg_test_total 7"));
        assert!(text.contains("omg_test_depth -2"));
        assert!(text.contains("# TYPE omg_test_latency_seconds histogram"));
        assert!(text.contains("omg_test_latency_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("omg_test_latency_seconds_count 2"));
        assert!(text.contains("omg_test_latency_seconds_sum 0.004"));
        // Cumulative bucket counts are non-decreasing.
        let counts: Vec<u64> = text
            .lines()
            .filter(|l| l.contains("_bucket{"))
            .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
            .collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn json_rendering_shape() {
        let r = Registry::new();
        r.counter("a_total", "").add(3);
        r.gauge("b", "").set(-1);
        let h = r.histogram("lat", "");
        h.record_ns(5_000);
        let json = r.render_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"a_total\":3"));
        assert!(json.contains("\"b\":-1"));
        assert!(json.contains("\"lat\":{\"count\":1,\"sum_ns\":5000"));
        assert!(json.contains("\"p99_ns\":"));
    }

    #[test]
    fn fmt_seconds_precision() {
        assert_eq!(fmt_seconds(0), "0.0");
        assert_eq!(fmt_seconds(1_500_000), "0.0015");
        assert_eq!(fmt_seconds(1_000_000_000), "1.0");
        assert_eq!(fmt_seconds(1_234_567_891), "1.234567891");
    }
}
