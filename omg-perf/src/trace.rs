//! In-memory spans recorded by the benchmark around its calls into each
//! layer. Spans carry a name, start and end (ns on `omg_obs`'s monotonic
//! clock, the same clock the serving flight recorder stamps), the span
//! that caused them and the query they belong to. They are written out
//! as JSON lines when the run ends.

use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::Mutex;

use crate::stats::Samples;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub query: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder. One that is off records nothing, so untraced phases
/// run the same code at the cost of a branch per span.
#[derive(Debug, Default)]
pub struct Tracer {
    on: bool,
    spans: Mutex<Vec<Span>>,
}

pub fn now_ns() -> u64 {
    omg_obs::monotonic_ns()
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            spans: Mutex::default(),
        }
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<SpanId>,
        query: u64,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        let mut spans = self.spans.lock().expect("span lock");
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            query,
        });
        spans.len() - 1
    }

    /// Opens a span whose end is set by [`Self::end`].
    pub fn begin(&self, name: &'static str, parent: Option<SpanId>, query: u64) -> SpanId {
        let t = now_ns();
        self.record(name, t, t, parent, query)
    }

    pub fn end(&self, id: SpanId) {
        if self.on {
            self.spans.lock().expect("span lock")[id].end_ns = now_ns();
        }
    }

    /// Runs `f` inside a span.
    pub fn scope<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        query: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.on {
            return f();
        }
        let id = self.begin(name, parent, query);
        let out = f();
        self.end(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span lock").len()
    }

    /// Per span name, the full duration of every span in µs.
    pub fn durations_us(&self) -> HashMap<&'static str, Samples> {
        let mut out: HashMap<&'static str, Samples> = HashMap::new();
        for s in self.spans.lock().expect("span lock").iter() {
            out.entry(s.name).or_default().push(s.dur_ns() as f64 / 1e3);
        }
        out
    }

    /// The anatomy of `root` spans that have children (a serve request
    /// whose flight stages could not be matched has none): the median
    /// duration of each kind of direct child, the median self time of
    /// those roots, and their median duration, all in µs.
    pub fn anatomy(&self, root: &str) -> (Vec<(&'static str, f64)>, f64) {
        let spans = self.spans.lock().expect("span lock");
        let mut children: HashMap<SpanId, Vec<&Span>> = HashMap::new();
        for s in spans.iter() {
            if let Some(p) = s.parent.filter(|&p| spans[p].name == root) {
                children.entry(p).or_default().push(s);
            }
        }
        let mut stages: Vec<(&'static str, Samples)> = Vec::new();
        let (mut own, mut total) = (Samples::default(), Samples::default());
        for (&id, kids) in &children {
            let r = &spans[id];
            let mut intervals: Vec<_> = kids.iter().map(|k| (k.start_ns, k.end_ns)).collect();
            let covered = covered_ns(&mut intervals, r.start_ns, r.end_ns);
            own.push((r.dur_ns() - covered) as f64 / 1e3);
            total.push(r.dur_ns() as f64 / 1e3);
            for k in kids {
                let us = k.dur_ns() as f64 / 1e3;
                match stages.iter_mut().find(|(n, _)| *n == k.name) {
                    Some((_, v)) => v.push(us),
                    None => stages.push((k.name, [us].into_iter().collect())),
                }
            }
        }
        let mut medians: Vec<_> = stages.iter().map(|(n, v)| (*n, v.median())).collect();
        medians.push(("self", own.median()));
        (medians, total.median())
    }

    /// Writes one JSON object per span, after a header line.
    pub fn write(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.lock().expect("span lock").iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"query\":{}}}",
                s.name, s.start_ns, s.end_ns, s.query
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}
