//! In-memory spans recorded around calls into each layer's public
//! functions, and the self-time fold over them.
//!
//! A span has a name (`layer.operation`), a start and end relative to the
//! tracer's epoch, the id of the span that caused it (0 for a root) and
//! the campaign it belongs to. Spans stay in memory until the traced run
//! ends; [`Tracer::write_jsonl`] then writes them out.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub campaign: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            next: AtomicU32::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Reserves a span id before the span's children run.
    pub fn id(&self) -> u32 {
        self.next.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a span whose boundaries were observed by the caller.
    pub fn record(
        &self,
        id: u32,
        name: &'static str,
        parent: u32,
        campaign: u64,
        start: Instant,
        end: Instant,
    ) {
        let span = Span {
            id,
            parent,
            name,
            campaign,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking benchmark thread")
            .push(span);
    }

    /// Runs `f` inside a span; `f` receives the span's id so nested
    /// calls can name it as their parent.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u32,
        campaign: u64,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        let id = self.id();
        let start = Instant::now();
        let out = f(id);
        self.record(id, name, parent, campaign, start, Instant::now());
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span buffer lock poisoned by a panicking benchmark thread")
            .clone()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"campaign\": {}, \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.name, s.campaign, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// [`Tracer::span`] when tracing is on; a plain call otherwise.
pub fn traced<T>(
    tr: Option<&Tracer>,
    name: &'static str,
    parent: u32,
    campaign: u64,
    f: impl FnOnce(u32) -> T,
) -> T {
    match tr {
        Some(t) => t.span(name, parent, campaign, f),
        None => f(0),
    }
}

/// Durations per span name, self time per layer, and coverage.
pub struct Summary {
    durations: BTreeMap<&'static str, Vec<u64>>,
    /// Self time per layer (the name before the first `.`), non-root
    /// spans only.
    pub self_ns: BTreeMap<String, u64>,
    /// Σ duration of root spans (the traced wall, per thread).
    pub root_ns: u64,
}

impl Summary {
    pub fn of(spans: &[Span]) -> Summary {
        let mut child_ns: HashMap<u32, u64> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
        let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        let mut self_ns: BTreeMap<String, u64> = BTreeMap::new();
        let mut root_ns = 0;
        for s in spans {
            durations.entry(s.name).or_default().push(s.dur_ns());
            if s.parent == 0 {
                root_ns += s.dur_ns();
            } else {
                let own = s
                    .dur_ns()
                    .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
                let layer = s.name.split('.').next().unwrap_or(s.name);
                *self_ns.entry(layer.to_string()).or_default() += own;
            }
        }
        Summary {
            durations,
            self_ns,
            root_ns,
        }
    }

    pub fn count(&self, name: &str) -> usize {
        self.durations.get(name).map_or(0, Vec::len)
    }

    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations
            .get(name)
            .map_or(0.0, |d| d.iter().map(|&x| x as f64).sum())
    }

    pub fn mean_ns(&self, name: &str) -> f64 {
        match self.count(name) {
            0 => 0.0,
            n => self.total_ns(name) / n as f64,
        }
    }

    pub fn median_ns(&self, name: &str) -> f64 {
        let mut v: Vec<f64> = self
            .durations
            .get(name)
            .map(|d| d.iter().map(|&x| x as f64).collect())
            .unwrap_or_default();
        crate::stats::median(&mut v)
    }

    /// Σ self time of layer spans ÷ Σ root span time.
    pub fn coverage(&self) -> f64 {
        let covered: u64 = self.self_ns.values().sum();
        if self.root_ns == 0 {
            0.0
        } else {
            covered as f64 / self.root_ns as f64
        }
    }
}
