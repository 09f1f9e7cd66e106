//! Spans and per-layer samples recorded by the benchmark around its calls
//! into the library. Spans stay in memory and are written once, as
//! Chrome trace-event JSON, when the run ends.
//!
//! A disabled tracer never reads the clock: the untraced end-to-end run
//! pays nothing for it.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// Span recorder plus the per-layer samples derived from spans and from
/// the library's own counters.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    samples: BTreeMap<&'static str, (&'static str, Vec<f64>)>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name` and returns its result with
    /// the span's length in seconds (0 when tracing is off).
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, f64) {
        if !self.enabled {
            return (f(self), 0.0);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// Records one sample of a per-layer metric (ignored when tracing is
    /// off).
    pub fn sample(&mut self, name: &'static str, unit: &'static str, value: f64) {
        if self.enabled {
            self.samples
                .entry(name)
                .or_insert((unit, Vec::new()))
                .1
                .push(value);
        }
    }

    /// Per-layer metrics: the median of each metric's samples.
    pub fn medians(&self) -> BTreeMap<&'static str, (&'static str, f64)> {
        self.samples
            .iter()
            .map(|(&name, (unit, values))| (name, (*unit, crate::median(values))))
            .collect()
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("a run lasts under 584 years")
    }

    /// The spans as Chrome trace-event JSON (opens in Perfetto or
    /// `chrome://tracing`); `pid` separates the workloads of one run.
    pub fn chrome_events(&self, pid: usize, out: &mut Vec<String>) {
        for (id, s) in self.spans.iter().enumerate() {
            let mut e = String::new();
            let _ = write!(
                e,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{id},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            );
            out.push(e);
        }
    }
}
