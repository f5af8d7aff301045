//! Span recorder for the traced run.
//!
//! Spans are opened and closed by the benchmark around calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! A disabled recorder never reads the clock, so the untraced run pays
//! only a branch per call site. Spans stay in memory and are written
//! once, at the end, as Chrome trace-event JSON: the same complete
//! (`"ph": "X"`) events `caraml_accel::trace::Timeline` writes, with the
//! parent span and the step or sequence id under `args`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    /// Step, token or pass number the span belongs to.
    step: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; `NONE` when the recorder is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

impl Open {
    const NONE: Open = Open(usize::MAX);
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Counts recorded at layer boundaries, in record order per name.
    counts: BTreeMap<String, Vec<u64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, step: u64) -> Open {
        if !self.on {
            return Open::NONE;
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            step,
        });
        self.stack.push(id);
        Open(id)
    }

    pub fn close(&mut self, open: Open) {
        if !self.on {
            return;
        }
        let top = self.stack.pop().expect("close without a matching open");
        assert_eq!(top, open.0, "spans must close in LIFO order");
        self.spans[top].end_ns = self.now_ns();
    }

    /// Run `f` inside a span.
    pub fn scope<R>(&mut self, name: &'static str, step: u64, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, step);
        let r = f();
        self.close(open);
        r
    }

    /// Record a count (work done by a layer) when tracing.
    pub fn count(&mut self, name: impl Into<String>, value: u64) {
        if self.on {
            self.counts.entry(name.into()).or_default().push(value);
        }
    }

    pub fn counts(&self, name: &str) -> &[u64] {
        self.counts.get(name).map_or(&[], Vec::as_slice)
    }

    /// Per span: its duration minus the part its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(&child)
            .map(|(s, &c)| s.dur_ns() - c)
            .collect()
    }

    /// Durations of every span with this name, in ms, in record order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Self times of every span with this name, in ms, in record order.
    pub fn self_ms(&self, name: &str) -> Vec<f64> {
        let own = self.self_ns();
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e6)
            .collect()
    }

    /// Check that the spans nest: none is left open, every child lies
    /// inside its parent, and siblings do not overlap. Then, for every
    /// step span, its layers' durations plus its self time (the
    /// unattributed remainder) add up to the step's duration.
    pub fn check_nesting(&self) -> Result<(), String> {
        if !self.stack.is_empty() {
            return Err(format!("{} spans left open", self.stack.len()));
        }
        let mut last_child_end: Vec<u64> = self.spans.iter().map(|s| s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                let parent = &self.spans[p];
                if s.start_ns < last_child_end[p] || s.end_ns > parent.end_ns {
                    return Err(format!("span {} overlaps within {}", s.name, parent.name));
                }
                last_child_end[p] = s.end_ns;
            }
        }
        Ok(())
    }

    /// Chrome trace-event JSON of every span (times in µs).
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 0, \"tid\": 0, \"args\": {{\"id\": {i}, \"parent\": {parent}, \"step\": {}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.step
            );
            out.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push(']');
        out
    }
}
