//! The benchmark's own tracer: spans around its calls into each layer,
//! kept in memory and written out as JSON Lines when the run ends.
//!
//! The benchmark drives the program from one thread, so the tracer is
//! single-threaded: the innermost open span is the parent of the next.
//! Spans opened during one campaign iteration share its `trace` id.
//! Disabled, a span costs one branch and never reads the clock.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Record {
    name: String,
    parent: Option<usize>,
    trace: u64,
    start_ns: u64,
    end_ns: u64,
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Record>,
    open: Vec<usize>,
    trace: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: RefCell<State>,
}

/// An open span; closes on drop.
pub struct Span<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: RefCell::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the trace id of spans opened from now on.
    pub fn set_trace(&self, trace: u64) {
        self.state.borrow_mut().trace = trace;
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn span(&self, name: &str) -> Span<'_> {
        if !self.enabled {
            return Span {
                tracer: self,
                index: None,
            };
        }
        let start_ns = self.now_ns();
        let mut st = self.state.borrow_mut();
        let index = st.spans.len();
        let record = Record {
            name: name.to_string(),
            parent: st.open.last().copied(),
            trace: st.trace,
            start_ns,
            end_ns: start_ns,
        };
        st.spans.push(record);
        st.open.push(index);
        Span {
            tracer: self,
            index: Some(index),
        }
    }

    /// Total seconds of every closed span named `name` in trace `trace`.
    pub fn total_s(&self, trace: u64, name: &str) -> f64 {
        self.state
            .borrow()
            .spans
            .iter()
            .filter(|r| r.trace == trace && r.name == name)
            .map(|r| (r.end_ns - r.start_ns) as f64 / 1e9)
            .sum()
    }

    /// Renders every span as one JSON line: id, parent, trace, name, start
    /// and end in nanoseconds since the tracer was created, and self time
    /// (duration minus the part its child spans cover).
    pub fn to_jsonl(&self) -> String {
        let st = self.state.borrow();
        let mut child_ns = vec![0u64; st.spans.len()];
        for r in &st.spans {
            if let Some(p) = r.parent {
                child_ns[p] += r.end_ns - r.start_ns;
            }
        }
        let mut out = String::new();
        for (id, r) in st.spans.iter().enumerate() {
            let parent = r.parent.map_or("null".to_string(), |p| p.to_string());
            let self_ns = (r.end_ns - r.start_ns).saturating_sub(child_ns[id]);
            let _ = writeln!(
                out,
                r#"{{"id":{id},"parent":{parent},"trace":{},"name":"{}","start_ns":{},"end_ns":{},"self_ns":{self_ns}}}"#,
                r.trace, r.name, r.start_ns, r.end_ns
            );
        }
        out
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        let end_ns = self.tracer.now_ns();
        let mut st = self.tracer.state.borrow_mut();
        st.spans[index].end_ns = end_ns;
        if let Some(pos) = st.open.iter().rposition(|&i| i == index) {
            st.open.remove(pos);
        }
    }
}
