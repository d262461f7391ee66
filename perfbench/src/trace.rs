//! In-memory span recorder and the stage wrapper that feeds it.
//!
//! Spans are recorded from the benchmark's own code, around calls into the
//! layers' public functions: request → candidate → stage. They stay in
//! memory while the run measures and are written out once it ends.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use atomic_dataflow::{PipelineError, PlanContext, Stage, StageReport};

/// One timed interval; `end_ns` is 0 while the span is open.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Shared handle to one run's span buffer (single-threaded by design: the
/// traced replays run on the benchmark's main thread).
#[derive(Clone)]
pub struct Tracer {
    buf: Rc<RefCell<Buf>>,
}

struct Buf {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            buf: Rc::new(RefCell::new(Buf {
                origin,
                spans: Vec::new(),
            })),
        }
    }

    /// Opens a span and returns its id.
    pub fn open(&self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let mut b = self.buf.borrow_mut();
        let id = b.spans.len();
        let start_ns = nanos_since(b.origin);
        b.spans.push(Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns: 0,
        });
        id
    }

    pub fn close(&self, id: usize) {
        let mut b = self.buf.borrow_mut();
        let end = nanos_since(b.origin);
        if let Some(s) = b.spans.get_mut(id) {
            s.end_ns = end.max(s.start_ns);
        }
    }

    pub fn span(&self, id: usize) -> Option<Span> {
        self.buf.borrow().spans.get(id).cloned()
    }

    /// Direct children of `id`, in the order they were opened.
    pub fn children(&self, id: usize) -> Vec<Span> {
        self.buf
            .borrow()
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .cloned()
            .collect()
    }

    /// Every span as one JSON object per line.
    pub fn to_json_lines(&self) -> String {
        let b = self.buf.borrow();
        let mut out = String::new();
        for s in &b.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id, parent, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

fn nanos_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A pipeline stage that records a span around the wrapped stage's run.
pub struct Traced {
    pub inner: Box<dyn Stage>,
    pub tracer: Tracer,
    pub parent: usize,
}

impl Stage for Traced {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<StageReport, PipelineError> {
        let id = self.tracer.open(self.inner.name(), Some(self.parent));
        let out = self.inner.run(ctx);
        self.tracer.close(id);
        out
    }
}
