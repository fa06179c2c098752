//! Spans recorded by the benchmark around its calls into each layer.
//!
//! Workloads are generic over [`Tracer`]: with [`Off`] every span call
//! compiles to nothing, so untraced runs carry no tracing cost at all;
//! with [`Recorder`] each span records its name, start, end, parent and
//! request id in memory. Spans are written out as Chrome/Perfetto JSON
//! when the run ends. A span's self time is its duration minus the time
//! its child spans cover; spans of one thread nest strictly, so that is
//! the duration minus the children's durations.

use std::fmt::Write as _;
use std::time::Instant;

/// Handle of an open span, returned by [`Tracer::begin`].
#[derive(Clone, Copy)]
pub struct Open(u32);

pub trait Tracer: Send + Sized {
    fn begin(&mut self, name: &'static str, id: u64) -> Open;
    fn end(&mut self, open: Open);
    /// A tracer of the same kind for another thread.
    fn fork(&self, tid: u32) -> Self;
    /// Take back what a forked tracer recorded.
    fn join(&mut self, child: Self);
}

/// Tracing switched off.
pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn begin(&mut self, _: &'static str, _: u64) -> Open {
        Open(0)
    }

    #[inline(always)]
    fn end(&mut self, _: Open) {}

    fn fork(&self, _: u32) -> Off {
        Off
    }

    fn join(&mut self, _: Off) {}
}

/// One finished span.
pub struct Span {
    pub name: &'static str,
    pub tid: u32,
    pub seq: u32,
    /// `seq` of the enclosing span on the same thread, 0 for a root.
    pub parent: u32,
    pub id: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Per-name aggregate, kept for every span even past the export cap.
#[derive(Clone)]
pub struct Totals {
    pub name: &'static str,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

struct Frame {
    name: &'static str,
    id: u64,
    seq: u32,
    parent: u32,
    start: Instant,
    child_ns: u64,
}

/// In-memory span recorder for one thread.
pub struct Recorder {
    epoch: Instant,
    tid: u32,
    next_seq: u32,
    stack: Vec<Frame>,
    spans: Vec<Span>,
    totals: Vec<Totals>,
}

/// Spans kept for export per recorder; aggregates count every span.
const EXPORT_CAP: usize = 100_000;

impl Recorder {
    pub fn new(epoch: Instant, tid: u32) -> Recorder {
        Recorder {
            epoch,
            tid,
            next_seq: 1,
            stack: Vec::new(),
            spans: Vec::new(),
            totals: Vec::new(),
        }
    }

    /// Take over the spans and totals another thread's recorder kept.
    fn absorb(&mut self, other: Recorder) {
        let room = EXPORT_CAP.saturating_sub(self.spans.len());
        self.spans.extend(other.spans.into_iter().take(room));
        for t in other.totals {
            let mine = self.totals_for(t.name);
            mine.count += t.count;
            mine.total_ns += t.total_ns;
            mine.self_ns += t.self_ns;
        }
    }

    fn totals_for(&mut self, name: &'static str) -> &mut Totals {
        let at = match self.totals.iter().position(|t| t.name == name) {
            Some(i) => i,
            None => {
                self.totals.push(Totals {
                    name,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                self.totals.len() - 1
            }
        };
        &mut self.totals[at]
    }

    pub fn span_count(&self) -> u64 {
        self.totals.iter().map(|t| t.count).sum()
    }

    pub fn totals(&self) -> &[Totals] {
        &self.totals
    }

    /// Self time summed per layer, the span name up to its first dot
    /// (`facade.forward` belongs to `facade`).
    pub fn layer_self_ns(&self) -> Vec<(&'static str, u64)> {
        let mut layers: Vec<(&'static str, u64)> = Vec::new();
        for t in &self.totals {
            let layer = t.name.split('.').next().unwrap_or(t.name);
            match layers.iter_mut().find(|(l, _)| *l == layer) {
                Some((_, ns)) => *ns += t.self_ns,
                None => layers.push((layer, t.self_ns)),
            }
        }
        layers
    }

    /// Chrome/Perfetto trace-event JSON of the kept spans.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"id\":{}}}}}{sep}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.tid,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.seq,
                s.parent,
                s.id,
            );
        }
        out.push_str("]}\n");
        out
    }
}

impl Tracer for Recorder {
    fn begin(&mut self, name: &'static str, id: u64) -> Open {
        let seq = self.next_seq;
        self.next_seq += 1;
        let parent = self.stack.last().map_or(0, |f| f.seq);
        self.stack.push(Frame {
            name,
            id,
            seq,
            parent,
            start: Instant::now(),
            child_ns: 0,
        });
        Open(seq)
    }

    fn end(&mut self, open: Open) {
        let end = Instant::now();
        let frame = self.stack.pop().expect("span ended that was never begun");
        assert_eq!(
            frame.seq, open.0,
            "spans must end in reverse order of begin"
        );
        let dur_ns = u64::try_from((end - frame.start).as_nanos()).unwrap_or(u64::MAX);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur_ns;
        }
        let t = self.totals_for(frame.name);
        t.count += 1;
        t.total_ns += dur_ns;
        t.self_ns += dur_ns.saturating_sub(frame.child_ns);
        if self.spans.len() < EXPORT_CAP {
            let since = frame.start.saturating_duration_since(self.epoch);
            let start_ns = u64::try_from(since.as_nanos()).unwrap_or(u64::MAX);
            self.spans.push(Span {
                name: frame.name,
                tid: self.tid,
                seq: frame.seq,
                parent: frame.parent,
                id: frame.id,
                start_ns,
                dur_ns,
            });
        }
    }

    fn fork(&self, tid: u32) -> Recorder {
        Recorder::new(self.epoch, tid)
    }

    fn join(&mut self, child: Recorder) {
        self.absorb(child);
    }
}
