//! In-memory span recorder around the benchmark's calls into each layer.
//!
//! A span has a name, start, end, parent and run id. Spans nest through
//! [`Recorder::span`]; a layer's self time is its spans' durations minus
//! the part their child spans cover. Spans stay in memory and are written
//! out once, at the end of the run.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Which run (simulation, job or setup pass) the span belongs to.
    pub run: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder owned by one thread.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
}

impl Recorder {
    /// A recorder timing from `epoch`; recorders that share an epoch can
    /// be merged.
    pub fn new(epoch: Instant) -> Recorder {
        Recorder { epoch, spans: Vec::new(), open: Vec::new(), run: 0 }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Tag the spans opened from now on with `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as a span named `name`, nested under the innermost open
    /// span. Returns `f`'s result.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Duration of the most recently closed span named `name`, seconds.
    pub fn last_secs(&self, name: &str) -> f64 {
        self.spans.iter().rev().find(|s| s.name == name).map_or(0.0, |s| s.dur_ns() as f64 * 1e-9)
    }

    /// Fold another recorder's spans in (re-indexing their parents).
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span name, nanoseconds: each span's duration minus
    /// the durations of its direct children.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Total duration of the spans with no parent, nanoseconds.
    pub fn root_ns(&self) -> u64 {
        self.spans.iter().filter(|s| s.parent.is_none()).map(Span::dur_ns).sum()
    }

    /// Every span as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
                s.name, s.start_ns, s.end_ns, s.run
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parents_and_self_time() {
        let mut r = Recorder::new(Instant::now());
        r.set_run(7);
        r.span("outer", |r| {
            r.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let s = &r.spans;
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].run, 7);
        let self_ns = r.self_ns();
        assert_eq!(self_ns["outer"] + self_ns["inner"], s[0].dur_ns());
        assert!(self_ns["inner"] >= 2_000_000);
        assert_eq!(r.root_ns(), s[0].dur_ns());
    }

    #[test]
    fn absorb_reindexes_parents() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch);
        a.span("a", |_| ());
        let mut b = Recorder::new(epoch);
        b.span("b", |r| r.span("c", |_| ()));
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert!(a.to_json().starts_with("{\"spans\":[{\"id\":0,\"name\":\"a\""));
    }
}
