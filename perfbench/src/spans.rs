//! In-memory spans recorded around the calls the benchmark makes into
//! each layer, written out when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// A sink for spans. The untraced measurement uses [`Off`], which
/// compiles to nothing.
pub trait Tracer {
    fn begin(&mut self, name: &'static str);
    fn end(&mut self);
    /// Whether spans are recorded: the traced run also makes calls the
    /// untraced one skips, to time layers the engine calls internally.
    fn on(&self) -> bool;
}

pub struct Off;

impl Tracer for Off {
    #[inline(always)]
    fn begin(&mut self, _: &'static str) {}
    #[inline(always)]
    fn end(&mut self) {}
    #[inline(always)]
    fn on(&self) -> bool {
        false
    }
}

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    /// Index of the enclosing span, or [`NO_PARENT`].
    parent: u32,
    /// Index of the outermost enclosing span: every span of one
    /// simulated hour shares it.
    root: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Per-name totals over every recorded span.
#[derive(Default, Clone, Copy)]
pub struct Totals {
    pub count: u64,
    pub total_ns: f64,
    /// Span time not covered by child spans.
    pub self_ns: f64,
}

pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 20),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if span.parent != NO_PARENT {
                child_ns[span.parent as usize] += span.end_ns - span.start_ns;
            }
        }
        let mut totals: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let t = totals.entry(span.name).or_default();
            let duration = span.end_ns - span.start_ns;
            t.count += 1;
            t.total_ns += duration as f64;
            t.self_ns += duration.saturating_sub(child) as f64;
        }
        totals
    }

    /// The spans as tab-separated lines: index, parent, root, name,
    /// start and end in nanoseconds since the log was created.
    pub fn to_tsv(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 40);
        out.push_str("id\tparent\troot\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}",
                s.root, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

impl Tracer for SpanLog {
    fn begin(&mut self, name: &'static str) {
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let (parent, root) = match self.open.last() {
            Some(&p) => (p, self.spans[p as usize].root),
            None => (NO_PARENT, index),
        };
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            root,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(index);
    }

    fn end(&mut self) {
        let index = self.open.pop().expect("end() matches a begin()");
        self.spans[index as usize].end_ns = self.now_ns();
    }

    fn on(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut log = SpanLog::new();
        log.begin("hour");
        log.begin("tick");
        log.end();
        log.end();
        let totals = log.totals();
        let (hour, tick) = (totals["hour"], totals["tick"]);
        assert_eq!(hour.count, 1);
        assert_eq!(hour.self_ns, hour.total_ns - tick.total_ns);
        assert_eq!(log.spans[1].root, 0);
    }
}
