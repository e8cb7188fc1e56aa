//! Spans recorded from the harness's own files around calls into each
//! layer's public functions (spans *inside* the program are a later
//! change). Kept in memory and written out once, at the end.

use crate::json::escape;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. `parent` is the index of the span that was open
/// when this one started; spans of one round share `round`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub round: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// An in-memory span recorder with an open-span stack.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub round: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the span currently
    /// open. Returns `f`'s value and the span's duration in seconds.
    pub fn timed<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> (R, f64) {
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        (out, self.spans[idx].secs())
    }

    /// [`Tracer::timed`] without the duration.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.timed(name, f).0
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration (seconds) of the spans named `name` in `round`.
    pub fn total(&self, round: u32, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.round == round && s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Write `name,start,end,parent,round` as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"round\":{}}}",
                escape(&s.name),
                s.start_ns,
                s.end_ns,
                s.round
            )?;
        }
        out.flush()
    }
}

/// Each span's self time in nanoseconds: its duration minus the part of
/// that interval its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn tracer_nests_and_sums_by_name() {
        let mut t = Tracer::new();
        t.round = 3;
        let v = t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
            7
        });
        assert_eq!(v, 7);
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(
            (s[0].parent, s[1].parent, s[2].parent),
            (None, Some(0), Some(0))
        );
        assert!(s.iter().all(|x| x.round == 3 && x.end_ns >= x.start_ns));
        assert!(t.total(3, "inner") <= t.total(3, "outer"));
        assert_eq!(t.total(2, "inner"), 0.0);
    }
}
