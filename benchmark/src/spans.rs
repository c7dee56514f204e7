//! In-memory spans around each call the benchmark makes into a layer.
//!
//! The traced run (`--trace 1`) records `{id, parent, name, start_ns,
//! end_ns}` on the driving thread, keeps everything in memory, and writes
//! one JSON file when the run ends. A layer's self time is its span minus
//! the part of that interval its child spans cover. Nanosecond-scale layers
//! are spanned per pass over the trace, never per packet; control-plane and
//! serve calls are spanned per call. With tracing off every method is a
//! no-op, which is how the untraced run measures end-to-end metrics.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Per-name totals derived from the recorded spans.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Span recorder for one thread.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self { on, t0: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.t0.elapsed().as_nanos() as u64;
        out
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        totals(&self.spans)
    }

    /// Writes the spans and the per-name totals as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "  {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \
                     \"end_ns\": {}}}",
                    s.id, s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        let totals: Vec<String> = self
            .totals()
            .iter()
            .map(|(name, t)| {
                format!(
                    "  \"{name}\": {{\"count\": {}, \"total_ns\": {}, \"self_ns\": {}}}",
                    t.count, t.total_ns, t.self_ns
                )
            })
            .collect();
        writeln!(
            out,
            "{{\"spans\": [\n{}\n], \"totals\": {{\n{}\n}}}}",
            spans.join(",\n"),
            totals.join(",\n")
        )?;
        out.flush()
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the parent), summed per name.
fn totals(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns)));
        }
    }
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for s in spans {
        let kids = &mut children[s.id];
        kids.sort_unstable();
        let (mut covered, mut reach) = (0u64, s.start_ns);
        for &(lo, hi) in kids.iter() {
            let lo = lo.max(reach);
            if hi > lo {
                covered += hi - lo;
                reach = hi;
            }
        }
        let total = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += total;
        t.self_ns += total - covered.min(total);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, name, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root 0..100; children 10..30 and 20..50 overlap (union 10..50),
        // a third 60..70 is disjoint; a grandchild sits inside the first.
        let spans = vec![
            span(0, None, "root", 0, 100),
            span(1, Some(0), "a", 10, 30),
            span(2, Some(0), "b", 20, 50),
            span(3, Some(0), "a", 60, 70),
            span(4, Some(1), "leaf", 12, 20),
        ];
        let t = totals(&spans);
        assert_eq!(t["root"], NameTotals { count: 1, total_ns: 100, self_ns: 50 });
        assert_eq!(t["a"], NameTotals { count: 2, total_ns: 30, self_ns: 22 });
        assert_eq!(t["b"], NameTotals { count: 1, total_ns: 30, self_ns: 30 });
        assert_eq!(t["leaf"].self_ns, 8);
    }

    #[test]
    fn tracer_nests_spans_and_is_inert_when_off() {
        let mut tr = Tracer::new(true);
        let v = tr.span("outer", |tr| tr.span("inner", |_| 7));
        assert_eq!(v, 7);
        assert_eq!(tr.spans.len(), 2);
        assert_eq!(tr.spans[1].parent, Some(0));
        assert!(tr.spans[0].end_ns >= tr.spans[1].end_ns);
        let t = tr.totals();
        assert_eq!(t["outer"].self_ns, t["outer"].total_ns - t["inner"].total_ns);

        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 1), 1);
        assert!(off.spans.is_empty());
    }
}
