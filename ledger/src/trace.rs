//! The benchmark's own spans: recorded around its calls into each layer's
//! public functions, kept in memory, summarised into self times and
//! written out when the run ends. Nothing here reaches inside the program;
//! time a layer spends below a span's call boundary is attributed from
//! the program's own `bolt_obs` histograms as aggregate child spans.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span within its [`Tracer`].
pub type SpanId = usize;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Shared by every span of one request (one query, one catalogue).
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// An aggregate child: the summed duration of the program's own
    /// histogram samples recorded inside the parent, placed at the
    /// parent's start (the individual intervals are not observable).
    pub aggregate: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's span log. A disabled tracer records nothing and costs a
/// branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    pub fn set_enabled(&mut self, on: bool) {
        self.on = on;
    }

    /// Make room for `n` more spans.
    pub fn reserve(&mut self, n: usize) {
        self.spans.reserve(n);
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Record a finished span; returns its id (meaningless when off).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        if !self.on {
            return 0;
        }
        let span = Span {
            name,
            parent,
            req,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            aggregate: false,
        };
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Open a span whose end is set by [`Tracer::close`], so children can
    /// name it as their parent while it runs.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, req, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        if self.on {
            let end = self.ns(Instant::now());
            self.spans[id].end_ns = end;
        }
    }

    /// Attach an aggregate child covering `covered_ns` of `parent`.
    pub fn aggregate(&mut self, name: &'static str, parent: SpanId, covered_ns: u64) {
        if !self.on || covered_ns == 0 {
            return;
        }
        let p = &self.spans[parent];
        let span = Span {
            name,
            parent: Some(parent),
            req: p.req,
            start_ns: p.start_ns,
            end_ns: p.start_ns + covered_ns,
            aggregate: true,
        };
        self.spans.push(span);
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }

    /// Move another thread's spans in behind this one's.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Per span name: how many, their total duration and their self time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SelfTime {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl SelfTime {
    pub fn self_mean_us(&self) -> f64 {
        crate::stats::ratio(self.self_ns as f64, self.count as f64) / 1e3
    }
}

/// Self time of every span: its duration minus what its children cover.
/// Fails when children cover more than their parent, which means some
/// time was counted twice.
pub fn self_times(spans: &[Span]) -> Result<BTreeMap<&'static str, SelfTime>, String> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let dur = s.dur_ns();
        if covered[i] > dur {
            return Err(format!(
                "span {} (request {}) lasts {} ns but its children cover {} ns",
                s.name, s.req, dur, covered[i]
            ));
        }
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur - covered[i];
    }
    Ok(out)
}

/// Spans aggregated by their path of names from the root (`catalogue/
/// contract/store.get_or_explore`), sorted by path so children follow
/// their parents, each with its count, total and self time: the
/// breakdown a report prints.
pub fn tree(spans: &[Span]) -> Vec<(String, SelfTime)> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p] += s.dur_ns();
        }
    }
    let mut paths: Vec<String> = Vec::with_capacity(spans.len());
    let mut out: Vec<(String, SelfTime)> = Vec::new();
    let mut index: BTreeMap<String, usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let path = match s.parent {
            Some(p) => format!("{}/{}", paths[p], s.name),
            None => s.name.to_string(),
        };
        let slot = *index.entry(path.clone()).or_insert_with(|| {
            out.push((path.clone(), SelfTime::default()));
            out.len() - 1
        });
        let e = &mut out[slot].1;
        e.count += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(covered[i]);
        paths.push(path);
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

/// Report lines for [`tree`], times divided by `per` (the number of
/// requests), in `unit_ns` per printed unit.
pub fn tree_lines(spans: &[Span], per: f64, unit: &str, unit_ns: f64) -> Vec<String> {
    tree(spans)
        .into_iter()
        .map(|(path, t)| {
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(&path);
            format!(
                "{:indent$}{name:<w$} ×{:<8.2} total {:>10.3} {unit}  self {:>10.3} {unit}",
                "",
                t.count as f64 / per,
                t.total_ns as f64 / per / unit_ns,
                t.self_ns as f64 / per / unit_ns,
                indent = 2 * depth,
                w = 28 - 2 * depth.min(10),
            )
        })
        .collect()
}

/// The span log as tab-separated lines (`id parent req name start_ns
/// end_ns kind`), at most `cap` spans, with a header saying how many
/// were recorded in all.
pub fn render(spans: &[Span], cap: usize) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# spans recorded: {}, written: {}\n# id\tparent\treq\tname\tstart_ns\tend_ns\tkind",
        spans.len(),
        spans.len().min(cap)
    );
    for (i, s) in spans.iter().take(cap).enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        let kind = if s.aggregate { "aggregate" } else { "span" };
        let _ = writeln!(
            out,
            "{i}\t{parent}\t{}\t{}\t{}\t{}\t{kind}",
            s.req, s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut tr = Tracer::new(true, t0);
        let root = tr.record("root", None, 1, at(0), at(100));
        tr.record("a", Some(root), 1, at(10), at(40));
        let b = tr.record("b", Some(root), 1, at(50), at(90));
        tr.aggregate("b.inner", b, 15_000);
        let st = self_times(tr.spans()).unwrap();
        assert_eq!(st["root"].self_ns, 30_000);
        assert_eq!(st["a"].self_ns, 30_000);
        assert_eq!(st["b"].self_ns, 25_000);
        assert_eq!(st["b.inner"].total_ns, 15_000);
        let t = tree(tr.spans());
        let paths: Vec<&str> = t.iter().map(|(p, _)| p.as_str()).collect();
        assert_eq!(paths, ["root", "root/a", "root/b", "root/b/b.inner"]);
        assert_eq!(t[2].1.self_ns, 25_000);
    }

    #[test]
    fn double_counting_fails() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut tr = Tracer::new(true, t0);
        let root = tr.record("root", None, 1, at(0), at(10));
        tr.aggregate("inner", root, 11_000);
        assert!(self_times(tr.spans()).is_err());
    }

    #[test]
    fn disabled_tracer_records_nothing_and_absorb_rebases() {
        let t0 = Instant::now();
        let mut off = Tracer::new(false, t0);
        off.record("x", None, 1, t0, t0);
        assert!(off.spans().is_empty());
        let mut a = Tracer::new(true, t0);
        a.record("a", None, 1, t0, t0);
        let mut b = Tracer::new(true, t0);
        let p = b.record("p", None, 2, t0, t0);
        b.record("c", Some(p), 2, t0, t0);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
        assert!(render(a.spans(), 2).contains("spans recorded: 3, written: 2"));
    }
}
