//! Measurement helpers: order statistics, process memory, and the
//! in-memory span recorder of the traced run.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use tracefmt::json::{self, Json, ToJson};

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between order statistics; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Mean of `values`; 0 for an empty slice.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident memory of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// One recorded span: a named interval on the run's clock, the span
/// that caused it, and the request or scenario it belongs to.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `mpisim.run`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request or scenario id the span belongs to.
    pub id: String,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory during a traced run and written out at its end.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// `t` as nanoseconds since the origin.
    fn at(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        id: &str,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.at(start),
            end_ns: self.at(end),
            parent,
            id: id.to_string(),
        });
        self.spans.len() - 1
    }

    /// Open a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, id: &str) -> usize {
        let now = Instant::now(); // simlint: allow(wall-clock)
        self.push(name, now, now, parent, id)
    }

    /// Close a span opened with [`Spans::open`].
    pub fn close(&mut self, idx: usize) {
        self.spans[idx].end_ns = self.at(Instant::now()); // simlint: allow(wall-clock)
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: &str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now(); // simlint: allow(wall-clock)
        let out = f();
        self.push(name, start, Instant::now(), parent, id); // simlint: allow(wall-clock)
        out
    }

    /// Self time of every span: its duration minus the part covered by
    /// its child spans.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur_ns();
            }
        }
        self.spans
            .iter()
            .zip(child)
            .map(|(s, c)| s.dur_ns().saturating_sub(c))
            .collect()
    }

    /// Self times, in nanoseconds, of the spans called `name`.
    pub fn self_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_ns())
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64)
            .collect()
    }

    /// Per-name totals: `(name, spans, total self ns)`, sorted by name.
    pub fn self_totals(&self) -> Vec<(&'static str, usize, u64)> {
        let mut totals: std::collections::BTreeMap<&'static str, (usize, u64)> =
            std::collections::BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            let e = totals.entry(s.name).or_default();
            e.0 += 1;
            e.1 += ns;
        }
        totals.into_iter().map(|(k, (n, ns))| (k, n, ns)).collect()
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| (p as u64).to_json());
            let line = Json::obj(vec![
                ("span", (i as u64).to_json()),
                ("name", s.name.to_json()),
                ("start_ns", s.start_ns.to_json()),
                ("end_ns", s.end_ns.to_json()),
                ("self_ns", self_ns.to_json()),
                ("parent", parent),
                ("id", s.id.to_json()),
            ]);
            writeln!(out, "{}", json::to_string(&line))?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0], 0.5), 1.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let at = |ns: u64| t0 + Duration::from_nanos(ns);
        let mut s = Spans::new(t0);
        let root = s.push("root", at(0), at(100), None, "a");
        s.push("child", at(10), at(40), Some(root), "a");
        s.push("child", at(50), at(70), Some(root), "a");
        assert_eq!(s.self_ns(), vec![50, 30, 20]);
        assert_eq!(s.self_of("child"), vec![30.0, 20.0]);
        assert_eq!(s.self_totals(), vec![("child", 2, 50), ("root", 1, 50)]);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().expect("linux /proc") > 0.0);
    }
}
