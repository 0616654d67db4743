//! The benchmark's own tracing: spans around every public call it makes,
//! plus the program's stage spans imported from its metrics report.
//!
//! Spans live in memory for the whole run and are written once, at exit.
//! The program reports stage time as per-path aggregates
//! (`wrangle/er` → total nanos), not as individual intervals, so an
//! imported stage span carries its measured duration and is laid out
//! back to back inside the call span that ran the pass.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use data_wrangler::obs::MetricsReport;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// `op`, a public call (`wrangle`, `update_source`, …) or an imported
    /// stage (`stage.er`).
    pub name: String,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the run's span list.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: usize,
    /// True for stage spans imported from the program's metrics.
    pub imported: bool,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    fn to_json(&self, id: usize) -> String {
        let parent = self.parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{},\"imported\":{}}}",
            self.name, self.start_ns, self.end_ns, self.op, self.imported
        )
    }
}

/// Times the public calls of one op. Only the calls made through
/// [`Clock::call`] count towards the op's latency; work between them
/// (building inputs, checking outputs) stays outside the timed region.
pub struct Clock {
    epoch: Instant,
    traced: bool,
    op: usize,
    /// When the op began: before the client built its inputs.
    start_ns: u64,
    timed: Duration,
    /// Spans of the current op, parents relative to this list.
    spans: Vec<Span>,
}

impl Clock {
    /// Start timing op `op`; create the clock when the op begins.
    pub fn new(epoch: Instant, traced: bool, op: usize) -> Clock {
        Clock {
            epoch,
            traced,
            op,
            start_ns: (Instant::now() - epoch).as_nanos() as u64,
            timed: Duration::ZERO,
            spans: Vec::new(),
        }
    }

    /// Run one public call inside the timed region.
    pub fn call<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = std::hint::black_box(f());
        let end = Instant::now();
        self.timed += end - start;
        if self.traced {
            self.spans.push(Span {
                name: name.to_string(),
                start_ns: self.ns(start),
                end_ns: self.ns(end),
                parent: None,
                op: self.op,
                imported: false,
            });
        }
        r
    }

    /// The op's latency: the sum of its timed calls.
    pub fn timed(&self) -> Duration {
        self.timed
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    /// Summed duration of this op's calls named `name`, in milliseconds.
    pub fn call_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| !s.imported && s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .sum()
    }

    /// Attach the stage spans of one pass (the per-path timing delta of
    /// the session that ran it) under the last call named `call`.
    pub fn import_stages(&mut self, call: &str, stages: &BTreeMap<String, f64>) {
        let Some(parent) = self
            .spans
            .iter()
            .rposition(|s| !s.imported && s.name == call)
        else {
            return;
        };
        let mut at = self.spans[parent].start_ns;
        for (stage, ms) in stages {
            let dur = (ms * 1e6) as u64;
            self.spans.push(Span {
                name: format!("stage.{stage}"),
                start_ns: at,
                end_ns: at + dur,
                parent: Some(parent),
                op: self.op,
                imported: true,
            });
            at += dur;
        }
    }

    /// Share of the op span that its call spans cover. The op span runs
    /// from the op's start, before the client builds its inputs, to the
    /// end of its last call; the rest is the client's own work between
    /// calls (building payloads and feedback, cloning sessions, opening
    /// stores).
    pub fn coverage(&self) -> f64 {
        let calls: Vec<&Span> = self.spans.iter().filter(|s| s.parent.is_none()).collect();
        let Some(last) = calls.iter().map(|s| s.end_ns).max() else {
            return 0.0;
        };
        let covered: u64 = calls.iter().map(|s| s.dur_ns()).sum();
        covered as f64 / (last - self.start_ns).max(1) as f64
    }

    /// Self time of every call span that ran a pipeline pass: the call's
    /// duration minus the imported stage spans under it, in milliseconds,
    /// and the stage share of those calls.
    pub fn pass_self_time(&self) -> (f64, f64) {
        let mut call_ns = 0u64;
        let mut child_ns = 0u64;
        for (i, s) in self.spans.iter().enumerate() {
            let children: u64 = self
                .spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(Span::dur_ns)
                .sum();
            if children > 0 {
                call_ns += s.dur_ns();
                child_ns += children;
            }
        }
        let self_ms = call_ns.saturating_sub(child_ns) as f64 / 1e6;
        (self_ms, child_ns as f64 / call_ns.max(1) as f64)
    }

    /// Close the op: wrap its spans under one `op` root and append them to
    /// the run's list.
    pub fn finish(self, out: &mut Vec<Span>) {
        if self.spans.is_empty() {
            return;
        }
        let root = out.len();
        let start = self.start_ns;
        let end = self.spans.iter().map(|s| s.end_ns).max().unwrap_or(0);
        out.push(Span {
            name: "op".to_string(),
            start_ns: start,
            end_ns: end,
            parent: None,
            op: self.op,
            imported: false,
        });
        let base = out.len();
        for mut s in self.spans {
            s.parent = Some(s.parent.map_or(root, |p| base + p));
            out.push(s);
        }
    }
}

/// Stage time of one pass: the timing delta between two metric snapshots
/// of the same session, keyed by stage name (`er`, `fuse`, …). Only the
/// direct children of a pass root (`wrangle/<stage>`,
/// `rewrangle/<stage>`) count; worker busy time runs in parallel under its
/// stage and is reported separately by [`worker_busy_ms`].
pub fn stage_ms(before: &MetricsReport, after: &MetricsReport) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (path, t) in &after.timings {
        let mut parts = path.split('/');
        let (Some(root), Some(stage), None) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        if root != "wrangle" && root != "rewrangle" {
            continue;
        }
        let prev = before.timings.get(path).map_or(0, |p| p.nanos);
        let d = t.nanos.saturating_sub(prev);
        if d > 0 {
            *out.entry(stage.to_string()).or_insert(0.0) += d as f64 / 1e6;
        }
    }
    out
}

/// Busy time of ER worker `w` between two snapshots, in milliseconds.
pub fn worker_busy_ms(before: &MetricsReport, after: &MetricsReport, w: usize) -> f64 {
    let path = format!("wrangle/er/worker{w}");
    let now = after.timings.get(&path).map_or(0, |t| t.nanos);
    let prev = before.timings.get(&path).map_or(0, |t| t.nanos);
    now.saturating_sub(prev) as f64 / 1e6
}

/// Counter deltas between two snapshots of the same session.
pub fn count_delta(before: &MetricsReport, after: &MetricsReport) -> BTreeMap<String, u64> {
    after
        .counts
        .iter()
        .map(|(k, &v)| (k.clone(), v - before.counts.get(k).copied().unwrap_or(0)))
        .filter(|&(_, d)| d > 0)
        .collect()
}

/// Write the run's spans as JSON lines.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write as _;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        writeln!(f, "{}", s.to_json(i))?;
    }
    f.flush()
}
