//! The measurement loop shared by the in-process workloads (`flow`,
//! `lint`, `miter`): a fixed job list run in passes for a fixed window,
//! each execution timed (wall and process CPU) and then checked outside
//! the timed region. The traced variant pairs every job with an untraced
//! twin and records bench-level spans through rsn-obs.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use rsn_obs::{Registry, SpanStat, TraceThread};

use crate::golden::Goldens;
use crate::stats::{harrell_davis, median};
use crate::sys;

/// Name of the bench-level span wrapping one traced job execution.
pub const JOB_SPAN: &str = "job";

/// Opens bench-level layer spans while tracing, and nothing otherwise.
pub struct Tracer {
    on: bool,
}

impl Tracer {
    /// A tracer that records nothing (untraced executions).
    pub fn off() -> Tracer {
        Tracer { on: false }
    }

    /// `true` inside a traced execution.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named after the per-layer metric it feeds
    /// (e.g. `rsn-sib.generate_s`), so the span's duration is the
    /// metric's value and program spans nest under it.
    pub fn layer<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if self.on {
            let _span = rsn_obs::Span::enter(name);
            f()
        } else {
            f()
        }
    }
}

/// What one job execution produced besides its timing.
#[derive(Debug, Default)]
pub struct JobOut {
    /// Failed output checks; empty when every check passed.
    pub failures: Vec<String>,
    /// Per-layer raw values the job itself knows (work counts, gauges
    /// read right after the call that set them). Summed over jobs.
    pub raw: BTreeMap<&'static str, f64>,
}

impl JobOut {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    /// Adds `v` to the raw per-layer value `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.raw.entry(key).or_default() += v;
    }
}

/// A fixed job list.
pub trait Workload {
    /// What one job's calls return, handed to [`Workload::check`].
    type Out;
    /// Number of jobs in one pass.
    fn jobs(&self) -> usize;
    /// Stable name of job `j`, for failure messages.
    fn job_name(&self, j: usize) -> String;
    /// Loads or computes the references [`Workload::check`] compares
    /// against; called once after the timed set-up.
    fn load_references(&mut self, goldens: &Goldens);
    /// Runs job `j`'s calls into the code under test (the timed part),
    /// each inside a `tr.layer` span.
    fn run(&mut self, j: usize, tr: &Tracer) -> Self::Out;
    /// Checks job `j`'s outputs against references computed or loaded
    /// before the window, outside the timed region.
    fn check(&mut self, j: usize, out: Self::Out) -> JobOut;
}

/// One timed execution.
struct Exec {
    wall_s: f64,
    /// Raw per-layer values (traced executions only).
    raw: BTreeMap<String, f64>,
}

/// Everything measured over one window.
#[derive(Default)]
pub struct Measured {
    /// Job executions attempted (traced and untraced).
    pub attempted: u64,
    /// Executions that panicked or failed a check.
    pub failed: u64,
    /// Passes over the job list, the first complete, later ones possibly
    /// partial.
    pub passes: usize,
    /// Per-job untraced wall samples.
    wall: Vec<Vec<f64>>,
    /// Per-job untraced CPU samples.
    cpu: Vec<Vec<f64>>,
    /// Per-job traced executions.
    traced: Vec<Vec<Exec>>,
    /// Aggregated program and bench spans of all traced executions.
    pub spans: BTreeMap<String, SpanStat>,
    /// Drained trace events of all traced executions.
    pub events: Vec<TraceThread>,
    /// Trace events dropped because a buffer was full.
    pub trace_dropped: u64,
}

impl Measured {
    /// Seconds to finish the job list: the sum of per-job median walls.
    pub fn wall_s(&self) -> f64 {
        self.wall.iter().map(|s| median(s)).sum()
    }

    /// CPU seconds for the job list: the sum of per-job median CPU.
    pub fn cpu_s(&self) -> f64 {
        self.cpu.iter().map(|s| median(s)).sum()
    }

    /// Quantile `q` of the per-job median latencies (Harrell–Davis), in
    /// milliseconds.
    pub fn job_quantile_ms(&self, q: f64) -> f64 {
        let meds: Vec<f64> = self.wall.iter().map(|s| median(s) * 1e3).collect();
        harrell_davis(&meds, q)
    }

    /// Untraced wall samples of job `j`, in seconds.
    pub fn job_walls(&self, j: usize) -> &[f64] {
        &self.wall[j]
    }

    /// Sum over jobs of the per-job median of raw traced value `key`.
    pub fn raw_sum(&self, key: &str) -> f64 {
        self.traced
            .iter()
            .map(|execs| {
                let v: Vec<f64> = execs
                    .iter()
                    .map(|e| e.raw.get(key).copied().unwrap_or(0.0))
                    .collect();
                median(&v)
            })
            .sum()
    }

    /// Sum over jobs of the per-job median traced wall.
    pub fn traced_wall_s(&self) -> f64 {
        self.traced
            .iter()
            .map(|execs| median(&execs.iter().map(|e| e.wall_s).collect::<Vec<_>>()))
            .sum()
    }

    /// Every traced `sat.solve_ns` sample, merged.
    pub fn solve_hist(&self) -> rsn_obs::Histogram {
        let mut h = rsn_obs::Histogram::new();
        for e in self.traced.iter().flatten() {
            let get = |k: &str| e.raw.get(k).copied();
            for (i, b) in h.buckets.iter_mut().enumerate() {
                *b += get(&format!("solve_ns.b{i}")).unwrap_or(0.0) as u64;
            }
            h.count += get("solve_ns.count").unwrap_or(0.0) as u64;
            if let (Some(lo), Some(hi)) = (get("solve_ns.min"), get("solve_ns.max")) {
                h.min = h.min.min(lo as u64);
                h.max = h.max.max(hi as u64);
            }
        }
        h
    }
}

fn panicked(payload: Box<dyn std::any::Any + Send>) -> JobOut {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic".to_string());
    JobOut {
        failures: vec![format!("panicked: {msg}")],
        ..JobOut::default()
    }
}

/// Runs one job timed, then checks it untimed; a panic in either is a
/// failed check.
fn run_checked<W: Workload>(w: &mut W, j: usize, tr: &Tracer) -> (JobOut, f64, f64) {
    let c0 = sys::process_cpu_s();
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| w.run(j, tr)));
    let wall = t0.elapsed().as_secs_f64();
    let cpu = sys::process_cpu_s() - c0;
    let checked = match out {
        Ok(out) => catch_unwind(AssertUnwindSafe(|| w.check(j, out))).unwrap_or_else(panicked),
        Err(payload) => panicked(payload),
    };
    (checked, wall, cpu)
}

fn record_failures<W: Workload>(m: &mut Measured, w: &W, j: usize, out: &JobOut) {
    m.attempted += 1;
    if !out.failures.is_empty() {
        m.failed += 1;
        for f in &out.failures {
            println!("check failed: {}: {f}", w.job_name(j));
        }
    }
}

/// Raw per-layer values of one traced execution: bench layer spans
/// (direct children of the job span), the job's own values, and the
/// program's counters and histograms.
fn traced_raw(
    out: &JobOut,
    reg: &Registry,
    spans: &BTreeMap<String, SpanStat>,
) -> BTreeMap<String, f64> {
    let mut raw: BTreeMap<String, f64> = out.raw.iter().map(|(k, v)| (k.to_string(), *v)).collect();
    let prefix = format!("{JOB_SPAN}/");
    let mut layers = 0.0;
    for (path, stat) in spans {
        if let Some(layer) = path.strip_prefix(&prefix) {
            if !layer.contains('/') {
                let s = stat.total_ns as f64 * 1e-9;
                *raw.entry(layer.to_string()).or_default() += s;
                layers += s;
            }
        }
    }
    let job = spans
        .get(JOB_SPAN)
        .map_or(0.0, |s| s.total_ns as f64 * 1e-9);
    raw.insert("unattributed_s".into(), (job - layers).max(0.0));
    for (name, v) in &reg.counters {
        raw.insert(name.clone(), *v as f64);
    }
    for (name, h) in &reg.histograms {
        raw.insert(format!("{name}.sum"), h.sum as f64);
        raw.insert(format!("{name}.count"), h.count as f64);
    }
    if let Some(h) = reg.histograms.get("sat.solve_ns") {
        for (i, b) in h.buckets.iter().enumerate().filter(|(_, b)| **b > 0) {
            raw.insert(format!("solve_ns.b{i}"), *b as f64);
        }
        raw.insert("solve_ns.count".into(), h.count as f64);
        raw.insert("solve_ns.min".into(), h.min as f64);
        raw.insert("solve_ns.max".into(), h.max as f64);
    }
    raw
}

fn traced_exec<W: Workload>(m: &mut Measured, w: &mut W, j: usize) -> Exec {
    rsn_obs::reset();
    rsn_obs::set_trace_enabled(true);
    let job = rsn_obs::Span::enter(JOB_SPAN);
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(|| w.run(j, &Tracer { on: true })));
    let wall = t0.elapsed().as_secs_f64();
    drop(job);
    rsn_obs::set_trace_enabled(false);
    let reg = rsn_obs::metrics_snapshot();
    let spans = rsn_obs::span_snapshot();
    let out = match out {
        Ok(out) => catch_unwind(AssertUnwindSafe(|| w.check(j, out))).unwrap_or_else(panicked),
        Err(payload) => panicked(payload),
    };
    for t in rsn_obs::trace_drain() {
        m.trace_dropped += t.dropped;
        match m.events.iter_mut().find(|a| a.tid == t.tid) {
            Some(a) => a.events.extend(t.events),
            None => m.events.push(t),
        }
    }
    record_failures(m, w, j, &out);
    let raw = traced_raw(&out, &reg, &spans);
    for (path, stat) in spans {
        let acc = m.spans.entry(path).or_default();
        acc.calls += stat.calls;
        acc.total_ns += stat.total_ns;
    }
    Exec { wall_s: wall, raw }
}

/// A job shorter than this runs again within the same pass (up to
/// `MAX_REPEATS` times in all), so short jobs, which dominate the latency
/// quantiles, get a median over many samples instead of a few.
const MIN_JOB_S: f64 = 0.1;
const MAX_REPEATS: usize = 10;

fn untraced_exec<W: Workload>(m: &mut Measured, w: &mut W, j: usize) {
    let mut spent = 0.0;
    for _ in 0..MAX_REPEATS {
        let (out, wall, cpu) = run_checked(w, j, &Tracer::off());
        record_failures(m, w, j, &out);
        m.wall[j].push(wall);
        m.cpu[j].push(cpu);
        spent += wall;
        if spent >= MIN_JOB_S {
            break;
        }
    }
}

/// Runs passes over the job list for `window`. The first pass always
/// completes; after it, a job starts only if its previous duration
/// (repeats included) still fits in the window, and a job that does not
/// fit is skipped for the next one, so the shorter jobs fill the end of
/// the window and the run ends within it. With `traced`, every job runs
/// twice in a row, untraced and traced, alternating which goes first per
/// pass.
pub fn measure<W: Workload>(w: &mut W, window: Duration, traced: bool) -> Measured {
    let n = w.jobs();
    let mut m = Measured {
        wall: vec![Vec::new(); n],
        cpu: vec![Vec::new(); n],
        traced: (0..n).map(|_| Vec::new()).collect(),
        ..Measured::default()
    };
    let mut last = vec![0.0; n];
    let start = Instant::now();
    loop {
        let mut ran = false;
        for (j, last) in last.iter_mut().enumerate() {
            if m.passes > 0 && start.elapsed().as_secs_f64() + *last > window.as_secs_f64() {
                continue;
            }
            ran = true;
            let t0 = Instant::now();
            if !traced {
                untraced_exec(&mut m, w, j);
            } else {
                let traced_first = m.passes % 2 == 1;
                if traced_first {
                    let e = traced_exec(&mut m, w, j);
                    m.traced[j].push(e);
                }
                untraced_exec(&mut m, w, j);
                if !traced_first {
                    let e = traced_exec(&mut m, w, j);
                    m.traced[j].push(e);
                }
            }
            *last = t0.elapsed().as_secs_f64();
        }
        if !ran {
            return m;
        }
        m.passes += 1;
    }
}

/// Set-up time: the median over batches of the mean set-up time within
/// a batch. A batch repeats the set-up until `batch` has passed (a slow
/// set-up makes a batch of one), so a cheap set-up whose single timings
/// fall into two modes still gives a steady value. A batch's values are
/// dropped after its timer stops. At least `min_batches` batches, and
/// more until `min_total` has elapsed. Returns the median and the last
/// set-up's value.
pub fn median_time<T>(
    min_batches: usize,
    batch: Duration,
    min_total: Duration,
    mut f: impl FnMut() -> T,
) -> (f64, T) {
    let mut samples = Vec::new();
    let start = Instant::now();
    loop {
        let mut made = Vec::new();
        let t0 = Instant::now();
        let spent = loop {
            made.push(std::hint::black_box(f()));
            let spent = t0.elapsed();
            if spent >= batch {
                break spent;
            }
        };
        samples.push(spent.as_secs_f64() / made.len() as f64);
        let last = made.pop().expect("a batch makes at least one value");
        drop(made);
        if samples.len() >= min_batches && start.elapsed() >= min_total {
            return (median(&samples), last);
        }
    }
}
