//! `perfbench` — the repository benchmark's measuring binary.
//!
//! ```text
//! perfbench <flow|lint|miter|serve> --seed N --seconds S --trace 0|1
//!           [--serve-bin PATH] [--out-dir DIR]
//! perfbench record
//! ```
//!
//! Normally started by `perfbench/run.py`, which builds this binary and
//! `rsn-serve` from source first. The last line of standard output is the
//! result object; see `perfbench/README.md` for the workloads and every
//! metric.

mod flow;
mod golden;
mod json;
mod lint;
mod miter;
mod rng;
mod runner;
mod serve;
mod stats;
mod sys;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use rsn_obs::json::Json;

use crate::golden::Goldens;
use crate::runner::{measure, median_time, Measured, Workload};

/// `setup_s` is the median over batches of set-ups (see
/// [`runner::median_time`]): batches of at least `SETUP_BATCH`, at least
/// `SETUP_BATCHES` of them, and more until `SETUP_MIN_TOTAL` has elapsed.
const SETUP_BATCHES: usize = 3;
const SETUP_BATCH: Duration = Duration::from_millis(20);
const SETUP_MIN_TOTAL: Duration = Duration::from_millis(300);

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rsn-sib.generate_s", "s"),
    ("rsn-fault.analyze_sib_s", "s"),
    ("rsn-fault.analyze_ft_s", "s"),
    ("rsn-fault.class_eval_s", "s"),
    ("rsn-fault.classes", "count"),
    ("rsn-fault.collapse_ratio", "ratio"),
    ("rsn-fault.warm_rounds", "count"),
    ("rsn-fault.worker_utilization", "ratio"),
    ("rsn-synth.synthesize_s", "s"),
    ("rsn-synth.augment_s", "s"),
    ("rsn-synth.added_edges", "count"),
    ("rsn-export.export_s", "s"),
    ("rsn-export.bytes", "bytes"),
    ("rsn-verify.cnf_build_s", "s"),
    ("rsn-verify.verify_s", "s"),
    ("rsn-verify.queries", "count"),
    ("rsn-sat.us_per_query", "us"),
    ("rsn-sat.solve_p99_us", "us"),
    ("rsn-sat.conflicts", "count"),
    ("rsn-sat.propagations", "count"),
    ("rsn-sat.eliminated_vars", "count"),
    ("rsn-sat.probe_units", "count"),
    ("rsn-sat.cubes", "count"),
    ("rsn-sat.pool_exports", "count"),
    ("rsn-sat.pool_imports", "count"),
    ("rsn-bmc.miter_build_s", "s"),
    ("rsn-bmc.solve_equiv_s", "s"),
    ("rsn-bmc.solve_dist_s", "s"),
    ("rsn-bmc.miter_vars", "count"),
    ("rsn-bmc.miter_clauses", "count"),
    ("rsn-serve.lint_p50_ms", "ms"),
    ("rsn-serve.sweep_p50_ms", "ms"),
    ("rsn-serve.plan_p50_ms", "ms"),
    ("rsn-serve.synth_p50_ms", "ms"),
    ("rsn-serve.server_busy_s", "s"),
    ("rsn-serve.client_wait_s", "s"),
    ("rsn-serve.cache_hit_ratio", "ratio"),
    ("rsn-serve.resynth_runs", "count"),
    ("rsn-serve.response_mb", "MB"),
    ("rsn-serve.unanswered", "count"),
    ("rsn-serve.cli_disagreements", "count"),
    ("rsn-serve.slow_reader_truncated", "count"),
    ("rsn-obs.trace_overhead", "ratio"),
    ("rsn-obs.unattributed_share", "ratio"),
    ("rsn-obs.trace_dropped", "count"),
];

/// Every end-to-end metric with its unit, in `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("req_p50_ms", "ms"),
    ("req_p95_ms", "ms"),
];

pub struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    serve_bin: Option<PathBuf>,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let workload = it.next().ok_or("missing workload")?;
    let mut args = Args {
        workload,
        seed: 1,
        seconds: 10.0,
        trace: false,
        serve_bin: None,
        out_dir: PathBuf::from(".bench_out"),
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => args.trace = value()? == "1",
            "--serve-bin" => args.serve_bin = Some(PathBuf::from(value()?)),
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The result of one run: what the last output line reports.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Answers that arrived complete but disagreed with their reference.
    pub wrong: u64,
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Report {
    fn print(&self, units: &[(&'static str, &'static str)]) {
        let mut metrics = Json::obj();
        for (name, unit) in units {
            let mut m = Json::obj();
            m.set(
                "value",
                Json::Num(self.metrics.get(name).copied().unwrap_or(0.0)),
            );
            m.set("unit", Json::Str(unit.to_string()));
            metrics.set(name, m);
        }
        let mut doc = Json::obj();
        doc.set("correct", Json::Bool(self.wrong == 0));
        doc.set("attempted", Json::Num(self.attempted as f64));
        doc.set("failed", Json::Num(self.failed as f64));
        doc.set("metrics", metrics);
        println!("{}", doc.to_string_pretty(0).replace('\n', ""));
    }
}

/// Per-layer metrics of an in-process traced window.
fn per_layer(m: &Measured) -> BTreeMap<&'static str, f64> {
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out = BTreeMap::new();
    for key in [
        "rsn-sib.generate_s",
        "rsn-fault.analyze_sib_s",
        "rsn-fault.analyze_ft_s",
        "rsn-synth.synthesize_s",
        "rsn-export.export_s",
        "rsn-verify.cnf_build_s",
        "rsn-verify.verify_s",
        "rsn-bmc.miter_build_s",
        "rsn-bmc.solve_equiv_s",
        "rsn-bmc.solve_dist_s",
    ] {
        out.insert(key, m.raw_sum(key));
    }
    let counters = [
        ("rsn-fault.classes", "fault.classes_evaluated"),
        ("rsn-fault.warm_rounds", "fault.warm_rounds.sum"),
        ("rsn-synth.augment_s", "augment_s"),
        ("rsn-synth.added_edges", "added_edges"),
        ("rsn-export.bytes", "export_bytes"),
        ("rsn-verify.queries", "queries"),
        ("rsn-sat.conflicts", "sat.conflicts"),
        ("rsn-sat.propagations", "sat.propagations"),
        ("rsn-sat.eliminated_vars", "sat.eliminated_vars"),
        ("rsn-sat.probe_units", "sat.probe_units"),
        ("rsn-sat.cubes", "sat.cubes"),
        ("rsn-sat.pool_exports", "sat.pool_exports"),
        ("rsn-sat.pool_imports", "sat.pool_imports"),
        ("rsn-bmc.miter_vars", "miter_vars"),
        ("rsn-bmc.miter_clauses", "miter_clauses"),
    ];
    for (name, raw) in counters {
        out.insert(name, m.raw_sum(raw));
    }
    out.insert(
        "rsn-fault.class_eval_s",
        m.raw_sum("fault.class_eval_ns.sum") * 1e-9,
    );
    out.insert(
        "rsn-fault.collapse_ratio",
        ratio(m.raw_sum("faults"), m.raw_sum("classes")),
    );
    out.insert(
        "rsn-fault.worker_utilization",
        ratio(m.raw_sum("util_sum"), m.raw_sum("util_n")),
    );
    out.insert(
        "rsn-sat.us_per_query",
        ratio(
            m.raw_sum("sat.solve_ns.sum"),
            m.raw_sum("sat.solve_ns.count"),
        ) * 1e-3,
    );
    let h = m.solve_hist();
    let p99 = if h.count > 0 {
        h.percentile(0.99) as f64 * 1e-3
    } else {
        0.0
    };
    out.insert("rsn-sat.solve_p99_us", p99);
    let traced = m.traced_wall_s();
    out.insert("rsn-obs.trace_overhead", ratio(traced, m.wall_s()));
    out.insert(
        "rsn-obs.unattributed_share",
        ratio(m.raw_sum("unattributed_s"), traced),
    );
    out.insert("rsn-obs.trace_dropped", m.trace_dropped as f64);
    out
}

/// Writes the traced run's spans: the program's own span tree with self
/// times (path → calls, total, self) and the Chrome trace of all events.
fn write_trace(m: &Measured, args: &Args) -> std::io::Result<()> {
    std::fs::create_dir_all(&args.out_dir)?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let mut tree = Json::obj();
    for (path, stat) in &m.spans {
        let depth = path.matches('/').count();
        let children: u128 = m
            .spans
            .iter()
            .filter(|(p, _)| {
                p.strip_prefix(path.as_str()).is_some_and(|rest| {
                    rest.starts_with('/') && p.matches('/').count() == depth + 1
                })
            })
            .map(|(_, s)| s.total_ns)
            .sum();
        let mut o = Json::obj();
        o.set("calls", Json::Num(stat.calls as f64));
        o.set("total_s", Json::Num(stat.total_ns as f64 * 1e-9));
        o.set(
            "self_s",
            Json::Num(stat.total_ns.saturating_sub(children) as f64 * 1e-9),
        );
        tree.set(path, o);
    }
    let spans_path = args.out_dir.join(format!("{stem}.spans.json"));
    std::fs::write(&spans_path, tree.to_string_pretty(2))?;
    let trace_path = args.out_dir.join(format!("{stem}.trace.json"));
    std::fs::write(
        &trace_path,
        rsn_obs::chrome_trace(&m.events).to_string_pretty(0),
    )?;
    println!(
        "spans written to {} and {}",
        spans_path.display(),
        trace_path.display()
    );
    Ok(())
}

/// Runs one in-process workload: set-up (timed repeatedly, see
/// [`SETUP_BATCHES`]), the references (untimed), then the measurement
/// window.
fn run_in_process<W: Workload>(args: &Args, goldens: &Goldens, setup: impl FnMut() -> W) -> Report {
    let (setup_s, mut w) = median_time(SETUP_BATCHES, SETUP_BATCH, SETUP_MIN_TOTAL, setup);
    w.load_references(goldens);
    sys::reset_peak_rss();
    let m = measure(&mut w, Duration::from_secs_f64(args.seconds), args.trace);
    let peak = sys::peak_rss_mb("self").unwrap_or(0.0);
    for j in 0..w.jobs() {
        let ms: Vec<String> = m
            .job_walls(j)
            .iter()
            .map(|s| format!("{:.1}", s * 1e3))
            .collect();
        println!("job {:<28} ms: {}", w.job_name(j), ms.join(" "));
    }
    println!(
        "{} jobs, {} pass(es), {} execution(s), {} failed",
        w.jobs(),
        m.passes,
        m.attempted,
        m.failed
    );
    let mut report = Report {
        attempted: m.attempted,
        failed: m.failed,
        wrong: m.failed,
        metrics: BTreeMap::new(),
    };
    if args.trace {
        if let Err(e) = write_trace(&m, args) {
            println!("could not write spans: {e}");
            report.failed += 1;
        }
        if m.trace_dropped > 0 {
            println!(
                "{} trace event(s) dropped: the traced run counts as failed",
                m.trace_dropped
            );
            report.failed += 1;
        }
        report.metrics = per_layer(&m);
    } else {
        let ok = 1.0 - m.failed as f64 / m.attempted.max(1) as f64;
        report.metrics = BTreeMap::from([
            ("setup_s", setup_s),
            ("wall_s", m.wall_s()),
            ("cpu_s", m.cpu_s()),
            ("peak_rss_mb", peak),
            ("ok_ratio", ok),
            ("req_p50_ms", m.job_quantile_ms(0.5)),
            ("req_p95_ms", m.job_quantile_ms(0.95)),
        ]);
    }
    report
}

/// Re-records `perfbench/goldens.json` from direct library calls.
fn record() -> Result<(), String> {
    let mut g = Goldens::default();
    let mut flow = flow::Flow::setup();
    flow.load_references(&g);
    let _ = measure(&mut flow, Duration::ZERO, false);
    for (j, facts) in flow.facts.iter().enumerate() {
        g.set("flow", &flow.job_name(j), facts.clone());
    }
    let mut lint = lint::Lint::setup();
    lint.load_references(&g);
    let _ = measure(&mut lint, Duration::ZERO, false);
    for (j, facts) in lint.facts.iter().enumerate() {
        g.set("lint", &lint.job_name(j), facts.clone());
    }
    for (job, facts) in miter::Miter::record_goldens(rsn_budget::default_threads()) {
        g.set("miter", &job, facts);
    }
    for (job, facts) in serve::record_goldens() {
        g.set("serve", &job, facts);
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/goldens.json");
    std::fs::write(path, g.to_json()).map_err(|e| format!("{path}: {e}"))?;
    println!("goldens written to {path}");
    Ok(())
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("record") {
        return match record() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let threads = rsn_budget::default_threads();
    println!(
        "threads: nproc {}, RSN_THREADS {threads} (fault sweeps, miter portfolio)",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let goldens = Goldens::embedded();
    let report = match args.workload.as_str() {
        "flow" => run_in_process(&args, &goldens, flow::Flow::setup),
        "lint" => run_in_process(&args, &goldens, lint::Lint::setup),
        "miter" => run_in_process(&args, &goldens, || {
            miter::Miter::setup(args.seed, threads, false)
        }),
        "serve" => match &args.serve_bin {
            Some(bin) => match serve::run(&args, bin, &goldens) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("perfbench: serve: {e}");
                    return ExitCode::from(1);
                }
            },
            None => {
                eprintln!("perfbench: serve needs --serve-bin");
                return ExitCode::from(2);
            }
        },
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    report.print(if args.trace { PER_LAYER } else { END_TO_END });
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Tracer;

    /// Runs job `j` of a fresh set-up against the references `g`.
    fn run_job<W: Workload>(mut w: W, g: &Goldens, j: usize) -> runner::JobOut {
        w.load_references(g);
        let out = w.run(j, &Tracer::off());
        w.check(j, out)
    }

    #[test]
    fn perturbed_flow_golden_is_caught() {
        let mut g = Goldens::embedded();
        let clean = run_job(flow::Flow::setup(), &g, 0);
        assert!(clean.failures.is_empty(), "{:?}", clean.failures);
        *g.get_mut("flow", "u226")
            .and_then(|f| f.get_mut("ft.avg_segments"))
            .expect("u226 golden") += 1e-6;
        let perturbed = run_job(flow::Flow::setup(), &g, 0);
        assert!(
            perturbed
                .failures
                .iter()
                .any(|f| f.starts_with("ft.avg_segments")),
            "{:?}",
            perturbed.failures
        );
    }

    #[test]
    fn perturbed_lint_query_count_is_caught() {
        let mut g = Goldens::embedded();
        let clean = run_job(lint::Lint::setup(), &g, 0);
        assert!(clean.failures.is_empty(), "{:?}", clean.failures);
        *g.get_mut("lint", "u226")
            .and_then(|f| f.get_mut("queries"))
            .expect("u226 golden") += 1.0;
        let perturbed = run_job(lint::Lint::setup(), &g, 0);
        assert!(
            perturbed.failures.iter().any(|f| f.starts_with("queries")),
            "{:?}",
            perturbed.failures
        );
    }

    /// The metric lists the binary prints are the ones `BENCHMARK.json`
    /// declares, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = rsn_obs::json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).expect("string").to_string();
                    (s("name"), s("unit"))
                })
                .collect();
            let printed: Vec<(String, String)> = list
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, printed, "{key}");
        }
    }
}
