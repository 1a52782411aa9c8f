//! Regenerates Table I of the paper (and the auxiliary experiment data).
//!
//! ```text
//! table1 [--bench NAME]... [--timing] [--paper]
//!        [--weights ports|cells] [--ablation] [--sweep-alpha] [--latency]
//!        [--double] [--json PATH] [--trace PATH] [--prom PATH]
//!        [--bench-sat PATH] [--budget SECS]
//! ```
//!
//! With `--trace PATH`, event tracing is switched on for the whole run and
//! a Chrome-trace / Perfetto JSON (span begin/end plus instant events,
//! one `tid` timeline row per worker thread) is written to PATH — open it
//! at <https://ui.perfetto.dev> or `chrome://tracing`. Works with or
//! without `--json`; rows run the same extra BMC probe either way so SAT
//! events appear in the trace. ILP events come from `--ablation`.
//!
//! With `--prom PATH`, the final metrics snapshot is additionally written
//! in the Prometheus text exposition format (one row's worth when `--json`
//! resets between rows, the whole run otherwise).
//!
//! With `--budget SECS`, every row runs under a fresh wall-clock budget of
//! SECS seconds shared by its metric sweeps and its BMC spot check
//! (synthesis takes no budget). Budget exhaustion never
//! aborts: metric sweeps keep their evaluated prefix and the row is
//! marked `TIMED OUT`, and the BMC spot check stops early. With
//! `--json`, each row report carries a `timed_out` key.
//!
//! With `--ablation`, the exact ILP checks the greedy augmentation that
//! synthesis uses: per SoC, both costs, the ILP's cut rounds, both solve
//! times and whether the two edge sets are the same. The run exits 1 if
//! any edge set differs.
//!
//! Static verification of the synthesized networks is `rsn-lint --ft`
//! (or `soc2rsn --ft --lint`), not part of this table.
//!
//! Without arguments, the full table is printed over all 13 embedded
//! benchmarks with measured accessibility and overhead values, next to the
//! paper's reference values when `--paper` is given.
//!
//! With `--json PATH`, a machine-readable run report (one JSON object per
//! benchmark row: counters, gauges and the span tree — see the rsn-obs
//! `RunReport` schema) is written to PATH. Small benchmarks additionally
//! run a BMC spot check so SAT solver statistics appear in the report.
//!
//! With `--bench-sat PATH`, only the SAT-engine comparison runs: each
//! selected benchmark's fault-distinguishability miters are solved
//! once serially and once through the portfolio
//! (`RSN_THREADS`, at least 4 workers), and a `bench-sat-v1` JSON
//! document (per-row wall-clock, conflicts, verdict agreement and
//! speedup, plus the portfolio side's seconds in elimination and in the
//! race) is written to PATH. Defaults to `u226` + `p93791` when no
//! `--bench` is given.

use std::collections::HashSet;
use std::env;
use std::time::{Duration, Instant};

use bench::{bmc_spot_check_under, evaluate_budgeted, format_row, Row, BENCHMARKS};
use rsn_budget::Budget;
use rsn_fault::WeightModel;
use rsn_itc02::by_name;
use rsn_obs::{json::Json, RunReport};
use rsn_sib::generate;
use rsn_synth::{augment_greedy, augment_ilp_under, AugmentOptions, Dataflow, SynthesisOptions};

fn run_double(names: &[&str]) {
    println!("\nExtension E1: sampled double-fault accessibility (segments)");
    println!(
        "{:<8} {:>7} {:>11} {:>11} {:>11} {:>11}",
        "SoC", "pairs", "orig worst", "orig avg", "ft worst", "ft avg"
    );
    for name in names {
        let soc = by_name(name).expect("embedded");
        let rsn = generate(&soc).expect("generate");
        let ft = rsn_synth::synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
        // Stride scaled so each network evaluates ~2000 pairs.
        let f_orig = rsn_fault::fault_universe(&rsn).len();
        let f_ft = rsn_fault::fault_universe(&ft.rsn).len();
        let orig = rsn_fault::analyze_double_sampled(
            &rsn,
            rsn_fault::HardeningProfile::unhardened(),
            (f_orig * f_orig / 4000).max(1),
        );
        let hard = rsn_fault::analyze_double_sampled(
            &ft.rsn,
            rsn_fault::HardeningProfile::hardened(),
            (f_ft * f_ft / 4000).max(1),
        );
        println!(
            "{name:<8} {:>7} {:>11.3} {:>11.3} {:>11.3} {:>11.3}",
            hard.pairs,
            orig.worst_segments,
            orig.avg_segments,
            hard.worst_segments,
            hard.avg_segments
        );
    }
}

fn run_bench_sat(names: &[&str], path: &str) {
    // The acceptance bar is "4+ threads": honor RSN_THREADS when it asks
    // for more, never measure the portfolio below four workers.
    let threads = rsn_budget::default_threads().max(4);
    println!("SAT engine: serial vs portfolio ({threads} threads)");
    println!(
        "{:<8} {:<17} {:>9} {:>9} {:>9} {:>9} {:>6} {:>8}",
        "SoC", "family", "ser s", "ser cfl", "par s", "par cfl", "agree", "speedup"
    );
    let mut rows: Vec<Json> = Vec::new();
    for name in names {
        for r in bench::bench_sat(name, threads) {
            println!(
                "{:<8} {:<17} {:>9.3} {:>9} {:>9.3} {:>9} {:>6} {:>7.2}x",
                r.name,
                r.family,
                r.serial_seconds,
                r.serial_conflicts,
                r.parallel_seconds,
                r.parallel_conflicts,
                r.agreement,
                r.speedup
            );
            let mut serial = Json::obj();
            serial.set("seconds", Json::Num(r.serial_seconds));
            serial.set("conflicts", Json::Num(r.serial_conflicts as f64));
            let mut parallel = Json::obj();
            parallel.set("seconds", Json::Num(r.parallel_seconds));
            parallel.set("conflicts", Json::Num(r.parallel_conflicts as f64));
            parallel.set("eliminate_s", Json::Num(r.parallel_eliminate_seconds));
            parallel.set("race_s", Json::Num(r.parallel_race_seconds));
            let mut row = Json::obj();
            row.set("name", Json::Str(r.name.clone()));
            row.set("family", Json::Str(r.family.to_string()));
            row.set("instance", Json::Str(r.instance.clone()));
            row.set("threads", Json::Num(r.threads as f64));
            row.set("serial", serial);
            row.set("parallel", parallel);
            row.set("agreement", Json::Bool(r.agreement));
            row.set("speedup", Json::Num(r.speedup));
            rows.push(row);
        }
    }
    let mut doc = Json::obj();
    doc.set("schema", Json::Str("bench-sat-v1".to_string()));
    doc.set("schema_version", Json::Num(1.0));
    doc.set(
        "host_threads",
        Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
    );
    doc.set("threads", Json::Num(threads as f64));
    doc.set("generated_by", Json::Str("table1 --bench-sat".to_string()));
    doc.set("rows", Json::Arr(rows));
    std::fs::write(path, doc.to_string_pretty(2)).expect("write bench-sat json");
    println!("wrote SAT engine comparison to {path}");
}

fn run_latency(names: &[&str]) {
    println!("\nExperiment T1-latency: access latency (cycles) original vs fault-tolerant RSN");
    println!(
        "{:<8} {:>10} {:>10} {:>8} {:>10} {:>10} {:>8}",
        "SoC", "orig avg", "ft avg", "ratio", "orig max", "ft max", "ratio"
    );
    for name in names {
        let soc = by_name(name).expect("embedded");
        let rsn = generate(&soc).expect("generate");
        let ft = rsn_synth::synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
        let orig = rsn.latency_report();
        let ftr = ft.rsn.latency_report();
        let (oa, fa) = (orig.average(), ftr.average());
        let (om, fm) = (
            orig.max().unwrap_or(0) as f64,
            ftr.max().unwrap_or(0) as f64,
        );
        println!(
            "{name:<8} {oa:>10.1} {fa:>10.1} {:>8.3} {om:>10.0} {fm:>10.0} {:>8.3}",
            fa / oa,
            fm / om
        );
    }
}

fn header() {
    println!(
        "{:<8} {:>3} {:>2} {:>4} {:>5} {:>6} | {:>5} {:>5} {:>5} {:>5} | {:>5} {:>6} {:>6} {:>6} | {:>5} {:>5} {:>5} {:>5}",
        "SoC", "mod", "lv", "mux", "seg", "bits",
        "bW", "bA", "sW", "sA",
        "bW", "bA", "sW", "sA",
        "mux", "bits", "nets", "area",
    );
    println!(
        "{:<8} {:>3} {:>2} {:>4} {:>5} {:>6} | {:^23} | {:^27} | {:^23}",
        "", "", "", "", "", "", "SIB-RSN access.", "FT-RSN accessibility", "overhead ratios",
    );
    println!("{}", "-".repeat(120));
}

fn paper_row(row: &Row) -> String {
    let p = row.paper;
    format!(
        "{:<8} {:>3} {:>2} {:>4} {:>5} {:>6} | {:>5.2} {:>5.2} {:>5.2} {:>5.2} | {:>5.2} {:>6.3} {:>6.3} {:>6.3} | {:>5.2} {:>5.2} {:>5.2} {:>5.2}   (paper)",
        "", p.modules, p.levels, p.mux, p.segments, p.bits,
        0.0, p.sib_bits_avg, 0.0, p.sib_seg_avg,
        p.ft_bits_worst, p.ft_bits_avg, p.ft_seg_worst, p.ft_seg_avg,
        p.ratio_mux, p.ratio_bits, p.ratio_nets, p.ratio_area,
    )
}

/// Runs the exact ILP as the greedy augmentation's oracle; returns
/// whether both picked the same edge set on every SoC.
fn run_ablation(names: &[&str]) -> bool {
    println!("\nAblation A1: exact ILP vs greedy augmentation (the ILP is the greedy's oracle)");
    println!(
        "{:<8} {:>8} {:>6} {:>10} {:>10} {:>5} {:>9} {:>9} {:>10}",
        "SoC", "vertices", "edges", "ilp cost", "greedy", "cuts", "ilp s", "greedy s", "same edges"
    );
    let mut all_same = true;
    for name in names {
        let soc = by_name(name).expect("embedded");
        let rsn = generate(&soc).expect("generate");
        let df = Dataflow::extract(&rsn);
        let opts = AugmentOptions::default();
        let t0 = Instant::now();
        let greedy = augment_greedy(&df, &opts);
        let greedy_s = t0.elapsed().as_secs_f64();
        let t0 = Instant::now();
        let ilp = augment_ilp_under(&df, &opts, &Budget::unlimited()).expect("ilp solves");
        let ilp_s = t0.elapsed().as_secs_f64();
        let sorted = |added: &[(usize, usize)]| {
            let mut edges = added.to_vec();
            edges.sort_unstable();
            edges
        };
        let same = sorted(&greedy.added) == sorted(&ilp.added);
        all_same &= same;
        println!(
            "{name:<8} {:>8} {:>6} {:>10.2} {:>10.2} {:>5} {ilp_s:>9.3} {greedy_s:>9.4} {:>10}",
            df.len(),
            greedy.added.len(),
            ilp.cost,
            greedy.cost,
            ilp.cut_rounds,
            if same { "yes" } else { "NO" }
        );
    }
    all_same
}

fn run_alpha_sweep(names: &[&str]) {
    println!("\nAblation A2: long-line penalty sweep (alpha) — added edges / cost / area ratio");
    println!(
        "{:<8} {:>6} {:>8} {:>10} {:>8}",
        "SoC", "alpha", "edges", "cost", "area"
    );
    for name in names {
        for alpha in [0.0, 0.05, 0.1, 0.5, 1.0] {
            let mut opts = SynthesisOptions::new();
            opts.augment.alpha = alpha;
            let row = evaluate_budgeted(name, &opts, WeightModel::Ports, &Budget::unlimited());
            println!(
                "{name:<8} {alpha:>6.2} {:>8} {:>10.2} {:>8.3}",
                row.synthesis.report.added_edges,
                row.synthesis.augmentation.cost,
                row.overhead.area_ratio
            );
        }
    }
}

/// Folds freshly drained trace threads into the run-wide accumulator,
/// merging by `tid` so each worker keeps one timeline row even when the
/// buffers are drained once per benchmark row.
fn merge_trace(acc: &mut Vec<rsn_obs::TraceThread>, drained: Vec<rsn_obs::TraceThread>) {
    for t in drained {
        match acc.iter_mut().find(|a| a.tid == t.tid) {
            Some(a) => {
                a.events.extend(t.events);
                a.dropped += t.dropped;
            }
            None => acc.push(t),
        }
    }
    acc.sort_by_key(|t| t.tid);
}

/// Writes the accumulated events as Chrome-trace / Perfetto JSON.
fn write_trace(path: &str, threads: &[rsn_obs::TraceThread]) {
    let events: usize = threads.iter().map(|t| t.events.len()).sum();
    let dropped: u64 = threads.iter().map(|t| t.dropped).sum();
    std::fs::write(path, rsn_obs::chrome_trace(threads).to_string_pretty(2))
        .expect("write trace json");
    println!(
        "wrote {events} trace event(s) across {} thread(s) to {path} ({dropped} dropped)",
        threads.len()
    );
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    let mut names: Vec<&str> = Vec::new();
    let mut show_paper = false;
    let mut timing = false;
    let mut ablation = false;
    let mut sweep_alpha = false;
    let mut latency = false;
    let mut double = false;
    let mut weights = WeightModel::Ports;
    let mut json_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut prom_path: Option<String> = None;
    let mut bench_sat_path: Option<String> = None;
    let mut budget_secs: Option<f64> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--bench" => {
                i += 1;
                let wanted = args.get(i).expect("--bench needs a name").clone();
                let known: HashSet<&str> = BENCHMARKS.iter().copied().collect();
                let name = BENCHMARKS
                    .iter()
                    .find(|&&b| b == wanted)
                    .unwrap_or_else(|| panic!("unknown benchmark {wanted}; known: {known:?}"));
                names.push(name);
            }
            "--paper" => show_paper = true,
            "--timing" => timing = true,
            "--ablation" => ablation = true,
            "--sweep-alpha" => sweep_alpha = true,
            "--latency" => latency = true,
            "--double" => double = true,
            "--weights" => {
                i += 1;
                weights = match args.get(i).map(String::as_str) {
                    Some("ports") => WeightModel::Ports,
                    Some("cells") => WeightModel::Cells,
                    other => panic!("--weights ports|cells, got {other:?}"),
                };
            }
            "--json" => {
                i += 1;
                json_path = Some(args.get(i).expect("--json needs a path").clone());
            }
            "--trace" => {
                i += 1;
                trace_path = Some(args.get(i).expect("--trace needs a path").clone());
            }
            "--prom" => {
                i += 1;
                prom_path = Some(args.get(i).expect("--prom needs a path").clone());
            }
            "--bench-sat" => {
                i += 1;
                bench_sat_path = Some(args.get(i).expect("--bench-sat needs a path").clone());
            }
            "--budget" => {
                i += 1;
                let secs: f64 = args
                    .get(i)
                    .expect("--budget needs seconds")
                    .parse()
                    .expect("--budget needs a number of seconds");
                assert!(secs >= 0.0, "--budget must be non-negative");
                budget_secs = Some(secs);
            }
            other => panic!("unknown flag {other}"),
        }
        i += 1;
    }
    if trace_path.is_some() {
        rsn_obs::set_trace_enabled(true);
    }
    if let Some(path) = bench_sat_path {
        let sel = if names.is_empty() {
            vec!["u226", "p93791"]
        } else {
            names.clone()
        };
        run_bench_sat(&sel, &path);
        if let Some(tpath) = &trace_path {
            write_trace(tpath, &rsn_obs::trace_drain());
        }
        return;
    }
    if names.is_empty() {
        names = BENCHMARKS.to_vec();
    }

    if ablation {
        let same = run_ablation(&names);
        if let Some(tpath) = &trace_path {
            write_trace(tpath, &rsn_obs::trace_drain());
        }
        if !same {
            eprintln!("error: the greedy augmentation differs from the exact ILP");
            std::process::exit(1);
        }
        return;
    }
    if latency {
        run_latency(&names);
        return;
    }
    if double {
        run_double(&names);
        return;
    }
    if sweep_alpha {
        let small = if names.len() == BENCHMARKS.len() {
            vec!["u226", "d281", "x1331"]
        } else {
            names.clone()
        };
        run_alpha_sweep(&small);
        return;
    }

    header();
    let t0 = Instant::now();
    let mut reports: Vec<Json> = Vec::new();
    let mut trace_threads: Vec<rsn_obs::TraceThread> = Vec::new();
    // Rows run the extra BMC probe whenever its telemetry has somewhere
    // to land — the JSON report, the event trace, or both.
    let obs_probes = json_path.is_some() || trace_path.is_some();
    for name in &names {
        if trace_path.is_some() {
            // Drain per row (before any reset) so ring buffers cannot
            // overflow across a long multi-row run.
            merge_trace(&mut trace_threads, rsn_obs::trace_drain());
        }
        if json_path.is_some() {
            // One report per row: clear global counters/spans between rows.
            rsn_obs::reset();
        }
        // A fresh budget per row: one slow benchmark cannot starve the
        // rows after it.
        let row_budget = budget_secs.map_or_else(Budget::unlimited, |secs| {
            Budget::unlimited().with_deadline(Duration::from_secs_f64(secs))
        });
        let row = evaluate_budgeted(name, &SynthesisOptions::new(), weights, &row_budget);
        println!("{}", format_row(&row));
        if row.timed_out {
            println!(
                "         TIMED OUT: metric sweeps partial ({} + {} faults skipped)",
                row.sib.skipped, row.ft.skipped
            );
        }
        if show_paper {
            println!("{}", paper_row(&row));
        }
        if timing {
            println!(
                "         synthesis {:.2?}, metric {:.2?}, faults orig {} / ft {}",
                row.synthesis_time, row.metric_time, row.sib.fault_count, row.ft.fault_count
            );
        }
        if obs_probes {
            // Size-gated BMC validation of the original network: the only
            // stage of the default pipeline that exercises the SAT solver.
            let soc = by_name(name).expect("embedded");
            let rsn = generate(&soc).expect("generate");
            let steps = row.levels + 2;
            let (checked, mismatches) = bmc_spot_check_under(&rsn, steps, 150, 8, &row_budget);
            if mismatches > 0 {
                eprintln!("warning: {name}: {mismatches}/{checked} BMC spot checks disagree");
            }
        }
        if json_path.is_some() {
            let mut report = RunReport::capture(name).to_json_value();
            if budget_secs.is_some() {
                report.set("timed_out", Json::Bool(row.timed_out));
            }
            reports.push(report);
        }
    }
    if timing {
        println!("\ntotal wall clock: {:.2?}", t0.elapsed());
    }
    if let Some(path) = &json_path {
        let doc = Json::Arr(reports);
        std::fs::write(path, doc.to_string_pretty(2)).expect("write json report");
        println!("wrote run report to {path}");
    }
    if let Some(path) = &prom_path {
        // Written from the live registry: the final row's metrics under
        // `--json` (which resets between rows), the whole run otherwise.
        std::fs::write(
            path,
            rsn_obs::render_prometheus(&rsn_obs::metrics_snapshot()),
        )
        .expect("write prometheus text");
        println!("wrote metrics exposition to {path}");
    }
    if let Some(path) = &trace_path {
        merge_trace(&mut trace_threads, rsn_obs::trace_drain());
        write_trace(path, &trace_threads);
    }
}
