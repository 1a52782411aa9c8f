//! The fault-tolerance metric: worst-case and average accessibility over
//! all single stuck-at faults (paper Sec. III-A, Table I).

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use rsn_budget::Budget;
use rsn_core::Rsn;

use crate::collapse::{ClassKind, FaultClasses};
use crate::effect::FaultEffect;
use crate::engine::{AccessEngine, LANES};
use crate::fault::{fault_universe_weighted, Fault, WeightModel};
use crate::sweep::run_stealing;

/// Which hardening measures of the fault-tolerant synthesis apply when
/// interpreting fault effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HardeningProfile {
    /// Select signals synthesized with two independent assertion paths
    /// (Sec. III-E-2): single select-stem faults are masked.
    pub select_hardened: bool,
}

impl HardeningProfile {
    /// Profile of an original (unhardened) RSN.
    pub fn unhardened() -> Self {
        HardeningProfile {
            select_hardened: false,
        }
    }

    /// Profile of a synthesized fault-tolerant RSN.
    pub fn hardened() -> Self {
        HardeningProfile {
            select_hardened: true,
        }
    }
}

/// Aggregated fault-tolerance metric of an RSN: the Table I accessibility
/// columns.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultToleranceReport {
    /// Number of faults in the analyzed universe (both polarities).
    pub fault_count: usize,
    /// Number of equivalence classes actually evaluated (one
    /// representative each; equals `fault_count` with collapsing off).
    pub classes: usize,
    /// `fault_count / classes` — never below 1.0.
    pub collapse_ratio: f64,
    /// Sum of fault weights (port-level site count).
    pub total_weight: u64,
    /// Worst-case fraction of accessible segments over all faults.
    pub worst_segments: f64,
    /// Weighted average fraction of accessible segments.
    pub avg_segments: f64,
    /// Worst-case fraction of accessible scan bits.
    pub worst_bits: f64,
    /// Weighted average fraction of accessible scan bits.
    pub avg_bits: f64,
    /// A fault achieving the worst segment accessibility.
    pub worst_fault: Option<Fault>,
    /// Faults whose evaluation panicked and was isolated; their weight is
    /// excluded from every aggregate.
    pub quarantined: usize,
    /// Faults left unevaluated because the [`Budget`] ran out; their
    /// weight is excluded from every aggregate.
    pub skipped: usize,
}

impl FaultToleranceReport {
    /// `true` if every fault in the universe was actually evaluated
    /// (nothing quarantined, nothing budget-skipped).
    pub fn is_complete(&self) -> bool {
        self.quarantined == 0 && self.skipped == 0
    }
}

impl fmt::Display for FaultToleranceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "segments worst {:.3} avg {:.3} | bits worst {:.3} avg {:.3} ({} faults)",
            self.worst_segments,
            self.avg_segments,
            self.worst_bits,
            self.avg_bits,
            self.fault_count
        )?;
        if !self.is_complete() {
            write!(
                f,
                " [incomplete: {} quarantined, {} skipped]",
                self.quarantined, self.skipped
            )?;
        }
        Ok(())
    }
}

/// Computes the fault-tolerance metric of a network: for every single
/// stuck-at fault in the collapsed, port-weighted universe, the fraction
/// of scan segments and scan bits that remain accessible; aggregated as
/// worst case and weighted average. Runs without a budget on up to
/// [`rsn_budget::default_threads`] workers (the `RSN_THREADS` env knob);
/// reports are bit-identical at any thread count.
///
/// # Example
///
/// ```
/// use rsn_core::examples::chain;
/// use rsn_fault::{analyze, HardeningProfile};
///
/// // A flat chain has no redundancy: any data fault kills everything
/// // downstream and upstream (single path), so the worst case is 0.
/// let report = analyze(&chain(4, 8), HardeningProfile::unhardened());
/// assert_eq!(report.worst_segments, 0.0);
/// ```
pub fn analyze(rsn: &Rsn, profile: HardeningProfile) -> FaultToleranceReport {
    analyze_parallel_budgeted(rsn, profile, WeightModel::Ports, &Budget::unlimited())
}

/// [`analyze`] with an explicit fault-class [`WeightModel`], bounded by a
/// [`Budget`] (see [`analyze_classes_on_budget`] for the degradation
/// semantics). Builds the fault universe, the engine and the class
/// partition, then sweeps on up to [`rsn_budget::default_threads`]
/// workers.
pub fn analyze_parallel_budgeted(
    rsn: &Rsn,
    profile: HardeningProfile,
    model: WeightModel,
    budget: &Budget,
) -> FaultToleranceReport {
    let _span = rsn_obs::Span::enter("analyze");
    let faults = fault_universe_weighted(rsn, model);
    let threads = rsn_budget::default_threads().min(16);
    let engine = AccessEngine::new(rsn);
    let classes = FaultClasses::build(rsn, &faults, profile);
    analyze_classes_on_budget(&engine, &faults, &classes, threads, budget)
}

/// Per-class sweep outcome, expanded over members during aggregation.
#[derive(Debug, Clone, Copy)]
enum Outcome {
    Evaluated(f64, f64),
    Quarantined,
    Skipped,
}

/// Evaluates a prebuilt class partition of `faults` on a prebuilt engine
/// with `threads` workers sharing it (one [`Scratch`](crate::Scratch)
/// each), bounded by a [`Budget`] shared across all workers (their
/// combined work counts against one limit; one work unit per fault,
/// charged per class before its representative runs). Callers that
/// already hold an [`AccessEngine`] — hardening selection, the service —
/// skip the per-call precomputation entirely; an uncollapsed sweep passes
/// [`FaultClasses::uncollapsed`].
///
/// One representative per class is evaluated by a work-stealing
/// scheduler: workers claim chunks of [`LANES`] classes from a shared
/// cursor (the crate-private `sweep` module) and evaluate each chunk's
/// effects in one bit-parallel [`AccessEngine::accessibility_batch`]
/// pass. Results are then expanded back over class members *serially in
/// original fault order*, which makes every aggregate — including the
/// f64 summation order and the `worst_fault` witness — bit-identical to
/// an uncollapsed single-threaded sweep, independent of thread count.
///
/// Degradation is fail-soft on two axes:
///
/// * **Budget exhaustion** — classes whose charge is refused are skipped
///   whole (no half-evaluated class); every member counts into
///   [`FaultToleranceReport::skipped`] (also counted into
///   `budget.exhausted`). Aggregates cover the evaluated classes only.
/// * **Panic isolation** — a chunk whose batch evaluation panics is
///   caught via `catch_unwind` and re-run lane by lane from a fresh
///   [`crate::Scratch`]; only a class whose own evaluation panics is
///   quarantined, with all its members
///   ([`FaultToleranceReport::quarantined`], counter
///   `fault.quarantined`), instead of poisoning the whole run.
pub fn analyze_classes_on_budget(
    engine: &AccessEngine,
    faults: &[Fault],
    classes: &FaultClasses,
    threads: usize,
    budget: &Budget,
) -> FaultToleranceReport {
    assert_eq!(
        classes.fault_count(),
        faults.len(),
        "class partition must cover the fault slice"
    );
    // Chaos failpoint: injected errors / budget exhaustion cancel the
    // budget up front, so every class reports as skipped and the report
    // comes back incomplete — degraded, never silently wrong.
    if rsn_fail::eval("fault.sweep").is_some() {
        budget.cancel();
    }
    rsn_obs::counter_add("fault.faults_simulated", faults.len() as u64);
    rsn_obs::counter_add("fault.classes_evaluated", classes.len() as u64);
    rsn_obs::gauge_set("fault.collapse_ratio", classes.collapse_ratio());
    let start = Instant::now();

    let outcomes: Vec<Outcome> = run_stealing(
        classes.len(),
        threads,
        LANES,
        || engine.scratch(),
        |scratch, chunk, out| {
            // Charge and triage every class of the chunk first; the
            // effect classes then share one bit-parallel pass.
            let mut lanes: Vec<(usize, &FaultEffect)> = Vec::with_capacity(LANES);
            for ci in chunk {
                let class = &classes.classes()[ci];
                // One budget unit per member: a skipped class accounts for
                // exactly the faults it represents, never a partial class.
                if budget.spend(class.members.len() as u64).is_err() {
                    out.push(Outcome::Skipped);
                    continue;
                }
                match &class.kind {
                    ClassKind::Benign => out.push(Outcome::Evaluated(1.0, 1.0)),
                    ClassKind::Poison => {
                        rsn_obs::trace_instant("quarantine");
                        out.push(Outcome::Quarantined);
                    }
                    ClassKind::Effect(effect) => {
                        lanes.push((out.len(), effect));
                        // Placeholder, overwritten once the batch is in.
                        out.push(Outcome::Quarantined);
                    }
                }
            }
            if lanes.is_empty() {
                return;
            }
            let effects: Vec<&FaultEffect> = lanes.iter().map(|&(_, e)| e).collect();
            let eval_start = Instant::now();
            let batch = catch_unwind(AssertUnwindSafe(|| {
                let accs = engine.accessibility_batch(&effects, scratch);
                accs.iter()
                    .map(|acc| Outcome::Evaluated(acc.segment_fraction(), acc.bit_fraction()))
                    .collect::<Vec<_>>()
            }));
            rsn_obs::hist_record(
                "fault.class_eval_ns",
                eval_start.elapsed().as_nanos() as u64,
            );
            match batch {
                Ok(evaluated) => {
                    for (&(at, _), outcome) in lanes.iter().zip(evaluated) {
                        out[at] = outcome;
                    }
                }
                Err(_) => {
                    // Some class panicked mid-pass: re-run the chunk lane
                    // by lane from a clean scratch so only the offending
                    // class is quarantined.
                    *scratch = engine.scratch();
                    for &(at, effect) in &lanes {
                        let one = catch_unwind(AssertUnwindSafe(|| {
                            engine.accessibility(effect, scratch)
                        }));
                        out[at] = match one {
                            Ok(acc) => {
                                Outcome::Evaluated(acc.segment_fraction(), acc.bit_fraction())
                            }
                            Err(_) => {
                                *scratch = engine.scratch();
                                rsn_obs::trace_instant("quarantine");
                                Outcome::Quarantined
                            }
                        };
                    }
                }
            }
        },
    );

    // Serial expansion in original fault order: f64 sums and the worst
    // witness are deterministic and thread-count independent.
    let mut p = Partial::default();
    for (i, fault) in faults.iter().enumerate() {
        match outcomes[classes.class_of(i)] {
            Outcome::Skipped => p.skipped += 1,
            Outcome::Quarantined => p.quarantined += 1,
            Outcome::Evaluated(seg_frac, bit_frac) => {
                let w = fault.weight as f64;
                p.sum_segments += seg_frac * w;
                p.sum_bits += bit_frac * w;
                p.total_weight += fault.weight as u64;
                if seg_frac < p.worst_segments {
                    p.worst_segments = seg_frac;
                    p.worst_fault = Some(*fault);
                }
                p.worst_bits = p.worst_bits.min(bit_frac);
            }
        }
    }

    if p.quarantined > 0 {
        rsn_obs::counter_add("fault.quarantined", p.quarantined as u64);
    }
    // Attribution mirrors the worker-side accounting: one budget unit
    // per fault actually charged (skipped classes never spent theirs).
    rsn_obs::counter_add(
        "budget.spent{engine=fault}",
        (faults.len() - p.skipped) as u64,
    );
    if p.skipped > 0 {
        rsn_obs::counter_add("fault.skipped", p.skipped as u64);
        rsn_obs::counter_add("budget.exhausted", 1);
        let reason = budget.exhausted().map_or("work_limit", |r| r.as_str());
        rsn_obs::record_budget_trip("fault", reason);
    }

    let secs = start.elapsed().as_secs_f64();
    if secs > 0.0 {
        rsn_obs::gauge_set("fault.faults_per_sec", faults.len() as f64 / secs);
    }

    let denom = p.total_weight.max(1) as f64;
    FaultToleranceReport {
        fault_count: faults.len(),
        classes: classes.len(),
        collapse_ratio: classes.collapse_ratio(),
        total_weight: p.total_weight,
        worst_segments: p.worst_segments,
        avg_segments: p.sum_segments / denom,
        worst_bits: p.worst_bits,
        avg_bits: p.sum_bits / denom,
        worst_fault: p.worst_fault,
        quarantined: p.quarantined,
        skipped: p.skipped,
    }
}

#[derive(Debug, Clone, Copy)]
struct Partial {
    sum_segments: f64,
    sum_bits: f64,
    total_weight: u64,
    worst_segments: f64,
    worst_bits: f64,
    worst_fault: Option<Fault>,
    quarantined: usize,
    skipped: usize,
}

impl Default for Partial {
    fn default() -> Self {
        Partial {
            sum_segments: 0.0,
            sum_bits: 0.0,
            total_weight: 0,
            worst_segments: 1.0,
            worst_bits: 1.0,
            worst_fault: None,
            quarantined: 0,
            skipped: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_core::examples::{chain, fig2};
    use rsn_itc02::by_name;
    use rsn_sib::generate;

    #[test]
    fn chain_worst_case_is_zero() {
        let report = analyze(&chain(3, 4), HardeningProfile::unhardened());
        assert_eq!(report.worst_segments, 0.0);
        assert_eq!(report.worst_bits, 0.0);
        assert!(report.worst_fault.is_some());
        assert!(report.avg_segments < 1.0);
        assert!(report.avg_segments > 0.0, "select-sa1 faults are benign");
    }

    #[test]
    fn fig2_average_reflects_partial_redundancy() {
        let report = analyze(&fig2(), HardeningProfile::unhardened());
        // B and C are each avoidable; A and D are single points of failure.
        assert_eq!(report.worst_segments, 0.0);
        assert!(report.avg_segments > 0.3, "{report}");
        assert!(report.avg_segments < 1.0, "{report}");
    }

    #[test]
    fn report_display_mentions_fault_count() {
        let report = analyze(&chain(2, 2), HardeningProfile::unhardened());
        let s = report.to_string();
        assert!(s.contains("faults"), "{s}");
    }

    #[test]
    fn sib_rsn_matches_paper_shape() {
        // Small embedded benchmark: worst case must be a total
        // disconnection (0.00, as in Table I), average in a plausible band.
        let soc = by_name("q12710").expect("embedded");
        let rsn = generate(&soc).expect("generate");
        let report = analyze(&rsn, HardeningProfile::unhardened());
        assert_eq!(report.worst_segments, 0.0, "{report}");
        assert_eq!(report.worst_bits, 0.0);
        assert!(
            report.avg_segments > 0.5 && report.avg_segments < 0.98,
            "{report}"
        );
    }

    #[test]
    fn hardened_profile_improves_average() {
        let soc = by_name("q12710").expect("embedded");
        let rsn = generate(&soc).expect("generate");
        let plain = analyze(&rsn, HardeningProfile::unhardened());
        let hard = analyze(&rsn, HardeningProfile::hardened());
        assert!(hard.avg_segments >= plain.avg_segments);
    }

    /// Runs `f` with the default panic hook silenced, so intentional
    /// panics don't spam test output. Serialized: the hook is global.
    fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
        static HOOK_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = HOOK_LOCK.lock().unwrap();
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let out = f();
        std::panic::set_hook(prev);
        out
    }

    /// The collapsed sweep of `faults` on a prebuilt engine.
    fn sweep(
        engine: &AccessEngine,
        faults: &[Fault],
        profile: HardeningProfile,
        threads: usize,
        budget: &Budget,
    ) -> FaultToleranceReport {
        let classes = FaultClasses::build(engine.rsn(), faults, profile);
        analyze_classes_on_budget(engine, faults, &classes, threads, budget)
    }

    #[test]
    fn zero_budget_skips_all_faults() {
        let rsn = fig2();
        let faults = crate::fault::fault_universe(&rsn);
        let engine = AccessEngine::new(&rsn);
        let budget = Budget::unlimited().with_work_limit(0);
        let report = sweep(&engine, &faults, HardeningProfile::unhardened(), 1, &budget);
        assert_eq!(report.skipped, faults.len());
        assert_eq!(report.total_weight, 0, "nothing evaluated");
        assert!(!report.is_complete());
        assert!(report.to_string().contains("incomplete"), "{report}");
    }

    #[test]
    fn partial_budget_keeps_evaluated_prefix() {
        let rsn = fig2();
        let faults = crate::fault::fault_universe(&rsn);
        assert!(faults.len() > 4);
        let engine = AccessEngine::new(&rsn);
        let budget = Budget::unlimited().with_work_limit(4);
        // Uncollapsed: one unit per fault, so exactly the first 4 faults
        // are admitted and the rest skipped.
        let profile = HardeningProfile::unhardened();
        let classes = FaultClasses::uncollapsed(&rsn, &faults, profile);
        let report = analyze_classes_on_budget(&engine, &faults, &classes, 1, &budget);
        // 4 admitted checks → 4 evaluated, rest skipped; the evaluated
        // prefix aggregates match a run over just that prefix.
        assert_eq!(report.skipped, faults.len() - 4);
        let prefix = sweep(&engine, &faults[..4], profile, 1, &Budget::unlimited());
        assert_eq!(report.total_weight, prefix.total_weight);
        assert_eq!(report.worst_segments, prefix.worst_segments);
        assert_eq!(report.avg_bits, prefix.avg_bits);
    }

    #[test]
    fn one_unit_budget_mid_sweep_counts_skips_per_class() {
        // With collapsing on, budget is charged per class (all members at
        // once). Simulate the charge sequence in class-index order — the
        // single-threaded scheduler claims classes in exactly that order —
        // and check the report's skip count matches to the fault.
        let rsn = fig2();
        let faults = crate::fault::fault_universe(&rsn);
        let engine = AccessEngine::new(&rsn);
        let classes = FaultClasses::build(&rsn, &faults, HardeningProfile::unhardened());
        assert!(classes.len() > 1);
        let mut left: i64 = 1;
        let mut expect_skipped = 0usize;
        let mut expect_weight = 0u64;
        for class in classes.classes() {
            let cost = class.members.len() as i64;
            if left >= cost {
                left -= cost;
                for &m in &class.members {
                    expect_weight += faults[m as usize].weight as u64;
                }
            } else {
                left = 0; // a refused charge latches the budget
                expect_skipped += class.members.len();
            }
        }
        let budget = Budget::unlimited().with_work_limit(1);
        let report = sweep(&engine, &faults, HardeningProfile::unhardened(), 1, &budget);
        assert_eq!(report.skipped, expect_skipped);
        assert!(report.skipped > 0, "1 unit cannot cover fig2");
        assert_eq!(report.quarantined, 0);
        assert_eq!(report.total_weight, expect_weight);
    }

    #[test]
    fn thread_count_does_not_change_any_report_bit() {
        let soc = by_name("q12710").expect("embedded");
        let rsn = generate(&soc).expect("generate");
        let faults = crate::fault::fault_universe(&rsn);
        let engine = AccessEngine::new(&rsn);
        let profile = HardeningProfile::unhardened();
        let serial = sweep(&engine, &faults, profile, 1, &Budget::unlimited());
        let parallel = sweep(&engine, &faults, profile, 4, &Budget::unlimited());
        // PartialEq compares every f64 exactly: serial re-aggregation in
        // fault order makes the sweep bit-identical at any thread count.
        assert_eq!(serial, parallel);
    }

    #[test]
    fn collapse_matches_uncollapsed_exactly() {
        let soc = by_name("q12710").expect("embedded");
        let rsn = generate(&soc).expect("generate");
        let faults = crate::fault::fault_universe(&rsn);
        let engine = AccessEngine::new(&rsn);
        for profile in [HardeningProfile::unhardened(), HardeningProfile::hardened()] {
            let collapsed = sweep(&engine, &faults, profile, 1, &Budget::unlimited());
            let singletons = FaultClasses::uncollapsed(&rsn, &faults, profile);
            let reference =
                analyze_classes_on_budget(&engine, &faults, &singletons, 1, &Budget::unlimited());
            assert!(collapsed.collapse_ratio > 1.0, "{collapsed:?}");
            assert!(collapsed.classes < faults.len());
            // Everything except the class bookkeeping must be bitwise
            // identical.
            assert_eq!(collapsed.worst_segments, reference.worst_segments);
            assert_eq!(collapsed.avg_segments, reference.avg_segments);
            assert_eq!(collapsed.worst_bits, reference.worst_bits);
            assert_eq!(collapsed.avg_bits, reference.avg_bits);
            assert_eq!(collapsed.total_weight, reference.total_weight);
            assert_eq!(collapsed.worst_fault, reference.worst_fault);
        }
    }

    #[test]
    fn panicking_fault_is_quarantined_not_fatal() {
        use rsn_core::NodeId;
        let rsn = fig2();
        let mut faults = crate::fault::fault_universe(&rsn);
        let clean = analyze(&rsn, HardeningProfile::unhardened());
        // A fault pointing at a nonexistent node makes effect_of index out
        // of bounds — exactly the class of bug quarantine must contain.
        let poison = Fault {
            site: crate::fault::FaultSite::SegmentData(NodeId(9999)),
            value: false,
            weight: 1,
        };
        faults.insert(faults.len() / 2, poison);
        let engine = AccessEngine::new(&rsn);
        let report = with_quiet_panics(|| {
            sweep(
                &engine,
                &faults,
                HardeningProfile::unhardened(),
                1,
                &Budget::unlimited(),
            )
        });
        assert_eq!(report.quarantined, 1);
        assert_eq!(report.skipped, 0);
        // Every healthy fault was still evaluated; aggregates match the
        // clean run exactly (the poison fault contributes no weight).
        assert_eq!(report.total_weight, clean.total_weight);
        assert_eq!(report.worst_segments, clean.worst_segments);
        assert_eq!(report.avg_segments, clean.avg_segments);
    }

    #[test]
    fn panic_inside_a_chunk_quarantines_only_its_class() {
        use rsn_core::NodeId;
        let rsn = fig2();
        let faults = crate::fault::fault_universe(&rsn);
        let engine = AccessEngine::new(&rsn);
        let profile = HardeningProfile::unhardened();
        let mut classes = FaultClasses::build(&rsn, &faults, profile);
        assert!(classes.len() <= LANES, "fig2's classes share one chunk");
        let effect_classes: Vec<usize> = (0..classes.len())
            .filter(|&c| matches!(classes.classes()[c].kind, ClassKind::Effect(_)))
            .collect();
        assert!(effect_classes.len() > 2);
        let victim = effect_classes[effect_classes.len() / 2];
        // A corrupt node beyond the arena panics inside the batch pass,
        // after effect computation succeeded.
        let mut poisoned = classes.classes()[victim].kind.clone();
        if let ClassKind::Effect(effect) = &mut poisoned {
            effect.corrupt_nodes.push(NodeId(9999));
        }
        classes.set_kind(victim, poisoned);
        let report = with_quiet_panics(|| {
            analyze_classes_on_budget(&engine, &faults, &classes, 1, &Budget::unlimited())
        });
        assert_eq!(report.quarantined, classes.classes()[victim].members.len());
        assert_eq!(report.skipped, 0);
        // Every other class of the chunk was still evaluated: the report
        // equals one where the victim is quarantined without evaluation.
        classes.set_kind(victim, ClassKind::Poison);
        let expected =
            analyze_classes_on_budget(&engine, &faults, &classes, 1, &Budget::unlimited());
        assert_eq!(report, expected);
        let clean = analyze(&rsn, profile);
        assert!(report.total_weight < clean.total_weight);
    }

    #[test]
    fn quarantine_works_across_parallel_workers() {
        use rsn_core::NodeId;
        let rsn = fig2();
        let mut faults = crate::fault::fault_universe(&rsn);
        for pos in [0, faults.len() / 2, faults.len()] {
            faults.insert(
                pos,
                Fault {
                    site: crate::fault::FaultSite::SegmentData(NodeId(9999)),
                    value: true,
                    weight: 1,
                },
            );
        }
        let engine = AccessEngine::new(&rsn);
        let report = with_quiet_panics(|| {
            sweep(
                &engine,
                &faults,
                HardeningProfile::unhardened(),
                4,
                &Budget::unlimited(),
            )
        });
        assert_eq!(report.quarantined, 3);
        let clean = analyze(&rsn, HardeningProfile::unhardened());
        assert_eq!(report.total_weight, clean.total_weight);
    }

    #[test]
    fn unlimited_budget_report_is_identical_to_unbudgeted() {
        let rsn = fig2();
        let faults = crate::fault::fault_universe(&rsn);
        let engine = AccessEngine::new(&rsn);
        // The network-level convenience builds its own universe, engine
        // and classes; the engine-level sweep reuses prebuilt ones.
        let plain = analyze(&rsn, HardeningProfile::unhardened());
        let budgeted = sweep(
            &engine,
            &faults,
            HardeningProfile::unhardened(),
            2,
            &Budget::unlimited(),
        );
        assert_eq!(plain, budgeted);
        assert!(plain.is_complete());
    }

    #[test]
    fn weights_sum_matches_universe() {
        let rsn = fig2();
        let report = analyze(&rsn, HardeningProfile::unhardened());
        let expected: u64 = crate::fault::fault_universe(&rsn)
            .iter()
            .map(|f| f.weight as u64)
            .sum();
        assert_eq!(report.total_weight, expected);
    }
}
