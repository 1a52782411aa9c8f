//! Portfolio CDCL with shared learnt clauses and cube-and-conquer.
//!
//! Every solve on a solver configured with [`Solver::set_threads`] > 1
//! races `N` diversified CDCL workers, each a clone of the caller's
//! solver:
//!
//! * **Diversification** — each worker gets a different restart schedule
//!   (Luby bases / geometric), VSIDS decay and phase-polarity seed, so
//!   the workers walk different parts of the search space (the
//!   SatSwarm-style grid of heterogeneous solver nodes, collapsed into
//!   one process).
//! * **Clause sharing** — every learnt clause with LBD ≤ 6 and at most
//!   12 literals is published to a lock-light ring ([`ClausePool`]);
//!   workers import foreign clauses at restart boundaries, at decision
//!   level 0. Learnt clauses are implied by the formula alone, so
//!   sharing is sound across workers regardless of their (cube)
//!   assumptions.
//! * **First winner cancels the rest** — via a portfolio-local stop
//!   flag checked at conflict and decision boundaries. The caller's
//!   [`Budget`] (deadline / work / `CancelToken`) is shared by all
//!   workers, so external cancellation still tears the whole solve down.
//! * **Cube-and-conquer escalation** — an instance on which every
//!   worker exhausts its conflict quota is split on the top-k VSIDS
//!   variables into `2^k` assumption cubes, drained through an
//!   atomic-cursor claiming loop (the `sweep.rs` batch-claiming pattern,
//!   batch size 1 — cubes are few and heavy). A Sat cube wins globally;
//!   if every cube is refuted the union of the per-cube assumption
//!   cores is a valid core for the whole query.
//!
//! The winner's solver is copied back into the caller's, so models
//! ([`Solver::value`]), failed-assumption cores ([`Solver::core`]) and
//! incremental re-solving behave exactly as after a serial solve. If
//! chaos (the `sat.worker` failpoint) kills every worker, the portfolio
//! degrades to the serial loop in the calling thread — a verdict is
//! still produced and the caller never deadlocks.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rsn_budget::{Budget, Reason};

use crate::lit::{Lit, Var};
use crate::pool::ClausePool;
use crate::solver::{RestartSchedule, SearchConfig, SolveOutcome, Solver, Stats};

/// Conflicts the calling thread spends on the plain serial search
/// before any worker is spawned. Almost every query in the verify/BMC
/// workloads decides within a few hundred conflicts — for those the
/// portfolio must cost nothing beyond the serial loop (no solver
/// clones, no thread spawns). Only instances that survive this burst
/// are worth parallel effort.
const PHASE0_QUOTA: u64 = 3_000;

/// Conflicts each phase-1 worker may spend before the instance is
/// declared portfolio-resistant and handed to cube-and-conquer.
const PHASE1_QUOTA: u64 = 30_000;

/// Slots in the shared clause ring.
const POOL_CAPACITY: usize = 4096;

/// Most-active variables examined per failed-literal probing round at
/// escalation, and the number of rounds run while probing keeps paying.
const PROBE_VARS: usize = 512;
const PROBE_ROUNDS: usize = 4;

/// Per-worker context threaded into the CDCL inner loop
/// ([`Solver::solve_inner_para`]). All hooks are no-ops on the serial
/// path (`para == None`).
pub(crate) struct ParaCtx<'a> {
    /// Set once by the first worker to reach a decisive verdict; checked
    /// by siblings at conflict and decision boundaries.
    pub stop: &'a AtomicBool,
    /// Shared learnt-clause ring (publish on learn, import at restarts).
    pub pool: Option<&'a ClausePool>,
    /// Worker id, used to skip own clauses on import.
    pub author: usize,
    /// Phase-1 conflict quota; `None` runs to verdict or budget.
    pub quota: Option<u64>,
    /// Pool watermark of this worker's last import.
    pub last_seen: Cell<u64>,
}

impl ParaCtx<'_> {
    pub(crate) fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }
}

/// The diversification table. Worker `i` takes row `i % len`; rows
/// beyond the table still differ because the phase seed is XORed with
/// the worker id. Row 0 is the exact serial configuration, so a
/// one-worker portfolio searches the same tree as the serial solver.
const STRATEGIES: [(&str, RestartSchedule, f64, Option<u64>); 8] = [
    ("baseline", RestartSchedule::Luby { base: 100 }, 0.95, None),
    (
        "luby-fast",
        RestartSchedule::Luby { base: 16 },
        0.92,
        Some(0x9e37_79b9_7f4a_7c15),
    ),
    (
        "geometric",
        RestartSchedule::Geometric {
            base: 128,
            factor: 1.3,
        },
        0.98,
        Some(0xd1b5_4a32_d192_ed03),
    ),
    (
        "luby-agile",
        RestartSchedule::Luby { base: 50 },
        0.90,
        Some(0x2545_f491_4f6c_dd1d),
    ),
    (
        "geo-slow",
        RestartSchedule::Geometric {
            base: 512,
            factor: 1.5,
        },
        0.95,
        Some(0x9e6c_63d0_876a_9a47),
    ),
    (
        "luby-wide",
        RestartSchedule::Luby { base: 256 },
        0.97,
        Some(0xbf58_476d_1ce4_e5b9),
    ),
    (
        "geo-fast",
        RestartSchedule::Geometric {
            base: 64,
            factor: 1.2,
        },
        0.93,
        Some(0x94d0_49bb_1331_11eb),
    ),
    (
        "luby-deep",
        RestartSchedule::Luby { base: 512 },
        0.99,
        Some(0x369d_ea0f_31a5_3f85),
    ),
];

fn strategy(i: usize) -> (&'static str, SearchConfig) {
    let (name, restart, var_decay, phase_seed) = STRATEGIES[i % STRATEGIES.len()];
    (
        name,
        SearchConfig {
            restart,
            var_decay,
            phase_seed,
        },
    )
}

struct PortfolioRun {
    outcome: SolveOutcome,
    /// Strategy name of the decisive worker, if any.
    winner: Option<&'static str>,
    cubes: u64,
    /// Root literals fixed by escalation failed-literal probing.
    probe_fixed: u64,
    /// Variables resolved out by escalation bounded variable
    /// elimination.
    eliminated: u64,
}

/// Entry point used by [`Solver::solve_with_under`] when `threads > 1`.
/// Owns the whole observability export for the logical solve (the
/// workers bypass the instrumented wrapper), mirroring the serial counter
/// set and adding the portfolio-specific metrics.
pub(crate) fn solve_portfolio(
    base: &mut Solver,
    assumptions: &[Lit],
    budget: &Budget,
    threads: usize,
) -> SolveOutcome {
    let _trace = rsn_obs::TraceGuard::new("sat_solve");
    let start = std::time::Instant::now();
    let before = base.stats();
    let pool = ClausePool::new(POOL_CAPACITY);
    let run = run_portfolio(
        base,
        assumptions,
        budget,
        threads.min(64),
        &pool,
        PHASE0_QUOTA,
        PHASE1_QUOTA,
        true,
    );
    let after = base.stats();
    let conflicts = after.conflicts - before.conflicts;
    rsn_obs::counter_add("sat.solves", 1);
    rsn_obs::counter_add("sat.conflicts", conflicts);
    rsn_obs::counter_add("sat.decisions", after.decisions - before.decisions);
    rsn_obs::counter_add("sat.propagations", after.propagations - before.propagations);
    rsn_obs::counter_add("sat.restarts", after.restarts - before.restarts);
    rsn_obs::hist_record("sat.solve_ns", start.elapsed().as_nanos() as u64);
    rsn_obs::hist_record("sat.solve_conflicts", conflicts);
    rsn_obs::counter_add("budget.spent{engine=sat}", conflicts + 1);
    rsn_obs::counter_add("sat.pool_exports", pool.exports());
    rsn_obs::counter_add("sat.pool_imports", pool.imports());
    if run.cubes > 0 {
        rsn_obs::counter_add("sat.cubes", run.cubes);
    }
    if run.probe_fixed > 0 {
        rsn_obs::counter_add("sat.probe_units", run.probe_fixed);
    }
    if run.eliminated > 0 {
        rsn_obs::counter_add("sat.eliminated_vars", run.eliminated);
    }
    if let Some(name) = run.winner {
        rsn_obs::counter_add(&format!("sat.portfolio_winner{{strategy={name}}}"), 1);
    }
    let lbd = base.take_lbd_hist();
    if !lbd.is_empty() {
        rsn_obs::hist_merge("sat.learnt_lbd", &lbd);
    }
    match run.outcome {
        SolveOutcome::Sat => rsn_obs::counter_add("sat.sat", 1),
        SolveOutcome::Unsat => rsn_obs::counter_add("sat.unsat", 1),
        SolveOutcome::Unknown { reason, .. } => {
            rsn_obs::counter_add("sat.unknown", 1);
            rsn_obs::counter_add("budget.exhausted", 1);
            rsn_obs::record_budget_trip("sat", reason.as_str());
        }
    }
    run.outcome
}

struct WorkerReturn {
    solver: Solver,
    /// This worker claimed the decisive verdict.
    won: bool,
    outcome: SolveOutcome,
    /// Worker id (stable across phases, used as the pool author id).
    author: usize,
}

/// The quotas are parameters (rather than reading the constants
/// directly) so tests can pin each escalation phase deterministically;
/// production callers pass [`PHASE0_QUOTA`] / [`PHASE1_QUOTA`]. A zero
/// `phase0_quota` skips the serial burst outright. `inprocess` enables
/// the bounded-variable-elimination escalation step; tests pinning the
/// race/cube phases pass `false` to keep those paths reachable on any
/// instance.
#[allow(clippy::too_many_arguments)]
fn run_portfolio(
    base: &mut Solver,
    assumptions: &[Lit],
    budget: &Budget,
    threads: usize,
    pool: &ClausePool,
    phase0_quota: u64,
    phase1_quota: u64,
    inprocess: bool,
) -> PortfolioRun {
    let original_config = base.search_config();
    let original_threads = base.threads();
    let run = run_ladder(
        base,
        assumptions,
        budget,
        threads,
        pool,
        phase0_quota,
        phase1_quota,
        inprocess,
    );
    // `adopt` restores the caller's configuration on the adopting paths;
    // restore unconditionally so early returns and chaos losses cannot
    // leave a worker's configuration behind (idempotent).
    base.set_search_config(original_config);
    base.set_threads(original_threads);
    run
}

#[allow(clippy::too_many_arguments)]
fn run_ladder(
    base: &mut Solver,
    assumptions: &[Lit],
    budget: &Budget,
    threads: usize,
    pool: &ClausePool,
    phase0_quota: u64,
    phase1_quota: u64,
    inprocess: bool,
) -> PortfolioRun {
    let original_config = base.search_config();
    let original_threads = base.threads();
    // Mirror the serial entry check: a dead budget admits no search and
    // costs one unit.
    if let Err(e) = budget.check() {
        return PortfolioRun {
            outcome: SolveOutcome::Unknown {
                conflicts: 0,
                reason: e.reason,
            },
            winner: None,
            cubes: 0,
            probe_fixed: 0,
            eliminated: 0,
        };
    }
    // ---- Phase 0: serial burst on the calling thread ------------------
    // Cloning the solver per worker and spawning threads costs far more
    // than a typical verify/BMC query does in total, so the portfolio
    // first runs the plain serial loop under a small conflict quota.
    // Easy queries (the overwhelming majority) decide here and pay
    // nothing; only quota survivors escalate to phase 1.
    if phase0_quota > 0 {
        let never = AtomicBool::new(false);
        let burst = ParaCtx {
            stop: &never,
            pool: None,
            author: 0,
            quota: Some(phase0_quota),
            last_seen: Cell::new(0),
        };
        let outcome = base.solve_inner_para(assumptions, budget, Some(&burst));
        // `budget.exhausted()` separates a spent budget (give up, the
        // caller's contract) from the phase-0 quota tripping (escalate).
        if !outcome.is_unknown() {
            return PortfolioRun {
                outcome,
                winner: Some("phase0"),
                cubes: 0,
                probe_fixed: 0,
                eliminated: 0,
            };
        }
        if budget.exhausted().is_some() {
            return PortfolioRun {
                outcome,
                winner: None,
                cubes: 0,
                probe_fixed: 0,
                eliminated: 0,
            };
        }
    }

    // ---- Escalation inprocessing: root failed-literal probing --------
    // Quota survivors are the rare hard queries, and the burst's VSIDS
    // activity points straight at the variables the search keeps
    // fighting over. Before spending anything on clones or cubes, probe
    // the top-activity variables in both polarities at the root: failed
    // literals and both-branch implications become permanent level-0
    // units that every later phase inherits. On Tseitin-heavy miters
    // this collapses whole gate cones for the price of unit propagation.
    // Probing perturbs saved phases, so it lives on the parallel path
    // only — the `threads == 1` bit-identical contract never gets here.
    let mut probe_fixed = 0u64;
    for _ in 0..PROBE_ROUNDS {
        let fixed = base.probe_roots(PROBE_VARS, budget);
        probe_fixed += fixed;
        if fixed == 0 || budget.exhausted().is_some() {
            break;
        }
    }

    // ---- Escalation inprocessing: bounded variable elimination -------
    // The miter/BMC encodings are dominated by Tseitin definition
    // variables occurring in a handful of short clauses; NiVER-style
    // elimination (see [`crate::eliminate`]) shrinks such instances
    // several-fold, and every CDCL cost scales with live instance size.
    // The reduced formula is solved by a recursive ladder (burst, race,
    // cubes — minus this step) on a scratch solver; only the verdict
    // crosses back. An Unsat core maps over directly because assumption
    // variables are frozen; a model is extended over the eliminated
    // variables and then validated against the caller's untouched clause
    // database before adoption, so elimination bugs degrade to a
    // fall-through instead of a wrong verdict. The caller's solver keeps
    // its burst learnts either way — later incremental solves see the
    // exact clause database they would after a serial run.
    if inprocess && !base.unsat_latched() {
        let frozen: Vec<Var> = assumptions.iter().map(|l| l.var()).collect();
        let elim =
            crate::eliminate::eliminate(base.root_clauses(false), base.num_vars(), &frozen, budget);
        if elim.eliminated > 0 && budget.exhausted().is_none() {
            let eliminated = elim.eliminated as u64;
            let mut red = Solver::new();
            for _ in 0..base.num_vars() {
                red.new_var();
            }
            red.set_search_config(original_config);
            for c in &elim.clauses {
                if !red.add_clause(c.iter().copied()) {
                    break;
                }
            }
            // Burst learnts avoiding eliminated variables are implied by
            // the reduced formula too (every reduced model extends to an
            // original model, which satisfies them) — carry them over so
            // the phase-0 work is not thrown away.
            for c in base.root_clauses(true) {
                if c.iter().all(|l| !elim.is_eliminated(l.var())) {
                    red.add_clause(c);
                }
            }
            let sub = run_ladder(
                &mut red,
                assumptions,
                budget,
                threads,
                pool,
                phase0_quota,
                phase1_quota,
                false,
            );
            // The reduced solve's effort belongs to this logical solve.
            base.add_flow_stats(red.flow_delta_since(Stats::default()));
            base.merge_lbd_hist(&red.take_lbd_hist());
            match sub.outcome {
                SolveOutcome::Sat => {
                    let mut model: Vec<bool> = (0..red.num_vars())
                        .map(|i| red.value(Var(i as u32)).unwrap_or(false))
                        .collect();
                    elim.reconstruct(&mut model);
                    if base.check_model(&model) && base.adopt_model(&model) {
                        return PortfolioRun {
                            outcome: SolveOutcome::Sat,
                            winner: Some("eliminate"),
                            cubes: sub.cubes,
                            probe_fixed,
                            eliminated,
                        };
                    }
                    // Validation failed — a defect in the elimination,
                    // not in the formula. Fall through to the unreduced
                    // phases as if inprocessing never ran.
                }
                SolveOutcome::Unsat => {
                    base.set_core_direct(red.core().to_vec());
                    if assumptions.is_empty() {
                        base.mark_unsat();
                    }
                    return PortfolioRun {
                        outcome: SolveOutcome::Unsat,
                        winner: Some("eliminate"),
                        cubes: sub.cubes,
                        probe_fixed,
                        eliminated,
                    };
                }
                SolveOutcome::Unknown { .. } => {
                    return PortfolioRun {
                        outcome: sub.outcome,
                        winner: None,
                        cubes: sub.cubes,
                        probe_fixed,
                        eliminated,
                    };
                }
            }
        }
    }

    // Captured after the burst: workers clone `base` from this point, so
    // loser flow-deltas in `adopt` must not re-count phase-0 work.
    let before = base.stats();
    let stop = AtomicBool::new(false);
    let claimed = AtomicBool::new(false);

    // Racing diversified workers only pays off when they actually run
    // simultaneously: with fewer free cores than workers the race
    // time-slices on the same silicon and multiplies wall-clock by the
    // worker count without pruning anything. Cap the racing width at
    // the host's physical parallelism; a width of one means racing is
    // pure overhead, so the ladder skips from the burst straight to
    // cube-and-conquer (the requested thread count still sizes the
    // cube partition, and the burst's VSIDS activity picks the split).
    let race_width = threads.min(std::thread::available_parallelism().map_or(1, |n| n.get()));

    // ---- Phase 1: diversified portfolio under a conflict quota -------
    let mut returns: Vec<WorkerReturn> = Vec::new();
    if race_width > 1 {
        run_race(
            base,
            assumptions,
            budget,
            race_width,
            pool,
            phase1_quota,
            &stop,
            &claimed,
            &mut returns,
        );

        if let Some(w) = returns.iter().position(|r| r.won) {
            let winner = returns.swap_remove(w);
            let name = strategy(winner.author).0;
            let outcome = winner.outcome;
            adopt(
                base,
                winner.solver,
                returns,
                before,
                original_config,
                original_threads,
            );
            return PortfolioRun {
                outcome,
                winner: Some(name),
                cubes: 0,
                probe_fixed,
                eliminated: 0,
            };
        }
        if let Some(reason) = budget.exhausted() {
            // Keep the most-informed worker's learnt clauses so a
            // re-solve under a fresh budget resumes from real progress,
            // exactly like the serial Unknown contract.
            let outcome = unknown_outcome(base, &mut returns, before, reason);
            adopt_unknown(base, returns, before, original_config, original_threads);
            return PortfolioRun {
                outcome,
                winner: None,
                cubes: 0,
                probe_fixed,
                eliminated: 0,
            };
        }
        if returns.is_empty() {
            // Chaos killed every worker: degrade to the serial loop
            // (caller's exact config) so the caller still gets a sound
            // verdict.
            base.set_search_config(original_config);
            let outcome = base.solve_inner_para(assumptions, budget, None);
            return PortfolioRun {
                outcome,
                winner: Some("serial-fallback"),
                cubes: 0,
                probe_fixed,
                eliminated: 0,
            };
        }
    }

    // ---- Phase 2: cube-and-conquer -----------------------------------
    // Every surviving worker hit the conflict quota (or racing was
    // skipped on a saturated host). Split on the top-k VSIDS variables
    // of the most-informed solver and drain the 2^k assumption cubes
    // through a claiming loop, clauses still shared. With a single
    // drainer this is incremental cube solving: every cube's learnt
    // clauses (all implied by the formula alone) carry over to the
    // next, so refuting the partition can be far cheaper than the
    // undirected monolithic search.
    let mut solvers: Vec<(usize, Solver)> = if returns.is_empty() {
        vec![(0, base.clone())]
    } else {
        returns.into_iter().map(|r| (r.author, r.solver)).collect()
    };
    for (_, s) in &mut solvers {
        // Phases learned in phase 1 are informed now — stop scrambling.
        let mut c = s.search_config();
        c.phase_seed = None;
        s.set_search_config(c);
    }
    let chooser = solvers
        .iter()
        .map(|(_, s)| s)
        .max_by_key(|s| s.stats().conflicts)
        .expect("returns is non-empty");
    let assumption_vars: Vec<Var> = assumptions.iter().map(|l| l.var()).collect();
    let mut k = 1usize;
    while (1usize << k) < 2 * threads {
        k += 1;
    }
    let split = chooser.top_active_vars(k.min(4), &assumption_vars);
    let cubes: Vec<Vec<Lit>> = (0..(1usize << split.len()))
        .map(|m| {
            let mut cube = assumptions.to_vec();
            for (j, &v) in split.iter().enumerate() {
                cube.push(Lit::with_polarity(v, (m >> j) & 1 == 1));
            }
            cube
        })
        .collect();

    enum CubeVerdict {
        Sat,
        Unsat(Vec<Lit>),
        Unknown,
    }
    struct CubeWorker {
        solver: Solver,
        verdicts: Vec<CubeVerdict>,
        won: bool,
    }
    let cursor = AtomicUsize::new(0);
    let mut workers: Vec<CubeWorker> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = solvers
            .into_iter()
            .map(|(author, mut solver)| {
                let (stop, claimed, cursor, cubes, budget) =
                    (&stop, &claimed, &cursor, &cubes, budget.clone());
                scope.spawn(move || {
                    let mut verdicts = Vec::new();
                    // Same failpoint as phase 1: the eval sits before the
                    // claiming loop so an armed `panic` never orphans a
                    // claimed cube.
                    if rsn_fail::eval("sat.worker").is_some() {
                        return CubeWorker {
                            solver,
                            verdicts,
                            won: false,
                        };
                    }
                    let ctx = ParaCtx {
                        stop,
                        pool: Some(pool),
                        author,
                        quota: None,
                        last_seen: Cell::new(0),
                    };
                    let mut won = false;
                    loop {
                        if ctx.stopped() {
                            break;
                        }
                        let ci = cursor.fetch_add(1, Ordering::Relaxed);
                        if ci >= cubes.len() {
                            break;
                        }
                        match solver.solve_inner_para(&cubes[ci], &budget, Some(&ctx)) {
                            SolveOutcome::Sat => {
                                if claimed
                                    .compare_exchange(
                                        false,
                                        true,
                                        Ordering::SeqCst,
                                        Ordering::SeqCst,
                                    )
                                    .is_ok()
                                {
                                    stop.store(true, Ordering::SeqCst);
                                    verdicts.push(CubeVerdict::Sat);
                                    won = true;
                                }
                                break;
                            }
                            SolveOutcome::Unsat => {
                                // Only the user-assumption part of the
                                // cube core contributes to the whole-query
                                // core; the cube literals partition the
                                // space and cancel out in the union.
                                let user: Vec<Lit> = solver
                                    .core()
                                    .iter()
                                    .filter(|l| assumptions.contains(l))
                                    .copied()
                                    .collect();
                                verdicts.push(CubeVerdict::Unsat(user));
                            }
                            SolveOutcome::Unknown { .. } => {
                                verdicts.push(CubeVerdict::Unknown);
                                break;
                            }
                        }
                    }
                    CubeWorker {
                        solver,
                        verdicts,
                        won,
                    }
                })
            })
            .collect();
        for h in handles {
            if let Ok(w) = h.join() {
                workers.push(w);
            }
        }
    });

    let cube_count = cubes.len() as u64;
    let mut unsat_cubes = 0usize;
    let mut core_union: Vec<Lit> = Vec::new();
    let mut winner: Option<Solver> = None;
    let mut losers: Vec<Solver> = Vec::new();
    for w in workers {
        for v in &w.verdicts {
            if let CubeVerdict::Unsat(user) = v {
                unsat_cubes += 1;
                for &l in user {
                    if !core_union.contains(&l) {
                        core_union.push(l);
                    }
                }
            }
        }
        if w.won {
            winner = Some(w.solver);
        } else {
            losers.push(w.solver);
        }
    }

    if let Some(w) = winner {
        adopt(
            base,
            w,
            to_returns(losers),
            before,
            original_config,
            original_threads,
        );
        return PortfolioRun {
            outcome: SolveOutcome::Sat,
            winner: Some("cube"),
            cubes: cube_count,
            probe_fixed,
            eliminated: 0,
        };
    }
    if unsat_cubes as u64 == cube_count && !losers.is_empty() {
        // Every branch of the partition is refuted: the query is Unsat
        // and the union of the per-cube assumption cores is a valid
        // core (any model satisfying the union would fall into exactly
        // one cube and contradict that cube's refutation).
        let mut carrier = losers.pop().expect("checked non-empty");
        carrier.set_core_direct(core_union);
        if assumptions.is_empty() {
            carrier.mark_unsat();
        }
        adopt(
            base,
            carrier,
            to_returns(losers),
            before,
            original_config,
            original_threads,
        );
        return PortfolioRun {
            outcome: SolveOutcome::Unsat,
            winner: Some("cube"),
            cubes: cube_count,
            probe_fixed,
            eliminated: 0,
        };
    }
    if let Some(reason) = budget.exhausted() {
        let mut returns = to_returns(losers);
        let outcome = unknown_outcome(base, &mut returns, before, reason);
        adopt_unknown(base, returns, before, original_config, original_threads);
        return PortfolioRun {
            outcome,
            winner: None,
            cubes: cube_count,
            probe_fixed,
            eliminated: 0,
        };
    }
    // Chaos losses left cubes unresolved with a live budget: finish
    // serially (caller's exact config) so the caller still gets a
    // verdict.
    adopt_unknown(
        base,
        to_returns(losers),
        before,
        original_config,
        original_threads,
    );
    base.set_search_config(original_config);
    let outcome = base.solve_inner_para(assumptions, budget, None);
    PortfolioRun {
        outcome,
        winner: Some("serial-fallback"),
        cubes: cube_count,
        probe_fixed,
        eliminated: 0,
    }
}

/// Phase-1 race: `race_width` diversified clones of `base` search under
/// a per-worker conflict quota, sharing learnt clauses through `pool`;
/// the first decisive worker claims the verdict and stops its siblings.
/// Workers killed by the `sat.worker` failpoint are dropped; survivors
/// (decided or quota-tripped) are appended to `returns`.
#[allow(clippy::too_many_arguments)]
fn run_race(
    base: &Solver,
    assumptions: &[Lit],
    budget: &Budget,
    race_width: usize,
    pool: &ClausePool,
    phase1_quota: u64,
    stop: &AtomicBool,
    claimed: &AtomicBool,
    returns: &mut Vec<WorkerReturn>,
) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..race_width)
            .map(|i| {
                let mut solver = base.clone();
                let (_, config) = strategy(i);
                solver.set_search_config(config);
                let budget = budget.clone();
                scope.spawn(move || {
                    // Chaos failpoint: `panic`/`delay` fire inside
                    // `eval`; an injected error aborts this worker only.
                    if rsn_fail::eval("sat.worker").is_some() {
                        return WorkerReturn {
                            solver,
                            won: false,
                            outcome: SolveOutcome::Unknown {
                                conflicts: 0,
                                reason: Reason::Cancelled,
                            },
                            author: i,
                        };
                    }
                    let ctx = ParaCtx {
                        stop,
                        pool: Some(pool),
                        author: i,
                        quota: Some(phase1_quota),
                        last_seen: Cell::new(0),
                    };
                    let outcome = solver.solve_inner_para(assumptions, &budget, Some(&ctx));
                    let won = !outcome.is_unknown()
                        && claimed
                            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                            .is_ok();
                    if won {
                        stop.store(true, Ordering::SeqCst);
                    }
                    WorkerReturn {
                        solver,
                        won,
                        outcome,
                        author: i,
                    }
                })
            })
            .collect();
        for h in handles {
            // A worker killed by a `panic`-action failpoint is simply
            // dropped; its clone of the solver dies with it.
            if let Ok(r) = h.join() {
                returns.push(r);
            }
        }
    });
}

fn to_returns(solvers: Vec<Solver>) -> Vec<WorkerReturn> {
    solvers
        .into_iter()
        .map(|solver| WorkerReturn {
            solver,
            won: false,
            outcome: SolveOutcome::Unknown {
                conflicts: 0,
                reason: Reason::Cancelled,
            },
            author: 0,
        })
        .collect()
}

/// Copies the winning worker back into the caller's solver (restoring
/// the caller's configuration), folds every loser's flow counters and
/// LBD samples in, so the exported totals account for all work done.
fn adopt(
    base: &mut Solver,
    mut winner: Solver,
    losers: Vec<WorkerReturn>,
    before: Stats,
    original_config: SearchConfig,
    original_threads: usize,
) {
    let mut deltas = Vec::with_capacity(losers.len());
    let mut lbd = rsn_obs::Histogram::new();
    for mut r in losers {
        deltas.push(r.solver.flow_delta_since(before));
        lbd.merge(&r.solver.take_lbd_hist());
    }
    winner.set_search_config(original_config);
    winner.set_threads(original_threads);
    winner.merge_lbd_hist(&lbd);
    *base = winner;
    for d in deltas {
        base.add_flow_stats(d);
    }
}

/// Unknown outcome: adopt the most-informed worker (keeping its learnt
/// clauses for a future re-solve) and report the aggregate conflict
/// count, mirroring the serial Unknown contract.
fn adopt_unknown(
    base: &mut Solver,
    mut returns: Vec<WorkerReturn>,
    before: Stats,
    original_config: SearchConfig,
    original_threads: usize,
) {
    if returns.is_empty() {
        return;
    }
    let best = returns
        .iter()
        .enumerate()
        .max_by_key(|(_, r)| r.solver.stats().conflicts)
        .map(|(i, _)| i)
        .expect("non-empty");
    let winner = returns.swap_remove(best);
    adopt(
        base,
        winner.solver,
        returns,
        before,
        original_config,
        original_threads,
    );
}

/// Aggregate conflicts spent by every returned worker, for the Unknown
/// outcome's `conflicts` field.
fn unknown_outcome(
    base: &Solver,
    returns: &mut [WorkerReturn],
    before: Stats,
    reason: Reason,
) -> SolveOutcome {
    let _ = base;
    let total: u64 = returns
        .iter()
        .map(|r| r.solver.flow_delta_since(before).conflicts)
        .sum();
    SolveOutcome::Unknown {
        conflicts: total,
        reason,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::{Lit, Var};
    use std::sync::Mutex;

    /// `rsn-fail` failpoints are process-global; every test arming one
    /// takes this lock and clears the registry before releasing it.
    static CHAOS: Mutex<()> = Mutex::new(());

    fn lp(v: Var) -> Lit {
        Lit::pos(v)
    }
    fn ln(v: Var) -> Lit {
        Lit::neg(v)
    }

    /// A budgeted solve of `s` on `threads` workers.
    fn solve_on(
        s: &mut Solver,
        assumptions: &[Lit],
        budget: &Budget,
        threads: usize,
    ) -> SolveOutcome {
        s.set_threads(threads);
        s.solve_with_under(assumptions, budget)
    }

    /// n pigeons into n-1 holes: hard enough to exercise conflicts.
    fn pigeonhole(n: usize) -> Solver {
        let holes = n - 1;
        let mut s = Solver::new();
        let p: Vec<Vec<Var>> = (0..n)
            .map(|_| (0..holes).map(|_| s.new_var()).collect())
            .collect();
        for row in &p {
            s.add_clause(row.iter().map(|&v| lp(v)));
        }
        for i1 in 0..n {
            for i2 in (i1 + 1)..n {
                for (&a, &b) in p[i1].iter().zip(&p[i2]) {
                    s.add_clause([ln(a), ln(b)]);
                }
            }
        }
        s
    }

    #[test]
    fn portfolio_proves_unsat() {
        // php(8) needs ~4.8k serial conflicts: past the phase-0 burst,
        // so diversified workers genuinely race for this verdict.
        let mut s = pigeonhole(8);
        let out = solve_on(&mut s, &[], &Budget::unlimited(), 4);
        assert_eq!(out, SolveOutcome::Unsat);
        // The verdict is latched: a plain re-solve is immediate.
        assert!(!s.solve());
    }

    #[test]
    fn portfolio_finds_models() {
        // A satisfiable xor ladder; every worker can find some model.
        let mut s = Solver::new();
        let x: Vec<Var> = (0..30).map(|_| s.new_var()).collect();
        for w in x.windows(2) {
            s.add_clause([lp(w[0]), lp(w[1])]);
            s.add_clause([ln(w[0]), ln(w[1])]);
        }
        let out = solve_on(&mut s, &[], &Budget::unlimited(), 4);
        assert_eq!(out, SolveOutcome::Sat);
        for w in x.windows(2) {
            let a = s.value(w[0]).expect("assigned");
            let b = s.value(w[1]).expect("assigned");
            assert!(a ^ b, "model violates the xor chain");
        }
    }

    #[test]
    fn portfolio_core_is_valid() {
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..6).map(|_| s.new_var()).collect();
        s.add_clause([ln(vars[1]), ln(vars[2])]);
        let assumptions: Vec<Lit> = vars.iter().map(|&v| lp(v)).collect();
        let out = solve_on(&mut s, &assumptions, &Budget::unlimited(), 4);
        assert_eq!(out, SolveOutcome::Unsat);
        let core = s.core().to_vec();
        assert!(!core.is_empty());
        assert!(core.iter().all(|l| assumptions.contains(l)));
        // Re-solving with only the core stays unsatisfiable (serially).
        assert!(!s.solve_with(&core));
    }

    #[test]
    fn one_thread_portfolio_is_bit_identical_to_serial() {
        let mut a = pigeonhole(5);
        let mut b = a.clone();
        let out_a = a.solve_with_under(&[], &Budget::unlimited());
        // Zero clamps to one worker: the serial loop.
        let out_b = solve_on(&mut b, &[], &Budget::unlimited(), 0);
        assert_eq!(out_a, out_b);
        assert_eq!(a.stats(), b.stats(), "threads==1 must take the serial loop");
    }

    #[test]
    fn set_threads_routes_plain_solves_through_the_portfolio() {
        let mut s = pigeonhole(6);
        s.set_threads(3);
        assert_eq!(s.threads(), 3);
        assert!(!s.solve());
        // Assumption queries and cores keep working through the dispatch.
        let mut s = Solver::new();
        let a = s.new_var();
        let b = s.new_var();
        s.add_clause([lp(a), lp(b)]);
        s.set_threads(3);
        assert!(s.solve_with(&[ln(a)]));
        assert_eq!(s.value(b), Some(true));
        assert!(!s.solve_with(&[ln(a), ln(b)]));
        assert!(!s.core().is_empty());
    }

    #[test]
    fn exhausted_budget_yields_unknown() {
        let mut s = pigeonhole(7);
        let out = solve_on(&mut s, &[], &Budget::unlimited().with_work_limit(0), 4);
        assert!(out.is_unknown());
        // Still usable afterwards.
        assert_eq!(
            s.solve_with_under(&[], &Budget::unlimited()),
            SolveOutcome::Unsat
        );
    }

    #[test]
    fn cancel_token_tears_down_the_portfolio() {
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let mut s = pigeonhole(7);
        let out = solve_on(&mut s, &[], &budget, 4);
        assert_eq!(
            out,
            SolveOutcome::Unknown {
                conflicts: 0,
                reason: Reason::Cancelled
            }
        );
    }

    #[test]
    fn cube_and_conquer_refutes_quota_survivors() {
        // Tiny quotas pin the escalation path: the burst trips after a
        // handful of conflicts, every worker hits the phase-1 quota, and
        // the verdict must come from the cube partition (all cubes
        // unsat). php(7) is far from decided within 50 conflicts.
        let mut s = pigeonhole(7);
        let pool = ClausePool::new(POOL_CAPACITY);
        let run = run_portfolio(&mut s, &[], &Budget::unlimited(), 2, &pool, 10, 50, false);
        assert_eq!(run.outcome, SolveOutcome::Unsat);
        assert_eq!(run.winner, Some("cube"));
        assert!(
            run.cubes >= 4,
            "expected 2*threads cubes, got {}",
            run.cubes
        );
        // The verdict is latched on the caller's solver.
        assert!(!s.solve());
    }

    #[test]
    fn cube_and_conquer_finds_models() {
        // Same forced escalation on a satisfiable formula: some cube is
        // sat and its model must be adopted. Random 3-SAT at ratio ~4.0
        // over 50 vars is almost surely satisfiable but needs more than
        // the pinned quotas to decide.
        let mut rng = 0xabcd_ef01_2345_6789u64;
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..50).map(|_| s.new_var()).collect();
        for _ in 0..200 {
            let mut picks = [0usize; 3];
            for p in &mut picks {
                *p = (next() % 50) as usize;
            }
            if picks[0] == picks[1] || picks[1] == picks[2] || picks[0] == picks[2] {
                continue;
            }
            s.add_clause(picks.map(|i| Lit::with_polarity(vars[i], next() & 1 == 1)));
        }
        let mut serial = s.clone();
        let expected = serial.solve();
        let pool = ClausePool::new(POOL_CAPACITY);
        let run = run_portfolio(&mut s, &[], &Budget::unlimited(), 2, &pool, 1, 2, false);
        match expected {
            true => assert_eq!(run.outcome, SolveOutcome::Sat),
            false => assert_eq!(run.outcome, SolveOutcome::Unsat),
        }
    }

    /// Random 3-SAT instance over `n` vars with the given seed; returns
    /// the solver and the clause list for independent model checking.
    fn random_3sat(n: usize, m: usize, mut rng: u64) -> (Solver, Vec<Vec<Lit>>) {
        let mut next = move || {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng
        };
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..n).map(|_| s.new_var()).collect();
        let mut clauses = Vec::new();
        for _ in 0..m {
            let mut picks = [0usize; 3];
            for p in &mut picks {
                *p = (next() % n as u64) as usize;
            }
            if picks[0] == picks[1] || picks[1] == picks[2] || picks[0] == picks[2] {
                continue;
            }
            let c: Vec<Lit> = picks
                .iter()
                .map(|&i| Lit::with_polarity(vars[i], next() & 1 == 1))
                .collect();
            s.add_clause(c.iter().copied());
            clauses.push(c);
        }
        (s, clauses)
    }

    #[test]
    fn elimination_agrees_with_serial_and_models_validate() {
        // Pinned tiny quotas force escalation straight into the
        // elimination step; verdicts must match the serial solver and a
        // Sat model (reconstructed over eliminated variables) must
        // satisfy every original clause.
        for seed in 0..12u64 {
            let (mut s, clauses) = random_3sat(40, 160, 0x5eed_0000 + seed * 7919);
            let mut serial = s.clone();
            let expected = serial.solve();
            let pool = ClausePool::new(POOL_CAPACITY);
            let run = run_portfolio(&mut s, &[], &Budget::unlimited(), 2, &pool, 1, 2, true);
            assert_eq!(
                run.outcome,
                if expected {
                    SolveOutcome::Sat
                } else {
                    SolveOutcome::Unsat
                },
                "seed {seed}"
            );
            if expected {
                for c in &clauses {
                    assert!(
                        c.iter().any(|&l| s.lit_value_model(l) == Some(true)),
                        "seed {seed}: model violates {c:?}"
                    );
                }
            } else {
                // The verdict is latched on the caller's solver.
                assert!(!s.solve(), "seed {seed}");
            }
        }
    }

    #[test]
    fn elimination_collapses_tseitin_chains() {
        // A long buffer chain with frozen endpoints plus a pigeonhole
        // core: elimination must resolve out the chain variables and the
        // reduced ladder must still refute the core.
        let mut s = pigeonhole(7);
        let head = s.new_var();
        let mut prev = head;
        for _ in 0..64 {
            let next = s.new_var();
            s.add_clause([lp(prev), ln(next)]);
            s.add_clause([ln(prev), lp(next)]);
            prev = next;
        }
        s.add_clause([lp(head)]);
        let pool = ClausePool::new(POOL_CAPACITY);
        let run = run_portfolio(&mut s, &[], &Budget::unlimited(), 2, &pool, 10, 50, true);
        assert_eq!(run.outcome, SolveOutcome::Unsat);
        assert_eq!(run.winner, Some("eliminate"));
        assert!(
            run.eliminated >= 32,
            "chain variables should be resolved out, got {}",
            run.eliminated
        );
        assert!(!s.solve());
    }

    #[test]
    fn elimination_keeps_assumption_cores_valid() {
        // Assumption variables are frozen, so the core of the reduced
        // solve must be a valid core of the original query.
        let (mut s, _) = random_3sat(30, 90, 0xc0de_cafe);
        let vars: Vec<Var> = (0..30).map(|v| Var(v as u32)).collect();
        // Force a contradiction among assumption literals via a chain of
        // implications: a -> b, with assumptions a and ¬b.
        s.add_clause([ln(vars[0]), lp(vars[1])]);
        let assumptions = [lp(vars[0]), ln(vars[1])];
        let mut serial = s.clone();
        assert!(!serial.solve_with(&assumptions));
        let pool = ClausePool::new(POOL_CAPACITY);
        let run = run_portfolio(
            &mut s,
            &assumptions,
            &Budget::unlimited(),
            2,
            &pool,
            1,
            2,
            true,
        );
        assert_eq!(run.outcome, SolveOutcome::Unsat);
        let core = s.core().to_vec();
        assert!(!core.is_empty());
        assert!(core.iter().all(|l| assumptions.contains(l)));
        assert!(!s.solve_with(&core));
        // The caller's solver is NOT latched unsat: the formula itself
        // stays satisfiable without the assumptions.
        assert!(s.solve());
    }

    #[test]
    fn worker_failpoint_panic_degrades_to_serial_fallback() {
        let _guard = CHAOS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        rsn_fail::clear();
        // Every worker dies at birth: the portfolio must still produce
        // the correct verdict via the in-thread serial fallback.
        rsn_fail::configure("sat.worker", rsn_fail::Action::Panic, 1.0, Some(3));
        // php(8) outlives the phase-0 burst, so workers really spawn
        // (and all die at the failpoint).
        let mut s = pigeonhole(8);
        let out = solve_on(&mut s, &[], &Budget::unlimited(), 4);
        rsn_fail::clear();
        assert_eq!(out, SolveOutcome::Unsat);
    }

    #[test]
    fn worker_failpoint_partial_losses_keep_the_verdict() {
        let _guard = CHAOS
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        rsn_fail::clear();
        rsn_fail::configure("sat.worker", rsn_fail::Action::Panic, 0.5, Some(11));
        let mut sat_case = Solver::new();
        let vars: Vec<Var> = (0..8).map(|_| sat_case.new_var()).collect();
        for w in vars.windows(2) {
            sat_case.add_clause([lp(w[0]), lp(w[1])]);
        }
        let out = solve_on(&mut sat_case, &[], &Budget::unlimited(), 4);
        let mut unsat_case = pigeonhole(8);
        let out2 = solve_on(&mut unsat_case, &[], &Budget::unlimited(), 4);
        rsn_fail::clear();
        assert_eq!(out, SolveOutcome::Sat);
        assert_eq!(out2, SolveOutcome::Unsat);
    }
}
