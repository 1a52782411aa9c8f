//! Portfolio CDCL with shared learnt clauses.
//!
//! Every solve on a solver configured with [`Solver::set_threads`] > 1
//! climbs a three-step ladder, each step reached only by instances the
//! previous one left undecided:
//!
//! 1. **Serial burst** — the plain serial loop on the calling thread
//!    under a small conflict quota. No clones, no spawns: easy queries,
//!    such as miters over two faults of different classes, pay nothing
//!    extra.
//! 2. **Bounded variable elimination** — NiVER-style elimination
//!    ([`crate::eliminate`]) shrinks the Tseitin-heavy encodings, and
//!    the reduced instance re-enters the ladder at the burst on a
//!    scratch solver. Only a validated verdict crosses back.
//! 3. **Clause-sharing race** — `width` diversified CDCL workers, each a
//!    clone of the caller's solver, run until a verdict, the caller's
//!    budget runs out, or a sibling wins:
//!    * **Diversification** — each worker gets a different restart
//!      schedule (Luby bases / geometric), VSIDS decay and phase-polarity
//!      seed, so the workers walk different parts of the search space
//!      (the SatSwarm-style grid of heterogeneous solver nodes, collapsed
//!      into one process).
//!    * **Clause sharing** — every learnt clause with LBD ≤ 6 and at most
//!      12 literals is published to a lock-light ring ([`ClausePool`]);
//!      workers import foreign clauses at restart boundaries, at decision
//!      level 0. Learnt clauses are implied by the formula alone, so
//!      sharing is sound across workers regardless of their assumptions.
//!    * **First winner cancels the rest** — via a portfolio-local stop
//!      flag checked at conflict and decision boundaries. The caller's
//!      [`Budget`] (deadline / work / `CancelToken`) is shared by all
//!      workers, so external cancellation still tears the whole solve
//!      down.
//!
//! The race width is `min(threads, available_parallelism)`: workers that
//! cannot run simultaneously only time-slice one core. A width of 1 ends
//! the ladder with the serial loop instead.
//!
//! Steps 2 and 3 run under the rsn-obs spans `sat_eliminate` and
//! `sat_race`. Both open only after the burst quota trips, and the
//! clause pool is built only when the race starts, so the queries the
//! burst decides pay nothing for either.
//!
//! The winner's solver is copied back into the caller's, so models
//! ([`Solver::value`]), failed-assumption cores ([`Solver::core`]) and
//! incremental re-solving behave exactly as after a serial solve. If
//! chaos (the `sat.worker` failpoint) kills every worker, the portfolio
//! degrades to the serial loop in the calling thread — a verdict is
//! still produced and the caller never deadlocks.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use rsn_budget::{Budget, Reason};

use crate::lit::{Lit, Var};
use crate::pool::ClausePool;
use crate::solver::{RestartSchedule, SearchConfig, SolveOutcome, Solver, Stats};

/// Conflicts the calling thread spends on the plain serial search
/// before any worker is spawned. Easy queries decide within a few
/// hundred conflicts — for those the portfolio must cost nothing beyond
/// the serial loop (no solver clones, no thread spawns, no clause
/// pool). Only instances that survive this burst are worth escalation.
const PHASE0_QUOTA: u64 = 3_000;

/// Slots in the shared clause ring.
const POOL_CAPACITY: usize = 4096;

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
    /// Conflict quota of the serial burst; `None` (race workers) runs
    /// to a verdict, the budget's end or a sibling's win.
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
    /// Variables resolved out by bounded variable elimination.
    eliminated: u64,
}

/// Entry point used by [`Solver::solve_with_under`] when `threads > 1`.
/// The caller exports the counters every solve shares; this adds the
/// portfolio's own: eliminated variables and the decisive strategy
/// (the race adds its clause-pool traffic itself).
pub(crate) fn solve_portfolio(
    base: &mut Solver,
    assumptions: &[Lit],
    budget: &Budget,
) -> SolveOutcome {
    // Racing diversified workers only pays off when they actually run
    // simultaneously: with fewer free cores than workers the race
    // time-slices on the same silicon and multiplies wall-clock by the
    // worker count without pruning anything.
    let width = base.threads().min(cores());
    let run = run_portfolio(base, assumptions, budget, width, PHASE0_QUOTA, true);
    if run.eliminated > 0 {
        rsn_obs::counter_add("sat.eliminated_vars", run.eliminated);
    }
    if let Some(name) = run.winner {
        rsn_obs::counter_add(&format!("sat.portfolio_winner{{strategy={name}}}"), 1);
    }
    run.outcome
}

/// The host's available parallelism, read once per process: on Linux
/// each `available_parallelism` call reads cgroup files (~28 µs on a
/// 2-vCPU Xeon VM), which every query the burst decides would pay.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

struct WorkerReturn {
    solver: Solver,
    /// This worker claimed the decisive verdict.
    won: bool,
    outcome: SolveOutcome,
    /// Worker id: the pool author id and the strategy row.
    author: usize,
}

/// The ladder: serial burst, bounded variable elimination, then a
/// `width`-wide race, or the serial loop when `width` is 1.
///
/// The burst quota is a parameter (rather than reading [`PHASE0_QUOTA`]
/// directly) so tests can pin each step deterministically; a zero
/// `phase0_quota` skips the burst outright. `inprocess` enables the
/// elimination step; tests pinning the race pass `false` to keep it
/// reachable on any instance.
fn run_portfolio(
    base: &mut Solver,
    assumptions: &[Lit],
    budget: &Budget,
    width: usize,
    phase0_quota: u64,
    inprocess: bool,
) -> PortfolioRun {
    let finish = |outcome: SolveOutcome, winner: &'static str, eliminated: u64| PortfolioRun {
        outcome,
        // Only a decisive verdict names a winner.
        winner: (!outcome.is_unknown()).then_some(winner),
        eliminated,
    };
    // Mirror the serial entry check: a dead budget admits no search and
    // costs one unit.
    if let Err(e) = budget.check() {
        let outcome = SolveOutcome::Unknown {
            conflicts: 0,
            reason: e.reason,
        };
        return finish(outcome, "", 0);
    }
    // ---- Serial burst on the calling thread ---------------------------
    // Cloning the solver per worker and spawning threads costs far more
    // than an easy query does in total, so the portfolio
    // first runs the plain serial loop under a small conflict quota.
    // Easy queries (the overwhelming majority) decide here and pay
    // nothing; only quota survivors escalate.
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
        // caller's contract) from the burst quota tripping (escalate).
        if !outcome.is_unknown() || budget.exhausted().is_some() {
            return finish(outcome, "phase0", 0);
        }
    }

    // ---- Bounded variable elimination --------------------------------
    // The miter/BMC encodings are dominated by Tseitin definition
    // variables occurring in a handful of short clauses; NiVER-style
    // elimination (see [`crate::eliminate`]) shrinks such instances
    // several-fold, and every CDCL cost scales with live instance size.
    // The reduced formula is solved by a recursive ladder (burst, then
    // race or serial loop) on a scratch solver; only the verdict crosses
    // back. An Unsat core maps over directly because assumption
    // variables are frozen; a model is extended over the eliminated
    // variables and then validated against the caller's untouched clause
    // database before adoption, so elimination bugs degrade to a
    // fall-through instead of a wrong verdict. The caller's solver keeps
    // its burst learnts either way — later incremental solves see the
    // exact clause database they would after a serial run.
    if inprocess && !base.unsat_latched() {
        // Covers elimination and the reduced solver's construction; the
        // reduced solve below is timed by its own ladder's spans.
        let span = rsn_obs::Span::enter("sat_eliminate");
        let frozen: Vec<Var> = assumptions.iter().map(|l| l.var()).collect();
        let elim =
            crate::eliminate::eliminate(base.root_clauses(false), base.num_vars(), &frozen, budget);
        if elim.eliminated > 0 && budget.exhausted().is_none() {
            let eliminated = elim.eliminated as u64;
            let mut red = Solver::new();
            for _ in 0..base.num_vars() {
                red.new_var();
            }
            red.set_search_config(base.search_config());
            for c in &elim.clauses {
                if !red.add_clause(c.iter().copied()) {
                    break;
                }
            }
            // Burst learnts avoiding eliminated variables are implied by
            // the reduced formula too (every reduced model extends to an
            // original model, which satisfies them) — carry them over so
            // the burst's work is not thrown away.
            for c in base.root_clauses(true) {
                if c.iter().all(|l| !elim.is_eliminated(l.var())) {
                    red.add_clause(c);
                }
            }
            drop(span);
            let sub = run_portfolio(&mut red, assumptions, budget, width, phase0_quota, false);
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
                        return finish(SolveOutcome::Sat, "eliminate", eliminated);
                    }
                    // Validation failed — a defect in the elimination,
                    // not in the formula. Fall through to the unreduced
                    // race as if elimination never ran.
                }
                SolveOutcome::Unsat => {
                    base.set_core_direct(red.core().to_vec());
                    if assumptions.is_empty() {
                        base.mark_unsat();
                    }
                    return finish(SolveOutcome::Unsat, "eliminate", eliminated);
                }
                SolveOutcome::Unknown { .. } => return finish(sub.outcome, "", eliminated),
            }
        }
    }

    // ---- Clause-sharing race -----------------------------------------
    // One span for the race or the serial loop that replaces it.
    let _span = rsn_obs::Span::enter("sat_race");
    // Captured after the burst: workers clone `base` from this point, so
    // loser flow-deltas in `adopt` must not re-count burst work.
    let before = base.stats();
    if width > 1 {
        let mut returns = run_race(base, assumptions, budget, width);
        if let Some(w) = returns.iter().position(|r| r.won) {
            let winner = returns.swap_remove(w);
            let outcome = winner.outcome;
            adopt(base, winner.solver, returns, before);
            return finish(outcome, strategy(winner.author).0, 0);
        }
        if let Some(reason) = budget.exhausted() {
            return finish(adopt_unknown(base, returns, before, reason), "", 0);
        }
        // Race workers stop only at a verdict, the budget's end or a
        // sibling's win, so with a live budget and no winner chaos
        // killed them all.
    }
    // A one-wide race is the serial loop in the calling thread (the
    // caller's exact config); it also finishes a race that chaos
    // emptied, so the caller still gets a sound verdict.
    let outcome = base.solve_inner_para(assumptions, budget, None);
    let name = if width > 1 {
        "serial-fallback"
    } else {
        "serial"
    };
    finish(outcome, name, 0)
}

/// The race: `width` diversified clones of `base` search until a
/// verdict, the budget's end or a sibling's win, sharing learnt clauses
/// through a clause pool built here, so only solves that race pay for
/// it; the first decisive worker claims the verdict and stops its
/// siblings. Workers killed by the `sat.worker` failpoint are dropped.
fn run_race(
    base: &Solver,
    assumptions: &[Lit],
    budget: &Budget,
    width: usize,
) -> Vec<WorkerReturn> {
    let pool = ClausePool::new(POOL_CAPACITY);
    let stop = AtomicBool::new(false);
    let claimed = AtomicBool::new(false);
    let returns = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..width)
            .map(|i| {
                let mut solver = base.clone();
                solver.set_search_config(strategy(i).1);
                let (stop, claimed, pool, budget) = (&stop, &claimed, &pool, budget.clone());
                scope.spawn(move || {
                    // Chaos failpoint: `panic`/`delay` fire inside
                    // `eval`; an injected error aborts this worker only.
                    if rsn_fail::eval("sat.worker").is_some() {
                        return None;
                    }
                    let ctx = ParaCtx {
                        stop,
                        pool: Some(pool),
                        author: i,
                        quota: None,
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
                    Some(WorkerReturn {
                        solver,
                        won,
                        outcome,
                        author: i,
                    })
                })
            })
            .collect();
        // A worker killed by a `panic`-action failpoint is simply
        // dropped; its clone of the solver dies with it.
        handles
            .into_iter()
            .filter_map(|h| h.join().ok().flatten())
            .collect()
    });
    rsn_obs::counter_add("sat.pool_exports", pool.exports());
    rsn_obs::counter_add("sat.pool_imports", pool.imports());
    returns
}

/// Copies the winning worker back into the caller's solver (keeping the
/// caller's configuration) and folds every loser's flow counters and
/// LBD samples in, so the exported totals account for all work done.
fn adopt(base: &mut Solver, mut winner: Solver, losers: Vec<WorkerReturn>, before: Stats) {
    for mut r in losers {
        winner.add_flow_stats(r.solver.flow_delta_since(before));
        winner.merge_lbd_hist(&r.solver.take_lbd_hist());
    }
    winner.set_search_config(base.search_config());
    *base = winner;
}

/// Budget exhausted mid-race: adopt the most-informed worker, keeping
/// its learnt clauses so a re-solve under a fresh budget resumes from
/// real progress (the serial Unknown contract), and report the
/// aggregate conflicts of every worker.
fn adopt_unknown(
    base: &mut Solver,
    mut returns: Vec<WorkerReturn>,
    before: Stats,
    reason: Reason,
) -> SolveOutcome {
    let conflicts = returns
        .iter()
        .map(|r| r.solver.flow_delta_since(before).conflicts)
        .sum();
    if let Some((best, _)) = returns
        .iter()
        .enumerate()
        .max_by_key(|(_, r)| r.solver.stats().conflicts)
    {
        let winner = returns.swap_remove(best);
        adopt(base, winner.solver, returns, before);
    }
    SolveOutcome::Unknown { conflicts, reason }
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

    /// php(7) plus a 64-variable buffer chain with a fixed head: the
    /// chain resolves out under elimination, the pigeonhole core stays.
    fn tseitin_chain() -> Solver {
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
        s
    }

    /// A satisfiable random 3-SAT formula with `a -> b` added, queried
    /// under the contradicting assumptions `a` and `¬b`.
    fn contradicting_assumptions() -> (Solver, [Lit; 2]) {
        let (mut s, _) = random_3sat(30, 90, 0xc0de_cafe);
        let (a, b) = (Var(0), Var(1));
        s.add_clause([ln(a), lp(b)]);
        (s, [lp(a), ln(b)])
    }

    /// Calls recorded for the span at `path`.
    fn span_calls(path: &str) -> u64 {
        rsn_obs::span_snapshot().get(path).map_or(0, |s| s.calls)
    }

    #[test]
    fn ladder_spans_open_only_past_the_burst() {
        // Each case runs under its own top-level span, so tests running
        // concurrently never record under its paths.
        {
            let _parent = rsn_obs::Span::enter("burst_query");
            let mut s = pigeonhole(4);
            let out = solve_on(&mut s, &[], &Budget::unlimited(), 2);
            assert_eq!(out, SolveOutcome::Unsat);
        }
        assert!(span_calls("burst_query") > 0);
        assert_eq!(span_calls("burst_query/sat_eliminate"), 0);
        assert_eq!(span_calls("burst_query/sat_race"), 0);
        {
            // A burst-decided solve builds no clause pool, so it records
            // no pool traffic at all, not even a zero.
            let scope = rsn_obs::ScopeHandle::new();
            let _in_scope = scope.enter();
            let mut s = pigeonhole(4);
            let out = solve_on(&mut s, &[], &Budget::unlimited(), 2);
            assert_eq!(out, SolveOutcome::Unsat);
            let counters = scope.snapshot().counters;
            assert!(counters.contains_key("sat.solves"));
            assert!(!counters.contains_key("sat.pool_exports"), "{counters:?}");
            assert!(!counters.contains_key("sat.pool_imports"), "{counters:?}");
        }
        {
            // Eliminated, then the reduced instance outlives its own
            // burst and finishes serially: the race span is a sibling of
            // the elimination span, not its child.
            let _parent = rsn_obs::Span::enter("escalated_query");
            let mut s = tseitin_chain();
            let run = run_portfolio(&mut s, &[], &Budget::unlimited(), 1, 10, true);
            assert_eq!(run.outcome, SolveOutcome::Unsat);
        }
        assert_eq!(span_calls("escalated_query/sat_eliminate"), 1);
        assert_eq!(span_calls("escalated_query/sat_race"), 1);
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
            let run = run_portfolio(&mut s, &[], &Budget::unlimited(), 2, 1, true);
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
        let mut s = tseitin_chain();
        let run = run_portfolio(&mut s, &[], &Budget::unlimited(), 2, 10, true);
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
        let (mut s, assumptions) = contradicting_assumptions();
        let mut serial = s.clone();
        assert!(!serial.solve_with(&assumptions));
        let run = run_portfolio(&mut s, &assumptions, &Budget::unlimited(), 2, 1, true);
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
    fn one_wide_race_finishes_with_the_serial_loop() {
        // A race width of 1 (more threads than cores) ends the ladder
        // with the serial loop: no worker spawns, so no pool is built,
        // and every verdict matches the serial solver's.
        let (asm_solver, asm) = contradicting_assumptions();
        let cases = [
            // Outlives the production burst; elimination off.
            (
                "php(8)",
                pigeonhole(8),
                vec![],
                PHASE0_QUOTA,
                false,
                "serial",
            ),
            // Eliminated, then the reduced instance finishes serially.
            (
                "tseitin chain",
                tseitin_chain(),
                vec![],
                10,
                true,
                "eliminate",
            ),
            // No burst: the query reaches elimination and the serial
            // finish with its assumptions in place.
            (
                "assumptions",
                asm_solver,
                asm.to_vec(),
                0,
                true,
                "eliminate",
            ),
        ];
        for (name, mut s, assumptions, phase0_quota, inprocess, winner) in cases {
            let expected = s.clone().solve_with(&assumptions);
            let scope = rsn_obs::ScopeHandle::new();
            let run = {
                let _in_scope = scope.enter();
                run_portfolio(
                    &mut s,
                    &assumptions,
                    &Budget::unlimited(),
                    1,
                    phase0_quota,
                    inprocess,
                )
            };
            let verdict = if expected {
                SolveOutcome::Sat
            } else {
                SolveOutcome::Unsat
            };
            assert_eq!(run.outcome, verdict, "{name}");
            assert_eq!(run.winner, Some(winner), "{name}");
            assert!(
                !scope.snapshot().counters.contains_key("sat.pool_exports"),
                "{name}: no worker may spawn"
            );
            let core = s.core().to_vec();
            assert!(core.iter().all(|l| assumptions.contains(l)), "{name}");
            if !expected {
                assert!(!s.solve_with(&core), "{name}: core must stay unsat");
            }
        }
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
