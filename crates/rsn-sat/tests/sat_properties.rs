//! Randomized validation of the CDCL solver against brute force.
//!
//! Previously written with proptest; now driven by a deterministic
//! xorshift-style generator so the workspace carries no external
//! dependencies and every run exercises the same cases.

use rsn_sat::{CnfBuilder, Lit, Solver, Var};

/// Deterministic splitmix64-style generator for reproducible cases.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bool(&mut self) -> bool {
        self.next() & 1 == 1
    }
}

fn random_clauses(rng: &mut Rng, num_vars: u32, max_clauses: u64) -> Vec<Vec<Lit>> {
    let nc = 1 + rng.below(max_clauses) as usize;
    (0..nc)
        .map(|_| {
            let len = 1 + rng.below(4) as usize;
            (0..len)
                .map(|_| Lit::with_polarity(Var(rng.below(num_vars as u64) as u32), rng.bool()))
                .collect()
        })
        .collect()
}

fn brute_force(num_vars: usize, clauses: &[Vec<Lit>]) -> Option<u32> {
    (0u32..(1 << num_vars)).find(|&m| {
        clauses.iter().all(|c| {
            c.iter()
                .any(|&l| (((m >> l.var().0) & 1) == 1) == l.polarity())
        })
    })
}

#[test]
fn solver_agrees_with_brute_force() {
    let mut rng = Rng(0x5eed_0001);
    for _case in 0..128 {
        let clauses = random_clauses(&mut rng, 8, 40);
        let mut s = Solver::new();
        for _ in 0..8 {
            s.new_var();
        }
        let mut trivially_unsat = false;
        for c in &clauses {
            if !s.add_clause(c.iter().copied()) {
                trivially_unsat = true;
            }
        }
        let expected = brute_force(8, &clauses).is_some();
        let got = if trivially_unsat { false } else { s.solve() };
        assert_eq!(got, expected, "clauses: {clauses:?}");
        if got {
            for c in &clauses {
                assert!(
                    c.iter().any(|&l| s.lit_value_model(l) == Some(true)),
                    "model does not satisfy {c:?}"
                );
            }
        }
    }
}

#[test]
fn assumptions_partition_the_search_space() {
    // SAT(F) == SAT(F ∧ x) ∨ SAT(F ∧ ¬x) for any pivot variable.
    let mut rng = Rng(0x5eed_0002);
    for _case in 0..128 {
        let clauses = random_clauses(&mut rng, 6, 20);
        let pivot = rng.below(6) as u32;
        let mut s = Solver::new();
        for _ in 0..6 {
            s.new_var();
        }
        let mut trivially_unsat = false;
        for c in &clauses {
            if !s.add_clause(c.iter().copied()) {
                trivially_unsat = true;
            }
        }
        if trivially_unsat {
            continue;
        }
        let v = Var(pivot);
        let pos = s.solve_with(&[Lit::pos(v)]);
        let neg = s.solve_with(&[Lit::neg(v)]);
        let plain = s.solve();
        assert_eq!(plain, pos || neg, "pivot {pivot} clauses {clauses:?}");
    }
}

#[test]
fn extracted_cores_are_valid_and_shrunk_cores_are_minimal() {
    // For every unsatisfiable solve-with-assumptions: the extracted core
    // is a subset of the assumptions, re-solving with only the core is
    // still unsatisfiable, and after deletion-based minimization
    // dropping any single member makes the query satisfiable.
    let mut rng = Rng(0x5eed_0005);
    let budget = rsn_budget::Budget::unlimited();
    let mut unsat_cases = 0;
    for _case in 0..256 {
        let clauses = random_clauses(&mut rng, 6, 24);
        let mut s = Solver::new();
        for _ in 0..6 {
            s.new_var();
        }
        let mut trivially_unsat = false;
        for c in &clauses {
            if !s.add_clause(c.iter().copied()) {
                trivially_unsat = true;
            }
        }
        if trivially_unsat {
            continue;
        }
        let n_assum = 1 + rng.below(6) as usize;
        let assumptions: Vec<Lit> = (0..n_assum)
            .map(|_| Lit::with_polarity(Var(rng.below(6) as u32), rng.bool()))
            .collect();
        if s.solve_with(&assumptions) {
            continue; // satisfiable under these assumptions
        }
        let core = s.core().to_vec();
        unsat_cases += 1;
        assert!(
            core.iter().all(|l| assumptions.contains(l)),
            "core {core:?} is not a subset of assumptions {assumptions:?}"
        );
        assert!(
            !s.solve_with(&core),
            "core {core:?} does not reproduce unsatisfiability ({clauses:?})"
        );
        let (shrunk, minimal) = s.shrink_core_under(&[], &core, &budget);
        assert!(minimal, "unlimited budget must finish the pass");
        assert!(
            !s.solve_with(&shrunk),
            "shrunk core {shrunk:?} is no longer a core"
        );
        assert!(shrunk.len() <= core.len());
        for drop in 0..shrunk.len() {
            let without: Vec<Lit> = shrunk
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != drop)
                .map(|(_, &l)| l)
                .collect();
            assert!(
                s.solve_with(&without),
                "member {:?} of shrunk core {shrunk:?} is redundant",
                shrunk[drop]
            );
        }
    }
    assert!(unsat_cases >= 32, "seed produced too few unsat cases");
}

#[test]
fn core_shrinking_respects_budget() {
    // A zero-work budget degrades to the unminimized (but still valid)
    // core instead of hanging.
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
    // x0 ∧ x1 ∧ x2 ∧ x3 assumed, with clause ¬x1 ∨ ¬x2 — core {x1, x2}.
    s.add_clause([Lit::neg(vars[1]), Lit::neg(vars[2])]);
    let assumptions: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();
    assert!(!s.solve_with(&assumptions), "unsat");
    let core = s.core().to_vec();
    let exhausted = rsn_budget::Budget::unlimited().with_work_limit(0);
    let _ = exhausted.check(); // trip it
    let (kept, minimal) = s.shrink_core_under(&[], &core, &exhausted);
    assert_eq!(kept, core, "exhausted budget must return the input core");
    assert!(!minimal);
    // With a real budget the core shrinks to exactly {x1, x2}.
    let (shrunk, minimal) = s.shrink_core_under(&[], &core, &rsn_budget::Budget::unlimited());
    assert!(minimal);
    let mut got = shrunk.clone();
    got.sort_unstable();
    assert_eq!(got, vec![Lit::pos(vars[1]), Lit::pos(vars[2])]);
}

#[test]
fn core_shrinking_keeps_the_hard_prefix() {
    // x0 ∧ x1 ∧ x2 ∧ x3 assumed, with clause ¬x0 ∨ ¬x1 ∨ ¬x2. With x0 as
    // the hard prefix every trial keeps x0 asserted, so the soft core is
    // exactly {x1, x2} and never names x0 itself.
    let mut s = Solver::new();
    let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
    s.add_clause([Lit::neg(vars[0]), Lit::neg(vars[1]), Lit::neg(vars[2])]);
    let assumptions: Vec<Lit> = vars.iter().map(|&v| Lit::pos(v)).collect();
    assert!(!s.solve_with(&assumptions), "unsat");
    let core = s.core().to_vec();
    assert!(
        core.contains(&Lit::pos(vars[0])),
        "x0 takes part in the core"
    );
    let hard = [Lit::pos(vars[0])];
    let unlimited = rsn_budget::Budget::unlimited();
    let (shrunk, minimal) = s.shrink_core_under(&hard, &core, &unlimited);
    assert!(minimal);
    let mut got = shrunk.clone();
    got.sort_unstable();
    assert_eq!(got, vec![Lit::pos(vars[1]), Lit::pos(vars[2])]);
    // The soft core is a core only on top of the prefix.
    assert!(s.solve_with(&shrunk));
    let with_hard: Vec<Lit> = hard.iter().chain(&shrunk).copied().collect();
    assert!(!s.solve_with(&with_hard));
    // Without a prefix the whole core is minimized, x0 included.
    let (all, minimal) = s.shrink_core_under(&[], &core, &unlimited);
    assert!(minimal);
    assert_eq!(all.len(), 3);
}

/// Random 3-SAT with three distinct variables per clause. The
/// clause/variable ratio swings below and above the phase transition,
/// so the generated suite contains both satisfiable and unsatisfiable
/// instances.
fn random_3sat(rng: &mut Rng, num_vars: u32, num_clauses: usize) -> Vec<Vec<Lit>> {
    (0..num_clauses)
        .map(|_| {
            let mut vars: Vec<u32> = Vec::with_capacity(3);
            while vars.len() < 3 {
                let v = rng.below(num_vars as u64) as u32;
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
            vars.into_iter()
                .map(|v| Lit::with_polarity(Var(v), rng.bool()))
                .collect()
        })
        .collect()
}

#[test]
fn portfolio_agrees_with_serial_on_parsed_3sat() {
    // Every random instance solves to the same verdict serially and
    // under a 4-worker portfolio, and a 1-worker portfolio is
    // bit-identical to the serial loop (same verdict, same statistics).
    let budget = rsn_budget::Budget::unlimited();
    let mut rng = Rng(0x5eed_0007);
    let (mut sat_seen, mut unsat_seen) = (0u32, 0u32);
    for case in 0..48usize {
        let num_vars = 8;
        // Sweep the clause count across the 3-SAT phase transition
        // (~4.26 · n) so both verdicts occur.
        let num_clauses = 16 + case;
        let clauses = random_3sat(&mut rng, num_vars, num_clauses);
        let mut serial = Solver::new();
        for _ in 0..num_vars {
            serial.new_var();
        }
        for c in &clauses {
            serial.add_clause(c.iter().copied());
        }
        let mut one = serial.clone();
        let mut wide = serial.clone();
        one.set_threads(1);
        wide.set_threads(4);
        let serial_out = serial.solve_with_under(&[], &budget);
        let one_out = one.solve_with_under(&[], &budget);
        let wide_out = wide.solve_with_under(&[], &budget);
        assert_eq!(serial_out, one_out, "case {case}: 1-thread diverged");
        assert_eq!(
            serial.stats(),
            one.stats(),
            "case {case}: threads==1 must replay the serial search exactly"
        );
        assert_eq!(
            serial_out, wide_out,
            "case {case}: portfolio verdict flipped"
        );
        match serial_out {
            rsn_sat::SolveOutcome::Sat => sat_seen += 1,
            rsn_sat::SolveOutcome::Unsat => unsat_seen += 1,
            rsn_sat::SolveOutcome::Unknown { .. } => {
                panic!("case {case}: unlimited budget cannot exhaust")
            }
        }
    }
    assert!(sat_seen >= 8, "suite too easy: only {sat_seen} sat cases");
    assert!(
        unsat_seen >= 8,
        "suite too easy: only {unsat_seen} unsat cases"
    );
}

#[test]
fn tseitin_gates_respect_semantics() {
    let mut rng = Rng(0x5eed_0004);
    for _case in 0..64 {
        let n = 3 + rng.below(3) as usize;
        let inputs: Vec<bool> = (0..n).map(|_| rng.bool()).collect();
        let mut cnf = CnfBuilder::new();
        let lits: Vec<Lit> = inputs.iter().map(|_| cnf.new_lit()).collect();
        let and = cnf.and(lits.iter().copied());
        let or = cnf.or(lits.iter().copied());
        for (l, &v) in lits.iter().zip(&inputs) {
            cnf.assert_lit(if v { *l } else { !*l });
        }
        assert!(cnf.solver_mut().solve());
        let and_v = cnf.solver_mut().lit_value_model(and).expect("assigned");
        let or_v = cnf.solver_mut().lit_value_model(or).expect("assigned");
        assert_eq!(and_v, inputs.iter().all(|&b| b), "inputs {inputs:?}");
        assert_eq!(or_v, inputs.iter().any(|&b| b), "inputs {inputs:?}");
    }
}
