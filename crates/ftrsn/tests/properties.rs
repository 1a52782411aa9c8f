//! Randomized tests over the core invariants of the toolchain: random
//! SoCs, random networks, random formulas and programs.
//!
//! Previously written with proptest; now driven by a deterministic
//! generator so the workspace carries no external dependencies and every
//! run exercises the same cases.

mod common;

use common::assert_narrowing_matches_reference;
use ftrsn::core::examples::fig2;
use ftrsn::core::{ControlExpr, NodeId};
use ftrsn::fault::{accessibility, analyze, FaultEffect, HardeningProfile};
use ftrsn::graph::vertex_independent_paths;
use ftrsn::ilp::{solve_ilp, IlpError, Problem};
use ftrsn::itc02::{Module, Soc};
use ftrsn::sat::{Lit, Solver, Var};
use ftrsn::sib::generate;
use ftrsn::synth::{augment_greedy, augmented_graph, AugmentOptions, Dataflow};
use ftrsn::synth::{synthesize, SynthesisOptions};

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

/// A small random SoC (1–4 modules, 1–3 chains each).
fn random_soc(rng: &mut Rng) -> Soc {
    let n_modules = 1 + rng.below(4) as usize;
    let modules = (0..n_modules)
        .map(|i| {
            let n_chains = 1 + rng.below(3) as usize;
            let chains: Vec<u32> = (0..n_chains).map(|_| 1 + rng.below(39) as u32).collect();
            Module::top(format!("m{i}"), chains)
        })
        .collect();
    Soc {
        name: "prop".into(),
        modules,
        top_registers: vec![8],
    }
}

#[test]
fn generated_sib_rsn_obeys_the_counting_contract() {
    let mut rng = Rng(0xf75_0001);
    for _case in 0..48 {
        let soc = random_soc(&mut rng);
        let rsn = generate(&soc).expect("generate");
        let chains = soc.total_chains();
        assert_eq!(rsn.muxes().count(), soc.modules.len() + chains);
        assert_eq!(
            rsn.segments().count(),
            soc.modules.len() + 2 * chains + soc.top_registers.len()
        );
        assert_eq!(
            rsn.total_bits(),
            (soc.modules.len() + chains) as u64 + soc.payload_bits()
        );
    }
}

#[test]
fn every_segment_of_a_generated_rsn_is_accessible() {
    let mut rng = Rng(0xf75_0002);
    for _case in 0..24 {
        let soc = random_soc(&mut rng);
        let rsn = generate(&soc).expect("generate");
        for seg in rsn.segments() {
            assert!(rsn.is_accessible(seg));
        }
        // And the structural engine agrees in the fault-free case.
        let acc = accessibility(&rsn, &FaultEffect::benign());
        assert_eq!(acc.accessible_segments, acc.total_segments);
    }
}

#[test]
fn augmentation_invariants_on_random_socs() {
    let mut rng = Rng(0xf75_0003);
    for _case in 0..24 {
        let soc = random_soc(&mut rng);
        let rsn = generate(&soc).expect("generate");
        let df = Dataflow::extract(&rsn);
        let aug = augment_greedy(&df, &AugmentOptions::default());
        let g = augmented_graph(&df, &aug);
        assert!(g.is_acyclic());
        assert_eq!(aug.repairs, 0);
        for v in 0..df.len() {
            if v == df.root || v == df.sink {
                continue;
            }
            // Added edges respect the level requirement of E_P.
            for &(i, j) in &aug.added {
                assert!(df.levels[j] >= df.levels[i]);
            }
            // Menger: two vertex-independent root and sink paths wherever
            // the degree constraint is enforceable (vertices next to the
            // root may be exempt; check only those with an added in-edge).
            if aug.added.iter().any(|&(_, j)| j == v) {
                assert!(vertex_independent_paths(&g, df.root, v) >= 2);
            }
        }
    }
}

#[test]
fn synthesis_preserves_reset_path_on_random_socs() {
    let mut rng = Rng(0xf75_0004);
    for _case in 0..12 {
        let soc = random_soc(&mut rng);
        let rsn = generate(&soc).expect("generate");
        let result = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
        let orig: Vec<String> = rsn
            .trace_path(&rsn.reset_config())
            .expect("orig")
            .segments(&rsn)
            .map(|s| rsn.node(s).name().to_string())
            .collect();
        let ft: Vec<String> = result
            .rsn
            .trace_path(&result.rsn.reset_config())
            .expect("ft")
            .segments(&result.rsn)
            .map(|s| result.rsn.node(s).name().to_string())
            .collect();
        assert_eq!(orig, ft);
    }
}

#[test]
fn narrowed_queries_match_the_reference_on_random_socs() {
    // Synthesis materializes the selects of these small networks, and
    // their select trees grow exponentially with depth: beyond 32 nodes
    // the CNF has 8 515 to 859 325 variables and one reference check
    // takes minutes (ROADMAP item 2), so only the smaller syntheses run.
    let mut rng = Rng(0xf75_000a);
    let mut syntheses = 0;
    for _case in 0..16 {
        let soc = random_soc(&mut rng);
        let rsn = generate(&soc).expect("generate");
        assert_narrowing_matches_reference(&rsn);
        let ft = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesis");
        if ft.rsn.node_count() <= 32 {
            assert_narrowing_matches_reference(&ft.rsn);
            syntheses += 1;
        }
    }
    assert!(syntheses >= 4, "only {syntheses} syntheses checked");
}

#[test]
fn ft_metric_dominates_original_on_random_socs() {
    let mut rng = Rng(0xf75_0005);
    for _case in 0..8 {
        let soc = random_soc(&mut rng);
        let rsn = generate(&soc).expect("generate");
        let before = analyze(&rsn, HardeningProfile::unhardened());
        let result = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
        let after = analyze(&result.rsn, HardeningProfile::hardened());
        assert!(after.worst_segments >= before.worst_segments);
        assert!(after.avg_segments + 1e-9 >= before.avg_segments);
        // The headline property: no single fault loses more than a couple
        // of segments in the fault-tolerant network.
        let total = result.rsn.segments().count() as f64;
        assert!(
            after.worst_segments >= (total - 2.0) / total,
            "worst {} on {} segments",
            after.worst_segments,
            total
        );
    }
}

#[test]
fn random_cnf_agrees_with_brute_force() {
    let mut rng = Rng(0xf75_0006);
    for _case in 0..48 {
        let n_clauses = 1 + rng.below(23) as usize;
        let clauses: Vec<Vec<(u32, bool)>> = (0..n_clauses)
            .map(|_| {
                let len = 1 + rng.below(3) as usize;
                (0..len)
                    .map(|_| (rng.below(6) as u32, rng.bool()))
                    .collect()
            })
            .collect();
        let mut solver = Solver::new();
        for _ in 0..6 {
            solver.new_var();
        }
        let mut trivially_unsat = false;
        for c in &clauses {
            let lits: Vec<Lit> = c
                .iter()
                .map(|&(v, pos)| Lit::with_polarity(Var(v), pos))
                .collect();
            if !solver.add_clause(lits) {
                trivially_unsat = true;
            }
        }
        let brute = (0u32..64).any(|m| {
            clauses
                .iter()
                .all(|c| c.iter().any(|&(v, pos)| (((m >> v) & 1) == 1) == pos))
        });
        let got = if trivially_unsat {
            false
        } else {
            solver.solve()
        };
        assert_eq!(got, brute, "clauses {clauses:?}");
    }
}

#[test]
fn random_binary_ilp_agrees_with_brute_force() {
    let mut rng = Rng(0xf75_0007);
    for _case in 0..48 {
        let n = 3 + rng.below(3) as usize;
        let mut p = Problem::new();
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_binary_var(format!("x{i}"), rng.below(16) as f64 - 8.0))
            .collect();
        let n_rows = 1 + rng.below(3);
        for _ in 0..n_rows {
            let terms: Vec<_> = vars
                .iter()
                .map(|&v| (v, rng.below(8) as f64 - 4.0))
                .collect();
            let rhs = rng.below(12) as f64 - 4.0;
            if rng.bool() {
                p.add_le(terms, rhs);
            } else {
                p.add_ge(terms, rhs);
            }
        }
        let mut best: Option<f64> = None;
        for m in 0u32..(1 << n) {
            let x: Vec<f64> = (0..n).map(|j| f64::from((m >> j) & 1)).collect();
            if p.is_feasible(&x, 1e-9) {
                let obj = p.objective_value(&x);
                best = Some(best.map_or(obj, |b: f64| b.min(obj)));
            }
        }
        match (solve_ilp(&p), best) {
            (Ok(sol), Some(b)) => {
                assert!((sol.objective - b).abs() < 1e-5);
                assert!(p.is_feasible(&sol.values, 1e-5));
            }
            (Err(IlpError::Infeasible), None) => {}
            (got, want) => panic!("mismatch {got:?} vs {want:?}"),
        }
    }
}

#[test]
fn expr_simplify_is_equivalence_preserving() {
    let mut rng = Rng(0xf75_0008);
    for _case in 0..48 {
        // Build a random expression over register bits of fig2's A.
        let rsn = fig2();
        let a = rsn.find("A").expect("A");
        let mut stack: Vec<ControlExpr> = vec![ControlExpr::reg(a, 0)];
        let n_ops = 1 + rng.below(11);
        for _ in 0..n_ops {
            let e1 = stack.pop().unwrap_or(ControlExpr::TRUE);
            let leaf = if rng.below(3) == 0 {
                ControlExpr::reg(a, 0)
            } else {
                ControlExpr::reg(a, 1)
            };
            let combined = match rng.below(4) {
                0 => e1 & leaf,
                1 => e1 | leaf,
                2 => !e1,
                _ => ControlExpr::And(vec![e1, ControlExpr::TRUE, leaf]),
            };
            stack.push(combined);
        }
        let expr = stack.pop().expect("nonempty");
        let simplified = expr.simplified();
        for m in 0u8..4 {
            let mut reg = |n: NodeId, b: u32| n == a && ((m >> b.min(1)) & 1) == 1;
            let v1 = expr.eval_with(&mut reg, &mut |_| false);
            let v2 = simplified.eval_with(&mut reg, &mut |_| false);
            assert_eq!(v1, v2);
        }
    }
}

#[test]
fn engine_agrees_with_bmc_on_random_socs() {
    // Random single-module SoCs; randomly chosen faults; the structural
    // engine and the BMC must agree on every segment.
    let mut rng = Rng(0xf75_0009);
    for _case in 0..24 {
        let n_chains = 1 + rng.below(2) as usize;
        let chains: Vec<u32> = (0..n_chains).map(|_| 1 + rng.below(7) as u32).collect();
        let soc = Soc {
            name: "prop".into(),
            modules: vec![Module::top("m", chains)],
            top_registers: vec![4],
        };
        let rsn = generate(&soc).expect("generate");
        let faults = ftrsn::fault::fault_universe(&rsn);
        let fault = faults[rng.below(faults.len() as u64) as usize];
        let effect = ftrsn::fault::effect_of(&rsn, &fault, HardeningProfile::unhardened());
        let structural = accessibility(&rsn, &effect);
        for (seg, bmc_ok) in ftrsn::bmc::bmc_accessibility(&rsn, &effect, 3) {
            assert_eq!(
                structural.accessible[seg.index()],
                bmc_ok,
                "fault {} segment {}",
                fault,
                rsn.node(seg).name()
            );
        }
    }
}
