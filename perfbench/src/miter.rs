//! `miter`: fault-distinguishability miters (`FaultDistinguisher::new` +
//! `distinguishable_under`) on the SAT portfolio at the host's thread
//! count — the only workload that reaches the escalation ladder.
//!
//! Per SoC one cross-class pair with equal local-loss sets (the miter's
//! structural shortcut does not apply, so even the Distinguishable answer
//! needs search; its verdict is a golden), and for d695 and t512505 one
//! same-class pair (the collapser proved the two faults equivalent, so
//! the miter must answer Equivalent — search hard). Against one solver
//! thread the escalation ladder wins on the d695 pair (1.5–1.7 s to
//! 1.1–1.2 s) and loses on the t512505 pair, so one ladder change can win
//! and lose in the same run.
//!
//! Solve times of random pairs of one SoC spread from 0.2 s to 6.8 s, so
//! a seeded draw would make the ten-seed spread measure the draw rather
//! than the code. The same-class pair is therefore fixed per SoC: the
//! median-cost pair of a 16-pair random sample. The seed draws the
//! cross-class pair from a pool: the sample's pairs whose solve time lay
//! within 12 % of its median (25 % for the cheap pairs of d695 and
//! p34392). Times measured at 2 threads on a 2-core host.
//!
//! The same-class pairs of a586710 and p34392 are left out, so that a
//! pass (about 6 s) runs three times in a 20 s window. The a586710 pair
//! (4.2 s) never reaches the ladder: it ends after 2139 conflicts, inside
//! the 3000-conflict serial burst. With the p34392 pair (4.5–5.1 s, where
//! the ladder wins) a pass would take 11 s, one or two per window.

use rsn_bmc::{Distinguishability, FaultDistinguisher};
use rsn_budget::Budget;
use rsn_core::Rsn;
use rsn_fault::{effect_of, fault_universe, FaultClasses, FaultEffect, HardeningProfile};

use crate::golden::{Facts, Goldens};
use crate::rng::Rng;
use crate::runner::{JobOut, Tracer, Workload};

/// Per SoC: the same-class pair, if any, and the cross-class pool (fault
/// indices into `fault_universe`). p93791's hardest miter takes ~45 s
/// and is left out.
type Pairs = (&'static str, Option<(u32, u32)>, &'static [(u32, u32)]);
pub const PAIRS: [Pairs; 4] = [
    (
        "d695",
        Some((961, 965)),
        &[
            (2629, 14),
            (2958, 1919),
            (1335, 1457),
            (2246, 1658),
            (2203, 2172),
            (1112, 1475),
        ],
    ),
    (
        "t512505",
        Some((611, 615)),
        &[
            (2542, 272),
            (210, 726),
            (2996, 365),
            (2135, 949),
            (2776, 1545),
            (693, 1041),
            (234, 2642),
            (290, 1701),
            (963, 1566),
        ],
    ),
    (
        "a586710",
        None,
        &[
            (420, 93),
            (700, 599),
            (346, 687),
            (407, 156),
            (660, 713),
            (464, 72),
            (92, 557),
            (391, 566),
            (196, 680),
        ],
    ),
    (
        "p34392",
        None,
        &[
            (2329, 1693),
            (1072, 582),
            (738, 999),
            (1589, 2288),
            (1234, 2118),
            (134, 215),
        ],
    ),
];

/// One miter query.
pub struct Query {
    pub name: String,
    net: usize,
    /// Fault indices into the network's `fault_universe`.
    faults: (usize, usize),
    a: FaultEffect,
    b: FaultEffect,
    /// `true` for the same-class pair.
    pub equivalent: bool,
    /// The expected verdict, `None` when the reference is missing.
    expect: Option<Distinguishability>,
    /// Why `expect` holds, for failure messages.
    why: &'static str,
}

pub struct Miter {
    nets: Vec<(Rsn, usize)>,
    pub queries: Vec<Query>,
    threads: usize,
}

fn verdict_code(v: Distinguishability) -> f64 {
    match v {
        Distinguishability::Equivalent => 0.0,
        Distinguishability::Distinguishable => 1.0,
        Distinguishability::Unknown { .. } => 2.0,
    }
}

impl Miter {
    /// Set-up: networks, fault effects and the seeded picks. With `all`,
    /// every cross-class pool pair becomes a query (for recording
    /// goldens).
    pub fn setup(seed: u64, threads: usize, all: bool) -> Miter {
        let mut rng = Rng::new(seed);
        let profile = HardeningProfile::unhardened();
        let mut nets = Vec::new();
        let (mut queries, mut cross_queries) = (Vec::new(), Vec::new());
        for (name, same, cross) in PAIRS {
            let soc = rsn_itc02::by_name(name).expect("embedded SoC");
            let rsn = rsn_sib::generate(&soc).expect("SIB generation succeeds");
            let faults = fault_universe(&rsn);
            if let Some((a, b)) = same {
                let (a, b) = (a as usize, b as usize);
                queries.push(Query {
                    name: format!("{name}/equiv({a},{b})"),
                    net: nets.len(),
                    faults: (a, b),
                    a: effect_of(&rsn, &faults[a], profile),
                    b: effect_of(&rsn, &faults[b], profile),
                    equivalent: true,
                    expect: None,
                    why: "the collapser proved the pair equivalent",
                });
            }
            let picks: Vec<(u32, u32)> = if all {
                cross.to_vec()
            } else {
                vec![cross[rng.below(cross.len())]]
            };
            for (a, b) in picks {
                let (a, b) = (a as usize, b as usize);
                cross_queries.push(Query {
                    name: format!("{name}/dist({a},{b})"),
                    net: nets.len(),
                    faults: (a, b),
                    a: effect_of(&rsn, &faults[a], profile),
                    b: effect_of(&rsn, &faults[b], profile),
                    equivalent: false,
                    expect: None,
                    why: "the verdict recorded at the seed commit",
                });
            }
            nets.push((rsn, soc.depth() + 1));
        }
        // Slowest first: the partial pass at the end of the window then
        // re-samples the queries that dominate the job list.
        queries.reverse();
        cross_queries.reverse();
        queries.extend(cross_queries);
        Miter {
            nets,
            queries,
            threads,
        }
    }

    /// Solves every cross-class pool pair once and returns its verdict
    /// as a golden.
    pub fn record_goldens(threads: usize) -> Vec<(String, Facts)> {
        let mut m = Miter::setup(0, threads, true);
        let mut out = Vec::new();
        for j in 0..m.queries.len() {
            if m.queries[j].equivalent {
                continue;
            }
            let (verdict, _) = m.run(j, &Tracer::off());
            let facts = Facts::from([("verdict".to_string(), verdict_code(verdict))]);
            out.push((m.queries[j].name.clone(), facts));
        }
        out
    }
}

impl Workload for Miter {
    type Out = (Distinguishability, JobOut);

    fn jobs(&self) -> usize {
        self.queries.len()
    }

    fn job_name(&self, j: usize) -> String {
        self.queries[j].name.clone()
    }

    /// Same-class pairs expect Equivalent once the collapser has put both
    /// faults in one class; cross-class pairs expect their golden verdict.
    fn load_references(&mut self, goldens: &Goldens) {
        let profile = HardeningProfile::unhardened();
        let classes: Vec<Option<FaultClasses>> = (0..self.nets.len())
            .map(|net| {
                let rsn = &self.nets[net].0;
                self.queries
                    .iter()
                    .any(|q| q.equivalent && q.net == net)
                    .then(|| FaultClasses::build(rsn, &fault_universe(rsn), profile))
            })
            .collect();
        for q in &mut self.queries {
            let (a, b) = q.faults;
            q.expect = if q.equivalent {
                let c = classes[q.net]
                    .as_ref()
                    .expect("classes of a same-class pair's net");
                (c.class_of(a) == c.class_of(b)).then_some(Distinguishability::Equivalent)
            } else {
                goldens
                    .get("miter", &q.name)
                    .and_then(|f| f.get("verdict"))
                    .map(|&v| {
                        if v == 0.0 {
                            Distinguishability::Equivalent
                        } else {
                            Distinguishability::Distinguishable
                        }
                    })
            };
        }
    }

    fn run(&mut self, j: usize, tr: &Tracer) -> (Distinguishability, JobOut) {
        let q = &self.queries[j];
        let (rsn, steps) = &self.nets[q.net];
        let mut out = JobOut::default();
        let mut miter = tr.layer("rsn-bmc.miter_build_s", || {
            let mut m = FaultDistinguisher::new(rsn, *steps, &q.a, &q.b);
            m.set_threads(self.threads);
            m
        });
        if tr.on() {
            let reg = rsn_obs::metrics_snapshot();
            out.add(
                "miter_vars",
                reg.gauges.get("bmc.miter.vars").copied().unwrap_or(0.0),
            );
            out.add(
                "miter_clauses",
                reg.gauges.get("bmc.miter.clauses").copied().unwrap_or(0.0),
            );
        }
        let span = if q.equivalent {
            "rsn-bmc.solve_equiv_s"
        } else {
            "rsn-bmc.solve_dist_s"
        };
        let verdict = tr.layer(span, || miter.distinguishable_under(&Budget::unlimited()));
        (verdict, out)
    }

    fn check(&mut self, j: usize, (verdict, mut out): (Distinguishability, JobOut)) -> JobOut {
        let q = &self.queries[j];
        match q.expect {
            Some(want) => out.check(verdict == want, || {
                format!("verdict {verdict:?}, expected {want:?}: {}", q.why)
            }),
            None => out.check(false, || {
                "no reference: pair not in one class or no golden".into()
            }),
        }
        out
    }
}
