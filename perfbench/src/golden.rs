//! Seed-recorded reference values ("goldens"): per workload and job, the
//! named facts a correct run reproduces. Recorded once by direct library
//! calls (`perfbench record`) and embedded at compile time.

use std::collections::BTreeMap;

use rsn_obs::json::Json;

use crate::json::{self, Value};

use crate::runner::JobOut;

/// Named facts of one job.
pub type Facts = BTreeMap<String, f64>;

/// The embedded reference document.
const EMBEDDED: &str = include_str!("../goldens.json");

/// workload → job → facts.
#[derive(Debug, Default, Clone)]
pub struct Goldens(BTreeMap<String, BTreeMap<String, Facts>>);

impl Goldens {
    /// The goldens compiled into this binary.
    pub fn embedded() -> Goldens {
        Goldens::parse(EMBEDDED).expect("perfbench/goldens.json is valid")
    }

    fn parse(text: &str) -> Result<Goldens, String> {
        let doc = json::parse(text)?;
        let mut out = Goldens::default();
        let Value::Obj(workloads) = doc else {
            return Err("goldens: top level is not an object".into());
        };
        for (w, jobs) in workloads {
            let Value::Obj(jobs) = jobs else {
                return Err(format!("goldens: {w} is not an object"));
            };
            for (job, facts) in jobs {
                let Value::Obj(facts) = facts else {
                    return Err(format!("goldens: {w}/{job} is not an object"));
                };
                let mut f = Facts::new();
                for (k, v) in facts {
                    let v = v
                        .as_f64()
                        .ok_or_else(|| format!("goldens: {w}/{job}/{k}"))?;
                    f.insert(k, v);
                }
                out.0.entry(w.clone()).or_default().insert(job, f);
            }
        }
        Ok(out)
    }

    /// Facts recorded for `job` of `workload`.
    pub fn get(&self, workload: &str, job: &str) -> Option<&Facts> {
        self.0.get(workload).and_then(|w| w.get(job))
    }

    /// Every job recorded for `workload`, in key order.
    pub fn jobs(&self, workload: &str) -> impl Iterator<Item = (&String, &Facts)> {
        self.0.get(workload).into_iter().flatten()
    }

    /// Replaces (or adds) the facts of one job.
    pub fn set(&mut self, workload: &str, job: &str, facts: Facts) {
        self.0
            .entry(workload.to_string())
            .or_default()
            .insert(job.to_string(), facts);
    }

    /// Mutable access for the perturbation test.
    #[cfg(test)]
    pub fn get_mut(&mut self, workload: &str, job: &str) -> Option<&mut Facts> {
        self.0.get_mut(workload).and_then(|w| w.get_mut(job))
    }

    /// Pretty JSON, keys sorted.
    pub fn to_json(&self) -> String {
        let mut doc = Json::obj();
        for (w, jobs) in &self.0 {
            let mut jo = Json::obj();
            for (job, facts) in jobs {
                let mut fo = Json::obj();
                for (k, v) in facts {
                    fo.set(k, Json::Num(*v));
                }
                jo.set(job, fo);
            }
            doc.set(w, jo);
        }
        doc.to_string_pretty(2)
    }
}

/// Equal up to float round-off (parallel reductions may sum in another
/// order); integers compare exactly.
fn same(a: f64, b: f64) -> bool {
    a == b || (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Compares a job's facts with its goldens, recording each mismatch,
/// each missing golden and each fact without a golden as a failure.
pub fn compare(expected: Option<&Facts>, actual: &Facts, out: &mut JobOut) {
    let Some(expected) = expected else {
        out.failures.push("no golden recorded for this job".into());
        return;
    };
    for (k, want) in expected {
        match actual.get(k) {
            Some(got) => out.check(same(*got, *want), || {
                format!("{k}: got {got}, golden {want}")
            }),
            None => out.failures.push(format!("{k}: not produced")),
        }
    }
    for k in actual.keys().filter(|k| !expected.contains_key(*k)) {
        out.failures.push(format!("{k}: no golden"));
    }
}
