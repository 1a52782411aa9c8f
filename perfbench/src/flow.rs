//! `flow`: the paper's Table I experiment. Every embedded SoC, in table
//! order, runs generate → SIB fault sweep → synthesis → FT fault sweep →
//! area accounting → Verilog + ICL export, through the same public entry
//! points `table1` and `soc2rsn` call.

use rsn_budget::Budget;
use rsn_fault::{analyze_parallel_budgeted, HardeningProfile, WeightModel};
use rsn_itc02::{Soc, TableTargets};
use rsn_synth::area::{costs, AreaModel, Overhead};
use rsn_synth::SynthesisOptions;

use crate::golden::{self, Facts, Goldens};
use crate::runner::{JobOut, Tracer, Workload};

/// The 13 embedded SoCs in Table I order.
pub const TABLE_ORDER: [&str; 13] = [
    "u226", "d281", "d695", "h953", "g1023", "x1331", "f2126", "q12710", "t512505", "a586710",
    "p22081", "p34392", "p93791",
];

pub struct Flow {
    socs: Vec<Soc>,
    /// Table I rows, one per SoC (references).
    paper: Vec<&'static TableTargets>,
    goldens: Goldens,
    /// Facts of the latest execution per job (for `perfbench record`).
    pub facts: Vec<Facts>,
}

impl Flow {
    /// Set-up: the SoC descriptions.
    pub fn setup() -> Flow {
        let socs: Vec<_> = TABLE_ORDER
            .iter()
            .map(|n| rsn_itc02::by_name(n).expect("embedded SoC"))
            .collect();
        let facts = vec![Facts::new(); socs.len()];
        Flow {
            socs,
            paper: Vec::new(),
            goldens: Goldens::default(),
            facts,
        }
    }
}

/// Reads a gauge the last call set (traced executions only).
fn gauge(name: &str) -> f64 {
    rsn_obs::metrics_snapshot()
        .gauges
        .get(name)
        .copied()
        .unwrap_or(0.0)
}

/// The calls' results, checked after the timed region.
pub struct FlowOut {
    rsn: rsn_core::Rsn,
    sib: rsn_fault::FaultToleranceReport,
    synth: rsn_synth::SynthesisResult,
    ft: rsn_fault::FaultToleranceReport,
    overhead: Overhead,
    verilog: String,
    icl: String,
    raw: JobOut,
}

impl Workload for Flow {
    type Out = FlowOut;

    fn jobs(&self) -> usize {
        self.socs.len()
    }

    fn job_name(&self, j: usize) -> String {
        self.socs[j].name.clone()
    }

    fn load_references(&mut self, goldens: &Goldens) {
        self.paper = TABLE_ORDER
            .iter()
            .map(|n| rsn_itc02::table_targets(n).expect("Table I row"))
            .collect();
        self.goldens = goldens.clone();
    }

    fn run(&mut self, j: usize, tr: &Tracer) -> FlowOut {
        let soc = &self.socs[j];
        let budget = Budget::unlimited();
        let mut out = JobOut::default();

        let rsn = tr
            .layer("rsn-sib.generate_s", || rsn_sib::generate(soc))
            .expect("SIB generation succeeds on the embedded suite");
        let sib = tr.layer("rsn-fault.analyze_sib_s", || {
            analyze_parallel_budgeted(
                &rsn,
                HardeningProfile::unhardened(),
                WeightModel::Ports,
                &budget,
            )
        });
        if tr.on() {
            out.add("util_sum", gauge("fault.worker_utilization"));
            out.add("util_n", 1.0);
        }
        let synth = tr
            .layer("rsn-synth.synthesize_s", || {
                rsn_synth::synthesize(&rsn, &SynthesisOptions::new())
            })
            .expect("synthesis succeeds on the embedded suite");
        if tr.on() {
            out.add("augment_s", gauge("synth.phases.augment_ms") * 1e-3);
        }
        let ft = tr.layer("rsn-fault.analyze_ft_s", || {
            analyze_parallel_budgeted(
                &synth.rsn,
                HardeningProfile::hardened(),
                WeightModel::Ports,
                &budget,
            )
        });
        if tr.on() {
            out.add("util_sum", gauge("fault.worker_utilization"));
            out.add("util_n", 1.0);
        }
        let overhead = tr.layer("rsn-synth.area", || {
            let model = AreaModel::default();
            Overhead::between(&costs(&rsn, &model), &costs(&synth.rsn, &model))
        });
        let (verilog, icl) = tr.layer("rsn-export.export_s", || {
            (
                rsn_export::to_verilog(&synth.rsn),
                rsn_export::to_icl(&synth.rsn),
            )
        });
        FlowOut {
            rsn,
            sib,
            synth,
            ft,
            overhead,
            verilog,
            icl,
            raw: out,
        }
    }

    fn check(&mut self, j: usize, o: FlowOut) -> JobOut {
        let (soc, paper) = (&self.socs[j], self.paper[j]);
        let FlowOut {
            rsn,
            sib,
            synth,
            ft,
            overhead,
            verilog,
            icl,
            raw: mut out,
        } = o;

        // Checks, outside every span. Table I characteristics come from
        // the paper's table, not from the code under test.
        let segments = rsn.segments().count();
        let got = (
            soc.modules.len(),
            soc.depth() + 1,
            rsn.muxes().count(),
            segments,
            rsn.total_bits(),
        );
        let want = (
            paper.modules,
            paper.levels,
            paper.mux,
            paper.segments,
            paper.bits,
        );
        out.check(got == want, || {
            format!("characteristics (modules, levels, mux, segments, bits) {got:?} != Table I {want:?}")
        });
        out.check(sib.worst_segments == 0.0, || {
            format!(
                "SIB worst segment accessibility {} != 0",
                sib.worst_segments
            )
        });
        let s = segments as f64;
        out.check(ft.worst_segments == (s - 1.0) / s, || {
            format!(
                "FT worst segment accessibility {} != (S-1)/S with S = {segments}",
                ft.worst_segments
            )
        });
        out.check(sib.is_complete() && ft.is_complete(), || {
            "a sweep left faults unevaluated".into()
        });

        let mut facts = Facts::new();
        for (prefix, r) in [("sib", &sib), ("ft", &ft)] {
            facts.insert(format!("{prefix}.faults"), r.fault_count as f64);
            facts.insert(format!("{prefix}.classes"), r.classes as f64);
            facts.insert(format!("{prefix}.worst_bits"), r.worst_bits);
            facts.insert(format!("{prefix}.avg_bits"), r.avg_bits);
            facts.insert(format!("{prefix}.avg_segments"), r.avg_segments);
        }
        facts.insert("synth.added_edges".into(), synth.report.added_edges as f64);
        facts.insert("synth.added_muxes".into(), synth.report.added_muxes as f64);
        facts.insert("synth.added_bits".into(), synth.report.added_bits as f64);
        facts.insert("ratio.mux".into(), overhead.mux_ratio);
        facts.insert("ratio.bits".into(), overhead.bits_ratio);
        facts.insert("ratio.nets".into(), overhead.nets_ratio);
        facts.insert("ratio.area".into(), overhead.area_ratio);
        facts.insert("export.verilog_bytes".into(), verilog.len() as f64);
        facts.insert("export.icl_bytes".into(), icl.len() as f64);
        golden::compare(self.goldens.get("flow", &soc.name), &facts, &mut out);

        out.add("faults", (sib.fault_count + ft.fault_count) as f64);
        out.add("classes", (sib.classes + ft.classes) as f64);
        out.add("added_edges", synth.report.added_edges as f64);
        out.add("export_bytes", (verilog.len() + icl.len()) as f64);
        self.facts[j] = facts;
        out
    }
}
