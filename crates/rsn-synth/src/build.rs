//! Final synthesis of the fault-tolerant RSN (paper Sec. III-E).
//!
//! Given the augmenting edge set, this module edits a copy of the network
//! ([`Rsn::into_builder`]); every original node keeps its id:
//!
//! 1. **Integration of the augmenting edges** — every added dataflow edge
//!    `(i, j)` becomes a 2:1 scan multiplexer in front of `j`, whose
//!    secondary input is driven by vertex `i`. Its address is the XOR of
//!    two routing bits appended to different registers; both reset to 0,
//!    so the multiplexer selects its original input and the reset scan
//!    path is exactly the original one.
//! 2. **Hardening of select signals** — selects are re-derived from the
//!    recursive rules of Sec. III-E-2 ([`crate::select`]); with at least
//!    two outgoing edges per vertex, every select has two independent
//!    assertion stems. The expressions grow exponentially with depth, so
//!    they are materialized only on networks of at most 64 nodes.
//! 3. **Multiplexer address hardening** — every multiplexer address net is
//!    TMR-protected ([`rsn_core::Mux::hardened`]).
//! 4. **Secondary scan ports** — a secondary scan-in drives every
//!    successor of the primary scan-in through port multiplexers, and a
//!    secondary scan-out taps the predecessors of the primary scan-out.
//!    A port the input network already has is kept and not added again.
//!
//! The augmenting edge set comes from [`augment_greedy`]. On the 13
//! embedded SoCs it picks the same edges as the paper's exact ILP
//! ([`crate::augment_ilp_under`]), which `table1 --ablation` and the
//! augmentation tests keep as its oracle.

use rsn_core::{ControlExpr, NodeId, NodeKind, Result, Rsn, RsnBuilder};

use rsn_budget::Budget;

use crate::augment::{augment_greedy, AugmentOptions, Augmentation};
use crate::dataflow::Dataflow;
use crate::select::{apply_selects, derive_selects};

/// Largest synthesized network (in nodes) whose select expressions are
/// materialized. Beyond it segments keep constant-true placeholder
/// selects, which the metric engine and the area model do not read.
const MATERIALIZE_MAX_NODES: usize = 64;

/// Options of the complete synthesis pipeline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SynthesisOptions {
    /// Augmentation cost options.
    pub augment: AugmentOptions,
    /// Add secondary scan-in/scan-out ports (Sec. III-E-4).
    pub secondary_ports: bool,
}

impl SynthesisOptions {
    /// Paper-faithful defaults: secondary ports on, every multiplexer
    /// address hardened.
    pub fn new() -> Self {
        SynthesisOptions {
            augment: AugmentOptions::default(),
            secondary_ports: true,
        }
    }
}

/// Quantitative report of one synthesis run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SynthesisReport {
    /// Augmenting dataflow edges integrated.
    pub added_edges: usize,
    /// Scan multiplexers added (augmenting + port muxes).
    pub added_muxes: usize,
    /// Address-register bits added.
    pub added_bits: u64,
    /// Menger repair edges (expected 0).
    pub repairs: usize,
    /// Whether select expressions were materialized.
    pub selects_materialized: bool,
    /// Multiplexer address nets TMR-hardened (every multiplexer of the
    /// synthesized network).
    pub hardened_muxes: usize,
}

impl SynthesisReport {
    /// The options to verify the synthesized network with
    /// ([`rsn_verify::verify_with`]): every check family, but select
    /// checks only when the selects were materialized. Placeholder
    /// constant-true selects disagree with path membership by
    /// construction, so proving select/path agreement on them would only
    /// re-discover the placeholder.
    pub fn verify_options(&self) -> rsn_verify::VerifyOptions {
        if self.selects_materialized {
            rsn_verify::VerifyOptions::default()
        } else {
            rsn_verify::VerifyOptions::without_select_checks()
        }
    }
}

impl std::fmt::Display for SynthesisReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "+{} edges, +{} muxes, +{} bits ({}{} repairs)",
            self.added_edges,
            self.added_muxes,
            self.added_bits,
            if self.selects_materialized {
                "selects materialized, "
            } else {
                ""
            },
            self.repairs,
        )
    }
}

/// Result of the synthesis: the fault-tolerant network, its report and
/// the augmentation it integrates.
#[derive(Debug, Clone)]
pub struct SynthesisResult {
    /// The fault-tolerant RSN.
    pub rsn: Rsn,
    /// Quantitative report.
    pub report: SynthesisReport,
    /// The augmentation that was integrated.
    pub augmentation: Augmentation,
}

/// Synthesizes a fault-tolerant RSN from an original network.
///
/// # Errors
///
/// Returns the structural [`rsn_core::Error`] if the edited network does
/// not validate.
///
/// # Example
///
/// ```
/// use rsn_core::examples::fig2;
/// use rsn_synth::{synthesize, SynthesisOptions};
///
/// let result = synthesize(&fig2(), &SynthesisOptions::new())?;
/// assert!(result.report.added_edges > 0);
/// assert!(result.rsn.secondary_scan_in().is_some());
/// # Ok::<(), rsn_core::Error>(())
/// ```
pub fn synthesize(rsn: &Rsn, opts: &SynthesisOptions) -> Result<SynthesisResult> {
    let root = rsn_obs::Span::enter("synthesize");
    rsn_obs::counter_add("synth.runs", 1);

    let df = phase(&root, "dataflow", "synth.phases.dataflow_ms", || {
        Dataflow::extract(rsn)
    });

    // 0. Connectivity augmentation.
    let augmentation = phase(&root, "augment", "synth.phases.augment_ms", || {
        augment_greedy(&df, &opts.augment)
    });

    let build_span = root.child("build");
    let build_start = std::time::Instant::now();
    // 1. Start from a copy of the original (which may itself already be
    // a fault-tolerant network with secondary ports and control inputs).
    // Every original node keeps its id, so dataflow vertices name builder
    // nodes directly.
    let mut b = rsn.clone().into_builder();
    b.set_name(format!("{}_ft", rsn.name()));

    // 2. Integrate augmenting edges. Each added edge (i, j) becomes a 2:1
    // mux in front of j. The address is the XOR of two routing bits kept
    // in *different* segments (one appended to the source segment i, one
    // appended to the original dataflow predecessor of j): a single
    // stuck-at fault can freeze at most one of the two registers, so the
    // multiplexer always remains steerable to the clean input — the
    // register-level counterpart of the paper's TMR address hardening.
    // Edges sourced at a scan-in port use a primary control input for the
    // first operand (external port-select style; the paper excludes
    // faults on such global control signals).
    let mut report = SynthesisReport {
        added_edges: augmentation.added.len(),
        repairs: augmentation.repairs,
        ..SynthesisReport::default()
    };
    // Pick, per added edge, the two routing-bit owners.
    let owner_of = |old: NodeId| -> Option<NodeId> {
        rsn.node(old)
            .as_segment()
            .and_then(|s| s.has_shadow.then_some(old))
    };
    // Second owner: the *target* segment itself. The target stays on the
    // active scan path whenever its multiplexer is forced to the secondary
    // input, so even a dirty write (which deterministically delivers the
    // fault's stuck value) can cancel a stuck first operand and restore
    // the original route — the XOR pair is live under every single fault.
    // (On the 13 embedded SoCs no single-fault verdict needs that dirty
    // write: the metric is bit-identical with the engine's dirty-write
    // promotion removed; DESIGN.md §4.5.)
    // Fall back to a dataflow predecessor when the target is a port.
    let second_owner = |vi: usize, vj: usize| -> Option<NodeId> {
        owner_of(df.vertex_node[vj]).or_else(|| {
            df.graph
                .predecessors(vj)
                .iter()
                .map(|&p| df.vertex_node[p])
                .filter(|&cand| cand != df.vertex_node[vi])
                .find_map(owner_of)
        })
    };
    let owners: Vec<(Option<NodeId>, Option<NodeId>)> = augmentation
        .added
        .iter()
        .map(|&(vi, vj)| (owner_of(df.vertex_node[vi]), second_owner(vi, vj)))
        .collect();
    // Extend the owning registers up front.
    let mut routing_extra: Vec<u32> = vec![0; rsn.node_count()];
    for (a, b2) in &owners {
        for o in [a, b2].into_iter().flatten() {
            routing_extra[o.index()] += 1;
        }
    }
    for id in rsn.node_ids() {
        let extra = routing_extra[id.index()];
        if extra > 0 {
            b.extend_segment(id, extra);
            report.added_bits += extra as u64;
        }
    }
    let mut next_bit: Vec<u32> = rsn
        .node_ids()
        .map(|id| rsn.node(id).as_segment().map_or(0, |s| s.length))
        .collect();
    // A name prefix that is fresh even when the input network already
    // went through a synthesis round (names like "ft.m0" exist then).
    let gen_prefix = {
        let mut g = 0usize;
        while rsn.find(&format!("ft{g}.m0")).is_some() || (g == 0 && rsn.find("ft.m0").is_some()) {
            g += 1;
        }
        if g == 0 {
            "ft".to_string()
        } else {
            format!("ft{g}")
        }
    };
    let mut take_bit = |owner: Option<NodeId>, b: &mut RsnBuilder| -> ControlExpr {
        match owner {
            Some(o) => {
                let bit = next_bit[o.index()];
                next_bit[o.index()] += 1;
                ControlExpr::reg(o, bit)
            }
            None => {
                let input = b.add_inputs(1);
                ControlExpr::input(input)
            }
        }
    };
    for (k, &(vi, vj)) in augmentation.added.iter().enumerate() {
        let src = df.vertex_node[vi];
        let tgt = df.vertex_node[vj];
        let current_driver = b.node(tgt).source().expect("target has a driver");
        let (oa, ob) = owners[k];
        let bit_a = take_bit(oa, &mut b);
        let bit_b = take_bit(ob, &mut b);
        // a XOR b, with both bits reset to 0: original input selected.
        let addr = (bit_a.clone() & !bit_b.clone()) | (!bit_a & bit_b);
        let m = b.add_mux(
            format!("{gen_prefix}.m{k}"),
            vec![current_driver, src],
            vec![addr],
        );
        b.connect(m, tgt);
        report.added_muxes += 1;
    }

    // 4. Secondary scan ports, selected by dedicated primary control
    // inputs (external port-select pins; the paper excludes faults on such
    // global control signals, and the nets are TMR-hardened like every
    // other address).
    if opts.secondary_ports && rsn.secondary_scan_in().is_none() {
        let si2 = b.add_secondary_scan_in("scan_in2");
        let port_sel_in = b.add_inputs(1);
        // Successors of the primary scan-in (structural consumers).
        let consumers: Vec<NodeId> = (0..b.node_count() as u32)
            .map(NodeId)
            .filter(|&n| b.node(n).source() == Some(b.scan_in()))
            .collect();
        for (k, &cons) in consumers.iter().enumerate() {
            let m = b.add_mux(
                format!("{gen_prefix}.si2m{k}"),
                vec![b.scan_in(), si2],
                vec![ControlExpr::input(port_sel_in)],
            );
            b.connect(m, cons);
            report.added_muxes += 1;
        }
    }
    if opts.secondary_ports && rsn.secondary_scan_out().is_none() {
        // Secondary scan-out fed by *every* dataflow predecessor of the
        // sink (paper Sec. III-E-4: each predecessor of the primary
        // scan-out port is connected to the secondary port via
        // multiplexers), so a fault anywhere in the final merge still
        // leaves an observation point. The tap select is a per-stage
        // primary control input (global port control, hardened nets).
        let so2 = b.add_secondary_scan_out("scan_out2");
        let primary_driver = b.node(b.scan_out()).source().expect("driven");
        let mut taps: Vec<NodeId> = df
            .graph
            .predecessors(df.sink)
            .iter()
            .map(|&p| df.vertex_node[p])
            .collect();
        taps.extend(
            augmentation
                .added
                .iter()
                .filter(|&&(_, j)| j == df.sink)
                .map(|&(i, _)| df.vertex_node[i]),
        );
        taps.sort_unstable();
        taps.dedup();
        let mut so2_src = primary_driver;
        for (k, &tap) in taps.iter().enumerate() {
            if tap == so2_src {
                continue;
            }
            let sel = b.add_inputs(1);
            let m = b.add_mux(
                format!("{gen_prefix}.so2m{k}"),
                vec![so2_src, tap],
                vec![ControlExpr::input(sel)],
            );
            so2_src = m;
            report.added_muxes += 1;
        }
        b.connect(so2_src, so2);
    }
    drop(build_span);
    rsn_obs::gauge_set(
        "synth.phases.build_ms",
        build_start.elapsed().as_secs_f64() * 1e3,
    );

    // 3. TMR-harden every multiplexer address net.
    phase(&root, "harden", "synth.phases.harden_ms", || {
        let mux_ids: Vec<NodeId> = (0..b.node_count() as u32)
            .map(NodeId)
            .filter(|&n| b.node(n).as_mux().is_some())
            .collect();
        report.hardened_muxes = mux_ids.len();
        for m in mux_ids {
            b.harden_mux(m);
        }
    });

    let select_span = root.child("select");
    let select_start = std::time::Instant::now();
    // 2b. Select synthesis.
    let ft = if b.node_count() <= MATERIALIZE_MAX_NODES {
        let probe = b.clone().finish()?;
        let selects = derive_selects(&probe);
        apply_selects(&mut b, &selects);
        report.selects_materialized = true;
        b.finish()?
    } else {
        // Conservative constant-true selects: the metric engine and area
        // model do not read them, and `SynthesisReport::verify_options`
        // skips the select checks on them (documented in DESIGN.md).
        let ids: Vec<NodeId> = (0..b.node_count() as u32).map(NodeId).collect();
        for id in ids {
            if matches!(b.node(id).kind(), NodeKind::Segment(_)) {
                b.set_select(id, ControlExpr::TRUE);
            }
        }
        b.finish()?
    };
    drop(select_span);
    rsn_obs::gauge_set(
        "synth.phases.select_ms",
        select_start.elapsed().as_secs_f64() * 1e3,
    );

    rsn_obs::counter_add("synth.added_edges", report.added_edges as u64);
    rsn_obs::counter_add("synth.added_muxes", report.added_muxes as u64);
    rsn_obs::counter_add("synth.added_bits", report.added_bits);

    Ok(SynthesisResult {
        rsn: ft,
        report,
        augmentation,
    })
}

/// [`synthesize`] with a [`Budget`] that is no longer read: the greedy
/// augmentation runs in near-linear time and needs no bound.
///
/// # Errors
///
/// As for [`synthesize`].
pub fn synthesize_under(
    rsn: &Rsn,
    opts: &SynthesisOptions,
    _budget: &Budget,
) -> Result<SynthesisResult> {
    synthesize(rsn, opts)
}

/// Runs one pipeline phase under a child span and records its wall time
/// as a `synth.phases.*` gauge.
fn phase<T>(root: &rsn_obs::Span, name: &'static str, gauge: &str, f: impl FnOnce() -> T) -> T {
    let _span = root.child(name);
    let start = std::time::Instant::now();
    let out = f();
    rsn_obs::gauge_set(gauge, start.elapsed().as_secs_f64() * 1e3);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rsn_core::examples::{chain, fig2};
    use rsn_itc02::by_name;
    use rsn_sib::generate;

    #[test]
    fn fig2_synthesis_builds_and_validates() {
        let rsn = fig2();
        let result = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
        assert!(result.report.added_edges >= 3);
        assert_eq!(result.report.repairs, 0);
        // Segment count is unchanged (routing bits extend existing
        // registers), but bits and muxes grow.
        assert_eq!(result.rsn.segments().count(), rsn.segments().count());
        assert!(result.rsn.total_bits() > rsn.total_bits());
        // All muxes hardened, and the report counts them.
        for m in result.rsn.muxes() {
            assert!(result.rsn.node(m).as_mux().expect("mux").hardened);
        }
        assert_eq!(result.report.hardened_muxes, result.rsn.muxes().count());
    }

    #[test]
    fn original_reset_path_is_preserved_at_reset() {
        // Routing bits reset to 0, so every added mux selects its original
        // input: the reset scan path is exactly the original one.
        let rsn = fig2();
        let result = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
        let ft = &result.rsn;
        let path = ft.trace_path(&ft.reset_config()).expect("traceable");
        let names: Vec<&str> = path.segments(ft).map(|s| ft.node(s).name()).collect();
        assert_eq!(names, ["A", "B", "D"], "original reset path preserved");
    }

    #[test]
    fn routing_bits_extend_source_segments() {
        let rsn = fig2();
        let mut opts = SynthesisOptions::new();
        opts.secondary_ports = false;
        let result = synthesize(&rsn, &opts).expect("synthesize");
        let ft = &result.rsn;
        // Total added bits equals the sum of per-segment extensions.
        let grown: u64 = ft
            .segments()
            .filter_map(|s| {
                let name = ft.node(s).name().to_string();
                let orig = rsn.find(&name)?;
                let new_len = ft.node(s).as_segment().expect("segment").length as u64;
                let old_len = rsn.node(orig).as_segment().expect("segment").length as u64;
                Some(new_len - old_len)
            })
            .sum();
        assert_eq!(grown, result.report.added_bits);
        assert!(grown > 0, "some routing bits must be register-backed");
    }

    #[test]
    fn reset_path_of_ft_network_is_traceable() {
        let rsn = fig2();
        let result = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
        let path = result
            .rsn
            .trace_path(&result.rsn.reset_config())
            .expect("traceable");
        assert!(path.nodes().len() > 2);
    }

    #[test]
    fn synthesized_selects_validate_on_small_networks() {
        let rsn = fig2();
        let mut opts = SynthesisOptions::new();
        opts.secondary_ports = false;
        let result = synthesize(&rsn, &opts).expect("synthesize");
        assert!(result.report.selects_materialized);
        // The reset configuration must be valid (selects match the path).
        result
            .rsn
            .active_path(&result.rsn.reset_config())
            .expect("valid reset configuration");
    }

    #[test]
    fn chain_synthesis_adds_one_mux_per_interior_vertex() {
        let rsn = chain(5, 2);
        let mut opts = SynthesisOptions::new();
        opts.secondary_ports = false;
        let result = synthesize(&rsn, &opts).expect("synthesize");
        // Each of the 5 interior-ish vertices gains an in-edge.
        assert!(result.report.added_muxes >= 4);
        assert_eq!(result.report.added_muxes, result.report.added_edges);
    }

    #[test]
    fn sib_benchmark_synthesizes_with_greedy() {
        let soc = by_name("q12710").expect("embedded");
        let rsn = generate(&soc).expect("generate");
        let result = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
        assert_eq!(result.report.repairs, 0);
        // Mux ratio lands in the paper's ballpark (≈ 3.5).
        let ratio = result.rsn.muxes().count() as f64 / rsn.muxes().count() as f64;
        assert!(ratio > 2.0 && ratio < 5.0, "mux ratio {ratio}");
    }

    #[test]
    fn secondary_ports_exist_and_are_wired() {
        let rsn = fig2();
        let result = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
        let ft = &result.rsn;
        let si2 = ft.secondary_scan_in().expect("secondary scan-in");
        let so2 = ft.secondary_scan_out().expect("secondary scan-out");
        assert!(!ft.successors(si2).is_empty());
        assert!(ft.node(so2).source().is_some());
    }

    #[test]
    fn verified_synthesis_is_clean_on_fig2() {
        let rsn = fig2();
        let result = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
        let vreport = rsn_verify::verify_with(&result.rsn, result.report.verify_options());
        assert!(vreport.is_clean(), "{}", vreport.render());
        assert!(
            vreport.checks_run.contains(&"selects"),
            "fig2 is small: selects materialized and checked"
        );
        assert!(vreport.sat_queries > 0);
    }

    #[test]
    fn verified_synthesis_skips_select_checks_without_materialization() {
        // u226's FT network has 274 nodes: past the materialization bound.
        let rsn = generate(&by_name("u226").expect("embedded")).expect("generate");
        let result = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
        assert!(!result.report.selects_materialized);
        let vreport = rsn_verify::verify_with(&result.rsn, result.report.verify_options());
        assert!(!vreport.checks_run.contains(&"selects"));
        assert!(vreport.is_clean(), "{}", vreport.render());
    }

    #[test]
    fn verified_synthesis_is_clean_on_sib_benchmark() {
        let soc = by_name("u226").expect("embedded");
        let rsn = generate(&soc).expect("generate");
        let result = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
        let vreport = rsn_verify::verify_with(&result.rsn, result.report.verify_options());
        assert!(vreport.is_clean(), "{}", vreport.render());
    }

    #[test]
    fn ft_fingerprints_are_pinned() {
        // Synthesis edits a copy of its input; these pins fail if that
        // copy, or anything synthesis adds, changes the network.
        let u226 = generate(&by_name("u226").expect("embedded")).expect("generate");
        for (rsn, pinned) in [
            (fig2(), 0x4fa9_e87c_2e18_f4bd),
            (u226, 0xd171_1ec9_ec98_110b),
        ] {
            let ft = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
            assert_eq!(ft.rsn.fingerprint(), pinned, "{}", rsn.name());
        }
    }

    #[test]
    fn synthesized_networks_synthesize_again() {
        let u226 = generate(&by_name("u226").expect("embedded")).expect("generate");
        for rsn in [fig2(), u226] {
            let opts = SynthesisOptions::new();
            let first = synthesize(&rsn, &opts).expect("first round");
            let second = synthesize(&first.rsn, &opts).expect("second round");
            assert!(second.report.added_edges > 0, "{}", rsn.name());
            // Every node of the first round keeps its id and name.
            for id in first.rsn.node_ids() {
                assert_eq!(second.rsn.node(id).name(), first.rsn.node(id).name());
            }
            // The first round's secondary ports are kept, not added again.
            let port = |r: &Rsn| r.secondary_scan_in().map(|p| r.node(p).name().to_string());
            assert_eq!(port(&second.rsn), port(&first.rsn));
            assert_eq!(second.rsn.name(), format!("{}_ft_ft", rsn.name()));
        }
    }

    #[test]
    fn synthesis_is_deterministic() {
        let rsn = fig2();
        let a = synthesize(&rsn, &SynthesisOptions::new()).expect("a");
        let b = synthesize(&rsn, &SynthesisOptions::new()).expect("b");
        assert_eq!(a.augmentation, b.augmentation);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn unlimited_budget_synthesis_matches_unbudgeted() {
        let rsn = fig2();
        let opts = SynthesisOptions::new();
        let plain = synthesize(&rsn, &opts).expect("plain");
        let budgeted =
            synthesize_under(&rsn, &opts, &Budget::unlimited()).expect("unlimited budget");
        assert_eq!(plain.report, budgeted.report);
        assert_eq!(plain.augmentation, budgeted.augmentation);
    }
}
