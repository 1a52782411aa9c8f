//! ATPG-style fault collapsing for accessibility sweeps.
//!
//! The accessibility engine is a deterministic function of a
//! [`FaultEffect`], so two faults with identical effects always score
//! identically — evaluating both is pure waste (classic equivalence
//! collapsing). On top of that, a structural *dominance* rule merges
//! single-node data faults along series runs: if `u` dominates `v` (every
//! scan-in path to `v` passes `u`) and `v` post-dominates `u` (every path
//! from `u` to a scan-out passes `v`), then a clean path avoiding `u`
//! exists iff one avoiding `v` does — the path sets through the region are
//! equal — so corrupting `u` and corrupting `v` with the same stuck value
//! yield the same verdict for every segment outside the region, and the
//! region's own segments are inaccessible either way.
//!
//! Two restrictions keep the dominance rule *exact* (bit-identical
//! aggregates, enforced by the equivalence property tests):
//!
//! * neither `u` nor any strictly-interior region node may own control
//!   bits — a corrupt owner blocks the fixed point's clean promotion of
//!   its bits, and `u` (or an interior node) stays clean-reachable under
//!   `corrupt{v}` but not under `corrupt{u}`, so the promotions could
//!   diverge. (`v` itself may own bits: `v` is not clean-reachable under
//!   either fault, so its bits promote identically.)
//! * the stuck values must match — a dirty write path delivers the stuck
//!   value into promoted bits. Networks without any mux-referenced
//!   control bits never read the stuck value, so there both polarities
//!   merge too.
//!
//! Faults whose *effect computation* panics (malformed sites) become
//! singleton [`ClassKind::Poison`] classes, preserving the sweep's
//! quarantine accounting without re-deriving the panic per evaluation.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use rsn_core::{NodeId, NodeKind, Rsn};
use rsn_graph::{dominators, postdominators, DiGraph};

use crate::effect::{effect_of_indexed, ControlBitIndex, FaultEffect};
use crate::fault::Fault;
use crate::metric::HardeningProfile;

/// Upper bound on the interior-region size explored per dominator pair.
/// Aborting a too-large scan only forgoes a merge — never affects
/// exactness (series runs chain through adjacent pairs anyway).
const REGION_CAP: usize = 128;

/// What the representative of a class evaluates to.
#[derive(Debug, Clone)]
pub enum ClassKind {
    /// Every member is masked — accessibility is trivially perfect.
    Benign,
    /// Evaluate this effect once for all members.
    Effect(FaultEffect),
    /// Effect computation panicked; members are quarantined unevaluated.
    Poison,
}

/// One equivalence class of the fault universe.
#[derive(Debug, Clone)]
pub struct FaultClass {
    /// Indices into the original fault slice, in fault order.
    pub members: Vec<u32>,
    /// How to evaluate the class.
    pub kind: ClassKind,
}

/// A partition of a fault universe into equivalence classes, evaluated
/// one representative per class.
///
/// # Example
///
/// ```
/// use rsn_core::examples::fig2;
/// use rsn_fault::{fault_universe, FaultClasses, HardeningProfile};
///
/// let rsn = fig2();
/// let faults = fault_universe(&rsn);
/// let classes = FaultClasses::build(&rsn, &faults, HardeningProfile::unhardened());
/// assert!(classes.collapse_ratio() > 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct FaultClasses {
    classes: Vec<FaultClass>,
    /// Fault index → class index.
    class_of: Vec<u32>,
}

// Compile-time guarantee: the partition stays shareable across threads
// (sweep workers and resident-service requests read one copy).
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<FaultClasses>()
};

impl FaultClasses {
    /// Partitions `faults` by effect equality plus the dominance rule.
    pub fn build(rsn: &Rsn, faults: &[Fault], profile: HardeningProfile) -> Self {
        Self::build_inner(rsn, faults, profile, true)
    }

    /// The trivial partition: one singleton class per fault, in order.
    /// Effects are still precomputed once. Swept through
    /// [`analyze_classes_on_budget`](crate::analyze_classes_on_budget),
    /// it is the reference that collapsed sweeps must match exactly.
    pub fn uncollapsed(rsn: &Rsn, faults: &[Fault], profile: HardeningProfile) -> Self {
        Self::build_inner(rsn, faults, profile, false)
    }

    fn build_inner(rsn: &Rsn, faults: &[Fault], profile: HardeningProfile, collapse: bool) -> Self {
        let ctl = ControlBitIndex::new(rsn);
        let (merge, port_src) = if collapse {
            (
                dominance_merge_map(rsn, &ctl),
                fanout1_port_sources(rsn, &ctl),
            )
        } else {
            (None, HashMap::new())
        };

        let mut classes: Vec<FaultClass> = Vec::new();
        let mut class_of: Vec<u32> = Vec::with_capacity(faults.len());
        let mut benign_class: Option<usize> = None;
        let mut by_key: HashMap<EffectKey, usize> = HashMap::new();
        let no_owners = ctl.owners().next().is_none();

        for (i, fault) in faults.iter().enumerate() {
            // Key construction indexes per-node tables with the effect's
            // node ids, so it must sit inside the same quarantine boundary
            // as the effect computation itself.
            let effect = catch_unwind(AssertUnwindSafe(|| {
                let e = effect_of_indexed(rsn, fault, profile, &ctl);
                let key = if collapse && !e.is_benign() {
                    Some(EffectKey::of(&e, merge.as_ref(), &port_src, no_owners))
                } else {
                    None
                };
                (e, key)
            }));
            let ci = match effect {
                Err(_) => {
                    classes.push(FaultClass {
                        members: Vec::new(),
                        kind: ClassKind::Poison,
                    });
                    classes.len() - 1
                }
                Ok((e, _)) if !collapse => {
                    // Singleton per fault — even benign ones, so the
                    // one-unit-per-fault budget prefix stays exact.
                    classes.push(FaultClass {
                        members: Vec::new(),
                        kind: if e.is_benign() {
                            ClassKind::Benign
                        } else {
                            ClassKind::Effect(e)
                        },
                    });
                    classes.len() - 1
                }
                Ok((e, _)) if e.is_benign() => *benign_class.get_or_insert_with(|| {
                    classes.push(FaultClass {
                        members: Vec::new(),
                        kind: ClassKind::Benign,
                    });
                    classes.len() - 1
                }),
                Ok((e, key)) => {
                    let key = key.expect("non-benign collapsed effect has a key");
                    *by_key.entry(key).or_insert_with(|| {
                        classes.push(FaultClass {
                            members: Vec::new(),
                            kind: ClassKind::Effect(e),
                        });
                        classes.len() - 1
                    })
                }
            };
            classes[ci].members.push(i as u32);
            class_of.push(ci as u32);
        }

        FaultClasses { classes, class_of }
    }

    /// The classes, ordered by their first member.
    pub fn classes(&self) -> &[FaultClass] {
        &self.classes
    }

    /// Replaces one class's evaluation kind (fault injection in tests).
    #[cfg(test)]
    pub(crate) fn set_kind(&mut self, class: usize, kind: ClassKind) {
        self.classes[class].kind = kind;
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// `true` if the universe was empty.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// Number of faults in the partitioned universe.
    pub fn fault_count(&self) -> usize {
        self.class_of.len()
    }

    /// Class index of fault `i`.
    pub fn class_of(&self, i: usize) -> usize {
        self.class_of[i] as usize
    }

    /// `faults / classes` — 1.0 means no collapsing opportunity; can
    /// never drop below 1.0 (every class has at least one member).
    pub fn collapse_ratio(&self) -> f64 {
        if self.classes.is_empty() {
            1.0
        } else {
            self.class_of.len() as f64 / self.classes.len() as f64
        }
    }
}

/// Canonical grouping key of a (non-benign) fault effect. Equal keys ⇒
/// equal accessibility verdicts.
#[derive(Debug, PartialEq, Eq, Hash)]
struct EffectKey {
    corrupt_nodes: Vec<NodeId>,
    corrupt_mux_inputs: Vec<(NodeId, usize)>,
    forced_bits: Vec<(NodeId, u32, bool)>,
    forced_mux: Vec<(NodeId, usize)>,
    local_loss: Vec<NodeId>,
    stuck: Option<bool>,
}

impl EffectKey {
    fn of(
        e: &FaultEffect,
        merge: Option<&Vec<usize>>,
        port_src: &HashMap<(NodeId, usize), NodeId>,
        no_owners: bool,
    ) -> Self {
        // Single-corrupt-port effects on a fanout-1 source rewrite to the
        // equivalent single-corrupt-node form (see
        // [`fanout1_port_sources`]), then join the dominance merging below.
        let mut corrupt_nodes = e.corrupt_nodes.clone();
        let mut corrupt_mux_inputs = e.corrupt_mux_inputs.clone();
        let pure_data =
            e.forced_bits.is_empty() && e.forced_mux.is_empty() && e.local_loss.is_empty();
        if pure_data && corrupt_nodes.is_empty() && corrupt_mux_inputs.len() == 1 {
            if let Some(&src) = port_src.get(&corrupt_mux_inputs[0]) {
                corrupt_mux_inputs.clear();
                corrupt_nodes.push(src);
            }
        }
        // Single-corrupt-node effects take the dominance representative.
        let single_corrupt = corrupt_nodes.len() == 1 && corrupt_mux_inputs.is_empty() && pure_data;
        if single_corrupt {
            if let Some(map) = merge {
                corrupt_nodes[0] = NodeId(map[corrupt_nodes[0].index()] as u32);
            }
        }
        let mut forced_bits: Vec<(NodeId, u32, bool)> = e
            .forced_bits
            .iter()
            .map(|(&(n, b), &v)| (n, b, v))
            .collect();
        forced_bits.sort_unstable();
        let mut forced_mux: Vec<(NodeId, usize)> =
            e.forced_mux.iter().map(|(&n, &k)| (n, k)).collect();
        forced_mux.sort_unstable();
        // The stuck value is only ever read when promoting mux-referenced
        // control bits; without owners it cannot influence the verdict.
        let stuck = if single_corrupt && no_owners {
            None
        } else {
            e.stuck
        };
        EffectKey {
            corrupt_nodes,
            corrupt_mux_inputs,
            forced_bits,
            forced_mux,
            local_loss: e.local_loss.clone(),
            stuck,
        }
    }
}

/// Maps multiplexer input ports `(mux, k)` to their source node when a
/// fault on the port is provably equivalent to a data fault on the
/// source itself, so the two collapse into one class.
///
/// Corrupting the edge `(mux, k)` removes exactly that edge from the
/// clean traversals; corrupting the source `s` removes every clean path
/// *through* `s` and additionally un-cleans `s` itself. The two verdicts
/// coincide exactly when
///
/// * `s` feeds nothing but this one port (`successors(s) == [mux]` and
///   `s` appears once across all mux input lists) — then every path
///   through `s` uses the corrupted edge anyway;
/// * `s` owns no control bits — `clean[s]` never gates a bit promotion;
/// * `s` is a plain mux node, not a segment, scan-in, or scan-out —
///   `clean[s]`, `reach_clean[s]`, and `exit_clean[s]` are then read by
///   no verdict and seed no traversal.
///
/// The equivalence property test exercises this against the uncollapsed
/// HashMap reference on random networks.
fn fanout1_port_sources(rsn: &Rsn, ctl: &ControlBitIndex) -> HashMap<(NodeId, usize), NodeId> {
    let owners: HashSet<NodeId> = ctl.owners().collect();
    let mut port_uses = vec![0u32; rsn.node_count()];
    for m in rsn.muxes() {
        let mux = rsn.node(m).as_mux().expect("muxes() yields mux nodes");
        for &s in &mux.inputs {
            port_uses[s.index()] += 1;
        }
    }
    let mut map = HashMap::new();
    for m in rsn.muxes() {
        let mux = rsn.node(m).as_mux().expect("muxes() yields mux nodes");
        for (k, &s) in mux.inputs.iter().enumerate() {
            if matches!(rsn.node(s).kind(), NodeKind::Mux(_))
                && rsn.successors(s).len() == 1
                && port_uses[s.index()] == 1
                && !owners.contains(&s)
            {
                map.insert((m, k), s);
            }
        }
    }
    map
}

/// Computes the dominance-merge map: `map[v]` is the series-run
/// representative of node `v` (union-find root over all eligible
/// dominator/post-dominator pairs). `None` if the dataflow graph is
/// cyclic — the path-set argument needs a DAG.
fn dominance_merge_map(rsn: &Rsn, ctl: &ControlBitIndex) -> Option<Vec<usize>> {
    let n = rsn.node_count();
    // Dataflow graph plus a virtual root (index n) fanning into every
    // scan-in and a virtual sink (n + 1) collecting every scan-out.
    let mut g = DiGraph::new(n + 2);
    for id in rsn.node_ids() {
        for &s in rsn.successors(id) {
            g.add_edge(id.index(), s.index());
        }
    }
    g.add_edge(n, rsn.scan_in().index());
    if let Some(r) = rsn.secondary_scan_in() {
        g.add_edge(n, r.index());
    }
    g.add_edge(rsn.scan_out().index(), n + 1);
    if let Some(s) = rsn.secondary_scan_out() {
        g.add_edge(s.index(), n + 1);
    }
    if !g.is_acyclic() {
        return None;
    }

    let idom = dominators(&g, n);
    let ipdom = postdominators(&g, n + 1);
    let owners: HashSet<usize> = ctl.owners().map(|o| o.index()).collect();

    // Union-find over eligible immediate pairs (u, v): u = idom(v),
    // v = ipdom(u), u and the interior region own no control bits.
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    let mut region = Vec::new();
    let mut seen = vec![false; n + 2];
    for v in 0..n {
        let u = idom[v];
        if u >= n || ipdom[u] != v || owners.contains(&u) {
            continue;
        }
        // Interior region: forward BFS from u stopping at v. In a DAG
        // where u dom v and v pdom u, every node discovered this way lies
        // on a u → v path.
        region.clear();
        seen[v] = true;
        let mut stack = vec![u];
        seen[u] = true;
        let mut ok = true;
        while let Some(x) = stack.pop() {
            for &y in g.successors(x) {
                if seen[y] {
                    continue;
                }
                seen[y] = true;
                region.push(y);
                if region.len() > REGION_CAP || owners.contains(&y) {
                    ok = false;
                    break;
                }
                stack.push(y);
            }
            if !ok {
                break;
            }
        }
        seen[u] = false;
        seen[v] = false;
        for &y in &region {
            seen[y] = false;
        }
        for &y in &stack {
            seen[y] = false;
        }
        if ok {
            let (ru, rv) = (find(&mut parent, u), find(&mut parent, v));
            // Root at the smaller index for a deterministic representative.
            let (lo, hi) = (ru.min(rv), ru.max(rv));
            parent[hi] = lo;
        }
    }
    let mut map = vec![0usize; n];
    for (v, slot) in map.iter_mut().enumerate() {
        *slot = find(&mut parent, v);
    }
    Some(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::fault_universe;
    use rsn_core::examples::{chain, fig2};

    #[test]
    fn chain_collapses_hard() {
        // A pure chain has no control bits: every single-node data fault
        // of either polarity lands in one series class.
        let rsn = chain(3, 4);
        let faults = fault_universe(&rsn);
        let classes = FaultClasses::build(&rsn, &faults, HardeningProfile::unhardened());
        assert_eq!(classes.fault_count(), faults.len());
        assert!(
            classes.collapse_ratio() >= 2.5,
            "ratio {}",
            classes.collapse_ratio()
        );
        // The entire series run — port, data and select faults of every
        // segment, both polarities — lands in one class.
        let biggest = classes
            .classes()
            .iter()
            .map(|c| c.members.len())
            .max()
            .unwrap();
        assert!(biggest >= 13, "biggest class {biggest}");
        // Every fault maps into a class that contains it.
        for i in 0..faults.len() {
            let c = &classes.classes()[classes.class_of(i)];
            assert!(c.members.contains(&(i as u32)));
        }
    }

    #[test]
    fn uncollapsed_is_singleton_per_fault() {
        let rsn = fig2();
        let faults = fault_universe(&rsn);
        let classes = FaultClasses::uncollapsed(&rsn, &faults, HardeningProfile::unhardened());
        assert_eq!(classes.len(), faults.len());
        assert_eq!(classes.collapse_ratio(), 1.0);
        for (i, c) in classes.classes().iter().enumerate() {
            assert_eq!(c.members, vec![i as u32]);
            assert_eq!(classes.class_of(i), i);
        }
    }

    /// splitmix64 — deterministic, dependency-free randomness.
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
    }

    /// A random multi-module SIB SoC: 1–3 modules with 1–3 scan chains of
    /// 1–6 bits each (same generator family as the engine's property
    /// tests).
    fn random_sib_rsn(rng: &mut Rng) -> rsn_core::Rsn {
        use rsn_itc02::parse_soc;
        use rsn_sib::generate;
        let modules = 1 + rng.below(3);
        let mut text = String::from("SocName rand\n");
        for m in 1..=modules {
            let chains = 1 + rng.below(3);
            let lengths: Vec<String> = (0..chains)
                .map(|_| (1 + rng.below(6)).to_string())
                .collect();
            text.push_str(&format!("{m} 0 0 0 {chains} : {}\n", lengths.join(" ")));
        }
        let soc = parse_soc(&text).expect("generated SoC parses");
        generate(&soc).expect("SIB generation succeeds")
    }

    #[test]
    fn property_collapsed_lane_sweep_matches_uncollapsed_cold_reference() {
        use crate::effect::effect_of;
        use crate::engine::{reference, AccessEngine, Accessibility, LANES};
        use crate::metric::analyze_classes_on_budget;
        use rsn_budget::Budget;

        let mut rng = Rng(0x5eed_c011_a95e);
        for case in 0..12 {
            // Each random SIB network and its synthesized FT network
            // (XOR-addressed routing muxes, hardened muxes, secondary
            // ports).
            let sib = random_sib_rsn(&mut rng);
            let ft = rsn_synth::synthesize(&sib, &rsn_synth::SynthesisOptions::new())
                .expect("random SIB network synthesizes")
                .rsn;
            for (rsn, round) in [(sib, format!("SIB {case}")), (ft, format!("FT {case}"))] {
                let faults = fault_universe(&rsn);
                let engine = AccessEngine::new(&rsn);
                let mut scratch = engine.scratch();
                for profile in [HardeningProfile::unhardened(), HardeningProfile::hardened()] {
                    let classes = FaultClasses::build(&rsn, &faults, profile);
                    // Class representatives' lane verdicts, batched 1, 63 and
                    // 64 at a time: every batching must agree lane for lane.
                    let reps: Vec<(usize, &FaultEffect)> = classes
                        .classes()
                        .iter()
                        .enumerate()
                        .filter_map(|(c, class)| match &class.kind {
                            ClassKind::Effect(e) => Some((c, e)),
                            _ => None,
                        })
                        .collect();
                    let mut lane_of: HashMap<usize, Accessibility> = HashMap::new();
                    for size in [1, LANES - 1, LANES] {
                        for chunk in reps.chunks(size) {
                            let effects: Vec<&FaultEffect> =
                                chunk.iter().map(|&(_, e)| e).collect();
                            let accs = engine.accessibility_batch(&effects, &mut scratch);
                            for (&(c, _), acc) in chunk.iter().zip(accs) {
                                if let Some(seen) = lane_of.get(&c) {
                                    assert_eq!(
                                        seen, acc,
                                        "round {round}: class {c} differs between batch sizes"
                                    );
                                }
                                lane_of.insert(c, acc.clone());
                            }
                        }
                    }
                    // Per fault: the class representative's lane verdict must
                    // equal the HashMap reference's verdict on the fault's own
                    // effect — the full Accessibility, not just the fractions.
                    let mut sum_seg = 0.0f64;
                    let mut sum_bits = 0.0f64;
                    let mut weight = 0u64;
                    let mut worst_seg = 1.0f64;
                    let mut worst_bits = 1.0f64;
                    let mut worst_fault = None;
                    for (i, fault) in faults.iter().enumerate() {
                        let own = effect_of(&rsn, fault, profile);
                        let (seg, bits) = match &classes.classes()[classes.class_of(i)].kind {
                            ClassKind::Poison => unreachable!("healthy universe"),
                            ClassKind::Benign => {
                                assert!(own.is_benign(), "round {round}: {fault} not benign");
                                (1.0, 1.0)
                            }
                            ClassKind::Effect(_) => {
                                let lane = &lane_of[&classes.class_of(i)];
                                let slow = reference::accessibility(&rsn, &own);
                                assert_eq!(
                                    *lane, slow,
                                    "round {round}: class rep diverges from member {fault} \
                                 (select_hardened {})",
                                    profile.select_hardened
                                );
                                (slow.segment_fraction(), slow.bit_fraction())
                            }
                        };
                        let w = fault.weight as f64;
                        sum_seg += seg * w;
                        sum_bits += bits * w;
                        weight += fault.weight as u64;
                        if seg < worst_seg {
                            worst_seg = seg;
                            worst_fault = Some(*fault);
                        }
                        worst_bits = worst_bits.min(bits);
                    }
                    // Aggregates of the production sweep must be bit-identical
                    // to this serial, uncollapsed reference.
                    let report = analyze_classes_on_budget(
                        &engine,
                        &faults,
                        &classes,
                        1,
                        &Budget::unlimited(),
                    );
                    let denom = weight.max(1) as f64;
                    assert_eq!(report.total_weight, weight);
                    assert_eq!(report.worst_segments, worst_seg);
                    assert_eq!(report.avg_segments, sum_seg / denom);
                    assert_eq!(report.worst_bits, worst_bits);
                    assert_eq!(report.avg_bits, sum_bits / denom);
                    assert_eq!(report.worst_fault, worst_fault);
                    assert!(report.is_complete());
                }
            }
        }
    }

    #[test]
    fn fig2_control_owner_blocks_series_merge_through_a() {
        // A owns the mux address bit, so the scan_in → A pair must NOT
        // merge with anything downstream of A's control cone — but
        // scan_in/A itself is eligible (scan_in owns nothing).
        let rsn = fig2();
        let faults = fault_universe(&rsn);
        let classes = FaultClasses::build(&rsn, &faults, HardeningProfile::unhardened());
        assert!(classes.collapse_ratio() > 1.0);
        assert!(classes.len() < faults.len());
    }
}
