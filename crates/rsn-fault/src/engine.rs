//! Structural accessibility engine for faulty RSNs.
//!
//! For a given [`FaultEffect`], the engine decides for every scan segment
//! whether an *activatable, clean* scan path exists from a scan-in port
//! through the segment to a scan-out port:
//!
//! * **clean** — avoiding all corrupted nodes and multiplexer input edges
//!   (the paper's first access condition: a secondary path that does not
//!   use the faulty scan element),
//! * **activatable** — every multiplexer on the path can be set to the
//!   required input: its address is either free (the controlling register
//!   is itself writable through a clean prefix) or pinned to the required
//!   value (the paper's second access condition: the path must be
//!   configurable by CSU operations).
//!
//! Control writability is a fixed point: a register is writable only via a
//! clean path whose multiplexers are configurable, which may depend on
//! other registers' writability. The fixed point bootstraps from the
//! reset configuration and monotonically *promotes* control bits to fully
//! controllable once their owner is proven writable — starting pessimistic
//! keeps the verdict sound (no circular self-justification).
//!
//! # Engine architecture
//!
//! The fault-tolerance metric evaluates accessibility once per stuck-at
//! fault, so everything that does not depend on the fault is precomputed
//! once in [`AccessEngine::new`]: the dense control-bit index, reset
//! values, roots/sinks, CSR edge arrays with multiplexer input indices,
//! and the multiplexer address expressions *compiled* against the dense
//! index ([`CompiledExpr`]). Per-fault working memory lives in a
//! caller-owned [`Scratch`] so sweeps over thousands of faults allocate
//! nothing in the fixed point.
//!
//! Evaluation is bit-parallel: [`AccessEngine::accessibility_batch`]
//! evaluates up to [`LANES`] fault effects at once, one bit lane of a
//! `u64` word per effect. Every per-node, per-control-bit and
//! per-multiplexer-input fact of the fixed point is a lane word, and the
//! reachability passes are single sweeps over the dataflow DAG in
//! topological order, so one pass serves all 64 effects.
//! [`AccessEngine::accessibility`] is the one-lane call. The tests check
//! every lane against a HashMap-based reference that walks the network
//! itself, so none of the precomputation above is shared with the oracle.
//!
//! The free function [`accessibility`] remains as a one-shot convenience
//! wrapper; any caller evaluating more than one fault should build an
//! engine and reuse it.

use std::sync::Arc;

use rsn_core::{CompiledExpr, Config, NodeId, NodeKind, Rsn};

use crate::effect::FaultEffect;

/// Number of fault effects one batch evaluates: one bit lane of a `u64`
/// word per effect.
pub const LANES: usize = 64;

/// The mask of the first `lanes` lanes of a word.
fn live_lanes(lanes: usize) -> u64 {
    if lanes >= LANES {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

/// Per-segment accessibility under one fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accessibility {
    /// `accessible[node.index()]` for segment nodes; `false` elsewhere.
    pub accessible: Vec<bool>,
    /// Number of accessible segments.
    pub accessible_segments: usize,
    /// Total number of segments.
    pub total_segments: usize,
    /// Scan bits in accessible segments.
    pub accessible_bits: u64,
    /// Total scan bits.
    pub total_bits: u64,
}

impl Accessibility {
    /// Fraction of accessible segments (1.0 for an empty network).
    pub fn segment_fraction(&self) -> f64 {
        if self.total_segments == 0 {
            1.0
        } else {
            self.accessible_segments as f64 / self.total_segments as f64
        }
    }

    /// Fraction of accessible scan bits (1.0 for an empty network).
    pub fn bit_fraction(&self) -> f64 {
        if self.total_bits == 0 {
            1.0
        } else {
            self.accessible_bits as f64 / self.total_bits as f64
        }
    }
}

/// Decides in every lane at once which values a compiled expression can
/// be made to evaluate to: bit `l` of element `v` of the result is set
/// iff it can evaluate to `v` in lane `l`, given control bit `i`'s
/// `[can0, can1]` lane words in `can[i]`. Unresolved references are
/// conservatively unsatisfiable; primary inputs are always drivable.
fn can_set_lanes(expr: &CompiledExpr, can: &[[u64; 2]]) -> [u64; 2] {
    match expr {
        CompiledExpr::Const(b) => {
            if *b {
                [0, !0]
            } else {
                [!0, 0]
            }
        }
        CompiledExpr::Bit(i) => can[*i as usize],
        CompiledExpr::Input(_) => [!0, !0],
        CompiledExpr::Unknown => [0, 0],
        CompiledExpr::Not(e) => {
            let [c0, c1] = can_set_lanes(e, can);
            [c1, c0]
        }
        CompiledExpr::And(es) => es.iter().fold([0, !0], |[c0, c1], e| {
            let [e0, e1] = can_set_lanes(e, can);
            [c0 | e0, c1 & e1]
        }),
        CompiledExpr::Or(es) => es.iter().fold([!0, 0], |[c0, c1], e| {
            let [e0, e1] = can_set_lanes(e, can);
            [c0 & e0, c1 | e1]
        }),
    }
}

/// One dataflow edge in the flat CSR adjacency arrays. `other` is the
/// far endpoint (target for forward edges, source for backward edges);
/// `input` is the flat index of the multiplexer input the edge enters
/// (`u32::MAX` for plain edges), which indexes the per-input lane words
/// directly.
#[derive(Debug, Clone, Copy)]
struct CsrEdge {
    other: u32,
    input: u32,
}

const NO_MUX: u32 = u32::MAX;

/// Fault-independent data of one multiplexer: its address bits compiled
/// against the engine's dense control-bit index.
#[derive(Debug, Clone)]
struct MuxInfo {
    addr: Vec<CompiledExpr>,
    inputs: u32,
    /// Flat index of input 0; inputs occupy `first_input..first_input +
    /// inputs` of the per-input lane arrays.
    first_input: u32,
}

/// Reusable, fault-independent accessibility engine over one network.
///
/// Construction precomputes the dense control-bit index, reset values,
/// roots/sinks, CSR edge arrays and compiled multiplexer addresses;
/// [`AccessEngine::accessibility_batch`] then evaluates up to [`LANES`]
/// [`FaultEffect`]s per pass using caller-owned [`Scratch`] buffers.
///
/// # Example
///
/// ```
/// use rsn_core::examples::fig2;
/// use rsn_fault::{AccessEngine, FaultEffect};
///
/// let rsn = fig2();
/// let engine = AccessEngine::new(&rsn);
/// let mut scratch = engine.scratch();
/// let acc = engine.accessibility(&FaultEffect::benign(), &mut scratch);
/// assert_eq!(acc.segment_fraction(), 1.0);
/// ```
#[derive(Debug)]
pub struct AccessEngine {
    rsn: Arc<Rsn>,
    /// All control bits referenced by any multiplexer address, sorted —
    /// position is the dense index used by `CompiledExpr::Bit`.
    bits: Vec<(NodeId, u32)>,
    /// Reset value per dense bit: the fixed point's bootstrap.
    reset_values: Vec<bool>,
    /// Dataflow roots (primary + secondary scan-in).
    roots: Vec<NodeId>,
    /// Dataflow sinks (primary + secondary scan-out).
    sinks: Vec<NodeId>,
    /// `is_root[node.index()]`: the forward lane pass's seeds.
    is_root: Vec<bool>,
    /// `is_sink[node.index()]`: the backward lane pass's seeds.
    is_sink: Vec<bool>,
    /// Compiled multiplexers, in arena order.
    muxes: Vec<MuxInfo>,
    /// Total number of multiplexer inputs (length of the per-input lane
    /// arrays).
    mux_inputs: usize,
    /// node index → index into `muxes` (`u32::MAX` for non-mux nodes).
    mux_slot: Vec<u32>,
    /// CSR offsets into `fwd_edges` (length `node_count + 1`).
    fwd_off: Vec<u32>,
    /// Successor edges, grouped by source node (CSR layout — one flat
    /// allocation so the traversal inner loops stay cache-resident).
    fwd_edges: Vec<CsrEdge>,
    /// CSR offsets into `bwd_edges` (length `node_count + 1`).
    bwd_off: Vec<u32>,
    /// Predecessor edges, grouped by target node (CSR layout).
    bwd_edges: Vec<CsrEdge>,
    /// Segment nodes with their scan-bit lengths.
    segments: Vec<(NodeId, u64)>,
    /// Total scan bits over all segments.
    total_bits: u64,
    /// The `accessible` vector of a fault-free verdict: `true` at every
    /// segment node.
    all_accessible: Vec<bool>,
    /// Cached reset configuration.
    reset: Config,
}

/// Caller-owned per-fault working memory of an [`AccessEngine`].
///
/// One `Scratch` serves any number of sequential evaluations on the
/// engine that created it; parallel sweeps use one per worker. The
/// `lane_*` words hold one bit per effect of the current batch.
#[derive(Debug, Clone)]
pub struct Scratch {
    /// Per node: lanes in which the node is clean.
    lane_clean: Vec<u64>,
    /// Per node: lanes in which the segment loses its instrument access.
    lane_loss: Vec<u64>,
    /// Per node: `[clean, any]` forward reachability from the roots.
    lane_reach: Vec<[u64; 2]>,
    /// Per node: backward reachability from the sinks (any during the
    /// fixed point, clean for the verdict).
    lane_exit: Vec<u64>,
    /// Per control bit: `[can0, can1]` attainable values.
    lane_can: Vec<[u64; 2]>,
    /// Per control bit: lanes in which the fault pins the bit.
    lane_pinned: Vec<u64>,
    /// Per mux input: `[clean, any]` usability — selectable and, for the
    /// clean word, not corrupted.
    lane_conf: Vec<[u64; 2]>,
    /// Per mux input: lanes in which the input edge is corrupted.
    lane_corrupt: Vec<u64>,
    /// Per mux input: lanes whose pinned address selects this input.
    lane_forced_on: Vec<u64>,
    /// Per mux: lanes in which the fault pins the address.
    lane_forced: Vec<u64>,
    /// Per address bit: `[can0, can1]` staging while building lane masks.
    lane_addr: Vec<[u64; 2]>,
    /// `[stuck at 0, stuck at 1]`: lanes whose effect records that
    /// stuck value.
    lane_stuck: [u64; 2],
    /// Verdicts of the last batch, one per lane (buffers reused across
    /// batches).
    verdicts: Vec<Accessibility>,
}

// Compile-time guarantee: the engine stays shareable across threads
// (sweep workers and resident-service requests hold `&`/`Arc` views).
const _: () = {
    const fn require_send_sync<T: Send + Sync>() {}
    require_send_sync::<AccessEngine>()
};

impl AccessEngine {
    /// Precomputes all fault-independent state of `rsn`.
    ///
    /// Clones the network into an [`Arc`]; callers that already hold one
    /// use [`AccessEngine::from_arc`] to share it instead.
    pub fn new(rsn: &Rsn) -> Self {
        AccessEngine::from_arc(Arc::new(rsn.clone()))
    }

    /// Precomputes all fault-independent state of a shared network. The
    /// engine owns (a handle to) the network, so it carries no borrow —
    /// cacheable and shareable across threads/requests.
    pub fn from_arc(rsn_arc: Arc<Rsn>) -> Self {
        let rsn: &Rsn = &rsn_arc;
        let n = rsn.node_count();

        // Dense control-bit index: every register bit referenced by any
        // multiplexer address, sorted and deduplicated.
        let mut bits = Vec::new();
        for m in rsn.muxes() {
            for expr in &rsn
                .node(m)
                .as_mux()
                .expect("muxes() yields muxes")
                .addr_bits
            {
                expr.collect_reg_refs(&mut bits);
            }
        }
        bits.sort_unstable();
        bits.dedup();

        let reset = rsn.reset_config();
        let reset_values: Vec<bool> = bits
            .iter()
            .map(|&(node, bit)| match rsn.shadow_offset(node) {
                Some(off) => reset.bit((off + bit) as usize),
                None => false,
            })
            .collect();

        // Compiled multiplexers and edge lists.
        let lookup = |node: NodeId, bit: u32| -> Option<u32> {
            bits.binary_search(&(node, bit)).ok().map(|i| i as u32)
        };
        let mut muxes = Vec::new();
        let mut mux_inputs = 0u32;
        let mut mux_slot = vec![u32::MAX; n];
        let mut fwd: Vec<Vec<CsrEdge>> = vec![Vec::new(); n];
        let mut bwd: Vec<Vec<CsrEdge>> = vec![Vec::new(); n];
        for id in rsn.node_ids() {
            match rsn.node(id).kind() {
                NodeKind::Mux(m) => {
                    mux_slot[id.index()] = muxes.len() as u32;
                    muxes.push(MuxInfo {
                        addr: m
                            .addr_bits
                            .iter()
                            .map(|e| e.compile(&mut |node, bit| lookup(node, bit)))
                            .collect(),
                        inputs: m.inputs.len() as u32,
                        first_input: mux_inputs,
                    });
                    for (k, &inp) in m.inputs.iter().enumerate() {
                        let edge = |other: usize| CsrEdge {
                            other: other as u32,
                            input: mux_inputs + k as u32,
                        };
                        fwd[inp.index()].push(edge(id.index()));
                        bwd[id.index()].push(edge(inp.index()));
                    }
                    mux_inputs += m.inputs.len() as u32;
                }
                _ => {
                    if let Some(src) = rsn.node(id).source() {
                        let edge = |other: usize| CsrEdge {
                            other: other as u32,
                            input: NO_MUX,
                        };
                        fwd[src.index()].push(edge(id.index()));
                        bwd[id.index()].push(edge(src.index()));
                    }
                }
            }
        }
        let flatten = |lists: Vec<Vec<CsrEdge>>| -> (Vec<u32>, Vec<CsrEdge>) {
            let mut off = Vec::with_capacity(lists.len() + 1);
            let mut edges = Vec::with_capacity(lists.iter().map(Vec::len).sum());
            off.push(0);
            for list in lists {
                edges.extend_from_slice(&list);
                off.push(edges.len() as u32);
            }
            (off, edges)
        };
        let (fwd_off, fwd_edges) = flatten(fwd);
        let (bwd_off, bwd_edges) = flatten(bwd);

        let mut roots = vec![rsn.scan_in()];
        roots.extend(rsn.secondary_scan_in());
        let mut sinks = vec![rsn.scan_out()];
        sinks.extend(rsn.secondary_scan_out());
        let mut is_root = vec![false; n];
        for r in &roots {
            is_root[r.index()] = true;
        }
        let mut is_sink = vec![false; n];
        for s in &sinks {
            is_sink[s.index()] = true;
        }

        let segments: Vec<(NodeId, u64)> = rsn
            .segments()
            .map(|s| {
                (
                    s,
                    rsn.node(s)
                        .as_segment()
                        .expect("segments() yields segments")
                        .length as u64,
                )
            })
            .collect();
        let total_bits = segments.iter().map(|&(_, l)| l).sum();
        let mut all_accessible = vec![false; n];
        for &(seg, _) in &segments {
            all_accessible[seg.index()] = true;
        }

        AccessEngine {
            rsn: Arc::clone(&rsn_arc),
            bits,
            reset_values,
            roots,
            sinks,
            is_root,
            is_sink,
            muxes,
            mux_inputs: mux_inputs as usize,
            mux_slot,
            fwd_off,
            fwd_edges,
            bwd_off,
            bwd_edges,
            segments,
            total_bits,
            all_accessible,
            reset,
        }
    }

    /// The network this engine was built for.
    pub fn rsn(&self) -> &Rsn {
        &self.rsn
    }

    /// The cached reset configuration of the network.
    pub fn reset_config(&self) -> &Config {
        &self.reset
    }

    /// Dataflow roots (primary + secondary scan-in ports).
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Dataflow sinks (primary + secondary scan-out ports).
    pub fn sinks(&self) -> &[NodeId] {
        &self.sinks
    }

    /// Allocates a [`Scratch`] sized for this engine.
    pub fn scratch(&self) -> Scratch {
        let n = self.rsn.node_count();
        Scratch {
            lane_clean: vec![0; n],
            lane_loss: vec![0; n],
            lane_reach: vec![[0; 2]; n],
            lane_exit: vec![0; n],
            lane_can: vec![[0; 2]; self.bits.len()],
            lane_pinned: vec![0; self.bits.len()],
            lane_conf: vec![[0; 2]; self.mux_inputs],
            lane_corrupt: vec![0; self.mux_inputs],
            lane_forced_on: vec![0; self.mux_inputs],
            lane_forced: vec![0; self.muxes.len()],
            lane_addr: Vec::with_capacity(8),
            lane_stuck: [0; 2],
            verdicts: Vec::with_capacity(LANES),
        }
    }

    /// Computes per-segment accessibility under one fault effect, reusing
    /// the engine's precomputation and the caller's scratch buffers: a
    /// one-lane [`AccessEngine::accessibility_batch`]. Sweeps over many
    /// effects batch them instead.
    pub fn accessibility(&self, effect: &FaultEffect, scratch: &mut Scratch) -> Accessibility {
        self.accessibility_batch(&[effect], scratch)[0].clone()
    }

    /// Computes per-segment accessibility under each of up to [`LANES`]
    /// `effects` in one bit-parallel pass; verdict `l` is `effects[l]`'s.
    /// The verdicts live in `scratch` until its next evaluation, so a
    /// sweep reuses their buffers instead of allocating per pass.
    ///
    /// Each lane follows exactly the round-by-round trajectory of a
    /// one-effect evaluation of its own effect; a batch runs until no lane
    /// changes, and extra rounds leave an already converged lane
    /// unchanged, so every verdict equals the one-effect evaluation — the
    /// property tests check it lane for lane against the HashMap
    /// reference.
    ///
    /// # Panics
    ///
    /// If `effects` holds more than [`LANES`] effects.
    pub fn accessibility_batch<'s>(
        &self,
        effects: &[&FaultEffect],
        scratch: &'s mut Scratch,
    ) -> &'s [Accessibility] {
        assert!(
            effects.len() <= LANES,
            "one pass evaluates at most {LANES} effects, got {}",
            effects.len()
        );
        if effects.is_empty() {
            return &[];
        }
        let live = live_lanes(effects.len());
        self.load_lanes(effects, scratch);
        let rounds_run = self.fixed_point_lanes(scratch, live);
        // One batched export per pass keeps registry lock contention out
        // of the per-round hot loop.
        rsn_obs::hist_record("fault.warm_rounds", rounds_run);
        rsn_obs::debug!(
            "lane fixed point over {} effects converged after {rounds_run} rounds \
             over {} control bits",
            effects.len(),
            self.bits.len()
        );
        self.pass_backward(scratch, true);
        self.lane_verdicts(scratch, effects.len());
        &scratch.verdicts[..effects.len()]
    }

    /// Loads up to [`LANES`] effects into the lane words of `s` (lane `l`
    /// = `effects[l]`). Unused lanes load as benign.
    fn load_lanes(&self, effects: &[&FaultEffect], s: &mut Scratch) {
        debug_assert!(effects.len() <= LANES);
        s.lane_clean.fill(!0);
        s.lane_loss.fill(0);
        s.lane_corrupt.fill(0);
        s.lane_forced_on.fill(0);
        s.lane_forced.fill(0);
        s.lane_pinned.fill(0);
        for (can, &v) in s.lane_can.iter_mut().zip(&self.reset_values) {
            *can = if v { [0, !0] } else { [!0, 0] };
        }
        s.lane_stuck = [0; 2];
        for (l, effect) in effects.iter().enumerate() {
            let bit = 1u64 << l;
            // Corrupt nodes are unclean and fault-pinned bits fixed. Bits
            // of a corrupt register are NOT pinned: they hold the reset
            // value until the first CSU through the fault, and the
            // dirty-write rule adds the stuck value. All other bits start
            // at their reset value. Sites that match nothing in the
            // network (non-mux input edges, inputs out of range,
            // unreferenced bits) are ignored.
            for &c in &effect.corrupt_nodes {
                s.lane_clean[c.index()] &= !bit;
            }
            for &(m, k) in &effect.corrupt_mux_inputs {
                if let Some(input) = self.mux_input(m, k) {
                    s.lane_corrupt[input] |= bit;
                }
            }
            for (&(node, b), &v) in &effect.forced_bits {
                if let Ok(i) = self.bits.binary_search(&(node, b)) {
                    s.lane_pinned[i] |= bit;
                    s.lane_can[i][v as usize] |= bit;
                    s.lane_can[i][!v as usize] &= !bit;
                }
            }
            for (&m, &k) in &effect.forced_mux {
                if let Some(&slot) = self.mux_slot.get(m.index()) {
                    if slot != NO_MUX {
                        s.lane_forced[slot as usize] |= bit;
                    }
                }
                if let Some(input) = self.mux_input(m, k) {
                    s.lane_forced_on[input] |= bit;
                }
            }
            for &seg in &effect.local_loss {
                if let Some(w) = s.lane_loss.get_mut(seg.index()) {
                    *w |= bit;
                }
            }
            if let Some(v) = effect.stuck {
                s.lane_stuck[v as usize] |= bit;
            }
        }
    }

    /// Flat input index of input `k` of mux `m`, or `None` if `m` is not
    /// a mux of this network or has no input `k`.
    fn mux_input(&self, m: NodeId, k: usize) -> Option<usize> {
        let slot = *self.mux_slot.get(m.index())?;
        let info = self.muxes.get(slot as usize)?;
        (k < info.inputs as usize).then(|| (info.first_input as usize) + k)
    }

    /// Runs the control-writability fixed point in every lane at once:
    /// grow the attainable-value sets from the bootstrap (reset)
    /// configuration. A bit becomes fully controllable when its owner has
    /// a *clean* configurable write path; a *dirty* write path (through
    /// the fault site) still deterministically delivers the fault's stuck
    /// value, so it adds exactly that value (the adapted transition
    /// relation of Sec. III-A). Monotone increasing, hence terminating;
    /// starting pessimistic keeps the verdict sound.
    ///
    /// Every round rebuilds all input usability words, runs one forward
    /// and one backward pass, and applies the promotion rule to every lane
    /// at once. Runs until no live lane promotes a bit (capped at
    /// `2·bits + 1` rounds) and returns the number of rounds run. On
    /// return `lane_reach` and `lane_conf` match the final bit states.
    fn fixed_point_lanes(&self, s: &mut Scratch, live: u64) -> u64 {
        let mut rounds_run = 0u64;
        let mut converged = false;
        for _ in 0..=2 * self.bits.len() {
            rounds_run += 1;
            self.refresh_lane_masks(s);
            self.pass_forward(s);
            self.pass_backward(s, false);
            let mut changed = false;
            for (i, &(node, _)) in self.bits.iter().enumerate() {
                let [c0, c1] = s.lane_can[i];
                let open = live & !s.lane_pinned[i] & !(c0 & c1);
                if open == 0 {
                    continue;
                }
                let ni = node.index();
                let [rc, ra] = s.lane_reach[ni];
                // A dirty write delivers the stuck value, which changes an
                // unpinned bit (still at its reset value) only when the two
                // differ: then the bit can hold both values.
                let differs = s.lane_stuck[!self.reset_values[i] as usize];
                let promote = open & s.lane_exit[ni] & ((s.lane_clean[ni] & rc) | (ra & differs));
                if promote != 0 {
                    s.lane_can[i] = [c0 | promote, c1 | promote];
                    changed = true;
                }
            }
            if !changed {
                converged = true;
                break;
            }
        }
        if !converged {
            // The cap cut the last round's promotions off from the masks
            // and forward sets; bring them up to date for the verdict.
            self.refresh_lane_masks(s);
            self.pass_forward(s);
        }
        rounds_run
    }

    /// Rebuilds every mux input's `[clean, any]` usability word from the
    /// current control-bit lane words, the pinned addresses and the
    /// corrupted input edges.
    fn refresh_lane_masks(&self, s: &mut Scratch) {
        for (slot, info) in self.muxes.iter().enumerate() {
            s.lane_addr.clear();
            for e in &info.addr {
                s.lane_addr.push(can_set_lanes(e, &s.lane_can));
            }
            let free = !s.lane_forced[slot];
            let first = info.first_input as usize;
            for k in 0..info.inputs as usize {
                let mut conf = free;
                for (i, a) in s.lane_addr.iter().enumerate() {
                    conf &= a[(k >> i) & 1];
                }
                let input = first + k;
                let any = conf | s.lane_forced_on[input];
                s.lane_conf[input] = [any & !s.lane_corrupt[input], any];
            }
        }
    }

    /// Forward `[clean, any]` reachability from the roots, one sweep in
    /// topological order (every predecessor is final before its node).
    fn pass_forward(&self, s: &mut Scratch) {
        for &v in self.rsn.topo_order() {
            let vi = v.index();
            let mut acc = if self.is_root[vi] { [!0; 2] } else { [0; 2] };
            let (lo, hi) = (self.bwd_off[vi] as usize, self.bwd_off[vi + 1] as usize);
            for e in &self.bwd_edges[lo..hi] {
                let r = s.lane_reach[e.other as usize];
                if e.input == NO_MUX {
                    acc[0] |= r[0];
                    acc[1] |= r[1];
                } else {
                    let c = s.lane_conf[e.input as usize];
                    acc[0] |= r[0] & c[0];
                    acc[1] |= r[1] & c[1];
                }
            }
            acc[0] &= s.lane_clean[vi];
            s.lane_reach[vi] = acc;
        }
    }

    /// Backward reachability from the sinks into `lane_exit`, one sweep in
    /// reverse topological order: over any usable edges for the fixed
    /// point, over clean nodes and uncorrupted edges for the verdict.
    fn pass_backward(&self, s: &mut Scratch, require_clean: bool) {
        let side = usize::from(!require_clean);
        for &u in self.rsn.topo_order().iter().rev() {
            let ui = u.index();
            let mut acc = if self.is_sink[ui] { !0 } else { 0 };
            let (lo, hi) = (self.fwd_off[ui] as usize, self.fwd_off[ui + 1] as usize);
            for e in &self.fwd_edges[lo..hi] {
                let x = s.lane_exit[e.other as usize];
                acc |= if e.input == NO_MUX {
                    x
                } else {
                    x & s.lane_conf[e.input as usize][side]
                };
            }
            if require_clean {
                acc &= s.lane_clean[ui];
            }
            s.lane_exit[ui] = acc;
        }
    }

    /// Writes the verdicts of the first `lanes` lanes into
    /// `s.verdicts[..lanes]` from the converged clean reach and clean exit
    /// words.
    fn lane_verdicts(&self, s: &mut Scratch, lanes: usize) {
        if s.verdicts.len() < lanes {
            s.verdicts.resize(
                lanes,
                Accessibility {
                    accessible: self.all_accessible.clone(),
                    accessible_segments: 0,
                    total_segments: self.segments.len(),
                    accessible_bits: 0,
                    total_bits: self.total_bits,
                },
            );
        }
        // Start every lane from the fault-free verdict and take away the
        // lost segments: far fewer than the accessible ones in a sweep.
        let verdicts = &mut s.verdicts[..lanes];
        for acc in verdicts.iter_mut() {
            acc.accessible.copy_from_slice(&self.all_accessible);
            acc.accessible_segments = self.segments.len();
            acc.accessible_bits = self.total_bits;
        }
        for &(seg, len) in &self.segments {
            let si = seg.index();
            let ok = s.lane_clean[si] & !s.lane_loss[si] & s.lane_reach[si][0] & s.lane_exit[si];
            let mut lost = live_lanes(lanes) & !ok;
            while lost != 0 {
                let acc = &mut verdicts[lost.trailing_zeros() as usize];
                lost &= lost - 1;
                acc.accessible[si] = false;
                acc.accessible_segments -= 1;
                acc.accessible_bits -= len;
            }
        }
    }
}

/// Computes per-segment accessibility under a fault effect.
///
/// One-shot convenience wrapper over [`AccessEngine`]: builds the engine
/// and a scratch, evaluates one effect, and drops both. Callers
/// evaluating more than one fault on the same network should build the
/// engine once and reuse it.
///
/// # Example
///
/// ```
/// use rsn_core::examples::fig2;
/// use rsn_fault::{accessibility, FaultEffect};
///
/// let rsn = fig2();
/// // Fault-free: everything accessible.
/// let acc = accessibility(&rsn, &FaultEffect::benign());
/// assert_eq!(acc.segment_fraction(), 1.0);
/// ```
pub fn accessibility(rsn: &Rsn, effect: &FaultEffect) -> Accessibility {
    let engine = AccessEngine::new(rsn);
    let mut scratch = engine.scratch();
    engine.accessibility(effect, &mut scratch)
}

/// The original HashMap-based accessibility computation, kept verbatim as
/// the slow oracle of every lane-equivalence test in the crate. It walks
/// the network through [`Rsn`] alone, with scalar depth-first traversals
/// and uncompiled address expressions, so it shares none of the engine's
/// precomputation (dense bit index, CSR arrays, compiled expressions).
#[cfg(test)]
pub(crate) mod reference {
    use std::collections::HashMap;

    use rsn_core::{Config, ControlExpr, NodeId, NodeKind, Rsn};

    use super::Accessibility;
    use crate::effect::FaultEffect;

    /// Attainable-value lattice of one control bit.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct BitState {
        /// The bit can hold 0 in some reachable configuration.
        can0: bool,
        /// The bit can hold 1 in some reachable configuration.
        can1: bool,
        /// Pinned by the fault (stuck cell): never promoted.
        pinned: bool,
    }

    impl BitState {
        fn pinned(v: bool) -> Self {
            BitState {
                can0: !v,
                can1: v,
                pinned: true,
            }
        }

        fn known(v: bool) -> Self {
            BitState {
                can0: !v,
                can1: v,
                pinned: false,
            }
        }

        fn both(self) -> Self {
            BitState {
                can0: true,
                can1: true,
                pinned: self.pinned,
            }
        }

        fn with_value(self, v: bool) -> Self {
            BitState {
                can0: self.can0 || !v,
                can1: self.can1 || v,
                pinned: self.pinned,
            }
        }

        fn is_both(self) -> bool {
            self.can0 && self.can1
        }
    }

    fn can_set(expr: &ControlExpr, want: bool, states: &HashMap<(NodeId, u32), BitState>) -> bool {
        match expr {
            ControlExpr::Const(b) => *b == want,
            ControlExpr::Reg(n, bit) => match states.get(&(*n, *bit)) {
                Some(s) => {
                    if want {
                        s.can1
                    } else {
                        s.can0
                    }
                }
                None => false,
            },
            ControlExpr::Input(_) => true, // primary inputs are always drivable
            ControlExpr::Not(e) => can_set(e, !want, states),
            ControlExpr::And(es) => {
                if want {
                    es.iter().all(|e| can_set(e, true, states))
                } else {
                    es.iter().any(|e| can_set(e, false, states))
                }
            }
            ControlExpr::Or(es) => {
                if want {
                    es.iter().any(|e| can_set(e, true, states))
                } else {
                    es.iter().all(|e| can_set(e, false, states))
                }
            }
        }
    }

    struct EngineCtx<'a> {
        rsn: &'a Rsn,
        clean: Vec<bool>,
        corrupt_inputs: HashMap<(NodeId, usize), ()>,
        forced_mux: &'a HashMap<NodeId, usize>,
        states: HashMap<(NodeId, u32), BitState>,
        roots: Vec<NodeId>,
        sinks: Vec<NodeId>,
    }

    impl EngineCtx<'_> {
        fn configurable(&self, m: NodeId, k: usize) -> bool {
            if let Some(&forced) = self.forced_mux.get(&m) {
                return forced == k;
            }
            let mux = self.rsn.node(m).as_mux().expect("mux");
            mux.addr_bits.iter().enumerate().all(|(i, expr)| {
                let want = (k >> i) & 1 == 1;
                can_set(expr, want, &self.states)
            })
        }

        fn forward(&self, require_clean: bool) -> Vec<bool> {
            let n = self.rsn.node_count();
            let mut seen = vec![false; n];
            let mut stack = Vec::new();
            for &r in &self.roots {
                if !require_clean || self.clean[r.index()] {
                    seen[r.index()] = true;
                    stack.push(r);
                }
            }
            while let Some(u) = stack.pop() {
                for &v in self.rsn.successors(u) {
                    if seen[v.index()] {
                        continue;
                    }
                    if require_clean && !self.clean[v.index()] {
                        continue;
                    }
                    let edge_ok = match self.rsn.node(v).kind() {
                        NodeKind::Mux(mux) => mux.inputs.iter().enumerate().any(|(k, &inp)| {
                            inp == u
                                && self.configurable(v, k)
                                && (!require_clean || !self.corrupt_inputs.contains_key(&(v, k)))
                        }),
                        _ => true,
                    };
                    if edge_ok {
                        seen[v.index()] = true;
                        stack.push(v);
                    }
                }
            }
            seen
        }

        fn backward(&self, require_clean: bool) -> Vec<bool> {
            let n = self.rsn.node_count();
            let mut seen = vec![false; n];
            let mut stack = Vec::new();
            for &s in &self.sinks {
                if !require_clean || self.clean[s.index()] {
                    seen[s.index()] = true;
                    stack.push(s);
                }
            }
            while let Some(v) = stack.pop() {
                let preds: Vec<(NodeId, Option<usize>)> = match self.rsn.node(v).kind() {
                    NodeKind::Mux(mux) => mux
                        .inputs
                        .iter()
                        .enumerate()
                        .map(|(k, &inp)| (inp, Some(k)))
                        .collect(),
                    _ => self
                        .rsn
                        .node(v)
                        .source()
                        .map(|s| (s, None))
                        .into_iter()
                        .collect(),
                };
                for (u, edge) in preds {
                    if seen[u.index()] {
                        continue;
                    }
                    if require_clean && !self.clean[u.index()] {
                        continue;
                    }
                    let edge_ok = match edge {
                        Some(k) => {
                            self.configurable(v, k)
                                && (!require_clean || !self.corrupt_inputs.contains_key(&(v, k)))
                        }
                        None => true,
                    };
                    if edge_ok {
                        seen[u.index()] = true;
                        stack.push(u);
                    }
                }
            }
            seen
        }
    }

    fn control_bits(rsn: &Rsn) -> Vec<(NodeId, u32)> {
        let mut bits = Vec::new();
        for m in rsn.muxes() {
            for expr in &rsn.node(m).as_mux().expect("mux").addr_bits {
                expr.collect_reg_refs(&mut bits);
            }
        }
        bits.sort_unstable();
        bits.dedup();
        bits
    }

    fn reset_bit(cfg: &Config, idx: u32) -> bool {
        cfg.bit(idx as usize)
    }

    /// The pre-engine `accessibility` implementation, verbatim.
    pub(crate) fn accessibility(rsn: &Rsn, effect: &FaultEffect) -> Accessibility {
        let n = rsn.node_count();
        let mut clean = vec![true; n];
        for &c in &effect.corrupt_nodes {
            clean[c.index()] = false;
        }
        let corrupt_inputs: HashMap<(NodeId, usize), ()> =
            effect.corrupt_mux_inputs.iter().map(|&e| (e, ())).collect();

        let reset = rsn.reset_config();
        let bits = control_bits(rsn);
        let reset_value = |node: NodeId, bit: u32| -> bool {
            match rsn.shadow_offset(node) {
                Some(off) => reset_bit(&reset, off + bit),
                None => false,
            }
        };
        let states: HashMap<(NodeId, u32), BitState> = bits
            .iter()
            .map(|&(node, bit)| {
                let state = match effect.forced_bits.get(&(node, bit)) {
                    Some(&v) => BitState::pinned(v),
                    None => BitState::known(reset_value(node, bit)),
                };
                ((node, bit), state)
            })
            .collect();

        let mut roots = vec![rsn.scan_in()];
        roots.extend(rsn.secondary_scan_in());
        let mut sinks = vec![rsn.scan_out()];
        sinks.extend(rsn.secondary_scan_out());

        let mut ctx = EngineCtx {
            rsn,
            clean,
            corrupt_inputs,
            forced_mux: &effect.forced_mux,
            states,
            roots,
            sinks,
        };

        for _ in 0..=2 * bits.len() {
            let reach_clean = ctx.forward(true);
            let reach_any = ctx.forward(false);
            let can_exit = ctx.backward(false);
            let mut changed = false;
            for &(node, bit) in &bits {
                let cur = match ctx.states.get(&(node, bit)) {
                    Some(s) if !s.pinned && !s.is_both() => *s,
                    _ => continue,
                };
                let mut next = cur;
                if ctx.clean[node.index()] && reach_clean[node.index()] && can_exit[node.index()] {
                    next = next.both();
                } else if let Some(stuck) = effect.stuck {
                    if reach_any[node.index()] && can_exit[node.index()] {
                        next = next.with_value(stuck);
                    }
                }
                if next != cur {
                    ctx.states.insert((node, bit), next);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let reach_clean = ctx.forward(true);
        let exit_clean = ctx.backward(true);

        let mut accessible = vec![false; n];
        let mut accessible_segments = 0usize;
        let mut total_segments = 0usize;
        let mut accessible_bits = 0u64;
        let mut total_bits = 0u64;
        for seg in rsn.segments() {
            total_segments += 1;
            let len = rsn
                .node(seg)
                .as_segment()
                .expect("segments() yields segments")
                .length as u64;
            total_bits += len;
            let ok = ctx.clean[seg.index()]
                && !effect.local_loss.contains(&seg)
                && reach_clean[seg.index()]
                && exit_clean[seg.index()];
            if ok {
                accessible[seg.index()] = true;
                accessible_segments += 1;
                accessible_bits += len;
            }
        }

        Accessibility {
            accessible,
            accessible_segments,
            total_segments,
            accessible_bits,
            total_bits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::effect_of;
    use crate::fault::{fault_universe, Fault, FaultSite};
    use crate::metric::HardeningProfile;
    use rsn_core::examples::{chain, fig2, sib_tree};
    use rsn_itc02::parse_soc;
    use rsn_sib::generate;

    fn acc_for(rsn: &Rsn, fault: Fault) -> Accessibility {
        let e = effect_of(rsn, &fault, HardeningProfile::unhardened());
        accessibility(rsn, &e)
    }

    #[test]
    fn fault_free_everything_accessible() {
        let rsn = fig2();
        let acc = accessibility(&rsn, &FaultEffect::benign());
        assert_eq!(acc.accessible_segments, 4);
        assert_eq!(acc.segment_fraction(), 1.0);
        assert_eq!(acc.bit_fraction(), 1.0);
    }

    #[test]
    fn scan_in_fault_disconnects_everything() {
        let rsn = fig2();
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::ScanInPort(rsn.scan_in()),
                value: false,
                weight: 1,
            },
        );
        assert_eq!(acc.accessible_segments, 0);
        assert_eq!(acc.segment_fraction(), 0.0);
    }

    #[test]
    fn fault_on_a_kills_all_of_fig2() {
        // A is on every path in Fig. 2.
        let rsn = fig2();
        let a = rsn.find("A").expect("A");
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::SegmentData(a),
                value: false,
                weight: 2,
            },
        );
        assert_eq!(acc.accessible_segments, 0);
    }

    #[test]
    fn fault_on_b_leaves_a_c_d_accessible() {
        // B has the C-branch as an alternative in Fig. 2.
        let rsn = fig2();
        let b = rsn.find("B").expect("B");
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::SegmentData(b),
                value: false,
                weight: 2,
            },
        );
        assert_eq!(acc.accessible_segments, 3);
        assert!(!acc.accessible[b.index()]);
        for name in ["A", "C", "D"] {
            let id = rsn.find(name).expect("exists");
            assert!(acc.accessible[id.index()], "{name} must stay accessible");
        }
    }

    #[test]
    fn forced_mux_address_limits_branch() {
        // Address stuck at 0 pins the B branch: C inaccessible.
        let rsn = fig2();
        let m = rsn.find("M").expect("mux");
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::MuxAddress(m),
                value: false,
                weight: 1,
            },
        );
        let c = rsn.find("C").expect("C");
        let b = rsn.find("B").expect("B");
        assert!(!acc.accessible[c.index()]);
        assert!(acc.accessible[b.index()]);
        assert_eq!(acc.accessible_segments, 3);
    }

    #[test]
    fn control_register_data_fault_freezes_control() {
        // A's data fault: A unwritable, so the mux stays at reset (B
        // branch) — but A itself is corrupt, killing every path anyway.
        let rsn = fig2();
        let a = rsn.find("A").expect("A");
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::SegmentData(a),
                value: true,
                weight: 2,
            },
        );
        assert_eq!(acc.accessible_segments, 0);
    }

    #[test]
    fn sib_rsn_fault_in_subtree_spares_other_modules() {
        let soc = parse_soc("SocName t\n1 0 0 0 1 : 4\n2 0 0 0 1 : 4\n").expect("parse");
        let rsn = generate(&soc).expect("generate");
        let leaf1 = rsn.find("m1.c0.seg").expect("leaf");
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::SegmentData(leaf1),
                value: false,
                weight: 2,
            },
        );
        // Only that leaf is lost: its SIB and module 2 remain accessible.
        assert_eq!(acc.accessible_segments, acc.total_segments - 1);
        assert!(!acc.accessible[leaf1.index()]);
    }

    #[test]
    fn sib_rsn_top_level_sib_fault_kills_everything() {
        let soc = parse_soc("SocName t\n1 0 0 0 1 : 4\n2 0 0 0 1 : 4\n").expect("parse");
        let rsn = generate(&soc).expect("generate");
        let sib = rsn.find("m1.sib").expect("sib");
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::SegmentData(sib),
                value: false,
                weight: 2,
            },
        );
        // The module SIB register sits on the one-and-only top-level chain.
        assert_eq!(acc.accessible_segments, 0);
    }

    #[test]
    fn sib_shadow_stuck_closed_loses_subtree_only() {
        let soc = parse_soc("SocName t\n1 0 0 0 2 : 4 4\n2 0 0 0 1 : 4\n").expect("parse");
        let rsn = generate(&soc).expect("generate");
        let sib = rsn.find("m1.sib").expect("sib");
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::SegmentShadow(sib),
                value: false,
                weight: 1,
            },
        );
        // m1's subtree (2 chain SIBs + 2 leaves) is unreachable; the SIB
        // register itself is still on the scan path and accessible, as is
        // all of m2 and the tdr-free top level.
        let lost = 4;
        assert_eq!(acc.accessible_segments, acc.total_segments - lost);
        assert!(acc.accessible[sib.index()]);
    }

    #[test]
    fn sib_shadow_stuck_open_keeps_everything_accessible() {
        let soc = parse_soc("SocName t\n1 0 0 0 2 : 4 4\n2 0 0 0 1 : 4\n").expect("parse");
        let rsn = generate(&soc).expect("generate");
        let sib = rsn.find("m1.sib").expect("sib");
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::SegmentShadow(sib),
                value: true,
                weight: 1,
            },
        );
        // Stuck-open only forces the subtree onto the path; everything is
        // still reachable and clean.
        assert_eq!(acc.accessible_segments, acc.total_segments);
    }

    #[test]
    fn mux_bypass_input_fault_loses_bypass_only_when_needed() {
        // Bypass input corrupt: paths that need the bypass (i.e. everything
        // while the SIB is closed) must open the SIB instead; all segments
        // remain accessible because opening is always possible.
        let soc = parse_soc("SocName t\n1 0 0 0 1 : 4\n").expect("parse");
        let rsn = generate(&soc).expect("generate");
        let mux = rsn.find("m1.c0.mux").expect("mux");
        let acc = acc_for(
            &rsn,
            Fault {
                site: FaultSite::MuxInput(mux, 0),
                value: false,
                weight: 1,
            },
        );
        assert_eq!(acc.accessible_segments, acc.total_segments);
    }

    #[test]
    fn scratch_is_reusable_across_faults() {
        let rsn = fig2();
        let engine = AccessEngine::new(&rsn);
        let mut scratch = engine.scratch();
        let profile = HardeningProfile::unhardened();
        for fault in fault_universe(&rsn) {
            let effect = effect_of(&rsn, &fault, profile);
            let fresh = engine.accessibility(&effect, &mut engine.scratch());
            let reused = engine.accessibility(&effect, &mut scratch);
            assert_eq!(fresh, reused, "scratch reuse must not leak state");
        }
    }

    /// Deterministic splitmix64 generator for reproducible random cases.
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

    /// A random multi-module SIB SoC description: 1–3 modules with 1–3
    /// scan chains of 1–6 bits each.
    fn random_sib_rsn(rng: &mut Rng) -> Rsn {
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

    /// The effect kinds a lane batch mixes.
    const KINDS: [&str; 7] = [
        "benign",
        "corrupt node",
        "corrupt mux input",
        "forced bit",
        "forced mux",
        "local loss",
        "double fault",
    ];

    /// Index into [`KINDS`] of a single-fault effect.
    fn kind_of(e: &FaultEffect) -> usize {
        if !e.corrupt_nodes.is_empty() {
            1
        } else if !e.corrupt_mux_inputs.is_empty() {
            2
        } else if !e.forced_bits.is_empty() {
            3
        } else if !e.forced_mux.is_empty() {
            4
        } else if !e.local_loss.is_empty() {
            5
        } else {
            0
        }
    }

    /// Every effect kind of `rsn` in its own pool, with labels: each
    /// single-fault effect under both profiles, plus a sample of
    /// `combine_effects` double faults.
    fn effect_pools(rsn: &Rsn, rng: &mut Rng) -> (Vec<Vec<FaultEffect>>, Vec<Vec<String>>) {
        let mut pool: Vec<Vec<FaultEffect>> = vec![Vec::new(); KINDS.len()];
        let mut labels: Vec<Vec<String>> = vec![Vec::new(); KINDS.len()];
        for profile in [HardeningProfile::unhardened(), HardeningProfile::hardened()] {
            for fault in fault_universe(rsn) {
                let effect = effect_of(rsn, &fault, profile);
                let kind = kind_of(&effect);
                labels[kind].push(format!(
                    "{fault} (select_hardened {})",
                    profile.select_hardened
                ));
                pool[kind].push(effect);
            }
        }
        let singles: Vec<FaultEffect> = pool[1..6].concat();
        for _ in 0..singles.len().min(48) {
            let a = &singles[rng.below(singles.len() as u64) as usize];
            let b = &singles[rng.below(singles.len() as u64) as usize];
            pool[6].push(crate::multi::combine_effects(a, b));
            labels[6].push(format!("double fault {a:?} + {b:?}"));
        }
        (pool, labels)
    }

    /// Checks the engine against the HashMap reference on `rsn`:
    ///
    /// * every single-fault effect (both profiles) and a sample of
    ///   `combine_effects` double faults, one lane at a time;
    /// * batches of 1, 63 and 64 effects that cycle through every effect
    ///   kind the network has, lane for lane.
    fn assert_engine_matches_reference(rsn: &Rsn, label: &str) {
        let engine = AccessEngine::new(rsn);
        let mut scratch = engine.scratch();
        let mut rng = Rng(0x1a4e_5eed ^ rsn.node_count() as u64);
        let (pool, labels) = effect_pools(rsn, &mut rng);

        let mut expected: Vec<Vec<Accessibility>> = Vec::with_capacity(pool.len());
        for (kind, effects) in pool.iter().enumerate() {
            let mut slow_of_kind = Vec::with_capacity(effects.len());
            for (effect, what) in effects.iter().zip(&labels[kind]) {
                let lane = engine.accessibility(effect, &mut scratch);
                let slow = reference::accessibility(rsn, effect);
                assert_eq!(
                    lane, slow,
                    "{label}: engine/reference mismatch under {what}"
                );
                slow_of_kind.push(slow);
            }
            expected.push(slow_of_kind);
        }

        let kinds: Vec<usize> = (0..KINDS.len()).filter(|&k| !pool[k].is_empty()).collect();
        for size in [1, LANES - 1, LANES] {
            for batch_no in 0..2 * kinds.len() {
                let picks: Vec<(usize, usize)> = (0..size)
                    .map(|l| {
                        let kind = kinds[(batch_no + l) % kinds.len()];
                        (kind, rng.below(pool[kind].len() as u64) as usize)
                    })
                    .collect();
                let batch: Vec<&FaultEffect> = picks.iter().map(|&(k, i)| &pool[k][i]).collect();
                let lanes = engine.accessibility_batch(&batch, &mut scratch);
                assert_eq!(lanes.len(), size);
                for (l, (&(kind, i), lane)) in picks.iter().zip(lanes).enumerate() {
                    assert_eq!(
                        *lane, expected[kind][i],
                        "{label}: lane {l} of a {size}-effect batch ({}) diverges from \
                         the reference under {}",
                        KINDS[kind], labels[kind][i]
                    );
                }
            }
        }
    }

    #[test]
    fn scratch_is_reusable_across_shrinking_batches() {
        // One scratch runs a 64-effect batch, then a 1-effect batch, then a
        // 63-effect batch: lane words and verdict buffers left by a wider
        // batch must not leak into a narrower one. Lossy and benign
        // effects alternate with a shifted phase, so every lane of the
        // narrower batches holds something other than its predecessor.
        let mut rng = Rng(0x5c2a_7c4b);
        for (rsn, label) in [
            (sib_tree(2, 2, 3), "sib_tree(2,2,3)"),
            (wide_mux_fixture(), "70-input mux fixture"),
            (
                rsn_synth_like_fixture(&fig2()),
                "fig2 double-branch fixture",
            ),
            (random_sib_rsn(&mut rng), "random SIB network"),
        ] {
            let engine = AccessEngine::new(&rsn);
            let mut scratch = engine.scratch();
            let (pool, _) = effect_pools(&rsn, &mut rng);
            let lossy: Vec<&FaultEffect> = pool
                .iter()
                .flatten()
                .filter(|e| {
                    let r = reference::accessibility(&rsn, e);
                    r.accessible_segments < r.total_segments
                })
                .collect();
            assert!(!lossy.is_empty(), "{label}: no effect loses a segment");
            let benign = FaultEffect::benign();
            let batch = |size: usize, phase: usize| -> Vec<&FaultEffect> {
                (0..size)
                    .map(|l| {
                        if (l + phase).is_multiple_of(2) {
                            lossy[(l + phase) % lossy.len()]
                        } else {
                            &benign
                        }
                    })
                    .collect()
            };
            for (size, phase) in [(LANES, 0), (1, 1), (LANES - 1, 1)] {
                let effects = batch(size, phase);
                let lanes = engine.accessibility_batch(&effects, &mut scratch);
                assert_eq!(lanes.len(), size, "{label}");
                for (l, (effect, lane)) in effects.iter().zip(lanes).enumerate() {
                    assert_eq!(
                        *lane,
                        reference::accessibility(&rsn, effect),
                        "{label}: lane {l} of a {size}-effect batch after a wider one"
                    );
                }
            }
        }
    }

    #[test]
    fn engine_matches_reference_on_examples() {
        assert_engine_matches_reference(&fig2(), "fig2");
        assert_engine_matches_reference(&chain(4, 3), "chain(4,3)");
        assert_engine_matches_reference(&sib_tree(2, 2, 3), "sib_tree(2,2,3)");
    }

    #[test]
    fn engine_matches_reference_on_random_sib_networks() {
        let mut rng = Rng(0x5eed_acce55);
        for case in 0..12 {
            let rsn = random_sib_rsn(&mut rng);
            assert_engine_matches_reference(&rsn, &format!("random case {case}"));
        }
    }

    #[test]
    fn engine_matches_reference_on_random_synthesized_networks() {
        // Synthesized networks (XOR-addressed routing muxes, secondary
        // ports) are where the dirty-write promotion rule decides verdicts
        // (under double faults); on the random SIB networks it decides
        // none.
        let mut rng = Rng(0x5eed_f7ac_ce55);
        for case in 0..12 {
            let rsn = random_sib_rsn(&mut rng);
            let ft = rsn_synth::synthesize(&rsn, &rsn_synth::SynthesisOptions::new())
                .expect("random SIB network synthesizes")
                .rsn;
            assert_engine_matches_reference(&ft, &format!("random synthesized case {case}"));
        }
    }

    #[test]
    fn engine_matches_reference_on_synthesized_ft_network() {
        // The FT network exercises secondary ports, XOR mux addresses and
        // hardened muxes — the structurally richest family.
        let rsn = fig2();
        let ft = rsn_synth_like_fixture(&rsn);
        assert_engine_matches_reference(&ft, "fig2 double-branch fixture");
    }

    #[test]
    fn engine_matches_reference_on_wide_mux_network() {
        assert_engine_matches_reference(&wide_mux_fixture(), "70-input mux fixture");
    }

    /// A 70-input mux addressed by a 7-bit register, followed by a SIB-like
    /// mux whose address bit lives in the segment on input 66: that bit is
    /// writable only once the wide mux can select an input beyond 63, so
    /// the fixed point's promotions depend on the inputs a 64-bit mask
    /// cannot hold.
    fn wide_mux_fixture() -> Rsn {
        use rsn_core::{ControlExpr, RsnBuilder};
        let mut b = RsnBuilder::new("wide");
        let ctl = b.add_segment("CTL", 7);
        b.set_select(ctl, ControlExpr::TRUE);
        b.connect(b.scan_in(), ctl);
        let leaves: Vec<NodeId> = (0..70)
            .map(|i| {
                let s = b.add_segment(format!("S{i}"), 1 + i % 3);
                b.set_select(s, ControlExpr::TRUE);
                b.connect(ctl, s);
                s
            })
            .collect();
        let wide = b.add_mux(
            "WIDE",
            leaves.clone(),
            (0..7).map(|bit| ControlExpr::reg(ctl, bit)).collect(),
        );
        let x = b.add_segment("X", 2);
        b.set_select(x, ControlExpr::TRUE);
        b.connect(wide, x);
        let sib = b.add_mux("SIB", vec![wide, x], vec![ControlExpr::reg(leaves[66], 0)]);
        b.connect(sib, b.scan_out());
        b.finish().expect("fixture is structurally valid")
    }

    /// A hand-built network with a secondary scan-in/out and a 4-input
    /// mux, covering engine paths the SIB family never exercises
    /// (multi-bit addresses, multiple roots/sinks). rsn-fault cannot
    /// depend on rsn-synth (cycle), so the fixture is built directly.
    fn rsn_synth_like_fixture(_base: &Rsn) -> Rsn {
        use rsn_core::{ControlExpr, RsnBuilder};
        let mut b = RsnBuilder::new("fixture");
        let ctl = b.add_segment("CTL", 2);
        b.set_select(ctl, ControlExpr::TRUE);
        b.connect(b.scan_in(), ctl);
        let si2 = b.add_secondary_scan_in("scan_in2");
        let s0 = b.add_segment("S0", 2);
        let s1 = b.add_segment("S1", 3);
        let s2 = b.add_segment("S2", 4);
        let s3 = b.add_segment("S3", 5);
        for s in [s0, s1, s2, s3] {
            b.set_select(s, ControlExpr::TRUE);
        }
        b.connect(ctl, s0);
        b.connect(ctl, s1);
        b.connect(si2, s2);
        b.connect(si2, s3);
        let m = b.add_mux(
            "M4",
            vec![s0, s1, s2, s3],
            vec![ControlExpr::reg(ctl, 0), ControlExpr::reg(ctl, 1)],
        );
        let so2 = b.add_secondary_scan_out("scan_out2");
        b.connect(s3, so2);
        b.connect(m, b.scan_out());
        b.finish().expect("fixture is structurally valid")
    }
}
