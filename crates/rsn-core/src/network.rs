//! Structural model of a reconfigurable scan network.
//!
//! An [`Rsn`] is an arena of [`Node`]s: the primary scan-in port (the unique
//! dataflow root), the primary scan-out port (the unique sink), scan
//! [`Segment`]s and scan multiplexers ([`Mux`]). Interconnects are stored as
//! each node's scan-input source(s); fan-out is implicit (a node's scan
//! output may drive any number of consumers).
//!
//! Networks are constructed through [`RsnBuilder`], which validates
//! structural well-formedness (single root/sink, acyclicity, connectedness,
//! control references) in [`RsnBuilder::finish`].

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::config::Config;
use crate::error::{Error, Result};
use crate::expr::ControlExpr;

/// Index of a node in an [`Rsn`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Returns the arena index as a `usize`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A scan segment: a shift register of `length` bits between its scan-in and
/// scan-out port, optionally backed by a shadow register.
///
/// Segments with a shadow register provide write access to an attached
/// instrument or drive control logic (select signals, multiplexer
/// addresses); the shadow state is part of the scan configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Length of the shift register in bits (≥ 1).
    pub length: u32,
    /// Whether the segment has a shadow register (updatable).
    pub has_shadow: bool,
    /// Select predicate: the segment participates in CSU operations iff this
    /// evaluates to `true` in the current configuration.
    pub select: ControlExpr,
    /// Capture-disable predicate (paper: `Capdis`).
    pub capture_disable: ControlExpr,
    /// Update-disable predicate (paper: `Updis`).
    pub update_disable: ControlExpr,
}

impl Segment {
    /// Creates a plain updatable segment with a constant-false disable logic
    /// and a select predicate of `false` (to be set later).
    pub fn new(length: u32) -> Self {
        Segment {
            length,
            has_shadow: true,
            select: ControlExpr::FALSE,
            capture_disable: ControlExpr::FALSE,
            update_disable: ControlExpr::FALSE,
        }
    }
}

/// A scan multiplexer forwarding exactly one of its data inputs.
///
/// The address is binary-encoded in `addr_bits` (LSB first); each bit is a
/// [`ControlExpr`] over the scan configuration. A `hardened` multiplexer has
/// its address net protected by triple modular redundancy and is immune to
/// single stuck-at faults on the address (Sec. III-E-3 of the paper).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mux {
    /// Data inputs in address order (index 0 selected when all bits are 0).
    pub inputs: Vec<NodeId>,
    /// Binary-encoded address bits, least significant first.
    pub addr_bits: Vec<ControlExpr>,
    /// Whether the address net is TMR-hardened.
    pub hardened: bool,
}

/// The role a node plays in the dataflow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// Primary scan-in port (dataflow root). A network may have a secondary
    /// scan-in port after fault-tolerant synthesis; exactly one node is the
    /// *primary* root.
    ScanIn,
    /// Primary scan-out port (dataflow sink).
    ScanOut,
    /// A scan segment.
    Segment(Segment),
    /// A scan multiplexer.
    Mux(Mux),
}

/// A node in the RSN arena: its kind, name, and single-input source if any.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    pub(crate) name: String,
    pub(crate) kind: NodeKind,
    /// Scan-input driver for ScanOut and Segment nodes (muxes use
    /// `Mux::inputs`, ScanIn has none).
    pub(crate) source: Option<NodeId>,
}

impl Node {
    /// The node's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node's kind.
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// The single scan-input driver, if the node kind has one.
    pub fn source(&self) -> Option<NodeId> {
        self.source
    }

    /// Returns the segment payload, if this node is a segment.
    pub fn as_segment(&self) -> Option<&Segment> {
        match &self.kind {
            NodeKind::Segment(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the mux payload, if this node is a multiplexer.
    pub fn as_mux(&self) -> Option<&Mux> {
        match &self.kind {
            NodeKind::Mux(m) => Some(m),
            _ => None,
        }
    }

    /// All scan-input drivers of this node (mux inputs, or the single
    /// source).
    pub fn predecessors(&self) -> Vec<NodeId> {
        match &self.kind {
            NodeKind::Mux(m) => m.inputs.clone(),
            _ => self.source.into_iter().collect(),
        }
    }
}

/// A validated reconfigurable scan network.
///
/// Construct via [`RsnBuilder`]; the structure is immutable afterwards.
/// Synthesis transformations edit a copy ([`Rsn::into_builder`]).
///
/// # Example
///
/// ```
/// use rsn_core::{ControlExpr, RsnBuilder};
///
/// let mut b = RsnBuilder::new("tiny");
/// let seg = b.add_segment("S", 8);
/// b.connect(b.scan_in(), seg);
/// b.connect(seg, b.scan_out());
/// b.set_select(seg, ControlExpr::TRUE);
/// let rsn = b.finish()?;
/// assert_eq!(rsn.segments().count(), 1);
/// # Ok::<(), rsn_core::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Rsn {
    name: String,
    nodes: Vec<Node>,
    scan_in: NodeId,
    scan_out: NodeId,
    /// Secondary scan ports added by fault-tolerant synthesis.
    secondary_scan_in: Option<NodeId>,
    secondary_scan_out: Option<NodeId>,
    num_inputs: u32,
    /// Successor lists (reverse of predecessor relation), flat: node
    /// `i`'s consumers are `successors[succ_start[i]..succ_start[i + 1]]`.
    successors: Vec<NodeId>,
    succ_start: Vec<usize>,
    /// Bit offset of each segment's shadow register in a `Config`, `None`
    /// for nodes without shadow state.
    shadow_offset: Vec<Option<u32>>,
    /// Total number of shadow bits.
    shadow_bits: u32,
    /// Topological order of the node arena (root first).
    topo: Vec<NodeId>,
    /// Reset values of shadow registers (by config bit index), defaults to 0.
    reset_bits: Vec<bool>,
}

impl Rsn {
    /// The network name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The primary scan-in port (unique dataflow root).
    pub fn scan_in(&self) -> NodeId {
        self.scan_in
    }

    /// The primary scan-out port (unique dataflow sink).
    pub fn scan_out(&self) -> NodeId {
        self.scan_out
    }

    /// Secondary scan-in port, present only after fault-tolerant synthesis.
    pub fn secondary_scan_in(&self) -> Option<NodeId> {
        self.secondary_scan_in
    }

    /// Secondary scan-out port, present only after fault-tolerant synthesis.
    pub fn secondary_scan_out(&self) -> Option<NodeId> {
        self.secondary_scan_out
    }

    /// Number of primary control inputs.
    pub fn num_inputs(&self) -> u32 {
        self.num_inputs
    }

    /// Total number of shadow-register bits (the configuration width minus
    /// primary inputs).
    pub fn shadow_bits(&self) -> u32 {
        self.shadow_bits
    }

    /// Access a node by id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this network.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of nodes in the arena.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterator over all segment node ids.
    pub fn segments(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
            .filter(move |id| matches!(self.node(*id).kind, NodeKind::Segment(_)))
    }

    /// Iterator over all multiplexer node ids.
    pub fn muxes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.node_ids()
            .filter(move |id| matches!(self.node(*id).kind, NodeKind::Mux(_)))
    }

    /// Total scan bits across all segments.
    pub fn total_bits(&self) -> u64 {
        self.segments()
            .map(|id| {
                self.node(id)
                    .as_segment()
                    .expect("segments() yields segments")
                    .length as u64
            })
            .sum()
    }

    /// Successors (fan-out consumers) of a node.
    pub fn successors(&self, id: NodeId) -> &[NodeId] {
        &self.successors[self.succ_start[id.index()]..self.succ_start[id.index() + 1]]
    }

    /// Predecessors of a node (mux inputs or single source).
    pub fn predecessors(&self, id: NodeId) -> Vec<NodeId> {
        self.node(id).predecessors()
    }

    /// Topological order of the dataflow (scan-in first).
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Bit offset of a segment's shadow register in a configuration, or
    /// `None` if the node has no shadow state.
    pub fn shadow_offset(&self, id: NodeId) -> Option<u32> {
        self.shadow_offset[id.index()]
    }

    /// Shadow-register length of a node (0 if none).
    pub fn shadow_len(&self, id: NodeId) -> u32 {
        match &self.node(id).kind {
            NodeKind::Segment(s) if s.has_shadow => s.length,
            _ => 0,
        }
    }

    /// Creates the reset configuration `c₀` (all shadow registers at their
    /// reset value, all primary inputs 0).
    pub fn reset_config(&self) -> Config {
        Config::from_bits(self.reset_bits.clone(), self.num_inputs)
    }

    /// Looks up a node by name, linear scan.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.node_ids().find(|id| self.node(*id).name == name)
    }

    /// Evaluates a control expression in a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidRegisterRef`] or [`Error::InvalidInputRef`] if
    /// the expression references state that does not exist in this network.
    pub fn eval(&self, expr: &ControlExpr, cfg: &Config) -> Result<bool> {
        let err = std::cell::RefCell::new(None);
        let v = expr.eval_with(
            &mut |node, bit| match self.shadow_offset(node) {
                Some(off) if bit < self.shadow_len(node) => cfg.bit((off + bit) as usize),
                _ => {
                    err.borrow_mut()
                        .get_or_insert(Error::InvalidRegisterRef { node, bit });
                    false
                }
            },
            &mut |i| {
                if i.0 < self.num_inputs {
                    cfg.input(i)
                } else {
                    err.borrow_mut().get_or_insert(Error::InvalidInputRef(i.0));
                    false
                }
            },
        );
        match err.into_inner() {
            Some(e) => Err(e),
            None => Ok(v),
        }
    }

    /// Checks that every register reference of `expr` names an existing
    /// shadow bit and every input reference an existing input.
    fn check_refs(&self, expr: &ControlExpr) -> Result<()> {
        match expr {
            ControlExpr::Const(_) => Ok(()),
            &ControlExpr::Reg(node, bit) => {
                if node.index() < self.nodes.len() && bit < self.shadow_len(node) {
                    Ok(())
                } else {
                    Err(Error::InvalidRegisterRef { node, bit })
                }
            }
            ControlExpr::Input(i) => {
                if i.0 < self.num_inputs {
                    Ok(())
                } else {
                    Err(Error::InvalidInputRef(i.0))
                }
            }
            ControlExpr::Not(e) => self.check_refs(e),
            ControlExpr::And(es) | ControlExpr::Or(es) => {
                es.iter().try_for_each(|e| self.check_refs(e))
            }
        }
    }

    /// Evaluates the select predicate of a segment.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongNodeKind`] if `id` is not a segment, or an
    /// evaluation error from [`Rsn::eval`].
    pub fn select(&self, id: NodeId, cfg: &Config) -> Result<bool> {
        let seg = self.node(id).as_segment().ok_or(Error::WrongNodeKind {
            node: id,
            expected: "segment",
        })?;
        self.eval(&seg.select, cfg)
    }

    /// Decodes the address of a multiplexer in a configuration and returns
    /// the selected input node.
    ///
    /// # Errors
    ///
    /// Returns [`Error::WrongNodeKind`] if `id` is not a mux and
    /// [`Error::MuxAddressOutOfRange`] if the decoded address exceeds the
    /// input count.
    pub fn mux_selected_input(&self, id: NodeId, cfg: &Config) -> Result<NodeId> {
        let mux = self.node(id).as_mux().ok_or(Error::WrongNodeKind {
            node: id,
            expected: "mux",
        })?;
        let mut addr = 0usize;
        for (i, bit) in mux.addr_bits.iter().enumerate() {
            if self.eval(bit, cfg)? {
                addr |= 1 << i;
            }
        }
        mux.inputs
            .get(addr)
            .copied()
            .ok_or(Error::MuxAddressOutOfRange {
                mux: id,
                address: addr,
                inputs: mux.inputs.len(),
            })
    }

    /// A stable 64-bit content hash of the network.
    ///
    /// Covers everything that defines behavior — node names, kinds and
    /// payloads (segment lengths, shadow flags, control expressions, mux
    /// inputs/addresses/hardening), dataflow sources, scan ports, input
    /// count and reset values. Two structurally identical networks hash
    /// equal; any behavioral edit changes the hash with overwhelming
    /// probability. FNV-1a over an explicit serialization, so the value
    /// is stable across processes and runs (unlike `DefaultHasher`) —
    /// usable as an artifact-cache key (rsn-serve) or checkpoint
    /// identity.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(&self.name);
        h.write_u32(self.num_inputs);
        h.write_u32(self.scan_in.0);
        h.write_u32(self.scan_out.0);
        h.write_opt_node(self.secondary_scan_in);
        h.write_opt_node(self.secondary_scan_out);
        h.write_u64(self.nodes.len() as u64);
        for node in &self.nodes {
            h.write_str(&node.name);
            h.write_opt_node(node.source);
            match &node.kind {
                NodeKind::ScanIn => h.write_u8(0),
                NodeKind::ScanOut => h.write_u8(1),
                NodeKind::Segment(s) => {
                    h.write_u8(2);
                    h.write_u32(s.length);
                    h.write_u8(s.has_shadow as u8);
                    h.write_expr(&s.select);
                    h.write_expr(&s.capture_disable);
                    h.write_expr(&s.update_disable);
                }
                NodeKind::Mux(m) => {
                    h.write_u8(3);
                    h.write_u8(m.hardened as u8);
                    h.write_u64(m.inputs.len() as u64);
                    for &i in &m.inputs {
                        h.write_u32(i.0);
                    }
                    h.write_u64(m.addr_bits.len() as u64);
                    for e in &m.addr_bits {
                        h.write_expr(e);
                    }
                }
            }
        }
        h.write_u64(self.reset_bits.len() as u64);
        for &b in &self.reset_bits {
            h.write_u8(b as u8);
        }
        h.finish()
    }

    /// Consumes the network and returns a builder holding the same nodes,
    /// ports, inputs and reset values, for synthesis transformations.
    /// Every node keeps its id.
    pub fn into_builder(self) -> RsnBuilder {
        let mut reset = HashMap::new();
        for (i, node) in self.nodes.iter().enumerate() {
            let Some(off) = self.shadow_offset[i] else {
                continue;
            };
            let len = node.as_segment().map_or(0, |s| s.length);
            for bit in (0..len).filter(|&b| self.reset_bits[(off + b) as usize]) {
                reset.insert((NodeId(i as u32), bit), true);
            }
        }
        RsnBuilder {
            name: self.name,
            nodes: self.nodes,
            scan_in: self.scan_in,
            scan_out: self.scan_out,
            secondary_scan_in: self.secondary_scan_in,
            secondary_scan_out: self.secondary_scan_out,
            num_inputs: self.num_inputs,
            reset,
        }
    }
}

/// FNV-1a, 64-bit: the serialization hasher behind [`Rsn::fingerprint`].
/// `std`'s `DefaultHasher` is explicitly not stable across releases or
/// processes, so the cache key rolls its own.
struct Fnv64(u64);

impl Fnv64 {
    fn new() -> Fnv64 {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }

    fn write_u8(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn write_u32(&mut self, v: u32) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.write_u8(b);
        }
    }

    /// Length-prefixed so adjacent strings cannot alias.
    fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        for &b in s.as_bytes() {
            self.write_u8(b);
        }
    }

    /// Tagged so `None` differs from any node id.
    fn write_opt_node(&mut self, n: Option<NodeId>) {
        match n {
            None => self.write_u8(0),
            Some(id) => {
                self.write_u8(1);
                self.write_u32(id.0);
            }
        }
    }

    fn write_expr(&mut self, e: &ControlExpr) {
        match e {
            ControlExpr::Const(b) => {
                self.write_u8(10);
                self.write_u8(*b as u8);
            }
            ControlExpr::Reg(node, bit) => {
                self.write_u8(11);
                self.write_u32(node.0);
                self.write_u32(*bit);
            }
            ControlExpr::Input(i) => {
                self.write_u8(12);
                self.write_u32(i.0);
            }
            ControlExpr::Not(inner) => {
                self.write_u8(13);
                self.write_expr(inner);
            }
            ControlExpr::And(es) => {
                self.write_u8(14);
                self.write_u64(es.len() as u64);
                for x in es {
                    self.write_expr(x);
                }
            }
            ControlExpr::Or(es) => {
                self.write_u8(15);
                self.write_u64(es.len() as u64);
                for x in es {
                    self.write_expr(x);
                }
            }
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Builder for [`Rsn`] networks.
///
/// The builder starts with the two primary scan ports already present. Nodes
/// are added, then connected, then control predicates assigned, and finally
/// the network is validated by [`RsnBuilder::finish`].
#[derive(Debug, Clone)]
pub struct RsnBuilder {
    name: String,
    nodes: Vec<Node>,
    scan_in: NodeId,
    scan_out: NodeId,
    secondary_scan_in: Option<NodeId>,
    secondary_scan_out: Option<NodeId>,
    num_inputs: u32,
    /// Per-segment shadow reset values (bit index within segment → value).
    reset: HashMap<(NodeId, u32), bool>,
}

impl RsnBuilder {
    /// Creates a builder holding only the primary scan-in and scan-out
    /// ports.
    pub fn new(name: impl Into<String>) -> Self {
        let nodes = vec![
            Node {
                name: "scan_in".into(),
                kind: NodeKind::ScanIn,
                source: None,
            },
            Node {
                name: "scan_out".into(),
                kind: NodeKind::ScanOut,
                source: None,
            },
        ];
        RsnBuilder {
            name: name.into(),
            nodes,
            scan_in: NodeId(0),
            scan_out: NodeId(1),
            secondary_scan_in: None,
            secondary_scan_out: None,
            num_inputs: 0,
            reset: HashMap::new(),
        }
    }

    /// Renames the network.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// The primary scan-in port.
    pub fn scan_in(&self) -> NodeId {
        self.scan_in
    }

    /// The primary scan-out port.
    pub fn scan_out(&self) -> NodeId {
        self.scan_out
    }

    /// Declares `n` primary control inputs and returns the id range start.
    pub fn add_inputs(&mut self, n: u32) -> u32 {
        let start = self.num_inputs;
        self.num_inputs += n;
        start
    }

    fn push(&mut self, name: String, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            name,
            kind,
            source: None,
        });
        id
    }

    /// Adds an updatable scan segment of `length` bits with select
    /// defaulting to `false`.
    pub fn add_segment(&mut self, name: impl Into<String>, length: u32) -> NodeId {
        self.push(name.into(), NodeKind::Segment(Segment::new(length)))
    }

    /// Adds a segment without a shadow register (read-only data register).
    pub fn add_readonly_segment(&mut self, name: impl Into<String>, length: u32) -> NodeId {
        let mut seg = Segment::new(length);
        seg.has_shadow = false;
        self.push(name.into(), NodeKind::Segment(seg))
    }

    /// Adds a scan multiplexer with the given ordered inputs and
    /// binary-encoded address bits (LSB first).
    pub fn add_mux(
        &mut self,
        name: impl Into<String>,
        inputs: Vec<NodeId>,
        addr_bits: Vec<ControlExpr>,
    ) -> NodeId {
        self.push(
            name.into(),
            NodeKind::Mux(Mux {
                inputs,
                addr_bits,
                hardened: false,
            }),
        )
    }

    /// Marks a multiplexer's address net as TMR-hardened.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a multiplexer.
    pub fn harden_mux(&mut self, id: NodeId) {
        match &mut self.nodes[id.index()].kind {
            NodeKind::Mux(m) => m.hardened = true,
            _ => panic!("harden_mux on non-mux node {id}"),
        }
    }

    /// Sets the capture-disable predicate of a segment.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a segment.
    pub fn set_capture_disable(&mut self, id: NodeId, capdis: ControlExpr) {
        match &mut self.nodes[id.index()].kind {
            NodeKind::Segment(s) => s.capture_disable = capdis,
            _ => panic!("set_capture_disable on non-segment node {id}"),
        }
    }

    /// Declares a secondary scan-in port (a second dataflow root added by
    /// fault-tolerant synthesis).
    pub fn add_secondary_scan_in(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.push(name.into(), NodeKind::ScanIn);
        self.secondary_scan_in = Some(id);
        id
    }

    /// Declares a secondary scan-out port (a second sink added by
    /// fault-tolerant synthesis). Its driver is set with [`RsnBuilder::connect`].
    pub fn add_secondary_scan_out(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.push(name.into(), NodeKind::ScanOut);
        self.secondary_scan_out = Some(id);
        id
    }

    /// Connects `from`'s scan output to `to`'s scan input.
    ///
    /// For multiplexer targets use the mux input list instead; this method
    /// sets the single source of segments and scan-out ports.
    ///
    /// # Panics
    ///
    /// Panics if `to` is a mux or a scan-in port.
    pub fn connect(&mut self, from: NodeId, to: NodeId) {
        match self.nodes[to.index()].kind {
            NodeKind::Mux(_) => panic!("connect to mux {to}: use mux input list"),
            NodeKind::ScanIn => panic!("connect to scan-in port {to}"),
            _ => self.nodes[to.index()].source = Some(from),
        }
    }

    /// Sets the select predicate of a segment.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a segment.
    pub fn set_select(&mut self, id: NodeId, select: ControlExpr) {
        match &mut self.nodes[id.index()].kind {
            NodeKind::Segment(s) => s.select = select,
            _ => panic!("set_select on non-segment node {id}"),
        }
    }

    /// Sets the update-disable predicate of a segment.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a segment.
    pub fn set_update_disable(&mut self, id: NodeId, updis: ControlExpr) {
        match &mut self.nodes[id.index()].kind {
            NodeKind::Segment(s) => s.update_disable = updis,
            _ => panic!("set_update_disable on non-segment node {id}"),
        }
    }

    /// Sets the reset value of one shadow-register bit of a segment.
    pub fn set_reset_bit(&mut self, id: NodeId, bit: u32, value: bool) {
        self.reset.insert((id, bit), value);
    }

    /// Extends a segment's register by `extra` bits (e.g. routing bits
    /// appended by fault-tolerant synthesis). The new bits reset to 0.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a segment.
    pub fn extend_segment(&mut self, id: NodeId, extra: u32) {
        match &mut self.nodes[id.index()].kind {
            NodeKind::Segment(s) => s.length += extra,
            _ => panic!("extend_segment on non-segment node {id}"),
        }
    }

    /// Direct mutable access to a node, for synthesis transformations.
    pub fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.index()]
    }

    /// Direct access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of nodes currently in the builder.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Validates the structure and produces an immutable [`Rsn`].
    ///
    /// # Errors
    ///
    /// * [`Error::ScanOutUnconnected`] / [`Error::NodeUnconnected`] if a node
    ///   misses its scan-input driver.
    /// * [`Error::MuxTooFewInputs`] for degenerate multiplexers.
    /// * [`Error::StructuralCycle`] if the dataflow is not acyclic.
    /// * [`Error::DuplicateName`] if two added nodes share a name.
    /// * [`Error::InvalidRegisterRef`] / [`Error::InvalidInputRef`] if a
    ///   control expression references non-existent state.
    /// * [`Error::TooManyShadowBits`] if the shadow registers together
    ///   hold more than `u32::MAX` bits.
    pub fn finish(self) -> Result<Rsn> {
        let RsnBuilder {
            name,
            mut nodes,
            scan_in,
            scan_out,
            secondary_scan_in,
            secondary_scan_out,
            num_inputs,
            reset,
        } = self;

        // Names are unique among the nodes added to the builder (the two
        // primary ports it starts with are not counted).
        let mut names = HashSet::with_capacity(nodes.len());
        for (i, n) in nodes.iter().enumerate() {
            let port = i == scan_in.index() || i == scan_out.index();
            if !port && !names.insert(n.name.as_str()) {
                return Err(Error::DuplicateName(n.name.clone()));
            }
        }

        // Connectivity of single-input nodes.
        for (i, n) in nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            match &n.kind {
                NodeKind::ScanIn => {}
                NodeKind::ScanOut => {
                    if n.source.is_none() {
                        return Err(if id == scan_out {
                            Error::ScanOutUnconnected
                        } else {
                            Error::NodeUnconnected(id)
                        });
                    }
                }
                NodeKind::Segment(_) => {
                    if n.source.is_none() {
                        return Err(Error::NodeUnconnected(id));
                    }
                }
                NodeKind::Mux(m) => {
                    if m.inputs.len() < 2 {
                        return Err(Error::MuxTooFewInputs(id));
                    }
                }
            }
        }

        // Successor lists in one allocation, each in arena order.
        let mut succ_start = vec![0; nodes.len() + 1];
        for n in &nodes {
            for p in n.predecessors() {
                succ_start[p.index() + 1] += 1;
            }
        }
        for i in 0..nodes.len() {
            succ_start[i + 1] += succ_start[i];
        }
        let mut successors = vec![NodeId(0); succ_start[nodes.len()]];
        let mut fill = succ_start.clone();
        for (i, n) in nodes.iter().enumerate() {
            for p in n.predecessors() {
                successors[fill[p.index()]] = NodeId(i as u32);
                fill[p.index()] += 1;
            }
        }
        let succ = |id: NodeId| &successors[succ_start[id.index()]..succ_start[id.index() + 1]];

        // Topological sort (Kahn) over the dataflow; detects cycles.
        let mut indeg: Vec<usize> = nodes.iter().map(|n| n.predecessors().len()).collect();
        let mut queue: Vec<NodeId> = (0..nodes.len() as u32)
            .map(NodeId)
            .filter(|id| indeg[id.index()] == 0)
            .collect();
        let mut topo = Vec::with_capacity(nodes.len());
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            topo.push(id);
            for &s in succ(id) {
                indeg[s.index()] -= 1;
                if indeg[s.index()] == 0 {
                    queue.push(s);
                }
            }
        }
        if topo.len() != nodes.len() {
            let witness = (0..nodes.len() as u32)
                .map(NodeId)
                .find(|id| indeg[id.index()] > 0)
                .expect("cycle implies a node with remaining indegree");
            return Err(Error::StructuralCycle(witness));
        }

        // Shadow register layout.
        let mut shadow_offset = vec![None; nodes.len()];
        let mut shadow_bits = 0u32;
        for (i, n) in nodes.iter().enumerate() {
            if let NodeKind::Segment(s) = &n.kind {
                if s.has_shadow {
                    shadow_offset[i] = Some(shadow_bits);
                    shadow_bits = shadow_bits
                        .checked_add(s.length)
                        .ok_or(Error::TooManyShadowBits)?;
                }
            }
        }

        // Reset values.
        let mut reset_bits = vec![false; shadow_bits as usize];
        for ((node, bit), value) in reset {
            if let Some(off) = shadow_offset[node.index()] {
                if bit < nodes[node.index()].as_segment().map_or(0, |s| s.length) {
                    reset_bits[(off + bit) as usize] = value;
                } else {
                    return Err(Error::InvalidRegisterRef { node, bit });
                }
            } else {
                return Err(Error::InvalidRegisterRef { node, bit: 0 });
            }
        }

        // The arena is final: keep no growth slack.
        nodes.shrink_to_fit();
        let rsn = Rsn {
            name,
            nodes,
            scan_in,
            scan_out,
            secondary_scan_in,
            secondary_scan_out,
            num_inputs,
            successors,
            succ_start,
            shadow_offset,
            shadow_bits,
            topo,
            reset_bits,
        };

        // Validate every control reference, including those an evaluation
        // would short-circuit past.
        for id in rsn.node_ids() {
            match &rsn.node(id).kind {
                NodeKind::Segment(s) => {
                    rsn.check_refs(&s.select)?;
                    rsn.check_refs(&s.capture_disable)?;
                    rsn.check_refs(&s.update_disable)?;
                }
                NodeKind::Mux(m) => {
                    for b in &m.addr_bits {
                        rsn.check_refs(b)?;
                    }
                }
                _ => {}
            }
        }

        Ok(rsn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> Rsn {
        let mut b = RsnBuilder::new("chain");
        let mut prev = b.scan_in();
        for i in 0..n {
            let s = b.add_segment(format!("S{i}"), 4);
            b.set_select(s, ControlExpr::TRUE);
            b.connect(prev, s);
            prev = s;
        }
        b.connect(prev, b.scan_out());
        b.finish().expect("valid chain")
    }

    #[test]
    fn build_simple_chain() {
        let rsn = chain(3);
        assert_eq!(rsn.node_count(), 5);
        assert_eq!(rsn.segments().count(), 3);
        assert_eq!(rsn.total_bits(), 12);
        assert_eq!(rsn.shadow_bits(), 12);
    }

    #[test]
    fn unconnected_scan_out_is_rejected() {
        let b = RsnBuilder::new("x");
        assert_eq!(b.finish().unwrap_err(), Error::ScanOutUnconnected);
    }

    #[test]
    fn unconnected_segment_is_rejected() {
        let mut b = RsnBuilder::new("x");
        let s = b.add_segment("S", 1);
        b.connect(s, b.scan_out());
        assert_eq!(b.finish().unwrap_err(), Error::NodeUnconnected(s));
    }

    #[test]
    fn cycle_is_rejected() {
        let mut b = RsnBuilder::new("x");
        let s1 = b.add_segment("S1", 1);
        let s2 = b.add_segment("S2", 1);
        b.connect(s2, s1);
        b.connect(s1, s2);
        // scan_out driven by s2 so connectivity passes
        b.connect(s2, b.scan_out());
        assert!(matches!(b.finish().unwrap_err(), Error::StructuralCycle(_)));
    }

    #[test]
    fn mux_with_one_input_is_rejected() {
        let mut b = RsnBuilder::new("x");
        let s = b.add_segment("S", 1);
        b.connect(b.scan_in(), s);
        let m = b.add_mux("M", vec![s], vec![ControlExpr::FALSE]);
        b.connect(m, b.scan_out());
        assert_eq!(b.finish().unwrap_err(), Error::MuxTooFewInputs(m));
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut b = RsnBuilder::new("x");
        let s1 = b.add_segment("S", 1);
        let s2 = b.add_segment("S", 1);
        b.connect(b.scan_in(), s1);
        b.connect(s1, s2);
        b.connect(s2, b.scan_out());
        assert_eq!(b.finish().unwrap_err(), Error::DuplicateName("S".into()));
    }

    #[test]
    fn invalid_control_reference_is_rejected() {
        let mut b = RsnBuilder::new("x");
        let s = b.add_segment("S", 2);
        b.set_select(s, ControlExpr::reg(s, 5)); // bit 5 of a 2-bit register
        b.connect(b.scan_in(), s);
        b.connect(s, b.scan_out());
        assert_eq!(
            b.finish().unwrap_err(),
            Error::InvalidRegisterRef { node: s, bit: 5 }
        );
    }

    #[test]
    fn short_circuited_invalid_reference_is_rejected() {
        // `false ∧ x` evaluates without reading x; the reference is still
        // checked.
        let mut b = RsnBuilder::new("x");
        let s = b.add_segment("S", 2);
        b.set_select(s, ControlExpr::FALSE & ControlExpr::reg(s, 5));
        b.connect(b.scan_in(), s);
        b.connect(s, b.scan_out());
        assert_eq!(
            b.finish().unwrap_err(),
            Error::InvalidRegisterRef { node: s, bit: 5 }
        );
    }

    #[test]
    fn into_builder_keeps_reset_values_names_and_ids() {
        let mut b = RsnBuilder::new("r");
        let s = b.add_segment("S", 3);
        b.set_select(s, ControlExpr::TRUE);
        b.set_reset_bit(s, 1, true);
        b.connect(b.scan_in(), s);
        b.connect(s, b.scan_out());
        let rsn = b.finish().expect("valid");
        let copy = rsn.clone().into_builder().finish().expect("valid copy");
        assert_eq!(copy.fingerprint(), rsn.fingerprint());
        assert_eq!(copy.find("S"), Some(s));
        // The copy still refuses a second node of an existing name.
        let mut b = rsn.into_builder();
        let dup = b.add_segment("S", 1);
        b.connect(s, dup);
        b.connect(dup, b.scan_out());
        assert_eq!(b.finish().unwrap_err(), Error::DuplicateName("S".into()));
    }

    #[test]
    fn topo_order_respects_edges() {
        let rsn = chain(4);
        let pos: Vec<usize> = {
            let mut pos = vec![0; rsn.node_count()];
            for (i, id) in rsn.topo_order().iter().enumerate() {
                pos[id.index()] = i;
            }
            pos
        };
        for id in rsn.node_ids() {
            for p in rsn.predecessors(id) {
                assert!(pos[p.index()] < pos[id.index()]);
            }
        }
    }

    #[test]
    fn successors_inverse_of_predecessors() {
        let rsn = chain(3);
        for id in rsn.node_ids() {
            for p in rsn.predecessors(id) {
                assert!(rsn.successors(p).contains(&id));
            }
            for &s in rsn.successors(id) {
                assert!(rsn.predecessors(s).contains(&id));
            }
        }
    }

    #[test]
    fn mux_selected_input_decodes_address() {
        let mut b = RsnBuilder::new("m");
        let ctl = b.add_segment("CTL", 1);
        b.set_select(ctl, ControlExpr::TRUE);
        b.connect(b.scan_in(), ctl);
        let s1 = b.add_segment("S1", 2);
        let s2 = b.add_segment("S2", 2);
        b.set_select(s1, ControlExpr::TRUE);
        b.set_select(s2, ControlExpr::TRUE);
        b.connect(ctl, s1);
        b.connect(ctl, s2);
        let m = b.add_mux("M", vec![s1, s2], vec![ControlExpr::reg(ctl, 0)]);
        b.connect(m, b.scan_out());
        let rsn = b.finish().expect("valid");
        let mut cfg = rsn.reset_config();
        assert_eq!(rsn.mux_selected_input(m, &cfg).expect("in range"), s1);
        cfg.set_bit(rsn.shadow_offset(ctl).expect("has shadow") as usize, true);
        assert_eq!(rsn.mux_selected_input(m, &cfg).expect("in range"), s2);
    }

    #[test]
    fn reset_values_are_applied() {
        let mut b = RsnBuilder::new("r");
        let s = b.add_segment("S", 3);
        b.set_select(s, ControlExpr::TRUE);
        b.set_reset_bit(s, 1, true);
        b.connect(b.scan_in(), s);
        b.connect(s, b.scan_out());
        let rsn = b.finish().expect("valid");
        let cfg = rsn.reset_config();
        let off = rsn.shadow_offset(s).expect("shadow") as usize;
        assert!(!cfg.bit(off));
        assert!(cfg.bit(off + 1));
        assert!(!cfg.bit(off + 2));
    }

    #[test]
    fn fingerprint_is_stable_and_content_sensitive() {
        let build = |reset: bool, length: u32| {
            let mut b = RsnBuilder::new("fp");
            let s = b.add_segment("S", length);
            b.set_select(s, ControlExpr::TRUE);
            b.set_reset_bit(s, 0, reset);
            b.connect(b.scan_in(), s);
            b.connect(s, b.scan_out());
            b.finish().expect("valid")
        };
        let a = build(false, 3);
        // Identical structure → identical hash (also across the clone).
        assert_eq!(a.fingerprint(), build(false, 3).fingerprint());
        assert_eq!(a.fingerprint(), a.clone().fingerprint());
        // Any behavioral edit moves the hash.
        assert_ne!(a.fingerprint(), build(true, 3).fingerprint());
        assert_ne!(a.fingerprint(), build(false, 4).fingerprint());
        // Pinned value: fails if the serialization ever changes silently
        // (stale service caches / checkpoints would go undetected).
        assert_eq!(a.fingerprint(), 0x58dd_fde7_d924_b77c);
    }

    #[test]
    fn shadow_bits_beyond_u32_are_refused() {
        // Two 2^31-bit registers: 2^32 shadow bits, one past `u32::MAX`.
        let mut b = RsnBuilder::new("wide");
        let a = b.add_segment("A", 1 << 31);
        let c = b.add_segment("C", 1 << 31);
        b.connect(b.scan_in(), a);
        b.connect(a, c);
        b.connect(c, b.scan_out());
        assert_eq!(b.finish().unwrap_err(), Error::TooManyShadowBits);
    }

    #[test]
    fn readonly_segment_has_no_shadow() {
        let mut b = RsnBuilder::new("r");
        let s = b.add_readonly_segment("RO", 8);
        b.set_select(s, ControlExpr::TRUE);
        b.connect(b.scan_in(), s);
        b.connect(s, b.scan_out());
        let rsn = b.finish().expect("valid");
        assert_eq!(rsn.shadow_offset(s), None);
        assert_eq!(rsn.shadow_bits(), 0);
        assert_eq!(rsn.total_bits(), 8);
    }
}
