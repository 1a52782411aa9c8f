//! Fault-free access planning: computing a series of CSU operations that
//! routes the active scan path through a target segment.
//!
//! The planner mirrors the role of the formal access computation of the
//! paper's Section II-B, specialized to the structured networks this
//! toolchain generates (SIB-based and fault-tolerant synthesized RSNs):
//! multiplexer address bits in these networks are literals over shadow
//! registers, so the required register values to sensitize a path can be
//! derived syntactically, and hierarchical networks are opened level by
//! level — one CSU per hierarchy level, which is the time-optimal strategy
//! for SIB networks. For arbitrary RSNs the bounded-model-checking engine
//! in `rsn-bmc` provides a complete (but slower) alternative.

use crate::config::Config;
use crate::csu::csu_cycles;
use crate::error::{Error, Result};
use crate::expr::{ControlExpr, InputId};
use crate::network::{NodeId, NodeKind, Rsn};

/// Register requirements `(segment, bit, value)` plus primary-input
/// requirements to sensitize a chosen path.
pub(crate) type PathRequirements = (Vec<(NodeId, u32, bool)>, Vec<(InputId, bool)>);

/// A fault-free access plan: the sequence of scan configurations reached
/// after each CSU operation. The final configuration has the target segment
/// on the active scan path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPlan {
    /// Target segment.
    pub target: NodeId,
    /// Configurations after each CSU, in order. Empty if the target is
    /// already active in the initial configuration.
    pub steps: Vec<Config>,
    /// Access latency in clock cycles: capture + shift + update of every
    /// setup CSU and of the final data CSU (the paper's Sec. II-B cost).
    pub cycles: u64,
}

impl AccessPlan {
    /// Number of CSU operations needed before the target is on the active
    /// path (excluding the final data CSU).
    pub fn csu_count(&self) -> usize {
        self.steps.len()
    }
}

/// Derives the partial register assignment that forces `expr` to evaluate
/// to `value`, for literal-shaped expressions.
///
/// Returns `None` if the expression is too complex to invert syntactically.
fn require(
    expr: &ControlExpr,
    value: bool,
    out: &mut Vec<(NodeId, u32, bool)>,
    inputs: &mut Vec<(InputId, bool)>,
) -> Option<()> {
    // XOR pattern (a ∧ ¬b) ∨ (¬a ∧ b): invert consistently — naive
    // child-wise inversion would demand contradictory values for `a`.
    if let Some((a, b)) = match_xor(expr) {
        if value {
            // a=1, b=0 (prefer driving the first operand).
            require(a, true, out, inputs)?;
            require(b, false, out, inputs)?;
        } else {
            // a=0, b=0 (the reset-friendly solution).
            require(a, false, out, inputs)?;
            require(b, false, out, inputs)?;
        }
        return Some(());
    }
    match expr {
        ControlExpr::Const(b) => {
            if *b == value {
                Some(())
            } else {
                None
            }
        }
        ControlExpr::Reg(n, bit) => {
            out.push((*n, *bit, value));
            Some(())
        }
        // Primary control inputs are freely drivable in every CSU.
        ControlExpr::Input(i) => {
            inputs.push((*i, value));
            Some(())
        }
        ControlExpr::Not(e) => require(e, !value, out, inputs),
        ControlExpr::And(es) if value => {
            for e in es {
                require(e, true, out, inputs)?;
            }
            Some(())
        }
        ControlExpr::Or(es) if !value => {
            for e in es {
                require(e, false, out, inputs)?;
            }
            Some(())
        }
        // AND=false / OR=true: satisfy through the first invertible child.
        ControlExpr::And(es) | ControlExpr::Or(es) => {
            for e in es {
                let mut tmp = Vec::new();
                let mut tmp_in = Vec::new();
                if require(e, value, &mut tmp, &mut tmp_in).is_some() {
                    out.extend(tmp);
                    inputs.extend(tmp_in);
                    return Some(());
                }
            }
            None
        }
    }
}

/// Matches the Tseitin-style XOR shape `(a ∧ ¬b) ∨ (¬a ∧ b)` and returns
/// the two operand expressions.
fn match_xor(expr: &ControlExpr) -> Option<(&ControlExpr, &ControlExpr)> {
    let ControlExpr::Or(or) = expr else {
        return None;
    };
    let [ControlExpr::And(c1), ControlExpr::And(c2)] = or.as_slice() else {
        return None;
    };
    let ([a1, n_b1], [n_a2, b2]) = (c1.as_slice(), c2.as_slice()) else {
        return None;
    };
    let (ControlExpr::Not(b1), ControlExpr::Not(a2)) = (n_b1, n_a2) else {
        return None;
    };
    (a1 == a2.as_ref() && b1.as_ref() == b2).then_some((a1, b2))
}

impl Rsn {
    /// Chooses a structural path from scan-in through `target` to scan-out,
    /// preferring edges already sensitized by `cfg` (0/1-BFS on address
    /// changes), and returns the register requirements to sensitize it.
    pub(crate) fn path_requirements_for(
        &self,
        target: NodeId,
        cfg: &Config,
    ) -> Result<PathRequirements> {
        let mut req = Vec::new();
        let mut input_req = Vec::new();

        // Backward half: target .. scan-in, following unique sources and
        // choosing mux inputs.
        let mut cur = target;
        let mut hops = 0usize;
        while cur != self.scan_in() {
            hops += 1;
            if hops > self.node_count() + 1 {
                return Err(Error::SensitizedCycle);
            }
            let prev = match self.node(cur).kind() {
                NodeKind::Mux(m) => {
                    // Prefer the currently selected input, else input 0.
                    let selected = self.mux_selected_input(cur, cfg).ok();
                    let (idx, prev) =
                        match selected.and_then(|s| m.inputs.iter().position(|&i| i == s)) {
                            Some(i) => (i, m.inputs[i]),
                            None => (0, m.inputs[0]),
                        };
                    self.require_mux_address(cur, idx, &mut req, &mut input_req)?;
                    prev
                }
                NodeKind::ScanIn => break,
                _ => self.node(cur).source().ok_or(Error::NodeUnconnected(cur))?,
            };
            cur = prev;
        }

        // Forward half: shortest path from target to scan-out over
        // successor edges (Dijkstra). Edge weights: 0 for the currently
        // selected mux input, 1 for an address change whose required
        // registers all sit on the *current* active path (writable this
        // CSU), and a heavy penalty for changes that need off-path
        // register writes first (they cost extra CSU rounds and can stall
        // the greedy planner).
        let cur_path: std::collections::HashSet<NodeId> = self
            .trace_path(cfg)
            .map(|p| p.nodes().iter().copied().collect())
            .unwrap_or_default();
        let edge_weight = |u: NodeId, v: NodeId| -> usize {
            match self.node(v).kind() {
                NodeKind::Mux(m) => {
                    if self.mux_selected_input(v, cfg).ok() == Some(u) {
                        return 0;
                    }
                    let Some(idx) = m.inputs.iter().position(|&i| i == u) else {
                        return usize::MAX;
                    };
                    let mut regs = Vec::new();
                    let mut ins = Vec::new();
                    let invertible = m.addr_bits.iter().enumerate().all(|(bit, e)| {
                        let want = (idx >> bit) & 1 == 1;
                        require(e, want, &mut regs, &mut ins).is_some()
                    });
                    if !invertible {
                        return usize::MAX;
                    }
                    if regs.iter().any(|&(owner, _, _)| owner == target) {
                        // The edge is steered by the target's own routing
                        // bits, which are only writable once the target is
                        // already on the path: circular, use only as a
                        // last resort.
                        16
                    } else if regs.iter().all(|&(owner, _, _)| cur_path.contains(&owner)) {
                        1
                    } else {
                        4
                    }
                }
                _ => 0,
            }
        };
        let n = self.node_count();
        let mut dist = vec![usize::MAX; n];
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut heap = std::collections::BinaryHeap::new();
        dist[target.index()] = 0;
        heap.push(std::cmp::Reverse((0usize, target)));
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            if d > dist[u.index()] {
                continue;
            }
            if u == self.scan_out() {
                break;
            }
            for &v in self.successors(u) {
                let w = edge_weight(u, v);
                if w == usize::MAX {
                    continue;
                }
                let nd = d.saturating_add(w);
                if nd < dist[v.index()] {
                    dist[v.index()] = nd;
                    parent[v.index()] = Some(u);
                    heap.push(std::cmp::Reverse((nd, v)));
                }
            }
        }
        if dist[self.scan_out().index()] == usize::MAX {
            return Err(Error::AccessPlanFailed {
                target,
                reason: "no structural path from segment to scan-out".into(),
            });
        }
        // Walk the forward path and record mux requirements.
        let mut v = self.scan_out();
        while v != target {
            let u = parent[v.index()].expect("path reconstructed");
            if let NodeKind::Mux(m) = self.node(v).kind() {
                let idx = m
                    .inputs
                    .iter()
                    .position(|&i| i == u)
                    .expect("parent is a mux input");
                self.require_mux_address(v, idx, &mut req, &mut input_req)?;
            }
            v = u;
        }

        Ok((req, input_req))
    }

    /// Adds the register requirements for mux `id` to select input `idx`.
    fn require_mux_address(
        &self,
        id: NodeId,
        idx: usize,
        req: &mut Vec<(NodeId, u32, bool)>,
        input_req: &mut Vec<(InputId, bool)>,
    ) -> Result<()> {
        let m = self.node(id).as_mux().expect("mux");
        for (bit_pos, expr) in m.addr_bits.iter().enumerate() {
            let want = (idx >> bit_pos) & 1 == 1;
            let mut partial = Vec::new();
            let mut partial_in = Vec::new();
            if require(expr, want, &mut partial, &mut partial_in).is_none() {
                return Err(Error::AccessPlanFailed {
                    target: id,
                    reason: format!(
                        "mux address bit {bit_pos} is not syntactically invertible: {expr}"
                    ),
                });
            }
            req.extend(partial);
            input_req.extend(partial_in);
        }
        Ok(())
    }

    /// Computes a fault-free access plan for `target` starting from `from`.
    ///
    /// The plan is a series of valid scan configurations, each reachable
    /// from the previous by one CSU operation (only registers of segments
    /// active in the previous configuration change), whose final
    /// configuration routes the active scan path through `target`.
    ///
    /// # Errors
    ///
    /// * [`Error::WrongNodeKind`] if `target` is not a segment.
    /// * [`Error::AccessPlanFailed`] if the greedy planner stalls (for such
    ///   networks use the BMC engine).
    ///
    /// # Example
    ///
    /// ```
    /// use rsn_core::examples::fig2;
    ///
    /// let rsn = fig2();
    /// let c = rsn.find("C").expect("segment C exists");
    /// let plan = rsn.plan_access(c, &rsn.reset_config())?;
    /// // C is deselected at reset; one CSU reconfigures the path.
    /// assert_eq!(plan.csu_count(), 1);
    /// # Ok::<(), rsn_core::Error>(())
    /// ```
    pub fn plan_access(&self, target: NodeId, from: &Config) -> Result<AccessPlan> {
        if self.node(target).as_segment().is_none() {
            return Err(Error::WrongNodeKind {
                node: target,
                expected: "segment",
            });
        }

        let mut steps = Vec::new();
        let mut cur = from.clone();
        let mut cycles = 0u64;

        // Iterate: re-derive requirements against the evolving config and
        // write every currently-writable wrong bit each CSU.
        for _round in 0..=self.node_count() {
            // Structural trace: generated networks are valid by
            // construction; synthesized networks of more than 64 nodes
            // carry placeholder selects, so validity is not re-checked
            // here.
            let path = self.trace_path(&cur)?;
            if path.contains(target) {
                cycles += csu_cycles(&path, self);
                return Ok(AccessPlan {
                    target,
                    steps,
                    cycles,
                });
            }
            let (req, input_req) = self.path_requirements_for(target, &cur)?;
            // Primary inputs are applied directly (no CSU needed).
            let mut inputs_changed = false;
            for (i, v) in input_req {
                if cur.input(i) != v {
                    cur.set_input(i, v);
                    inputs_changed = true;
                }
            }
            if inputs_changed {
                continue;
            }
            let wrong: Vec<(NodeId, u32, bool)> = req
                .iter()
                .copied()
                .filter(|&(n, b, v)| {
                    let off = self.shadow_offset(n).map(|o| (o + b) as usize);
                    match off {
                        Some(idx) => cur.bit(idx) != v,
                        None => true,
                    }
                })
                .collect();
            if wrong.is_empty() {
                // Requirements met but target still not on path: give up.
                return Err(Error::AccessPlanFailed {
                    target,
                    reason: "requirements satisfied but target not on active path".into(),
                });
            }
            let mut next = cur.clone();
            let mut progressed = false;
            for &(n, b, v) in &wrong {
                let active = path.contains(n);
                let updis = match self.node(n).as_segment() {
                    Some(s) => self.eval(&s.update_disable, &cur)?,
                    None => true,
                };
                if active && !updis {
                    let off = self
                        .shadow_offset(n)
                        .ok_or(Error::InvalidRegisterRef { node: n, bit: b })?;
                    next.set_bit((off + b) as usize, v);
                    progressed = true;
                }
            }
            if !progressed {
                if rsn_obs::log_enabled(rsn_obs::Level::Debug) {
                    let names: Vec<String> = wrong
                        .iter()
                        .map(|&(n, b, v)| format!("{}[{b}]={}", self.node(n).name(), u8::from(v)))
                        .collect();
                    let on: Vec<&str> = path.segments(self).map(|s| self.node(s).name()).collect();
                    rsn_obs::debug!(
                        "plan stall for {}: wrong {names:?} path {on:?}",
                        self.node(target).name()
                    );
                }
                return Err(Error::AccessPlanFailed {
                    target,
                    reason: "no required control register is writable".into(),
                });
            }
            cycles += csu_cycles(&path, self);
            cur = next;
            steps.push(cur.clone());
        }

        Err(Error::AccessPlanFailed {
            target,
            reason: "planner exceeded iteration bound".into(),
        })
    }

    /// Checks fault-free accessibility: `true` iff [`Rsn::plan_access`]
    /// succeeds for `target` from the reset configuration.
    pub fn is_accessible(&self, target: NodeId) -> bool {
        self.plan_access(target, &self.reset_config()).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::RsnBuilder;

    /// Two-level SIB hierarchy: SIB1 guards (SIB2 guards S).
    fn nested_sib() -> (Rsn, NodeId, NodeId, NodeId) {
        let mut b = RsnBuilder::new("nested");
        let sib1 = b.add_segment("SIB1", 1);
        b.connect(b.scan_in(), sib1);
        let sib2 = b.add_segment("SIB2", 1);
        b.connect(sib1, sib2);
        let s = b.add_segment("S", 4);
        b.connect(sib2, s);
        let m2 = b.add_mux("M2", vec![sib2, s], vec![ControlExpr::reg(sib2, 0)]);
        let m1 = b.add_mux("M1", vec![sib1, m2], vec![ControlExpr::reg(sib1, 0)]);
        b.connect(m1, b.scan_out());
        b.set_select(sib1, ControlExpr::TRUE);
        b.set_select(sib2, ControlExpr::reg(sib1, 0));
        b.set_select(s, ControlExpr::reg(sib1, 0) & ControlExpr::reg(sib2, 0));
        let rsn = b.finish().expect("valid");
        (rsn, sib1, sib2, s)
    }

    #[test]
    fn immediate_target_needs_no_csu() {
        let (rsn, sib1, _, _) = nested_sib();
        let plan = rsn.plan_access(sib1, &rsn.reset_config()).expect("plan");
        assert_eq!(plan.csu_count(), 0);
    }

    #[test]
    fn nested_segment_opens_level_by_level() {
        let (rsn, _, sib2, s) = nested_sib();
        let plan = rsn.plan_access(s, &rsn.reset_config()).expect("plan");
        // Depth 2 hierarchy: open SIB1, then SIB2.
        assert_eq!(plan.csu_count(), 2);
        let last = plan.steps.last().expect("nonempty");
        let path = rsn.active_path(last).expect("valid");
        assert!(path.contains(s));
        assert!(path.contains(sib2));
    }

    #[test]
    fn intermediate_configurations_are_valid() {
        let (rsn, _, _, s) = nested_sib();
        let plan = rsn.plan_access(s, &rsn.reset_config()).expect("plan");
        for cfg in &plan.steps {
            rsn.active_path(cfg).expect("every step must be valid");
        }
    }

    #[test]
    fn plan_transitions_respect_csu_semantics() {
        // Each step may only change registers active in the previous step.
        let (rsn, _, _, s) = nested_sib();
        let plan = rsn.plan_access(s, &rsn.reset_config()).expect("plan");
        let mut prev = rsn.reset_config();
        for cfg in &plan.steps {
            let path = rsn.active_path(&prev).expect("valid");
            for seg in rsn.segments() {
                if let Some(off) = rsn.shadow_offset(seg) {
                    let len = rsn.shadow_len(seg);
                    for bit in 0..len {
                        let idx = (off + bit) as usize;
                        if prev.bit(idx) != cfg.bit(idx) {
                            assert!(
                                path.contains(seg),
                                "changed register of inactive segment {seg}"
                            );
                        }
                    }
                }
            }
            prev = cfg.clone();
        }
    }

    #[test]
    fn latency_accumulates_shift_lengths() {
        let (rsn, _, _, s) = nested_sib();
        let plan = rsn.plan_access(s, &rsn.reset_config()).expect("plan");
        // CSU1 over path of length 1 (SIB1), CSU2 over length 2 (SIB1+SIB2),
        // final access path length 1+1+4 = 6: 9 shift cycles, plus a
        // capture and an update cycle for each of the 3 CSUs.
        assert_eq!(plan.cycles, 9 + 3 * 2);
    }

    #[test]
    fn non_segment_target_is_rejected() {
        let (rsn, ..) = nested_sib();
        let m = rsn.find("M1").expect("mux");
        assert!(matches!(
            rsn.plan_access(m, &rsn.reset_config()),
            Err(Error::WrongNodeKind { .. })
        ));
    }

    #[test]
    fn all_segments_accessible_in_nested_network() {
        let (rsn, ..) = nested_sib();
        for seg in rsn.segments() {
            assert!(rsn.is_accessible(seg), "segment {seg} must be accessible");
        }
    }
}
