//! Access planning in faulty RSNs: computing a concrete CSU strategy that
//! reads and writes a target segment *around* a stuck-at fault — the
//! executable form of the paper's first contribution ("a formal model and
//! an algorithm to compute scan paths in faulty RSNs").
//!
//! The planner chooses a clean scan path (avoiding the fault site),
//! derives the multiplexer address values that sensitize it, and orders
//! the control-register writes so that every write travels over a clean
//! prefix. Plans are validated end to end against the bit-accurate
//! [`FaultySim`](crate::sim::FaultySim): data must actually round-trip
//! through the stuck silicon.
//!
//! The planner is deliberately restricted to *clean-write* strategies: it
//! never relies on a dirty write delivering the stuck value (the metric
//! engine does model that recovery mode, so a few engine-accessible
//! corner cases return `None` here — see DESIGN.md §4.6).

use std::collections::HashMap;

use rsn_core::{Config, ControlExpr, NodeId, NodeKind, Rsn};

use crate::effect::FaultEffect;
use crate::engine::AccessEngine;

/// A concrete faulty-access plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultyAccessPlan {
    /// The target segment.
    pub target: NodeId,
    /// Configurations after each setup CSU, in order.
    pub steps: Vec<Config>,
    /// The final clean scan path (scan-in … scan-out), containing the
    /// target and avoiding the fault site.
    pub path: Vec<NodeId>,
}

impl FaultyAccessPlan {
    /// Number of setup CSU operations before the data access.
    pub fn csu_count(&self) -> usize {
        self.steps.len()
    }
}

/// Evaluates a mux address under a configuration with forced bits applied
/// (the planner drives primary inputs low). `None` if the address is out
/// of range.
fn decode_addr(rsn: &Rsn, cfg: &Config, effect: &FaultEffect, mux: NodeId) -> Option<usize> {
    if let Some(&k) = effect.forced_mux.get(&mux) {
        return Some(k);
    }
    let m = rsn.node(mux).as_mux()?;
    let mut reg = |n: NodeId, bit: u32| match effect.forced_bits.get(&(n, bit)) {
        Some(&v) => v,
        // `RsnBuilder::finish` rejects register references without a
        // shadow bit.
        None => cfg.bit((rsn.shadow_offset(n).expect("validated reference") + bit) as usize),
    };
    let mut addr = 0usize;
    for (i, e) in m.addr_bits.iter().enumerate() {
        if e.eval_with(&mut reg, &mut |_| false) {
            addr |= 1 << i;
        }
    }
    (addr < m.inputs.len()).then_some(addr)
}

/// Traces the structural path under the fault and configuration.
pub fn trace_faulty(rsn: &Rsn, cfg: &Config, effect: &FaultEffect) -> Option<Vec<NodeId>> {
    let mut rev = vec![rsn.scan_out()];
    let mut cur = rsn.scan_out();
    let limit = rsn.node_count() + 1;
    while !matches!(rsn.node(cur).kind(), NodeKind::ScanIn) {
        let prev = match rsn.node(cur).kind() {
            NodeKind::Mux(m) => {
                let k = decode_addr(rsn, cfg, effect, cur)?;
                m.inputs[k]
            }
            _ => rsn.node(cur).source()?,
        };
        rev.push(prev);
        cur = prev;
        if rev.len() > limit {
            return None;
        }
    }
    rev.reverse();
    Some(rev)
}

/// Chooses a register assignment that makes `expr` evaluate to `want`,
/// avoiding bits pinned to the opposite value.
fn choose(
    rsn: &Rsn,
    reset: &Config,
    effect: &FaultEffect,
    expr: &ControlExpr,
    want: bool,
    out: &mut Vec<(NodeId, u32, bool)>,
) -> bool {
    match expr {
        ControlExpr::Const(b) => *b == want,
        ControlExpr::Reg(n, bit) => {
            match effect.forced_bits.get(&(*n, *bit)) {
                Some(&v) => v == want,
                None => {
                    // A corrupt register cannot be cleanly written; its
                    // reset value may still satisfy the requirement.
                    if effect.corrupt_nodes.contains(n) {
                        let off = match rsn.shadow_offset(*n) {
                            Some(o) => o,
                            None => return false,
                        };
                        return reset.bit((off + *bit) as usize) == want;
                    }
                    out.push((*n, *bit, want));
                    true
                }
            }
        }
        ControlExpr::Input(_) => !want, // inputs held low by the planner
        ControlExpr::Not(e) => choose(rsn, reset, effect, e, !want, out),
        ControlExpr::And(es) if want => es.iter().all(|e| choose(rsn, reset, effect, e, true, out)),
        ControlExpr::Or(es) if !want => {
            es.iter().all(|e| choose(rsn, reset, effect, e, false, out))
        }
        ControlExpr::And(es) | ControlExpr::Or(es) => {
            for e in es {
                let mut tmp = Vec::new();
                if choose(rsn, reset, effect, e, want, &mut tmp) {
                    out.extend(tmp);
                    return true;
                }
            }
            false
        }
    }
}

/// Computes a clean scan path through `target` avoiding corrupt elements,
/// using BFS over edges that *could* be configured (ignoring current
/// register values — configurability is resolved by `choose`).
fn clean_path(engine: &AccessEngine, effect: &FaultEffect, target: NodeId) -> Option<Vec<NodeId>> {
    let rsn = engine.rsn();
    let reset = engine.reset_config();
    let n = rsn.node_count();
    let corrupt = |id: NodeId| effect.corrupt_nodes.contains(&id);
    let corrupt_edge = |m: NodeId, k: usize| effect.corrupt_mux_inputs.contains(&(m, k));
    let usable = |m: NodeId, k: usize| match effect.forced_mux.get(&m) {
        Some(&f) => f == k,
        None => {
            let mux = rsn.node(m).as_mux().expect("mux");
            let mut tmp = Vec::new();
            mux.addr_bits.iter().enumerate().all(|(i, e)| {
                let want = (k >> i) & 1 == 1;
                choose(rsn, reset, effect, e, want, &mut tmp)
            })
        }
    };

    // Forward BFS to the target.
    let mut parent_f: Vec<Option<NodeId>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for &r in engine.roots() {
        if !corrupt(r) {
            seen[r.index()] = true;
            queue.push_back(r);
        }
    }
    while let Some(u) = queue.pop_front() {
        for &v in rsn.successors(u) {
            if seen[v.index()] || corrupt(v) {
                continue;
            }
            let ok = match rsn.node(v).kind() {
                NodeKind::Mux(m) => m
                    .inputs
                    .iter()
                    .enumerate()
                    .any(|(k, &inp)| inp == u && usable(v, k) && !corrupt_edge(v, k)),
                _ => true,
            };
            if ok {
                seen[v.index()] = true;
                parent_f[v.index()] = Some(u);
                queue.push_back(v);
            }
        }
    }
    if !seen[target.index()] {
        return None;
    }

    // Backward BFS from the sinks to the target over clean usable edges.
    let mut parent_b: Vec<Option<NodeId>> = vec![None; n];
    let mut seen_b = vec![false; n];
    let mut queue = std::collections::VecDeque::new();
    for &s in engine.sinks() {
        if !corrupt(s) {
            seen_b[s.index()] = true;
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        let preds: Vec<(NodeId, Option<usize>)> = match rsn.node(v).kind() {
            NodeKind::Mux(m) => m
                .inputs
                .iter()
                .enumerate()
                .map(|(k, &i)| (i, Some(k)))
                .collect(),
            _ => rsn
                .node(v)
                .source()
                .map(|s| (s, None))
                .into_iter()
                .collect(),
        };
        for (u, edge) in preds {
            if seen_b[u.index()] || corrupt(u) {
                continue;
            }
            let ok = match edge {
                Some(k) => usable(v, k) && !corrupt_edge(v, k),
                None => true,
            };
            if ok {
                seen_b[u.index()] = true;
                parent_b[u.index()] = Some(v);
                queue.push_back(u);
            }
        }
    }
    if !seen_b[target.index()] {
        return None;
    }

    // Stitch prefix + suffix.
    let mut prefix = vec![target];
    let mut cur = target;
    while let Some(p) = parent_f[cur.index()] {
        prefix.push(p);
        cur = p;
    }
    prefix.reverse();
    let mut cur = target;
    let mut suffix = Vec::new();
    while let Some(nx) = parent_b[cur.index()] {
        suffix.push(nx);
        cur = nx;
    }
    prefix.extend(suffix);
    Some(prefix)
}

/// Plans a clean-write access to `target` in the faulty network on a
/// prebuilt [`AccessEngine`], reusing its cached reset configuration and
/// root/sink lists across many planning calls (one per fault × segment
/// in repair sweeps).
///
/// Returns `None` when the target is not accessible with a clean-write
/// strategy (in particular when recovery would require exploiting dirty
/// writes, which the planner deliberately avoids).
pub fn plan_faulty_access_on(
    engine: &AccessEngine,
    effect: &FaultEffect,
    target: NodeId,
) -> Option<FaultyAccessPlan> {
    let rsn = engine.rsn();
    let reset = engine.reset_config();
    if effect.corrupt_nodes.contains(&target) || effect.local_loss.contains(&target) {
        return None;
    }
    let path = clean_path(engine, effect, target)?;

    // Address requirements of the path's muxes.
    let mut required: HashMap<(NodeId, u32), bool> = HashMap::new();
    for w in path.windows(2) {
        let (u, v) = (w[0], w[1]);
        if let NodeKind::Mux(m) = rsn.node(v).kind() {
            let k = m.inputs.iter().position(|&i| i == u)?;
            if effect.forced_mux.contains_key(&v) {
                continue; // forced to this input already (clean_path checked)
            }
            let mut assignment = Vec::new();
            for (i, e) in m.addr_bits.iter().enumerate() {
                let want = (k >> i) & 1 == 1;
                if !choose(rsn, reset, effect, e, want, &mut assignment) {
                    return None;
                }
            }
            for (n, b, v2) in assignment {
                if let Some(&prev) = required.get(&(n, b)) {
                    if prev != v2 {
                        return None; // conflicting requirements
                    }
                }
                required.insert((n, b), v2);
            }
        }
    }

    // Order the writes: repeatedly trace the current faulty path and write
    // every still-wrong bit whose owner sits on the clean prefix (before
    // any corrupt element on the path).
    let mut cfg = reset.clone();
    let mut steps = Vec::new();
    for _round in 0..=rsn.node_count() {
        let cur_path = trace_faulty(rsn, &cfg, effect)?;
        let satisfied = required.iter().all(|(&(n, b), &v)| {
            rsn.shadow_offset(n)
                .map(|off| cfg.bit((off + b) as usize) == v)
                .unwrap_or(false)
        });
        if satisfied {
            // Final check: the planned path must now be the traced one in
            // the target's vicinity — trace and confirm the target is on a
            // clean path.
            let fin = trace_faulty(rsn, &cfg, effect)?;
            if !fin.contains(&target) {
                return None;
            }
            if fin.iter().any(|n| effect.corrupt_nodes.contains(n)) {
                return None;
            }
            return Some(FaultyAccessPlan {
                target,
                steps,
                path: fin,
            });
        }
        // Clean prefix of the current path: up to the first corrupt node.
        let taint_at = cur_path
            .iter()
            .position(|n| effect.corrupt_nodes.contains(n))
            .unwrap_or(cur_path.len());
        let clean_prefix = &cur_path[..taint_at];
        let mut progressed = false;
        let mut next = cfg.clone();
        for (&(n, b), &v) in &required {
            let off = rsn.shadow_offset(n)?;
            if next.bit((off + b) as usize) == v {
                continue;
            }
            if clean_prefix.contains(&n) {
                next.set_bit((off + b) as usize, v);
                progressed = true;
            }
        }
        if !progressed {
            return None;
        }
        cfg = next;
        steps.push(cfg.clone());
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::effect::effect_of;
    use crate::fault::{fault_universe, Fault, FaultSite};
    use crate::metric::HardeningProfile;
    use crate::sim::FaultySim;
    use rsn_core::examples::fig2;
    use rsn_itc02::parse_soc;
    use rsn_sib::generate;

    /// Executes a plan on the bit-accurate faulty simulator and verifies
    /// a full write+read round trip of the target.
    fn execute_and_verify(rsn: &Rsn, fault: Fault, plan: &FaultyAccessPlan) -> bool {
        let mut sim = FaultySim::new(rsn, fault);
        // Apply each setup step: write the next configuration values into
        // every writable register on the current faulty path.
        for step in &plan.steps {
            let path = match sim.trace_faulty_path() {
                Ok(p) => p,
                Err(_) => return false,
            };
            let segs: Vec<NodeId> = path
                .iter()
                .copied()
                .filter(|&n| matches!(rsn.node(n).kind(), NodeKind::Segment(_)))
                .collect();
            let total: usize = segs
                .iter()
                .map(|&s| sim.state.shift_register(s).len())
                .sum();
            let mut stream = vec![false; total];
            let mut pos = 0usize;
            for &s in &segs {
                let len = sim.state.shift_register(s).len();
                for i in 0..len {
                    let bit = match rsn.shadow_offset(s) {
                        Some(off) => step.bit((off + i as u32) as usize),
                        None => false,
                    };
                    stream[total - 1 - (pos + i)] = bit;
                }
                pos += len;
            }
            if sim.csu(&stream).is_err() {
                return false;
            }
        }
        // Data round trip. Control registers get a routing-neutral pattern
        // (their value steers multiplexers; writing 1 into a SIB register
        // would reroute the path, possibly into the faulty region).
        let len = rsn.node(plan.target).as_segment().expect("segment").length as usize;
        let pattern: Vec<bool> = if crate::effect::is_control_segment(rsn, plan.target) {
            vec![false; len]
        } else {
            (0..len).map(|i| i % 2 == 0).collect()
        };
        match sim.write_and_verify(plan.target, &pattern) {
            Ok(true) => {}
            _ => return false,
        }
        matches!(sim.read(plan.target, &pattern), Ok(Some(got)) if got == pattern)
    }

    #[test]
    fn fig2_reroutes_around_b() {
        let rsn = fig2();
        let b = rsn.find("B").expect("B");
        let c = rsn.find("C").expect("C");
        let fault = Fault {
            site: FaultSite::SegmentData(b),
            value: false,
            weight: 2,
        };
        let effect = effect_of(&rsn, &fault, HardeningProfile::unhardened());
        let plan = plan_faulty_access_on(&AccessEngine::new(&rsn), &effect, c)
            .expect("C reachable via its branch");
        assert!(!plan.path.contains(&b), "plan must avoid the fault site");
        assert!(execute_and_verify(&rsn, fault, &plan), "sim round trip");
    }

    #[test]
    fn plans_match_engine_verdicts_on_sib_network() {
        // For every fault in a small SIB RSN, a clean-write plan exists
        // whenever the engine calls the segment accessible, and every plan
        // round-trips data through the faulty simulator.
        let soc = parse_soc("SocName t\n1 0 0 0 2 : 3 2\n2 0 0 0 1 : 4\n").expect("parse");
        let rsn = generate(&soc).expect("generate");
        let profile = HardeningProfile::unhardened();
        let engine = AccessEngine::new(&rsn);
        let mut scratch = engine.scratch();
        let mut planned = 0usize;
        let mut verified = 0usize;
        for fault in fault_universe(&rsn) {
            if matches!(fault.site, FaultSite::SegmentSelect(_)) {
                continue; // not simulatable at bit level
            }
            let effect = effect_of(&rsn, &fault, profile);
            let acc = engine.accessibility(&effect, &mut scratch);
            for seg in rsn.segments() {
                let plan = plan_faulty_access_on(&engine, &effect, seg);
                if acc.accessible[seg.index()] {
                    // Clean-write plans cover the SIB networks entirely
                    // (no dirty-write recovery needed there).
                    let plan = plan.unwrap_or_else(|| {
                        panic!("engine-accessible {seg} must be plannable under {fault}")
                    });
                    planned += 1;
                    if execute_and_verify(&rsn, fault, &plan) {
                        verified += 1;
                    } else {
                        panic!(
                            "plan for {} under {fault} failed simulation",
                            rsn.node(seg).name()
                        );
                    }
                } else {
                    assert!(plan.is_none(), "inaccessible {seg} planned under {fault}");
                }
            }
        }
        assert!(planned > 100, "nontrivial coverage: {planned}");
        assert_eq!(planned, verified, "every plan must survive simulation");
    }

    #[test]
    fn plan_avoids_forced_mux_branch() {
        let rsn = fig2();
        let m = rsn.find("M").expect("M");
        let b = rsn.find("B").expect("B");
        let fault = Fault {
            site: FaultSite::MuxAddress(m),
            value: false,
            weight: 1,
        };
        let effect = effect_of(&rsn, &fault, HardeningProfile::unhardened());
        // Address stuck at 0: B stays reachable, C does not.
        let engine = AccessEngine::new(&rsn);
        let plan = plan_faulty_access_on(&engine, &effect, b).expect("B plannable");
        assert!(plan.path.contains(&b));
        let c = rsn.find("C").expect("C");
        assert!(plan_faulty_access_on(&engine, &effect, c).is_none());
    }

    #[test]
    fn fault_free_effect_plans_everything() {
        let soc = parse_soc("SocName t\n1 0 0 0 2 : 3 2\n").expect("parse");
        let rsn = generate(&soc).expect("generate");
        let engine = AccessEngine::new(&rsn);
        for seg in rsn.segments() {
            let plan = plan_faulty_access_on(&engine, &FaultEffect::benign(), seg);
            assert!(plan.is_some(), "{} must be plannable", rsn.node(seg).name());
        }
    }
}
