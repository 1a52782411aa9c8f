//! Integration: high-level access sessions drive both the original and
//! the synthesized fault-tolerant network, and the fault-tolerant
//! structure stays transparently usable for normal instrument access.

use std::collections::HashSet;

use ftrsn::core::{AccessSession, NodeId, NodeKind, Rsn};
use ftrsn::itc02::{by_name, parse_soc};
use ftrsn::sib::generate;
use ftrsn::synth::{synthesize, SynthesisOptions};

#[test]
fn sessions_roundtrip_on_original_and_ft_network() {
    let soc = parse_soc("SocName s\n1 0 0 0 2 : 5 3\n2 0 0 0 1 : 4\n").expect("parse");
    let rsn = generate(&soc).expect("generate");
    let ft = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");

    for network in [&rsn, &ft.rsn] {
        let mut session = AccessSession::new(network);
        let leaf = network.find("m1.c0.seg").expect("leaf exists in both");
        // The fault-tolerant network may have appended routing bits to the
        // register; write the payload and keep the routing bits at 0.
        let len = network.node(leaf).as_segment().expect("segment").length as usize;
        let mut pattern = vec![true, false, true, true, false];
        pattern.resize(len, false);
        session.write(leaf, &pattern).expect("write");
        let (value, _) = session.read(leaf, &|_| None).expect("read");
        assert_eq!(value, pattern, "{}", network.name());
    }
}

#[test]
fn ft_session_accesses_every_original_segment() {
    let soc = parse_soc("SocName s\n1 0 0 0 1 : 4\n2 0 0 0 2 : 2 3\n").expect("parse");
    let rsn = generate(&soc).expect("generate");
    let ft = synthesize(&rsn, &SynthesisOptions::new()).expect("synthesize");
    let mut session = AccessSession::new(&ft.rsn);
    for seg in rsn.segments() {
        let name = rsn.node(seg).name().to_string();
        let id = ft.rsn.find(&name).expect("original segment preserved");
        let len = ft.rsn.node(id).as_segment().expect("segment").length as usize;
        // Routing-neutral pattern: original registers may own routing bits.
        let pattern = vec![false; len];
        session
            .write(id, &pattern)
            .unwrap_or_else(|e| panic!("write {name}: {e}"));
        let (value, _) = session
            .read(id, &|_| None)
            .unwrap_or_else(|e| panic!("read {name}: {e}"));
        assert_eq!(value, pattern, "{name}");
    }
    assert!(session.accesses() >= 2 * rsn.segments().count() as u64);
}

#[test]
fn session_cycle_accounting_matches_latency_report_scale() {
    let soc = parse_soc("SocName s\n1 0 0 0 2 : 8 8\n").expect("parse");
    let rsn = generate(&soc).expect("generate");
    let report = rsn.latency_report();
    let leaf = rsn.find("m1.c0.seg").expect("leaf");
    let expected = report.cycles(leaf).expect("plannable");
    let mut session = AccessSession::new(&rsn);
    let cycles = session.write(leaf, &[false; 8]).expect("write");
    assert_eq!(
        cycles, expected,
        "session accounting equals the latency report"
    );
}

/// The shadow bits some select, disable or mux address reads.
fn control_bits(rsn: &Rsn) -> HashSet<(NodeId, u32)> {
    let mut refs = Vec::new();
    for id in rsn.node_ids() {
        match rsn.node(id).kind() {
            NodeKind::Segment(s) => {
                for e in [&s.select, &s.capture_disable, &s.update_disable] {
                    e.collect_reg_refs(&mut refs);
                }
            }
            NodeKind::Mux(m) => {
                for e in &m.addr_bits {
                    e.collect_reg_refs(&mut refs);
                }
            }
            _ => {}
        }
    }
    refs.into_iter().collect()
}

#[test]
fn session_writes_cost_exactly_the_planned_cycles() {
    // Every segment of two SoCs' SIB and FT networks: a write from reset
    // executes the plan on the simulator in exactly `plan.cycles` clock
    // cycles, and the written value reads back.
    for soc in ["u226", "q12710"] {
        let rsn = generate(&by_name(soc).expect("embedded")).expect("generate");
        let ft = synthesize(&rsn, &SynthesisOptions::new())
            .expect("synthesize")
            .rsn;
        for network in [&rsn, &ft] {
            let control = control_bits(network);
            let reset = network.reset_config();
            for seg in network.segments() {
                let name = network.node(seg).name();
                let plan = network
                    .plan_access(seg, &reset)
                    .unwrap_or_else(|e| panic!("plan {name}: {e}"));
                // Control bits keep their planned value, so the write
                // leaves the scan path in place; data bits alternate.
                let last = plan.steps.last().unwrap_or(&reset);
                let len = network.node(seg).as_segment().expect("segment").length;
                let value: Vec<bool> = (0..len)
                    .map(|i| match network.shadow_offset(seg) {
                        Some(off) if control.contains(&(seg, i)) => last.bit((off + i) as usize),
                        _ => i % 2 == 0,
                    })
                    .collect();
                let mut session = AccessSession::new(network);
                let cycles = session
                    .write(seg, &value)
                    .unwrap_or_else(|e| panic!("write {name}: {e}"));
                assert_eq!(cycles, plan.cycles, "{}: {name}", network.name());
                let (read, _) = session
                    .read(seg, &|_| None)
                    .unwrap_or_else(|e| panic!("read {name}: {e}"));
                assert_eq!(read, value, "{}: {name}", network.name());
            }
        }
    }
}
