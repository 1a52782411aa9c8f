//! The reference twin of `rsn-verify`'s narrowed queries, shared by the
//! integration tests that run it on their networks.

use ftrsn::core::{Config, Error, NodeId, NodeKind, Rsn};
use ftrsn::sat::Solver;
use ftrsn::verify::NetworkSat;

/// One question a check family can ask of the CNF model.
#[derive(Debug, Clone, Copy)]
enum Query {
    Select(NodeId),
    Mismatch(NodeId),
    MuxCond(NodeId, usize),
    Overflow(NodeId),
    OnPath(NodeId),
}

/// Asks every query the check families can ask of `rsn` (select,
/// select/path mismatch, mux input condition, address overflow and
/// on-path membership) twice: through `NetworkSat`, which decides only
/// the fan-in cone of each query, and through a fresh solver built from
/// the recorded clauses, which decides every variable. Both must give
/// the same verdict, and every narrowed witness must replay through the
/// simulator. Returns the number of witnesses.
pub fn assert_narrowing_matches_reference(rsn: &Rsn) -> usize {
    let sat = NetworkSat::build(rsn);
    let mut reference = Solver::new();
    for _ in 0..sat.model_vars() {
        reference.new_var();
    }
    for (lits, _) in sat.recorded_clauses() {
        reference.add_clause(lits.iter().copied());
    }

    let mut queries = Vec::new();
    for s in rsn.segments() {
        queries.push((Query::Select(s), sat.select(s)));
        queries.push((Query::Mismatch(s), sat.select_mismatch(s)));
    }
    for m in rsn.muxes() {
        for k in 0..rsn.node(m).as_mux().expect("mux").inputs.len() {
            queries.push((Query::MuxCond(m, k), sat.mux_cond(m, k)));
        }
        if let Some(overflow) = sat.addr_overflow(m) {
            queries.push((Query::Overflow(m), overflow));
        }
    }
    for n in rsn.node_ids() {
        queries.push((Query::OnPath(n), sat.onpath(n)));
    }

    let mut scratch = sat.scratch();
    let mut witnesses = 0;
    for (query, lit) in queries {
        let expected = reference.solve_with(&[lit]);
        let name = rsn.name();
        assert_eq!(
            sat.satisfiable(&mut scratch, &[lit]),
            expected,
            "{name}: {query:?}"
        );
        let witness = sat.witness(rsn, &mut scratch, &[lit]);
        assert_eq!(witness.is_some(), expected, "{name}: {query:?}");
        if let Some(cfg) = witness {
            assert!(
                replays(rsn, query, &cfg),
                "{name}: the witness of {query:?} does not replay: {cfg:?}"
            );
            witnesses += 1;
        }
    }
    witnesses
}

/// Does the simulator confirm `query` under `cfg`?
fn replays(rsn: &Rsn, query: Query, cfg: &Config) -> bool {
    let selected = |s| rsn.select(s, cfg).expect("select evaluates");
    match query {
        Query::Select(s) => selected(s),
        Query::Mismatch(s) => selected(s) != on_path(rsn, cfg, s),
        Query::MuxCond(m, k) => {
            let inputs = &rsn.node(m).as_mux().expect("mux").inputs;
            rsn.mux_selected_input(m, cfg).ok() == Some(inputs[k])
        }
        Query::Overflow(m) => matches!(
            rsn.mux_selected_input(m, cfg),
            Err(Error::MuxAddressOutOfRange { .. })
        ),
        Query::OnPath(n) => on_path(rsn, cfg, n),
    }
}

/// Whether `node` lies on the path traced back from some scan-out port:
/// `trace_path_from` over every port, except that a trace ends at a mux
/// whose address decodes out of range instead of failing, as in the
/// CNF, where such a mux passes no input.
fn on_path(rsn: &Rsn, cfg: &Config, node: NodeId) -> bool {
    rsn.node_ids()
        .filter(|&p| matches!(rsn.node(p).kind(), NodeKind::ScanOut))
        .any(|port| {
            let mut cur = Some(port);
            while let Some(v) = cur {
                if v == node {
                    return true;
                }
                cur = match rsn.node(v).kind() {
                    NodeKind::ScanIn => None,
                    NodeKind::Mux(_) => rsn.mux_selected_input(v, cfg).ok(),
                    _ => rsn.node(v).source(),
                };
            }
            false
        })
}
