//! Stuck-at fault model, faulty scan-path computation and the RSN
//! fault-tolerance metric (paper Sec. III-A and IV-B).
//!
//! The crate provides:
//!
//! * [`Fault`] / [`FaultSite`] — the single stuck-at 0/1 fault universe over
//!   segment ports, register cells, select stems, multiplexer data ports
//!   and multiplexer address nets ([`fault`]).
//! * [`FaultEffect`] — the semantic effect of a fault on the network:
//!   corrupted dataflow elements, forced control values, locally lost
//!   segments ([`effect`]).
//! * The structural accessibility engine ([`engine`]): a fixed-point
//!   computation of which scan segments still have a *configurable, clean*
//!   scan path from a scan-in port through the segment to a scan-out port
//!   that avoids the fault site — the paper's "algorithm to compute scan
//!   paths in faulty RSNs", specialized to the structured networks built by
//!   this toolchain (exact for SIB-based and synthesized fault-tolerant
//!   RSNs; the BMC engine in `rsn-bmc` provides the general reference
//!   semantics).
//! * The fault-tolerance metric ([`metric`]): worst-case and average
//!   fraction of accessible segments and scan bits over all single
//!   stuck-at faults — the accessibility columns of the paper's Table I.
//!
//! # Example
//!
//! ```
//! use rsn_core::examples::fig2;
//! use rsn_fault::{analyze, HardeningProfile};
//!
//! let rsn = fig2();
//! let report = analyze(&rsn, HardeningProfile::unhardened());
//! // Some fault disconnects everything in the unhardened Fig. 2 network.
//! assert_eq!(report.worst_segments, 0.0);
//! assert!(report.avg_segments > 0.0 && report.avg_segments < 1.0);
//! ```

pub mod collapse;
pub mod diagnose;
pub mod effect;
pub mod engine;
pub mod fault;
pub mod metric;
pub mod multi;
pub mod plan;
pub mod sim;
pub(crate) mod sweep;

pub use collapse::{ClassKind, FaultClass, FaultClasses};
pub use diagnose::{FaultDictionary, Signature};
pub use effect::{effect_of, effect_of_indexed, is_control_segment, ControlBitIndex, FaultEffect};
pub use engine::{accessibility, AccessEngine, Accessibility, Scratch, LANES};
pub use fault::{fault_universe, fault_universe_weighted, Fault, FaultSite, WeightModel};
pub use metric::{
    analyze, analyze_classes_on_budget, analyze_parallel_budgeted, FaultToleranceReport,
    HardeningProfile,
};
pub use multi::{analyze_double_sampled, DoubleFaultReport};
pub use plan::{plan_faulty_access_on, FaultyAccessPlan};
pub use sim::FaultySim;
