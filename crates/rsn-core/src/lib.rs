//! Core data model for reconfigurable scan networks (RSNs, IEEE Std 1687).
//!
//! This crate implements the structural and behavioural model of Section II
//! of *Brandhofer, Kochte, Wunderlich: "Synthesis of Fault-Tolerant
//! Reconfigurable Scan Networks", DATE 2020*:
//!
//! * [`Rsn`] — the structural network: scan segments, scan multiplexers and
//!   primary scan ports connected by interconnects ([`network`]).
//! * [`ControlExpr`] — boolean control expressions over shadow-register bits
//!   and primary control inputs, used for select predicates and multiplexer
//!   address signals ([`expr`]).
//! * [`Config`] — scan configurations (the state of all shadow registers and
//!   primary inputs) ([`config`]).
//! * Active-scan-path tracing and configuration validity ([`path`]).
//! * Bit-accurate capture–shift–update (CSU) simulation ([`csu`]).
//! * Fault-free access planning: a series of CSU operations that routes the
//!   active scan path through a target segment, with its latency in clock
//!   cycles ([`access`], [`retarget`]), and stateful instrument access
//!   sessions that execute such plans on the simulator ([`session`]).
//! * Ready-made example networks, including the paper's Fig. 2 ([`examples`]).
//!
//! # Example
//!
//! ```
//! use rsn_core::examples::fig2;
//!
//! let rsn = fig2();
//! let cfg = rsn.reset_config();
//! let path = rsn.active_path(&cfg)?;
//! // In the reset state of Fig. 2, segments A, B and D are on the active path.
//! let names: Vec<&str> = path
//!     .segments(&rsn)
//!     .map(|s| rsn.node(s).name())
//!     .collect();
//! assert_eq!(names, ["A", "B", "D"]);
//! # Ok::<(), rsn_core::Error>(())
//! ```

pub mod access;
pub mod config;
pub mod csu;
pub mod dot;
pub mod error;
pub mod examples;
pub mod expr;
pub mod lint;
pub mod network;
pub mod path;
pub mod retarget;
pub mod session;

pub use config::Config;
pub use error::{Error, Result};
pub use expr::{CompiledExpr, ControlExpr, InputId};
pub use lint::{structural_findings, StructuralFindings};
pub use network::{Mux, Node, NodeId, NodeKind, Rsn, RsnBuilder, Segment};
pub use path::ScanPath;
pub use retarget::LatencyReport;
pub use session::AccessSession;
