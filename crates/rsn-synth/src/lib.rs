//! Fault-tolerant RSN synthesis — the paper's primary contribution
//! (Sections III-B to III-E of *Brandhofer, Kochte, Wunderlich,
//! "Synthesis of Fault-Tolerant Reconfigurable Scan Networks", DATE'20*).
//!
//! The pipeline:
//!
//! 1. [`Dataflow::extract`] — the RSN dataflow graph (Sec. III-B).
//! 2. [`augment_greedy`] — minimum-cost connectivity augmentation
//!    establishing two vertex-independent paths per segment (Sec. III-C,
//!    III-D). The paper's exact ILP with lazy subtour-elimination cuts,
//!    [`augment_ilp_under`], is its oracle.
//! 3. [`synthesize`] — final synthesis: multiplexer insertion, select
//!    re-derivation and hardening, TMR address nets, secondary scan ports
//!    (Sec. III-E).
//! 4. [`area`] — a gate-equivalent area model substituting the paper's
//!    commercial logic synthesis reports (Sec. IV-C).
//!
//! # Example
//!
//! ```
//! use rsn_core::examples::fig2;
//! use rsn_synth::{synthesize, SynthesisOptions};
//!
//! let original = fig2();
//! let ft = synthesize(&original, &SynthesisOptions::new())?;
//! assert!(ft.rsn.muxes().count() > original.muxes().count());
//! # Ok::<(), rsn_core::Error>(())
//! ```

pub mod area;
pub mod augment;
pub mod build;
pub mod dataflow;
pub mod select;

pub use area::{AreaModel, NetworkCosts, Overhead};
pub use augment::{
    augment_greedy, augment_ilp_under, augmented_graph, AugmentOptions, Augmentation,
};
pub use build::{synthesize, synthesize_under, SynthesisOptions, SynthesisReport, SynthesisResult};
pub use dataflow::Dataflow;
pub use select::{select_hardness, SelectHardnessReport};
