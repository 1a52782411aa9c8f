//! A CDCL SAT solver with CNF construction utilities.
//!
//! This crate is the decision-procedure substrate for the bounded model
//! checking of RSN accessibility (paper Sec. II-B / III-A). It provides:
//!
//! * [`Solver`] — conflict-driven clause learning with two-watched-literal
//!   propagation, first-UIP learning, VSIDS branching, phase saving, Luby
//!   restarts and activity-based learnt-clause reduction ([`solver`]).
//! * [`Lit`] / [`Var`] — literal and variable handles ([`lit`]).
//! * [`CnfBuilder`] — Tseitin encoding of circuits (AND/OR/NOT/XOR/ITE,
//!   equality, at-most-one) on top of a solver ([`cnf`]).
//! * Parallel solving — an escalation ladder for queries a serial burst
//!   leaves undecided: bounded variable elimination, then a race of
//!   diversified CDCL workers over a shared learnt-clause ring, reached
//!   through [`Solver::set_threads`].
//!
//! # Example
//!
//! ```
//! use rsn_sat::{Solver, Lit};
//!
//! let mut solver = Solver::new();
//! let a = solver.new_var();
//! let b = solver.new_var();
//! solver.add_clause([Lit::pos(a), Lit::pos(b)]);
//! solver.add_clause([Lit::neg(a)]);
//! assert!(solver.solve());
//! assert_eq!(solver.value(b), Some(true));
//! ```

pub mod cnf;
mod eliminate;
pub mod lit;
mod pool;
mod portfolio;
pub mod solver;

pub use cnf::CnfBuilder;
pub use lit::{Lit, Var};
pub use solver::{SolveOutcome, Solver};
