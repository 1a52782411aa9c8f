//! A 0/1 integer linear programming solver.
//!
//! The connectivity-augmentation step of the fault-tolerant RSN synthesis
//! (paper Sec. III-D) is formulated as an ILP over binary edge variables
//! with vertex-degree constraints and lazily separated subtour-elimination
//! (acyclicity) constraints. The paper used a commercial solver; this crate
//! implements the same machinery from scratch:
//!
//! * [`Problem`] — model builder: variables with bounds and integrality,
//!   linear constraints, minimization objective ([`model`]).
//! * [`solve_lp`] — two-phase dense primal simplex with Bland anti-cycling
//!   fallback ([`simplex`]).
//! * [`solve_ilp`] / [`solve_ilp_with_cuts_under`] — best-first branch &
//!   bound over the LP relaxation, with a lazy-cut callback exactly like
//!   the "lazy constraint" interface of commercial solvers ([`branch`]).
//!
//! # Example
//!
//! ```
//! use rsn_ilp::{Problem, solve_ilp};
//!
//! // minimize x + 2y  s.t.  x + y >= 1.5, binary x, y  -> x = y = 1? No:
//! // x=1,y=1 costs 3; x=1,y=0 violates (1 < 1.5); x=0,y=1 violates.
//! // Optimum is x=1, y=1 with cost 3.
//! let mut p = Problem::new();
//! let x = p.add_binary_var("x", 1.0);
//! let y = p.add_binary_var("y", 2.0);
//! p.add_ge([(x, 1.0), (y, 1.0)], 1.5);
//! let sol = solve_ilp(&p)?;
//! assert_eq!(sol.value(x), 1.0);
//! assert_eq!(sol.value(y), 1.0);
//! # Ok::<(), rsn_ilp::IlpError>(())
//! ```

pub mod branch;
pub mod model;
pub mod simplex;

pub use branch::{solve_ilp, solve_ilp_under, solve_ilp_with_cuts_under, IlpError, IlpSolution};
pub use model::{Constraint, ConstraintOp, Problem, VarId};
pub use simplex::{solve_lp, solve_lp_with_stats, LpOutcome, LpStats};
