#![deny(unsafe_code)]
//! # dpcq-query — conjunctive queries, predicates and privacy policies
//!
//! Implements the query model of Dong & Yi (PODS 2022), Sections 2.1, 5, 6:
//!
//! * full conjunctive queries `q := R₁(x₁) ⋈ … ⋈ Rₙ(xₙ)`, possibly with
//!   **self-joins** (repeated relation names) and constants in atoms;
//! * **predicates** (Section 5): inequalities `x ≠ y`, comparisons
//!   `x < y`, `x ≤ y` (and their flips), between variables or against
//!   constants;
//! * **projections** (Section 6): non-full CQs `π_o(…)`;
//! * **privacy policies** (Section 2.2): the subset `P_m` of physical
//!   relations that is private, inducing the set `P_n` of private logical
//!   atoms;
//! * the structural analysis the sensitivity machinery needs: self-join
//!   groups `D_i`, residual-query boundaries `∂q_E`, connectivity;
//! * a small datalog-style text [`parser`].
//!
//! The query type is deliberately independent of any database instance;
//! binding to instances happens in `dpcq-eval`.

pub mod analysis;
pub mod builder;
pub mod cq;
pub mod error;
pub mod parser;
pub mod policy;
pub mod predicate;

pub use builder::CqBuilder;
pub use cq::{Atom, ConjunctiveQuery, Term, VarId};
pub use error::QueryError;
pub use parser::parse_query;
pub use policy::Policy;
pub use predicate::{CmpOp, Predicate};
