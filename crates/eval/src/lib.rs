#![deny(unsafe_code)]
//! # dpcq-eval — join evaluation and `T_E` computation
//!
//! The sensitivity machinery of Dong & Yi (PODS 2022) reduces to evaluating
//! *residual queries with boundary aggregation*: for a subset `E` of atoms,
//!
//! ```text
//! T_E(I) = max_{t ∈ dom(∂q_E)} |q_E(I) ⋈ t|
//! ```
//!
//! which is "exactly an AJAR/FAQ query … with two semiring aggregations +
//! and max" (Section 3.1). For non-full queries, a projection is inserted
//! and the query gains a third aggregation (Section 6).
//!
//! This crate provides:
//!
//! * [`Factor`] — annotated relations (rows → counts) in a columnar,
//!   dictionary-code-compressed layout: hash joins with retained build
//!   indexes, sort-based semiring elimination, predicate filtering, and
//!   per-thread scratch arenas (see [`factor`] and the private `domain`
//!   module);
//! * [`Evaluator`] — the FAQ-style bucket-elimination engine computing
//!   `|q(I)|`, `T_E(I)` and boundary count factors, with predicate-aware
//!   bucket widening (every predicate is applied before its last variable
//!   is eliminated) and Corollary 5.1 handling of inequality predicates;
//! * [`FamilyEvaluator`] — whole-`T`-family evaluation through a shared
//!   intermediate-factor memo store, residual-isomorphism value caching,
//!   and work-stealing parallelism (see [`family`]);
//! * [`naive`] — a nested-loop reference evaluator used to validate the
//!   engine in tests;
//! * [`active_domain`] — the augmented active domain `Z+(q, I)` of
//!   Section 5.2 and comparison-predicate materialization.

pub mod active_domain;
pub mod cancel;
pub(crate) mod delta;
pub(crate) mod domain;
pub mod error;
pub mod evaluator;
pub mod factor;
pub mod family;
pub mod naive;

pub use cancel::CancelToken;
pub use error::EvalError;
pub use evaluator::Evaluator;
pub use factor::{Factor, Semiring};
pub use family::{DeltaOutcome, FamilyCache, FamilyEvaluator, FamilyStats};
