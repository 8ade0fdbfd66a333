//! Predicates over query variables (Section 5 of the paper).
//!
//! A predicate `P(y)` is a computable boolean function over a tuple of
//! variables. This crate ships the two families the paper gives
//! polynomial-time algorithms for — **inequalities** (`≠`) and
//! **comparisons** (`<`, `≤` and flips) — between two variables or a
//! variable and a constant. Only these are supported: the exponential
//! algorithm of Section 5.1 for arbitrary computable predicates is not
//! implemented.

use crate::cq::{Term, VarId};
use dpcq_relation::Value;
use std::fmt;

/// Comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub enum CmpOp {
    /// `=` (useful as a filter; variable-variable equality could also be
    /// compiled away by unification, which we deliberately do not do).
    Eq,
    /// `≠` — an *inequality* in the paper's terminology.
    Neq,
    /// `<` — a *comparison*.
    Lt,
    /// `≤` — a *comparison*.
    Le,
    /// `>` — a *comparison*.
    Gt,
    /// `≥` — a *comparison*.
    Ge,
}

impl CmpOp {
    /// Applies the operator.
    #[inline]
    pub fn apply(self, a: Value, b: Value) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Neq => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The operator with swapped operands (`a op b  ⇔  b op.flip() a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Neq => CmpOp::Neq,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// The token used by the parser / printer.
    pub fn token(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Neq => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A binary predicate `lhs op rhs` over terms.
///
/// The derived `Ord`/`Hash` give predicates a canonical total order, which
/// the evaluation layer uses to build deterministic memoization keys for
/// shared intermediate factors (see `dpcq_eval::family`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug, Hash)]
pub struct Predicate {
    /// Left operand.
    pub lhs: Term,
    /// The operator.
    pub op: CmpOp,
    /// Right operand.
    pub rhs: Term,
}

impl Predicate {
    /// Creates `lhs op rhs`.
    pub fn new(lhs: Term, op: CmpOp, rhs: Term) -> Self {
        Predicate { lhs, op, rhs }
    }

    /// `x ≠ y`.
    pub fn neq(x: VarId, y: VarId) -> Self {
        Predicate::new(Term::Var(x), CmpOp::Neq, Term::Var(y))
    }

    /// `x < y`.
    pub fn lt(x: VarId, y: VarId) -> Self {
        Predicate::new(Term::Var(x), CmpOp::Lt, Term::Var(y))
    }

    /// `x ≤ y`.
    pub fn le(x: VarId, y: VarId) -> Self {
        Predicate::new(Term::Var(x), CmpOp::Le, Term::Var(y))
    }

    /// The distinct variables this predicate mentions (its `y`).
    pub fn variables(&self) -> Vec<VarId> {
        let mut out = Vec::with_capacity(2);
        for t in [self.lhs, self.rhs] {
            if let Term::Var(v) = t {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// Whether this is an *inequality* predicate (`≠`), always satisfiable
    /// over an infinite domain once one side is free (Corollary 5.1).
    pub fn is_inequality(&self) -> bool {
        self.op == CmpOp::Neq
    }

    /// Whether this is an order *comparison* (`<`, `≤`, `>`, `≥`).
    pub fn is_comparison(&self) -> bool {
        matches!(self.op, CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge)
    }

    /// Evaluates the predicate under a (total) variable assignment.
    ///
    /// `lookup` must return the value bound to a variable; it is only
    /// called for variables this predicate mentions.
    #[inline]
    pub fn eval<F: Fn(VarId) -> Value>(&self, lookup: F) -> bool {
        let a = match self.lhs {
            Term::Var(v) => lookup(v),
            Term::Const(c) => c,
        };
        let b = match self.rhs {
            Term::Var(v) => lookup(v),
            Term::Const(c) => c,
        };
        self.op.apply(a, b)
    }

    /// Pretty-printer with a variable-name resolver.
    pub fn display<'a, F>(&'a self, name: F) -> PredicateDisplay<'a, F>
    where
        F: Fn(VarId) -> &'a str,
    {
        PredicateDisplay { pred: self, name }
    }
}

/// Display adapter for [`Predicate`].
pub struct PredicateDisplay<'a, F> {
    pred: &'a Predicate,
    name: F,
}

impl<'a, F> fmt::Display for PredicateDisplay<'a, F>
where
    F: Fn(VarId) -> &'a str,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = |f: &mut fmt::Formatter<'_>, t: &Term| match t {
            Term::Var(v) => write!(f, "{}", (self.name)(*v)),
            Term::Const(c) => write!(f, "{c}"),
        };
        w(f, &self.pred.lhs)?;
        write!(f, " {} ", self.pred.op.token())?;
        w(f, &self.pred.rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ops_apply_correctly() {
        let a = Value(1);
        let b = Value(2);
        assert!(CmpOp::Lt.apply(a, b));
        assert!(CmpOp::Le.apply(a, a));
        assert!(CmpOp::Neq.apply(a, b));
        assert!(!CmpOp::Eq.apply(a, b));
        assert!(CmpOp::Gt.apply(b, a));
        assert!(CmpOp::Ge.apply(b, b));
    }

    #[test]
    fn flip_is_involution_and_correct() {
        for op in [
            CmpOp::Eq,
            CmpOp::Neq,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flip().flip(), op);
            for (a, b) in [(1, 2), (2, 1), (3, 3)] {
                assert_eq!(
                    op.apply(Value(a), Value(b)),
                    op.flip().apply(Value(b), Value(a))
                );
            }
        }
    }

    #[test]
    fn eval_with_constants() {
        let p = Predicate::new(Term::Var(VarId(0)), CmpOp::Lt, Term::Const(Value(10)));
        assert!(p.eval(|_| Value(3)));
        assert!(!p.eval(|_| Value(10)));
        assert_eq!(p.variables(), vec![VarId(0)]);
    }

    #[test]
    fn classification() {
        assert!(Predicate::neq(VarId(0), VarId(1)).is_inequality());
        assert!(!Predicate::neq(VarId(0), VarId(1)).is_comparison());
        assert!(Predicate::lt(VarId(0), VarId(1)).is_comparison());
        assert!(Predicate::le(VarId(0), VarId(1)).is_comparison());
    }

    #[test]
    fn variables_dedup() {
        let p = Predicate::neq(VarId(3), VarId(3));
        assert_eq!(p.variables(), vec![VarId(3)]);
    }
}
