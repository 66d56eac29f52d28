//! Mutation operators with *declared effect*.
//!
//! Each operator transforms a structurally descending schema instance
//! (see [`crate::gen`]) in a way whose effect on termination is known a
//! priori:
//!
//! | operator        | effect     | transformation                                   |
//! |-----------------|------------|--------------------------------------------------|
//! | `Rename`        | preserving | rename the function and all its call sites       |
//! | `EtaExpand`     | preserving | route the recursive call through a fresh λ       |
//! | `DeadBranch`    | preserving | guard a non-descending self-call by a statically false test |
//! | `PermuteArgs`   | preserving | permute parameters *and* every call site to match |
//! | `SetRebind`     | preserving | `set!` one step global to another between tower sweeps (mega only) |
//! | `SwapArgSelf`   | breaking   | replace the descending argument with the original parameter |
//! | `DropBase`      | breaking   | delete the base case (numeric schemas only)      |
//! | `UnsatGuard`    | breaking   | replace the base guard with a never-true test (numeric schemas only) |
//!
//! A *preserving* operator keeps the instance terminating **and**
//! monitor-clean; a *breaking* one makes the target's recursion group
//! diverge, which the monitor must blame (Theorem 3.1). Breaking
//! operators apply to every recursive call / base case of the group —
//! breaking one half of a mutual pair is not a divergence.

use crate::gen::SchemaKind;

/// One mutation operator (or none). See the module table for effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Leave the schema untouched.
    None,
    /// Rename the function (and with it every call site).
    Rename,
    /// Eta-expand the recursive call through an intermediate λ.
    EtaExpand,
    /// Insert a dead branch containing a non-descending self-call.
    DeadBranch,
    /// Permute the parameter list, rewriting all call sites to match.
    PermuteArgs,
    /// `set!`-rebind one step global to another between two tower sweeps
    /// (mega schema only): both steps terminate, so the program stays
    /// clean, but the first-class site sees a different callee for the
    /// same global mid-run.
    SetRebind,
    /// Swap the decreasing argument for the original parameter.
    SwapArgSelf,
    /// Drop the base case entirely.
    DropBase,
    /// Replace the domain guard with one no reachable value satisfies.
    UnsatGuard,
}

impl Mutation {
    /// The descent-preserving operators.
    pub const PRESERVING: &'static [Mutation] = &[
        Mutation::Rename,
        Mutation::EtaExpand,
        Mutation::DeadBranch,
        Mutation::PermuteArgs,
        Mutation::SetRebind,
    ];

    /// The descent-breaking operators.
    pub const BREAKING: &'static [Mutation] = &[
        Mutation::SwapArgSelf,
        Mutation::DropBase,
        Mutation::UnsatGuard,
    ];

    /// Every operator, `None` first — the order the summary line uses.
    pub const ALL: &'static [Mutation] = &[
        Mutation::None,
        Mutation::Rename,
        Mutation::EtaExpand,
        Mutation::DeadBranch,
        Mutation::PermuteArgs,
        Mutation::SetRebind,
        Mutation::SwapArgSelf,
        Mutation::DropBase,
        Mutation::UnsatGuard,
    ];

    /// Stable name used in summaries and reports.
    pub fn name(self) -> &'static str {
        match self {
            Mutation::None => "none",
            Mutation::Rename => "rename",
            Mutation::EtaExpand => "eta-expand",
            Mutation::DeadBranch => "dead-branch",
            Mutation::PermuteArgs => "permute-args",
            Mutation::SetRebind => "set-rebind",
            Mutation::SwapArgSelf => "swap-arg-self",
            Mutation::DropBase => "drop-base",
            Mutation::UnsatGuard => "unsat-guard",
        }
    }

    /// True for the descent-breaking operators: applying one yields a
    /// *diverging* oracle for the target group.
    pub fn breaks_descent(self) -> bool {
        matches!(
            self,
            Mutation::SwapArgSelf | Mutation::DropBase | Mutation::UnsatGuard
        )
    }

    /// Whether the operator is meaningful on the given schema.
    ///
    /// * `PermuteArgs` needs a multi-parameter schema.
    /// * `SetRebind` needs the mega schema's pool of interchangeable step
    ///   globals — no other schema defines two functions of the same
    ///   shape that can be swapped without changing the oracle.
    /// * `DropBase` / `UnsatGuard` need a *numeric* descent: on list and
    ///   tree schemas, removing the base case produces `errorRT` (`car`
    ///   of a non-pair) rather than divergence, which would falsify the
    ///   diverging oracle.
    pub fn applicable(self, kind: SchemaKind) -> bool {
        match self {
            Mutation::PermuteArgs => {
                matches!(kind, SchemaKind::Acc | SchemaKind::HigherOrder)
            }
            Mutation::SetRebind => kind == SchemaKind::Mega,
            Mutation::DropBase | Mutation::UnsatGuard => matches!(
                kind,
                SchemaKind::Nat
                    | SchemaKind::Acc
                    | SchemaKind::Mutual
                    | SchemaKind::HigherOrder
                    | SchemaKind::Mega
            ),
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effect_table_is_consistent() {
        for m in Mutation::PRESERVING {
            assert!(!m.breaks_descent(), "{m:?}");
        }
        for m in Mutation::BREAKING {
            assert!(m.breaks_descent(), "{m:?}");
        }
        assert_eq!(
            Mutation::ALL.len(),
            1 + Mutation::PRESERVING.len() + Mutation::BREAKING.len()
        );
        // Every schema admits at least one preserving and one breaking
        // operator, so `pick_mutation` never faces an empty pool.
        for kind in SchemaKind::ALL {
            assert!(Mutation::PRESERVING.iter().any(|m| m.applicable(kind)));
            assert!(Mutation::BREAKING.iter().any(|m| m.applicable(kind)));
        }
    }
}
