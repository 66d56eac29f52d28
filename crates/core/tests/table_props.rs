//! Property test for the imperative size-change table.
//!
//! [`MonitorStack`] keeps one LIFO stack of pending checked calls. Its
//! specification is the persistent table threaded through the dynamic
//! extent: a stack of [`ScTable`]s that pushes the updated table on every
//! call and pops one on every return. Random call/return sequences over
//! several keys and mixed arities, with rejected calls and fresh tables
//! swapped in and back out (as a `terminating/c` extent does), must give
//! the same verdicts, witnesses and entries on both.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sct_core::order::AbsIntOrder;
use sct_core::seq::ScViolation;
use sct_core::table::{MonitorStack, ScTable};
use std::rc::Rc;

const KEYS: u32 = 4;

#[derive(Debug, Clone)]
enum Op {
    /// A checked call (`upd`).
    Call(u32, Vec<i64>),
    /// An unchecked call (`ext`, the call-sequence semantics).
    Extend(u32, Vec<i64>),
    /// The innermost pending call returns.
    Return,
    /// A fresh table is swapped in for a new contract extent.
    Enter,
    /// The innermost extent ends once its calls have returned, and the
    /// saved table is swapped back.
    Leave,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..10, 0..KEYS, proptest::collection::vec(0i64..4, 1..4)).prop_map(|(kind, key, args)| {
        match kind {
            0..=3 => Op::Call(key, args),
            4 => Op::Extend(key, args),
            5..=7 => Op::Return,
            8 => Op::Enter,
            _ => Op::Leave,
        }
    })
}

/// One contract extent: the table under test and its specification, a
/// stack whose bottom is the extent's empty table.
struct Extent {
    table: MonitorStack<u32, i64>,
    spec: Vec<ScTable<u32, i64>>,
}

impl Extent {
    fn fresh() -> Extent {
        Extent {
            table: MonitorStack::new(),
            spec: vec![ScTable::new()],
        }
    }

    fn top(&self) -> &ScTable<u32, i64> {
        self.spec.last().expect("the bottom table stays")
    }
}

/// Runs `ops`, checking after every step that the table agrees with the
/// spec. Returns how many calls were rejected.
fn run(ops: &[Op]) -> Result<usize, TestCaseError> {
    let mut current = Extent::fresh();
    let mut saved: Vec<Extent> = Vec::new();
    let mut rejected = 0;
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Call(key, args) => {
                let want = current
                    .top()
                    .update(*key, Rc::from(args.as_slice()), &AbsIntOrder);
                let got = current.table.push(*key, args, &AbsIntOrder);
                match (want, got) {
                    (Ok(table), Ok(())) => current.spec.push(table),
                    (Err(want), Err(got)) => {
                        prop_assert_eq!(got, want, "witness at step {}", step);
                        rejected += 1;
                    }
                    (want, got) => {
                        return Err(TestCaseError::fail(format!(
                            "step {step}: spec {:?}, table {:?}",
                            want.err(),
                            got.err()
                        )));
                    }
                }
            }
            Op::Extend(key, args) => {
                let table =
                    current
                        .top()
                        .extend_unchecked(*key, Rc::from(args.as_slice()), &AbsIntOrder);
                let want: Option<ScViolation> =
                    table.get(key).expect("just extended").seq.check().err();
                let got = current.table.push_unchecked(*key, args, &AbsIntOrder);
                prop_assert_eq!(got, want, "unchecked verdict at step {}", step);
                current.spec.push(table);
            }
            Op::Return => {
                if current.spec.len() > 1 {
                    current.spec.pop();
                    current.table.pop();
                }
            }
            Op::Enter => saved.push(std::mem::replace(&mut current, Extent::fresh())),
            Op::Leave => {
                if current.spec.len() == 1 {
                    if let Some(outer) = saved.pop() {
                        prop_assert!(current.table.is_empty());
                        current = outer;
                    }
                }
            }
        }
        prop_assert_eq!(current.table.depth(), current.spec.len() - 1);
        prop_assert_eq!(current.table.is_empty(), current.top().is_empty());
        for key in 0..KEYS {
            let got = current.table.get(&key);
            let want = current.top().get(&key);
            prop_assert_eq!(
                got.is_some(),
                want.is_some(),
                "key {} at step {}",
                key,
                step
            );
            if let (Some(got), Some(want)) = (got, want) {
                prop_assert_eq!(got.last_args, &want.last_args[..]);
                prop_assert_eq!(got.seq.len(), want.seq.len());
                prop_assert_eq!(got.seq.composite_ids(), want.seq.composite_ids());
            }
        }
    }
    Ok(rejected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn monitor_stack_matches_a_stack_of_persistent_tables(
        ops in proptest::collection::vec(op_strategy(), 0..60)
    ) {
        run(&ops)?;
    }
}

#[test]
fn a_rejected_call_then_returns_and_extents_agree() {
    // f(3) f(2) g(1) rejected f(2), then returns back past g and f(2);
    // a fresh extent in between sees none of it; after leaving it, f(1)
    // descends from f(3) again.
    let ops = [
        Op::Call(0, vec![3]),
        Op::Call(0, vec![2]),
        Op::Call(1, vec![1, 1]),
        Op::Call(0, vec![2]),
        Op::Return,
        Op::Enter,
        Op::Call(0, vec![3]),
        Op::Call(0, vec![3]),
        Op::Return,
        Op::Leave,
        Op::Return,
        Op::Call(0, vec![1]),
        Op::Return,
        Op::Return,
        Op::Return,
    ];
    assert_eq!(run(&ops).expect("table agrees with the spec"), 2);
}
