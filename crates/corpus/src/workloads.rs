//! The Figure-10 workloads: factorial, sum, and merge-sort — run directly
//! and inside the Scheme interpreter — with size-parameterized inputs.
//!
//! The paper's figure sweeps input size on the x axis and compares three
//! configurations: unchecked, continuation-mark monitoring, imperative
//! monitoring. The shapes it demonstrates:
//!
//! * `factorial` does significant (bignum) work between calls → negligible
//!   monitoring overhead;
//! * `sum` does almost no work per call → large overhead, especially for
//!   the persistent-table (continuation-mark) strategy in tight loops;
//! * `merge-sort` carries large data structures in its arguments → the
//!   monitor's pairwise order checks dominate;
//! * the interpreted versions pay the interpreter's own monitored calls.

use crate::scheme_interp;
use crate::{OrderSpec, PlanDomain};
use sct_bignum::Int;
use sct_interp::Value;

/// One Figure-10 workload.
pub struct Workload {
    /// Row id, e.g. `"sum"` or `"interp-msort"`.
    pub id: &'static str,
    /// Human-readable label as in the figure.
    pub label: &'static str,
    /// λSCT source defining the entry function.
    pub source: String,
    /// Name of the entry function to apply.
    pub entry: &'static str,
    /// The order the monitor should use.
    pub order: OrderSpec,
    /// Builds the argument vector for a given input size.
    pub make_args: fn(u64) -> Vec<Value>,
    /// Checks the result for a given input size.
    pub check: fn(u64, &Value) -> bool,
    /// Declared verification signature of the entry — one [`PlanDomain`] per
    /// parameter plus the result domain — used by the hybrid bench column
    /// to pin the static pre-pass instead of the automatic domain ladder.
    /// `None` leaves the ladder in charge (interpreted workloads, whose
    /// meta-circular loops the verifier cannot discharge anyway).
    pub sig: Option<(&'static [PlanDomain], PlanDomain)>,
}

/// Deterministic pseudo-random generator (LCG) for workload inputs.
pub struct Lcg {
    state: u64,
}

impl Lcg {
    /// Creates a generator with a fixed seed.
    pub fn new(seed: u64) -> Lcg {
        Lcg {
            state: seed
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493),
        }
    }

    /// Next pseudo-random value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.state >> 11
    }
}

/// Direct factorial (non-tail; bignum multiplication between calls).
pub const FACT_SRC: &str = "
(define (fact n) (if (zero? n) 1 (* n (fact (- n 1)))))";

/// Direct sum (tail-recursive; almost no work per call).
pub const SUM_SRC: &str = "
(define (sum i acc) (if (zero? i) acc (sum (- i 1) (+ acc i))))";

/// Ackermann (Figure 1's running example): deep non-tail self-recursion
/// with almost no work per call — the most monitor-intensive loop shape,
/// since every call re-enters the same closure's dynamic extent.
pub const ACK_SRC: &str = "
(define (ack m n)
  (cond [(zero? m) (+ n 1)]
        [(zero? n) (ack (- m 1) 1)]
        [else (ack (- m 1) (ack m (- n 1)))]))";

/// Direct merge-sort threading explicit lengths so descent is on integers
/// (a list produced by `take-n` is not a subterm of its input; see
/// "Value orders" in `docs/ARCHITECTURE.md`).
pub const MSORT_SRC: &str = "
(define (take-n l k) (if (zero? k) '() (cons (car l) (take-n (cdr l) (- k 1)))))
(define (drop-n l k) (if (zero? k) l (drop-n (cdr l) (- k 1))))
(define (merge xs ys)
  (cond [(null? xs) ys]
        [(null? ys) xs]
        [(< (car xs) (car ys)) (cons (car xs) (merge (cdr xs) ys))]
        [else (cons (car ys) (merge xs (cdr ys)))]))
(define (msort-run l n)
  (if (< n 2)
      l
      (merge (msort-run (take-n l (quotient n 2)) (quotient n 2))
             (msort-run (drop-n l (quotient n 2)) (- n (quotient n 2))))))
(define (msort l) (msort-run l (length l)))";

fn int_arg(n: u64) -> Vec<Value> {
    vec![Value::int(n as i64)]
}

fn sum_args(n: u64) -> Vec<Value> {
    vec![Value::int(n as i64), Value::int(0)]
}

fn ack_args(n: u64) -> Vec<Value> {
    vec![Value::int(2), Value::int(n as i64)]
}

fn check_ack(n: u64, v: &Value) -> bool {
    // ack(2, n) = 2n + 3.
    let Some(got) = v.to_int() else { return false };
    got == Int::from(2 * n as i64 + 3)
}

fn random_int_list(n: u64) -> Value {
    let mut lcg = Lcg::new(n ^ 0x5c17);
    Value::list(
        (0..n)
            .map(|_| Value::int((lcg.next_u64() % 100_000) as i64))
            .collect::<Vec<_>>(),
    )
}

fn msort_args(n: u64) -> Vec<Value> {
    vec![random_int_list(n)]
}

/// A balanced binary tree of `n` pseudo-random lowercase strings, as the
/// interpreted merge-sort expects.
pub fn random_string_tree(n: u64) -> Value {
    fn string_of(x: u64) -> Value {
        let mut s = String::new();
        let mut v = x;
        for _ in 0..6 {
            s.push((b'a' + (v % 26) as u8) as char);
            v /= 26;
        }
        Value::str(s)
    }
    fn build(items: &[Value]) -> Value {
        match items.len() {
            0 => Value::str("only"),
            1 => items[0].clone(),
            len => {
                let mid = len / 2;
                Value::cons(build(&items[..mid]), build(&items[mid..]))
            }
        }
    }
    let mut lcg = Lcg::new(n ^ 0x7ee5);
    let items: Vec<Value> = (0..n.max(1)).map(|_| string_of(lcg.next_u64())).collect();
    build(&items)
}

fn tree_args(n: u64) -> Vec<Value> {
    vec![random_string_tree(n)]
}

fn check_fact(n: u64, v: &Value) -> bool {
    let Some(got) = v.to_int() else { return false };
    let mut expect = Int::one();
    for i in 1..=n as i64 {
        expect = &expect * &Int::from(i);
    }
    got == expect
}

fn check_sum(n: u64, v: &Value) -> bool {
    let Some(got) = v.to_int() else { return false };
    let n = n as i64;
    got == Int::from(n * (n + 1) / 2)
}

fn check_sorted_ints(n: u64, v: &Value) -> bool {
    let Some(items) = v.list_to_vec() else {
        return false;
    };
    if items.len() != n as usize {
        return false;
    }
    items.windows(2).all(|w| match (&w[0], &w[1]) {
        (Value::Fix(a), Value::Fix(b)) => a <= b,
        (a, b) => match (a.to_int(), b.to_int()) {
            (Some(a), Some(b)) => a <= b,
            _ => false,
        },
    })
}

fn check_sorted_strings(n: u64, v: &Value) -> bool {
    let Some(items) = v.list_to_vec() else {
        return false;
    };
    if items.len() != n.max(1) as usize {
        return false;
    }
    items.windows(2).all(|w| match (&w[0], &w[1]) {
        (Value::Str(a), Value::Str(b)) => a <= b,
        _ => false,
    })
}

/// The Figure-10 workloads in the figure's order, plus Ackermann (the
/// paper's §2.1 running example) as the loop-heaviest monitored case.
pub fn fig10() -> Vec<Workload> {
    vec![
        Workload {
            id: "fact",
            label: "Factorial",
            source: FACT_SRC.to_string(),
            entry: "fact",
            order: OrderSpec::Default,
            make_args: int_arg,
            check: check_fact,
            sig: Some((&[PlanDomain::Nat], PlanDomain::Any)),
        },
        Workload {
            id: "sum",
            label: "Sum",
            source: SUM_SRC.to_string(),
            entry: "sum",
            order: OrderSpec::Default,
            make_args: sum_args,
            check: check_sum,
            sig: Some((&[PlanDomain::Nat, PlanDomain::Nat], PlanDomain::Any)),
        },
        Workload {
            id: "ack",
            label: "Ackermann",
            source: ACK_SRC.to_string(),
            entry: "ack",
            order: OrderSpec::Default,
            make_args: ack_args,
            check: check_ack,
            sig: Some((&[PlanDomain::Nat, PlanDomain::Nat], PlanDomain::Nat)),
        },
        Workload {
            id: "msort",
            label: "Merge-sort",
            source: MSORT_SRC.to_string(),
            entry: "msort",
            order: OrderSpec::Default,
            make_args: msort_args,
            check: check_sorted_ints,
            sig: Some((&[PlanDomain::List], PlanDomain::List)),
        },
        Workload {
            id: "interp-fact",
            label: "Interpreted Factorial",
            source: scheme_interp::compose(scheme_interp::TARGET_FACT).to_string(),
            entry: "go",
            order: OrderSpec::Extended,
            make_args: int_arg,
            check: check_fact,
            sig: None,
        },
        Workload {
            id: "interp-sum",
            label: "Interpreted Sum",
            source: scheme_interp::compose(scheme_interp::TARGET_SUM).to_string(),
            entry: "go",
            order: OrderSpec::Extended,
            make_args: int_arg,
            check: |n, v| {
                let Some(got) = v.to_int() else { return false };
                let n = n as i64;
                got == Int::from(n * (n + 1) / 2)
            },
            sig: None,
        },
        Workload {
            id: "interp-msort",
            label: "Interpreted Merge-sort",
            source: scheme_interp::compose(scheme_interp::TARGET_MSORT).to_string(),
            entry: "go",
            order: OrderSpec::Extended,
            make_args: tree_args,
            check: check_sorted_strings,
            sig: None,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use sct_core::monitor::TableStrategy;
    use sct_interp::{Machine, MachineConfig, SemanticsMode};
    use sct_lang::compile_program;

    fn run(w: &Workload, n: u64, mode: SemanticsMode, strategy: TableStrategy) -> Value {
        let prog = compile_program(&w.source)
            .unwrap_or_else(|e| panic!("workload {} failed to compile: {e}", w.id));
        let config = MachineConfig {
            mode,
            order: w.order.handle(),
            ..MachineConfig::monitored(strategy)
        };
        let mut m = Machine::new(&prog, config);
        m.run()
            .unwrap_or_else(|e| panic!("{}: program body failed: {e}", w.id));
        let f = m
            .global(w.entry)
            .unwrap_or_else(|| panic!("{}: no entry {}", w.id, w.entry));
        m.call(f, (w.make_args)(n))
            .unwrap_or_else(|e| panic!("{} (n={n}, {mode:?}, {strategy:?}): {e}", w.id))
    }

    #[test]
    fn workloads_run_unchecked() {
        for w in fig10() {
            let n = 12;
            let v = run(&w, n, SemanticsMode::Standard, TableStrategy::Imperative);
            assert!(
                (w.check)(n, &v),
                "{} produced {}",
                w.id,
                v.to_write_string()
            );
        }
    }

    #[test]
    fn workloads_run_monitored_imperative() {
        for w in fig10() {
            let n = 12;
            let v = run(&w, n, SemanticsMode::Monitored, TableStrategy::Imperative);
            assert!(
                (w.check)(n, &v),
                "{} produced {}",
                w.id,
                v.to_write_string()
            );
        }
    }

    #[test]
    fn workloads_run_monitored_cm() {
        for w in fig10() {
            let n = 12;
            let v = run(
                &w,
                n,
                SemanticsMode::Monitored,
                TableStrategy::ContinuationMark,
            );
            assert!(
                (w.check)(n, &v),
                "{} produced {}",
                w.id,
                v.to_write_string()
            );
        }
    }

    #[test]
    fn tree_builder_is_deterministic() {
        let a = random_string_tree(16);
        let b = random_string_tree(16);
        assert!(sct_interp::equal(&a, &b));
    }
}
