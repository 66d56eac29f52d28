//! Program generation with verdicts known *by construction*.
//!
//! Two generators live here:
//!
//! * [`ExprGen`] — the free-form well-formed-program generator the
//!   differential oracle sweep (`tests/oracle.rs`) has always used. Its
//!   programs exercise the compilation corners (assignment conversion,
//!   cell captures, slot reuse, variadics, `apply`, `terminating/c`
//!   extents) and carry no termination oracle beyond "monitoring
//!   terminates it" (Theorem 3.1).
//!
//! * [`gen_case`] — the fuzzer's *schema* generator: structurally
//!   descending recursion schemas (nat, accumulator, list, tree, mutual,
//!   higher-order combinators, megamorphic combinator towers) that
//!   terminate by construction, optionally
//!   transformed by one [`Mutation`] with a declared
//!   effect. The resulting [`GenCase`] carries an [`Oracle`]: either
//!   *terminating* or *diverging with blame inside a known define group,
//!   at a known label*.
//!
//! Schema design rules that keep the oracles honest:
//!
//! * Terminating instances must be **monitor-clean**, not merely
//!   terminating: every observed nested call sequence must descend under
//!   the default order (which compares integers by absolute value), or
//!   the monitor would be *right* to blame them. A descent step of `D`
//!   therefore pairs with a base guard `(< n D)` so values never leave
//!   the naturals.
//! * Descent-breaking mutations apply to **every** recursive call / base
//!   case of the target's strongly connected group — breaking only one
//!   call of a mutual pair still terminates through the other.
//! * Base-dropping and guard-unsatisfying mutations are restricted to
//!   numeric-domain schemas: on a list schema, dropping the base case
//!   produces `errorRT` (`cdr` of `'()`), not divergence.
//! * The diverging target's entry call is emitted *last*, so every other
//!   instance completes first and blame falls inside the target group.

use sct_corpus::workloads::Lcg;

/// Seeded PRNG for the schema generator, wrapping the corpus [`Lcg`] so
/// every case reproduces from its `u64` seed.
pub struct Rng {
    lcg: Lcg,
}

impl Rng {
    /// A generator seeded deterministically.
    pub fn new(seed: u64) -> Rng {
        Rng {
            lcg: Lcg::new(seed),
        }
    }

    /// Uniform-ish draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.lcg.next_u64() % n
    }

    /// True with probability `num/den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// One element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }

    /// Shuffles `xs` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

// ---------------------------------------------------------------------
// The free-form generator shared with the differential oracle sweep.
// ---------------------------------------------------------------------

/// Random well-formed λSCT program generator. Driven by the corpus LCG so
/// every case reproduces from its seed. The grammar deliberately leans on
/// the constructs whose compilation is subtle: captured-and-mutated
/// locals (assignment conversion), `letrec` closures (cell captures),
/// shadowing `let`s (slot reuse), variadic lambdas, `apply`, first-class
/// lambdas flowing to helpers (generic call sites), and `terminating/c`
/// extents (blame + table seeding). Generated programs are terminating
/// under full monitoring (Theorem 3.1) but carry no constructed verdict;
/// for verdict-bearing programs use [`gen_case`].
pub struct ExprGen {
    rng: Lcg,
    fresh: u32,
}

impl ExprGen {
    /// A generator seeded deterministically.
    pub fn new(seed: u64) -> ExprGen {
        ExprGen {
            rng: Lcg::new(seed),
            fresh: 0,
        }
    }

    fn pick(&mut self, n: u64) -> u64 {
        self.rng.next_u64() % n
    }

    fn fresh_var(&mut self) -> String {
        self.fresh += 1;
        format!("v{}", self.fresh)
    }

    /// An atomic expression over the variables in scope.
    pub fn atom(&mut self, scope: &[String], globals: &[String]) -> String {
        match self.pick(6) {
            0 | 1 if !scope.is_empty() => {
                let i = self.pick(scope.len() as u64) as usize;
                scope[i].clone()
            }
            2 if !globals.is_empty() => {
                let i = self.pick(globals.len() as u64) as usize;
                globals[i].clone()
            }
            3 => "'()".to_string(),
            4 => format!("{}", self.pick(5)),
            _ => format!("{}", self.pick(3) + 1),
        }
    }

    /// An expression of bounded depth over the variables in scope.
    pub fn expr(&mut self, depth: u32, scope: &[String], globals: &[String]) -> String {
        if depth == 0 {
            return self.atom(scope, globals);
        }
        let d = depth - 1;
        match self.pick(14) {
            0 => {
                let a = self.expr(d, scope, globals);
                let b = self.expr(d, scope, globals);
                let op = ["+", "-", "*"][self.pick(3) as usize];
                format!("({op} {a} {b})")
            }
            1 => {
                let a = self.expr(d, scope, globals);
                let b = self.expr(d, scope, globals);
                format!("(cons {a} {b})")
            }
            2 => {
                // May be a run-time type error on non-pairs: both machines
                // must produce the identical errorRT.
                let a = self.expr(d, scope, globals);
                let op = ["car", "cdr"][self.pick(2) as usize];
                format!("({op} {a})")
            }
            3 => {
                let c = self.expr(d, scope, globals);
                let t = self.expr(d, scope, globals);
                let e = self.expr(d, scope, globals);
                let p = ["zero?", "null?", "pair?"][self.pick(3) as usize];
                format!("(if ({p} {c}) {t} {e})")
            }
            4 => {
                // let with shadow-prone bindings (slot reuse on the VM).
                let x = self.fresh_var();
                let y = self.fresh_var();
                let ix = self.expr(d, scope, globals);
                let iy = self.expr(d, scope, globals);
                let mut inner = scope.to_vec();
                inner.push(x.clone());
                inner.push(y.clone());
                let body = self.expr(d, &inner, globals);
                format!("(let ([{x} {ix}] [{y} {iy}]) {body})")
            }
            5 => {
                // Immediately applied lambda capturing the scope.
                let v = self.fresh_var();
                let arg = self.expr(d, scope, globals);
                let mut inner = scope.to_vec();
                inner.push(v.clone());
                let body = self.expr(d, &inner, globals);
                format!("((lambda ({v}) {body}) {arg})")
            }
            6 => {
                // Mutated captured binding: assignment conversion.
                let x = self.fresh_var();
                let init = self.expr(d, scope, globals);
                let mut inner = scope.to_vec();
                inner.push(x.clone());
                let delta = self.expr(d, &inner, globals);
                let body = self.expr(d, &inner, globals);
                format!("(let ([{x} {init}]) (begin ((lambda () (set! {x} {delta}))) {body}))")
            }
            7 => {
                // letrec with a self-recursive, structurally descending
                // loop (cell capture; monitored but terminating).
                let f = self.fresh_var();
                let n = self.fresh_var();
                let mut inner = scope.to_vec();
                inner.push(n.clone());
                let base = self.expr(d, &inner, globals);
                let acc = self.expr(d, &inner, globals);
                let arg = self.pick(4) + 1;
                format!(
                    "(letrec ([{f} (lambda ({n}) (if (zero? {n}) {base} (+ {acc} ({f} (- {n} 1)))))]) ({f} {arg}))"
                )
            }
            8 => {
                let parts: Vec<String> = (0..=self.pick(2) + 1)
                    .map(|_| self.expr(d, scope, globals))
                    .collect();
                format!("(begin {})", parts.join(" "))
            }
            9 => {
                // Variadic lambda + rest list.
                let v = self.fresh_var();
                let args: Vec<String> = (0..self.pick(3))
                    .map(|_| self.expr(d, scope, globals))
                    .collect();
                format!("((lambda {v} (length {v})) {})", args.join(" "))
            }
            10 => {
                // apply with a constructed argument list.
                let a = self.expr(d, scope, globals);
                let b = self.expr(d, scope, globals);
                format!("(apply + (list {a} {b}))")
            }
            11 if !globals.is_empty() => {
                // Call a previously defined global (specialized site).
                let g = &globals[self.pick(globals.len() as u64) as usize];
                let a = self.expr(d, scope, globals);
                format!("({g} {a})")
            }
            12 => {
                // terminating/c extent around a closure, applied once.
                let v = self.fresh_var();
                let mut inner = scope.to_vec();
                inner.push(v.clone());
                let body = self.expr(d, &inner, globals);
                let arg = self.expr(d, scope, globals);
                format!("((terminating/c (lambda ({v}) {body})) {arg})")
            }
            _ => self.atom(scope, globals),
        }
    }

    /// A whole program: helper defines (arity 1, descending recursion with
    /// a generated base/step so they are callable from later code), then
    /// one top-level expression.
    pub fn program(&mut self, seed_tag: u64) -> String {
        let mut globals: Vec<String> = Vec::new();
        let mut out = String::new();
        let defines = self.pick(3);
        for i in 0..defines {
            let name = format!("g{seed_tag}_{i}");
            let param = self.fresh_var();
            let scope = vec![param.clone()];
            let base = self.expr(1, &scope, &globals);
            let step = self.expr(2, &scope, &globals);
            out.push_str(&format!(
                "(define ({name} {param}) (if (zero? {param}) {base} (+ {step} ({name} (- {param} 1)))))\n"
            ));
            globals.push(name);
        }
        let body = self.expr(3, &[], &globals);
        out.push_str(&body);
        out
    }
}

// ---------------------------------------------------------------------
// Schema generator: programs with a constructed termination oracle.
// ---------------------------------------------------------------------

use crate::mutate::Mutation;

/// The structurally descending recursion schemas the generator emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaKind {
    /// Single-parameter descent on a natural number.
    Nat,
    /// Accumulator-passing: one descending parameter, one growing.
    Acc,
    /// `cdr`-descent on a list (plain recursion or a fold combinator).
    List,
    /// Binary `car`/`cdr` recursion on a pair tree with integer leaves.
    Tree,
    /// A mutually recursive pair, each forwarding to the other.
    Mutual,
    /// A higher-order iterate combinator threading a function argument.
    HigherOrder,
    /// A megamorphic combinator tower: one first-class call site driven
    /// by 3–6 distinct step globals (rebound mid-run under
    /// [`Mutation::SetRebind`]).
    Mega,
}

impl SchemaKind {
    /// Every schema, in the order the summary line reports them.
    pub const ALL: [SchemaKind; 7] = [
        SchemaKind::Nat,
        SchemaKind::Acc,
        SchemaKind::List,
        SchemaKind::Tree,
        SchemaKind::Mutual,
        SchemaKind::HigherOrder,
        SchemaKind::Mega,
    ];

    /// Stable name used in summaries and reports.
    pub fn name(self) -> &'static str {
        match self {
            SchemaKind::Nat => "nat",
            SchemaKind::Acc => "acc",
            SchemaKind::List => "list",
            SchemaKind::Tree => "tree",
            SchemaKind::Mutual => "mutual",
            SchemaKind::HigherOrder => "higher-order",
            SchemaKind::Mega => "mega",
        }
    }
}

/// The constructed termination verdict of a generated case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Oracle {
    /// Every instance descends structurally: the program terminates and a
    /// monitored run never blames.
    Terminating,
    /// The mutated target diverges: a monitored run must blame one of the
    /// `group` defines, at exactly `label` (the target's `terminating/c`
    /// party, or `None` when it is unwrapped).
    Diverging {
        /// The define names of the broken recursion group.
        group: Vec<String>,
        /// The blame label the monitor must report.
        label: Option<String>,
    },
}

/// One generated program plus everything the harness needs to judge it.
#[derive(Debug, Clone)]
pub struct GenCase {
    /// Seed this case reproduces from (`gen_case(seed)`).
    pub seed: u64,
    /// Program text.
    pub source: String,
    /// Schema of the mutation target.
    pub schema: SchemaKind,
    /// The mutation applied to the target (possibly [`Mutation::None`]).
    pub mutation: Mutation,
    /// The constructed verdict.
    pub oracle: Oracle,
}

/// One emitted schema instance.
struct Instance {
    /// The `define` form(s), newline-terminated.
    defines: String,
    /// Names of the defines (the blame group when this is the target).
    names: Vec<String>,
    /// The entry call exercising the instance.
    entry: String,
    /// `terminating/c` blame party, when the instance is wrapped.
    label: Option<String>,
}

/// Renders one function definition, optionally under a `terminating/c`
/// wrapper carrying `label`.
fn define_fn(name: &str, params: &[String], body: &str, label: &Option<String>) -> String {
    let params = params.join(" ");
    match label {
        Some(l) => format!("(define {name} (terminating/c (lambda ({params}) {body}) \"{l}\"))\n"),
        None => format!("(define ({name} {params}) {body})\n"),
    }
}

/// Half the instances get a `terminating/c` wrapper, so blame labels flow
/// through the whole lattice (plan blame, eager refutation, dynamic blame).
fn maybe_label(rng: &mut Rng, idx: usize) -> Option<String> {
    rng.chance(1, 2).then(|| format!("party-{idx}"))
}

/// A small arithmetic expression over `scope` — pure, call-free, and
/// closed under integers, so decorating bases/steps with it can never
/// disturb the call sequences the monitor observes.
fn num_expr(rng: &mut Rng, depth: u32, scope: &[&str]) -> String {
    if depth == 0 || rng.chance(1, 3) {
        return num_atom(rng, scope);
    }
    let op = *rng.pick(&["+", "-", "*"]);
    let a = num_expr(rng, depth - 1, scope);
    let b = num_expr(rng, depth - 1, scope);
    format!("({op} {a} {b})")
}

fn num_atom(rng: &mut Rng, scope: &[&str]) -> String {
    if !scope.is_empty() && rng.chance(1, 2) {
        rng.pick(scope).to_string()
    } else {
        rng.below(10).to_string()
    }
}

/// The base-case guard for a descent of `d` on parameter `n`:
/// `(< n d)` keeps every reachable value a natural (descending by `d`
/// from an in-domain entry can never overshoot into negatives, where the
/// absolute-value order would stop descending). [`Mutation::UnsatGuard`]
/// replaces it with a predicate no integer satisfies.
fn nat_guard(rng: &mut Rng, n: &str, d: u64, m: Mutation) -> String {
    match m {
        Mutation::UnsatGuard => format!("(pair? {n})"),
        _ if d == 1 && rng.chance(1, 2) => format!("(zero? {n})"),
        _ => format!("(< {n} {d})"),
    }
}

/// Entry argument for a descent of `d`: strictly above the guard, so a
/// descent-broken variant can never satisfy the base case on entry.
fn nat_entry(rng: &mut Rng, d: u64) -> u64 {
    d + 1 + rng.below(9)
}

/// Wraps `body` in a dead conditional whose taken branch is statically
/// false — the junk branch re-enters the recursion *without* descending,
/// so any layer that treated dead code as live would break the verdict.
fn dead_branch(rng: &mut Rng, self_call: &str, body: String) -> String {
    format!("(if (pair? {}) {} {})", rng.below(7), self_call, body)
}

/// Eta-expands a recursive call: `(f a…)` becomes
/// `((lambda (e…) (f e…)) a…)`. The intermediate λ participates in the
/// monitored call sequence; descent must survive the extra hop.
fn eta(name: &str, idx: usize, args: &[String]) -> String {
    let formals: Vec<String> = (0..args.len()).map(|i| format!("e{idx}_{i}")).collect();
    format!(
        "((lambda ({}) ({name} {})) {})",
        formals.join(" "),
        formals.join(" "),
        args.join(" ")
    )
}

/// A recursive call under the target mutation: `SwapArgSelf` replaces the
/// descending argument (at `desc_at`) with the unchanged parameter,
/// `EtaExpand` routes the call through an intermediate λ.
fn rec_call(
    name: &str,
    idx: usize,
    args: &[String],
    desc_param: &str,
    desc_at: usize,
    m: Mutation,
) -> String {
    let mut args = args.to_vec();
    if m == Mutation::SwapArgSelf {
        args[desc_at] = desc_param.to_string();
    }
    if m == Mutation::EtaExpand {
        eta(name, idx, &args)
    } else {
        format!("({name} {})", args.join(" "))
    }
}

fn emit_nat(rng: &mut Rng, idx: usize, m: Mutation) -> Instance {
    let mut name = format!("nat{idx}");
    if m == Mutation::Rename {
        name.push('r');
    }
    let n = format!("n{idx}");
    let d = 1 + rng.below(3);
    let guard = nat_guard(rng, &n, d, m);
    let base = num_expr(rng, 1, &[&n]);
    let step = num_expr(rng, 1, &[&n]);
    let rec = rec_call(&name, idx, &[format!("(- {n} {d})")], &n, 0, m);
    let recur = format!("({} {step} {rec})", *rng.pick(&["+", "*"]));
    let mut body = if m == Mutation::DropBase {
        recur
    } else {
        format!("(if {guard} {base} {recur})")
    };
    if m == Mutation::DeadBranch {
        body = dead_branch(rng, &format!("({name} {n})"), body);
    }
    let label = maybe_label(rng, idx);
    let entry = format!("({name} {})", nat_entry(rng, d));
    Instance {
        defines: define_fn(&name, &[n], &body, &label),
        names: vec![name],
        entry,
        label,
    }
}

fn emit_acc(rng: &mut Rng, idx: usize, m: Mutation) -> Instance {
    let mut name = format!("acc{idx}");
    if m == Mutation::Rename {
        name.push('r');
    }
    let n = format!("n{idx}");
    let a = format!("a{idx}");
    let d = 1 + rng.below(3);
    let guard = nat_guard(rng, &n, d, m);
    let base = if rng.chance(1, 2) {
        a.clone()
    } else {
        format!("(+ {a} {})", rng.below(10))
    };
    let delta = num_expr(rng, 1, &[&n]);
    // Argument permutation swaps the parameter order *and* every call
    // site (recursive and entry), so the descent position moves with it.
    let perm: [usize; 2] = if m == Mutation::PermuteArgs {
        [1, 0]
    } else {
        [0, 1]
    };
    let params_src = [n.clone(), a.clone()];
    let params: Vec<String> = perm.iter().map(|&i| params_src[i].clone()).collect();
    let args_src = [format!("(- {n} {d})"), format!("(+ {a} {delta})")];
    let args: Vec<String> = perm.iter().map(|&i| args_src[i].clone()).collect();
    let desc_at = perm.iter().position(|&i| i == 0).unwrap();
    let rec = rec_call(&name, idx, &args, &n, desc_at, m);
    let mut body = if m == Mutation::DropBase {
        rec.clone()
    } else {
        format!("(if {guard} {base} {rec})")
    };
    if m == Mutation::DeadBranch {
        body = dead_branch(rng, &format!("({name} {})", params.join(" ")), body);
    }
    let label = maybe_label(rng, idx);
    let entry_src = [nat_entry(rng, d).to_string(), rng.below(10).to_string()];
    let entry_args: Vec<String> = perm.iter().map(|&i| entry_src[i].clone()).collect();
    let entry = format!("({name} {})", entry_args.join(" "));
    Instance {
        defines: define_fn(&name, &params, &body, &label),
        names: vec![name],
        entry,
        label,
    }
}

/// A literal list of small integers, `(len ≥ 1)`.
fn list_literal(rng: &mut Rng) -> String {
    let len = 1 + rng.below(6);
    let items: Vec<String> = (0..len).map(|_| rng.below(100).to_string()).collect();
    format!("(list {})", items.join(" "))
}

fn emit_list(rng: &mut Rng, idx: usize, m: Mutation) -> Instance {
    let mut name = format!("lst{idx}");
    if m == Mutation::Rename {
        name.push('r');
    }
    let l = format!("l{idx}");
    let label = maybe_label(rng, idx);
    if rng.chance(1, 2) {
        // Plain cdr-descent: sum-like fold written recursively.
        let car = format!("(car {l})");
        let base = rng.below(10).to_string();
        let step = num_expr(rng, 1, &[&car]);
        let rec = rec_call(&name, idx, &[format!("(cdr {l})")], &l, 0, m);
        let mut body = format!("(if (null? {l}) {base} (+ {step} {rec}))");
        if m == Mutation::DeadBranch {
            body = dead_branch(rng, &format!("({name} {l})"), body);
        }
        let entry = format!("({name} {})", list_literal(rng));
        Instance {
            defines: define_fn(&name, &[l], &body, &label),
            names: vec![name],
            entry,
            label,
        }
    } else {
        // Fold combinator: a function argument threaded through the
        // descent — the higher-order shape over lists.
        let f = format!("f{idx}");
        let a = format!("a{idx}");
        let args = vec![
            f.clone(),
            format!("({f} {a} (car {l}))"),
            format!("(cdr {l})"),
        ];
        let rec = rec_call(&name, idx, &args, &l, 2, m);
        let mut body = format!("(if (null? {l}) {a} {rec})");
        if m == Mutation::DeadBranch {
            body = dead_branch(rng, &format!("({name} {f} {a} {l})"), body);
        }
        let op = *rng.pick(&["+", "*", "max"]);
        let entry = format!(
            "({name} (lambda (p{idx} q{idx}) ({op} p{idx} q{idx})) {} {})",
            rng.below(10),
            list_literal(rng)
        );
        Instance {
            defines: define_fn(&name, &[f, a, l], &body, &label),
            names: vec![name],
            entry,
            label,
        }
    }
}

/// A pair tree with integer leaves; the root is always a pair so a
/// descent-broken variant recurs at least once.
fn tree_literal(rng: &mut Rng, depth: u32) -> String {
    if depth == 0 || rng.chance(1, 3) {
        rng.below(10).to_string()
    } else {
        format!(
            "(cons {} {})",
            tree_literal(rng, depth - 1),
            tree_literal(rng, depth - 1)
        )
    }
}

fn emit_tree(rng: &mut Rng, idx: usize, m: Mutation) -> Instance {
    let mut name = format!("tre{idx}");
    if m == Mutation::Rename {
        name.push('r');
    }
    let t = format!("t{idx}");
    let leaf = num_expr(rng, 1, &[&t]);
    let left = rec_call(&name, idx, &[format!("(car {t})")], &t, 0, m);
    let right = rec_call(&name, idx, &[format!("(cdr {t})")], &t, 0, m);
    let mut body = format!("(if (pair? {t}) (+ {left} {right}) {leaf})");
    if m == Mutation::DeadBranch {
        body = dead_branch(rng, &format!("({name} {t})"), body);
    }
    let label = maybe_label(rng, idx);
    let depth = 2 + rng.below(2) as u32;
    let entry = format!(
        "({name} (cons {} {}))",
        tree_literal(rng, depth),
        tree_literal(rng, depth)
    );
    Instance {
        defines: define_fn(&name, &[t], &body, &label),
        names: vec![name],
        entry,
        label,
    }
}

fn emit_mutual(rng: &mut Rng, idx: usize, m: Mutation) -> Instance {
    let suffix = if m == Mutation::Rename { "r" } else { "" };
    let ev = format!("ev{idx}{suffix}");
    let od = format!("od{idx}{suffix}");
    let n = format!("n{idx}");
    // Descent-breaking mutations hit *both* halves of the cycle: breaking
    // only one still terminates through the other's decrement.
    let guard_ev = nat_guard(rng, &n, 1, m);
    let guard_od = nat_guard(rng, &n, 1, m);
    let base_ev = rng.below(10).to_string();
    let base_od = num_expr(rng, 1, &[&n]);
    let call_od = rec_call(&od, idx, &[format!("(- {n} 1)")], &n, 0, m);
    let call_ev = {
        // Only the head's forwarding call is eta-expanded; the cycle must
        // still descend through the extra λ.
        let m_back = if m == Mutation::EtaExpand {
            Mutation::None
        } else {
            m
        };
        rec_call(&ev, idx, &[format!("(- {n} 1)")], &n, 0, m_back)
    };
    let mut body_ev = if m == Mutation::DropBase {
        call_od.clone()
    } else {
        format!("(if {guard_ev} {base_ev} {call_od})")
    };
    let body_od = if m == Mutation::DropBase {
        format!("(+ 1 {call_ev})")
    } else {
        format!("(if {guard_od} {base_od} (+ 1 {call_ev}))")
    };
    if m == Mutation::DeadBranch {
        body_ev = dead_branch(rng, &format!("({ev} {n})"), body_ev);
    }
    let label = maybe_label(rng, idx);
    let defines = format!(
        "{}{}",
        define_fn(&ev, std::slice::from_ref(&n), &body_ev, &label),
        define_fn(&od, &[n], &body_od, &label)
    );
    let entry = format!("({ev} {})", 1 + rng.below(10));
    Instance {
        defines,
        names: vec![ev, od],
        entry,
        label,
    }
}

fn emit_higher_order(rng: &mut Rng, idx: usize, m: Mutation) -> Instance {
    let mut name = format!("ho{idx}");
    if m == Mutation::Rename {
        name.push('r');
    }
    let f = format!("f{idx}");
    let n = format!("n{idx}");
    let x = format!("x{idx}");
    let d = 1 + rng.below(2);
    let guard = nat_guard(rng, &n, d, m);
    // The threaded function stays linear so iterated application cannot
    // blow up into huge bignums before a broken variant is blamed.
    let y = format!("y{idx}");
    let fbody = *rng.pick(&["(+ Y 1)", "(+ Y Y)", "(* 2 Y)", "(+ Y 3)"]);
    let fbody = fbody.replace('Y', &y);
    let (fexpr, mut names, mut defines) = if rng.chance(1, 2) {
        (format!("(lambda ({y}) {fbody})"), vec![], String::new())
    } else {
        let h = format!("ho{idx}h");
        (
            h.clone(),
            vec![h.clone()],
            format!("(define ({h} {y}) {fbody})\n"),
        )
    };
    // Argument permutation moves all three parameters consistently across
    // the definition, the recursive call, and the entry call.
    let perm: [usize; 3] = if m == Mutation::PermuteArgs {
        *rng.pick(&[[1, 0, 2], [0, 2, 1], [2, 1, 0], [1, 2, 0], [2, 0, 1]])
    } else {
        [0, 1, 2]
    };
    let params_src = [f.clone(), n.clone(), x.clone()];
    let params: Vec<String> = perm.iter().map(|&i| params_src[i].clone()).collect();
    let args_src = [f.clone(), format!("(- {n} {d})"), format!("({f} {x})")];
    let args: Vec<String> = perm.iter().map(|&i| args_src[i].clone()).collect();
    let desc_at = perm.iter().position(|&i| i == 1).unwrap();
    let rec = rec_call(&name, idx, &args, &n, desc_at, m);
    let mut body = if m == Mutation::DropBase {
        rec.clone()
    } else {
        format!("(if {guard} {x} {rec})")
    };
    if m == Mutation::DeadBranch {
        body = dead_branch(rng, &format!("({name} {})", params.join(" ")), body);
    }
    let label = maybe_label(rng, idx);
    names.push(name.clone());
    defines.push_str(&define_fn(&name, &params, &body, &label));
    let entry_src = [
        fexpr,
        nat_entry(rng, d).to_string(),
        rng.below(10).to_string(),
    ];
    let entry_args: Vec<String> = perm.iter().map(|&i| entry_src[i].clone()).collect();
    let entry = format!("({name} {})", entry_args.join(" "));
    Instance {
        defines,
        names,
        entry,
        label,
    }
}

/// Megamorphic combinator tower: the iterate combinator of
/// [`emit_higher_order`], but driven through **one** first-class `(f x)`
/// site by 3–6 distinct step functions bound to globals — a megamorphic
/// first-class site. Under [`Mutation::SetRebind`] the entry sweeps the
/// tower over every step, `set!`-rebinds one step global to another
/// (both terminate, so the oracle is unchanged), and sweeps again: the
/// site must read the rebound callee's verdict, not the old one's.
fn emit_mega(rng: &mut Rng, idx: usize, m: Mutation) -> Instance {
    let mut name = format!("mega{idx}");
    if m == Mutation::Rename {
        name.push('r');
    }
    let f = format!("f{idx}");
    let n = format!("n{idx}");
    let x = format!("x{idx}");
    let d = 1 + rng.below(2);
    let guard = nat_guard(rng, &n, d, m);
    // Distinct *defines* give distinct λ identities at the dispatch site
    // regardless of body; the linear bodies keep iterated application
    // small and monitor-clean (same rule as the higher-order schema).
    let y = format!("y{idx}");
    let bodies = [
        "(+ Y 1)", "(+ Y 2)", "(+ Y Y)", "(* 2 Y)", "(+ Y 3)", "(* 3 Y)",
    ];
    let k = 3 + rng.below(4) as usize;
    let mut defines = String::new();
    let mut names: Vec<String> = Vec::new();
    let mut steps: Vec<String> = Vec::new();
    for s in 0..k {
        let sname = format!("mega{idx}s{s}");
        let fbody = bodies[s % bodies.len()].replace('Y', &y);
        defines.push_str(&format!("(define ({sname} {y}) {fbody})\n"));
        names.push(sname.clone());
        steps.push(sname);
    }
    let args = vec![f.clone(), format!("(- {n} {d})"), format!("({f} {x})")];
    let rec = rec_call(&name, idx, &args, &n, 1, m);
    let mut body = if m == Mutation::DropBase {
        rec.clone()
    } else {
        format!("(if {guard} {x} {rec})")
    };
    if m == Mutation::DeadBranch {
        body = dead_branch(rng, &format!("({name} {f} {n} {x})"), body);
    }
    let label = maybe_label(rng, idx);
    names.push(name.clone());
    defines.push_str(&define_fn(&name, &[f, n, x], &body, &label));
    // One sweep drives the tower once per step function — k distinct
    // callees through the tower's single `(f x)` site.
    let sweep = |rng: &mut Rng| -> String {
        let calls: Vec<String> = steps
            .iter()
            .map(|s| format!("({name} {s} {} {})", nat_entry(rng, d), rng.below(5)))
            .collect();
        format!("(+ {})", calls.join(" "))
    };
    let entry = if m == Mutation::SetRebind {
        let before = sweep(rng);
        let after = sweep(rng);
        format!("(begin {before} (set! {} {}) {after})", steps[0], steps[1])
    } else {
        sweep(rng)
    };
    Instance {
        defines,
        names,
        entry,
        label,
    }
}

fn emit(kind: SchemaKind, rng: &mut Rng, idx: usize, m: Mutation) -> Instance {
    match kind {
        SchemaKind::Nat => emit_nat(rng, idx, m),
        SchemaKind::Acc => emit_acc(rng, idx, m),
        SchemaKind::List => emit_list(rng, idx, m),
        SchemaKind::Tree => emit_tree(rng, idx, m),
        SchemaKind::Mutual => emit_mutual(rng, idx, m),
        SchemaKind::HigherOrder => emit_higher_order(rng, idx, m),
        SchemaKind::Mega => emit_mega(rng, idx, m),
    }
}

/// Picks a mutation for the target: 1/4 of cases stay unmutated, 3/8 get
/// a descent-preserving operator, 3/8 a descent-breaking one — always
/// restricted to operators applicable to the target's schema.
fn pick_mutation(rng: &mut Rng, kind: SchemaKind) -> Mutation {
    let pool: Vec<Mutation> = match rng.below(8) {
        0 | 1 => return Mutation::None,
        2..=4 => Mutation::PRESERVING,
        _ => Mutation::BREAKING,
    }
    .iter()
    .copied()
    .filter(|m| m.applicable(kind))
    .collect();
    *rng.pick(&pool)
}

/// Generates one case from a seed: 1–3 schema instances, one of which is
/// the mutation target; the target's entry call runs last so the oracle
/// pinpoints its blame group. Deterministic: the same seed always yields
/// the same case.
pub fn gen_case(seed: u64) -> GenCase {
    let mut rng = Rng::new(seed);
    let count = 1 + rng.below(3) as usize;
    let target = rng.below(count as u64) as usize;
    let kinds: Vec<SchemaKind> = (0..count).map(|_| *rng.pick(&SchemaKind::ALL)).collect();
    let mutation = pick_mutation(&mut rng, kinds[target]);
    let mut defines = String::new();
    let mut entries: Vec<String> = Vec::new();
    let mut target_inst: Option<Instance> = None;
    for (i, &kind) in kinds.iter().enumerate() {
        let m = if i == target {
            mutation
        } else {
            Mutation::None
        };
        let inst = emit(kind, &mut rng, i, m);
        defines.push_str(&inst.defines);
        if i == target {
            target_inst = Some(inst);
        } else {
            entries.push(inst.entry.clone());
        }
    }
    let t = target_inst.expect("target instance emitted");
    entries.push(t.entry.clone());
    let source = format!("{defines}{}", entries.join("\n"));
    let oracle = if mutation.breaks_descent() {
        Oracle::Diverging {
            group: t.names.clone(),
            label: t.label.clone(),
        }
    } else {
        Oracle::Terminating
    };
    GenCase {
        seed,
        source,
        schema: kinds[target],
        mutation,
        oracle,
    }
}
