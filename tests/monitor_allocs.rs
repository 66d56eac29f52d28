//! Allocation counts of one imperative-monitored call, pinned
//! deterministically as a stand-in for timing gates: a checked call
//! copies its arguments into the monitor stack's shared arena and pushes
//! a payload-free restore frame, so a deep monitored recursion allocates
//! only when one of those stacks doubles.
//!
//! A counting global allocator tallies, per thread, every call that hands
//! out memory (`alloc`, `alloc_zeroed`, `realloc`), so the counts do not
//! depend on what other tests run alongside.

use sct_core::monitor::TableStrategy;
use sct_corpus::workloads::{self, Workload};
use sct_interp::{Machine, MachineConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn workload(id: &str) -> Workload {
    workloads::fig10()
        .into_iter()
        .find(|w| w.id == id)
        .unwrap_or_else(|| panic!("no fig10 workload {id}"))
}

/// Allocations of one call of `id`'s entry at size `n` under `config`,
/// on a machine that has already run the program's defines. The call's
/// answer is checked and dropped inside the count.
fn call_allocations(id: &str, n: u64, config: MachineConfig) -> u64 {
    let w = workload(id);
    let program = sct_lang::compile_program(&w.source).expect("workload compiles");
    let mut m = Machine::new(
        &program,
        MachineConfig {
            order: w.order.handle(),
            ..config
        },
    );
    m.run().expect("defines run");
    let f = m.global(w.entry).expect("entry is defined");
    let args = (w.make_args)(n);
    let before = ALLOCS.with(Cell::get);
    let v = m.call(f, args).expect("call succeeds");
    assert!((w.check)(n, &v), "{id} {n}: wrong answer");
    drop(v);
    ALLOCS.with(Cell::get) - before
}

fn imperative(id: &str, n: u64) -> u64 {
    let got = call_allocations(id, n, MachineConfig::monitored(TableStrategy::Imperative));
    let unchecked = call_allocations(id, n, MachineConfig::standard());
    println!("{id} {n}: {got} allocations monitored, {unchecked} unchecked");
    got
}

/// Before the monitor stack, every checked call copied its arguments into
/// a fresh `Rc<[Value]>`: 32,022 allocations for `sum` at 32000 and
/// 52,367 for `ack` at (2, 160). Now they are 50 and 59.
const PINNED: u64 = 64;

#[test]
fn monitored_sum_allocates_per_growth_not_per_call() {
    let got = imperative("sum", 32_000);
    assert!(got <= PINNED, "{got} allocations, pinned at most {PINNED}");
}

#[test]
fn monitored_ack_allocates_per_growth_not_per_call() {
    let got = imperative("ack", 160);
    assert!(got <= PINNED, "{got} allocations, pinned at most {PINNED}");
}
