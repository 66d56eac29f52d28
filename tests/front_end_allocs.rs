//! Allocation counts of the front end (`compile_program`: parse, desugar,
//! resolve) and of a warm planning pass (every define a store hit),
//! pinned deterministically as a stand-in for timing gates.
//!
//! A counting global allocator tallies, per thread, every call that hands
//! out memory (`alloc`, `alloc_zeroed`, `realloc`), so the counts do not
//! depend on what other tests run alongside.

use sct_cache::MemStore;
use sct_symbolic::{plan_program, PlanConfig};
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

/// Allocations `f` makes, dropping its result included.
fn counted<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCS.with(Cell::get);
    drop(f());
    ALLOCS.with(Cell::get) - before
}

/// Allocations `compile_program` makes on `source`, dropping included.
fn allocations(source: &str) -> u64 {
    counted(|| sct_lang::compile_program(source).expect("compiles"))
}

/// A layered corpus of `n` defines plus a body applying its top define.
fn corpus(n: usize) -> String {
    let mut source = sct_bench::layered_corpus(n, 0, 0);
    source.push_str(&format!("(f{} (list 1 2 3))\n", n - 1));
    source
}

#[test]
fn front_end_allocations_are_pinned() {
    let got = allocations(&corpus(1000));
    println!("compile_program on 1000 defines: {got} allocations");
    assert!(got <= PINNED, "{got} allocations, pinned at most {PINNED}");
}

#[test]
fn front_end_allocations_grow_linearly() {
    let small = allocations(&corpus(3000));
    let large = allocations(&corpus(12000));
    let growth = large as f64 / small as f64;
    println!("3k defines: {small}, 12k defines: {large}, growth {growth:.2}x");
    assert!(
        growth <= 4.2,
        "allocations grew {growth:.2}x for 4x defines"
    );
}

/// About 10% above the measured 40,241. Before symbols were interned and
/// the desugarer moved its input, the front end made 102,930.
const PINNED: u64 = 44_300;

#[test]
fn warm_replay_allocations_are_pinned() {
    let program = sct_lang::compile_program(&sct_bench::layered_corpus(1000, 7, 0)).unwrap();
    let cfg = PlanConfig::default();
    let mut store = MemStore::new();
    let (_, cold) = plan_program(&program, &cfg, &mut store);
    assert_eq!(cold.misses(), 1000);
    let got = counted(|| {
        let (plan, warm) = plan_program(&program, &cfg, &mut store);
        assert_eq!(warm.hits(), 1000);
        (plan, warm)
    });
    println!("warm replay of 1000 defines: {got} allocations");
    assert!(
        got <= WARM_PINNED,
        "{got} allocations, pinned at most {WARM_PINNED}"
    );
}

/// About 10% above the measured 22,098. Before a digest's hex key was
/// written into one exact-size string it was 23,158; before every decision
/// and summary was bound from its entry by move, the program index stopped
/// copying names and the digest walk stopped formatting primitive names,
/// the same replay made 42,011.
const WARM_PINNED: u64 = 24_300;
