//! The simulator's engine allocates nothing per event: once a run is set up
//! and warm, simulating twice as long makes no more allocations. Its own
//! test binary, because the counting allocator below is global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tilesim::algos::Approach;
use tilesim::workload::{
    max_threads, run_counter, run_queue_lcrq, run_queue_mp2, run_stack_treiber,
};
use tilesim::MachineConfig;

/// The system allocator, counting the allocations each thread makes.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged.
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

/// Allocations made on this thread by `run`.
fn allocs<R>(run: impl FnOnce() -> R) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let r = run();
    let after = ALLOCS.with(Cell::get);
    drop(r);
    after - before
}

/// Allocations made by one `run_counter` of `a` at the benchmark's shape
/// (maximum threads, combining bound 200, seed 1).
fn counter_allocs(a: Approach, horizon: u64) -> u64 {
    let cfg = MachineConfig::tile_gx8036();
    allocs(|| run_counter(cfg, a, max_threads(&cfg, a), 200, horizon, 1))
}

#[test]
fn a_longer_run_allocates_no_more() {
    for a in Approach::ALL {
        let short = counter_allocs(a, 20_000);
        let long = counter_allocs(a, 40_000);
        assert_eq!(
            short,
            long,
            "{}: {short} allocations, then {long}",
            a.label()
        );
    }
}

/// The Treiber stack keeps each thread's node cache in its proc: a push or
/// a pop allocates nothing on the host.
#[test]
fn a_longer_treiber_run_allocates_no_more() {
    let cfg = MachineConfig::tile_gx8036();
    let run = |horizon| allocs(|| run_stack_treiber(cfg, cfg.cores(), horizon, 1));
    let (short, long) = (run(20_000), run(40_000));
    assert_eq!(short, long, "Treiber: {short} allocations, then {long}");
}

/// LCRQ's rings and the two-lock queue's nodes come from pools in the
/// simulated memory, sized before the run: an operation allocates nothing
/// on the host, although the longer run touches more of each pool.
#[test]
fn a_longer_queue_run_allocates_no_more() {
    let cfg = MachineConfig::tile_gx8036();
    let lcrq = |horizon| allocs(|| run_queue_lcrq(cfg, cfg.cores(), horizon, 1));
    let (short, long) = (lcrq(20_000), lcrq(40_000));
    assert_eq!(short, long, "LCRQ: {short} allocations, then {long}");
    let threads = cfg.cores() - 2;
    let mp2 = |horizon| allocs(|| run_queue_mp2(cfg, threads, horizon, 1));
    let (short, long) = (mp2(20_000), mp2(40_000));
    assert_eq!(short, long, "mp-server-2: {short} allocations, then {long}");
}
