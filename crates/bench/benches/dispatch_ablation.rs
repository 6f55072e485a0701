//! The §5.2 inlining ablation (`abl-fptr`), measured natively: dispatching
//! critical sections through a unique opcode (a match the compiler inlines)
//! versus through a table of function pointers (the paper's original
//! `apply_op(func_ptr, args)` interface, an indirect call).
//! `cargo bench -p mpsync-bench --bench dispatch_ablation` prints each
//! variant's median ns/op over [`WINDOWS`] timed windows.

use std::{hint::black_box, time::Instant};

use mpsync_core::{ApplyOp, LockCs, OpTable, TicketLock};

/// Timed windows per variant (after an untimed one), fetch-and-increments in each.
const WINDOWS: usize = 21;
const OPS: u32 = 1 << 20;

type OpcodeFn = fn(&mut u64, u64, u64) -> u64;

fn opcode_dispatch(state: &mut u64, op: u64, arg: u64) -> u64 {
    match op {
        0 => table_inc(state, arg),
        1 => table_add(state, arg),
        _ => table_get(state, arg),
    }
}

fn table_inc(state: &mut u64, _arg: u64) -> u64 {
    table_add(state, 1) - 1
}

fn table_add(state: &mut u64, arg: u64) -> u64 {
    *state = state.wrapping_add(arg);
    *state
}

fn table_get(state: &mut u64, _arg: u64) -> u64 {
    *state
}

fn median_ns(mut h: impl ApplyOp) -> f64 {
    let mut ns: Vec<f64> = (0..=WINDOWS)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..OPS {
                black_box(h.apply(black_box(0), black_box(0)));
            }
            start.elapsed().as_nanos() as f64 / f64::from(OPS)
        })
        .skip(1)
        .collect();
    ns.sort_by(f64::total_cmp);
    ns[WINDOWS / 2]
}

fn main() {
    let opcode = LockCs::<u64, TicketLock, OpcodeFn>::new(0, opcode_dispatch as OpcodeFn);
    println!("opcode_inline {:6.2} ns/op", median_ns(opcode.handle()));
    let table = OpTable::new(vec![table_inc, table_add, table_get]);
    let fnptr = LockCs::<u64, TicketLock, OpTable<u64>>::new(0, table);
    println!("fnptr_table   {:6.2} ns/op", median_ns(fnptr.handle()));
}
