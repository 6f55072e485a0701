//! The simulator's engine and memory at their edges: the event order when
//! the serviced proc's next event ties with one already pending, a run
//! whose events fall far past its horizon, and the bounds of the machine
//! (at most 64 cores, at most `MAX_LINES` lines).

use std::cell::Cell;
use std::rc::Rc;

use tilesim::mem::{Memory, MAX_LINES};
use tilesim::{Engine, MachineConfig, WORDS_PER_LINE};

fn mesh(rows: usize, cols: usize) -> MachineConfig {
    MachineConfig {
        rows,
        cols,
        ..MachineConfig::tile_gx8036()
    }
}

/// The word both writers race on.
const W: u64 = 3 * WORDS_PER_LINE;

/// Core `held` and core `pending` both write their id + 1 to `W` at cycle
/// `T`. `held` gets there through an event scheduled while it was being
/// serviced (at `T - 5`); `pending`'s event for `T` has waited since cycle
/// 0. Core 2 reads `W` afterwards; returns what it saw.
fn survivor(held: usize, pending: usize) -> u64 {
    const T: u64 = 1_000;
    let seen = Rc::new(Cell::new(0));
    let mut e = Engine::new(mesh(2, 2));
    for core in 0..3 {
        let seen = Rc::clone(&seen);
        e.add_proc(async move |ctx| {
            if core == held {
                ctx.work(T - 5).await;
                ctx.work(5).await;
            } else if core == pending {
                ctx.work(T).await;
            } else {
                ctx.work(2 * T).await;
                seen.set(ctx.read(W).await);
                return;
            }
            assert_eq!(ctx.now(), T);
            ctx.write(W, core as u64 + 1).await;
        });
    }
    e.run(10 * T);
    seen.get()
}

#[test]
fn a_held_event_keeps_time_then_core_order() {
    // Ties on a cycle go to the lower core, so core 1 writes last either
    // way: whether its event is the held one or the pending one.
    assert_eq!(survivor(0, 1), 2, "core 0 held, core 1 pending");
    assert_eq!(survivor(1, 0), 2, "core 1 held, core 0 pending");
}

#[test]
fn events_past_a_far_horizon_end_the_clock_exactly() {
    let horizon = u64::MAX / 2;
    let mut e = Engine::new(mesh(2, 2));
    // Core 0 schedules its last event while being serviced at cycle 10.
    e.add_proc(async move |ctx| {
        ctx.work(10).await;
        ctx.work(horizon).await;
    });
    // Core 1's event past the horizon comes first.
    e.add_proc(async move |ctx| ctx.work(horizon + 3).await);
    let r = e.run(horizon);
    assert_eq!(r.end_clock, horizon + 10);
    assert_eq!(r.cycles, horizon);
}

#[test]
#[should_panic(expected = "the coherence bitmasks `sharers` and `sleepers` are u64, \
                so tilesim has at most 64 cores (ROADMAP item 2)")]
fn a_mesh_past_64_cores_is_refused() {
    Engine::new(mesh(9, 8));
}

#[test]
fn a_far_line_round_trips() {
    let mut m = Memory::new(MachineConfig::tile_gx8036());
    let far = (MAX_LINES / 16) * WORDS_PER_LINE + 5;
    assert_eq!(m.peek(far), 0);
    m.poke(far, 42);
    assert_eq!(m.peek(far), 42);
    assert_eq!(m.peek(far - 1), 0);
    assert_eq!(m.peek(far + WORDS_PER_LINE), 0);
    m.check_swmr().unwrap();
}

#[test]
#[should_panic(expected = "AddrAlloc")]
fn a_line_past_the_bound_is_refused() {
    let mut m = Memory::new(MachineConfig::tile_gx8036());
    m.poke(MAX_LINES * WORDS_PER_LINE, 1);
}

#[test]
#[should_panic(expected = "AddrAlloc")]
fn a_peek_past_the_bound_is_refused() {
    Memory::new(MachineConfig::tile_gx8036()).peek(u64::MAX);
}
