//! Property-based tests of the concurrent objects against their sequential
//! models, plus executor-vs-model equivalence for arbitrary operation
//! sequences, and the coarse stack's capacity on both machines.

use std::collections::VecDeque;
use std::sync::Arc;

use mpsync::objects::queue::{CoarseQueue, CsQueue, Lcrq};
use mpsync::objects::stack::{CoarseStack, CsStack, TreiberStack};
use mpsync::objects::{ConcurrentQueue, ConcurrentStack};
use mpsync::sync::{ApplyOp, CcSynch, HybComb, LockCs, McsLock, TicketLock};
use mpsync::udn::{Fabric, FabricConfig};
use proptest::prelude::*;

type QueueFn = fn(&mut CoarseQueue, u64, u64) -> u64;
type StackFn = fn(&mut CoarseStack, u64, u64) -> u64;

/// A stack's or queue's capacity: room for `ops_strategy`'s longest
/// sequence, all inserts.
const STACK_CAPACITY: u64 = 200;
const QUEUE_CAPACITY: u64 = STACK_CAPACITY;

/// An op in a generated sequence: `Some(v)` = insert v, `None` = remove.
fn ops_strategy() -> impl Strategy<Value = Vec<Option<u64>>> {
    prop::collection::vec(
        prop_oneof![(0u64..1_000_000).prop_map(Some), Just(None),],
        0..200,
    )
}

fn check_queue<Q: ConcurrentQueue>(q: &mut Q, ops: &[Option<u64>]) -> Result<(), TestCaseError> {
    let mut model: VecDeque<u64> = VecDeque::new();
    for op in ops {
        match op {
            Some(v) => {
                q.enqueue(*v);
                model.push_back(*v);
            }
            None => prop_assert_eq!(q.dequeue(), model.pop_front()),
        }
    }
    // Drain and compare the remainder.
    while let Some(expect) = model.pop_front() {
        prop_assert_eq!(q.dequeue(), Some(expect));
    }
    prop_assert_eq!(q.dequeue(), None);
    Ok(())
}

fn check_stack<S: ConcurrentStack>(s: &mut S, ops: &[Option<u64>]) -> Result<(), TestCaseError> {
    let mut model: Vec<u64> = Vec::new();
    for op in ops {
        match op {
            Some(v) => {
                s.push(*v);
                model.push(*v);
            }
            None => prop_assert_eq!(s.pop(), model.pop()),
        }
    }
    while let Some(expect) = model.pop() {
        prop_assert_eq!(s.pop(), Some(expect));
    }
    prop_assert_eq!(s.pop(), None);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lock_queue_matches_model(ops in ops_strategy()) {
        let cs = LockCs::<CoarseQueue, TicketLock, QueueFn>::new(
            CoarseQueue::new(QUEUE_CAPACITY),
            CoarseQueue::dispatch as QueueFn,
        );
        let mut q = CsQueue::new(cs.handle());
        check_queue(&mut q, &ops)?;
    }

    #[test]
    fn hybcomb_queue_matches_model(ops in ops_strategy()) {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(1)));
        let hc = HybComb::new(1, 8, CoarseQueue::new(QUEUE_CAPACITY), CoarseQueue::dispatch as QueueFn);
        let mut q = CsQueue::new(hc.handle(fabric.register_any().unwrap()));
        check_queue(&mut q, &ops)?;
    }

    #[test]
    fn lcrq_matches_model(ops in ops_strategy()) {
        // Rings of 16 cells, enough of them for the longest sequence.
        let q = Arc::new(Lcrq::new(4, QUEUE_CAPACITY / 16 + 2, 1));
        let mut h = q.handle();
        check_queue(&mut h, &ops)?;
    }

    #[test]
    fn cc_synch_stack_matches_model(ops in ops_strategy()) {
        let cs = CcSynch::new(1, 8, CoarseStack::new(STACK_CAPACITY), CoarseStack::dispatch as StackFn);
        let mut s = CsStack::new(cs.handle());
        check_stack(&mut s, &ops)?;
    }

    #[test]
    fn treiber_matches_model(ops in ops_strategy()) {
        let st = Arc::new(TreiberStack::new(STACK_CAPACITY));
        let mut s = st.handle();
        check_stack(&mut s, &ops)?;
    }

    #[test]
    fn mcs_lock_stack_matches_model(ops in ops_strategy()) {
        let cs = LockCs::<CoarseStack, McsLock, StackFn>::new(
            CoarseStack::new(STACK_CAPACITY),
            CoarseStack::dispatch as StackFn,
        );
        let mut s = CsStack::new(cs.handle());
        check_stack(&mut s, &ops)?;
    }

    /// Executors are universal: for any op/arg sequence, the protected
    /// fold equals the sequential fold.
    #[test]
    fn executor_equals_sequential_fold(args in prop::collection::vec(0u64..1000, 0..100)) {
        fn cs(state: &mut u64, op: u64, arg: u64) -> u64 {
            match op {
                0 => { *state = state.wrapping_add(arg); *state }
                _ => { *state ^= arg.rotate_left(7); *state }
            }
        }
        let cslock = LockCs::<u64, TicketLock, fn(&mut u64, u64, u64) -> u64>::new(
            0,
            cs as fn(&mut u64, u64, u64) -> u64,
        );
        let mut h = cslock.handle();
        let mut model = 0u64;
        for (i, &a) in args.iter().enumerate() {
            let op = (i % 2) as u64;
            let got = h.apply(op, a);
            cs(&mut model, op, a);
            prop_assert_eq!(got, model);
        }
    }
}

/// A push onto a full coarse stack panics, naming the capacity, and leaves
/// the values below it intact.
#[test]
fn a_push_past_a_full_coarse_stack_panics() {
    let cs = LockCs::<CoarseStack, TicketLock, StackFn>::new(
        CoarseStack::new(3),
        CoarseStack::dispatch as StackFn,
    );
    let mut s = CsStack::new(cs.handle());
    for v in 1..=3 {
        s.push(v);
    }
    let full = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.push(4)));
    let msg = full.expect_err("a fourth push fit a stack of three");
    let msg = msg.downcast_ref::<String>().expect("a formatted panic");
    assert!(msg.contains("capacity is 3 values"), "{msg}");
    assert_eq!(
        (s.pop(), s.pop(), s.pop(), s.pop()),
        (Some(3), Some(2), Some(1), None)
    );
}

/// tilesim runs the same body: the push past capacity returns `CS_FULL`
/// and overwrites nothing, so every value pops back in LIFO order.
#[test]
fn the_simulated_coarse_stack_refuses_a_push_past_capacity() {
    use mpsync::sync::stack::{ops, CoarseStackLayout};
    use mpsync::tilesim::algos::{exec_cs, AddrAlloc, CsBody, CS_EMPTY, CS_FULL};
    use mpsync::tilesim::{Engine, MachineConfig};

    const LEN: u64 = 4;
    let mut alloc = AddrAlloc::new();
    let body = CsBody::Stack(CoarseStackLayout {
        top: alloc.line(),
        slots: alloc.lines(LEN),
        len: LEN,
    });
    let mut e = Engine::new(MachineConfig::tile_gx8036());
    e.add_proc(async move |ctx| {
        for v in 1..=LEN {
            assert_eq!(exec_cs(ctx, &body, ops::PUSH, v).await, 0);
        }
        assert_eq!(exec_cs(ctx, &body, ops::PUSH, LEN + 1).await, CS_FULL);
        for v in (1..=LEN).rev() {
            assert_eq!(exec_cs(ctx, &body, ops::POP, 0).await, v);
        }
        assert_eq!(exec_cs(ctx, &body, ops::POP, 0).await, CS_EMPTY);
        ctx.record(mpsync::tilesim::Metric::Ops, 1);
    });
    let r = e.run(1_000_000);
    assert_eq!(
        r.metric_sum(mpsync::tilesim::Metric::Ops),
        1,
        "the proc did not finish"
    );
}

/// A two-lock queue of capacity 4, natively, one executor per half: it
/// holds four values, refuses a fifth with `FULL` rather than take the
/// dummy node, and dequeues 1..=4 in order.
#[test]
fn a_two_lock_queue_refuses_an_enqueue_past_capacity() {
    use mpsync::sync::queue::{ops, TwoLockQueue, EMPTY, FULL};
    type HalfFn = fn(&mut Arc<TwoLockQueue>, u64, u64) -> u64;

    let q = TwoLockQueue::new(4);
    let enq = LockCs::<_, TicketLock, _>::new(Arc::clone(&q), TwoLockQueue::dispatch as HalfFn);
    let deq = LockCs::<_, McsLock, _>::new(q, TwoLockQueue::dispatch as HalfFn);
    let (mut e, mut d) = (enq.handle(), deq.handle());
    for v in 1..=4 {
        assert_eq!(e.apply(ops::ENQ, v), 0);
    }
    assert_eq!(e.apply(ops::ENQ, 5), FULL);
    for v in 1..=4 {
        assert_eq!(d.apply(ops::DEQ, 0), v);
    }
    assert_eq!(d.apply(ops::DEQ, 0), EMPTY);
}

/// The same on tilesim, which runs the same halves as its two-lock body.
#[test]
fn the_simulated_two_lock_queue_refuses_an_enqueue_past_capacity() {
    use mpsync::sync::queue::{ops, TwoLockLayout};
    use mpsync::tilesim::algos::{exec_cs, AddrAlloc, CsBody, CS_EMPTY, CS_FULL};
    use mpsync::tilesim::{Engine, MachineConfig, Metric};

    const CAPACITY: u64 = 4;
    let mut alloc = AddrAlloc::new();
    let body = CsBody::TwoLock(TwoLockLayout {
        base: alloc.lines(TwoLockLayout::lines(CAPACITY)),
        capacity: CAPACITY,
    });
    let mut e = Engine::new(MachineConfig::tile_gx8036());
    e.add_proc(async move |ctx| {
        for v in 1..=CAPACITY {
            assert_eq!(exec_cs(ctx, &body, ops::ENQ, v).await, 0);
        }
        assert_eq!(exec_cs(ctx, &body, ops::ENQ, CAPACITY + 1).await, CS_FULL);
        for v in 1..=CAPACITY {
            assert_eq!(exec_cs(ctx, &body, ops::DEQ, 0).await, v);
        }
        assert_eq!(exec_cs(ctx, &body, ops::DEQ, 0).await, CS_EMPTY);
        ctx.record(Metric::Ops, 1);
    });
    let r = e.run(1_000_000);
    assert_eq!(r.metric_sum(Metric::Ops), 1, "the proc did not finish");
}
