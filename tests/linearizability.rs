//! Linearizability checks: record small adversarial concurrent histories on
//! real objects over every construction and verify them against sequential
//! specifications with the `mpsync-lincheck` checker.
//!
//! Histories are kept small (the checker is exhaustive) but are repeated
//! many times with OS-scheduling nondeterminism, which in practice explores
//! many interleavings.

use std::sync::Arc;

use mpsync::lincheck::specs::{CounterSpec, QueueOp, QueueSpec, StackOp, StackSpec};
use mpsync::lincheck::{check, Recorder};
use mpsync::objects::queue::{CoarseQueue, CsQueue, Lcrq, TwoLockQueue, TwoLockQueueHandle};
use mpsync::objects::seq::{
    counter_dispatch, keyed_counter_dispatch, keyed_counter_ops, KeyedCounters,
};
use mpsync::objects::stack::{CoarseStack, CsStack, TreiberStack};
use mpsync::objects::{ConcurrentQueue, ConcurrentStack};
use mpsync::runtime::{Backend, Runtime, RuntimeConfig};
use mpsync::sync::{ApplyOp, CcSynch, HybComb, MpServer, ShmServer};
use mpsync::udn::{Fabric, FabricConfig};

const ROUNDS: usize = 30;
const THREADS: usize = 3;
const OPS_PER_THREAD: usize = 4;

type CounterFn = fn(&mut u64, u64, u64) -> u64;
type QueueFn = fn(&mut CoarseQueue, u64, u64) -> u64;
type HalfFn = fn(&mut Arc<TwoLockQueue>, u64, u64) -> u64;
type StackFn = fn(&mut CoarseStack, u64, u64) -> u64;

/// A stack's or queue's capacity in these histories: room for every op to
/// be an insert.
const STACK_CAPACITY: u64 = (THREADS * OPS_PER_THREAD) as u64;
const QUEUE_CAPACITY: u64 = STACK_CAPACITY;

/// Runs `ROUNDS` small concurrent counter histories against a factory of
/// fetch-and-increment closures and checks each for linearizability.
fn check_counter_impl<F, G>(mut make_round: F)
where
    F: FnMut() -> G,
    G: FnMut(usize) -> Box<dyn FnMut() -> u64 + Send>,
{
    for _ in 0..ROUNDS {
        let mut mk = make_round();
        let rec: Recorder<(), u64> = Recorder::new();
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let mut h = rec.handle(t);
            let mut op = mk(t);
            joins.push(std::thread::spawn(move || {
                for _ in 0..OPS_PER_THREAD {
                    h.record((), &mut op);
                }
                h
            }));
        }
        let handles: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        let history = rec.collect(handles);
        check(&CounterSpec, &history).expect("counter history not linearizable");
    }
}

#[test]
fn mp_server_counter_linearizable() {
    check_counter_impl(|| {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(2)));
        let server = Arc::new(MpServer::spawn(
            fabric.register_any().unwrap(),
            0u64,
            counter_dispatch as CounterFn,
        ));
        move |_t| {
            let mut c = server.client(fabric.register_any().unwrap());
            Box::new(move || c.apply(0, 0))
        }
    });
}

#[test]
fn shm_server_counter_linearizable() {
    check_counter_impl(|| {
        let server = Arc::new(ShmServer::spawn(
            THREADS,
            0u64,
            counter_dispatch as CounterFn,
        ));
        move |_t| {
            let mut c = server.client();
            Box::new(move || c.apply(0, 0))
        }
    });
}

#[test]
fn hybcomb_counter_linearizable() {
    check_counter_impl(|| {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(1)));
        let hc = Arc::new(HybComb::new(
            THREADS,
            8,
            0u64,
            counter_dispatch as CounterFn,
        ));
        move |_t| {
            let mut c = hc.handle(fabric.register_any().unwrap());
            Box::new(move || c.apply(0, 0))
        }
    });
}

#[test]
fn cc_synch_counter_linearizable() {
    check_counter_impl(|| {
        let cs = Arc::new(CcSynch::new(
            THREADS,
            8,
            0u64,
            counter_dispatch as CounterFn,
        ));
        move |_t| {
            let mut c = cs.handle();
            Box::new(move || c.apply(0, 0))
        }
    });
}

/// Concurrent queue history: each thread alternates enqueue(unique)/dequeue.
fn check_queue_impl<Q, F>(mut make_round: F)
where
    Q: ConcurrentQueue + Send + 'static,
    F: FnMut() -> Box<dyn FnMut(usize) -> Q>,
{
    for _ in 0..ROUNDS {
        let mut mk = make_round();
        let rec: Recorder<QueueOp, Option<u64>> = Recorder::new();
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let mut h = rec.handle(t);
            let mut q = mk(t);
            joins.push(std::thread::spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    let v = (t * 100 + i) as u64;
                    if i % 2 == 0 {
                        h.record(QueueOp::Enqueue(v), || {
                            q.enqueue(v);
                            None
                        });
                    } else {
                        h.record(QueueOp::Dequeue, || q.dequeue());
                    }
                }
                h
            }));
        }
        let handles: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        let history = rec.collect(handles);
        check(&QueueSpec, &history).expect("queue history not linearizable");
    }
}

#[test]
fn hybcomb_queue_linearizable() {
    check_queue_impl(|| {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(1)));
        let hc = Arc::new(HybComb::new(
            THREADS,
            8,
            CoarseQueue::new(QUEUE_CAPACITY),
            CoarseQueue::dispatch as QueueFn,
        ));
        Box::new(move |_t| CsQueue::new(hc.handle(fabric.register_any().unwrap())))
    });
}

#[test]
fn mp_server_queue_linearizable() {
    check_queue_impl(|| {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(2)));
        let server = Arc::new(MpServer::spawn(
            fabric.register_any().unwrap(),
            CoarseQueue::new(QUEUE_CAPACITY),
            CoarseQueue::dispatch as QueueFn,
        ));
        Box::new(move |_t| CsQueue::new(server.client(fabric.register_any().unwrap())))
    });
}

/// The two-lock queue with one executor per half: an MP-SERVER for the
/// enqueues and a HYBCOMB for the dequeues.
#[test]
fn two_lock_queue_linearizable() {
    check_queue_impl(|| {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(2)));
        let q = TwoLockQueue::new(QUEUE_CAPACITY);
        let enq = Arc::new(MpServer::spawn(
            fabric.register_any().unwrap(),
            Arc::clone(&q),
            TwoLockQueue::dispatch as HalfFn,
        ));
        let deq = Arc::new(HybComb::new(
            THREADS,
            8,
            q,
            TwoLockQueue::dispatch as HalfFn,
        ));
        Box::new(move |_t| {
            TwoLockQueueHandle::new(
                enq.client(fabric.register_any().unwrap()),
                deq.handle(fabric.register_any().unwrap()),
            )
        })
    });
}

#[test]
fn lcrq_linearizable() {
    check_queue_impl(|| {
        // Rings of 8 cells, and room for every op to be an enqueue into
        // rings closed early.
        let q = Arc::new(Lcrq::new(3, 8, THREADS as u64));
        Box::new(move |_t| q.handle())
    });
}

/// Concurrent stack history: alternate push(unique)/pop.
fn check_stack_impl<S, F>(mut make_round: F)
where
    S: ConcurrentStack + Send + 'static,
    F: FnMut() -> Box<dyn FnMut(usize) -> S>,
{
    for _ in 0..ROUNDS {
        let mut mk = make_round();
        let rec: Recorder<StackOp, Option<u64>> = Recorder::new();
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let mut h = rec.handle(t);
            let mut s = mk(t);
            joins.push(std::thread::spawn(move || {
                for i in 0..OPS_PER_THREAD {
                    let v = (t * 100 + i) as u64;
                    if i % 2 == 0 {
                        h.record(StackOp::Push(v), || {
                            s.push(v);
                            None
                        });
                    } else {
                        h.record(StackOp::Pop, || s.pop());
                    }
                }
                h
            }));
        }
        let handles: Vec<_> = joins.into_iter().map(|j| j.join().unwrap()).collect();
        let history = rec.collect(handles);
        check(&StackSpec, &history).expect("stack history not linearizable");
    }
}

#[test]
fn cc_synch_stack_linearizable() {
    check_stack_impl(|| {
        let cs = Arc::new(CcSynch::new(
            THREADS,
            8,
            CoarseStack::new(STACK_CAPACITY),
            CoarseStack::dispatch as StackFn,
        ));
        Box::new(move |_t| CsStack::new(cs.handle()))
    });
}

#[test]
fn treiber_stack_linearizable() {
    check_stack_impl(|| {
        let s = Arc::new(TreiberStack::new(STACK_CAPACITY));
        Box::new(move |_t| s.handle())
    });
}

#[test]
fn flat_combining_counter_linearizable() {
    use mpsync::sync::{FlatCombining, SlotPool};
    check_counter_impl(|| {
        let fc = Arc::new(FlatCombining::new(
            THREADS,
            64,
            0u64,
            counter_dispatch as CounterFn,
        ));
        let slots = SlotPool::new(THREADS);
        move |_t| {
            let mut c = fc.handle(slots.acquire());
            Box::new(move || c.apply(0, 0))
        }
    });
}

// ---------------------------------------------------------------------------
// Batches: concurrent sessions each issue `submit_batch` calls of several
// fetch-incs over two keys (one per shard). An op's interval is its batch's
// — [call, return] — and each key's history must linearize as a counter, on
// every runtime backend.
// ---------------------------------------------------------------------------

fn check_batched_counters_linearizable(backend: Backend, pin_mp: bool) {
    use mpsync::lincheck::{History, Operation};
    use std::sync::atomic::{AtomicU64, Ordering};
    const BATCHES: usize = 2;
    const KEYS: [u64; 2] = [0, 1]; // shard 0 and shard 1 under 2-shard striping
    for _ in 0..ROUNDS {
        let rt = Arc::new(Runtime::new(
            RuntimeConfig::new(2)
                .with_backend(backend)
                .with_max_sessions(THREADS)
                .with_queue_depth(2),
            |_| KeyedCounters::new(),
            keyed_counter_dispatch,
        ));
        if backend == Backend::Adaptive {
            let pin = if pin_mp {
                Backend::MpServer
            } else {
                Backend::Lock
            };
            for shard in 0..2 {
                assert!(rt.force_backend(shard, pin));
            }
        }
        let clock = Arc::new(AtomicU64::new(0));
        let mut joins = Vec::new();
        for t in 0..THREADS {
            let mut s = rt.session().expect("session budget");
            let clock = clock.clone();
            joins.push(std::thread::spawn(move || {
                // Two incs per key, interleaved: both shards, and more per
                // shard than the window of 2 admits at once.
                let ops: Vec<(u64, u64, u64)> = (0..6)
                    .map(|i| (KEYS[i % 2], keyed_counter_ops::INC, 0))
                    .collect();
                let mut out = Vec::new();
                let mut log = Vec::new();
                for _ in 0..BATCHES {
                    let invoked = clock.fetch_add(1, Ordering::AcqRel);
                    s.submit_batch(&ops, &mut out);
                    let returned = clock.fetch_add(1, Ordering::AcqRel);
                    for (op, r) in ops.iter().zip(&out) {
                        let ret = r.expect("runtime open, Block policy");
                        log.push((
                            op.0,
                            Operation {
                                thread: t,
                                op: (),
                                ret,
                                invoked,
                                returned,
                            },
                        ));
                    }
                }
                log
            }));
        }
        let log: Vec<_> = joins.into_iter().flat_map(|j| j.join().unwrap()).collect();
        for key in KEYS {
            let ops = log
                .iter()
                .filter(|(k, _)| *k == key)
                .map(|(_, op)| op.clone())
                .collect();
            check(&CounterSpec, &History::from_ops(ops))
                .unwrap_or_else(|e| panic!("{backend:?} key {key}: not linearizable: {e:?}"));
        }
        Arc::into_inner(rt).expect("sessions dropped").shutdown();
    }
}

#[test]
fn batched_submissions_linearizable_on_every_backend() {
    for backend in Backend::ALL {
        check_batched_counters_linearizable(backend, false);
    }
    check_batched_counters_linearizable(Backend::Adaptive, false);
    check_batched_counters_linearizable(Backend::Adaptive, true);
}
