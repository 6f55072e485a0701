//! Loom models for the core executors (`RUSTFLAGS="--cfg loom" cargo test
//! -p mpsync-core --lib`).
//!
//! Every protocol-bearing atomic in this crate goes through `crate::sync`,
//! and the protected state sits in a loom `UnsafeCell` (`CsState`), so these
//! models explore bounded interleavings of the *production* code and any
//! mutual-exclusion violation — two combiners, two lock holders — surfaces
//! as a reported data race on the state cell. See DESIGN.md §9 for the
//! happens-before graphs being checked.
//!
//! Under `--cfg loom` the whole dependency tree is built with the facade, so
//! the HYBCOMB and MP-SERVER models also explore the underlying `WordQueue`
//! protocol of `mpsync-udn` — requests and responses travel through the
//! real ring.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use mpsync_udn::{Fabric, FabricConfig};

use crate::locks::{McsLock, TasLock};
use crate::machine::{block_on, Arena, ClientSide};
use crate::mp_server::{request, ServerCore};
use crate::queue::{ops, Lcrq, TwoLockQueue, EMPTY, FULL};
use crate::stack::TreiberStack;
use crate::sync::UnsafeCell;
use crate::wire;
use crate::{ApplyOp, CcSynch, FlatCombining, HybComb, LockCs, MpServer, ShmServer};

type CounterFn = fn(&mut u64, u64, u64) -> u64;

fn fai(state: &mut u64, _op: u64, _arg: u64) -> u64 {
    let old = *state;
    *state += 1;
    old
}

/// Dispatch that panics on opcode 1 — the poison-model trigger.
fn boom(state: &mut u64, op: u64, _arg: u64) -> u64 {
    if op == 1 {
        panic!("dispatch exploded");
    }
    let old = *state;
    *state += 1;
    old
}

/// Dispatch that half-applies opcode 1, then panics: the state is torn.
fn torn(state: &mut u64, op: u64, _arg: u64) -> u64 {
    let old = *state;
    *state += 1;
    if op == 1 {
        panic!("dispatch exploded");
    }
    old
}

/// A panic payload is acceptable in the poison models iff it is either the
/// injected dispatch panic or the construction's poison report.
fn assert_expected_panic(err: &(dyn std::any::Any + Send), poison_tag: &str) {
    let msg = err
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| err.downcast_ref::<String>().cloned())
        .expect("panic payload should be a string");
    assert!(
        msg.contains("dispatch exploded") || msg.contains(poison_tag),
        "unexpected panic: {msg}"
    );
}

/// CC-SYNCH, two threads, one op each: every interleaving must execute both
/// ops exactly once (a permutation of {0, 1}) with the state cell race-free
/// — the enqueue `tail` SWAP plus the `wait` Release/Acquire hand-off are
/// the edges under test.
#[test]
fn cc_synch_two_threads_permutation() {
    loom::model(|| {
        let cs = Arc::new(CcSynch::new(2, 8, 0u64, fai as CounterFn));
        let mut a = cs.handle();
        let t = {
            let cs = Arc::clone(&cs);
            loom::thread::spawn(move || {
                let mut b = cs.handle();
                b.apply(0, 0)
            })
        };
        let ra = a.apply(0, 0);
        let rb = t.join().unwrap();
        let mut seen = [ra, rb];
        seen.sort_unstable();
        assert_eq!(seen, [0, 1]);
        drop(a);
        let cs = Arc::try_unwrap(cs).unwrap_or_else(|_| panic!("handles alive"));
        assert_eq!(cs.into_state(), 2);
    });
}

/// CC-SYNCH with `max_ops == 1`: a combiner that serves only itself must
/// hand the combiner role to its successor (the explicit hand-off Release),
/// never wedge it.
#[test]
fn cc_synch_hand_off_with_max_ops_one() {
    loom::model(|| {
        let cs = Arc::new(CcSynch::new(2, 1, 0u64, fai as CounterFn));
        let mut a = cs.handle();
        let t = {
            let cs = Arc::clone(&cs);
            loom::thread::spawn(move || {
                let mut b = cs.handle();
                b.apply(0, 0)
            })
        };
        let ra = a.apply(0, 0);
        let rb = t.join().unwrap();
        let mut seen = [ra, rb];
        seen.sort_unstable();
        assert_eq!(seen, [0, 1]);
    });
}

/// Loom regression model for the panic-safety fix: a combiner whose dispatch
/// panics must poison the construction so the other thread panics (with the
/// injected or the poison message) or completes — but never spins forever
/// (loom's step bound would flag the wedge the old code produced).
#[test]
fn cc_synch_combiner_panic_poisons_waiters() {
    loom::model(|| {
        let cs = Arc::new(CcSynch::new(2, 8, 0u64, boom as CounterFn));
        let mut a = cs.handle();
        let t = {
            let cs = Arc::clone(&cs);
            loom::thread::spawn(move || {
                let mut b = cs.handle();
                // The benign op: may be served before the poison round, may
                // observe the poisoning, or may itself serve op 1 and panic.
                catch_unwind(AssertUnwindSafe(|| b.apply(0, 0)))
            })
        };
        let ra = catch_unwind(AssertUnwindSafe(|| a.apply(1, 0)));
        let rb = t.join().unwrap();
        for r in [&ra, &rb] {
            if let Err(e) = r {
                assert_expected_panic(e.as_ref(), "CC-SYNCH poisoned");
            }
        }
        // Op 1 executed (and panicked) under exactly one combiner, so at
        // least one of the two applies must have unwound.
        assert!(ra.is_err() || rb.is_err());
    });
}

/// Flat combining, two threads, one op each: every interleaving executes
/// both ops exactly once (a permutation of {0, 1}, final state 2) with the
/// state cell race-free. The edge under test is the combiner lock's unlock
/// Release → the next combiner's `swap` Acquire, which orders consecutive
/// combiners' accesses to the cell.
///
/// The record-state edges (publish PENDING Release → combiner Acquire, serve
/// DONE Release → owner Acquire) are atomic-to-atomic: they carry only the
/// `op`/`arg`/`ret` atomics, never a cell access, and the vendored loom does
/// not generate stale atomic loads (DESIGN.md §9.4). Weakening one of them
/// is outside what these models can catch.
#[test]
fn flat_combining_two_threads_exactly_once() {
    loom::model(|| {
        let fc = Arc::new(FlatCombining::new(2, 8, 0u64, fai as CounterFn));
        let t = {
            let fc = Arc::clone(&fc);
            loom::thread::spawn(move || fc.apply(1, 0, 0, |_| {}))
        };
        let ra = fc.apply(0, 0, 0, |_| {});
        let rb = t.join().unwrap();
        let mut seen = [ra, rb];
        seen.sort_unstable();
        assert_eq!(seen, [0, 1]);
        let fc = Arc::try_unwrap(fc).unwrap_or_else(|_| panic!("thread joined"));
        assert_eq!(fc.into_state(), 2);
    });
}

/// Flat combining with `max_batch == 1`: a round serves one request, so a
/// waiter whose record the combiner did not serve must take the lock and
/// combine for itself, and a combiner that served the other record first
/// must go round again for its own. The round sizes reported to the two
/// callers sum to the two ops.
#[test]
fn flat_combining_max_batch_one_waiter_combines_for_itself() {
    loom::model(|| {
        let fc = Arc::new(FlatCombining::new(2, 1, 0u64, fai as CounterFn));
        let t = {
            let fc = Arc::clone(&fc);
            loom::thread::spawn(move || {
                let mut rounds = 0;
                (fc.apply(1, 0, 0, |n| rounds += n), rounds)
            })
        };
        let mut rounds = 0;
        let ra = fc.apply(0, 0, 0, |n| rounds += n);
        let (rb, rounds_b) = t.join().unwrap();
        let mut seen = [ra, rb];
        seen.sort_unstable();
        assert_eq!(seen, [0, 1]);
        assert_eq!(rounds + rounds_b, 2);
    });
}

/// Loom regression model for the poison protocol: a flat combiner whose
/// dispatch panics keeps the lock forever, so the other thread must panic
/// (with the injected or the poison message) or complete — never spin on
/// the lock (loom's step bound would flag that wedge).
#[test]
fn flat_combining_combiner_panic_poisons_waiters() {
    loom::model(|| {
        let fc = Arc::new(FlatCombining::new(2, 8, 0u64, boom as CounterFn));
        let t = {
            let fc = Arc::clone(&fc);
            loom::thread::spawn(move || {
                // The benign op: served before the poisoning round, sees the
                // poisoning, or combines op 1 itself and panics.
                catch_unwind(AssertUnwindSafe(|| fc.apply(1, 0, 0, |_| {})))
            })
        };
        let ra = catch_unwind(AssertUnwindSafe(|| fc.apply(0, 1, 0, |_| {})));
        let rb = t.join().unwrap();
        for r in [&ra, &rb] {
            if let Err(e) = r {
                assert_expected_panic(e.as_ref(), "FLAT-COMBINING poisoned");
            }
        }
        // Op 1 ran (and panicked) under exactly one combiner.
        assert!(ra.is_err() || rb.is_err());
    });
}

/// HYBCOMB, two threads, one op each, registration open (`max_ops` large):
/// all interleavings of FAA-registration vs. CAS-combining must execute both
/// ops exactly once. Proposition 1 (at most one active combiner) is checked
/// by construction: an interleaving with two combiners would overlap on the
/// `CsState` cell and be reported as a data race. This model also audits the
/// eager-drain `is_queue_empty` Relaxed hint: a stale answer may only skip
/// the drain, never corrupt a serve.
#[test]
fn hybcomb_single_active_combiner_proposition1() {
    loom::model(|| {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(1)));
        let hc = Arc::new(HybComb::new(2, 8, 0u64, fai as CounterFn));
        let mut a = hc.handle(fabric.register_any().unwrap());
        let t = {
            let hc = Arc::clone(&hc);
            let fabric = Arc::clone(&fabric);
            loom::thread::spawn(move || {
                let mut b = hc.handle(fabric.register_any().unwrap());
                b.apply(0, 0)
            })
        };
        let ra = a.apply(0, 0);
        let rb = t.join().unwrap();
        let mut seen = [ra, rb];
        seen.sort_unstable();
        assert_eq!(seen, [0, 1]);
        drop(a);
        let hc = Arc::try_unwrap(hc).unwrap_or_else(|_| panic!("handles alive"));
        assert_eq!(hc.into_state(), 2);
    });
}

/// HYBCOMB with `max_ops == 1`: the second thread cannot register (the FAA
/// gate is closed after one op), so it must CAS itself onto the combiner
/// queue and cross the `combining_done` Release/Acquire hand-off — the
/// departure path (`departed_combiner` node exchange) is exercised in every
/// interleaving.
#[test]
fn hybcomb_combiner_hand_off_with_max_ops_one() {
    loom::model(|| {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(1)));
        let hc = Arc::new(HybComb::new(2, 1, 0u64, fai as CounterFn));
        let mut a = hc.handle(fabric.register_any().unwrap());
        let t = {
            let hc = Arc::clone(&hc);
            let fabric = Arc::clone(&fabric);
            loom::thread::spawn(move || {
                let mut b = hc.handle(fabric.register_any().unwrap());
                b.apply(0, 0)
            })
        };
        let ra = a.apply(0, 0);
        let rb = t.join().unwrap();
        let mut seen = [ra, rb];
        seen.sort_unstable();
        assert_eq!(seen, [0, 1]);
    });
}

/// Loom regression model for the panic-safety fix: a HYBCOMB combiner whose
/// dispatch panics must poison the construction; a registered client polling
/// for its response (rather than blocking — the fix under test) observes the
/// poison instead of waiting forever for a reply that cannot come.
#[test]
fn hybcomb_combiner_panic_poisons_clients() {
    loom::model(|| {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(1)));
        let hc = Arc::new(HybComb::new(2, 8, 0u64, boom as CounterFn));
        let mut a = hc.handle(fabric.register_any().unwrap());
        let t = {
            let hc = Arc::clone(&hc);
            let fabric = Arc::clone(&fabric);
            loom::thread::spawn(move || {
                let mut b = hc.handle(fabric.register_any().unwrap());
                catch_unwind(AssertUnwindSafe(|| b.apply(0, 0)))
            })
        };
        let ra = catch_unwind(AssertUnwindSafe(|| a.apply(1, 0)));
        let rb = t.join().unwrap();
        for r in [&ra, &rb] {
            if let Err(e) = r {
                assert_expected_panic(e.as_ref(), "HYBCOMB poisoned");
            }
        }
        assert!(ra.is_err() || rb.is_err());
    });
}

/// MCS under LockCs: the `tail` SWAP enqueue, successor link Release, local
/// `locked` spin, and both unlock paths (tail CAS back to empty vs. waiting
/// for the successor link) must all transfer the critical section race-free.
#[test]
fn mcs_lock_cs_mutual_exclusion() {
    loom::model(|| {
        let cs = Arc::new(LockCs::<u64, McsLock, CounterFn>::new(0, fai as CounterFn));
        let mut a = cs.handle();
        let t = {
            let cs = Arc::clone(&cs);
            loom::thread::spawn(move || {
                let mut b = cs.handle();
                b.apply(0, 0)
            })
        };
        let ra = a.apply(0, 0);
        let rb = t.join().unwrap();
        let mut seen = [ra, rb];
        seen.sort_unstable();
        assert_eq!(seen, [0, 1]);
        drop(a);
        let cs = Arc::try_unwrap(cs).unwrap_or_else(|_| panic!("handles alive"));
        assert_eq!(cs.into_state(), 2);
    });
}

/// TAS lock hand-off: the Acquire SWAP / Release store pair is the only
/// edge; the Relaxed test loop must stay a hint.
#[test]
fn tas_lock_cs_mutual_exclusion() {
    loom::model(|| {
        let cs = Arc::new(LockCs::<u64, TasLock, CounterFn>::new(0, fai as CounterFn));
        let mut a = cs.handle();
        let t = {
            let cs = Arc::clone(&cs);
            loom::thread::spawn(move || {
                let mut b = cs.handle();
                b.apply(0, 0)
            })
        };
        let ra = a.apply(0, 0);
        let rb = t.join().unwrap();
        let mut seen = [ra, rb];
        seen.sort_unstable();
        assert_eq!(seen, [0, 1]);
    });
}

/// SHM-SERVER, one client, two ops: the server (a model thread here) runs
/// each exactly once, in order, and hands the state back at shutdown. The
/// edges under test are the channel's `status` REQ Release → server
/// Acquire and DONE Release → client Acquire.
#[test]
fn shm_server_one_client_exactly_once() {
    loom::model(|| {
        let server = ShmServer::spawn(1, 0u64, fai as CounterFn);
        let mut c = server.client();
        assert_eq!(c.apply(0, 0), 0);
        assert_eq!(c.apply(0, 0), 1);
        drop(c);
        assert_eq!(server.shutdown(), 2);
    });
}

/// Loom regression model for the SHM-SERVER poison protocol: a server whose
/// dispatch panics never answers, so its client must panic with the poison
/// report instead of spinning on its channel forever (loom's step bound
/// flags that wedge), and shutdown reports the dead server.
#[test]
fn shm_server_panic_poisons_the_client() {
    loom::model(|| {
        let server = ShmServer::spawn(1, 0u64, boom as CounterFn);
        let mut c = server.client();
        let err = catch_unwind(AssertUnwindSafe(|| c.apply(1, 0))).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("SHM-SERVER poisoned"), "got: {msg}");
        assert!(catch_unwind(AssertUnwindSafe(|| server.shutdown())).is_err());
    });
}

/// MP-SERVER, one client, one op: the server (a model thread here) runs it
/// exactly once, answers over the client's queue, and hands the state back
/// at shutdown — whose stop request may overtake nothing it has not
/// served. Request and reply cross the real `WordQueue` ring.
#[test]
fn mp_server_one_client_exactly_once() {
    loom::model(|| {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(1)));
        let server = MpServer::spawn(fabric.register_any().unwrap(), 0u64, fai as CounterFn);
        let mut c = server.client(fabric.register_any().unwrap());
        assert_eq!(c.apply(0, 0), 0);
        drop(c);
        assert_eq!(server.shutdown(), 1);
    });
}

/// MP-SERVER's batched step, as the runtime's shards serve with it: the
/// main thread steps a `ServerCore` with a budget of 2 until it has served
/// four requests, two from a client thread's `request`s and two that a
/// second client sent back to back before the first step, as a runtime
/// session's batch does, and collects after. No step serves more than its
/// budget, though three requests can be queued at once, and every request
/// is answered exactly once with its own result, in its sender's order:
/// the fetch-and-increment results are a permutation of 0..4. (Two
/// `request`ing client threads beside the server explore 88 059 executions
/// at bound 2, far past the 10 000-execution cap.)
///
/// Negative control: a step that sends each reply to its batch's first
/// sender fails the model.
#[test]
fn mp_server_batched_step_answers_each_request_once() {
    loom::model(|| {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(1)));
        let mut core = ServerCore::new(fabric.register_any().unwrap(), 0u64, fai as CounterFn);
        let server = core.id();
        let mut a = fabric.register_any().unwrap();
        let mut b = fabric.register_any().unwrap();
        let t = loom::thread::spawn(move || {
            let arena = Arena::new(0, "unused");
            let mut m = ClientSide::with_endpoint(&arena, &mut a);
            [0; 2].map(|_| block_on(request(&mut m, server.to_word(), 0, 0)))
        });
        // Unpreempted, the client's first request goes in ahead of the
        // pair: the first execution already steps a mixed batch with a
        // request left over.
        loom::thread::yield_now();
        for _ in 0..2 {
            let req = wire::request(b.id().to_word(), 0, 0);
            b.send(server, &req).unwrap();
        }
        let mut served = 0;
        while served < 4 {
            let n = core.serve_pending(&mut (), 2);
            assert!(n <= 2, "a step served {n}");
            if n == 0 {
                loom::thread::yield_now();
            }
            served += n;
        }
        let mut got = vec![b.receive1(), b.receive1()];
        assert!(got[0] < got[1], "replies out of request order: {got:?}");
        got.extend(t.join().unwrap());
        got.sort_unstable();
        assert_eq!(got, [0, 1, 2, 3]);
        assert_eq!(core.into_state(), 4);
    });
}

/// Loom regression model for the MP-SERVER poison protocol: a server whose
/// dispatch panics never replies, so its client must panic with the poison
/// report instead of waiting for the reply forever (loom's step bound flags
/// that wedge), and shutdown reports the dead server.
#[test]
fn mp_server_panic_poisons_the_client() {
    loom::model(|| {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(1)));
        let server = MpServer::spawn(fabric.register_any().unwrap(), 0u64, boom as CounterFn);
        let mut c = server.client(fabric.register_any().unwrap());
        let err = catch_unwind(AssertUnwindSafe(|| c.apply(1, 0))).unwrap_err();
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("MP-SERVER poisoned"), "got: {msg}");
        assert!(catch_unwind(AssertUnwindSafe(|| server.shutdown())).is_err());
    });
}

/// Loom regression model for the lock's poison protocol: a critical section
/// that unwinds must poison and release the MCS lock. The other thread then
/// either ran first (and saw the untouched state, 0) or panics with the
/// poison report: it never runs on the torn state and never spins on a lock
/// nobody releases. `into_state` refuses the torn state.
#[test]
fn mcs_lock_cs_panic_poisons_waiters() {
    loom::model(|| {
        let cs = Arc::new(LockCs::<u64, McsLock, CounterFn>::new(0, torn as CounterFn));
        let mut a = cs.handle();
        let t = {
            let cs = Arc::clone(&cs);
            loom::thread::spawn(move || {
                let mut b = cs.handle();
                catch_unwind(AssertUnwindSafe(|| b.apply(0, 0)))
            })
        };
        let ra = catch_unwind(AssertUnwindSafe(|| a.apply(1, 0)));
        assert_expected_panic(ra.unwrap_err().as_ref(), "dispatch exploded");
        match t.join().unwrap() {
            Ok(v) => assert_eq!(v, 0, "ran on the torn state"),
            Err(e) => assert_expected_panic(e.as_ref(), "LOCK poisoned"),
        }
        drop(a);
        let cs = Arc::try_unwrap(cs).unwrap_or_else(|_| panic!("handles alive"));
        let err = catch_unwind(AssertUnwindSafe(|| cs.into_state())).unwrap_err();
        assert_expected_panic(err.as_ref(), "LOCK poisoned");
    });
}

/// The Treiber stack, two threads each pushing one value and then popping
/// one: neither pop can find the stack empty (its own push came first and
/// at most one other value was taken), and every pushed value is popped
/// exactly once. The second thread's handle retires its cached node to the
/// free list as it ends, racing the first thread's operations.
#[test]
fn treiber_push_pop_pairs_pop_each_value_once() {
    loom::model(|| {
        let s = Arc::new(TreiberStack::new(4));
        let mut a = s.handle();
        let t = {
            let mut b = s.handle();
            loom::thread::spawn(move || {
                b.push(2);
                b.pop()
            })
        };
        a.push(1);
        let ra = a
            .pop()
            .expect("a pop after its own push found the stack empty");
        let rb = t
            .join()
            .unwrap()
            .expect("a pop after its own push found the stack empty");
        let mut seen = [ra, rb];
        seen.sort_unstable();
        assert_eq!(seen, [1, 2]);
        assert_eq!(a.pop(), None);
    });
}

/// The Treiber stack's ABA shape: with nodes `i` over `j` on the stack, one
/// thread pops while the other pops `i` and `j` and pushes a value in `i`
/// again (its cached node; `j` went to the free list). The first thread
/// may hold the stale `next` = `j` across all three; only the tag makes its
/// CAS fail. Every value is popped exactly once, and a pop finds the stack
/// empty only between the second thread's last pop and its push.
///
/// Negative control: without the tag bump in `stack::retop`, the stale CAS
/// installs the freed `j` and the drain pops 1 twice.
#[test]
fn treiber_aba_needs_the_tag() {
    loom::model(|| {
        let s = Arc::new(TreiberStack::new(4));
        let mut b = s.handle();
        b.push(1);
        b.push(2);
        let t = {
            let mut a = s.handle();
            loom::thread::spawn(move || a.pop())
        };
        let first = b.pop();
        let second = b.pop();
        b.push(3);
        let ra = t.join().unwrap();
        if ra.is_none() {
            assert_eq!(
                (first, second),
                (Some(2), Some(1)),
                "an empty pop of a non-empty stack"
            );
        }
        let mut seen: Vec<u64> = [ra, first, second].into_iter().flatten().collect();
        while let Some(v) = b.pop() {
            seen.push(v);
        }
        seen.sort_unstable();
        assert_eq!(seen, [1, 2, 3]);
    });
}

/// LCRQ over a pool of two rings of two cells. The main thread's third
/// enqueue closes ring 0 and appends ring 1; then, racing the other
/// thread's one dequeue, its dequeues drain ring 0 and retire it, and its
/// sixth enqueue closes ring 1 and reuses ring 0. The other thread may
/// hold ring 0 through all of that (its hazard makes the reuse wait for
/// it), or have read the head before the retirement and publish its
/// hazard after the reuse. Every value is
/// dequeued exactly once, the main thread's in order, and the other
/// thread's value is older than every value still queued after it
/// returned.
///
/// Negative control: without `protect`'s re-read, the late thread takes 6
/// from ring 0's new incarnation while 4 and 5 wait in ring 1.
#[test]
fn lcrq_reuses_a_retired_ring_only_after_its_holders() {
    loom::model(|| {
        let q = Arc::new(Lcrq::new(1, 2, 2));
        let mut a = q.handle();
        for v in 1..=3 {
            a.enqueue(v);
        }
        let t = {
            let mut b = q.handle();
            loom::thread::spawn(move || b.dequeue())
        };
        let mut mine = Vec::new();
        mine.extend((0..3).filter_map(|_| a.dequeue()));
        for v in 4..=6 {
            a.enqueue(v);
        }
        let theirs = t.join().unwrap();
        let left: Vec<u64> = std::iter::from_fn(|| a.dequeue()).collect();
        if let Some(v) = theirs {
            assert!(
                left.iter().all(|&w| w > v),
                "{v} dequeued while older {left:?} stayed queued"
            );
        }
        mine.extend(&left);
        assert!(
            mine.is_sorted(),
            "one thread dequeued out of order: {mine:?}"
        );
        mine.extend(theirs);
        mine.sort_unstable();
        assert_eq!(mine, [1, 2, 3, 4, 5, 6]);
    });
}

/// The two-lock queue of capacity 1, each half under its own TAS lock: one
/// thread enqueues 1 and then 2, retrying while full, so the second
/// enqueue reuses the node the first dequeue freed; the other dequeues
/// twice, retrying while empty. Each enqueue first writes its value's
/// payload cell and each dequeue reads it after: only the enqueue side's
/// Release on `next` and the dequeue side's Acquire order the two, so a
/// weaker edge is a race on the cell.
///
/// Negative control: `next`'s publish in `TwoLockLayout::enqueue` weakened
/// to Relaxed races on the payload.
#[test]
fn two_lock_queue_publishes_through_next_and_reuses_nodes() {
    type Half = fn(&mut Arc<TwoLockQueue>, u64, u64) -> u64;
    loom::model(|| {
        let q = TwoLockQueue::new(1);
        let enq = LockCs::<_, TasLock, _>::new(Arc::clone(&q), TwoLockQueue::dispatch as Half);
        let deq = Arc::new(LockCs::<_, TasLock, _>::new(
            q,
            TwoLockQueue::dispatch as Half,
        ));
        let payload: Arc<[UnsafeCell<u64>; 2]> = Arc::new([UnsafeCell::new(0), UnsafeCell::new(0)]);
        let t = {
            let (deq, payload) = (Arc::clone(&deq), Arc::clone(&payload));
            loom::thread::spawn(move || {
                let mut d = deq.handle();
                let mut got = Vec::new();
                while got.len() < 2 {
                    match d.apply(ops::DEQ, 0) {
                        EMPTY => loom::thread::yield_now(),
                        // SAFETY: the enqueuer wrote the cell before
                        // publishing `v`; loom checks that ordering.
                        v => got.push((v, payload[v as usize - 1].with(|p| unsafe { *p }))),
                    }
                }
                got
            })
        };
        let mut e = enq.handle();
        for v in 1..=2u64 {
            // SAFETY: the dequeuer reads the cell only after `v` is queued.
            payload[v as usize - 1].with_mut(|p| unsafe { *p = 10 * v });
            while e.apply(ops::ENQ, v) == FULL {
                loom::thread::yield_now();
            }
        }
        assert_eq!(t.join().unwrap(), [(1, 10), (2, 20)]);
    });
}
