//! A parallelization-framework work queue — the use case the paper's
//! introduction motivates ("fast synchronization on simple concurrent
//! objects, such as queues, is key to the performance of parallelization
//! frameworks").
//!
//! A coordinator enqueues work items into a linearizable FIFO backed by
//! HYBCOMB (the paper's best construction that needs no dedicated core);
//! worker threads dequeue items, compute, and accumulate results through a
//! second HYBCOMB-protected reduction variable.
//!
//! Run with: `cargo run --release --example task_queue`

use std::sync::Arc;

use mpsync::objects::queue::{CoarseQueue, CsQueue};
use mpsync::objects::ConcurrentQueue;
use mpsync::sync::{ApplyOp, HybComb};
use mpsync::udn::{Fabric, FabricConfig};

const WORKERS: usize = 4;
const TASKS: u64 = 50_000;

type QueueFn = fn(&mut CoarseQueue, u64, u64) -> u64;

fn reduction_cs(state: &mut u64, _op: u64, arg: u64) -> u64 {
    *state = state.wrapping_add(arg);
    *state
}

/// The per-task computation: a little integer crunching.
fn process(task: u64) -> u64 {
    (1..=task % 97).map(|x| x * x).sum::<u64>() % 1009
}

fn main() {
    let fabric = Arc::new(Fabric::new(FabricConfig::new(16)));
    let threads = WORKERS + 1; // workers + coordinator

    let queue = Arc::new(HybComb::new(
        threads,
        200,
        // Room for every task and the pills: the coordinator may finish
        // before any worker starts.
        CoarseQueue::new(TASKS + WORKERS as u64),
        CoarseQueue::dispatch as QueueFn,
    ));
    let sum = Arc::new(HybComb::new(
        threads,
        200,
        0u64,
        reduction_cs as fn(&mut u64, u64, u64) -> u64,
    ));

    let mut joins = Vec::new();
    for w in 0..WORKERS {
        let mut q = CsQueue::new(queue.handle(fabric.register_any().unwrap()));
        let mut acc = sum.handle(fabric.register_any().unwrap());
        joins.push(std::thread::spawn(move || {
            let mut processed = 0u64;
            let mut local = 0u64;
            loop {
                match q.dequeue() {
                    Some(task) if task == u64::MAX - 1 => break, // poison pill
                    Some(task) => {
                        local = local.wrapping_add(process(task));
                        processed += 1;
                        // Flush the local accumulator through the shared
                        // reduction every so often.
                        if processed.is_multiple_of(1024) {
                            acc.apply(0, local);
                            local = 0;
                        }
                    }
                    None => std::hint::spin_loop(),
                }
            }
            acc.apply(0, local);
            (w, processed)
        }));
    }

    // Coordinator: enqueue all tasks, then one poison pill per worker.
    let mut q = CsQueue::new(queue.handle(fabric.register_any().unwrap()));
    for t in 0..TASKS {
        q.enqueue(t);
    }
    for _ in 0..WORKERS {
        q.enqueue(u64::MAX - 1);
    }

    let mut total_processed = 0;
    for j in joins {
        let (w, processed) = j.join().unwrap();
        println!("worker {w}: {processed} tasks");
        total_processed += processed;
    }
    drop(q);

    let expected: u64 = (0..TASKS).fold(0u64, |a, t| a.wrapping_add(process(t)));
    let mut check = sum.handle(fabric.register_any().unwrap());
    let got = check.apply(0, 0);
    drop(check);
    println!("tasks processed: {total_processed} / {TASKS}");
    println!("reduction      : {got} (expected {expected})");
    assert_eq!(total_processed, TASKS);
    assert_eq!(got, expected);
    println!(
        "queue combining rate: {:.1} ops/round",
        queue.stats().combining_rate()
    );
}
