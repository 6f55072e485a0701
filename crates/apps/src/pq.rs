//! Matchmaking priority queues: pop-min with FIFO order within a priority.
//!
//! Each routed key names an independent queue on its shard; tasks are
//! packed `(priority, item)` words ([`pack_task`]). `PQ_POP` is the
//! combining-friendly shape: a burst of pops against a hot queue rides one
//! delegation batch, and the suite facet's `pop_n` issues them
//! back-to-back so the combiner or MP-SERVER folds the burst into one
//! critical-section pass.

use std::collections::{BTreeMap, HashMap};

use mpsync_objects::EMPTY;
use mpsync_telemetry as telemetry;
use mpsync_telemetry::Counter;

use crate::ops;

/// Packs a task for the wire: priority in the high 32 bits (lower value =
/// served first), item id in the low 32.
pub fn pack_task(priority: u32, item: u32) -> u64 {
    ((priority as u64) << 32) | item as u64
}

/// Inverse of [`pack_task`].
pub fn unpack_task(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// One queue: `(priority, seq)` → item. `seq` makes same-priority tasks
/// FIFO and the pop order total.
#[derive(Debug, Default)]
struct Queue {
    tasks: BTreeMap<(u64, u64), u64>,
    seq: u64,
}

/// One shard's queues.
#[derive(Debug, Default)]
pub(crate) struct PqState {
    queues: HashMap<u64, Queue>,
}

impl PqState {
    pub(crate) fn tasks(&self) -> usize {
        self.queues.values().map(|q| q.tasks.len()).sum()
    }
}

/// Sequential dispatcher for the `PQ_*` band.
pub(crate) fn dispatch(state: &mut PqState, key: u64, op: u64, arg: u64) -> u64 {
    match op {
        ops::PQ_PUSH => {
            debug_assert_ne!(arg, EMPTY, "EMPTY sentinel is not a storable task");
            let (prio, item) = unpack_task(arg);
            let q = state.queues.entry(key).or_default();
            let seq = q.seq;
            q.seq += 1;
            q.tasks.insert((prio as u64, seq), item as u64);
            q.tasks.len() as u64
        }
        ops::PQ_POP => match state.queues.get_mut(&key).and_then(|q| q.tasks.pop_first()) {
            Some(((prio, _), item)) => {
                telemetry::count(Counter::AppPqPops, 1);
                pack_task(prio as u32, item as u32)
            }
            None => EMPTY,
        },
        ops::PQ_PEEK => state
            .queues
            .get(&key)
            .and_then(|q| q.tasks.first_key_value())
            .map(|(&(prio, _), &item)| pack_task(prio as u32, item as u32))
            .unwrap_or(EMPTY),
        ops::PQ_LEN => state.queues.get(&key).map_or(0, |q| q.tasks.len() as u64),
        _ => panic!("pq: unknown opcode {op}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pq(state: &mut PqState, op: u64, key: u64, arg: u64) -> u64 {
        dispatch(state, key, op, arg)
    }

    #[test]
    fn pops_in_priority_then_fifo_order() {
        let mut s = PqState::default();
        pq(&mut s, ops::PQ_PUSH, 1, pack_task(5, 100));
        pq(&mut s, ops::PQ_PUSH, 1, pack_task(1, 200));
        pq(&mut s, ops::PQ_PUSH, 1, pack_task(5, 101));
        pq(&mut s, ops::PQ_PUSH, 1, pack_task(3, 300));
        assert_eq!(pq(&mut s, ops::PQ_PEEK, 1, 0), pack_task(1, 200));
        assert_eq!(pq(&mut s, ops::PQ_POP, 1, 0), pack_task(1, 200));
        assert_eq!(pq(&mut s, ops::PQ_POP, 1, 0), pack_task(3, 300));
        assert_eq!(pq(&mut s, ops::PQ_POP, 1, 0), pack_task(5, 100), "FIFO");
        assert_eq!(pq(&mut s, ops::PQ_POP, 1, 0), pack_task(5, 101));
        assert_eq!(pq(&mut s, ops::PQ_POP, 1, 0), EMPTY);
    }

    #[test]
    fn queues_are_independent_and_len_tracks() {
        let mut s = PqState::default();
        assert_eq!(pq(&mut s, ops::PQ_PUSH, 1, pack_task(1, 1)), 1);
        assert_eq!(pq(&mut s, ops::PQ_PUSH, 1, pack_task(2, 2)), 2);
        assert_eq!(pq(&mut s, ops::PQ_PUSH, 9, pack_task(1, 9)), 1);
        assert_eq!(pq(&mut s, ops::PQ_LEN, 1, 0), 2);
        assert_eq!(pq(&mut s, ops::PQ_LEN, 9, 0), 1);
        assert_eq!(pq(&mut s, ops::PQ_LEN, 4, 0), 0, "absent queue is empty");
        assert_eq!(pq(&mut s, ops::PQ_POP, 9, 0), pack_task(1, 9));
        assert_eq!(pq(&mut s, ops::PQ_PEEK, 9, 0), EMPTY);
        assert_eq!(s.tasks(), 2);
    }

    #[test]
    fn pack_roundtrips() {
        let (p, i) = unpack_task(pack_task(u32::MAX, 7));
        assert_eq!((p, i), (u32::MAX, 7));
        assert_eq!(unpack_task(pack_task(0, 0)), (0, 0));
    }
}
