//! Sequential states and dispatch functions for executor-backed objects.
//!
//! Each function here is a *critical-section body*: it runs under the mutual
//! exclusion provided by whichever executor protects the state. Opcodes are
//! small integers (the paper's §5.2 opcode optimization), and results are
//! single 64-bit words ([`EMPTY`] encodes "nothing").

use std::collections::{BTreeMap, HashMap};

use crate::EMPTY;

/// Opcodes understood by [`counter_dispatch`].
pub mod counter_ops {
    /// Fetch-and-increment; returns the previous value.
    pub const INC: u64 = 0;
    /// Add `arg`; returns the new value.
    pub const ADD: u64 = 1;
    /// Read the current value.
    pub const GET: u64 = 2;
}

/// Critical-section body for a shared `u64` counter (§5.3's microbenchmark).
pub fn counter_dispatch(state: &mut u64, op: u64, arg: u64) -> u64 {
    match op {
        counter_ops::INC => {
            let old = *state;
            *state += 1;
            old
        }
        counter_ops::ADD => {
            *state = state.wrapping_add(arg);
            *state
        }
        counter_ops::GET => *state,
        _ => panic!("counter: unknown opcode {op}"),
    }
}

/// Opcodes understood by [`keyed_counter_dispatch`] (same numbering as
/// [`counter_ops`], applied per key).
pub mod keyed_counter_ops {
    /// Fetch-and-increment `key`'s counter; returns the previous value.
    pub const INC: u64 = super::counter_ops::INC;
    /// Add `arg` to `key`'s counter; returns the new value.
    pub const ADD: u64 = super::counter_ops::ADD;
    /// Read `key`'s counter (0 if never touched).
    pub const GET: u64 = super::counter_ops::GET;
}

/// A family of named counters: the sequential state behind a sharded
/// counter service (each shard owns the keys routed to it).
pub type KeyedCounters = HashMap<u64, u64>;

/// Critical-section body for a keyed counter family.
///
/// Unlike the two-word bodies above, keyed bodies take the routing `key` as
/// an explicit third word — the shape `mpsync-runtime` delivers after
/// unpacking its `(key, op)` request word.
pub fn keyed_counter_dispatch(state: &mut KeyedCounters, key: u64, op: u64, arg: u64) -> u64 {
    let cell = state.entry(key).or_insert(0);
    match op {
        keyed_counter_ops::INC => {
            let old = *cell;
            *cell += 1;
            old
        }
        keyed_counter_ops::ADD => {
            *cell = cell.wrapping_add(arg);
            *cell
        }
        keyed_counter_ops::GET => *cell,
        _ => panic!("keyed counter: unknown opcode {op}"),
    }
}

/// Opcodes understood by [`kv_dispatch`].
pub mod kv_ops {
    /// Read `key`; returns the value or `EMPTY`.
    pub const GET: u64 = 0;
    /// Store `arg` under `key`; returns the previous value or `EMPTY`.
    pub const PUT: u64 = 1;
    /// Remove `key`; returns the removed value or `EMPTY`.
    pub const DEL: u64 = 2;
    /// Add `arg` to `key`'s value (missing keys start at 0); returns the
    /// new value.
    pub const ADD: u64 = 3;
    /// Subtract `arg` from `key`'s value, wrapping (missing keys start at
    /// 0); returns the new value.
    pub const SUB: u64 = 4;
    /// Cursor scan: returns the smallest **present** key ≥ `arg` in this
    /// shard's map, or `EMPTY` if none. The routing `key` is ignored (any
    /// key routed to the shard works as a probe). Together with `GET` this
    /// lets an external driver enumerate a shard's entries without a bulk
    /// frame format — the state-export path used by cluster handoff.
    pub const SCAN: u64 = 5;
}

/// A `u64 → u64` map: the sequential state behind one shard of a key-value
/// store. Ordered so [`kv_ops::SCAN`] can cursor through a shard's keys.
pub type KvMap = BTreeMap<u64, u64>;

/// Critical-section body for a key-value shard (see [`kv_ops`]).
///
/// Values are limited to `EMPTY - 1`; `EMPTY` is the "absent" sentinel in
/// the one-word response format.
pub fn kv_dispatch(state: &mut KvMap, key: u64, op: u64, arg: u64) -> u64 {
    match op {
        kv_ops::GET => state.get(&key).copied().unwrap_or(EMPTY),
        kv_ops::PUT => {
            debug_assert_ne!(arg, EMPTY, "EMPTY sentinel is not storable");
            state.insert(key, arg).unwrap_or(EMPTY)
        }
        kv_ops::DEL => state.remove(&key).unwrap_or(EMPTY),
        kv_ops::ADD => {
            let cell = state.entry(key).or_insert(0);
            *cell = cell.wrapping_add(arg);
            *cell
        }
        kv_ops::SUB => {
            let cell = state.entry(key).or_insert(0);
            *cell = cell.wrapping_sub(arg);
            *cell
        }
        kv_ops::SCAN => state.range(arg..).next().map(|(&k, _)| k).unwrap_or(EMPTY),
        _ => panic!("kv: unknown opcode {op}"),
    }
}

/// State for the variable-length critical section of Figure 4c: an array
/// whose elements are incremented in a loop, `arg` iterations per CS.
pub type ArrayCs = Vec<u64>;

/// Critical-section body for Figure 4c: `arg` loop iterations, one array
/// element increment each (wrapping around the array).
pub fn array_cs_dispatch(state: &mut ArrayCs, _op: u64, arg: u64) -> u64 {
    let n = state.len();
    debug_assert!(n > 0, "array CS needs a non-empty array");
    for i in 0..arg as usize {
        state[i % n] = state[i % n].wrapping_add(1);
    }
    arg
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_ops_work() {
        let mut s = 0u64;
        assert_eq!(counter_dispatch(&mut s, counter_ops::INC, 0), 0);
        assert_eq!(counter_dispatch(&mut s, counter_ops::INC, 0), 1);
        assert_eq!(counter_dispatch(&mut s, counter_ops::ADD, 8), 10);
        assert_eq!(counter_dispatch(&mut s, counter_ops::GET, 0), 10);
    }

    #[test]
    fn array_cs_touches_arg_elements() {
        let mut a = vec![0u64; 4];
        assert_eq!(array_cs_dispatch(&mut a, 0, 6), 6);
        assert_eq!(a, vec![2, 2, 1, 1]);
        assert_eq!(array_cs_dispatch(&mut a, 0, 0), 0);
        assert_eq!(a, vec![2, 2, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "unknown opcode")]
    fn unknown_counter_opcode_panics() {
        counter_dispatch(&mut 0, 99, 0);
    }

    #[test]
    fn keyed_counters_are_independent() {
        let mut s = KeyedCounters::new();
        assert_eq!(
            keyed_counter_dispatch(&mut s, 3, keyed_counter_ops::INC, 0),
            0
        );
        assert_eq!(
            keyed_counter_dispatch(&mut s, 3, keyed_counter_ops::INC, 0),
            1
        );
        assert_eq!(
            keyed_counter_dispatch(&mut s, 9, keyed_counter_ops::INC, 0),
            0
        );
        assert_eq!(
            keyed_counter_dispatch(&mut s, 3, keyed_counter_ops::ADD, 8),
            10
        );
        assert_eq!(
            keyed_counter_dispatch(&mut s, 9, keyed_counter_ops::GET, 0),
            1
        );
    }

    #[test]
    fn kv_ops_roundtrip() {
        let mut s = KvMap::new();
        assert_eq!(kv_dispatch(&mut s, 1, kv_ops::GET, 0), EMPTY);
        assert_eq!(kv_dispatch(&mut s, 1, kv_ops::PUT, 10), EMPTY);
        assert_eq!(kv_dispatch(&mut s, 1, kv_ops::PUT, 20), 10);
        assert_eq!(kv_dispatch(&mut s, 1, kv_ops::ADD, 5), 25);
        assert_eq!(
            kv_dispatch(&mut s, 1, kv_ops::SUB, 30),
            25u64.wrapping_sub(30)
        );
        assert_eq!(
            kv_dispatch(&mut s, 1, kv_ops::DEL, 0),
            25u64.wrapping_sub(30)
        );
        assert_eq!(kv_dispatch(&mut s, 1, kv_ops::GET, 0), EMPTY);
    }

    #[test]
    fn kv_scan_cursors_through_present_keys() {
        let mut s = KvMap::new();
        assert_eq!(kv_dispatch(&mut s, 0, kv_ops::SCAN, 0), EMPTY);
        for k in [10u64, 3, 77] {
            kv_dispatch(&mut s, k, kv_ops::PUT, k + 100);
        }
        // Cursor walk visits every key in ascending order.
        let mut cursor = 0u64;
        let mut seen = Vec::new();
        loop {
            let k = kv_dispatch(&mut s, 0, kv_ops::SCAN, cursor);
            if k == EMPTY {
                break;
            }
            seen.push(k);
            cursor = k + 1;
        }
        assert_eq!(seen, vec![3, 10, 77]);
        // SCAN at an exact present key returns it; past the last, EMPTY.
        assert_eq!(kv_dispatch(&mut s, 0, kv_ops::SCAN, 77), 77);
        assert_eq!(kv_dispatch(&mut s, 0, kv_ops::SCAN, 78), EMPTY);
    }
}
