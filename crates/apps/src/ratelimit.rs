//! Sharded token-bucket rate limiter.
//!
//! Buckets start *full* (at capacity) when first touched, so a fresh key is
//! admitted immediately. The stored count is raw (unclamped): `RL_FILL` is
//! a plain wrapping fetch-add, and `RL_ACQUIRE`/`RL_PEEK` clamp to
//! capacity at use, so overfilled buckets still admit at most `capacity`
//! tokens in a burst.

use std::collections::BTreeMap;

use mpsync_objects::EMPTY;
use mpsync_telemetry as telemetry;
use mpsync_telemetry::Counter;

use crate::ops;

/// One shard's buckets: key → raw token count.
#[derive(Debug, Default)]
pub(crate) struct RateState {
    buckets: BTreeMap<u64, u64>,
}

impl RateState {
    /// Timer-driven refill: tops every touched bucket up by `amount`,
    /// clamped to `cap` (unlike `RL_FILL`, the background refill never
    /// overfills).
    pub(crate) fn refill_all(&mut self, amount: u64, cap: u64) {
        for tokens in self.buckets.values_mut() {
            *tokens = (*tokens).saturating_add(amount).min(cap);
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.buckets.len()
    }
}

/// Sequential dispatcher for the `RL_*` band.
pub(crate) fn dispatch(state: &mut RateState, cap: u64, key: u64, op: u64, arg: u64) -> u64 {
    match op {
        ops::RL_ACQUIRE => {
            telemetry::count(Counter::AppRateChecks, 1);
            let tokens = state.buckets.entry(key).or_insert(cap);
            *tokens = (*tokens).min(cap);
            if *tokens >= arg {
                *tokens -= arg;
                1
            } else {
                telemetry::count(Counter::AppRateDenied, 1);
                0
            }
        }
        ops::RL_PEEK => state.buckets.get(&key).copied().unwrap_or(cap).min(cap),
        ops::RL_FILL => {
            let tokens = state.buckets.entry(key).or_insert(cap);
            let old = *tokens;
            *tokens = old.wrapping_add(arg);
            old
        }
        ops::RL_SCAN => state
            .buckets
            .range(arg..)
            .next()
            .map(|(&k, _)| k)
            .unwrap_or(EMPTY),
        ops::RL_TOKENS => state.buckets.get(&key).copied().unwrap_or(EMPTY),
        ops::RL_SET => state.buckets.insert(key, arg).unwrap_or(EMPTY),
        _ => panic!("ratelimit: unknown opcode {op}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: u64 = 10;

    fn rl(state: &mut RateState, op: u64, key: u64, arg: u64) -> u64 {
        dispatch(state, CAP, key, op, arg)
    }

    #[test]
    fn fresh_bucket_starts_full_and_drains() {
        let mut s = RateState::default();
        assert_eq!(rl(&mut s, ops::RL_PEEK, 7, 0), CAP);
        assert_eq!(rl(&mut s, ops::RL_ACQUIRE, 7, 4), 1);
        assert_eq!(rl(&mut s, ops::RL_PEEK, 7, 0), 6);
        assert_eq!(rl(&mut s, ops::RL_ACQUIRE, 7, 7), 0, "over-draw denied");
        assert_eq!(rl(&mut s, ops::RL_PEEK, 7, 0), 6, "denial takes nothing");
    }

    #[test]
    fn fill_is_fetch_add_and_acquire_clamps() {
        let mut s = RateState::default();
        assert_eq!(rl(&mut s, ops::RL_ACQUIRE, 3, CAP), 1); // drain to 0
        assert_eq!(rl(&mut s, ops::RL_FILL, 3, 100), 0, "returns old count");
        assert_eq!(rl(&mut s, ops::RL_TOKENS, 3, 0), 100, "raw is unclamped");
        assert_eq!(rl(&mut s, ops::RL_PEEK, 3, 0), CAP, "peek clamps");
        assert_eq!(rl(&mut s, ops::RL_ACQUIRE, 3, CAP), 1);
        assert_eq!(
            rl(&mut s, ops::RL_PEEK, 3, 0),
            0,
            "clamp applies before the draw: one burst of cap, not 100"
        );
    }

    #[test]
    fn refill_all_tops_up_to_cap_only() {
        let mut s = RateState::default();
        rl(&mut s, ops::RL_ACQUIRE, 1, 9); // 1 left
        rl(&mut s, ops::RL_ACQUIRE, 2, 2); // 8 left
        s.refill_all(5, CAP);
        assert_eq!(rl(&mut s, ops::RL_PEEK, 1, 0), 6);
        assert_eq!(rl(&mut s, ops::RL_PEEK, 2, 0), CAP);
        assert_eq!(s.len(), 2, "refill touches only existing buckets");
    }

    #[test]
    fn scan_set_roundtrip() {
        let mut s = RateState::default();
        rl(&mut s, ops::RL_ACQUIRE, 5, 1);
        rl(&mut s, ops::RL_ACQUIRE, 9, 2);
        assert_eq!(rl(&mut s, ops::RL_SCAN, 0, 0), 5);
        assert_eq!(rl(&mut s, ops::RL_SCAN, 0, 6), 9);
        assert_eq!(rl(&mut s, ops::RL_SCAN, 0, 10), EMPTY);
        assert_eq!(rl(&mut s, ops::RL_SET, 11, 3), EMPTY);
        assert_eq!(rl(&mut s, ops::RL_TOKENS, 11, 0), 3);
    }
}
