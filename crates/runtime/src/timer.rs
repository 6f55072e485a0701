//! A hierarchical timer wheel driven from the shard serve loop.
//!
//! TTL-style applications (the `mpsync-apps` session store) need deadlines
//! that fire *inside* a shard's mutual exclusion, without a dedicated timer
//! thread racing the executor. The runtime's answer mirrors the kernel's
//! classic design: a hierarchical wheel of [`LEVELS`] levels × [`SLOTS`]
//! slots, where level `l` buckets deadlines `SLOTS^l` ticks apart. Insert
//! and cancel are O(1); advancing cascades at most one higher-level slot
//! per window boundary.
//!
//! The wheel itself is a plain sequential structure. It becomes safe under
//! concurrency the same way every other piece of shard state does: it lives
//! *inside* the shard state `S`, and the shard's executor — server thread,
//! reactor tick, combiner, or lock holder — is the only thing that touches
//! it. States opt in by implementing [`Expire`]; the runtime then runs the
//! expiry pass from [`ShardCore::tick`](crate::Runtime) (idle and batch
//! boundaries on the MP backends) and from the dispatch path itself on the
//! inline backends (every executed operation sweeps due timers first), so
//! expiry is linearized against regular operations on every backend.
//!
//! Timestamps are nanoseconds on the process-wide monotonic clock
//! [`mono_ns`] — *not* `telemetry::now_ns()`, which reads 0 when the
//! `telemetry` feature is off.

use std::collections::HashMap;
use std::sync::OnceLock;
use std::time::Instant;

/// Slots per wheel level (64, so slot indexing is a shift+mask).
pub const SLOTS: usize = 64;
/// Wheel levels. Four levels of 64 slots at the default 1 ms tick cover
/// deadlines ~194 days out before the overflow list is touched.
pub const LEVELS: usize = 4;

const SLOT_BITS: u32 = 6;

/// Process-wide monotonic clock, nanoseconds since the first call.
///
/// All wheel deadlines and [`Expire`] timestamps use this clock. It is
/// deliberately independent of the telemetry clock (which is compiled to a
/// constant 0 without the `telemetry` feature).
pub fn mono_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

/// Shard states with timer-driven expiry, served by the runtime's expiry
/// pass (see [`Runtime::new_expiring`](crate::Runtime::new_expiring)).
///
/// Both methods run under the shard's mutual exclusion, exactly like a
/// dispatched operation; `expire` may mutate the state freely.
pub trait Expire {
    /// Earliest pending deadline on the [`mono_ns`] clock, if any.
    fn next_deadline_ns(&mut self) -> Option<u64>;
    /// Fires everything due at or before `now_ns`.
    fn expire(&mut self, now_ns: u64);
}

/// One armed timer: id, exact deadline, payload.
#[derive(Debug, Clone)]
struct Entry<T> {
    id: u64,
    deadline_ns: u64,
    item: T,
}

/// A timer that [`TimerWheel::advance`] fired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Expired<T> {
    /// The id [`TimerWheel::insert`] returned.
    pub id: u64,
    /// The deadline the timer was armed for.
    pub deadline_ns: u64,
    /// The payload.
    pub item: T,
}

/// Where an entry currently lives (for O(1)-ish cancel).
#[derive(Clone, Copy)]
enum Place {
    Slot { level: u8, slot: u8 },
    Overflow,
}

/// A hierarchical timer wheel. Deadlines are absolute nanoseconds on
/// whatever clock the caller advances with (the runtime uses [`mono_ns`]);
/// entries fire once the wheel is advanced *past* their tick, so firing
/// lags the exact deadline by at most one tick.
pub struct TimerWheel<T> {
    tick_ns: u64,
    /// Ticks fully processed: every entry with `tick <= now_tick` has fired.
    now_tick: u64,
    next_id: u64,
    len: usize,
    levels: Vec<Vec<Vec<Entry<T>>>>,
    /// Deadlines too far out for the top level; re-examined when the top
    /// level wraps.
    overflow: Vec<Entry<T>>,
    index: HashMap<u64, Place>,
    /// Cached earliest pending deadline; `None` = must recompute.
    next_min: Option<Option<u64>>,
    /// Scratch for advance (reused allocation).
    fired: Vec<Entry<T>>,
}

impl<T> TimerWheel<T> {
    /// A wheel with the given tick resolution (firing granularity).
    ///
    /// # Panics
    ///
    /// Panics if `tick_ns` is 0.
    pub fn new(tick_ns: u64) -> Self {
        assert!(tick_ns > 0, "timer wheel tick must be positive");
        Self {
            tick_ns,
            now_tick: 0,
            next_id: 1,
            len: 0,
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            overflow: Vec::new(),
            index: HashMap::new(),
            next_min: Some(None),
            fired: Vec::new(),
        }
    }

    /// Armed timers currently pending.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no timer is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Arms a timer for `deadline_ns`; returns its cancellation id.
    /// Deadlines in the past fire on the next [`TimerWheel::advance`].
    pub fn insert(&mut self, deadline_ns: u64, item: T) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let entry = Entry {
            id,
            deadline_ns,
            item,
        };
        self.place(entry);
        self.len += 1;
        self.next_min = match self.next_min {
            Some(Some(min)) => Some(Some(min.min(deadline_ns))),
            Some(None) => Some(Some(deadline_ns)),
            // Dirty: an unknown smaller deadline may exist — stay dirty.
            None => None,
        };
        id
    }

    /// Disarms timer `id`, returning its payload if it had not fired.
    pub fn cancel(&mut self, id: u64) -> Option<T> {
        let place = self.index.remove(&id)?;
        let bucket = match place {
            Place::Slot { level, slot } => &mut self.levels[level as usize][slot as usize],
            Place::Overflow => &mut self.overflow,
        };
        let pos = bucket
            .iter()
            .position(|e| e.id == id)
            .expect("timer index points at a live entry");
        let entry = bucket.swap_remove(pos);
        self.len -= 1;
        self.next_min = None; // may have removed the minimum
        Some(entry.item)
    }

    /// Exact earliest pending deadline, if any (cached; recomputed lazily
    /// after fires and cancels).
    pub fn next_deadline_ns(&mut self) -> Option<u64> {
        if let Some(cached) = self.next_min {
            return cached;
        }
        let mut min: Option<u64> = None;
        let fold = |min: Option<u64>, e: &Entry<T>| match min {
            Some(m) => Some(m.min(e.deadline_ns)),
            None => Some(e.deadline_ns),
        };
        for level in &self.levels {
            for slot in level {
                min = slot.iter().fold(min, fold);
            }
        }
        min = self.overflow.iter().fold(min, fold);
        self.next_min = Some(min);
        min
    }

    /// Advances the wheel to `now_ns`, firing every timer whose deadline
    /// tick has passed. Fired timers are appended to `out` ordered by
    /// `(deadline, id)` — the order a `BTreeMap<(deadline, id), T>` oracle
    /// would drain them in.
    pub fn advance(&mut self, now_ns: u64, out: &mut Vec<Expired<T>>) {
        let target = now_ns / self.tick_ns;
        let mut fired = std::mem::take(&mut self.fired);
        while self.now_tick < target {
            if self.len == 0 {
                self.now_tick = target;
                break;
            }
            self.now_tick += 1;
            let t = self.now_tick;
            // A window boundary at level l opens a new level-(l+1) slot:
            // cascade its entries down before firing this tick's slot.
            if t.trailing_zeros() >= SLOT_BITS {
                self.cascade(1);
                if t.trailing_zeros() >= 2 * SLOT_BITS {
                    self.cascade(2);
                    if t.trailing_zeros() >= 3 * SLOT_BITS {
                        self.cascade(3);
                        if t.trailing_zeros() >= 4 * SLOT_BITS {
                            self.cascade_overflow();
                        }
                    }
                }
            }
            let slot = (t as usize) & (SLOTS - 1);
            for e in self.levels[0][slot].drain(..) {
                self.index.remove(&e.id);
                self.len -= 1;
                fired.push(e);
            }
        }
        if !fired.is_empty() {
            self.next_min = None;
            fired.sort_by_key(|e| (e.deadline_ns, e.id));
            out.extend(fired.drain(..).map(|e| Expired {
                id: e.id,
                deadline_ns: e.deadline_ns,
                item: e.item,
            }));
        }
        self.fired = fired;
    }

    /// Buckets `entry` by the distance of its deadline tick from
    /// `now_tick` and records its place in the cancel index.
    fn place(&mut self, entry: Entry<T>) {
        // Never fire early: bucket by the first tick whose start is ≥ the
        // deadline, which `advance` drains once `now_tick` reaches it.
        let tick = (entry.deadline_ns / self.tick_ns + 1).max(self.now_tick + 1);
        let delta = tick - self.now_tick;
        let mut level = 0usize;
        while level < LEVELS && delta >= (SLOTS as u64).pow(level as u32 + 1) {
            level += 1;
        }
        let place = if level == LEVELS {
            self.overflow.push(entry);
            Place::Overflow
        } else {
            let slot = ((tick >> (SLOT_BITS * level as u32)) as usize) & (SLOTS - 1);
            self.levels[level][slot].push(entry);
            Place::Slot {
                level: level as u8,
                slot: slot as u8,
            }
        };
        let id = match place {
            Place::Slot { level, slot } => {
                self.levels[level as usize][slot as usize]
                    .last()
                    .expect("just pushed")
                    .id
            }
            Place::Overflow => self.overflow.last().expect("just pushed").id,
        };
        self.index.insert(id, place);
    }

    /// Re-buckets the level-`level` slot that `now_tick` just entered.
    fn cascade(&mut self, level: usize) {
        let slot = ((self.now_tick >> (SLOT_BITS * level as u32)) as usize) & (SLOTS - 1);
        let entries = std::mem::take(&mut self.levels[level][slot]);
        for e in entries {
            self.index.remove(&e.id);
            self.place(e);
        }
    }

    /// Re-buckets overflow entries that now fit in the wheel.
    fn cascade_overflow(&mut self) {
        let entries = std::mem::take(&mut self.overflow);
        for e in entries {
            self.index.remove(&e.id);
            self.place(e);
        }
    }
}

impl<T> std::fmt::Debug for TimerWheel<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimerWheel")
            .field("tick_ns", &self.tick_ns)
            .field("now_tick", &self.now_tick)
            .field("len", &self.len)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: u64 = 1_000; // 1 µs ticks for fast tests

    fn drain(w: &mut TimerWheel<u64>, now_ns: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        w.advance(now_ns, &mut out);
        out.into_iter().map(|e| (e.deadline_ns, e.item)).collect()
    }

    #[test]
    fn fires_in_deadline_order_within_a_tick() {
        let mut w = TimerWheel::new(TICK);
        w.insert(5 * TICK + 3, 3);
        w.insert(5 * TICK + 1, 1);
        w.insert(5 * TICK + 2, 2);
        assert_eq!(drain(&mut w, 5 * TICK), vec![]);
        assert_eq!(
            drain(&mut w, 6 * TICK),
            vec![(5 * TICK + 1, 1), (5 * TICK + 2, 2), (5 * TICK + 3, 3)]
        );
        assert!(w.is_empty());
    }

    #[test]
    fn fires_at_most_one_tick_late_and_never_early() {
        let mut w = TimerWheel::new(TICK);
        for d in [1u64, TICK - 1, TICK, 10 * TICK + 5] {
            w.insert(d, d);
        }
        // Nothing fires before its deadline tick has fully passed.
        assert_eq!(drain(&mut w, TICK - 1), vec![]);
        assert_eq!(
            drain(&mut w, 2 * TICK),
            vec![(1, 1), (TICK - 1, TICK - 1), (TICK, TICK)]
        );
        assert_eq!(drain(&mut w, 3 * TICK), vec![]);
        assert_eq!(
            drain(&mut w, 12 * TICK),
            vec![(10 * TICK + 5, 10 * TICK + 5)]
        );
    }

    #[test]
    fn cancel_prevents_firing_and_returns_item() {
        let mut w = TimerWheel::new(TICK);
        let a = w.insert(3 * TICK, 100);
        let b = w.insert(3 * TICK, 200);
        assert_eq!(w.cancel(a), Some(100));
        assert_eq!(w.cancel(a), None, "double cancel is a no-op");
        assert_eq!(w.len(), 1);
        assert_eq!(drain(&mut w, 10 * TICK), vec![(3 * TICK, 200)]);
        assert_eq!(w.cancel(b), None, "fired timers cannot be cancelled");
    }

    #[test]
    fn next_deadline_tracks_insert_cancel_fire() {
        let mut w = TimerWheel::new(TICK);
        assert_eq!(w.next_deadline_ns(), None);
        let a = w.insert(9 * TICK, 0);
        assert_eq!(w.next_deadline_ns(), Some(9 * TICK));
        let _b = w.insert(4 * TICK, 1);
        assert_eq!(w.next_deadline_ns(), Some(4 * TICK));
        w.cancel(a);
        assert_eq!(w.next_deadline_ns(), Some(4 * TICK));
        drain(&mut w, 100 * TICK);
        assert_eq!(w.next_deadline_ns(), None);
    }

    #[test]
    fn cascades_across_levels() {
        let mut w = TimerWheel::new(TICK);
        // One deadline per level: 10 ticks, ~100 windows, ~2 level-2
        // windows, ~1.5 level-3 windows out.
        let deadlines = [
            10 * TICK,
            100 * 64 * TICK,
            2 * 64 * 64 * 64 * TICK + 7,
            3 * 64 * 64 * 64 * 64 * TICK / 2,
        ];
        for (i, &d) in deadlines.iter().enumerate() {
            w.insert(d, i as u64);
        }
        let mut fired = Vec::new();
        for &d in &deadlines {
            // Advance just past each deadline's tick.
            fired.extend(drain(&mut w, d + TICK));
        }
        assert_eq!(
            fired,
            deadlines
                .iter()
                .enumerate()
                .map(|(i, &d)| (d, i as u64))
                .collect::<Vec<_>>()
        );
        assert!(w.is_empty());
    }

    #[test]
    fn empty_wheel_fast_forwards_far_jumps() {
        let mut w = TimerWheel::new(1);
        assert_eq!(drain(&mut w, u64::MAX / 2), vec![]);
        // Still usable after the jump.
        w.insert(u64::MAX / 2 + 10, 42);
        assert_eq!(
            drain(&mut w, u64::MAX / 2 + 20),
            vec![(u64::MAX / 2 + 10, 42)]
        );
    }

    #[test]
    fn mono_clock_is_monotonic() {
        let a = mono_ns();
        let b = mono_ns();
        assert!(b >= a);
    }
}
