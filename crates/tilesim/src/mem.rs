//! The memory system: sequentially consistent word memory (the paper's §2
//! model), a directory-based coherence protocol maintaining the
//! single-writer/multiple-reader invariant, and memory controllers that
//! execute atomic operations.
//!
//! Addresses are 64-bit word indices; [`WORDS_PER_LINE`] consecutive words
//! share a cache line, which is the coherence unit. Loads and stores by the
//! simulated cores go through the directory, which charges remote memory
//! references (RMRs) hop-proportional latencies; atomic read-modify-write
//! operations bypass the caches and execute serialized at one of the memory
//! controllers, as on the TILE-Gx.
//!
//! Memory is a flat table of lines indexed by line number, each holding its
//! words beside its directory entry, so an access costs one index. The table
//! grows on first touch up to [`MAX_LINES`]. A line's sharers and sleepers
//! are one bit per core in a `u64`, so a machine has at most 64 cores
//! (ROADMAP item 2 is the wider mesh).

use crate::config::MachineConfig;

pub use mpsync_core::machine::{Addr, WORDS_PER_LINE};

/// The cache line an address belongs to.
#[inline]
pub fn line_of(addr: Addr) -> u64 {
    addr / WORDS_PER_LINE
}

/// Lines the memory can hold. [`AddrAlloc`](crate::algos::AddrAlloc) hands
/// out dense lines from 0, so a line past this bound is a wild address: an
/// access, `peek` or `poke` there panics instead of growing the table.
pub const MAX_LINES: u64 = 1 << 20;

/// Coherence state of one line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LineState {
    /// Not cached anywhere (only in memory).
    Invalid,
    /// Cached read-only by the cores in `sharers`.
    Shared,
    /// Cached read-write by exactly `owner`.
    Modified,
}

/// One cache line: its words and its directory entry.
#[derive(Debug, Clone)]
struct Line {
    values: [u64; WORDS_PER_LINE as usize],
    state: LineState,
    owner: usize,
    /// Bitmask of sharer cores.
    sharers: u64,
    /// Bitmask of the cores asleep in a spin on this line (see
    /// [`Memory::sleep`]); always a subset of `sharers`.
    sleepers: u64,
}

impl Line {
    const EMPTY: Line = Line {
        values: [0; WORDS_PER_LINE as usize],
        state: LineState::Invalid,
        owner: 0,
        sharers: 0,
        sleepers: 0,
    };
}

/// The index of `addr`'s word within its line.
#[inline]
fn word_of(addr: Addr) -> usize {
    (addr % WORDS_PER_LINE) as usize
}

/// Panics unless line `l` is below [`MAX_LINES`].
fn check_line(l: u64) -> usize {
    assert!(
        l < MAX_LINES,
        "line {l} is past the simulated memory's {MAX_LINES} lines: \
         allocate addresses with AddrAlloc, which hands out dense lines from 0"
    );
    l as usize
}

/// Outcome of a memory access: its latency, whether it was an RMR, and
/// which sleeping spinners it invalidated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    /// Total cycles the access occupies the issuing core.
    pub latency: u64,
    /// Whether the access involved the interconnection network.
    pub rmr: bool,
    /// Bitmask of the cores asleep on the line whose copy this access
    /// invalidated (always 0 for reads). Each is no longer asleep.
    pub woken: u64,
}

/// The memory system shared by all simulated cores.
pub struct Memory {
    cfg: MachineConfig,
    /// Every line touched so far and every line below it, by line number.
    lines: Vec<Line>,
    /// Each controller is busy until the given cycle (serialization point
    /// for atomics).
    ctrl_busy_until: Vec<u64>,
    /// Last line each controller operated on (same-line atomics stream;
    /// switching lines pays the §5.4 false-serialization penalty).
    ctrl_last_line: Vec<Option<u64>>,
    /// Each home tile's directory is busy until the given cycle: misses and
    /// invalidations on lines homed there serialize, so a single hot line
    /// (e.g. a CAS-hammered stack top) queues its traffic.
    home_busy_until: Vec<u64>,
    /// Total RMRs charged, per core.
    rmr_count: Vec<u64>,
    /// Total atomics executed, per core.
    atomic_count: Vec<u64>,
}

impl Memory {
    /// Creates zeroed memory for the given machine, which has at most 64
    /// cores (the module doc says why); panics otherwise.
    pub fn new(cfg: MachineConfig) -> Self {
        let cores = cfg.cores();
        assert!(
            cores <= 64,
            "a {cores}-core machine: the coherence bitmasks `sharers` and `sleepers` \
             are u64, so tilesim has at most 64 cores (ROADMAP item 2)"
        );
        Self {
            cfg,
            lines: Vec::new(),
            ctrl_busy_until: vec![0; cfg.controllers],
            ctrl_last_line: vec![None; cfg.controllers],
            home_busy_until: vec![0; cores],
            rmr_count: vec![0; cores],
            atomic_count: vec![0; cores],
        }
    }

    /// Directory home tile of a line (distributed directory, striped).
    fn home(&self, l: u64) -> usize {
        (l % self.cfg.cores() as u64) as usize
    }

    /// Memory controller responsible for a line.
    fn controller(&self, l: u64) -> usize {
        (l % self.cfg.controllers as u64) as usize
    }

    /// Line `l`, growing the table to it on first touch.
    #[inline]
    fn line_mut(&mut self, l: u64) -> &mut Line {
        if l >= self.lines.len() as u64 {
            self.grow(l);
        }
        &mut self.lines[l as usize]
    }

    #[cold]
    fn grow(&mut self, l: u64) {
        self.lines.resize(check_line(l) + 1, Line::EMPTY);
    }

    /// Reserves the home directory of line `l` for one transaction starting
    /// no earlier than `arrival`, returning the transaction's start time.
    fn home_slot(&mut self, home: usize, arrival: u64) -> u64 {
        let start = arrival.max(self.home_busy_until[home]);
        self.home_busy_until[home] = start + self.cfg.dir_occupancy;
        start
    }

    /// Reads a word at cycle `now`. A hit costs `l1_hit`; otherwise the
    /// directory at the line's home is consulted (hop-proportional, and
    /// *serialized at the home* — a hot line queues its misses) and, if
    /// another core owns the line in Modified state, an ownership downgrade
    /// is charged.
    pub fn read(&mut self, core: usize, addr: Addr, now: u64) -> (u64, Access) {
        let cfg = self.cfg;
        let l = line_of(addr);
        let home = self.home(l);
        let bit = 1u64 << core;

        let line = self.line_mut(l);
        let value = line.values[word_of(addr)];
        let hit = match line.state {
            LineState::Modified => line.owner == core,
            LineState::Shared => line.sharers & bit != 0,
            LineState::Invalid => false,
        };
        if hit {
            return (
                value,
                Access {
                    latency: cfg.l1_hit,
                    rmr: false,
                    woken: 0,
                },
            );
        }

        let travel = cfg.hop * cfg.hops(core, home);
        let mut service = cfg.dir_occupancy;
        match line.state {
            LineState::Modified => {
                // Fetch from the current owner and downgrade to Shared.
                service += cfg.coherence_extra + cfg.hop * cfg.hops(home, line.owner);
                line.sharers = (1u64 << line.owner) | bit;
                line.state = LineState::Shared;
            }
            LineState::Shared => {
                line.sharers |= bit;
            }
            LineState::Invalid => {
                line.state = LineState::Shared;
                line.sharers = bit;
            }
        }
        let start = self.home_slot(home, now + travel);
        let latency = (start + service + travel).saturating_sub(now) + cfg.rmr_base;
        self.rmr_count[core] += 1;
        (
            value,
            Access {
                latency,
                rmr: true,
                woken: 0,
            },
        )
    }

    /// Writes a word at cycle `now`. A hit requires Modified ownership;
    /// otherwise the directory upgrade (serialized at the home) invalidates
    /// all other copies.
    pub fn write(&mut self, core: usize, addr: Addr, v: u64, now: u64) -> Access {
        let cfg = self.cfg;
        let l = line_of(addr);
        let home = self.home(l);
        let bit = 1u64 << core;

        let line = self.line_mut(l);
        line.values[word_of(addr)] = v;
        if line.state == LineState::Modified && line.owner == core {
            // No other core holds a copy, so none can be asleep on it.
            return Access {
                latency: cfg.l1_hit,
                rmr: false,
                woken: 0,
            };
        }

        let others = match line.state {
            LineState::Modified if line.owner != core => 1,
            LineState::Shared => (line.sharers & !bit).count_ones() as u64,
            _ => 0,
        };
        line.state = LineState::Modified;
        line.owner = core;
        line.sharers = bit;
        let woken = std::mem::take(&mut line.sleepers);

        let travel = cfg.hop * cfg.hops(core, home);
        let mut service = cfg.dir_occupancy;
        if others > 0 {
            service += cfg.coherence_extra;
        }
        let start = self.home_slot(home, now + travel);
        let latency = (start + service + travel).saturating_sub(now) + cfg.rmr_base;
        self.rmr_count[core] += 1;
        Access {
            latency,
            rmr: true,
            woken,
        }
    }

    /// Executes an atomic read-modify-write at the line's memory
    /// controller: all cached copies are invalidated, the operation is
    /// serialized on the controller, and the round trip is charged to the
    /// issuing core. Returns the *previous* value and the access cost.
    ///
    /// `now` is the core's current cycle; the returned latency already
    /// accounts for queuing behind other atomics at the same controller.
    pub fn atomic<F: FnOnce(u64) -> u64>(
        &mut self,
        core: usize,
        addr: Addr,
        now: u64,
        f: F,
    ) -> (u64, Access) {
        let cfg = self.cfg;
        let l = line_of(addr);
        let ctrl = self.controller(l);

        // Invalidate every cached copy: after the operation, memory holds
        // the only current version.
        let home = self.home(l);
        let (old, had_copies, woken) = {
            let line = self.line_mut(l);
            let word = &mut line.values[word_of(addr)];
            let old = *word;
            *word = f(old);
            let had = line.state != LineState::Invalid;
            line.state = LineState::Invalid;
            line.sharers = 0;
            (old, had, std::mem::take(&mut line.sleepers))
        };
        if had_copies {
            // The invalidation is a directory transaction at the home tile.
            self.home_slot(home, now);
        }

        let dist = cfg.hop * cfg.hops_to_controller(core, ctrl);
        let arrival = now + dist;
        let start = arrival.max(self.ctrl_busy_until[ctrl]);
        // Streaming atomics on one line are cheap; switching lines pays the
        // false-serialization penalty (§5.4).
        let occupancy = if self.ctrl_last_line[ctrl] == Some(l) {
            cfg.ctrl_occupancy_same
        } else {
            cfg.ctrl_occupancy_switch
        };
        let finish = start + occupancy;
        self.ctrl_busy_until[ctrl] = finish;
        self.ctrl_last_line[ctrl] = Some(l);

        let mut latency = finish.max(arrival + cfg.ctrl_op) + dist - now;
        if had_copies {
            latency += cfg.coherence_extra;
        }
        self.atomic_count[core] += 1;
        (
            old,
            Access {
                latency,
                rmr: true,
                woken,
            },
        )
    }

    /// Puts `core` to sleep on `addr`'s line, which it must hold (it has
    /// just read `addr`). While it holds the line every read it makes hits
    /// and returns the same value, so it sleeps until the next write or
    /// atomic by another core invalidates its copy; that access reports it
    /// in [`Access::woken`].
    pub fn sleep(&mut self, core: usize, addr: Addr) {
        let line = self.line_mut(line_of(addr));
        debug_assert!(
            line.sharers & (1u64 << core) != 0,
            "sleeper must hold the line"
        );
        line.sleepers |= 1u64 << core;
    }

    /// Reads a value without touching coherence state or charging cycles
    /// (for assertions and end-of-run inspection).
    pub fn peek(&self, addr: Addr) -> u64 {
        self.lines
            .get(check_line(line_of(addr)))
            .map_or(0, |line| line.values[word_of(addr)])
    }

    /// Writes a value without coherence effects or cycle charges — for
    /// initializing protocol state before the simulation starts.
    pub fn poke(&mut self, addr: Addr, v: u64) {
        self.line_mut(line_of(addr)).values[word_of(addr)] = v;
    }

    /// Total RMRs charged to a core so far.
    pub fn rmrs(&self, core: usize) -> u64 {
        self.rmr_count[core]
    }

    /// Total atomics executed by a core so far.
    pub fn atomics(&self, core: usize) -> u64 {
        self.atomic_count[core]
    }

    /// Verifies the single-writer/multiple-readers invariant for every
    /// tracked line, in line order (used by tests).
    pub fn check_swmr(&self) -> Result<(), String> {
        for (l, line) in self.lines.iter().enumerate() {
            match line.state {
                LineState::Modified => {
                    if line.sharers.count_ones() > 1 {
                        return Err(format!(
                            "line {l}: Modified with sharers {:b}",
                            line.sharers
                        ));
                    }
                }
                LineState::Shared => {
                    if line.sharers == 0 {
                        return Err(format!("line {l}: Shared with no sharers"));
                    }
                }
                LineState::Invalid => {
                    if line.sharers != 0 {
                        return Err(format!("line {l}: Invalid with sharers"));
                    }
                }
            }
            if line.sleepers & !line.sharers != 0 {
                return Err(format!(
                    "line {l}: sleepers {:b} not among sharers {:b}",
                    line.sleepers, line.sharers
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        Memory::new(MachineConfig::tile_gx8036())
    }

    #[test]
    fn read_miss_then_hit() {
        let mut m = mem();
        let (v, a) = m.read(0, 100, 0);
        assert_eq!(v, 0);
        assert!(a.rmr);
        let (_, a2) = m.read(0, 100, 0);
        assert!(!a2.rmr);
        assert_eq!(a2.latency, m.cfg.l1_hit);
        // Same line, different word: also a hit.
        let (_, a3) = m.read(0, 101, 0);
        assert!(!a3.rmr);
    }

    #[test]
    fn write_invalidates_readers() {
        let mut m = mem();
        m.read(0, 8, 0);
        m.read(1, 8, 0);
        let a = m.write(2, 8, 7, 0);
        assert!(a.rmr);
        // Both former sharers now miss.
        let (v, a0) = m.read(0, 8, 0);
        assert_eq!(v, 7);
        assert!(a0.rmr);
        // Writer 2 lost exclusivity (downgraded to Shared by reader 0).
        let a2 = m.write(2, 8, 9, 0);
        assert!(a2.rmr);
        m.check_swmr().unwrap();
    }

    #[test]
    fn write_hit_in_modified() {
        let mut m = mem();
        m.write(3, 16, 1, 0);
        let a = m.write(3, 17, 2, 0); // same line
        assert!(!a.rmr);
        assert_eq!(m.peek(16), 1);
        assert_eq!(m.peek(17), 2);
    }

    #[test]
    fn rmr_latency_grows_with_distance() {
        let mut m = mem();
        // Line 0 homes at core 0. Core 1 (adjacent) vs core 35 (corner).
        let (_, near) = m.read(1, 0, 0);
        let mut m2 = mem();
        let (_, far) = m2.read(35, 0, 0);
        assert!(far.latency > near.latency);
    }

    #[test]
    fn atomics_serialize_at_controller() {
        let mut m = mem();
        // Lines 0 and 2 both map to controller 0; issue two atomics at the
        // same instant and observe queuing.
        let (_, a1) = m.atomic(0, 0, 1000, |v| v + 1);
        let (_, a2) = m.atomic(1, 2 * WORDS_PER_LINE, 1000, |v| v + 1);
        assert!(a2.latency > a1.latency.saturating_sub(2 * m.cfg.hop * 10));
        // Controller busy time advanced twice (both are line switches).
        assert!(m.ctrl_busy_until[0] >= 1000 + 2 * m.cfg.ctrl_occupancy_switch);
    }

    #[test]
    fn same_line_atomics_stream_faster() {
        let cfg = MachineConfig::tile_gx8036();
        // Same line back-to-back...
        let mut m = Memory::new(cfg);
        m.atomic(0, 0, 0, |v| v + 1);
        m.atomic(1, 0, 0, |v| v + 1);
        let same_busy = m.ctrl_busy_until[0];
        // ...vs alternating lines (both on controller 0).
        let mut m2 = Memory::new(cfg);
        m2.atomic(0, 0, 0, |v| v + 1);
        m2.atomic(1, 2 * WORDS_PER_LINE, 0, |v| v + 1);
        let switch_busy = m2.ctrl_busy_until[0];
        assert!(
            switch_busy > same_busy,
            "line switches must serialize harder: {switch_busy} vs {same_busy}"
        );
    }

    #[test]
    fn atomic_faa_sequence() {
        let mut m = mem();
        let (old1, _) = m.atomic(0, 40, 0, |v| v + 1);
        let (old2, _) = m.atomic(1, 40, 50, |v| v + 1);
        assert_eq!((old1, old2), (0, 1));
        assert_eq!(m.peek(40), 2);
    }

    #[test]
    fn atomic_invalidates_cached_copies() {
        let mut m = mem();
        m.read(0, 40, 0);
        m.atomic(1, 40, 0, |v| v + 5);
        let (v, acc) = m.read(0, 40, 0);
        assert_eq!(v, 5);
        assert!(acc.rmr, "cached copy must have been invalidated");
    }

    #[test]
    fn swmr_invariant_random_ops() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut m = mem();
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5_000 {
            let core = rng.gen_range(0..36);
            let addr = rng.gen_range(0..64u64);
            match rng.gen_range(0..3) {
                0 => {
                    m.read(core, addr, 0);
                }
                1 => {
                    m.write(core, addr, core as u64, 0);
                }
                _ => {
                    m.atomic(core, addr, 0, |v| v.wrapping_add(1));
                }
            }
            m.check_swmr().unwrap();
        }
    }
}
