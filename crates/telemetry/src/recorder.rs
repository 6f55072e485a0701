//! The flight recorder: an always-on, bounded log of rare structural
//! events (backend choice, drains, handoff phase transitions,
//! promotion/demotion, BUSY storms, backend switches, timer expiry).
//!
//! Unlike the rest of the crate this module is **not** gated by the
//! `enabled` feature: the events it records fire at most a few times per
//! second even under full load, so the cost of recording them — one brief
//! mutex acquisition and five word stores — is negligible, while having
//! the last [`FLIGHT_CAPACITY`] structural decisions available *after* a
//! panic, a failed smoke run, or a surprising failover is exactly when a
//! disabled-telemetry production build needs them most.
//!
//! The storage is a const-initialized static array behind a `Mutex`: no
//! lazy heap allocation ever happens on the recording path.
//!
//! Dump paths: [`install_panic_hook`] prints the recorder to stderr when
//! the process panics; the net/cluster admin endpoints embed
//! [`flight_json`] in their `StatReply` snapshots; the cluster simulator
//! attaches it to failing-seed reports.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, Once, OnceLock};
use std::time::Instant;

/// Events retained (oldest overwritten first).
pub const FLIGHT_CAPACITY: usize = 256;

/// What kind of structural event happened. The `a`/`b`/`c` payload words
/// of a [`FlightEvent`] are interpreted per kind (see each variant).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum FlightKind {
    /// A runtime shard chose (or was configured with) a backend:
    /// `a` = shard index, `b` = backend discriminant.
    Backend = 0,
    /// A serving layer began a graceful drain: `a` = connections open.
    DrainStart = 1,
    /// A graceful drain completed: `a` = requests answered during drain.
    DrainEnd = 2,
    /// A cluster slot changed handoff phase: `a` = slot, `b` = phase code
    /// (0 normal, 1 await-import, 2 draining, 3 transferring), `c` = epoch.
    HandoffPhase = 3,
    /// A node took ownership of a slot (failover promotion or transfer):
    /// `a` = slot, `b` = new epoch, `c` = new owner.
    Promote = 4,
    /// A node lost ownership of a slot (deposed or handed off):
    /// `a` = slot, `b` = new epoch, `c` = new owner.
    Demote = 5,
    /// BUSY back-pressure replies, sampled (see [`flight_sampled`]):
    /// `a` = context (conn id or slot), `b` = occupancy, `c` = how many
    /// BUSY events of this kind have fired so far.
    Busy = 6,
    /// An adaptive runtime shard live-switched its backend:
    /// `a` = shard index, `b` = `from_mode << 8 | to_mode` (mode
    /// discriminants), `c` = the shard's swap epoch after the switch.
    BackendSwitch = 7,
    /// A timer-wheel expiry pass removed entries: `a` = shard index,
    /// `b` = entries expired, `c` = lateness of the earliest entry in ns
    /// (fire time − deadline).
    Expire = 8,
}

impl FlightKind {
    pub const ALL: [FlightKind; 9] = [
        FlightKind::Backend,
        FlightKind::DrainStart,
        FlightKind::DrainEnd,
        FlightKind::HandoffPhase,
        FlightKind::Promote,
        FlightKind::Demote,
        FlightKind::Busy,
        FlightKind::BackendSwitch,
        FlightKind::Expire,
    ];

    /// Stable lowercase name used in JSON output.
    pub fn name(self) -> &'static str {
        match self {
            FlightKind::Backend => "backend",
            FlightKind::DrainStart => "drain_start",
            FlightKind::DrainEnd => "drain_end",
            FlightKind::HandoffPhase => "handoff_phase",
            FlightKind::Promote => "promote",
            FlightKind::Demote => "demote",
            FlightKind::Busy => "busy",
            FlightKind::BackendSwitch => "backend_switch",
            FlightKind::Expire => "expire",
        }
    }
}

/// One recorded structural event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlightEvent {
    /// Monotone event number (gaps relative to a snapshot's length show how
    /// many older events the ring overwrote).
    pub seq: u64,
    /// Nanoseconds since the process flight epoch. Shares the telemetry
    /// span clock when the `enabled` feature is on, so flight events line
    /// up with spans in a combined timeline.
    pub ts_ns: u64,
    pub kind: FlightKind,
    pub a: u64,
    pub b: u64,
    pub c: u64,
}

const EMPTY_EVENT: FlightEvent = FlightEvent {
    seq: 0,
    ts_ns: 0,
    kind: FlightKind::Backend,
    a: 0,
    b: 0,
    c: 0,
};

struct Log {
    events: [FlightEvent; FLIGHT_CAPACITY],
    /// Events ever recorded; the write cursor.
    head: u64,
}

static LOG: Mutex<Log> = Mutex::new(Log {
    events: [EMPTY_EVENT; FLIGHT_CAPACITY],
    head: 0,
});

/// Per-kind occurrence counters backing [`flight_sampled`].
static KIND_SEEN: [AtomicU64; FlightKind::ALL.len()] =
    [const { AtomicU64::new(0) }; FlightKind::ALL.len()];

/// Locks the log, recovering from poisoning: the panic hook must still be
/// able to dump after another thread died (recording never panics while
/// holding the lock, so the data is always consistent).
fn log() -> MutexGuard<'static, Log> {
    LOG.lock().unwrap_or_else(|e| e.into_inner())
}

/// Timestamp for flight events: the telemetry span clock when enabled,
/// otherwise a recorder-private epoch (never 0 once the process recorded
/// anything, matching the span convention).
fn flight_now_ns() -> u64 {
    let t = crate::now_ns();
    if t != 0 {
        return t;
    }
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    (EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64).max(1)
}

/// Records one structural event. Always on; safe from any thread; never
/// allocates.
pub fn flight(kind: FlightKind, a: u64, b: u64, c: u64) {
    let ts_ns = flight_now_ns();
    let mut log = log();
    let seq = log.head;
    log.events[(seq % FLIGHT_CAPACITY as u64) as usize] = FlightEvent {
        seq,
        ts_ns,
        kind,
        a,
        b,
        c,
    };
    log.head = seq + 1;
}

/// Records the first occurrence of `kind` and every `every`-th after that —
/// the storm-safe form for events that can fire per-request (BUSY replies),
/// where recording each one would flush rarer events out of the ring. The
/// event's `c` word carries the total occurrence count so a dump still
/// shows the storm's magnitude. Returns `true` when an event was recorded.
pub fn flight_sampled(kind: FlightKind, every: u64, a: u64, b: u64) -> bool {
    let n = KIND_SEEN[kind as usize].fetch_add(1, Ordering::Relaxed);
    if !n.is_multiple_of(every.max(1)) {
        return false;
    }
    flight(kind, a, b, n + 1);
    true
}

/// Events ever recorded (the ring retains the last [`FLIGHT_CAPACITY`]).
pub fn flight_count() -> u64 {
    log().head
}

/// Copies out the retained events, oldest first.
pub fn flight_snapshot() -> Vec<FlightEvent> {
    let log = log();
    let head = log.head;
    let start = head.saturating_sub(FLIGHT_CAPACITY as u64);
    (start..head)
        .map(|seq| log.events[(seq % FLIGHT_CAPACITY as u64) as usize])
        .collect()
}

/// Renders `events` as a JSON array of
/// `{"seq":…,"ts_ns":…,"kind":"…","a":…,"b":…,"c":…}` objects.
pub fn flight_events_json(events: &[FlightEvent]) -> String {
    let mut s = String::with_capacity(2 + events.len() * 80);
    s.push('[');
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"seq\":{},\"ts_ns\":{},\"kind\":\"{}\",\"a\":{},\"b\":{},\"c\":{}}}",
            e.seq,
            e.ts_ns,
            e.kind.name(),
            e.a,
            e.b,
            e.c
        ));
    }
    s.push(']');
    s
}

/// The current recorder contents as one JSON object:
/// `{"recorded":N,"dropped":D,"events":[…]}`.
pub fn flight_json() -> String {
    let events = flight_snapshot();
    let recorded = events.last().map(|e| e.seq + 1).unwrap_or(0);
    let dropped = recorded.saturating_sub(events.len() as u64);
    format!(
        "{{\"recorded\":{},\"dropped\":{},\"events\":{}}}",
        recorded,
        dropped,
        flight_events_json(&events)
    )
}

/// Installs a panic hook (once per process, chaining any existing hook)
/// that dumps the flight recorder to stderr — so a production panic
/// carries the structural events leading up to it even with telemetry
/// compiled out.
pub fn install_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            prev(info);
            let events = flight_snapshot();
            if !events.is_empty() {
                eprintln!("flight recorder ({} events):", events.len());
                for e in &events {
                    eprintln!(
                        "  #{} +{}us {} a={} b={} c={}",
                        e.seq,
                        e.ts_ns / 1000,
                        e.kind.name(),
                        e.a,
                        e.b,
                        e.c
                    );
                }
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recorder is process-global and tests run concurrently, so these
    // assertions search for their own distinctively-tagged events instead
    // of assuming exclusive ownership of the log.

    #[test]
    fn records_and_snapshots_in_order() {
        flight(FlightKind::Promote, 91_001, 7, 3);
        flight(FlightKind::Demote, 91_002, 8, 4);
        let snap = flight_snapshot();
        let p = snap
            .iter()
            .position(|e| e.kind == FlightKind::Promote && e.a == 91_001)
            .expect("promote event retained");
        let d = snap
            .iter()
            .position(|e| e.kind == FlightKind::Demote && e.a == 91_002)
            .expect("demote event retained");
        assert!(p < d, "events must come out oldest-first");
        assert_eq!(snap[p].b, 7);
        assert_eq!(snap[p].c, 3);
        assert!(snap[p].ts_ns > 0);
        assert!(snap[p].seq < snap[d].seq);
        assert!(flight_count() >= 2);
    }

    #[test]
    fn overwrites_oldest_beyond_capacity() {
        for i in 0..(FLIGHT_CAPACITY as u64 + 10) {
            flight(FlightKind::HandoffPhase, 92_000, i, 0);
        }
        let snap = flight_snapshot();
        assert_eq!(snap.len(), FLIGHT_CAPACITY);
        // Sequence numbers are contiguous across the retained window.
        for w in snap.windows(2) {
            assert_eq!(w[0].seq + 1, w[1].seq);
        }
        // The most recent event of our burst survived.
        assert!(snap
            .iter()
            .any(|e| e.a == 92_000 && e.b == FLIGHT_CAPACITY as u64 + 9));
    }

    #[test]
    fn sampling_thins_storms_but_keeps_magnitude() {
        let mut recorded = 0;
        for _ in 0..130 {
            if flight_sampled(FlightKind::Busy, 64, 93_000, 5) {
                recorded += 1;
            }
        }
        // Other tests may also emit Busy events, shifting the phase of the
        // modulo: 130 draws at 1-in-64 record 2 or 3 events, never 130.
        assert!((2..=4).contains(&recorded), "recorded {recorded}");
        let snap = flight_snapshot();
        let max_c = snap
            .iter()
            .filter(|e| e.kind == FlightKind::Busy && e.a == 93_000)
            .map(|e| e.c)
            .max();
        // c carries the cumulative occurrence count.
        assert!(max_c.is_some_and(|c| c >= 65));
    }

    #[test]
    fn json_shape() {
        flight(FlightKind::Backend, 94_000, 2, 0);
        let j = flight_json();
        assert!(j.starts_with("{\"recorded\":"));
        assert!(j.contains("\"dropped\":"));
        assert!(j.contains("\"kind\":\"backend\""));
        assert!(j.contains("\"a\":94000"));
        assert!(j.trim_end().ends_with("]}"));
        assert_eq!(flight_events_json(&[]), "[]");
    }

    #[test]
    fn kind_names_are_unique_and_pinned() {
        let names: Vec<_> = FlightKind::ALL.iter().map(|k| k.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), FlightKind::ALL.len());
        assert_eq!(
            names,
            [
                "backend",
                "drain_start",
                "drain_end",
                "handoff_phase",
                "promote",
                "demote",
                "busy",
                "backend_switch",
                "expire",
            ]
        );
        for (i, k) in FlightKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "discriminants must match ALL order");
        }
    }
}
