//! `apps-mixed`: the runtime layer used differently from `native-hot`.
//!
//! Closed loop, `clients` threads, an in-process `AppSuite` with `clients`
//! shards on the default backend; 64k keys per application, uniform; a fixed
//! mix drawn from the seed: 30 % rate-limit (acquire / peek), 20 %
//! leaderboard add (plus one `top_k` per thousand ops), 20 % priority queue
//! (push / pop), 20 % TTL sessions (put / get, 50–500 ms), 10 % two-account
//! ledger transfers. Spread keys, reads beside writes, real critical-section
//! work, live timers, nothing to batch: a change that buys `native-hot`
//! throughput with per-op cost shows up here as a loss.
//!
//! Every client owns the keys congruent to its index, so it knows exactly
//! what each reply must be. Only the ledger's accounts are shared.

use mpsync_apps::{AppSession, AppSuite};
use mpsync_runtime::RuntimeConfig;

use crate::harness::{construct, drive, Client, Ctl, Plan, Rec, RunResult};
use crate::rng::Rng;
use crate::span::SpanBuf;

/// Keys per application.
const KEYS: u64 = 65_536;
/// Ledger accounts, shared by all clients.
const ACCOUNTS: u64 = 4096;
/// Opening balance: far more than any account can lose in a run, so a
/// refused transfer is a wrong result, not an empty account.
const OPENING: u64 = 1_000_000_000;
/// `AppConfig::default().bucket_capacity`: buckets start full.
const BUCKET: u64 = 64;

/// Count, sum and sum of squares of a multiset of item ids: two multisets
/// with the same three are, for this purpose, the same.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Bag {
    n: u64,
    sum: u128,
    sum_sq: u128,
}

impl Bag {
    fn add(&mut self, item: u32) {
        self.n += 1;
        self.sum += item as u128;
        self.sum_sq += item as u128 * item as u128;
    }

    fn merge(&mut self, o: &Bag) {
        self.n += o.n;
        self.sum += o.sum;
        self.sum_sq += o.sum_sq;
    }
}

/// A session the client stored, and the bounds on when it dies.
#[derive(Clone, Copy)]
struct Stored {
    value: u32,
    /// Before this instant the session is certainly alive.
    alive_until: u64,
    /// After this instant it is certainly dead.
    dead_after: u64,
}

/// What one client knows about the keys it owns.
struct Model {
    tokens: Vec<u64>,
    scores: Vec<u64>,
    queue_len: Vec<u64>,
    sessions: Vec<Option<Stored>>,
    pushed: Bag,
    popped: Bag,
    next_item: u32,
}

/// What a client hands back for the end-of-run checks.
struct Outcome {
    queue_len: Vec<u64>,
    pushed: Bag,
    popped: Bag,
    maybe_live: usize,
}

/// Runs one epoch; with `traced`, also returns each client's spans.
pub fn run(plan: &Plan, traced: bool) -> (RunResult, Vec<SpanBuf>) {
    let (suite, construct_s) = construct(plan, || {
        let suite = AppSuite::new(RuntimeConfig::new(plan.clients));
        let mut s = suite.session().expect("a fresh suite admits sessions");
        for a in 0..ACCOUNTS {
            s.ledger().deposit(1 + a, OPENING).expect("opening deposit");
        }
        suite
    });
    let sessions: Vec<AppSession> = (0..plan.clients)
        .map(|_| {
            suite
                .session()
                .expect("session capacity covers the clients")
        })
        .collect();
    let mut bufs = SpanBuf::per_client(traced, plan.clients, 64);
    let mut buf_of = bufs.iter_mut();
    let clients: Vec<Client<'_, Outcome>> = sessions
        .into_iter()
        .enumerate()
        .map(|(c, session)| {
            let spans = buf_of.next();
            let rng = Rng::stream(plan.seed, 0x31 + c as u64);
            let (c, n) = (c as u64, plan.clients as u64);
            let body: Client<'_, Outcome> =
                Box::new(move |ctl, rec| client(ctl, rec, session, c, n, rng, spans));
            body
        })
        .collect();
    let mut driven = drive(plan, clients);
    drop(buf_of);

    // Output checks. Priority queue, exactly once: drain what the clients
    // left queued; everything pushed must have been popped once.
    let mut check = Rec::untimed();
    let (mut pushed, mut popped) = (Bag::default(), Bag::default());
    let mut s = suite.session().expect("session for the drain");
    for (c, out) in driven.outputs.iter().enumerate() {
        pushed.merge(&out.pushed);
        popped.merge(&out.popped);
        for (i, &len) in out.queue_len.iter().enumerate() {
            let queue = 1 + i as u64 * plan.clients as u64 + c as u64;
            for _ in 0..len {
                match s.queue().pop(queue) {
                    Ok(Some((_, item))) => {
                        check.ok_untimed();
                        popped.add(item);
                    }
                    other => check.fail(|| format!("drain of queue {queue}: {other:?}")),
                }
            }
        }
    }
    drop(s);
    let mut failures = Vec::new();
    if pushed != popped {
        failures.push(format!(
            "pq not exactly-once: pushed {pushed:?}, popped {popped:?}"
        ));
    }
    // Ledger conservation, no stuck holds, nothing left queued, and no more
    // live sessions than could still be alive.
    let maybe_live: usize = driven.outputs.iter().map(|o| o.maybe_live).sum();
    let (totals, _) = suite.shutdown();
    if totals.ledger_available != ACCOUNTS * OPENING || totals.ledger_held != 0 {
        failures.push(format!("ledger not conserved: {totals:?}"));
    }
    if totals.pq_tasks != 0 {
        failures.push(format!("{} tasks left after the drain", totals.pq_tasks));
    }
    if totals.sessions_live > maybe_live {
        failures.push(format!(
            "{} sessions live at shutdown, at most {maybe_live} could be",
            totals.sessions_live
        ));
    }
    driven.recs.push(check);
    let result = driven.finish(construct_s, failures, Vec::new());
    (result, bufs)
}

/// One client's closed loop over the keys `1 + i·n + c`.
fn client(
    ctl: &Ctl,
    rec: &mut Rec,
    mut s: AppSession,
    c: u64,
    n: u64,
    mut rng: Rng,
    mut spans: Option<&mut SpanBuf>,
) -> Outcome {
    let owned = (KEYS / n) as usize;
    let mut m = Model {
        tokens: vec![BUCKET; owned],
        scores: vec![0; owned],
        queue_len: vec![0; owned],
        sessions: vec![None; owned],
        pushed: Bag::default(),
        popped: Bag::default(),
        // Item ids are unique across clients.
        next_item: (c as u32) << 28,
    };
    let mut op_no = 0u64;
    let mut t_prev = ctl.now_ns();
    while ctl.running() {
        let i = rng.below(owned as u64) as usize;
        let key = 1 + i as u64 * n + c;
        let dice = rng.below(100);
        // (what was called, whether the reply was the only possible one)
        let (name, verdict): (&'static str, Result<(), String>) = match dice {
            0..=14 => {
                let want = m.tokens[i] >= 1;
                m.tokens[i] -= want as u64;
                let got = s.rate().acquire(key, 1);
                ("ratelimit.acquire", expect(got, want))
            }
            15..=29 => ("ratelimit.peek", expect(s.rate().peek(key), m.tokens[i])),
            30..=49 => {
                let delta = 1 + rng.below(100);
                m.scores[i] += delta;
                (
                    "leaderboard.add",
                    expect(s.board().add(key, delta), m.scores[i]),
                )
            }
            50..=59 => {
                let (priority, item) = (rng.below(1000) as u32, m.next_item);
                m.next_item += 1;
                m.queue_len[i] += 1;
                m.pushed.add(item);
                let got = s.queue().push(key, priority, item);
                ("pq.push", expect(got, m.queue_len[i]))
            }
            60..=69 => {
                let verdict = match s.queue().pop(key) {
                    Ok(Some((_, item))) if m.queue_len[i] > 0 => {
                        m.queue_len[i] -= 1;
                        m.popped.add(item);
                        Ok(())
                    }
                    Ok(None) if m.queue_len[i] == 0 => Ok(()),
                    other => Err(format!("{other:?} with {} queued", m.queue_len[i])),
                };
                ("pq.pop", verdict)
            }
            70..=79 => {
                let (value, ttl_ms) = (rng.next_u64() as u32, 50 + rng.below(451) as u32);
                let before = ctl.now_ns();
                let got = s.store().put(key, value, ttl_ms);
                let after = ctl.now_ns();
                // A put hands back whatever entry was resident, expired or
                // not; only a session certainly alive pins the reply.
                let verdict = match (got, m.sessions[i]) {
                    (Ok(Some(v)), Some(old)) if v == old.value as u64 => Ok(()),
                    (Ok(None), Some(old)) if after >= old.alive_until => Ok(()),
                    (Ok(None), None) => Ok(()),
                    (got, old) => Err(format!("{got:?} replacing {:?}", old.map(|o| o.value))),
                };
                let ttl_ns = ttl_ms as u64 * 1_000_000;
                m.sessions[i] = Some(Stored {
                    value,
                    alive_until: before + ttl_ns,
                    dead_after: after + ttl_ns,
                });
                ("session.put", verdict)
            }
            80..=89 => {
                let before = ctl.now_ns();
                let got = s.store().get(key);
                let after = ctl.now_ns();
                // Never served past its deadline, never lost before it.
                let verdict = match (got, m.sessions[i]) {
                    (Ok(Some(v)), Some(st)) if v == st.value as u64 && before <= st.dead_after => {
                        Ok(())
                    }
                    (Ok(None), Some(st)) if after >= st.alive_until => Ok(()),
                    (Ok(None), None) => Ok(()),
                    (got, st) => Err(format!(
                        "{got:?} for a session {:?} at {before}..{after}",
                        st.map(|s| (s.value, s.alive_until, s.dead_after))
                    )),
                };
                ("session.get", verdict)
            }
            _ => {
                let from = 1 + rng.below(ACCOUNTS);
                let to = 1 + (from + rng.below(ACCOUNTS - 1)) % ACCOUNTS;
                let got = s.ledger().transfer(from, to, 1 + rng.below(10));
                ("ledger.transfer", expect(got, true))
            }
        };
        let now = ctl.now_ns();
        match verdict {
            Ok(()) => rec.ok(ctl.phase(), now - t_prev),
            Err(why) => rec.fail(|| format!("{name} on key {key}: {why}")),
        }
        if let Some(sb) = spans.as_deref_mut() {
            sb.span("op", "harness", op_no, t_prev, now);
            sb.span(name, "apps", op_no, t_prev, now);
        }
        op_no += 1;
        t_prev = now;
        if op_no.is_multiple_of(1000) {
            let top = s.board().top_k(10);
            let now = ctl.now_ns();
            match top {
                Ok(t) if t.len() <= 10 && t.windows(2).all(|w| w[0].1 >= w[1].1) => {
                    rec.ok(ctl.phase(), now - t_prev)
                }
                other => rec.fail(|| format!("leaderboard.top_k: {other:?}")),
            }
            t_prev = now;
        }
    }
    let end = ctl.now_ns();
    Outcome {
        queue_len: m.queue_len,
        pushed: m.pushed,
        popped: m.popped,
        maybe_live: m
            .sessions
            .iter()
            .filter(|s| s.is_some_and(|s| s.dead_after >= end))
            .count(),
    }
}

/// `Ok` if the call returned exactly `want`.
fn expect<T: PartialEq + std::fmt::Debug, E: std::fmt::Debug>(
    got: Result<T, E>,
    want: T,
) -> Result<(), String> {
    match got {
        Ok(v) if v == want => Ok(()),
        other => Err(format!("{other:?}, expected {want:?}")),
    }
}
