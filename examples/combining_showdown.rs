//! Run the same contended-counter workload through every construction in
//! the repository and print wall-clock throughput — a native mini-version
//! of the paper's Figure 3a (with the fidelity caveat that the emulated
//! UDN cannot reproduce the hardware speedups; see DESIGN.md).
//!
//! Run with: `cargo run --release --example combining_showdown`

use std::sync::Arc;
use std::time::Instant;

use mpsync::objects::counter::{AtomicCounter, CsCounter};
use mpsync::objects::Counter;
use mpsync::sync::{
    CcSynch, FlatCombining, HybComb, LockCs, McsLock, MpServer, ShmServer, SlotPool, TasLock,
    TicketLock,
};
use mpsync::udn::{Fabric, FabricConfig};

type CounterFn = fn(&mut u64, u64, u64) -> u64;

fn counter_cs(state: &mut u64, _op: u64, _arg: u64) -> u64 {
    let old = *state;
    *state += 1;
    old
}

const DISPATCH: CounterFn = counter_cs;
const THREADS: usize = 4;
const OPS: u64 = 200_000;

fn run<C, F>(name: &str, mut mk: F)
where
    C: Counter + Send + 'static,
    F: FnMut(usize) -> C,
{
    let clients: Vec<C> = (0..THREADS).map(&mut mk).collect();
    let start = Instant::now();
    let joins: Vec<_> = clients
        .into_iter()
        .map(|mut c| {
            std::thread::spawn(move || {
                for _ in 0..OPS {
                    c.fetch_inc();
                }
            })
        })
        .collect();
    for j in joins {
        j.join().unwrap();
    }
    let secs = start.elapsed().as_secs_f64();
    let mops = (THREADS as u64 * OPS) as f64 / secs / 1e6;
    println!("{name:<16} {mops:>8.2} Mops/s");
}

fn main() {
    println!("{THREADS} threads x {OPS} fetch-and-increments each\n");

    {
        let c = AtomicCounter::new();
        run("atomic-faa", |_| c.clone());
    }
    {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(8)));
        let server = Arc::new(MpServer::spawn(
            fabric.register_any().unwrap(),
            0u64,
            DISPATCH,
        ));
        let s = Arc::clone(&server);
        let f = Arc::clone(&fabric);
        run("mp-server", move |_| {
            CsCounter::new(s.client(f.register_any().unwrap()))
        });
    }
    {
        let server = Arc::new(ShmServer::spawn(THREADS, 0u64, DISPATCH));
        let s = Arc::clone(&server);
        run("shm-server", move |_| CsCounter::new(s.client()));
    }
    {
        let fabric = Arc::new(Fabric::new(FabricConfig::new(8)));
        let hc = Arc::new(HybComb::new(THREADS, 200, 0u64, DISPATCH));
        let h = Arc::clone(&hc);
        let f = Arc::clone(&fabric);
        run("hybcomb", move |_| {
            CsCounter::new(h.handle(f.register_any().unwrap()))
        });
        let stats = hc.stats();
        println!(
            "  (combining rate {:.1}, CAS/op {:.2})",
            stats.combining_rate(),
            stats.cas_per_op()
        );
    }
    {
        let cs = Arc::new(CcSynch::new(THREADS, 200, 0u64, DISPATCH));
        let c = Arc::clone(&cs);
        run("cc-synch", move |_| CsCounter::new(c.handle()));
    }
    {
        let fc = Arc::new(FlatCombining::new(THREADS, 64, 0u64, DISPATCH));
        let slots = SlotPool::new(THREADS);
        run("flat-combining", move |_| {
            CsCounter::new(fc.handle(slots.acquire()))
        });
    }
    {
        let cs = Arc::new(LockCs::<u64, TasLock, CounterFn>::new(0, DISPATCH));
        let c = Arc::clone(&cs);
        run("tas-lock", move |_| CsCounter::new(c.handle()));
    }
    {
        let cs = Arc::new(LockCs::<u64, TicketLock, CounterFn>::new(0, DISPATCH));
        let c = Arc::clone(&cs);
        run("ticket-lock", move |_| CsCounter::new(c.handle()));
    }
    {
        let cs = Arc::new(LockCs::<u64, McsLock, CounterFn>::new(0, DISPATCH));
        let c = Arc::clone(&cs);
        run("mcs-lock", move |_| CsCounter::new(c.handle()));
    }

    println!("\n(On this host the emulated UDN is itself shared memory; the");
    println!(" paper's hardware ordering is reproduced by `repro fig3a`.)");
}
