//! `Engine::run` executes every proc on the calling thread. Alone in its
//! own test binary: the check counts the process's threads, and the test
//! harness starts one per test.
#![cfg(target_os = "linux")]

use std::cell::Cell;
use std::rc::Rc;

use tilesim::{Engine, MachineConfig};

fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

#[test]
fn run_spawns_no_thread() {
    let cfg = MachineConfig::tile_gx8036();
    let before = thread_count();
    let caller = std::thread::current().id();
    let during = Rc::new(Cell::new(0));
    let mut e = Engine::new(cfg);
    for core in 0..cfg.cores() {
        let during = Rc::clone(&during);
        e.add_proc(async move |ctx| {
            ctx.work(100 + core as u64).await;
            assert_eq!(std::thread::current().id(), caller);
            if core == cfg.cores() - 1 {
                // Resumed last: every other body has run by now.
                during.set(thread_count());
            }
        });
    }
    assert_eq!(thread_count(), before, "add_proc must not spawn");
    e.run(10_000);
    assert_eq!(during.get(), before, "threads alive inside a proc body");
    assert_eq!(thread_count(), before, "threads alive after the run");
}
