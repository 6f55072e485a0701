//! Thread census of the one serving model: a thread per open connection,
//! named `net-conn-<id>`, and none once the connections have closed. Its
//! own test binary with a single test, so `/proc/self/task` holds no other
//! server's threads.

#![cfg(target_os = "linux")]

use std::sync::Arc;
use std::time::{Duration, Instant};

use mpsync_net::{NetClient, NetServer};
use mpsync_objects::seq::keyed_counter_ops;
use mpsync_runtime::{RuntimeConfig, ShardedCounter};

/// Threads of this process whose name starts with `prefix`.
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

/// Polls until `threads_named(prefix) == want` or 5 s pass; returns the
/// last count.
fn settle(prefix: &str, want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = threads_named(prefix);
        if n == want || Instant::now() >= deadline {
            return n;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn one_named_thread_per_open_connection() {
    const K: usize = 5;
    let svc = Arc::new(ShardedCounter::new(
        RuntimeConfig::new(2).with_max_sessions(16),
    ));
    let server = NetServer::builder(svc)
        .tcp("127.0.0.1:0")
        .expect("bind")
        .start()
        .expect("start");
    let addr = server.tcp_addrs()[0];
    // A thread names itself once it runs, so even the acceptor is polled.
    assert_eq!(settle("net-accept-", 1), 1, "one acceptor per listener");
    assert_eq!(threads_named("net-conn-"), 0, "no connection yet");

    // A completed call proves each connection's thread is up and serving.
    let clients: Vec<NetClient> = (0..K as u64)
        .map(|key| {
            let mut c = NetClient::connect_tcp(addr).expect("connect");
            c.call(key, keyed_counter_ops::INC as u8, 0).expect("call");
            c
        })
        .collect();
    assert_eq!(settle("net-conn-", K), K, "one thread per open connection");

    drop(clients);
    assert_eq!(
        settle("net-conn-", 0),
        0,
        "closed connections keep no thread"
    );
    let report = server.shutdown();
    assert_eq!(report.connections, K as u64, "{report}");
    assert_eq!(report.refused_sessions, 0, "{report}");
    assert_eq!(
        threads_named("net-accept-"),
        0,
        "shutdown joins the acceptor"
    );
}
