//! Adversarial peers against a live server: malformed frames, torn
//! streams, mid-request disconnects, and slow readers. The invariant under
//! test is always the same — one misbehaving connection is torn down and
//! accounted, the process and every other connection keep working.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mpsync_net::frame::{reject, Status, TAG_OP};
use mpsync_net::{ClientError, NetClient, NetServer, ServerConfig};
use mpsync_objects::seq::keyed_counter_ops;
use mpsync_runtime::{Backend, RuntimeConfig, ShardedCounter};

const INC: u8 = keyed_counter_ops::INC as u8;

fn start_server() -> (NetServer, std::net::SocketAddr, Arc<ShardedCounter>) {
    let svc = Arc::new(ShardedCounter::new(
        RuntimeConfig::new(2)
            .with_backend(Backend::MpServer)
            .with_max_sessions(16),
    ));
    let server = NetServer::builder(svc.clone())
        .config(ServerConfig::default().with_max_op(keyed_counter_ops::GET as u8))
        .tcp("127.0.0.1:0")
        .expect("bind")
        .start()
        .expect("start");
    let addr = server.tcp_addrs()[0];
    (server, addr, svc)
}

/// Polls the server's counters until `pred` holds or 5 s pass.
fn wait_stats(server: &NetServer, pred: impl Fn(&mpsync_net::DrainReport) -> bool) -> bool {
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline {
        if pred(&server.stats()) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    false
}

/// Encodes one raw op frame by hand (so tests can also corrupt it).
fn raw_op_frame(id: u64, key: u64, op: u8, arg: u64) -> Vec<u8> {
    let mut body = vec![TAG_OP];
    body.extend_from_slice(&id.to_le_bytes());
    body.extend_from_slice(&key.to_le_bytes());
    body.push(op);
    body.extend_from_slice(&arg.to_le_bytes());
    let mut out = (body.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(&body);
    out
}

/// After each adversarial episode the server must still serve a fresh,
/// well-behaved connection.
fn assert_still_serving(addr: std::net::SocketAddr, key: u64) {
    let mut client = NetClient::connect_tcp(addr).expect("reconnect");
    let v = client.call(key, INC, 0).expect("op after adversary");
    let w = client.call(key, INC, 0).expect("second op");
    assert_eq!(w, v + 1);
}

#[test]
fn oversized_frame_is_counted_and_isolated() {
    let (server, addr, _svc) = start_server();
    let mut sock = TcpStream::connect(addr).expect("connect");
    // Claim a 64 KiB body (limit is 1 KiB) and start sending zeros.
    sock.write_all(&(64 * 1024u32).to_le_bytes())
        .expect("write");
    sock.write_all(&[0u8; 32]).expect("write");
    let mut buf = [0u8; 16];
    // Server answers nothing and closes the connection.
    assert_eq!(sock.read(&mut buf).expect("read"), 0);
    assert!(
        wait_stats(&server, |s| s.protocol_errors == 1),
        "{}",
        server.stats()
    );
    assert_still_serving(addr, 1);
    server.shutdown();
}

#[test]
fn unknown_tag_and_zero_length_are_protocol_errors() {
    let (server, addr, _svc) = start_server();
    let mut bad_tag = TcpStream::connect(addr).expect("connect");
    bad_tag.write_all(&1u32.to_le_bytes()).expect("write");
    bad_tag.write_all(&[0x5a]).expect("write");
    let mut empty = TcpStream::connect(addr).expect("connect");
    empty.write_all(&0u32.to_le_bytes()).expect("write");
    assert!(
        wait_stats(&server, |s| s.protocol_errors == 2),
        "{}",
        server.stats()
    );
    assert_still_serving(addr, 2);
    server.shutdown();
}

#[test]
fn torn_frame_then_disconnect_is_a_clean_teardown() {
    let (server, addr, _svc) = start_server();
    {
        let mut sock = TcpStream::connect(addr).expect("connect");
        let frame = raw_op_frame(0, 3, INC, 0);
        sock.write_all(&frame[..frame.len() / 2]).expect("write");
        // Dropping here closes the socket with half a frame outstanding.
    }
    assert!(
        wait_stats(&server, |s| s.disconnects == 1),
        "{}",
        server.stats()
    );
    let stats = server.stats();
    assert_eq!(stats.protocol_errors, 0, "torn ≠ malformed: {stats}");
    assert_still_serving(addr, 3);
    server.shutdown();
}

#[test]
fn mid_request_disconnect_applies_only_complete_requests() {
    let (server, addr, svc) = start_server();
    let key = 44u64;
    {
        let mut sock = TcpStream::connect(addr).expect("connect");
        let mut bytes = Vec::new();
        for id in 0..5u64 {
            bytes.extend_from_slice(&raw_op_frame(id, key, INC, 0));
        }
        sock.write_all(&bytes).expect("write");
        // Collect the five acks so the torn tail is all that's pending.
        let mut got = Vec::new();
        let mut buf = [0u8; 1024];
        while got.len() < 5 * (4 + 18) {
            let n = sock.read(&mut buf).expect("read");
            assert_ne!(n, 0, "server closed before answering");
            got.extend_from_slice(&buf[..n]);
        }
        let half = raw_op_frame(5, key, INC, 0);
        sock.write_all(&half[..10]).expect("write");
        // Drop: mid-request disconnect.
    }
    assert!(
        wait_stats(&server, |s| s.disconnects == 1),
        "{}",
        server.stats()
    );
    assert_still_serving(addr, 45);
    server.shutdown();
    let (totals, _) = Arc::try_unwrap(svc).ok().expect("sole owner").shutdown();
    // Exactly the five complete requests were applied; the torn sixth never.
    assert_eq!(totals.get(&key), Some(&5));
}

#[test]
fn slow_reader_receives_every_ack_in_order() {
    let (server, addr, _svc) = start_server();
    let key = 7u64;
    let mut client = NetClient::connect_tcp(addr).expect("connect");
    const N: u64 = 100;
    for _ in 0..N {
        client.send(key, INC, 0);
    }
    client.flush().expect("flush");
    let mut pres = Vec::new();
    for i in 0..N {
        if i % 10 == 0 {
            std::thread::sleep(Duration::from_millis(2)); // dawdle
        }
        let resp = client.recv().expect("recv").expect("open");
        assert_eq!(resp.status, Status::Ok);
        pres.push(resp.value);
    }
    assert_eq!(pres, (0..N).collect::<Vec<_>>());
    server.shutdown();
}

#[test]
fn out_of_range_key_and_opcode_are_rejected_not_fatal() {
    let (server, addr, _svc) = start_server();
    let mut client = NetClient::connect_tcp(addr).expect("connect");
    match client.call(1 << 56, INC, 0) {
        Err(ClientError::Rejected(code)) => assert_eq!(code, reject::KEY_RANGE),
        other => panic!("expected key-range rejection, got {other:?}"),
    }
    // Opcode above the service's configured max (GET): the server refuses
    // it before the dispatch body could panic on an unknown opcode.
    match client.call(5, keyed_counter_ops::GET as u8 + 1, 0) {
        Err(ClientError::Rejected(code)) => assert_eq!(code, reject::OP_RANGE),
        other => panic!("expected op-range rejection, got {other:?}"),
    }
    // The connection survives rejections and still does real work.
    assert_eq!(client.call(5, INC, 0).expect("valid op"), 0);
    assert!(
        wait_stats(&server, |s| s.bad_requests == 2),
        "{}",
        server.stats()
    );
    server.shutdown();
}
