//! Endpoints: per-thread handles to one hardware queue.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use mpsync_telemetry as telemetry;
use mpsync_telemetry::{Algo, Counter, Lane};

use crate::error::SendError;
use crate::fabric::{Fabric, FabricConfig};
use crate::stats::EndpointStats;

/// Identifier of one hardware queue on the fabric: this is the "thread id"
/// that the paper's algorithms put inside messages (`send(i, M)` in §2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub(crate) u32);

impl EndpointId {
    /// Flat index of this endpoint on its fabric.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs an id from a flat index (e.g. one carried in a message
    /// word). The id is only meaningful on the fabric it came from.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Self(index as u32)
    }

    /// Packs the id into a message word.
    #[inline]
    pub fn to_word(self) -> u64 {
        u64::from(self.0)
    }

    /// Unpacks an id from a message word.
    #[inline]
    pub fn from_word(w: u64) -> Self {
        Self(w as u32)
    }

    /// The core this endpoint's queue lives on, under `config`.
    #[inline]
    pub fn core(self, config: &FabricConfig) -> usize {
        self.index() / config.channels_per_core
    }

    /// The channel (demux slot) within the core, under `config`.
    #[inline]
    pub fn channel(self, config: &FabricConfig) -> usize {
        self.index() % config.channels_per_core
    }
}

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// Exclusive handle to one hardware queue: the only way to receive from it.
///
/// `Endpoint` is `Send` but deliberately **not** `Sync`/clonable: the
/// single-consumer discipline of the underlying FIFO is enforced by Rust
/// ownership. Sending to *other* endpoints needs no exclusivity and is
/// available on both `Endpoint` and [`Sender`].
///
/// Dropping the endpoint unregisters the queue (the TILE-Gx lets threads
/// "unregister and freely migrate afterwards").
pub struct Endpoint {
    fabric: Arc<Fabric>,
    id: EndpointId,
    sent: AtomicU64,
    received: AtomicU64,
}

impl Endpoint {
    pub(crate) fn new(fabric: Arc<Fabric>, id: EndpointId) -> Self {
        Self {
            fabric,
            id,
            sent: AtomicU64::new(0),
            received: AtomicU64::new(0),
        }
    }

    /// This endpoint's identifier (its address for `send`).
    #[inline]
    pub fn id(&self) -> EndpointId {
        self.id
    }

    /// The fabric this endpoint is registered on.
    #[inline]
    pub fn fabric(&self) -> &Arc<Fabric> {
        &self.fabric
    }

    /// Sends `words` as one contiguous message to `dest`, blocking if the
    /// destination queue is full (back-pressure). Asynchronous in the sense
    /// of the paper: returning does not imply the message was consumed.
    #[inline]
    pub fn send(&self, dest: EndpointId, words: &[u64]) -> Result<(), SendError> {
        let queue = self.fabric.queue(dest)?;
        if telemetry::ENABLED {
            let t0 = telemetry::now_ns();
            let waited = queue.send_blocking(words);
            telemetry::count(Counter::UdnSends, 1);
            if waited {
                telemetry::count(Counter::UdnBlockedSends, 1);
                // The whole send's wall time counts as blocked: an
                // unblocked send is nanoseconds, so the span is ~all wait.
                telemetry::record_span(self.id.0, Algo::Udn, Lane::Blocked, t0);
            }
        } else {
            queue.send_blocking(words);
        }
        self.sent.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Attempts to send without blocking; fails with [`SendError::Full`] if
    /// the destination queue cannot take the whole message right now.
    #[inline]
    pub fn try_send(&self, dest: EndpointId, words: &[u64]) -> Result<(), SendError> {
        if self.fabric.queue(dest)?.try_send(words) {
            self.sent.fetch_add(1, Ordering::Relaxed);
            Ok(())
        } else {
            if telemetry::ENABLED {
                telemetry::count(Counter::UdnFailedSends, 1);
            }
            Err(SendError::Full(dest))
        }
    }

    /// Receives exactly `buf.len()` words from the head of the local queue,
    /// blocking until available (`receive(k)` of the paper's model).
    #[inline]
    pub fn receive(&mut self, buf: &mut [u64]) {
        let queue = self.fabric.queue(self.id).expect("own queue always exists");
        if telemetry::ENABLED {
            // Occupancy sampled before the dequeue: words resident in the
            // local hardware queue when its owner came to read it.
            telemetry::record_value(Algo::Udn, Lane::Occupancy, queue.len() as u64);
            let t0 = telemetry::now_ns();
            queue.receive_blocking(buf);
            telemetry::count(Counter::UdnReceives, 1);
            telemetry::record_span(self.id.0, Algo::Udn, Lane::Receive, t0);
        } else {
            queue.receive_blocking(buf);
        }
        self.received.fetch_add(buf.len() as u64, Ordering::Relaxed);
    }

    /// Receives a single word (`receive(1)`).
    #[inline]
    pub fn receive1(&mut self) -> u64 {
        let mut buf = [0u64; 1];
        self.receive(&mut buf);
        buf[0]
    }

    /// Receives a three-word message (`receive(3)`), the request format used
    /// by MP-SERVER and HYBCOMB: `{sender_id, op, arg}`.
    #[inline]
    pub fn receive3(&mut self) -> [u64; 3] {
        let mut buf = [0u64; 3];
        self.receive(&mut buf);
        buf
    }

    /// Non-blocking receive of up to `buf.len()` words; returns the count
    /// actually read.
    #[inline]
    pub fn try_receive(&mut self, buf: &mut [u64]) -> usize {
        let n = self
            .fabric
            .queue(self.id)
            .expect("own queue always exists")
            .try_receive(buf);
        self.received.fetch_add(n as u64, Ordering::Relaxed);
        n
    }

    /// `is_queue_empty()` of the paper's model: `true` if the local queue
    /// holds no published word.
    #[inline]
    pub fn is_queue_empty(&self) -> bool {
        self.fabric
            .queue(self.id)
            .expect("own queue always exists")
            .is_empty()
    }

    /// Counters observed so far on this endpoint.
    pub fn stats(&self) -> EndpointStats {
        EndpointStats {
            id: self.id,
            messages_sent: self.sent.load(Ordering::Relaxed),
            words_received: self.received.load(Ordering::Relaxed),
        }
    }
}

impl Drop for Endpoint {
    fn drop(&mut self) {
        self.fabric.unregister(self.id);
    }
}

impl fmt::Debug for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Endpoint").field("id", &self.id).finish()
    }
}

/// Send-only handle, not bound to any queue. Cheap to clone.
#[derive(Clone)]
pub struct Sender {
    fabric: Arc<Fabric>,
}

impl Sender {
    pub(crate) fn new(fabric: Arc<Fabric>) -> Self {
        Self { fabric }
    }

    /// Sends `words` to `dest`, blocking on back-pressure.
    #[inline]
    pub fn send(&self, dest: EndpointId, words: &[u64]) -> Result<(), SendError> {
        let waited = self.fabric.queue(dest)?.send_blocking(words);
        if telemetry::ENABLED {
            telemetry::count(Counter::UdnSends, 1);
            if waited {
                telemetry::count(Counter::UdnBlockedSends, 1);
            }
        }
        Ok(())
    }

    /// Attempts to send without blocking.
    #[inline]
    pub fn try_send(&self, dest: EndpointId, words: &[u64]) -> Result<(), SendError> {
        if self.fabric.queue(dest)?.try_send(words) {
            Ok(())
        } else {
            if telemetry::ENABLED {
                telemetry::count(Counter::UdnFailedSends, 1);
            }
            Err(SendError::Full(dest))
        }
    }
}

impl fmt::Debug for Sender {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FabricConfig;

    #[test]
    fn id_roundtrip_through_words() {
        let id = EndpointId::from_index(42);
        assert_eq!(EndpointId::from_word(id.to_word()), id);
        assert_eq!(id.index(), 42);
    }

    #[test]
    fn core_channel_decomposition() {
        let cfg = FabricConfig::new(4); // 4 channels per core
        let id = EndpointId::from_index(9);
        assert_eq!(id.core(&cfg), 2);
        assert_eq!(id.channel(&cfg), 1);
    }

    #[test]
    fn send_receive_roundtrip() {
        let f = Arc::new(Fabric::new(FabricConfig::new(2)));
        let a = f.register_any().unwrap();
        let mut b = f.register_any().unwrap();
        a.send(b.id(), &[5, 6, 7]).unwrap();
        assert_eq!(b.receive3(), [5, 6, 7]);
        assert!(b.is_queue_empty());
    }

    #[test]
    fn send_to_missing_endpoint_errors() {
        let f = Arc::new(Fabric::new(FabricConfig::new(1).with_channels_per_core(1)));
        let a = f.register(0, 0).unwrap();
        let bogus = EndpointId::from_index(99);
        assert_eq!(a.send(bogus, &[1]), Err(SendError::NoSuchEndpoint(bogus)));
    }

    #[test]
    fn sender_handle_can_reach_endpoints() {
        let f = Arc::new(Fabric::new(FabricConfig::new(1)));
        let mut a = f.register_any().unwrap();
        let s = f.sender();
        s.send(a.id(), &[99]).unwrap();
        assert_eq!(a.receive1(), 99);
    }

    #[test]
    fn try_send_full_reports_dest() {
        let f = Arc::new(Fabric::new(FabricConfig::new(1).with_queue_capacity(2)));
        let a = f.register_any().unwrap();
        let b = f.register_any().unwrap();
        a.send(b.id(), &[1, 2]).unwrap();
        assert_eq!(a.try_send(b.id(), &[3]), Err(SendError::Full(b.id())));
        // The rejection is a failed send, not back-pressure.
        let stats = f.stats();
        assert_eq!(stats.failed_sends, 1);
        assert_eq!(stats.blocked_sends, 0);
    }

    #[test]
    fn self_send_loopback() {
        let f = Arc::new(Fabric::new(FabricConfig::new(1)));
        let mut a = f.register_any().unwrap();
        let me = a.id();
        a.send(me, &[1]).unwrap();
        assert!(!a.is_queue_empty());
        assert_eq!(a.receive1(), 1);
    }
}
