//! The delegation wire protocol: request encoding shared by MP-SERVER,
//! HYBCOMB, and the runtime's shard servers.
//!
//! The paper's protocol is three words — `{sender, op, arg}` — answered by
//! a one-word response. When telemetry is enabled ([`mpsync_telemetry::ENABLED`])
//! the request grows a **fourth word carrying the client's submit timestamp**
//! (ns since the telemetry epoch, from [`mpsync_telemetry::now_ns`]). That is
//! what makes queue-wait honest: the servicing thread computes
//! `now − submit_ns` for a request that genuinely crossed a hardware queue,
//! instead of guessing from its own receive cadence. [`REQ_WORDS`] is a
//! compile-time constant, so the disabled build sends exactly the paper's
//! three words with no runtime branching anywhere on the path.

use mpsync_telemetry as telemetry;

/// Words per request message: 3 (paper protocol), or 4 with telemetry
/// enabled (the extra word is the client submit timestamp).
pub const REQ_WORDS: usize = if telemetry::ENABLED { 4 } else { 3 };

/// A decoded request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// The sender's endpoint id as a word (where the response goes).
    pub sender: u64,
    /// Opcode.
    pub op: u64,
    /// Argument.
    pub arg: u64,
    /// Client submit time (ns since the telemetry epoch), or 0 when
    /// telemetry is off ("no timestamp" — span recording ignores it).
    pub submit_ns: u64,
}

/// Encodes a request stamped with the current time. The stamp is carried
/// only when [`REQ_WORDS`] is 4; 3-word builds read no clock.
#[inline]
pub fn request(sender: u64, op: u64, arg: u64) -> [u64; REQ_WORDS] {
    let mut words = [0u64; REQ_WORDS];
    words[0] = sender;
    words[1] = op;
    words[2] = arg;
    if let Some(slot) = words.get_mut(3) {
        *slot = telemetry::now_ns();
    }
    words
}

/// Decodes a request received off the wire.
#[inline]
pub fn decode(words: [u64; REQ_WORDS]) -> Request {
    Request {
        sender: words[0],
        op: words[1],
        arg: words[2],
        submit_ns: words.get(3).copied().unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let r = decode(request(7, 2, 99));
        assert_eq!((r.sender, r.op, r.arg), (7, 2, 99));
        assert_eq!(REQ_WORDS, if telemetry::ENABLED { 4 } else { 3 });
    }

    #[test]
    fn stamped_request_matches_mode() {
        let r = decode(request(1, 2, 3));
        // now_ns() is 0 when disabled, ≥ 1 when enabled — either way the
        // decoded timestamp agrees with the mode.
        assert_eq!(r.submit_ns > 0, telemetry::ENABLED);
    }
}
