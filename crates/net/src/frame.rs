//! The wire protocol: little-endian, length-prefixed binary frames.
//!
//! Every frame is a `u32` body length followed by the body; the first body
//! byte is a tag. The client-facing protocol has three frames:
//!
//! | tag | frame | body layout |
//! |---|---|---|
//! | `0x01` | request `Op`   | `id: u64, key: u64, op: u8, arg: u64[, trace: u64]` |
//! | `0x02` | request `Ping` | `id: u64` |
//! | `0x81` | [`Response`]   | `id: u64, status: u8, value: u64` |
//!
//! `Op` (and the node-side `Fwd`/`Repl`) optionally carry a trailing
//! **trace word** (see [`trace_word`]): a `u32` trace id plus a `u16` hop
//! count that rides with a request across forwards and replication so
//! every node can record a hop span under the same id. The suffix is
//! encoded only when non-zero and *decoded unconditionally*, so a
//! telemetry-enabled client interoperates with a disabled server and vice
//! versa.
//!
//! The `0x20`+ range is the **admin** protocol, served on the same
//! listeners as client traffic:
//!
//! | tag | frame | body layout |
//! |---|---|---|
//! | `0x20` | request `Stat` | `id: u64, kind: u8` |
//! | `0x21` | [`StatReply`]  | `id: u64, kind: u8, payload: bytes` |
//!
//! `kind` selects the payload ([`stat_kind`]): a versioned JSON snapshot
//! of counters/histograms/shard/cluster state, or a binary span dump
//! ([`encode_spans`]) a collector stitches into a cross-node Chrome
//! trace. `StatReply` bodies routinely exceed [`DEFAULT_MAX_FRAME`];
//! admin clients read them with an [`ADMIN_MAX_FRAME`] bound instead.
//!
//! Request IDs are chosen by the client and echoed verbatim in the matching
//! response. A connection is a full-duplex pipeline: clients may keep many
//! requests in flight, and the server answers each connection's requests in
//! the order it received them (per-connection FIFO — the property that lets
//! a client match responses without a reorder buffer).
//!
//! The `0x10`–`0x1a` tag range carries the **node-to-node** protocol
//! ([`NodeMsg`]): a versioned handshake ([`NodeMsg::Hello`], checked
//! against [`NODE_PROTO_VERSION`]), forwarded client operations that keep
//! their origin request id as a cluster-wide dedup uid ([`NodeMsg::Fwd`]),
//! the primary→backup replication stream, slot-state transfer chunks for
//! live handoff, and routing-epoch gossip. `mpsync-cluster` gives these
//! frames their semantics; this module only defines the wire layout so
//! both directions share one codec and one [`FrameReader`].
//!
//! Decoding is strict and total: a zero-length body, an over-limit length
//! prefix, an unknown tag, or a tag whose body length does not match all
//! surface as a typed [`FrameError`] — never a panic, and never a partial
//! read of a later frame.

/// Body tag of an `Op` request.
pub const TAG_OP: u8 = 0x01;
/// Body tag of a `Ping` request.
pub const TAG_PING: u8 = 0x02;
/// Body tag of a response.
pub const TAG_REPLY: u8 = 0x81;

/// Body tag of a node-to-node [`NodeMsg::Hello`] handshake/heartbeat.
pub const TAG_HELLO: u8 = 0x10;
/// Body tag of a node-to-node [`NodeMsg::HelloAck`].
pub const TAG_HELLO_ACK: u8 = 0x11;
/// Body tag of a forwarded client operation ([`NodeMsg::Fwd`]).
pub const TAG_FWD: u8 = 0x12;
/// Body tag of a forwarded-operation reply ([`NodeMsg::FwdReply`]).
pub const TAG_FWD_REPLY: u8 = 0x13;
/// Body tag of a primary→backup replication record ([`NodeMsg::Repl`]).
pub const TAG_REPL: u8 = 0x14;
/// Body tag of a cumulative replication ack ([`NodeMsg::ReplAck`]).
pub const TAG_REPL_ACK: u8 = 0x15;
/// Body tag of a routing-epoch update ([`NodeMsg::RouteUpdate`]).
pub const TAG_ROUTE: u8 = 0x16;
/// Body tag of a handoff state-transfer chunk ([`NodeMsg::SlotChunk`]).
pub const TAG_CHUNK: u8 = 0x17;
/// Body tag of a slot-transfer acknowledgement ([`NodeMsg::SlotAck`]).
pub const TAG_SLOT_ACK: u8 = 0x18;
/// Body tag of a slot resynchronisation request ([`NodeMsg::SyncReq`]).
pub const TAG_SYNC_REQ: u8 = 0x19;
/// Body tag of an administrative handoff trigger ([`NodeMsg::Handoff`]).
pub const TAG_HANDOFF: u8 = 0x1a;

/// Body tag of an admin stats request ([`Request::Stat`]).
pub const TAG_STAT_REQ: u8 = 0x20;
/// Body tag of an admin stats reply ([`StatReply`]).
pub const TAG_STAT_REPLY: u8 = 0x21;

/// Payload kinds for [`Request::Stat`] / [`StatReply`].
pub mod stat_kind {
    /// Versioned JSON snapshot: counters, histograms, per-shard runtime
    /// stats, per-slot cluster state, flight-recorder dump.
    pub const SNAPSHOT: u8 = 0;
    /// Binary span dump ([`super::encode_spans`]): the server drains its
    /// telemetry span rings and ships the raw records for cross-node
    /// trace stitching.
    pub const SPANS: u8 = 1;
}

/// Packing helpers for the optional trace word carried by `Op`/`Fwd`/`Repl`
/// frames: `trace_id` in the top 32 bits, hop count in bits 16–31, low 16
/// bits reserved (zero). The whole word being 0 means "no trace", so
/// generators must pick non-zero trace ids.
pub mod trace_word {
    /// Packs a trace id and hop count into a wire trace word.
    pub fn pack(trace_id: u32, hop: u16) -> u64 {
        ((trace_id as u64) << 32) | ((hop as u64) << 16)
    }

    /// The trace id (0 when the word is "no trace").
    pub fn id(word: u64) -> u32 {
        (word >> 32) as u32
    }

    /// The hop count: how many times the op has been relayed so far.
    pub fn hop(word: u64) -> u16 {
        (word >> 16) as u16
    }

    /// The word to put on the next outbound leg: same id, hop + 1
    /// (saturating). Passing 0 yields 0 — relaying never invents a trace.
    pub fn next_hop(word: u64) -> u64 {
        if word == 0 {
            0
        } else {
            pack(id(word), hop(word).saturating_add(1))
        }
    }
}

/// Version word carried in [`NodeMsg::Hello`]; a node drops peer
/// connections that greet with any other version. Version 2: a slot's backup
/// answers the ops it forwarded itself, so a primary sends it no `FwdReply`
/// for them; a version-1 backup would wait a resend interval for each.
pub const NODE_PROTO_VERSION: u16 = 2;

/// Sentinel node id meaning "no node" (e.g. a slot with no backup).
pub const NO_NODE: u16 = u16::MAX;

/// Body length of an `Op` request (tag + id + key + op + arg).
const OP_BODY: usize = 1 + 8 + 8 + 1 + 8;
/// Body length of a `Ping` request (tag + id).
const PING_BODY: usize = 1 + 8;
/// Body length of a response (tag + id + status + value).
const REPLY_BODY: usize = 1 + 8 + 1 + 8;
/// Body length of a `Stat` request (tag + id + kind).
const STAT_REQ_BODY: usize = 1 + 8 + 1;
/// Minimum body length of a [`StatReply`] (tag + id + kind, empty payload).
const STAT_REPLY_MIN: usize = 1 + 8 + 1;
/// Extra body bytes when a frame carries a trace word.
const TRACE_SUFFIX: usize = 8;

/// Largest body a peer may send unless configured otherwise. Every
/// fixed-layout frame is ≤ 52 bytes; [`NodeMsg::SlotChunk`] is the one
/// variable frame and its senders cap entries so a chunk fits this bound,
/// which in turn bounds a malicious length prefix.
pub const DEFAULT_MAX_FRAME: u32 = 1024;

/// Frame bound for connections expecting [`StatReply`] bodies: the JSON
/// snapshot and span dumps are as large as the telemetry state behind
/// them, so admin clients read with this bound instead of
/// [`DEFAULT_MAX_FRAME`].
pub const ADMIN_MAX_FRAME: u32 = 4 * 1024 * 1024;

/// Why a byte stream failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Length prefix exceeds the configured maximum body size.
    Oversized {
        /// The length the prefix claimed.
        len: u32,
        /// The configured bound it exceeded.
        max: u32,
    },
    /// Zero-length body: no frame is empty, so this is never valid.
    Empty,
    /// First body byte is not a known tag.
    UnknownTag(u8),
    /// Body length does not match what `tag` requires.
    Length {
        /// The tag whose layout was violated.
        tag: u8,
        /// Bytes the body actually carried.
        got: usize,
        /// Bytes the tag's layout requires.
        want: usize,
    },
    /// Response status byte is not a known [`Status`].
    BadStatus(u8),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { len, max } => {
                write!(f, "frame body of {len} bytes exceeds limit of {max}")
            }
            FrameError::Empty => write!(f, "zero-length frame body"),
            FrameError::UnknownTag(t) => write!(f, "unknown frame tag {t:#04x}"),
            FrameError::Length { tag, got, want } => {
                write!(f, "tag {tag:#04x} body is {got} bytes, layout needs {want}")
            }
            FrameError::BadStatus(s) => write!(f, "unknown response status {s}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Outcome of one request, carried in every response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// The operation was applied; `value` is its result word.
    Ok = 0,
    /// The target shard's submission window was full under the `Fail`
    /// policy. The operation was **not** applied; retry with backoff.
    Busy = 1,
    /// The runtime is shutting down; the operation was not applied and the
    /// connection will not accept further work.
    Closed = 2,
    /// The request was malformed (key or opcode out of range); `value`
    /// holds a [`reject`] reason code. The operation was not applied.
    BadRequest = 3,
    /// The key's slot is owned by another node; `value` holds the owning
    /// node id. The operation was not applied — retry against that node
    /// with the **same** request id so cluster dedup still recognises it.
    Redirect = 4,
    /// The operation **was applied** earlier, but its recorded result has
    /// since been evicted from the dedup table — the result word is lost
    /// (`value` is 0). Returned instead of re-executing, which would
    /// double-apply. Do not retry; treat as applied with unknown result.
    Stale = 5,
}

impl Status {
    fn from_u8(v: u8) -> Result<Status, FrameError> {
        match v {
            0 => Ok(Status::Ok),
            1 => Ok(Status::Busy),
            2 => Ok(Status::Closed),
            3 => Ok(Status::BadRequest),
            4 => Ok(Status::Redirect),
            5 => Ok(Status::Stale),
            other => Err(FrameError::BadStatus(other)),
        }
    }
}

/// Reason codes carried in the `value` word of a `BadRequest` response.
pub mod reject {
    /// `key` exceeds [`mpsync_runtime::MAX_KEY`] (56 bits).
    pub const KEY_RANGE: u64 = 1;
    /// `op` exceeds [`mpsync_runtime::MAX_OPCODE`] (8 bits).
    pub const OP_RANGE: u64 = 2;
}

/// A client→server frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// One keyed operation for the runtime: `(key, op, arg)`, answered with
    /// the executor's result word.
    Op {
        /// Client-chosen ID echoed in the response.
        id: u64,
        /// Routing key (≤ 56 bits; larger keys are rejected, not applied).
        key: u64,
        /// Opcode for the shard's dispatch body.
        op: u8,
        /// Argument word.
        arg: u64,
        /// Trace word ([`trace_word`]), or 0 for untraced. Encoded as an
        /// optional body suffix: absent on the wire when 0.
        trace: u64,
    },
    /// Liveness probe; answered `Ok` with value 0, applied to nothing.
    Ping {
        /// Client-chosen ID echoed in the response.
        id: u64,
    },
    /// Admin stats poll: answered with a [`StatReply`] of the same `id`
    /// and `kind`. Served by every listener, applied to nothing.
    Stat {
        /// Client-chosen ID echoed in the reply.
        id: u64,
        /// Which payload to return ([`stat_kind`]).
        kind: u8,
    },
}

impl Request {
    /// The client-chosen request ID.
    pub fn id(&self) -> u64 {
        match *self {
            Request::Op { id, .. } | Request::Ping { id } | Request::Stat { id, .. } => id,
        }
    }
}

/// A server→client frame: the answer to the request with the same `id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Response {
    /// Echo of the request's ID.
    pub id: u64,
    /// What happened to the request.
    pub status: Status,
    /// Result word (`Ok`), reason code (`BadRequest`), or 0.
    pub value: u64,
}

fn rd_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("slice is 8 bytes"))
}

fn rd_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("slice is 4 bytes"))
}

fn rd_u16(b: &[u8]) -> u16 {
    u16::from_le_bytes(b[..2].try_into().expect("slice is 2 bytes"))
}

/// A frame body: encodable into and decodable from raw bytes. Implemented
/// by [`Request`] and [`Response`]; both directions share one [`FrameReader`].
pub trait Wire: Sized {
    /// Appends the body bytes (tag included, length prefix excluded).
    fn encode_body(&self, out: &mut Vec<u8>);

    /// Parses a complete body. `body` is never empty (the reader rejects
    /// zero-length frames first).
    fn decode_body(body: &[u8]) -> Result<Self, FrameError>;

    /// Appends the full frame: length prefix then body.
    fn encode_frame(&self, out: &mut Vec<u8>) {
        let at = out.len();
        out.extend_from_slice(&[0u8; 4]);
        self.encode_body(out);
        let len = (out.len() - at - 4) as u32;
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// Validates an optional trace suffix: a body of `base` bytes carries no
/// trace (returns 0), `base + 8` carries the trace word in its tail; any
/// other length is a typed error against the base layout.
fn rd_trace(tag: u8, body: &[u8], base: usize) -> Result<u64, FrameError> {
    if body.len() == base {
        Ok(0)
    } else if body.len() == base + TRACE_SUFFIX {
        Ok(rd_u64(&body[base..]))
    } else {
        Err(FrameError::Length {
            tag,
            got: body.len(),
            want: base,
        })
    }
}

impl Wire for Request {
    fn encode_body(&self, out: &mut Vec<u8>) {
        match *self {
            Request::Op {
                id,
                key,
                op,
                arg,
                trace,
            } => {
                out.push(TAG_OP);
                out.extend_from_slice(&id.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
                out.push(op);
                out.extend_from_slice(&arg.to_le_bytes());
                if trace != 0 {
                    out.extend_from_slice(&trace.to_le_bytes());
                }
            }
            Request::Ping { id } => {
                out.push(TAG_PING);
                out.extend_from_slice(&id.to_le_bytes());
            }
            Request::Stat { id, kind } => {
                out.push(TAG_STAT_REQ);
                out.extend_from_slice(&id.to_le_bytes());
                out.push(kind);
            }
        }
    }

    fn decode_body(body: &[u8]) -> Result<Self, FrameError> {
        match body[0] {
            TAG_OP => {
                let trace = rd_trace(TAG_OP, body, OP_BODY)?;
                Ok(Request::Op {
                    id: rd_u64(&body[1..]),
                    key: rd_u64(&body[9..]),
                    op: body[17],
                    arg: rd_u64(&body[18..]),
                    trace,
                })
            }
            TAG_PING => {
                if body.len() != PING_BODY {
                    return Err(FrameError::Length {
                        tag: TAG_PING,
                        got: body.len(),
                        want: PING_BODY,
                    });
                }
                Ok(Request::Ping {
                    id: rd_u64(&body[1..]),
                })
            }
            TAG_STAT_REQ => {
                if body.len() != STAT_REQ_BODY {
                    return Err(FrameError::Length {
                        tag: TAG_STAT_REQ,
                        got: body.len(),
                        want: STAT_REQ_BODY,
                    });
                }
                Ok(Request::Stat {
                    id: rd_u64(&body[1..]),
                    kind: body[9],
                })
            }
            other => Err(FrameError::UnknownTag(other)),
        }
    }
}

impl Wire for Response {
    fn encode_body(&self, out: &mut Vec<u8>) {
        out.push(TAG_REPLY);
        out.extend_from_slice(&self.id.to_le_bytes());
        out.push(self.status as u8);
        out.extend_from_slice(&self.value.to_le_bytes());
    }

    fn decode_body(body: &[u8]) -> Result<Self, FrameError> {
        if body[0] != TAG_REPLY {
            return Err(FrameError::UnknownTag(body[0]));
        }
        if body.len() != REPLY_BODY {
            return Err(FrameError::Length {
                tag: TAG_REPLY,
                got: body.len(),
                want: REPLY_BODY,
            });
        }
        Ok(Response {
            id: rd_u64(&body[1..]),
            status: Status::from_u8(body[9])?,
            value: rd_u64(&body[10..]),
        })
    }
}

/// The answer to a [`Request::Stat`] with the same `id`: an opaque payload
/// whose shape is selected by `kind` ([`stat_kind`]). Not a [`Response`]
/// variant because the payload is variable-size (and routinely large) —
/// admin readers use their own [`FrameReader`] with [`ADMIN_MAX_FRAME`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatReply {
    /// Echo of the request's ID.
    pub id: u64,
    /// Echo of the requested payload kind.
    pub kind: u8,
    /// JSON bytes (`SNAPSHOT`) or packed span records (`SPANS`).
    pub payload: Vec<u8>,
}

impl Wire for StatReply {
    fn encode_body(&self, out: &mut Vec<u8>) {
        out.push(TAG_STAT_REPLY);
        out.extend_from_slice(&self.id.to_le_bytes());
        out.push(self.kind);
        out.extend_from_slice(&self.payload);
    }

    fn decode_body(body: &[u8]) -> Result<Self, FrameError> {
        if body[0] != TAG_STAT_REPLY {
            return Err(FrameError::UnknownTag(body[0]));
        }
        if body.len() < STAT_REPLY_MIN {
            return Err(FrameError::Length {
                tag: TAG_STAT_REPLY,
                got: body.len(),
                want: STAT_REPLY_MIN,
            });
        }
        Ok(StatReply {
            id: rd_u64(&body[1..]),
            kind: body[9],
            payload: body[10..].to_vec(),
        })
    }
}

/// Bytes per packed span record in a `SPANS` payload.
pub const SPAN_RECORD: usize = 24;

/// Packs drained telemetry spans into a `SPANS` payload: 24 bytes per
/// record — `track: u32, algo: u8, lane: u8, pad: u16, start_ns: u64,
/// dur_ns: u64`, little-endian. Binary rather than JSON so a scraper can
/// pull tens of thousands of spans per poll without a parser.
pub fn encode_spans(spans: &[mpsync_telemetry::SpanEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(spans.len() * SPAN_RECORD);
    for e in spans {
        out.extend_from_slice(&e.track.to_le_bytes());
        out.push(e.algo as u8);
        out.push(e.lane as u8);
        out.extend_from_slice(&[0u8; 2]);
        out.extend_from_slice(&e.start_ns.to_le_bytes());
        out.extend_from_slice(&e.dur_ns.to_le_bytes());
    }
    out
}

/// Unpacks a `SPANS` payload. Records whose algo/lane byte is outside this
/// build's enums are skipped (a newer peer may know more of either);
/// a payload that is not a whole number of records is a typed error.
pub fn decode_spans(payload: &[u8]) -> Result<Vec<mpsync_telemetry::SpanEvent>, FrameError> {
    use mpsync_telemetry::{Algo, Lane};
    if !payload.len().is_multiple_of(SPAN_RECORD) {
        return Err(FrameError::Length {
            tag: TAG_STAT_REPLY,
            got: payload.len(),
            want: SPAN_RECORD,
        });
    }
    let mut spans = Vec::with_capacity(payload.len() / SPAN_RECORD);
    for rec in payload.chunks_exact(SPAN_RECORD) {
        let (algo, lane) = (
            Algo::ALL.get(rec[4] as usize),
            Lane::ALL.get(rec[5] as usize),
        );
        if let (Some(&algo), Some(&lane)) = (algo, lane) {
            spans.push(mpsync_telemetry::SpanEvent {
                track: rd_u32(rec),
                algo,
                lane,
                start_ns: rd_u64(&rec[8..]),
                dur_ns: rd_u64(&rec[16..]),
            });
        }
    }
    Ok(spans)
}

/// A node-to-node frame (tags `0x10`–`0x1a`).
///
/// These frames run over the same length-prefixed transport as the client
/// protocol but between cluster members (and from an admin tool, for
/// [`NodeMsg::Handoff`]). Node ids are `u16`; [`NO_NODE`] is the "none"
/// sentinel. The semantics live in `mpsync-cluster`; this type is only the
/// codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeMsg {
    /// Handshake and heartbeat. First frame on every peer connection;
    /// thereafter sent periodically. `digest` summarises the sender's
    /// routing table (sum of slot epochs) so peers can detect divergence
    /// and anti-entropy-gossip their routes.
    Hello {
        /// Sender's protocol version; must equal [`NODE_PROTO_VERSION`].
        version: u16,
        /// Sender's node id.
        node: u16,
        /// Routing-table digest (sum of slot epochs).
        digest: u64,
    },
    /// Reply to [`NodeMsg::Hello`]; same layout and digest semantics.
    HelloAck {
        /// Responder's protocol version.
        version: u16,
        /// Responder's node id.
        node: u16,
        /// Responder's routing-table digest.
        digest: u64,
    },
    /// A client operation forwarded to the key's owner. `uid` is the
    /// origin client's request id, globally unique per logical operation —
    /// it travels with the op so the owner's dedup table makes retries
    /// (from the client or from a re-forwarding node) exactly-once.
    Fwd {
        /// Origin request id; the cluster-wide dedup key.
        uid: u64,
        /// Routing key.
        key: u64,
        /// Opcode.
        op: u8,
        /// Argument word.
        arg: u64,
        /// Trace word ([`trace_word`]), or 0; optional body suffix.
        trace: u64,
    },
    /// Answer to a [`NodeMsg::Fwd`] with the same `uid`. A slot's backup
    /// gets none for the ops it forwarded once they are applied: it answers
    /// them itself when their [`NodeMsg::Repl`] applies.
    FwdReply {
        /// Echo of the forwarded op's uid.
        uid: u64,
        /// Outcome; [`Status::Redirect`]'s `value` names the real owner.
        status: Status,
        /// Result word (or reason code / owner id, per `status`).
        value: u64,
    },
    /// One primary→backup replication record. Sequenced per `(slot,
    /// epoch)`; the backup applies in order and holds back gaps.
    Repl {
        /// Slot this record belongs to.
        slot: u16,
        /// Ownership epoch the sequence is scoped to.
        epoch: u64,
        /// Position in the slot's replication stream for this epoch.
        seq: u64,
        /// Dedup uid of the replicated operation.
        uid: u64,
        /// Routing key.
        key: u64,
        /// Opcode.
        op: u8,
        /// Argument word.
        arg: u64,
        /// Trace word ([`trace_word`]), or 0; optional body suffix.
        trace: u64,
    },
    /// Cumulative replication ack: the backup has applied every record of
    /// `(slot, epoch)` with sequence < `seq`.
    ReplAck {
        /// Slot being acknowledged.
        slot: u16,
        /// Epoch the acknowledged sequence is scoped to.
        epoch: u64,
        /// Records applied contiguously from sequence 0: one past the
        /// highest applied sequence number.
        seq: u64,
    },
    /// Routing gossip: `slot` is owned by `owner` (backed by `backup`,
    /// [`NO_NODE`] if none) as of `epoch`. Higher epochs win.
    RouteUpdate {
        /// Slot whose route changed.
        slot: u16,
        /// Ownership epoch; stale updates (lower epoch) are ignored.
        epoch: u64,
        /// Owning node id.
        owner: u16,
        /// Backup node id, or [`NO_NODE`].
        backup: u16,
    },
    /// One chunk of slot state during handoff or resync. Chunks are
    /// idempotent by `(epoch, index)`; `done` marks the final chunk.
    SlotChunk {
        /// Slot being transferred.
        slot: u16,
        /// Epoch the receiving node will own the slot under.
        epoch: u64,
        /// Chunk index within this transfer (for idempotent re-delivery).
        index: u32,
        /// Payload kind: [`chunk_kind::DATA`] or [`chunk_kind::DEDUP`].
        kind: u8,
        /// 1 on the final chunk of the transfer, else 0.
        done: u8,
        /// Key→value pairs (`DATA`) or uid→result pairs (`DEDUP`).
        entries: Vec<(u64, u64)>,
    },
    /// The receiver has durably imported the whole transfer for
    /// `(slot, epoch)` and now owns the slot.
    SlotAck {
        /// Slot whose transfer completed.
        slot: u16,
        /// Epoch of the completed transfer.
        epoch: u64,
    },
    /// Ask the slot's owner to stream current state (a fresh transfer at
    /// `epoch`); sent by a node that discarded a stale copy.
    SyncReq {
        /// Slot to resynchronise.
        slot: u16,
        /// Requester's last-known epoch for the slot.
        epoch: u64,
    },
    /// Administrative trigger: migrate `slot` to node `to`. Sent by an
    /// operator/driver connection, not by peers.
    Handoff {
        /// Slot to migrate.
        slot: u16,
        /// Destination node id.
        to: u16,
    },
}

/// Payload kinds for [`NodeMsg::SlotChunk`].
pub mod chunk_kind {
    /// Entries are object state: key → value pairs.
    pub const DATA: u8 = 0;
    /// Entries are dedup state: uid → result pairs.
    pub const DEDUP: u8 = 1;
    /// Entries are eviction watermarks: origin (uid high 32 bits) →
    /// highest dedup-evicted sequence (uid low 32 bits) for that origin.
    pub const FLOOR: u8 = 2;
}

/// Fixed body length (tag included) for each fixed-layout node frame.
const HELLO_BODY: usize = 1 + 2 + 2 + 8;
const FWD_BODY: usize = 1 + 8 + 8 + 1 + 8;
const FWD_REPLY_BODY: usize = 1 + 8 + 1 + 8;
const REPL_BODY: usize = 1 + 2 + 8 + 8 + 8 + 8 + 1 + 8;
const REPL_ACK_BODY: usize = 1 + 2 + 8 + 8;
const ROUTE_BODY: usize = 1 + 2 + 8 + 2 + 2;
const CHUNK_HEADER: usize = 1 + 2 + 8 + 4 + 1 + 1;
const SLOT_EPOCH_BODY: usize = 1 + 2 + 8;
const HANDOFF_BODY: usize = 1 + 2 + 2;

impl Wire for NodeMsg {
    fn encode_body(&self, out: &mut Vec<u8>) {
        match *self {
            NodeMsg::Hello {
                version,
                node,
                digest,
            }
            | NodeMsg::HelloAck {
                version,
                node,
                digest,
            } => {
                out.push(if matches!(self, NodeMsg::Hello { .. }) {
                    TAG_HELLO
                } else {
                    TAG_HELLO_ACK
                });
                out.extend_from_slice(&version.to_le_bytes());
                out.extend_from_slice(&node.to_le_bytes());
                out.extend_from_slice(&digest.to_le_bytes());
            }
            NodeMsg::Fwd {
                uid,
                key,
                op,
                arg,
                trace,
            } => {
                out.push(TAG_FWD);
                out.extend_from_slice(&uid.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
                out.push(op);
                out.extend_from_slice(&arg.to_le_bytes());
                if trace != 0 {
                    out.extend_from_slice(&trace.to_le_bytes());
                }
            }
            NodeMsg::FwdReply { uid, status, value } => {
                out.push(TAG_FWD_REPLY);
                out.extend_from_slice(&uid.to_le_bytes());
                out.push(status as u8);
                out.extend_from_slice(&value.to_le_bytes());
            }
            NodeMsg::Repl {
                slot,
                epoch,
                seq,
                uid,
                key,
                op,
                arg,
                trace,
            } => {
                out.push(TAG_REPL);
                out.extend_from_slice(&slot.to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&uid.to_le_bytes());
                out.extend_from_slice(&key.to_le_bytes());
                out.push(op);
                out.extend_from_slice(&arg.to_le_bytes());
                if trace != 0 {
                    out.extend_from_slice(&trace.to_le_bytes());
                }
            }
            NodeMsg::ReplAck { slot, epoch, seq } => {
                out.push(TAG_REPL_ACK);
                out.extend_from_slice(&slot.to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
            }
            NodeMsg::RouteUpdate {
                slot,
                epoch,
                owner,
                backup,
            } => {
                out.push(TAG_ROUTE);
                out.extend_from_slice(&slot.to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&owner.to_le_bytes());
                out.extend_from_slice(&backup.to_le_bytes());
            }
            NodeMsg::SlotChunk {
                slot,
                epoch,
                index,
                kind,
                done,
                ref entries,
            } => {
                out.push(TAG_CHUNK);
                out.extend_from_slice(&slot.to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
                out.extend_from_slice(&index.to_le_bytes());
                out.push(kind);
                out.push(done);
                for &(k, v) in entries {
                    out.extend_from_slice(&k.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            NodeMsg::SlotAck { slot, epoch } | NodeMsg::SyncReq { slot, epoch } => {
                out.push(if matches!(self, NodeMsg::SlotAck { .. }) {
                    TAG_SLOT_ACK
                } else {
                    TAG_SYNC_REQ
                });
                out.extend_from_slice(&slot.to_le_bytes());
                out.extend_from_slice(&epoch.to_le_bytes());
            }
            NodeMsg::Handoff { slot, to } => {
                out.push(TAG_HANDOFF);
                out.extend_from_slice(&slot.to_le_bytes());
                out.extend_from_slice(&to.to_le_bytes());
            }
        }
    }

    fn decode_body(body: &[u8]) -> Result<Self, FrameError> {
        let tag = body[0];
        let need = |want: usize| -> Result<(), FrameError> {
            if body.len() != want {
                Err(FrameError::Length {
                    tag,
                    got: body.len(),
                    want,
                })
            } else {
                Ok(())
            }
        };
        match tag {
            TAG_HELLO | TAG_HELLO_ACK => {
                need(HELLO_BODY)?;
                let version = rd_u16(&body[1..]);
                let node = rd_u16(&body[3..]);
                let digest = rd_u64(&body[5..]);
                Ok(if tag == TAG_HELLO {
                    NodeMsg::Hello {
                        version,
                        node,
                        digest,
                    }
                } else {
                    NodeMsg::HelloAck {
                        version,
                        node,
                        digest,
                    }
                })
            }
            TAG_FWD => {
                let trace = rd_trace(TAG_FWD, body, FWD_BODY)?;
                Ok(NodeMsg::Fwd {
                    uid: rd_u64(&body[1..]),
                    key: rd_u64(&body[9..]),
                    op: body[17],
                    arg: rd_u64(&body[18..]),
                    trace,
                })
            }
            TAG_FWD_REPLY => {
                need(FWD_REPLY_BODY)?;
                Ok(NodeMsg::FwdReply {
                    uid: rd_u64(&body[1..]),
                    status: Status::from_u8(body[9])?,
                    value: rd_u64(&body[10..]),
                })
            }
            TAG_REPL => {
                let trace = rd_trace(TAG_REPL, body, REPL_BODY)?;
                Ok(NodeMsg::Repl {
                    slot: rd_u16(&body[1..]),
                    epoch: rd_u64(&body[3..]),
                    seq: rd_u64(&body[11..]),
                    uid: rd_u64(&body[19..]),
                    key: rd_u64(&body[27..]),
                    op: body[35],
                    arg: rd_u64(&body[36..]),
                    trace,
                })
            }
            TAG_REPL_ACK => {
                need(REPL_ACK_BODY)?;
                Ok(NodeMsg::ReplAck {
                    slot: rd_u16(&body[1..]),
                    epoch: rd_u64(&body[3..]),
                    seq: rd_u64(&body[11..]),
                })
            }
            TAG_ROUTE => {
                need(ROUTE_BODY)?;
                Ok(NodeMsg::RouteUpdate {
                    slot: rd_u16(&body[1..]),
                    epoch: rd_u64(&body[3..]),
                    owner: rd_u16(&body[11..]),
                    backup: rd_u16(&body[13..]),
                })
            }
            TAG_CHUNK => {
                if body.len() < CHUNK_HEADER || !(body.len() - CHUNK_HEADER).is_multiple_of(16) {
                    return Err(FrameError::Length {
                        tag,
                        got: body.len(),
                        want: CHUNK_HEADER,
                    });
                }
                let mut entries = Vec::with_capacity((body.len() - CHUNK_HEADER) / 16);
                let mut at = CHUNK_HEADER;
                while at < body.len() {
                    entries.push((rd_u64(&body[at..]), rd_u64(&body[at + 8..])));
                    at += 16;
                }
                Ok(NodeMsg::SlotChunk {
                    slot: rd_u16(&body[1..]),
                    epoch: rd_u64(&body[3..]),
                    index: rd_u32(&body[11..]),
                    kind: body[15],
                    done: body[16],
                    entries,
                })
            }
            TAG_SLOT_ACK | TAG_SYNC_REQ => {
                need(SLOT_EPOCH_BODY)?;
                let slot = rd_u16(&body[1..]);
                let epoch = rd_u64(&body[3..]);
                Ok(if tag == TAG_SLOT_ACK {
                    NodeMsg::SlotAck { slot, epoch }
                } else {
                    NodeMsg::SyncReq { slot, epoch }
                })
            }
            TAG_HANDOFF => {
                need(HANDOFF_BODY)?;
                Ok(NodeMsg::Handoff {
                    slot: rd_u16(&body[1..]),
                    to: rd_u16(&body[3..]),
                })
            }
            other => Err(FrameError::UnknownTag(other)),
        }
    }
}

/// Incremental frame decoder over an arbitrarily-chunked byte stream.
///
/// Feed raw reads in with [`FrameReader::extend`]; pull complete frames out
/// with [`FrameReader::next_frame`]. Torn frames (a length prefix or body split
/// across reads) simply wait for more bytes; malformed frames return a
/// typed [`FrameError`], after which the stream is unrecoverable and the
/// connection should be torn down (framing is lost).
pub struct FrameReader {
    buf: Vec<u8>,
    pos: usize,
    max_frame: u32,
}

impl FrameReader {
    /// A reader enforcing `max_frame` as the body-size bound.
    pub fn new(max_frame: u32) -> Self {
        Self {
            buf: Vec::with_capacity(4096),
            pos: 0,
            max_frame,
        }
    }

    /// Appends freshly-read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Reclaim consumed prefix before growing, so a long-lived
        // connection's buffer stays bounded by its largest burst.
        if self.pos > 0 && (self.pos == self.buf.len() || self.pos >= 64 * 1024) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded (including any partial frame).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decodes the next complete frame, `Ok(None)` if more bytes are
    /// needed, or a typed error if the stream is malformed.
    pub fn next_frame<T: Wire>(&mut self) -> Result<Option<T>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes checked"));
        if len == 0 {
            return Err(FrameError::Empty);
        }
        if len > self.max_frame {
            return Err(FrameError::Oversized {
                len,
                max: self.max_frame,
            });
        }
        let len = len as usize;
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let body = &avail[4..4 + len];
        let frame = T::decode_body(body)?;
        self.pos += 4 + len;
        Ok(Some(frame))
    }
}

/// A fixed-capacity sliding-window frame decoder for non-blocking I/O.
///
/// Where [`FrameReader`] copies each read into a growable `Vec`, `FrameBuf`
/// owns one allocation for its whole life: the socket reads **directly into**
/// [`FrameBuf::spare`], the caller [`FrameBuf::commit`]s the byte count, and
/// [`FrameBuf::next_frame`] decodes in place from the window. Consumed bytes
/// are reclaimed by `memmove` compaction only when the tail fills — at steady
/// state decoding performs zero heap allocations per request.
///
/// Capacity is at least one maximal frame plus its prefix (rounded up to a
/// power of two, floor 16 KiB), so a valid partial frame always has room to
/// complete: if [`FrameBuf::spare`] is ever empty, the window necessarily
/// contains at least one complete (or malformed) frame to decode first.
pub struct FrameBuf {
    buf: Box<[u8]>,
    start: usize,
    end: usize,
    max_frame: u32,
}

impl FrameBuf {
    /// A buffer enforcing `max_frame` as the body-size bound.
    pub fn new(max_frame: u32) -> Self {
        let cap = (4 + max_frame as usize).next_power_of_two().max(16 * 1024);
        Self {
            buf: vec![0u8; cap].into_boxed_slice(),
            start: 0,
            end: 0,
            max_frame,
        }
    }

    /// The body-size bound this buffer enforces.
    pub fn max_frame(&self) -> u32 {
        self.max_frame
    }

    /// Bytes buffered but not yet decoded (including any partial frame).
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// The writable tail: read socket bytes into this, then
    /// [`FrameBuf::commit`] however many arrived. Compacts first when the
    /// window has slid to the end. Empty only when a full window of complete
    /// frames awaits decoding.
    pub fn spare(&mut self) -> &mut [u8] {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        } else if self.end == self.buf.len() && self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        &mut self.buf[self.end..]
    }

    /// Marks `n` bytes of [`FrameBuf::spare`] as filled.
    pub fn commit(&mut self, n: usize) {
        debug_assert!(self.end + n <= self.buf.len(), "commit past spare");
        self.end += n;
    }

    /// Whether [`FrameBuf::next_frame`] would make progress right now:
    /// a complete frame is buffered, or the prefix is already malformed
    /// (so decoding surfaces the error rather than waiting forever).
    pub fn has_frame(&self) -> bool {
        let avail = self.buffered();
        if avail < 4 {
            return false;
        }
        let len = u32::from_le_bytes(
            self.buf[self.start..self.start + 4]
                .try_into()
                .expect("4 bytes checked"),
        );
        if len == 0 || len > self.max_frame {
            return true; // malformed: next_frame reports the typed error
        }
        avail >= 4 + len as usize
    }

    /// Decodes the next complete frame in place, `Ok(None)` if more bytes
    /// are needed, or a typed error if the stream is malformed.
    pub fn next_frame<T: Wire>(&mut self) -> Result<Option<T>, FrameError> {
        let avail = &self.buf[self.start..self.end];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().expect("4 bytes checked"));
        if len == 0 {
            return Err(FrameError::Empty);
        }
        if len > self.max_frame {
            return Err(FrameError::Oversized {
                len,
                max: self.max_frame,
            });
        }
        let len = len as usize;
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let frame = T::decode_body(&avail[4..4 + len])?;
        self.start += 4 + len;
        Ok(Some(frame))
    }

    /// Discards all buffered bytes (used when recycling the buffer onto a
    /// new connection).
    pub fn reset(&mut self) {
        self.start = 0;
        self.end = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<Request> {
        vec![
            Request::Op {
                id: 1,
                key: 7,
                op: 0,
                arg: 42,
                trace: 0,
            },
            Request::Ping { id: 2 },
            Request::Op {
                id: u64::MAX,
                key: (1 << 56) - 1,
                op: 255,
                arg: u64::MAX,
                trace: 0,
            },
            Request::Op {
                id: 5,
                key: 9,
                op: 3,
                arg: 11,
                trace: trace_word::pack(0xDEAD_BEEF, 2),
            },
            Request::Stat {
                id: 77,
                kind: stat_kind::SNAPSHOT,
            },
            Request::Stat {
                id: 78,
                kind: stat_kind::SPANS,
            },
        ]
    }

    #[test]
    fn request_roundtrip_single_frames() {
        for req in sample_requests() {
            let mut bytes = Vec::new();
            req.encode_frame(&mut bytes);
            let mut r = FrameReader::new(DEFAULT_MAX_FRAME);
            r.extend(&bytes);
            assert_eq!(r.next_frame::<Request>().unwrap(), Some(req));
            assert_eq!(r.next_frame::<Request>().unwrap(), None);
            assert_eq!(r.buffered(), 0);
        }
    }

    #[test]
    fn response_roundtrip() {
        for status in [Status::Ok, Status::Busy, Status::Closed, Status::BadRequest] {
            let resp = Response {
                id: 9,
                status,
                value: 1234,
            };
            let mut bytes = Vec::new();
            resp.encode_frame(&mut bytes);
            let mut r = FrameReader::new(DEFAULT_MAX_FRAME);
            r.extend(&bytes);
            assert_eq!(r.next_frame::<Response>().unwrap(), Some(resp));
        }
    }

    #[test]
    fn torn_frame_waits_for_more_bytes() {
        let req = Request::Op {
            id: 3,
            key: 5,
            op: 1,
            arg: 9,
            trace: 0,
        };
        let mut bytes = Vec::new();
        req.encode_frame(&mut bytes);
        let mut r = FrameReader::new(DEFAULT_MAX_FRAME);
        for (i, b) in bytes.iter().enumerate() {
            assert_eq!(
                r.next_frame::<Request>().unwrap(),
                None,
                "complete after {i} of {} bytes",
                bytes.len()
            );
            r.extend(std::slice::from_ref(b));
        }
        assert_eq!(r.next_frame::<Request>().unwrap(), Some(req));
    }

    #[test]
    fn zero_length_frame_is_typed_error() {
        let mut r = FrameReader::new(DEFAULT_MAX_FRAME);
        r.extend(&0u32.to_le_bytes());
        assert_eq!(r.next_frame::<Request>(), Err(FrameError::Empty));
    }

    #[test]
    fn oversized_frame_is_typed_error() {
        let mut r = FrameReader::new(64);
        r.extend(&65u32.to_le_bytes());
        assert_eq!(
            r.next_frame::<Request>(),
            Err(FrameError::Oversized { len: 65, max: 64 })
        );
    }

    #[test]
    fn unknown_tag_and_bad_length_are_typed_errors() {
        let mut r = FrameReader::new(DEFAULT_MAX_FRAME);
        r.extend(&1u32.to_le_bytes());
        r.extend(&[0x7f]);
        assert_eq!(r.next_frame::<Request>(), Err(FrameError::UnknownTag(0x7f)));

        let mut r = FrameReader::new(DEFAULT_MAX_FRAME);
        r.extend(&2u32.to_le_bytes());
        r.extend(&[TAG_PING, 0]);
        assert_eq!(
            r.next_frame::<Request>(),
            Err(FrameError::Length {
                tag: TAG_PING,
                got: 2,
                want: 9
            })
        );
    }

    #[test]
    fn bad_status_is_typed_error() {
        let resp = Response {
            id: 1,
            status: Status::Ok,
            value: 0,
        };
        let mut bytes = Vec::new();
        resp.encode_frame(&mut bytes);
        bytes[4 + 9] = 200; // corrupt the status byte
        let mut r = FrameReader::new(DEFAULT_MAX_FRAME);
        r.extend(&bytes);
        assert_eq!(r.next_frame::<Response>(), Err(FrameError::BadStatus(200)));
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let reqs = sample_requests();
        let mut bytes = Vec::new();
        for r in &reqs {
            r.encode_frame(&mut bytes);
        }
        let mut reader = FrameReader::new(DEFAULT_MAX_FRAME);
        // Feed in two awkward chunks spanning frame boundaries.
        let split = bytes.len() / 2 + 3;
        reader.extend(&bytes[..split]);
        let mut got = Vec::new();
        while let Some(r) = reader.next_frame::<Request>().unwrap() {
            got.push(r);
        }
        reader.extend(&bytes[split..]);
        while let Some(r) = reader.next_frame::<Request>().unwrap() {
            got.push(r);
        }
        assert_eq!(got, reqs);
    }

    fn feed(fb: &mut FrameBuf, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let spare = fb.spare();
            let n = spare.len().min(bytes.len());
            assert!(n > 0, "spare exhausted with bytes left to feed");
            spare[..n].copy_from_slice(&bytes[..n]);
            fb.commit(n);
            bytes = &bytes[n..];
        }
    }

    #[test]
    fn framebuf_roundtrips_and_reports_readiness() {
        let mut fb = FrameBuf::new(DEFAULT_MAX_FRAME);
        assert!(!fb.has_frame());
        for req in sample_requests() {
            let mut bytes = Vec::new();
            req.encode_frame(&mut bytes);
            // Feed a torn prefix first: not ready, decodes to None.
            feed(&mut fb, &bytes[..3]);
            assert!(!fb.has_frame());
            assert_eq!(fb.next_frame::<Request>().unwrap(), None);
            feed(&mut fb, &bytes[3..]);
            assert!(fb.has_frame());
            assert_eq!(fb.next_frame::<Request>().unwrap(), Some(req));
            assert_eq!(fb.buffered(), 0);
        }
    }

    #[test]
    fn framebuf_compacts_at_the_window_edge() {
        // Capacity floor is 16 KiB; a 13-byte ping frame cycles the window
        // past the edge many times over.
        let req = Request::Ping { id: 3 };
        let mut bytes = Vec::new();
        req.encode_frame(&mut bytes);
        let mut fb = FrameBuf::new(DEFAULT_MAX_FRAME);
        let rounds = (fb.spare().len() / bytes.len()) * 3;
        for _ in 0..rounds {
            feed(&mut fb, &bytes);
            assert_eq!(fb.next_frame::<Request>().unwrap(), Some(req));
        }
        // Partial frame straddling a compaction survives it.
        feed(&mut fb, &bytes[..7]);
        assert_eq!(fb.next_frame::<Request>().unwrap(), None);
        feed(&mut fb, &bytes[7..]);
        assert_eq!(fb.next_frame::<Request>().unwrap(), Some(req));
    }

    #[test]
    fn framebuf_flags_malformed_prefix_as_ready() {
        let mut fb = FrameBuf::new(64);
        let bad = 65u32.to_le_bytes();
        fb.spare()[..4].copy_from_slice(&bad);
        fb.commit(4);
        assert!(fb.has_frame(), "oversized prefix must surface, not stall");
        assert_eq!(
            fb.next_frame::<Request>(),
            Err(FrameError::Oversized { len: 65, max: 64 })
        );
    }

    fn sample_node_msgs() -> Vec<NodeMsg> {
        vec![
            NodeMsg::Hello {
                version: NODE_PROTO_VERSION,
                node: 0,
                digest: 7,
            },
            NodeMsg::HelloAck {
                version: NODE_PROTO_VERSION,
                node: 1,
                digest: u64::MAX,
            },
            NodeMsg::Fwd {
                uid: (3 << 32) | 9,
                key: (1 << 56) - 1,
                op: 255,
                arg: u64::MAX,
                trace: 0,
            },
            NodeMsg::Fwd {
                uid: 10,
                key: 20,
                op: 1,
                arg: 30,
                trace: trace_word::pack(7, 1),
            },
            NodeMsg::FwdReply {
                uid: 42,
                status: Status::Redirect,
                value: 2,
            },
            NodeMsg::Repl {
                slot: 65534,
                epoch: 3,
                seq: 100,
                uid: 5,
                key: 6,
                op: 1,
                arg: 7,
                trace: 0,
            },
            NodeMsg::Repl {
                slot: 2,
                epoch: 3,
                seq: 101,
                uid: 8,
                key: 6,
                op: 1,
                arg: 7,
                trace: trace_word::pack(u32::MAX, u16::MAX),
            },
            NodeMsg::ReplAck {
                slot: 0,
                epoch: 3,
                seq: 100,
            },
            NodeMsg::RouteUpdate {
                slot: 12,
                epoch: 4,
                owner: 1,
                backup: NO_NODE,
            },
            NodeMsg::SlotChunk {
                slot: 12,
                epoch: 4,
                index: 9,
                kind: chunk_kind::DEDUP,
                done: 1,
                entries: vec![(1, 2), (u64::MAX, 0), (3, u64::MAX)],
            },
            NodeMsg::SlotChunk {
                slot: 1,
                epoch: 1,
                index: 0,
                kind: chunk_kind::DATA,
                done: 0,
                entries: vec![],
            },
            NodeMsg::SlotAck { slot: 12, epoch: 4 },
            NodeMsg::SyncReq { slot: 12, epoch: 3 },
            NodeMsg::Handoff { slot: 12, to: 1 },
        ]
    }

    #[test]
    fn node_msg_roundtrip_every_variant() {
        let msgs = sample_node_msgs();
        let mut bytes = Vec::new();
        for m in &msgs {
            m.encode_frame(&mut bytes);
        }
        let mut r = FrameReader::new(DEFAULT_MAX_FRAME);
        r.extend(&bytes);
        for m in &msgs {
            assert_eq!(r.next_frame::<NodeMsg>().unwrap().as_ref(), Some(m));
        }
        assert_eq!(r.next_frame::<NodeMsg>().unwrap(), None);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn node_msg_bad_lengths_are_typed_errors() {
        // A Hello body one byte short.
        let mut bytes = Vec::new();
        NodeMsg::Hello {
            version: 1,
            node: 0,
            digest: 0,
        }
        .encode_frame(&mut bytes);
        bytes.pop();
        let body_len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&body_len.to_le_bytes());
        let mut r = FrameReader::new(DEFAULT_MAX_FRAME);
        r.extend(&bytes);
        assert_eq!(
            r.next_frame::<NodeMsg>(),
            Err(FrameError::Length {
                tag: TAG_HELLO,
                got: 12,
                want: 13,
            })
        );

        // A chunk whose entry area is not a multiple of 16 bytes.
        let mut bytes = Vec::new();
        NodeMsg::SlotChunk {
            slot: 0,
            epoch: 0,
            index: 0,
            kind: 0,
            done: 0,
            entries: vec![(1, 2)],
        }
        .encode_frame(&mut bytes);
        bytes.pop();
        let body_len = (bytes.len() - 4) as u32;
        bytes[..4].copy_from_slice(&body_len.to_le_bytes());
        let mut r = FrameReader::new(DEFAULT_MAX_FRAME);
        r.extend(&bytes);
        assert!(matches!(
            r.next_frame::<NodeMsg>(),
            Err(FrameError::Length { tag: TAG_CHUNK, .. })
        ));
    }

    #[test]
    fn node_msg_rejects_client_tags_and_vice_versa() {
        let mut bytes = Vec::new();
        Request::Ping { id: 1 }.encode_frame(&mut bytes);
        let mut r = FrameReader::new(DEFAULT_MAX_FRAME);
        r.extend(&bytes);
        assert_eq!(
            r.next_frame::<NodeMsg>(),
            Err(FrameError::UnknownTag(TAG_PING))
        );

        let mut bytes = Vec::new();
        NodeMsg::SlotAck { slot: 1, epoch: 1 }.encode_frame(&mut bytes);
        let mut r = FrameReader::new(DEFAULT_MAX_FRAME);
        r.extend(&bytes);
        assert_eq!(
            r.next_frame::<Request>(),
            Err(FrameError::UnknownTag(TAG_SLOT_ACK))
        );
    }

    #[test]
    fn redirect_status_roundtrips_in_response() {
        let resp = Response {
            id: 4,
            status: Status::Redirect,
            value: 3,
        };
        let mut bytes = Vec::new();
        resp.encode_frame(&mut bytes);
        let mut r = FrameReader::new(DEFAULT_MAX_FRAME);
        r.extend(&bytes);
        assert_eq!(r.next_frame::<Response>().unwrap(), Some(resp));
    }

    #[test]
    fn buffer_compaction_keeps_partial_frames() {
        let req = Request::Ping { id: 77 };
        let mut bytes = Vec::new();
        req.encode_frame(&mut bytes);
        let mut r = FrameReader::new(DEFAULT_MAX_FRAME);
        // Many full frames consumed, then a partial tail, then the rest.
        for _ in 0..100 {
            r.extend(&bytes);
            assert_eq!(r.next_frame::<Request>().unwrap(), Some(req));
        }
        r.extend(&bytes[..5]);
        assert_eq!(r.next_frame::<Request>().unwrap(), None);
        r.extend(&bytes[5..]);
        assert_eq!(r.next_frame::<Request>().unwrap(), Some(req));
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn trace_word_packs_and_relays() {
        let w = trace_word::pack(0x1234_5678, 3);
        assert_eq!(trace_word::id(w), 0x1234_5678);
        assert_eq!(trace_word::hop(w), 3);
        assert_eq!(w & 0xFFFF, 0, "low 16 bits are reserved zero");
        let next = trace_word::next_hop(w);
        assert_eq!(trace_word::id(next), 0x1234_5678);
        assert_eq!(trace_word::hop(next), 4);
        assert_eq!(trace_word::next_hop(0), 0, "no trace stays no trace");
        let sat = trace_word::pack(1, u16::MAX);
        assert_eq!(trace_word::hop(trace_word::next_hop(sat)), u16::MAX);
    }

    #[test]
    fn trace_suffix_changes_wire_length_only_when_set() {
        let untraced = Request::Op {
            id: 1,
            key: 2,
            op: 3,
            arg: 4,
            trace: 0,
        };
        let traced = Request::Op {
            id: 1,
            key: 2,
            op: 3,
            arg: 4,
            trace: trace_word::pack(9, 0),
        };
        let (mut a, mut b) = (Vec::new(), Vec::new());
        untraced.encode_frame(&mut a);
        traced.encode_frame(&mut b);
        assert_eq!(a.len(), 4 + OP_BODY);
        assert_eq!(b.len(), 4 + OP_BODY + TRACE_SUFFIX);
        // Both lengths decode; anything in between is a typed error.
        for (bytes, want) in [(&a, untraced), (&b, traced)] {
            let mut r = FrameReader::new(DEFAULT_MAX_FRAME);
            r.extend(bytes);
            assert_eq!(r.next_frame::<Request>().unwrap(), Some(want));
        }
        let mut bad = b.clone();
        bad.pop();
        let body_len = (bad.len() - 4) as u32;
        bad[..4].copy_from_slice(&body_len.to_le_bytes());
        let mut r = FrameReader::new(DEFAULT_MAX_FRAME);
        r.extend(&bad);
        assert_eq!(
            r.next_frame::<Request>(),
            Err(FrameError::Length {
                tag: TAG_OP,
                got: OP_BODY + TRACE_SUFFIX - 1,
                want: OP_BODY,
            })
        );
    }

    #[test]
    fn stat_request_and_reply_roundtrip() {
        let req = Request::Stat {
            id: 31,
            kind: stat_kind::SNAPSHOT,
        };
        let mut bytes = Vec::new();
        req.encode_frame(&mut bytes);
        assert_eq!(bytes.len(), 4 + STAT_REQ_BODY);
        let mut r = FrameReader::new(DEFAULT_MAX_FRAME);
        r.extend(&bytes);
        assert_eq!(r.next_frame::<Request>().unwrap(), Some(req));

        for payload in [Vec::new(), b"{\"version\":1}".to_vec(), vec![0u8; 4096]] {
            let reply = StatReply {
                id: 31,
                kind: stat_kind::SNAPSHOT,
                payload,
            };
            let mut bytes = Vec::new();
            reply.encode_frame(&mut bytes);
            let mut r = FrameReader::new(ADMIN_MAX_FRAME);
            r.extend(&bytes);
            assert_eq!(r.next_frame::<StatReply>().unwrap().as_ref(), Some(&reply));
            assert_eq!(r.buffered(), 0);
        }
    }

    #[test]
    fn stat_reply_too_short_is_typed_error() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&5u32.to_le_bytes());
        bytes.push(TAG_STAT_REPLY);
        bytes.extend_from_slice(&[0u8; 4]);
        let mut r = FrameReader::new(ADMIN_MAX_FRAME);
        r.extend(&bytes);
        assert_eq!(
            r.next_frame::<StatReply>(),
            Err(FrameError::Length {
                tag: TAG_STAT_REPLY,
                got: 5,
                want: STAT_REPLY_MIN,
            })
        );
    }

    #[test]
    fn span_payload_roundtrips() {
        use mpsync_telemetry::{Algo, Lane, SpanEvent};
        let spans = vec![
            SpanEvent {
                track: 42,
                algo: Algo::Cluster,
                lane: Lane::Serve,
                start_ns: 1_000_000,
                dur_ns: 2_500,
            },
            SpanEvent {
                track: u32::MAX,
                algo: Algo::Net,
                lane: Lane::Send,
                start_ns: u64::MAX,
                dur_ns: 0,
            },
        ];
        let payload = encode_spans(&spans);
        assert_eq!(payload.len(), spans.len() * SPAN_RECORD);
        assert_eq!(decode_spans(&payload).unwrap(), spans);
        assert_eq!(decode_spans(&[]).unwrap(), Vec::new());

        // Unknown algo byte: record skipped, not an error.
        let mut alien = payload.clone();
        alien[4] = 0xEE;
        assert_eq!(decode_spans(&alien).unwrap(), &spans[1..]);

        // Ragged payload: typed error.
        assert!(matches!(
            decode_spans(&payload[..SPAN_RECORD + 3]),
            Err(FrameError::Length {
                tag: TAG_STAT_REPLY,
                ..
            })
        ));
    }
}
