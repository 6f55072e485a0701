//! mpsync-cluster: the multi-node layer over the sharded delegation
//! runtime.
//!
//! The paper's thesis — synchronize by *sending explicit messages to the
//! data's owner* instead of migrating cache lines — extends naturally past
//! one process: this crate consistent-hashes keys over member nodes
//! ([`ring`]), forwards non-local operations over the existing
//! length-prefixed frame protocol (the `0x10`–`0x1a` [`NodeMsg`] tag range),
//! replicates each slot primary→backup with exactly-once apply (dedup on
//! the request ids already in the wire format), and migrates slots between
//! live nodes (drain → transfer → redirect) without dropping acked writes.
//!
//! Layer map:
//!
//! ```text
//!   ClusterClient ── Op frames, follows Redirects ──▶ node A   node B
//!                                                      │ ▲       ▲
//!                                        slot_for(key) │ └─Fwd───┘ non-local
//!                                                      ▼    Repl/RouteUpdate/
//!                                              NodeCore ◀── SlotChunk … ──▶ NodeCore
//!                                                      │
//!                                                      ▼
//!                                         SlotStore (model map, or the
//!                                         sharded runtime via SCAN export)
//! ```
//!
//! **Transport abstraction is the point.** [`NodeCore`] is a pure state
//! machine: inputs are client ops, peer messages, and clock ticks; outputs
//! are an [`Outbox`] of messages and replies. The same machine runs
//!
//! * over real sockets ([`tcp`], reusing `mpsync-net`; Linux-only, the
//!   node's one thread waits in `epoll`), and
//! * inside a deterministic discrete-event simulator ([`sim`]) that drops,
//!   duplicates, delays, and partitions messages under a seeded RNG,
//!
//! so the safety properties — exactly-once for acked ops, per-key FIFO,
//! no acked-write loss across handoff and failover — are checked over
//! hundreds of adversarial schedules and then served unchanged in
//! production form.
//!
//! [`NodeMsg`]: mpsync_net::frame::NodeMsg
//! [`NodeCore`]: node::NodeCore
//! [`Outbox`]: node::Outbox

#![warn(missing_docs)]

pub mod node;
pub mod ring;
pub mod route;
pub mod sim;
pub mod store;
#[cfg(target_os = "linux")]
pub mod tcp;

pub use node::{ApplyRecord, NodeConfig, NodeCore, Origin, Outbox, SlotSnapshot};
pub use ring::{slot_for, HashRing};
pub use route::{RouteTable, SlotRoute};
pub use store::{ModelStore, RuntimeStore, SlotStore};

/// A cluster member's identity. `u16::MAX` ([`mpsync_net::frame::NO_NODE`])
/// is reserved as the "no node" sentinel.
pub type NodeId = u16;

/// A unit of key ownership: every key maps to one slot ([`slot_for`]), and
/// routing, replication, and handoff all happen at slot granularity.
pub type Slot = u16;
