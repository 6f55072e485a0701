//! The repo's one benchmark.
//!
//! Six workloads drive the stack — udn, core, runtime, net, cluster, apps,
//! and the tilesim simulator — in its **default configuration**, from one
//! process, and report the same end-to-end metrics for each. A traced run
//! adds a serial ladder that attributes one op's time to each layer, layer
//! probes, and a Chrome trace of the harness's own spans. Everything is
//! measured **from outside**, by timing calls into the layers' public
//! functions; nothing in the repo's crates changes.
//!
//! `README.md` beside this crate has the metric and workload tables, the
//! ladder's subtraction rules and the sizing facts.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod harness;
pub mod hist;
pub mod ladder;
pub mod probes;
pub mod report;
pub mod rng;
pub mod run;
pub mod span;
pub mod spec;
pub mod sys;
pub mod workloads;
