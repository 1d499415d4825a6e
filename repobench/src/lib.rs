//! # repobench — the repository's benchmark
//!
//! One process starts an in-process `graft_svc::Server` on loopback,
//! registers a generated graph, and measures as a TCP client what a user
//! of the service sees: cold solve latency, read and update latency
//! under an open-loop mix, and closed-loop capacity. A traced run
//! (`--trace 1`) additionally calls each layer's public functions
//! directly on the same graph and reports per-layer metrics, with spans
//! recorded around every call and written as JSONL.
//!
//! Every reply is checked: solve cardinalities against a certified
//! Hopcroft-Karp oracle, update cardinalities against an in-process
//! replay of the same updates.

#![forbid(unsafe_code)]

pub mod client;
pub mod layers;
pub mod probe;
pub mod report;
pub mod spans;
pub mod stats;
pub mod svcstats;
pub mod workload;
