//! Benchmark of the Edge Fabric reproduction: world build and per-epoch
//! latency on three seeded workloads, plus a traced pass that times each
//! crate's public calls from the benchmark's own code.

pub mod bench;
pub mod catalog;
pub mod checks;
pub mod stats;
pub mod traced;
pub mod untraced;
pub mod workload;
