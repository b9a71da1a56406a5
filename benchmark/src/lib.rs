//! End-to-end and per-layer benchmark of the Soft-FET studies. The
//! runner is `src/main.rs`; `NOTES.md` explains the workloads and what
//! each metric should move.

pub mod layers;
pub mod mc;
pub mod pdn;
pub mod reference;
pub mod report;
pub mod serve;
pub mod workload;
