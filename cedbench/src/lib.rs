//! The repository benchmark: three workloads against the public entry
//! points users call (`ced_serve::ops::execute` and the in-process
//! `ced serve` daemon), end-to-end metrics from untraced runs and a
//! per-layer split from a separate traced run. See `README.md`.

pub mod corpus;
pub mod metrics;
pub mod speed;
pub mod stamp;
pub mod trace;
pub mod verify;
pub mod workloads;
