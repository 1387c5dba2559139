//! Benchmark for marchgen: drives a real `marchgend` over loopback with
//! closed-loop clients, checks every answer against the scalar oracle,
//! and replays the same inputs through the library with spans around
//! each layer's public entry points.

pub mod check;
pub mod daemon;
pub mod http;
pub mod pools;
pub mod replay;
pub mod stats;
pub mod trace;
