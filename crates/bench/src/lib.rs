//! # rcr-bench
//!
//! The harness layer: [`STUDIES`] maps every experiment id E1–E23 to the
//! function that runs it, and each run converts its outputs (from
//! `rcr-core`) into paper-style tables and figures (via `rcr-report`). The
//! `reproduce` binary and the integration tests share this code, so what
//! the binary regenerates is exactly what the documentation shows.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diff;
pub mod render;
pub mod studies;
pub mod summary;

pub use studies::{Ctx, Emitter, Study, STUDIES};
