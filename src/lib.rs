//! Umbrella package for the PGSS-Sim reproduction workspace.
//!
//! This crate exists so the repository root can host runnable
//! [`examples/`](https://doc.rust-lang.org/cargo/guide/project-layout.html)
//! and cross-crate integration tests in `tests/`. All functionality lives in
//! the member crates; the most useful entry point is the [`pgss`] crate.

pub use pgss;
pub use pgss_serve;

// Compiles every `rust` block of the README as a doctest, so the README
// cannot drift from the API.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
