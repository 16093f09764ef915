//! The five workloads.

pub mod bank;
pub mod chain;
pub mod contend;
pub mod readmostly;
pub mod ring;
