//! Inputs and statistics of the `perfbench` serving benchmark, shared by
//! the binary and its tests.

pub mod stats;
pub mod stream;
