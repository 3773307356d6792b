//! Fixture crate: a clean `cr-algos` stand-in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config_search;
pub mod solver;
