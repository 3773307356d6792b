//! Fixture crate root with no lint header at all — `crate_hygiene` must
//! flag the missing `#![forbid(unsafe_code)]` and `#![warn(missing_docs)]`.

pub mod config_search;
pub mod solver;
