//! # nm-cli — the `nmctl` command-line front end
//!
//! ```text
//! nmctl generate --kind acl --rules 10000 --seed 1 > rules.cb
//! nmctl inspect  rules.cb
//! nmctl bench    rules.cb --engine nm-tm --trace zipf:1.25 --packets 200000
//! nmctl classify rules.cb --key 10.0.0.1,192.168.1.2,1234,443,6
//! nmctl train    rules.cb --out model.rqrmi
//! nmctl serve    rules.cb --seconds 3 --update-rate 2000 --validate-every 64
//! ```
//!
//! `bench` and `serve` print one JSON object per run. Every command refuses
//! input it does not read — an unknown flag, an extra positional, an
//! unknown subcommand — and a value outside its range, naming the token.
//!
//! The logic lives in this library crate so it is unit-testable; `main.rs`
//! is a thin wrapper. Argument parsing is hand-rolled — a flag parser is
//! ~100 lines and the workspace's dependency policy is deliberately tight.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

pub use args::{Args, ParsedCommand};
pub use commands::run;
