//! # netstack — flow and application layer over `simnet`
//!
//! Home traffic in the reproduction is a population of *flows*: transfers
//! between a LAN device and an Internet service, each tagged with the
//! device MAC, the service domain, and an application class. Flows share
//! the access link under max-min fairness ([`fair`]), advance second by
//! second, a whole rate epoch of identical seconds at a time ([`flow`]),
//! and are sampled from per-application session models ([`apps`]).
//!
//! The split of responsibilities: *who* starts a session, *when*, and
//! *toward which domain* is behavioral and lives in the `household` crate;
//! this crate answers *how the bytes move* once a session exists.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod fair;
pub mod flow;
pub mod handshake;
pub mod metrics;

pub use apps::{sample_session, SessionProfile};
pub use flow::{AppKind, Flow, FlowId, FlowProgress, FlowScheduler, TickOutcome};
