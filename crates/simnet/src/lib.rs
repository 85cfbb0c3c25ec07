//! # simnet — deterministic network-simulation substrate
//!
//! The foundation of the BISmark reproduction: everything the other crates
//! build on, with **no wall-clock time and no global state**, so that an
//! entire six-month, 126-home study replays bit-identically from one seed.
//!
//! Modules:
//!
//! * [`time`] — virtual instants/durations and calendar helpers (the study
//!   epoch is Monday 2012-10-01 UTC, matching the paper's Heartbeats window).
//! * [`rng`] — labeled, independently derivable random streams plus the
//!   distribution samplers the behavioral models need.
//! * [`event`] — the discrete-event queue with FIFO tie-breaking and
//!   cancellation.
//! * [`packet`] — Ethernet/IPv4/UDP/TCP wire formats with checksums, in the
//!   explicit parse/emit style of small event-driven TCP/IP stacks.
//! * [`link`] — access links: serialization, token-bucket shaping,
//!   drop-tail queues (the bufferbloat mechanism), and lossy WAN paths.
//! * [`impair`] — scheduled link/collector impairment windows (loss and
//!   latency spikes, total outages) that fault plans compile into.
//! * [`metrics`] — `obs` handles for the world-layer counters (published
//!   once at end of run; the substrate itself stays observability-free).
//! * [`nat`] — the address/port translator the paper peeks behind.
//! * [`arp`] — neighbor discovery and the gateway's neighbor table.
//! * [`icmp`] — echo request/reply for latency probing.
//! * [`dhcp`] — LAN address leases keyed by MAC.
//! * [`dns`] — A/CNAME records, RFC 1035 wire images, zone database, and a
//!   caching stub resolver.
//! * [`wifi`] — bands, channels, radios, neighbor APs, scanning, and
//!   contention.
//!
//! Design note: this crate deliberately avoids an async runtime. The
//! simulation is CPU-bound and must be deterministic; an event queue driven
//! in virtual time is both simpler and reproducible, while parallelism
//! across independent homes is layered on top by `bismark-core`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arp;
pub mod dhcp;
pub mod dns;
pub mod event;
pub mod icmp;
pub mod impair;
pub mod link;
pub mod metrics;
pub mod nat;
pub mod packet;
pub mod rng;
pub mod time;
pub mod wifi;

pub use event::EventQueue;
pub use rng::DetRng;
pub use time::{SimDuration, SimTime};
