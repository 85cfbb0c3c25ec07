//! # faultlab — deterministic fault injection for the study
//!
//! §3.3 of the paper concedes that "various outages and failures — both of
//! the routers themselves and of the collection infrastructure" shaped
//! every dataset. This crate makes those failures a first-class, *seeded*
//! input instead of an accident: a [`FaultPlan`] describes, per router and
//! for the collector, exactly what goes wrong and when, and the study
//! orchestrator compiles it into simulation events.
//!
//! The plan is pure data and its compilation draws only from labeled
//! [`DetRng`](simnet::rng::DetRng) streams, so a scenario replayed from
//! the same seed injects bit-identical faults — which is what turns the
//! plan into *ground truth*: the analysis crate's collector-outage
//! detector can be scored for precision and recall against
//! [`FaultPlan::collector_downtime`], and the collector's gap ledger can
//! be checked against the injected flash wipes.
//!
//! An empty plan is the absolute zero: the study runner treats it as "no
//! fault subsystem at all" and produces byte-identical datasets and
//! reports.
//!
//! Three scenarios ship (see [`FaultScenario`]):
//!
//! * `lossy-wan` — upload loss/latency spikes on the routers' WAN paths.
//!   The store-and-forward uploader must deliver everything anyway.
//! * `collector-flap` — the collection server goes down repeatedly.
//!   Batches are nacked and retried (zero loss); heartbeat datagrams die,
//!   leaving the correlated silence the artifacts detector hunts for.
//! * `router-churn` — extra power cycles, some of them flash-wipe reboots
//!   that destroy spooled data (accounted on the gap ledger), plus mild
//!   clock skew on a minority of gateways.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod scenarios;

pub use plan::{ClockSkew, FaultPlan, HomeFaults, PowerCycle};
pub use scenarios::FaultScenario;

// Re-exported so plan consumers name the schedule type without importing
// simnet themselves.
pub use simnet::impair::{ImpairmentSchedule, ImpairmentWindow};
