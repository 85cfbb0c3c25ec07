//! # collector — the central measurement server
//!
//! The deployment's back end: routers upload records ([`server`]), the
//! collector compresses the firehose of heartbeats into run logs
//! ([`runlog`]), stores every uploaded record kind in a per-router
//! table, the high-volume ones in compact columnar form ([`columns`]),
//! spills those tables to bounded-memory disk segments when a budget is
//! set ([`spill`]), clips analyses to the
//! per-data-set collection windows of Table 2 ([`windows`]), and exports
//! the PII-free public release ([`export`] — everything except Traffic,
//! exactly as the paper did).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columns;
pub mod export;
pub mod runlog;
pub mod server;
pub mod spill;
pub mod windows;

pub use columns::{
    AssociationTable, CapacityTable, CensusTable, DnsTable, FlowTable, LatencyTable, MacTable,
    NatProbeTable, PacketStatsTable, PunchTrialTable, UploadGapTable, UptimeTable, WifiTable,
};
pub use runlog::{HeartbeatRun, RunLog, UploadCounters};
pub use server::{
    Collector, Datasets, RouterMeta, ShardHandle, SpillStats, UploadGapRecord, UploadOutcome,
    NUM_SHARDS,
};
pub use spill::{SpillConfig, SpillError};
pub use windows::Window;
