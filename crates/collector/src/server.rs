//! The central collection server: router registration, record ingestion
//! (including wire-level heartbeat packets), and draining what was
//! collected for analysis. The paper's six data sets are stored as 15
//! tables ([`Datasets`]): registration, heartbeat run logs, the announced
//! downtime, and 13 per-router record tables ([`crate::columns`], each
//! declared once there), one per uploaded record kind, the upload-gap
//! ledger among them. The 13 are listed once here, in `columnar_tables!`;
//! sealing, merging, sizing and absorbing them is generated from that
//! list. A shard's spill estimate grows by what each table reports for
//! the record it routes (`resident_bytes`), so the estimate follows the
//! column declarations and the spill budget covers every record table.
//!
//! The server shards its mutable state by router: each [`RouterId`] maps to
//! one of [`NUM_SHARDS`] independently locked shards, so home simulations
//! running on parallel threads never contend on the bulk upload path (homes
//! never share a router ID, and the 126-router deployment maps onto 128
//! shards collision-free). Each shard keeps its slice of the tables as one
//! [`Datasets`] value. Draining ([`Collector::drain_delta`]) takes every
//! shard's slice and merges them back into one deterministic [`Datasets`]
//! with each table's one merge, spilled or not: each router's rows come
//! from one shard in arrival order, and a router whose rows arrived out
//! of key order is stably re-sorted, so the result is bit-identical
//! regardless of how many threads uploaded. A stream folds each drained
//! delta into its accumulator with [`Datasets::absorb`], which reads each
//! router's tail from the accumulated columns and keeps no state beside
//! them. Every table reads one router's rows through its `router`
//! iterator.

use crate::columns::{
    AssociationTable, CapacityTable, CensusTable, DnsTable, FlowTable, LatencyTable, MacTable,
    NatProbeTable, PacketStatsTable, PunchTrialTable, UploadGapTable, UptimeTable, WifiTable,
};
use crate::runlog::{RunLog, UploadCounters};
use crate::spill::{SegmentStore, SpillConfig, SpillError, SEGMENT_MAGIC};
use crate::windows::Window;
use firmware::heartbeat::Heartbeat;
use firmware::records::{HeartbeatRecord, Record, RouterId};
use firmware::uploader::{GapCause, GapDecl};
use household::Country;
use parking_lot::Mutex;
use simnet::packet::ParseError;
use simnet::time::SimTime;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of independently locked ingestion shards. A power of two larger
/// than the deployment so the study's 126 routers land on distinct shards.
pub const NUM_SHARDS: usize = 128;

fn shard_index(router: RouterId) -> usize {
    router.0 as usize % NUM_SHARDS
}

/// The 13 record tables of [`Datasets`], listed once, in the order a seal
/// encodes them into a segment, each with the name in its
/// `dataset_<name>_records` gauge. `columnar_tables!(m)` expands to
/// `m! { field: Table = "name", ... }`; every struct and loop over the
/// record tables in this module is generated from it. The upload-gap
/// ledger stays last: [`Datasets::record_count`] leaves it out.
macro_rules! columnar_tables {
    ($m:ident) => {
        $m! {
            packet_stats: PacketStatsTable = "packet_stat",
            flows: FlowTable = "flow",
            dns: DnsTable = "dns",
            macs: MacTable = "mac_sighting",
            wifi: WifiTable = "wifi_scan",
            associations: AssociationTable = "association",
            latency: LatencyTable = "latency",
            nat_probes: NatProbeTable = "nat_probe",
            punch_trials: PunchTrialTable = "punch_trial",
            uptime: UptimeTable = "uptime",
            capacity: CapacityTable = "capacity",
            devices: CensusTable = "device_census",
            upload_gaps: UploadGapTable = "upload_gap",
        }
    };
}

/// Registration metadata for one router (what the deployment knew about
/// each shipped unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct RouterMeta {
    /// The router.
    pub router: RouterId,
    /// The country it shipped to.
    pub country: Country,
    /// Whether the household signed the Traffic consent form.
    pub traffic_consent: bool,
}

/// One row of the gap ledger: a range of upload batches a router declared
/// lost for good (spool eviction or flash wipe). The ledger is the explicit
/// record of every batch the collector will never receive — lost data is
/// declared, never silent.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct UploadGapRecord {
    /// The declaring router.
    pub router: RouterId,
    /// First lost batch (inclusive).
    pub first_seq: u64,
    /// Last lost batch (inclusive).
    pub last_seq: u64,
    /// Records lost across the range.
    pub records_lost: u64,
    /// Earliest record timestamp in the lost range.
    pub from: SimTime,
    /// Latest record timestamp in the lost range.
    pub to: SimTime,
    /// What destroyed the data.
    pub cause: GapCause,
}

/// Outcome of one batch upload attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UploadOutcome {
    /// First sighting of this sequence number: applied (or buffered until
    /// the batches before it arrive). The batch buffer has been drained.
    Accepted,
    /// The sequence number was already known — a replay after a lost ack.
    /// Acknowledged so the router stops retrying; the payload is discarded.
    Duplicate,
    /// The collector is down: nothing was read. The router should retry at
    /// or after `retry_at` (the end of the current downtime window).
    Down {
        /// When the current downtime window ends.
        retry_at: SimTime,
    },
}

impl UploadOutcome {
    /// Did the collector take responsibility for the batch (fresh or
    /// duplicate)? `false` means the router must retry.
    pub fn is_ack(self) -> bool {
        matches!(self, UploadOutcome::Accepted | UploadOutcome::Duplicate)
    }
}

/// An immutable snapshot of everything collected, handed to the analysis.
/// Each collector shard also keeps its slice of the tables in one of these,
/// with `routers` and `collector_downtime` left empty (they are global).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Datasets {
    /// Router registration metadata, sorted by router ID.
    pub routers: Vec<RouterMeta>,
    /// Compressed heartbeat logs per router.
    pub heartbeats: BTreeMap<RouterId, RunLog>,
    /// Uptime reports.
    pub uptime: UptimeTable,
    /// Capacity measurements.
    pub capacity: CapacityTable,
    /// Hourly device censuses.
    pub devices: CensusTable,
    /// WiFi scans, in columnar form.
    pub wifi: WifiTable,
    /// Per-minute packet statistics (Traffic), in columnar form.
    pub packet_stats: PacketStatsTable,
    /// Flow records (Traffic), in columnar form.
    pub flows: FlowTable,
    /// DNS samples (Traffic), in columnar form.
    pub dns: DnsTable,
    /// MAC sightings (Traffic), in columnar form.
    pub macs: MacTable,
    /// Hourly per-device association reports (Devices companion), in
    /// columnar form.
    pub associations: AssociationTable,
    /// Latency probes (platform companion data set), in columnar form.
    pub latency: LatencyTable,
    /// STUN-style NAT-type probes (CGN characterization), in columnar
    /// form. Empty unless a CGN scenario is armed.
    pub nat_probes: NatProbeTable,
    /// Pairwise hole-punch trials (CGN characterization), in columnar
    /// form. Empty unless a CGN scenario is armed.
    pub punch_trials: PunchTrialTable,
    /// The gap ledger: batch ranges declared lost by routers, sorted by
    /// (router, first_seq). Empty unless faults destroyed spooled data.
    pub upload_gaps: UploadGapTable,
    /// Downtime windows the collection infrastructure announced for this
    /// run (injected by a fault plan). Empty in normal operation.
    pub collector_downtime: Vec<Window>,
}

/// Generates the [`Datasets`] methods that visit every record table, from
/// the `columnar_tables!` list.
macro_rules! columnar_table_set {
    ($($field:ident: $Table:ident = $gauge:literal,)*) => {
        impl Datasets {
            /// The size of every collected table as `(gauge key, rows)`
            /// pairs: heartbeats (counted per heartbeat, not per run),
            /// then every record table, the upload-gap ledger last. These
            /// are the `dataset_*_records` gauges of every run manifest.
            pub fn record_counts(&self) -> [(&'static str, u64); 14] {
                [
                    (
                        "dataset_heartbeat_records",
                        self.heartbeats.values().map(RunLog::total_heartbeats).sum(),
                    ),
                    $((concat!("dataset_", $gauge, "_records"), self.$field.len() as u64),)*
                ]
            }

            /// Heap bytes held by the resident columns of the 13 record
            /// tables. Heartbeat run logs are small by comparison; this is
            /// the number that moves when the deployment is scaled with
            /// more homes.
            pub fn columnar_heap_bytes(&self) -> usize {
                [$(self.$field.heap_bytes()),*].iter().sum()
            }

            /// Bytes of table data living in on-disk segment files
            /// rather than RAM. Zero unless the collector ran with a spill
            /// budget and crossed it; rows behind these bytes stream in
            /// lazily during iteration.
            pub fn spilled_bytes(&self) -> u64 {
                [$(self.$field.spilled_bytes()),*].iter().sum()
            }

            /// Fold `delta`'s record tables into these, then reclaim the
            /// delta's merged spill files: every spilled row is resident
            /// now, so they need not pile up one per window until the
            /// store drops.
            fn absorb_columns(&mut self, delta: &mut Datasets) {
                $(
                    self.$field.absorb(&delta.$field);
                    delta.$field.release_spilled();
                )*
            }

            /// Does any record table hold rows in resident columns?
            fn has_resident_columns(&self) -> bool {
                [$(self.$field.has_resident()),*].contains(&true)
            }

            /// Encode every record table into `buf` as one segment, write
            /// it to `store` as `file`, and only then hand the rows over to
            /// the segment. The buffer is fully encoded before anything is
            /// reset, so an I/O error leaves every record resident —
            /// sealing is all-or-nothing.
            fn seal_columns(
                &mut self,
                store: &Arc<SegmentStore>,
                file: &str,
                buf: &mut Vec<u8>,
            ) -> Result<(), SpillError> {
                $(let $field = self.$field.encode_segment(buf);)*
                store.write_file(file, buf)?;
                // Every table's part reads through one handle.
                let segment = store.file(file);
                $(self.$field.seal(&segment, $field);)*
                Ok(())
            }

            /// Merge the shards' record tables into these, one scoped
            /// worker per table.
            fn merge_columns(&mut self, chunks: &mut [Datasets]) -> Result<(), SpillError> {
                $(let $field: Vec<$Table> =
                    chunks.iter_mut().map(|c| std::mem::take(&mut c.$field)).collect();)*
                crossbeam::scope(|scope| -> Result<(), SpillError> {
                    $(let $field = scope.spawn(move |_| $Table::merge($field));)*
                    $(self.$field = join_merged($field)?;)*
                    Ok(())
                })
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            }
        }
    };
}

columnar_tables!(columnar_table_set);

impl Datasets {
    /// Metadata for one router, if registered. Snapshots keep `routers`
    /// sorted by ID, so this is a binary search, not a linear scan.
    pub fn meta(&self, router: RouterId) -> Option<&RouterMeta> {
        self.routers
            .binary_search_by_key(&router, |m| m.router)
            .ok()
            .and_then(|i| self.routers.get(i))
    }

    /// Routers in the Traffic data set (consented).
    pub fn traffic_routers(&self) -> Vec<RouterId> {
        self.routers.iter().filter(|m| m.traffic_consent).map(|m| m.router).collect()
    }

    /// Total records across all sets (diagnostic). The upload-gap ledger
    /// is left out: its rows declare lost batches, not collected records.
    pub fn record_count(&self) -> usize {
        let [collected @ .., _upload_gaps] = self.record_counts();
        collected.iter().map(|&(_, n)| n as usize).sum()
    }

    /// Fold one stream-window delta (from [`Collector::drain_delta`])
    /// into this accumulator. Per router the deltas concatenate in the
    /// exact batch arrival order (the drain hands over only what was
    /// applied behind the watermark), so after the final window every
    /// table here is byte-identical to the single batch snapshot —
    /// record tables append behind each router's last held row or
    /// re-sort that router with ties keeping the earlier window (see the
    /// per-table `absorb`), and heartbeat logs splice at run granularity.
    /// Nothing is kept beside the tables: any accumulator, whatever
    /// windows it already holds, absorbs the next one correctly.
    ///
    /// The accumulator stays fully resident; a spill-backed delta
    /// streams its rows in from disk and its merged segment files are
    /// reclaimed before returning.
    pub fn absorb(&mut self, mut delta: Datasets) {
        // Registration and announced downtime are global, not windowed:
        // every drain clones the full current sets into the delta.
        self.routers = std::mem::take(&mut delta.routers);
        self.collector_downtime = std::mem::take(&mut delta.collector_downtime);
        for (router, log) in &delta.heartbeats {
            match self.heartbeats.get_mut(router) {
                Some(acc) => acc.append(log),
                None => {
                    self.heartbeats.insert(*router, log.clone());
                }
            }
        }
        self.absorb_columns(&mut delta);
    }
}

/// Per-shard out-of-core state, armed by [`Collector::set_spill`].
#[derive(Debug)]
struct ShardSpill {
    /// Shared segment store (one directory per collector, removed on drop).
    store: Arc<SegmentStore>,
    /// This shard's index, used in segment file names.
    index: usize,
    /// Resident-columnar budget for this shard in bytes — the study budget
    /// split evenly across shards. A budget of 0 seals on every batch.
    budget: usize,
    /// Segments sealed since startup or the last drain. Their rows are
    /// the spilled parts of the shard's record tables.
    segments: u64,
    /// Bytes written across those segments.
    bytes: u64,
    /// First seal failure, if any. Spilling disables on error and data
    /// stays resident from then on — degraded to unbounded memory, never
    /// data loss.
    error: Option<String>,
}

/// One shard's worth of collected state: its slice of the tables, plus
/// this shard's copy of the announced downtime so the hot path never
/// reaches for shared state.
#[derive(Debug, Default)]
struct Shard {
    /// Every table, for this shard's routers. Registration and announced
    /// downtime stay empty: they are global and live on the [`Collector`].
    tables: Datasets,
    /// Windows during which the collection infrastructure itself was down
    /// (§3.3: "various outages and failures — both of the routers
    /// themselves and of the collection infrastructure"): batch uploads
    /// arriving inside one are nacked (the router retries), and heartbeat
    /// datagrams are dropped (they are fire-and-forget). Nothing batched
    /// is ever silently lost to these.
    downtime: Vec<Window>,
    /// Heartbeat datagrams dropped because the collector was down.
    dropped_in_downtime: u64,
    /// Per-router sequence tracking for idempotent batch ingestion.
    seq: BTreeMap<RouterId, SeqState>,
    /// Delivery accounting for the batch upload path.
    counters: UploadCounters,
    /// Estimated resident heap bytes of the 13 record tables, grown on
    /// the ingest path by each table's `resident_bytes` (its columns'
    /// steady-state bytes per value) and reset at each seal.
    columnar_est: usize,
    /// Out-of-core state; `None` (the default) runs fully in memory.
    spill: Option<ShardSpill>,
}

/// A batch known to exist but not yet applicable, keyed by sequence number.
#[derive(Debug)]
enum Pending {
    /// Arrived ahead of the watermark; applied once contiguous.
    Batch(Vec<Record>),
    /// Declared lost; applying it is a no-op that advances the watermark.
    Gap,
}

/// Sequence bookkeeping for one router: the high-watermark (every batch
/// with `seq <= watermark` has been applied or declared lost) plus batches
/// and gap declarations buffered ahead of it. The invariant that batches
/// apply in strict sequence order is what lets the run logs keep their
/// "arrivals are non-decreasing" contract even when retries and replays
/// deliver batches out of order.
#[derive(Debug, Default)]
struct SeqState {
    watermark: u64,
    pending: BTreeMap<u64, Pending>,
}

impl Shard {
    /// Append a record to its table. Every arm but the heartbeat's also
    /// grows the resident-size estimate that drives spilling.
    fn route(&mut self, record: Record) {
        let (t, est) = (&mut self.tables, &mut self.columnar_est);
        match record {
            Record::Heartbeat(r) => t.heartbeats.entry(r.router).or_default().push(r.at),
            Record::Uptime(r) => t.uptime.push_estimated(r, est),
            Record::Capacity(r) => t.capacity.push_estimated(r, est),
            Record::DeviceCensus(r) => t.devices.push_estimated(r, est),
            Record::WifiScan(r) => t.wifi.push_estimated(r, est),
            Record::PacketStats(r) => t.packet_stats.push_estimated(r, est),
            Record::Flow(r) => t.flows.push_estimated(r, est),
            Record::DnsSample(r) => t.dns.push_estimated(r, est),
            Record::MacSighting(r) => t.macs.push_estimated(r, est),
            Record::Association(r) => t.associations.push_estimated(r, est),
            Record::Latency(r) => t.latency.push_estimated(r, est),
            Record::NatProbe(r) => t.nat_probes.push_estimated(r, est),
            Record::PunchTrial(r) => t.punch_trials.push_estimated(r, est),
        }
    }

    /// The one record-routing loop every ingest path shares; the spill
    /// check runs once per call.
    fn ingest_many(&mut self, records: impl IntoIterator<Item = Record>) {
        for record in records {
            self.route(record);
        }
        self.maybe_spill();
    }

    /// Seal the record tables to disk if spilling is armed and the
    /// resident estimate has crossed this shard's budget slice. On the hot
    /// path after every ingest call: the common cases (spill disabled, or
    /// under budget) are two branches and zero allocation.
    fn maybe_spill(&mut self) {
        let Some(sp) = &self.spill else { return };
        if sp.error.is_some() || self.columnar_est <= sp.budget {
            return;
        }
        self.seal_columns();
    }

    /// Seal unconditionally, recording (rather than propagating) any I/O
    /// failure: the ingest path has no caller that can retry, so on error
    /// the shard falls back to keeping data resident.
    fn seal_columns(&mut self) {
        if let Err(e) = self.try_seal() {
            if let Some(sp) = &mut self.spill {
                // simlint: allow(hot-path-transitive) — error path only; rendering the failure once is not per-record work
                sp.error = Some(e.to_string());
            }
        }
    }

    /// Seal the record tables into one new segment file (see
    /// [`Datasets::seal_columns`]) and reset the resident estimate.
    fn try_seal(&mut self) -> Result<(), SpillError> {
        let Some(sp) = &mut self.spill else { return Ok(()) };
        if self.columnar_est == 0 {
            return Ok(());
        }
        // simlint: allow(hot-path-transitive) — one segment-sized buffer per seal, a batch boundary, not per-record work
        let mut buf = Vec::with_capacity(self.columnar_est / 2 + 1024);
        buf.extend_from_slice(SEGMENT_MAGIC);
        // simlint: allow(hot-path-transitive) — one file name per sealed segment, a batch boundary, not per-record work
        let file = format!("shard{:03}-seg{:05}.seg", sp.index, sp.segments);
        self.tables.seal_columns(&sp.store, &file, &mut buf)?;
        sp.segments += 1;
        sp.bytes += buf.len() as u64;
        self.columnar_est = 0;
        Ok(())
    }

    /// Heartbeat admission, the one check every heartbeat path shares: a
    /// datagram arriving at `at` during announced downtime is dropped and
    /// counted.
    fn admit_heartbeat(&mut self, at: SimTime) -> bool {
        if !self.downtime.is_empty() && self.downtime_at(at).is_some() {
            self.dropped_in_downtime += 1;
            return false;
        }
        true
    }

    fn ingest_heartbeat(&mut self, rec: HeartbeatRecord) {
        if self.admit_heartbeat(rec.at) {
            self.tables.heartbeats.entry(rec.router).or_default().push(rec.at);
        }
    }

    /// Admit each of `router`'s arrival stamps in turn and log the
    /// survivors, leaving `stamps` empty. A router none of whose stamps
    /// survive gets no log.
    fn ingest_heartbeats(&mut self, router: RouterId, stamps: &mut Vec<SimTime>) {
        stamps.retain(|&at| self.admit_heartbeat(at));
        if stamps.is_empty() {
            return;
        }
        let log = self.tables.heartbeats.entry(router).or_default();
        for at in stamps.drain(..) {
            log.push(at);
        }
    }

    fn downtime_at(&self, at: SimTime) -> Option<Window> {
        self.downtime.iter().find(|w| w.contains(at)).copied()
    }

    /// Idempotent batch ingestion with per-router sequence tracking.
    ///
    /// * During a downtime window nothing is read; the caller gets a nack
    ///   with a retry hint.
    /// * Gap declarations riding with the attempt are applied first (and
    ///   exactly once, however often they are replayed).
    /// * A batch whose sequence number is already known is acknowledged
    ///   and discarded; a fresh batch is applied immediately when it is
    ///   the next in sequence, or buffered until the batches before it
    ///   show up. Either way batches hit the tables in strict sequence
    ///   order, which keeps per-router record streams chronological.
    fn ingest_upload(
        &mut self,
        at: SimTime,
        router: RouterId,
        seq: u64,
        attempt: u32,
        gaps: &[GapDecl],
        records: &mut Vec<Record>,
    ) -> UploadOutcome {
        if let Some(w) = self.downtime_at(at) {
            self.counters.rejected += 1;
            return UploadOutcome::Down { retry_at: w.end };
        }
        for g in gaps {
            self.accept_gap_decl(router, g);
        }
        enum Disposition {
            Duplicate,
            Apply,
            Buffered,
        }
        let disposition = {
            let state = self.seq.entry(router).or_default();
            if seq <= state.watermark || state.pending.contains_key(&seq) {
                Disposition::Duplicate
            } else if seq == state.watermark + 1 {
                state.watermark += 1;
                Disposition::Apply
            } else {
                state.pending.insert(seq, Pending::Batch(std::mem::take(records)));
                Disposition::Buffered
            }
        };
        let outcome = match disposition {
            Disposition::Duplicate => {
                self.counters.duplicates += 1;
                records.clear();
                UploadOutcome::Duplicate
            }
            Disposition::Apply => {
                self.counters.watermark_advances += 1;
                self.counters.accepted += 1;
                if attempt > 0 {
                    self.counters.retried_accepted += 1;
                }
                self.ingest_many(records.drain(..));
                UploadOutcome::Accepted
            }
            Disposition::Buffered => {
                self.counters.accepted += 1;
                if attempt > 0 {
                    self.counters.retried_accepted += 1;
                }
                UploadOutcome::Accepted
            }
        };
        self.drain_contiguous(router);
        outcome
    }

    /// Put a declared-lost batch range on the ledger, once. Replays are
    /// recognized either by the watermark having passed the range or by
    /// the range's first sequence number already being marked as a gap.
    fn accept_gap_decl(&mut self, router: RouterId, g: &GapDecl) {
        let state = self.seq.entry(router).or_default();
        if g.last_seq <= state.watermark
            || matches!(state.pending.get(&g.first_seq), Some(Pending::Gap))
        {
            return;
        }
        for s in g.first_seq.max(state.watermark + 1)..=g.last_seq {
            state.pending.entry(s).or_insert(Pending::Gap);
        }
        let row = UploadGapRecord {
            router,
            first_seq: g.first_seq,
            last_seq: g.last_seq,
            records_lost: g.records_lost,
            from: g.from,
            to: g.to,
            cause: g.cause,
        };
        self.tables.upload_gaps.push_estimated(row, &mut self.columnar_est);
        self.counters.gap_declarations += 1;
    }

    /// Apply buffered batches (and skip declared gaps) while they continue
    /// the sequence at the watermark.
    fn drain_contiguous(&mut self, router: RouterId) {
        loop {
            let next = {
                let Some(state) = self.seq.get_mut(&router) else { return };
                match state.pending.remove(&(state.watermark + 1)) {
                    Some(p) => {
                        state.watermark += 1;
                        p
                    }
                    None => return,
                }
            };
            self.counters.watermark_advances += 1;
            if let Pending::Batch(mut batch) = next {
                self.ingest_many(batch.drain(..));
            }
        }
    }
}

/// The collection server.
#[derive(Debug)]
pub struct Collector {
    shards: Vec<Mutex<Shard>>,
    routers: Mutex<Vec<RouterMeta>>,
    rejected_heartbeats: AtomicU64,
    /// The announced downtime schedule, kept once for the snapshot (each
    /// shard holds its own copy for lock-local checks on the hot path).
    downtime: Mutex<Vec<Window>>,
    /// The shared segment store when out-of-core mode is armed. Shards hold
    /// their own `Arc` for lock-local sealing; this copy feeds the merge.
    spill: Mutex<Option<Arc<SegmentStore>>>,
}

impl Default for Collector {
    fn default() -> Collector {
        Collector {
            shards: (0..NUM_SHARDS).map(|_| Mutex::new(Shard::default())).collect(),
            routers: Mutex::new(Vec::new()),
            rejected_heartbeats: AtomicU64::new(0),
            downtime: Mutex::new(Vec::new()),
            spill: Mutex::new(None),
        }
    }
}

/// Aggregated out-of-core accounting across all shards. Only available
/// when a spill budget was armed via [`Collector::set_spill`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Segment files sealed across all shards.
    pub segments: u64,
    /// Bytes written across all sealed segments.
    pub bytes_written: u64,
    /// First seal failure observed on any shard, if any. A failing shard
    /// keeps its data resident (unbounded memory, never data loss).
    pub error: Option<String>,
}

impl SpillStats {
    /// Add `other`'s segments and bytes; keep the first error seen.
    pub fn absorb(&mut self, other: SpillStats) {
        self.segments += other.segments;
        self.bytes_written += other.bytes_written;
        if self.error.is_none() {
            self.error = other.error;
        }
    }

    /// Fold these totals into the global `obs` registry. The study runner
    /// calls this once per run with its final totals, and only when
    /// spilling was armed, so the manifest key set stays stable for
    /// ordinary in-memory runs.
    pub fn publish_metrics(&self) {
        obs::counter("spill_segments_written_total").add(self.segments);
        obs::counter("spill_bytes_written_total").add(self.bytes_written);
        obs::counter("spill_errors_total").add(u64::from(self.error.is_some()));
    }
}

/// A borrowed handle onto the shard owning one router's records. Home
/// simulations grab one before their upload loop so the bulk path is a
/// single uncontended lock per flush, with no per-record shard routing.
#[derive(Debug, Clone, Copy)]
pub struct ShardHandle<'a> {
    shard: &'a Mutex<Shard>,
}

impl ShardHandle<'_> {
    /// Ingest by draining the caller's buffer under one lock acquisition.
    /// The buffer is left empty with its capacity intact, so a simulation
    /// flushing every few thousand records reuses one allocation for the
    /// whole run. The caller is responsible for only sending records
    /// belonging to this handle's shard.
    pub fn ingest_drain(&self, records: &mut Vec<Record>) {
        if records.is_empty() {
            return;
        }
        self.shard.lock().ingest_many(records.drain(..));
    }

    /// Hand over `router`'s heartbeat arrival stamps, in arrival order,
    /// under one lock acquisition. Each stamp is admitted on its own,
    /// exactly as [`Collector::ingest_heartbeat`] admits one record. The
    /// buffer is left empty with its capacity intact.
    pub fn ingest_heartbeats(&self, router: RouterId, stamps: &mut Vec<SimTime>) {
        if stamps.is_empty() {
            return;
        }
        self.shard.lock().ingest_heartbeats(router, stamps);
    }

    /// Offer a sequence-numbered batch (plus any gap declarations riding
    /// with it) under one lock acquisition. On [`UploadOutcome::Accepted`]
    /// and [`UploadOutcome::Duplicate`] the buffer is left drained with
    /// its capacity intact (unless the batch had to be buffered ahead of
    /// the watermark, in which case its storage moves to the collector);
    /// on [`UploadOutcome::Down`] it is untouched and the caller retries.
    #[allow(clippy::too_many_arguments)]
    pub fn ingest_upload(
        &self,
        at: SimTime,
        router: RouterId,
        seq: u64,
        attempt: u32,
        gaps: &[GapDecl],
        records: &mut Vec<Record>,
    ) -> UploadOutcome {
        self.shard.lock().ingest_upload(at, router, seq, attempt, gaps, records)
    }
}

impl Collector {
    /// An empty collector.
    pub fn new() -> Collector {
        Collector::default()
    }

    /// The shard owning one router's records. Every caller routes through
    /// here so the bounds argument lives in exactly one place.
    fn shard(&self, router: RouterId) -> &Mutex<Shard> {
        // simlint: allow(panic-in-ingest) — shard_index reduces modulo NUM_SHARDS and shards holds NUM_SHARDS entries, so the index is always in bounds
        &self.shards[shard_index(router)]
    }

    /// The ingestion handle for one router's shard.
    pub fn shard_handle(&self, router: RouterId) -> ShardHandle<'_> {
        ShardHandle { shard: self.shard(router) }
    }

    /// Register a shipped router.
    pub fn register(&self, meta: RouterMeta) {
        self.routers.lock().push(meta);
    }

    /// Announce collector downtime windows for the reliable upload path:
    /// batch uploads arriving inside one are nacked (and retried by the
    /// router — no batched record is ever lost to downtime), while
    /// heartbeat datagrams are dropped, leaving the correlated silence
    /// that `analysis::artifacts` hunts for. The windows land in
    /// [`Datasets::collector_downtime`] as the run's ground truth.
    pub fn set_downtime(&self, mut windows: Vec<Window>) {
        windows.sort_by_key(|w| (w.start, w.end));
        for shard in &self.shards {
            shard.lock().downtime = windows.clone();
        }
        *self.downtime.lock() = windows;
    }

    /// Heartbeat datagrams dropped during announced downtime so far.
    pub fn dropped_in_downtime(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().dropped_in_downtime).sum()
    }

    /// Arm out-of-core mode: every shard gets an even slice of
    /// `config.budget_bytes` as its resident-columnar budget and seals its
    /// record tables into segment files (under `config.dir`, or the OS
    /// temp directory) whenever ingestion crosses that slice. Call before
    /// ingestion starts; the drain's merge reunifies spilled and resident
    /// rows deterministically, so reports are byte-identical to an
    /// unbounded run. Fails only if the spill directory cannot be created.
    pub fn set_spill(&self, config: &SpillConfig) -> std::io::Result<()> {
        let store = Arc::new(SegmentStore::create(config.dir.as_deref())?);
        let budget = (config.budget_bytes / NUM_SHARDS as u64) as usize;
        for (index, shard) in self.shards.iter().enumerate() {
            shard.lock().spill = Some(ShardSpill {
                store: Arc::clone(&store),
                index,
                budget,
                segments: 0,
                bytes: 0,
                error: None,
            });
        }
        *self.spill.lock() = Some(store);
        Ok(())
    }

    /// Out-of-core accounting, if spilling is armed (`None` otherwise).
    pub fn spill_stats(&self) -> Option<SpillStats> {
        self.spill.lock().as_ref()?;
        let mut stats = SpillStats::default();
        for shard in &self.shards {
            let shard = shard.lock();
            let Some(sp) = &shard.spill else { continue };
            stats.segments += sp.segments;
            stats.bytes_written += sp.bytes;
            if stats.error.is_none() {
                stats.error = sp.error.clone();
            }
        }
        Some(stats)
    }

    /// Combined delivery accounting across all shards.
    pub fn upload_counters(&self) -> UploadCounters {
        let mut total = UploadCounters::default();
        for shard in &self.shards {
            total.merge(shard.lock().counters);
        }
        total
    }

    /// Ingest a heartbeat that arrived as a raw packet: parse, validate,
    /// and log. Malformed packets are counted and dropped, as a real
    /// server would — the reject counter is a lock-free atomic, so the
    /// error path never touches a shard lock.
    pub fn ingest_heartbeat_wire(&self, at: SimTime, wire: &[u8]) -> Result<(), ParseError> {
        match Heartbeat::parse(wire) {
            Ok((hb, _src)) => {
                self.shard(hb.router)
                    .lock()
                    .ingest_heartbeat(HeartbeatRecord { router: hb.router, at });
                Ok(())
            }
            Err(e) => {
                self.rejected_heartbeats.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Ingest one already-parsed heartbeat record. Home simulations hand
    /// theirs over in batches instead, through
    /// [`ShardHandle::ingest_heartbeats`], which admits each stamp the
    /// same way.
    pub fn ingest_heartbeat(&self, rec: HeartbeatRecord) {
        self.shard(rec.router).lock().ingest_heartbeat(rec);
    }

    /// Ingest any other record.
    pub fn ingest(&self, record: Record) {
        self.shard(record.router()).lock().ingest_many([record]);
    }

    /// Ingest a batch. Each run of consecutive records for the same shard
    /// is ingested under one lock acquisition with one spill check; a
    /// single-router batch (what home simulations upload) locks exactly
    /// once.
    pub fn ingest_batch(&self, records: Vec<Record>) {
        let mut records = records.into_iter().peekable();
        while let Some(router) = records.peek().map(Record::router) {
            let idx = shard_index(router);
            self.shard(router).lock().ingest_many(std::iter::from_fn(|| {
                records.next_if(|r| shard_index(r.router()) == idx)
            }));
        }
    }

    /// Malformed heartbeat packets rejected so far.
    pub fn rejected_heartbeats(&self) -> u64 {
        self.rejected_heartbeats.load(Ordering::Relaxed)
    }

    /// Fold the server's delivery accounting into the global `obs`
    /// registry. Every value is a sum over shards, so the publish is
    /// order-independent; the study runner calls this once after the
    /// simulation phase, never on the ingest hot path. Spill accounting is
    /// published separately ([`SpillStats::publish_metrics`]): a stream
    /// drains its segments away every window, so only the runner holds
    /// the run's totals.
    pub fn publish_metrics(&self) {
        let c = self.upload_counters();
        obs::counter("collector_accepted_total").add(c.accepted);
        obs::counter("collector_retried_accepted_total").add(c.retried_accepted);
        obs::counter("collector_duplicates_total").add(c.duplicates);
        obs::counter("collector_rejected_total").add(c.rejected);
        obs::counter("collector_gap_declarations_total").add(c.gap_declarations);
        obs::counter("collector_watermark_advances_total").add(c.watermark_advances);
        obs::counter("collector_heartbeats_rejected_total").add(self.rejected_heartbeats());
        // No collector path drops a record: announced downtime nacks
        // batches and drops only heartbeat datagrams. The key stays, at 0,
        // because the golden and benchmark digests pin metrics.json's key
        // set; it goes with their next re-bless.
        obs::counter("collector_records_dropped_outage_total").add(0);
        obs::counter("collector_heartbeats_dropped_downtime_total")
            .add(self.dropped_in_downtime());
    }

    /// Drain everything applied behind the per-router watermarks since
    /// the previous drain (or since startup) as one merged window delta,
    /// leaving the collector running: batches buffered ahead of a
    /// watermark, sequence state, delivery counters, and the downtime
    /// schedule all stay in place, so later uploads keep
    /// composing with earlier ones exactly as in one batch run. Per
    /// router, concatenating successive deltas reproduces the batch
    /// arrival sequence record for record — the invariant the stream
    /// mode's batch-equality proof rests on.
    ///
    /// With a spill budget armed, the shards' sealed segments move into
    /// the delta (whose merge may write one merged file per table, later
    /// reclaimed by [`Datasets::absorb`]) and each shard keeps spilling
    /// the next window against a reset resident estimate.
    ///
    /// Panics if a spilled delta's segment merge hits an I/O error; use
    /// [`Collector::try_drain_delta`] to handle that case.
    pub fn drain_delta(&self) -> Datasets {
        merged_or_panic(self.try_drain_delta(), "during drain")
    }

    /// Fallible [`Collector::drain_delta`]: surfaces spill-merge I/O
    /// errors instead of panicking. Always `Ok` when spilling is
    /// disabled.
    pub fn try_drain_delta(&self) -> Result<Datasets, SpillError> {
        // Take each shard's tables with their sealed segments under its
        // lock: the shard keeps running on empty tables and a reset
        // spill estimate.
        let mut segments = 0;
        let chunks: Vec<Datasets> = self
            .shards
            .iter()
            .map(|s| {
                let mut shard = s.lock();
                if let Some(sp) = &mut shard.spill {
                    segments += std::mem::take(&mut sp.segments);
                    sp.bytes = 0;
                }
                shard.columnar_est = 0;
                std::mem::take(&mut shard.tables)
            })
            .collect();
        merge_chunks(self.routers.lock().clone(), self.downtime.lock().clone(), segments, chunks)
    }
}

/// The panicking face of a fallible merge. `during` completes the message.
fn merged_or_panic(merged: Result<Datasets, SpillError>, during: &str) -> Datasets {
    match merged {
        Ok(data) => data,
        // simlint: allow(panic-in-ingest) — the analysis boundary, not the ingest path; callers that can recover from a failed segment merge use the try_ variants
        Err(e) => panic!("spill segment merge failed {during}: {e}"),
    }
}

/// Collect one merge worker's table. A worker is pure comparison-and-move
/// code, so the only failure mode is a panic; re-raising the original
/// payload on the draining caller is the correct propagation (there is no
/// half-merged data worth salvaging).
fn join_merged<T>(handle: crossbeam::thread::ScopedJoinHandle<'_, T>) -> T {
    handle.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic))
}

/// Merge the shards' table sets into one sorted [`Datasets`], adding the
/// global registration and downtime. `segments` counts the segment files
/// the shards sealed; with none, nothing is read or written on disk, so a
/// spill-armed run that stayed under budget produces bit-identical
/// in-memory [`Datasets`].
fn merge_chunks(
    mut routers: Vec<RouterMeta>,
    collector_downtime: Vec<Window>,
    segments: u64,
    mut chunks: Vec<Datasets>,
) -> Result<Datasets, SpillError> {
    routers.sort_by_key(|m| m.router);
    let mut data = Datasets { routers, collector_downtime, ..Datasets::default() };
    for chunk in &mut chunks {
        // Routers are partitioned across shards, so no key collides.
        // Insert, so each chunk costs only its own entries: `append`
        // would rebuild the whole merged tree once per shard.
        data.heartbeats.extend(std::mem::take(&mut chunk.heartbeats));
    }
    if segments > 0 {
        // Merge fan-in: every sealed segment plus every shard with
        // resident rows contributes one input run.
        let resident = chunks.iter().filter(|c| c.has_resident_columns()).count() as u64;
        obs::gauge("spill_merge_fanin").set(segments + resident);
    }
    data.merge_columns(&mut chunks)?;
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use firmware::records::{CapacityRecord, DeviceCensusRecord, UptimeRecord};
    use simnet::time::SimDuration;
    use std::net::Ipv4Addr;

    fn m(mins: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_mins(mins)
    }

    #[test]
    fn wire_heartbeats_accumulate_into_runs() {
        let collector = Collector::new();
        let wan = Ipv4Addr::new(100, 64, 0, 3);
        for i in 0..30u64 {
            let hb = Heartbeat { router: RouterId(9), seq: i };
            collector.ingest_heartbeat_wire(m(i), &hb.emit(wan)).unwrap();
        }
        let data = collector.drain_delta();
        let log = &data.heartbeats[&RouterId(9)];
        assert_eq!(log.runs().len(), 1);
        assert_eq!(log.total_heartbeats(), 30);
    }

    #[test]
    fn malformed_heartbeats_rejected_and_counted() {
        let collector = Collector::new();
        assert!(collector.ingest_heartbeat_wire(m(0), &[0u8; 44]).is_err());
        assert_eq!(collector.rejected_heartbeats(), 1);
        assert!(collector.drain_delta().heartbeats.is_empty());
    }

    #[test]
    fn records_routed_to_their_sets() {
        let collector = Collector::new();
        collector.ingest(Record::Uptime(UptimeRecord {
            router: RouterId(1),
            at: m(5),
            uptime: SimDuration::from_mins(5),
        }));
        collector.ingest(Record::DeviceCensus(DeviceCensusRecord {
            router: RouterId(1),
            at: m(60),
            wired: 1,
            wireless_24: 3,
            wireless_5: 1,
        }));
        let data = collector.drain_delta();
        assert_eq!(data.uptime.len(), 1);
        assert_eq!(data.devices.len(), 1);
        assert_eq!(data.record_count(), 2);
    }

    #[test]
    fn snapshot_is_sorted_despite_interleaving() {
        let collector = Collector::new();
        for (router, at) in [(2u32, 100u64), (1, 50), (2, 10), (1, 200)] {
            collector.ingest(Record::Uptime(UptimeRecord {
                router: RouterId(router),
                at: m(at),
                uptime: SimDuration::ZERO,
            }));
        }
        let data = collector.drain_delta();
        let order: Vec<(u32, SimTime)> = data.uptime.iter().map(|r| (r.router.0, r.at)).collect();
        assert_eq!(order, vec![(1, m(50)), (1, m(200)), (2, m(10)), (2, m(100))]);
    }

    #[test]
    fn router_accessors_find_each_contiguous_run() {
        let collector = Collector::new();
        // Routers 130 and 2 collide with 2 mod 128 and share a shard.
        // Router 2's rows arrive out of time order, so the drain's merge
        // re-sorts them; router 130's stay as they came.
        for (router, at) in [(130u32, 5u64), (2, 9), (3, 1), (130, 7), (2, 4)] {
            let (router, at) = (RouterId(router), m(at));
            collector.ingest(Record::Uptime(UptimeRecord {
                router,
                at,
                uptime: SimDuration::ZERO,
            }));
            collector.ingest(Record::Capacity(CapacityRecord {
                router,
                at,
                down_bps: 1,
                up_bps: 1,
                shaping_detected: false,
            }));
            collector.ingest(Record::DeviceCensus(DeviceCensusRecord {
                router,
                at,
                wired: 0,
                wireless_24: 0,
                wireless_5: 0,
            }));
        }
        let data = collector.drain_delta();
        assert_eq!(
            data.uptime.iter().map(|r| (r.router.0, r.at)).collect::<Vec<_>>(),
            vec![(2, m(4)), (2, m(9)), (3, m(1)), (130, m(5)), (130, m(7))]
        );
        // The first and last routers, one between them, and absent
        // routers before, between and after the runs.
        for (router, times) in [
            (2u32, vec![m(4), m(9)]),
            (3, vec![m(1)]),
            (130, vec![m(5), m(7)]),
            (1, vec![]),
            (4, vec![]),
            (131, vec![]),
        ] {
            let router = RouterId(router);
            let uptime: Vec<SimTime> = data.uptime.router(router).map(|r| r.at).collect();
            let capacity: Vec<SimTime> = data.capacity.router(router).map(|r| r.at).collect();
            let devices: Vec<SimTime> = data.devices.router(router).map(|r| r.at).collect();
            assert_eq!((uptime, capacity, devices), (times.clone(), times.clone(), times));
        }
        assert_eq!(Datasets::default().uptime.router(RouterId(2)).count(), 0);
    }

    #[test]
    fn parallel_ingest_is_safe() {
        let collector = Collector::new();
        crossbeam::scope(|scope| {
            for router in 0..8u32 {
                let collector = &collector;
                scope.spawn(move |_| {
                    for i in 0..1_000u64 {
                        collector.ingest_heartbeat(HeartbeatRecord {
                            router: RouterId(router),
                            at: m(i),
                        });
                    }
                });
            }
        })
        .expect("threads join");
        let data = collector.drain_delta();
        assert_eq!(data.heartbeats.len(), 8);
        for log in data.heartbeats.values() {
            assert_eq!(log.total_heartbeats(), 1_000);
        }
    }

    fn uptime_batch(router: u32, mins: std::ops::Range<u64>) -> Vec<Record> {
        mins.map(|i| {
            Record::Uptime(UptimeRecord {
                router: RouterId(router),
                at: m(i),
                uptime: SimDuration::from_mins(i),
            })
        })
        .collect()
    }

    #[test]
    fn upload_in_order_applies_and_acks() {
        let collector = Collector::new();
        let handle = collector.shard_handle(RouterId(7));
        let mut batch = uptime_batch(7, 0..10);
        let out = handle.ingest_upload(m(10), RouterId(7), 1, 0, &[], &mut batch);
        assert_eq!(out, UploadOutcome::Accepted);
        assert!(batch.is_empty(), "accepted batch is drained");
        assert_eq!(collector.drain_delta().uptime.len(), 10);
        let c = collector.upload_counters();
        assert_eq!((c.accepted, c.retried_accepted, c.duplicates, c.rejected), (1, 0, 0, 0));
    }

    #[test]
    fn upload_replay_is_acked_but_discarded() {
        let collector = Collector::new();
        let handle = collector.shard_handle(RouterId(7));
        let mut batch = uptime_batch(7, 0..10);
        assert!(handle.ingest_upload(m(10), RouterId(7), 1, 0, &[], &mut batch).is_ack());
        assert_eq!(collector.drain_delta().uptime.len(), 10);
        let mut replay = uptime_batch(7, 0..10);
        let out = handle.ingest_upload(m(11), RouterId(7), 1, 2, &[], &mut replay);
        assert_eq!(out, UploadOutcome::Duplicate);
        assert!(replay.is_empty());
        assert_eq!(collector.drain_delta().record_count(), 0, "the replay's drain has no rows");
        assert_eq!(collector.upload_counters().duplicates, 1);
    }

    #[test]
    fn out_of_order_batches_apply_in_sequence_order() {
        let collector = Collector::new();
        let handle = collector.shard_handle(RouterId(3));
        // Heartbeat records force chronological application: run logs
        // assert non-decreasing arrivals, so applying batch 2 before
        // batch 1 would blow up in debug builds.
        let mut second: Vec<Record> = (10..20u64)
            .map(|i| Record::Heartbeat(HeartbeatRecord { router: RouterId(3), at: m(i) }))
            .collect();
        let mut first: Vec<Record> = (0..10u64)
            .map(|i| Record::Heartbeat(HeartbeatRecord { router: RouterId(3), at: m(i) }))
            .collect();
        assert_eq!(
            handle.ingest_upload(m(30), RouterId(3), 2, 1, &[], &mut second),
            UploadOutcome::Accepted,
            "arrives first, buffered ahead of the watermark"
        );
        assert!(collector.drain_delta().heartbeats.is_empty(), "this drain has no heartbeats");
        assert_eq!(
            handle.ingest_upload(m(31), RouterId(3), 1, 0, &[], &mut first),
            UploadOutcome::Accepted
        );
        let data = collector.drain_delta();
        assert_eq!(data.heartbeats[&RouterId(3)].total_heartbeats(), 20);
        assert_eq!(data.heartbeats[&RouterId(3)].runs().len(), 1);
    }

    #[test]
    fn downtime_nacks_batches_and_drops_heartbeat_datagrams() {
        use crate::windows::Window;
        let collector = Collector::new();
        collector.set_downtime(vec![Window { start: m(10), end: m(20) }]);
        let handle = collector.shard_handle(RouterId(5));
        let mut batch = uptime_batch(5, 0..4);
        let out = handle.ingest_upload(m(15), RouterId(5), 1, 0, &[], &mut batch);
        assert_eq!(out, UploadOutcome::Down { retry_at: m(20) });
        assert_eq!(batch.len(), 4, "nacked batch is untouched");
        assert_eq!(collector.upload_counters().rejected, 1);
        // Retry after the window: accepted, nothing lost.
        let retry = handle.ingest_upload(m(20), RouterId(5), 1, 1, &[], &mut batch);
        assert_eq!(retry, UploadOutcome::Accepted);
        assert_eq!(collector.upload_counters().retried_accepted, 1);
        assert_eq!(collector.drain_delta().uptime.len(), 4);
        // Heartbeat datagrams are fire-and-forget: dropped, counted.
        collector.ingest_heartbeat(HeartbeatRecord { router: RouterId(5), at: m(15) });
        collector.ingest_heartbeat(HeartbeatRecord { router: RouterId(5), at: m(25) });
        assert_eq!(collector.dropped_in_downtime(), 1);
        let data = collector.drain_delta();
        assert_eq!(data.heartbeats[&RouterId(5)].total_heartbeats(), 1);
        assert_eq!(data.collector_downtime.len(), 1);
    }

    #[test]
    fn gap_declarations_advance_watermark_and_ledger_once() {
        use firmware::uploader::{GapCause, GapDecl};
        let collector = Collector::new();
        let handle = collector.shard_handle(RouterId(9));
        let decl = GapDecl {
            first_seq: 1,
            last_seq: 2,
            records_lost: 100,
            from: m(0),
            to: m(40),
            cause: GapCause::FlashWipe,
        };
        // Batch 3 carries the declaration that 1..=2 are gone.
        let mut batch = uptime_batch(9, 40..50);
        let out = handle.ingest_upload(m(50), RouterId(9), 3, 0, &[decl], &mut batch);
        assert_eq!(out, UploadOutcome::Accepted);
        let data = collector.drain_delta();
        assert_eq!(data.uptime.len(), 10, "batch 3 applied past the gap");
        // Replaying the declaration (with a duplicate batch) adds nothing.
        let mut replay = uptime_batch(9, 40..50);
        handle.ingest_upload(m(51), RouterId(9), 3, 1, &[decl], &mut replay);
        assert_eq!(collector.drain_delta().record_count(), 0, "the replay's drain has no rows");
        assert_eq!(data.upload_gaps.len(), 1);
        let row = data.upload_gaps.iter().next().expect("one ledger row");
        assert_eq!(
            (row.router, row.first_seq, row.last_seq, row.records_lost, row.cause),
            (RouterId(9), 1, 2, 100, GapCause::FlashWipe)
        );
        assert_eq!(collector.upload_counters().gap_declarations, 1);
    }

    fn traffic_records(router: u32, n: u64) -> Vec<Record> {
        use firmware::records::PacketStatsRecord;
        (0..n)
            .map(|i| {
                Record::PacketStats(PacketStatsRecord {
                    router: RouterId(router),
                    at: m(i),
                    bytes_down: i * 100,
                    bytes_up: i * 10,
                    pkts_down: i,
                    pkts_up: i / 2,
                    peak_down_1s: i,
                    peak_up_1s: i,
                })
            })
            .collect()
    }

    #[test]
    fn the_parts_of_one_seal_read_through_one_handle() {
        let store = Arc::new(SegmentStore::create(None).expect("create store"));
        let mut tables = Datasets::default();
        let (router, at) = (RouterId(1), m(5));
        tables.uptime.push(UptimeRecord { router, at, uptime: SimDuration::ZERO });
        tables.capacity.push(CapacityRecord {
            router,
            at,
            down_bps: 1,
            up_bps: 1,
            shaping_detected: false,
        });
        let mut buf = SEGMENT_MAGIC.to_vec();
        tables.seal_columns(&store, "seg0", &mut buf).expect("seal");
        assert!(!tables.has_resident_columns());
        // The uptime part's read opens the segment. Unlinked after that,
        // it still reads through the capacity part, which shares the
        // handle instead of opening the file again.
        assert_eq!(tables.uptime.router(router).count(), 1);
        store.remove_file("seg0");
        assert_eq!(tables.capacity.router(router).count(), 1);
    }

    #[test]
    fn spill_budget_zero_spills_everything_and_matches_in_memory() {
        let dir = std::env::temp_dir().join(format!("bismark-spill-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let unbounded = Collector::new();
        let spilled = Collector::new();
        spilled
            .set_spill(&SpillConfig { budget_bytes: 0, dir: Some(dir.clone()) })
            .expect("spill dir creation");
        // Two colliding routers on one shard, uploaded in several batches
        // so multiple segments seal per shard, in two drained windows.
        let ingest_window = |chunks: std::ops::Range<u64>| {
            for c in [&unbounded, &spilled] {
                for router in [2u32, 130, 7] {
                    for chunk in chunks.clone() {
                        c.ingest_batch(traffic_records(router, 50 + chunk));
                    }
                }
            }
        };
        for c in [&unbounded, &spilled] {
            c.register(RouterMeta {
                router: RouterId(2),
                country: Country::UnitedStates,
                traffic_consent: true,
            });
        }
        ingest_window(0..2);
        let stats = spilled.spill_stats().expect("spilling armed");
        assert!(stats.segments > 0, "budget 0 must seal every batch");
        assert!(stats.bytes_written > 0);
        assert_eq!(stats.error, None);
        assert_eq!(unbounded.spill_stats(), None, "unarmed collector reports no stats");

        let first = spilled.drain_delta();
        let from_memory = unbounded.drain_delta();
        assert_eq!(first.packet_stats, from_memory.packet_stats);
        assert!(first.spilled_bytes() > 0);
        assert_eq!(from_memory.spilled_bytes(), 0);
        assert_eq!(
            first.packet_stats.iter().collect::<Vec<_>>(),
            from_memory.packet_stats.iter().collect::<Vec<_>>()
        );

        // A second merge over the same store must leave the first one's
        // merged files readable — unique merged-file generations.
        ingest_window(2..4);
        let second = spilled.drain_delta();
        assert!(second.spilled_bytes() > 0);
        assert_eq!(second.packet_stats, unbounded.drain_delta().packet_stats);
        assert_eq!(first.packet_stats, from_memory.packet_stats);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_seals_keep_the_shard_resident_and_the_merge_exact() {
        let base =
            std::env::temp_dir().join(format!("bismark-seal-fail-test-{}", std::process::id()));
        std::fs::create_dir_all(&base).unwrap();
        let spilled = Collector::new();
        spilled
            .set_spill(&SpillConfig { budget_bytes: 0, dir: Some(base.clone()) })
            .expect("spill dir creation");
        // Replace the store's fresh directory with a regular file: every
        // segment write from here on fails, even for root.
        let store_dir = spilled.spill.lock().as_ref().expect("spilling armed").dir().to_path_buf();
        std::fs::remove_dir_all(&store_dir).unwrap();
        std::fs::write(&store_dir, b"not a directory").unwrap();
        let unbounded = Collector::new();
        for c in [&spilled, &unbounded] {
            for router in [2u32, 130, 7] {
                for chunk in 0..3u64 {
                    c.ingest_batch(traffic_records(router, 40 + chunk));
                }
                c.ingest_heartbeat(HeartbeatRecord { router: RouterId(router), at: m(1) });
            }
        }
        let stats = spilled.spill_stats().expect("spilling armed");
        assert_eq!((stats.segments, stats.bytes_written), (0, 0), "no segment was sealed");
        assert!(stats.error.is_some(), "the failed write is reported");

        let drained = spilled.drain_delta();
        assert_eq!(drained.spilled_bytes(), 0, "the shards stayed resident");
        assert!(drained.columnar_heap_bytes() > 0);
        assert_eq!(drained, unbounded.drain_delta());
        std::fs::remove_file(&store_dir).ok();
        std::fs::remove_dir_all(&base).ok();
    }

    #[test]
    fn spill_under_budget_stays_resident_and_identical() {
        let spilled = Collector::new();
        spilled
            .set_spill(&SpillConfig { budget_bytes: 1 << 30, dir: None })
            .expect("spill dir creation");
        let unbounded = Collector::new();
        for c in [&spilled, &unbounded] {
            c.ingest_batch(traffic_records(3, 100));
        }
        let stats = spilled.spill_stats().expect("spilling armed");
        assert_eq!(stats.segments, 0, "under budget: nothing seals");
        let a = spilled.drain_delta();
        let b = unbounded.drain_delta();
        assert_eq!(a.packet_stats, b.packet_stats);
        assert_eq!(a.spilled_bytes(), 0, "under-budget run is purely in-memory");
    }

    #[test]
    fn windowed_drain_absorb_matches_batch_snapshot() {
        windowed_drain_matches_batch(None);
    }

    #[test]
    fn windowed_drain_absorb_matches_batch_under_spill() {
        // Budget 0 seals every batch, so every window's delta arrives
        // spill-backed and the absorb streams it in from disk.
        windowed_drain_matches_batch(Some(0));
    }

    /// The stream-mode core claim at collector granularity: the same
    /// arrival sequence pushed through N drain+absorb windows must equal
    /// the single batch snapshot field for field.
    fn windowed_drain_matches_batch(spill_budget: Option<u64>) {
        let stream = Collector::new();
        if let Some(budget_bytes) = spill_budget {
            stream.set_spill(&SpillConfig { budget_bytes, dir: None }).expect("spill dir");
        }
        let batch = Collector::new();
        for c in [&stream, &batch] {
            c.register(RouterMeta {
                router: RouterId(2),
                country: Country::UnitedStates,
                traffic_consent: true,
            });
            c.register(RouterMeta {
                router: RouterId(130),
                country: Country::India,
                traffic_consent: false,
            });
        }
        let mut acc = Datasets::default();
        let per = 30u64;
        for w in 0..4u64 {
            let (lo, hi) = (w * per, (w + 1) * per);
            for c in [&stream, &batch] {
                // Routers 2 and 130 share a shard (130 ≡ 2 mod 128):
                // the in-shard merge paths run every window.
                for router in [2u32, 130, 7] {
                    c.ingest_batch(
                        (lo..hi)
                            .map(|i| {
                                Record::PacketStats(firmware::records::PacketStatsRecord {
                                    router: RouterId(router),
                                    at: m(i),
                                    bytes_down: i * 100,
                                    bytes_up: i * 10,
                                    pkts_down: i,
                                    pkts_up: i / 2,
                                    peak_down_1s: i,
                                    peak_up_1s: i,
                                })
                            })
                            .collect(),
                    );
                    c.ingest(Record::Uptime(UptimeRecord {
                        router: RouterId(router),
                        at: m(hi),
                        uptime: SimDuration::from_mins(hi),
                    }));
                    for i in lo..hi {
                        c.ingest_heartbeat(HeartbeatRecord {
                            router: RouterId(router),
                            at: m(i),
                        });
                    }
                }
                // Router 9's clock steps backwards across every window
                // boundary: absorb must take the per-router re-sort
                // fallback (row and columnar) and still match the batch
                // merge's stable sort.
                c.ingest(Record::Uptime(UptimeRecord {
                    router: RouterId(9),
                    at: m(1000 - lo),
                    uptime: SimDuration::from_mins(w),
                }));
                c.ingest(Record::PacketStats(firmware::records::PacketStatsRecord {
                    router: RouterId(9),
                    at: m(2000 - lo),
                    bytes_down: w,
                    bytes_up: w,
                    pkts_down: w,
                    pkts_up: w,
                    peak_down_1s: w,
                    peak_up_1s: w,
                }));
            }
            acc.absorb(stream.drain_delta());
        }
        if spill_budget.is_some() {
            let stats = stream.spill_stats().expect("spilling armed");
            assert_eq!(stats.segments, 0, "sealed segments moved into the deltas");
            assert_eq!(stats.error, None);
        }
        assert_eq!(acc.spilled_bytes(), 0, "the accumulator stays resident");
        let expect = batch.drain_delta();
        assert_eq!(acc, expect);
    }

    #[test]
    fn absorb_into_a_drained_accumulator_matches_one_batch_drain() {
        // The accumulator is a first drain as it stands; the second
        // window's router 9 steps back before the tail it holds.
        let stream = Collector::new();
        let batch = Collector::new();
        let mut acc = Datasets::default();
        for (w, window) in [[(9u32, 1000u64), (2, 5)], [(9, 990), (2, 6)]].into_iter().enumerate() {
            for c in [&stream, &batch] {
                for (router, at) in window {
                    c.ingest(Record::Uptime(UptimeRecord {
                        router: RouterId(router),
                        at: m(at),
                        uptime: SimDuration::from_mins(at),
                    }));
                }
            }
            match w {
                0 => acc = stream.drain_delta(),
                _ => acc.absorb(stream.drain_delta()),
            }
        }
        let expect = batch.drain_delta();
        let at = |data: &Datasets| -> Vec<u64> {
            data.uptime.router(RouterId(9)).map(|r| r.uptime.as_micros() / 60_000_000).collect()
        };
        assert_eq!(at(&acc), vec![990, 1000]);
        assert_eq!(acc, expect);
    }

    #[test]
    fn registration_and_consent_lookup() {
        let collector = Collector::new();
        collector.register(RouterMeta {
            router: RouterId(3),
            country: Country::UnitedStates,
            traffic_consent: true,
        });
        collector.register(RouterMeta {
            router: RouterId(4),
            country: Country::India,
            traffic_consent: false,
        });
        let data = collector.drain_delta();
        assert_eq!(data.traffic_routers(), vec![RouterId(3)]);
        assert_eq!(data.meta(RouterId(4)).unwrap().country, Country::India);
    }
}
