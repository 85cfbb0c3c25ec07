//! The per-home discrete-event simulation: one household, one gateway,
//! one event queue, from the study epoch to the end of the span.
//!
//! Everything the paper measures happens in here, in virtual time:
//!
//! * the router powers on and off according to the home's
//!   [`household::PowerMode`], and the ISP fails according to its outage
//!   process;
//! * while powered, the firmware sends per-minute heartbeats (real wire
//!   images through the uplink and a lossy WAN path), 12-hourly uptime
//!   reports and capacity probes, hourly device censuses, and 10-minute
//!   WiFi scan slots. One queued event sends a run of heartbeats, every
//!   minute up to the next pending event (see [`HomeSim::run_until`]), so
//!   the queue pops one heartbeat event per run, not one per minute;
//! * devices come and go following the household's diurnal rhythm; in
//!   consenting homes during the Traffic window, online devices start
//!   application sessions (DNS lookup through the gateway resolver, NAT
//!   translation, then a fluid flow that shares the access link);
//! * every observation is emitted as a [`firmware::records::Record`] and
//!   uploaded to the collector in batches, except heartbeats: the
//!   collector stamps those on arrival, so a delivered heartbeat is just
//!   its arrival stamp, buffered per home and handed over under one lock
//!   at every flush, at the end of every [`HomeSim::run_until`] segment
//!   and in [`HomeSim::finish`].
//!
//! Homes are mutually independent, so the study runs them on parallel
//! threads; determinism is preserved because each home derives its own
//! random streams from `(study seed, home id)`.

use crate::study::StudyWindows;
use cgn::plan::HomeCgn;
use cgn::{run_trial, CgnHop, NatChain, SyntheticPeer};
use collector::windows::Window;
use collector::{Collector, UploadOutcome};
use faultlab::{ClockSkew, HomeFaults};
use firmware::anonymize::Anonymizer;
use firmware::gateway::Gateway;
use firmware::heartbeat::Heartbeat;
use firmware::natprobe::{self, NatType, STUN_SERVERS};
use firmware::records::{
    AssociationRecord, CapacityRecord, Medium, NatProbeRecord, PunchTrialRecord, Record, RouterId,
};
use firmware::shaperprobe;
use firmware::traffic::TrafficMonitor;
use firmware::uploader::{Uploader, UploaderConfig};
use household::devices::{Attachment, Device};
use household::domains::DomainUniverse;
use household::home::{HomeConfig, Quirk};
use household::interval::{self, Interval};
use simnet::impair::ImpairmentSchedule;
use netstack::{AppKind, Flow, FlowScheduler};
use simnet::dns::ZoneDb;
use simnet::event::EventQueue;
use simnet::link::{Link, TxOutcome, WanPath};
use simnet::packet::Endpoint;
use simnet::rng::DetRng;
use simnet::time::{SimDuration, SimTime};
use simnet::wifi::Band;

/// Flush the record buffer to the collector at this size. On the direct
/// path buffered heartbeat stamps count toward it too.
const FLUSH_THRESHOLD: usize = 50_000;

/// The traffic lattice's step: flows move second by second.
const SECOND: SimDuration = SimDuration::from_secs(1);

/// The heartbeat lattice's step: a powered router sends one a minute.
const MINUTE: SimDuration = SimDuration::from_mins(1);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    PowerOn,
    PowerOff,
    /// The next heartbeat minute, which sends a run of them (see
    /// [`HomeSim::on_heartbeats`]); `epoch` guards against stale events
    /// from a previous boot.
    Heartbeat { epoch: u32 },
    UptimeReport,
    CapacityProbe,
    Census,
    ScanSlot,
    PresenceSlot,
    SessionArrival,
    /// The boundary second of the current rate epoch (see
    /// [`HomeSim::plan_traffic`]); `plan` guards against events planned
    /// before the chain was last re-planned or cut off.
    Traffic { plan: u32 },
    Reassociate { device: usize },
    NatSweep,
    LatencyProbe,
    /// Periodic STUN-style NAT-type probe (CGN studies only).
    NatProbe,
    /// A scheduled pairwise hole-punch trial (CGN studies only); `idx`
    /// indexes this home's trial list in the compiled plan.
    PunchTrial { idx: u32 },
    /// Retry the head of the upload spool after a backoff delay; `epoch`
    /// guards against retries scheduled before a reboot (the power-on
    /// handler re-pumps the spool itself).
    UploadRetry { epoch: u32 },
    /// Periodic store-and-forward flush (fault mode only): seal whatever
    /// accumulated and push the spool, so a quiet home still uploads.
    UploadFlush,
    /// An injected flash-wipe reboot destroys the spool and the unsealed
    /// accumulation buffer (fault mode only).
    FlashWipe,
}

/// Per-device dynamic state.
#[derive(Debug, Clone, Copy)]
struct DeviceState {
    online: bool,
    /// Band the device chose for its current online period (wireless only).
    band: Option<Band>,
}

/// Observability for one home: pre-registered `obs` handles (registered
/// once in [`HomeSim::new`], so increments never allocate or take the
/// registry lock) plus local accumulators for the hot events. Everything
/// here is write-only — nothing in the simulation ever reads a metric, so
/// instrumentation cannot perturb results.
struct HomeMetrics {
    world: simnet::metrics::WorldMetrics,
    flows: netstack::metrics::FlowMetrics,
    fw: firmware::metrics::FirmwareMetrics,
    /// Heartbeats sent this run; one per simulated minute while powered, so
    /// it stays a plain local integer and folds into the shared counter
    /// once, at end of run.
    heartbeats_emitted: u64,
    /// CGN experiment accumulators; folded into armed-gated counters at end
    /// of run, so a CGN-free study registers none of them.
    cgn: CgnLocal,
}

/// Local accumulators for the CGN/NAT-characterization experiments.
#[derive(Default)]
struct CgnLocal {
    probes: u64,
    probes_blocked: u64,
    punch_trials: u64,
    punch_success: u64,
    session_blocked: u64,
}

/// Parameters for one home's simulation.
pub struct SimParams<'a> {
    /// The home to simulate.
    pub cfg: &'a HomeConfig,
    /// The shared domain universe.
    pub universe: &'a DomainUniverse,
    /// The shared authoritative DNS zone.
    pub zone: &'a ZoneDb,
    /// The study's collection windows.
    pub windows: &'a StudyWindows,
    /// The study seed (per-home streams derive from it).
    pub seed: u64,
    /// Route records through the store-and-forward upload queue instead of
    /// flushing straight to the collector. The study runner enables this
    /// uniformly for every home whenever a fault plan is active; with it
    /// off, the legacy direct-flush path runs untouched.
    pub reliable_upload: bool,
    /// This home's slice of the fault plan, if any.
    pub faults: Option<&'a HomeFaults>,
    /// This home's slice of the CGN plan. `Some` for *every* home when a
    /// CGN scenario is armed (unfronted homes carry no assignment but
    /// still run the NAT-characterization experiments, providing the
    /// detection negatives); `None` keeps the legacy single-NAT path
    /// byte-identical.
    pub cgn: Option<&'a HomeCgn>,
}

/// A home's root stream, powered intervals and ISP outages, derived from
/// the study seed: the one derivation both [`HomeSim::new`] and
/// [`crate::validation::ground_truth_up`] run.
#[derive(Debug, Clone)]
pub struct HomeSchedules {
    /// The stream every per-home stream derives from.
    pub root: DetRng,
    /// The home's own power schedule less any injected power cycles.
    pub powered: Vec<Interval>,
    /// When the ISP is down.
    pub outages: Vec<Interval>,
}

impl HomeSchedules {
    /// Derive `cfg`'s schedules over `span` for study `seed`. Injected
    /// power cycles are cut from the home's own schedule up front, so no
    /// handler needs to know whether an outage was organic or injected.
    pub fn derive(
        cfg: &HomeConfig,
        span: Window,
        seed: u64,
        faults: Option<&HomeFaults>,
    ) -> HomeSchedules {
        let root = DetRng::new(seed).derive_indexed("homesim", u64::from(cfg.id.0));
        let mut power_rng = root.derive("power");
        let base = cfg.availability.power_intervals(span.start, span.end, &mut power_rng);
        let powered = match faults {
            Some(f) if !f.power_cycles.is_empty() => {
                let cuts: Vec<Interval> =
                    f.power_cycles.iter().map(|c| Interval::new(c.at, c.until())).collect();
                interval::subtract(&base, &cuts)
            }
            _ => base,
        };
        let mut outage_rng = root.derive("outage");
        let outages = cfg.availability.isp_outages(span.start, span.end, &mut outage_rng);
        HomeSchedules { root, powered, outages }
    }
}

/// The simulation engine for one home.
pub struct HomeSim<'a> {
    cfg: &'a HomeConfig,
    universe: &'a DomainUniverse,
    zone: &'a ZoneDb,
    windows: StudyWindows,
    gateway: Gateway,
    monitor: Option<TrafficMonitor>,
    flows: FlowScheduler,
    /// Per-station throughput of the 2.4 GHz radio, the per-flow cap of
    /// every traffic second. It depends only on the radio's channel and the
    /// neighborhood, and neither changes during a run.
    wireless_cap_bps: u64,
    up_link: Link,
    down_link: Link,
    wan: WanPath,
    queue: EventQueue<Ev>,
    device_state: Vec<DeviceState>,
    outages: Vec<Interval>,
    boot_epoch: u32,
    /// The traffic chain's next lattice second not yet applied. A chain's
    /// seconds fall 1 s after the start that opened it and every whole
    /// second after that. `None` when no chain runs; after an abort the
    /// chain ends at this second unless a flow joins it by then.
    traffic_next: Option<SimTime>,
    /// Bumped on every re-plan of the chain; stamps its live event.
    traffic_plan: u32,
    /// Traffic events popped, stale and re-queued ones included.
    traffic_events: u64,
    /// Heartbeat events popped, stale ones included.
    heartbeat_events: u64,
    uploader_active: bool,
    dns_id: u16,
    ephemeral_port: u16,
    /// The store-and-forward upload queue (`Some` iff the study runs with
    /// a fault plan; `None` keeps the legacy direct-flush path).
    upload_queue: Option<Uploader>,
    /// Injected impairment on the WAN upload path (empty when unfaulted).
    wan_faults: ImpairmentSchedule,
    /// Injected clock skew on router-stamped records, if any.
    clock_skew: Option<ClockSkew>,
    /// This home's slice of the CGN plan (`Some` iff a scenario is armed).
    cgn_plan: Option<&'a HomeCgn>,
    /// The carrier-grade second translation hop (`Some` iff this home is
    /// CGN-fronted): every outbound session and probe crosses it after the
    /// home NAT.
    cgn_hop: Option<CgnHop>,
    /// Is an `UploadRetry` already in flight for the current boot?
    retry_scheduled: bool,
    // Independent random streams, one per process.
    rng_heartbeat: DetRng,
    rng_scan: DetRng,
    rng_presence: DetRng,
    rng_session: DetRng,
    rng_probe: DetRng,
    rng_upload: DetRng,
    out: Vec<Record>,
    /// Arrival stamps of delivered heartbeats not yet handed to the
    /// collector. Heartbeats are datagrams the collector admits or drops
    /// by their stamp alone (against announced downtime), so a later
    /// hand-over admits each exactly as on arrival. They are never
    /// spooled or retried, which is what makes collector downtime show
    /// as correlated heartbeat silence while batch data survives, and
    /// neither a flash wipe nor a power cut touches this buffer: those
    /// datagrams had already arrived.
    heartbeat_stamps: Vec<SimTime>,
    /// Scratch buffer for DNS wire images, reused across lookups.
    dns_wire_buf: Vec<u8>,
    metrics: HomeMetrics,
}

impl<'a> HomeSim<'a> {
    /// Build the simulation: precompute power/outage schedules and prime
    /// the event queue.
    pub fn new(params: SimParams<'a>) -> HomeSim<'a> {
        let cfg = params.cfg;
        let windows = params.windows.clone();
        let span = windows.span;
        let HomeSchedules { root, powered, outages } =
            HomeSchedules::derive(cfg, span, params.seed, params.faults);
        let router = RouterId(cfg.id.0);
        // Only consenting homes capture traffic, so only they pay for the
        // anonymizer and its whitelist. Deriving a stream draws nothing.
        let monitor = cfg.traffic_consent.then(|| {
            let key = root.derive("anon-key").seed();
            TrafficMonitor::new(router, Anonymizer::new(key, params.universe.whitelist()))
        });
        let mut queue = EventQueue::new();

        // Power schedule → PowerOn/PowerOff events; the ISP outage
        // schedule is queried on demand.
        let powered_hist =
            obs::histogram("home_powered_interval_micros", &obs::DURATION_BOUNDS_MICROS);
        for iv in &powered {
            powered_hist.record(iv.end.since(iv.start).as_micros());
            queue.schedule(iv.start, Ev::PowerOn);
            if iv.end < span.end {
                queue.schedule(iv.end, Ev::PowerOff);
            }
        }
        if let Some(f) = params.faults {
            for c in f.power_cycles.iter().filter(|c| c.flash_wipe) {
                if c.at >= span.start && c.at < span.end {
                    queue.schedule(c.at, Ev::FlashWipe);
                }
            }
        }
        // Global periodic schedules (handlers check power state).
        queue.schedule(span.start + SimDuration::from_mins(30), Ev::PresenceSlot);
        queue.schedule(windows.devices.start, Ev::Census);
        queue.schedule(windows.wifi.start, Ev::ScanSlot);
        queue.schedule(windows.uptime.start, Ev::UptimeReport);
        let mut probe_rng = root.derive("probe");
        queue.schedule(
            windows.capacity.start
                + SimDuration::from_mins(probe_rng.uniform_int(0, 12 * 60)),
            Ev::CapacityProbe,
        );
        if monitor.is_some() {
            queue.schedule(
                windows.traffic.start + SimDuration::from_secs(probe_rng.uniform_int(0, 600)),
                Ev::SessionArrival,
            );
        }
        queue.schedule(span.start + SimDuration::from_hours(1), Ev::NatSweep);
        queue.schedule(
            span.start + SimDuration::from_mins(probe_rng.uniform_int(5, 65)),
            Ev::LatencyProbe,
        );
        // CGN studies: a periodic STUN-style NAT-type probe (first one a
        // random 1–12 h into the span, then every 12 h) plus this home's
        // scheduled hole-punch trials. The stream is private to the CGN
        // experiments and draws nothing unless a scenario is armed, so a
        // CGN-free run stays byte-identical.
        let mut rng_cgn = root.derive("cgn-probe");
        if let Some(plan) = params.cgn {
            queue.schedule(
                span.start + SimDuration::from_mins(rng_cgn.uniform_int(60, 12 * 60)),
                Ev::NatProbe,
            );
            for (idx, p) in plan.punches.iter().enumerate() {
                queue.schedule(p.at, Ev::PunchTrial { idx: idx as u32 });
            }
        }

        // Store-and-forward uploads: accumulate small batches and flush on
        // a 6-hour cadence (staggered per home) instead of waiting for the
        // big direct-flush threshold.
        let upload_config = UploaderConfig::default();
        let upload_queue = params.reliable_upload.then(|| Uploader::new(upload_config));
        let mut rng_upload = root.derive("upload");
        if params.reliable_upload {
            queue.schedule(
                span.start + SimDuration::from_mins(rng_upload.uniform_int(30, 361)),
                Ev::UploadFlush,
            );
        }
        let device_state = cfg
            .devices
            .iter()
            .map(|_| DeviceState { online: false, band: None })
            .collect();
        let gateway = Gateway::new(router, cfg.wan_addr);
        let wireless_cap_bps = gateway.radio_24.per_station_throughput_bps(&cfg.neighborhood, 1);

        HomeSim {
            cfg,
            universe: params.universe,
            zone: params.zone,
            windows,
            gateway,
            monitor,
            flows: FlowScheduler::new(),
            wireless_cap_bps,
            up_link: Link::new(cfg.up_link),
            down_link: Link::new(cfg.down_link),
            wan: WanPath { transit_delay: cfg.wan_transit, loss_prob: cfg.heartbeat_loss_prob },
            queue,
            device_state,
            outages,
            boot_epoch: 0,
            traffic_next: None,
            traffic_plan: 0,
            traffic_events: 0,
            heartbeat_events: 0,
            uploader_active: false,
            dns_id: 1,
            ephemeral_port: 20_000,
            upload_queue,
            wan_faults: params
                .faults
                .map(|f| f.wan.clone())
                .unwrap_or_else(ImpairmentSchedule::none),
            clock_skew: params.faults.and_then(|f| f.clock_skew),
            cgn_plan: params.cgn,
            cgn_hop: params
                .cgn
                .and_then(|p| p.assignment.as_ref())
                .map(|a| CgnHop::new(a.behavior, a.leases.clone())),
            retry_scheduled: false,
            rng_heartbeat: root.derive("heartbeat"),
            rng_scan: root.derive("scan"),
            rng_presence: root.derive("presence"),
            rng_session: root.derive("session"),
            rng_probe: probe_rng,
            rng_upload,
            // Heartbeats, most of all records, never enter `out`, so one
            // upload batch is the right start in both modes; the rare
            // home that needs more grows it.
            out: Vec::with_capacity(upload_config.batch_records),
            heartbeat_stamps: Vec::new(),
            dns_wire_buf: Vec::with_capacity(128),
            metrics: HomeMetrics {
                world: simnet::metrics::WorldMetrics::handles(),
                flows: netstack::metrics::FlowMetrics::handles(),
                fw: firmware::metrics::FirmwareMetrics::handles(),
                heartbeats_emitted: 0,
                cgn: CgnLocal::default(),
            },
        }
    }

    fn is_isp_up(&self, t: SimTime) -> bool {
        // Outages are sorted and disjoint.
        match self.outages.partition_point(|iv| iv.end <= t) {
            idx if idx < self.outages.len() => !self.outages[idx].contains(t),
            _ => true,
        }
    }

    /// Queue a non-traffic event. Each lands more than 1 s after `now`: a
    /// traffic second at the same instant used to be queued exactly 1 s
    /// ahead, after it, and `on_traffic` re-queues itself behind every
    /// event pending at its instant to keep that order.
    fn schedule(&mut self, now: SimTime, at: SimTime, ev: Ev) {
        debug_assert!(
            at > now + SECOND && !matches!(ev, Ev::Traffic { .. }),
            "{ev:?} at {at} is not a non-traffic event more than 1 s after {now}"
        );
        self.queue.schedule(at, ev);
    }

    /// Is the record buffer due for a flush? On the direct path a
    /// buffered heartbeat stamp counts toward the threshold as the
    /// heartbeat record it replaces did, which keeps flush and spill-seal
    /// points fixed. Uploader batches never carry heartbeats, so there
    /// stamps do not count.
    fn flush_due(&self) -> bool {
        match &self.upload_queue {
            None => self.out.len() + self.heartbeat_stamps.len() >= FLUSH_THRESHOLD,
            Some(up) => self.out.len() >= up.config().batch_records,
        }
    }

    fn flush(&mut self, now: SimTime, shard: &collector::ShardHandle<'_>) {
        shard.ingest_heartbeats(self.gateway.id, &mut self.heartbeat_stamps);
        match self.upload_queue.is_some() {
            // Drain rather than hand off: the buffer keeps its capacity, so
            // the whole run reuses one allocation for record batching.
            false => shard.ingest_drain(&mut self.out),
            // Fault mode: seal the buffer into a sequence-numbered batch
            // and try to push the spool through the (possibly impaired)
            // WAN path.
            true => {
                self.upload_queue.as_mut().expect("checked").seal(&mut self.out);
                self.pump(now, shard);
            }
        }
    }

    /// Push a router-stamped record, applying any injected clock skew: a
    /// drifting gateway stamps everything it records ahead by the skew
    /// offset while the window is active. Heartbeats never come through
    /// here — the collector stamps those on arrival, which is exactly why
    /// the paper's availability analyses trust them over router logs.
    fn emit(&mut self, now: SimTime, mut rec: Record) {
        if let Some(sk) = self.clock_skew {
            if sk.window.contains(now) {
                rec.shift_time(sk.offset);
            }
        }
        self.out.push(rec);
    }

    /// Apply clock skew to records appended since `from` (the bulk variant
    /// of [`Self::emit`] for traffic-monitor drains).
    fn apply_skew_from(&mut self, now: SimTime, from: usize) {
        if let Some(sk) = self.clock_skew {
            if sk.window.contains(now) {
                for rec in &mut self.out[from..] {
                    rec.shift_time(sk.offset);
                }
            }
        }
    }

    /// Try to deliver spooled batches until the spool drains or an attempt
    /// fails — lost on the impaired WAN path, or nacked by a down
    /// collector — in which case one retry is scheduled with the
    /// uploader's exponential backoff.
    fn pump(&mut self, now: SimTime, shard: &collector::ShardHandle<'_>) {
        let router = self.gateway.id;
        loop {
            match self.upload_queue.as_ref() {
                Some(up) if up.spool_len() > 0 => {}
                _ => return,
            }
            // The batch crosses the impaired WAN path first (an empty
            // schedule never draws from the RNG).
            let fate = self.wan_faults.transmit(now, &mut self.rng_upload);
            let up = self.upload_queue.as_mut().expect("spool checked above");
            let delivered = match fate {
                None => false, // lost on the wire
                Some(extra) => {
                    let a = up.attempt().expect("spool checked above");
                    shard
                        .ingest_upload(now + extra, router, a.seq, a.attempt, a.gaps, a.records)
                        .is_ack()
                }
            };
            let up = self.upload_queue.as_mut().expect("spool checked above");
            if delivered {
                up.ack_front();
            } else {
                let delay = up.fail_front(&mut self.rng_upload);
                self.metrics.fw.record_backoff(delay);
                self.schedule_retry(now, now + delay);
                return;
            }
        }
    }

    fn schedule_retry(&mut self, now: SimTime, at: SimTime) {
        if !self.retry_scheduled {
            self.retry_scheduled = true;
            self.schedule(now, at, Ev::UploadRetry { epoch: self.boot_epoch });
        }
    }

    fn on_upload_retry(&mut self, now: SimTime, epoch: u32, shard: &collector::ShardHandle<'_>) {
        if epoch != self.boot_epoch {
            return; // stale: the reboot cleared the flag and power-on re-pumps
        }
        self.retry_scheduled = false;
        if self.gateway.is_powered() {
            self.pump(now, shard);
        }
    }

    fn on_upload_flush(&mut self, now: SimTime, shard: &collector::ShardHandle<'_>) {
        if self.gateway.is_powered() {
            self.flush(now, shard);
        }
        let next = now + SimDuration::from_hours(6);
        if next < self.windows.span.end {
            self.schedule(now, next, Ev::UploadFlush);
        }
    }

    /// The study is over: seal the remainder (plus a carrier batch for any
    /// still-undelivered gap declarations) and drain the spool. Scenario
    /// fault windows end inside the span, so the path is clear by now; if
    /// the collector still announces downtime, its nack says when to retry.
    fn final_drain(&mut self, end: SimTime, shard: &collector::ShardHandle<'_>) {
        let router = self.gateway.id;
        shard.ingest_heartbeats(router, &mut self.heartbeat_stamps);
        let up = self.upload_queue.as_mut().expect("final_drain runs in fault mode only");
        up.seal(&mut self.out);
        up.seal_gap_carrier();
        let mut at = self.wan_faults.next_clear(end);
        loop {
            let up = self.upload_queue.as_mut().expect("fault mode");
            let Some(a) = up.attempt() else { break };
            match shard.ingest_upload(at, router, a.seq, a.attempt, a.gaps, a.records) {
                // A downtime window is half-open, so its end is strictly
                // after `at`: the loop always advances and terminates.
                UploadOutcome::Down { retry_at } => at = retry_at,
                _ => up.ack_front(),
            }
        }
    }

    /// Run to the end of the span, uploading records to `collector`.
    ///
    /// All of this home's records belong to one router, so the upload path
    /// grabs that router's shard handle once and every flush is a single
    /// uncontended lock — parallel homes never serialize on ingestion.
    pub fn run(mut self, collector: &Collector) {
        let end = self.windows.span.end;
        self.run_until(end, collector);
        self.finish(collector);
    }

    /// Advance the simulation, processing every event before `until` and
    /// uploading as usual, then return with all later events still queued.
    /// The event sequence is untouched by where the cuts fall: popping the
    /// queue in segments yields exactly the pops one uninterrupted [`run`]
    /// loop would make, so a streamed home is record-identical to a batch
    /// one. Call [`Self::finish`] after the last segment.
    ///
    /// A heartbeat event sends every heartbeat minute before both the
    /// next pending event and `until` in one go, with the flush check
    /// after each, and queues the minute after the last one sent: the
    /// records, flush points and same-instant order are those of one
    /// event per minute.
    ///
    /// [`run`]: Self::run
    pub fn run_until(&mut self, until: SimTime, collector: &Collector) {
        let shard = collector.shard_handle(self.gateway.id);
        while let Some((now, ev)) = self.queue.pop_if_before(until) {
            self.handle(now, ev, until, &shard);
            if self.flush_due() {
                self.flush(now, &shard);
            }
        }
        // Every heartbeat delivered before the cut reaches the collector
        // before it is drained at the cut.
        shard.ingest_heartbeats(self.gateway.id, &mut self.heartbeat_stamps);
    }

    /// End-of-study epilogue: tear down live flows so their records are
    /// emitted, drain the monitor and the upload spool, and publish this
    /// home's metrics. Consumes the simulation.
    pub fn finish(mut self, collector: &Collector) {
        let shard = collector.shard_handle(self.gateway.id);
        let end = self.windows.span.end;
        self.abort_flows(end);
        if let Some(monitor) = self.monitor.as_mut() {
            monitor.finalize(end);
            monitor.drain_into(&mut self.out);
        }
        match self.upload_queue.is_some() {
            false => self.flush(end, &shard),
            true => self.final_drain(end, &shard),
        }
        self.publish_metrics();
    }

    /// Fold this home's lifetime counts into the global `obs` registry —
    /// one batch of relaxed atomic adds per home, after the last record is
    /// uploaded, so the hot path never touches shared cache lines and the
    /// totals are identical whatever order homes finish in.
    fn publish_metrics(&self) {
        let m = &self.metrics;
        m.fw.add_heartbeats(m.heartbeats_emitted);
        if let Some(up) = &self.upload_queue {
            m.fw.publish_uploader(&up.stats());
        }
        m.world.publish_link(&self.up_link.stats());
        m.world.publish_link(&self.down_link.stats());
        m.world.publish_nat(&self.gateway.nat);
        m.world.publish_dhcp(&self.gateway.dhcp);
        m.flows.publish_scheduler(&self.flows);
        // CGN counters exist only when a scenario is armed, so the metrics
        // key set of a CGN-free run is unchanged. Every armed home
        // registers the full set (hop counters add zero when unfronted) —
        // the exported keys never depend on which homes were fronted.
        if self.cgn_plan.is_some() {
            obs::counter("cgn_probes_total").add(m.cgn.probes);
            obs::counter("cgn_probes_blocked_total").add(m.cgn.probes_blocked);
            obs::counter("cgn_punch_trials_total").add(m.cgn.punch_trials);
            obs::counter("cgn_punch_success_total").add(m.cgn.punch_success);
            obs::counter("cgn_session_blocked_total").add(m.cgn.session_blocked);
            let (mapped, evicted, blocked, flushed) =
                self.cgn_hop.as_ref().map_or((0, 0, 0, 0), |h| {
                    (h.mappings_created(), h.evictions(), h.blocked(), h.flushes())
                });
            obs::counter("cgn_hop_mappings_total").add(mapped);
            obs::counter("cgn_hop_evictions_total").add(evicted);
            obs::counter("cgn_hop_blocked_total").add(blocked);
            obs::counter("cgn_hop_flushes_total").add(flushed);
        }
    }

    /// Run the event `ev` popped at `now`, in a segment that ends at
    /// `until`.
    fn handle(&mut self, now: SimTime, ev: Ev, until: SimTime, shard: &collector::ShardHandle<'_>) {
        match ev {
            Ev::PowerOn => self.on_power_on(now, shard),
            Ev::PowerOff => self.on_power_off(now),
            Ev::Heartbeat { epoch } => self.on_heartbeats(now, epoch, until, shard),
            Ev::UptimeReport => self.on_uptime(now),
            Ev::CapacityProbe => self.on_capacity_probe(now),
            Ev::Census => self.on_census(now),
            Ev::ScanSlot => self.on_scan_slot(now),
            Ev::PresenceSlot => self.on_presence_slot(now),
            Ev::SessionArrival => self.on_session_arrival(now),
            Ev::Traffic { plan } => self.on_traffic(now, plan),
            Ev::Reassociate { device } => self.on_reassociate(now, device),
            Ev::NatSweep => {
                self.gateway.nat.expire(now);
                self.gateway.neighbors.expire(now);
                if let Some(hop) = self.cgn_hop.as_mut() {
                    hop.expire(now);
                }
                self.schedule(now, now + SimDuration::from_hours(1), Ev::NatSweep);
            }
            Ev::LatencyProbe => self.on_latency_probe(now),
            Ev::NatProbe => self.on_nat_probe(now),
            Ev::PunchTrial { idx } => self.on_punch_trial(now, idx),
            Ev::UploadRetry { epoch } => self.on_upload_retry(now, epoch, shard),
            Ev::UploadFlush => self.on_upload_flush(now, shard),
            Ev::FlashWipe => {
                if let Some(up) = self.upload_queue.as_mut() {
                    up.wipe(&mut self.out);
                }
            }
        }
    }

    fn on_power_on(&mut self, now: SimTime, shard: &collector::ShardHandle<'_>) {
        self.gateway.power_on(now);
        self.up_link.reset(now);
        self.down_link.reset(now);
        // Always-connected devices attach as soon as the router is up.
        for (idx, device) in self.cfg.devices.iter().enumerate() {
            if device.always_connected {
                self.device_state[idx].online = true;
                self.attach(idx, now);
            }
        }
        let first = now + SimDuration::from_secs(self.rng_heartbeat.uniform_int(5, 65));
        self.schedule(now, first, Ev::Heartbeat { epoch: self.boot_epoch });
        // Anything spooled from before the outage uploads at boot (any
        // in-flight retry from the previous boot was invalidated by the
        // epoch bump, so this is the path that resumes delivery).
        if self.upload_queue.as_ref().is_some_and(Uploader::has_backlog) {
            self.pump(now, shard);
        }
    }

    fn on_power_off(&mut self, now: SimTime) {
        self.abort_flows(now);
        self.gateway.power_off(now);
        self.boot_epoch += 1;
        self.retry_scheduled = false;
        for state in &mut self.device_state {
            state.online = false;
            state.band = None;
        }
    }

    fn abort_flows(&mut self, now: SimTime) {
        self.settle_traffic(now);
        for flow in self.flows.abort_all() {
            if let Some(monitor) = self.monitor.as_mut() {
                monitor.on_flow_end(now, flow.id);
            }
        }
        self.uploader_active = false;
        // The chain lives on to its first second at or after `now`, outage
        // or not, and a flow started by then joins its lattice. The planned
        // event is stale.
        self.traffic_next = self
            .traffic_next
            .filter(|&next| next >= now)
            .map(|next| next - SECOND * next.since(now).as_secs());
        self.traffic_plan += 1;
    }

    /// Heartbeat events popped so far, stale ones included: one per run of
    /// minutes, where there used to be one per minute.
    pub fn heartbeat_events(&self) -> u64 {
        self.heartbeat_events
    }

    /// A live heartbeat event sends a run: its own minute's heartbeat and
    /// every later one on its lattice that falls before both the next
    /// pending event and `until`, then queues one event at the minute
    /// after the last one sent. Nothing else pops inside the run, and
    /// every event pending at its end was queued before a per-minute
    /// event due there would have been, so same-instant ties resolve as
    /// if each minute were an event of its own. The flush check still
    /// follows every heartbeat; a flush ends the run, after the next
    /// minute's event is queued, because an upload retry it schedules may
    /// fall inside the run.
    fn on_heartbeats(
        &mut self,
        now: SimTime,
        epoch: u32,
        until: SimTime,
        shard: &collector::ShardHandle<'_>,
    ) {
        self.heartbeat_events += 1;
        if !self.gateway.is_powered() || epoch != self.boot_epoch {
            return; // stale event from a previous boot
        }
        let bound = self.queue.peek_time().map_or(until, |next| next.min(until));
        // A cursor at the first ISP outage not over by the current minute.
        let mut outage = self.outages.partition_point(|iv| iv.end <= now);
        let mut at = now;
        loop {
            let hb = Heartbeat { router: self.gateway.id, seq: self.gateway.heartbeat_seq };
            self.gateway.heartbeat_seq += 1;
            self.metrics.heartbeats_emitted += 1;
            while self.outages.get(outage).is_some_and(|iv| iv.end <= at) {
                outage += 1;
            }
            // The packet crosses the uplink (it can be queued behind a
            // latency probe, or dropped if the queue is full), then the
            // WAN path, where congestion loss applies; it only arrives if
            // the ISP link is up and it survives. The wire image is built
            // and parsed on a stack buffer only for packets that actually
            // arrive — emission is pure, so skipping it for lost packets
            // changes nothing. An arrival is buffered as its
            // collector-side stamp.
            if self.outages.get(outage).is_none_or(|iv| !iv.contains(at)) {
                if let TxOutcome::Delivered { at: landed } =
                    self.up_link.transmit(at, Heartbeat::wire_len())
                {
                    if self.wan.survives(&mut self.rng_heartbeat) {
                        let mut wire = [0u8; Heartbeat::WIRE_LEN];
                        hb.emit_into(self.cfg.wan_addr, &mut wire);
                        // Collector-side parse: only validated packets count.
                        if let Ok((parsed, _)) = Heartbeat::parse(&wire) {
                            debug_assert_eq!(parsed.router, self.gateway.id);
                            self.heartbeat_stamps.push(landed + self.wan.transit_delay);
                        }
                    }
                }
            }
            let next = at + MINUTE;
            let flush = self.flush_due();
            if flush || next >= bound {
                self.schedule(at, next, Ev::Heartbeat { epoch });
                if flush {
                    self.flush(at, shard);
                }
                return;
            }
            at = next;
        }
    }

    fn on_uptime(&mut self, now: SimTime) {
        if self.windows.uptime.contains(now) && self.gateway.is_powered() && self.is_isp_up(now)
        {
            let rec = Record::Uptime(self.gateway.uptime_report(now));
            self.emit(now, rec);
        }
        let next = now + SimDuration::from_hours(12);
        if next < self.windows.span.end {
            self.schedule(now, next, Ev::UptimeReport);
        }
    }

    fn on_capacity_probe(&mut self, now: SimTime) {
        if self.windows.capacity.contains(now) && self.gateway.is_powered() && self.is_isp_up(now)
        {
            // The probe train shares the bottleneck with whatever bulk
            // cross-traffic is active: with n backlogged flows competing,
            // the train's fair share — and therefore its dispersion-implied
            // rate — drops to capacity/(n+1). This is why the Fig 16
            // uploader's *measured* capacity sits well below the rate his
            // LAN-side utilization counters reach.
            self.settle_traffic(now);
            let backlogged_up = self
                .flows
                .active()
                .iter()
                .filter(|f| f.rate_cap_up_bps.is_none() && f.remaining_up > 0)
                .count() as u64;
            let backlogged_down = self
                .flows
                .active()
                .iter()
                .filter(|f| f.rate_cap_bps.is_none() && f.remaining_down > 0)
                .count() as u64;
            let shared = |cfg: &simnet::link::LinkConfig, n: u64| -> Link {
                let mut scaled = *cfg;
                scaled.rate_bps = cfg.rate_bps / (n + 1);
                scaled.peak_bps = cfg.peak_bps / (n + 1);
                Link::new(scaled)
            };
            let mut up = shared(self.up_link.config(), backlogged_up);
            let mut down = shared(self.down_link.config(), backlogged_down);
            let up_est = shaperprobe::probe_link(&mut up, now, &mut self.rng_probe);
            let down_est = shaperprobe::probe_link(&mut down, now, &mut self.rng_probe);
            if let (Some(up_est), Some(down_est)) = (up_est, down_est) {
                self.emit(
                    now,
                    Record::Capacity(CapacityRecord {
                        router: self.gateway.id,
                        at: now,
                        down_bps: down_est.bps,
                        up_bps: up_est.bps,
                        shaping_detected: up_est.shaping_detected || down_est.shaping_detected,
                    }),
                );
            }
        }
        let next = now + SimDuration::from_hours(12);
        if next < self.windows.span.end {
            self.schedule(now, next, Ev::CapacityProbe);
        }
    }

    fn on_latency_probe(&mut self, now: SimTime) {
        if self.gateway.is_powered() && self.is_isp_up(now) {
            // Probe through the *live* uplink: pings queue behind whatever
            // bulk traffic has the CPE buffer, so loaded RTT shows the
            // bufferbloat the paper blames for §6.2's pathologies.
            if let Some(record) = firmware::latency::probe_latency(
                self.gateway.id,
                now,
                &mut self.up_link,
                &self.wan,
                &mut self.rng_probe,
            ) {
                self.emit(now, Record::Latency(record));
            }
        }
        let next = now + SimDuration::from_hours(1);
        if next < self.windows.span.end {
            self.schedule(now, next, Ev::LatencyProbe);
        }
    }

    /// The gateway's STUN-style NAT-type experiment (RFC 3489 Tests 1–3
    /// against two simulated servers), run through the *live* translation
    /// chain — home NAT plus the CGN hop when fronted — so the classified
    /// type and the CGN tell (mapped address ≠ WAN address) are mechanical
    /// facts of real state, never labels copied from the plan.
    fn on_nat_probe(&mut self, now: SimTime) {
        if self.gateway.is_powered() && self.is_isp_up(now) {
            let local = Endpoint::new(std::net::Ipv4Addr::new(192, 168, 1, 1), 54_320);
            let outcome = {
                let mut chain = NatChain::new(&mut self.gateway.nat, self.cgn_hop.as_mut());
                natprobe::classify(&mut chain, now, local, &STUN_SERVERS)
            };
            match outcome {
                Some(out) => {
                    self.metrics.cgn.probes += 1;
                    let rec = NatProbeRecord {
                        router: self.gateway.id,
                        at: now,
                        nat_type: out.nat_type,
                        mapped_ip_hash: natprobe::ip_hash(out.mapped.addr),
                        mapped_port: out.mapped.port,
                        cgn_detected: out.mapped.addr != self.cfg.wan_addr,
                    };
                    self.emit(now, Record::NatProbe(rec));
                }
                // The CGN hop refused the binding (no leased port block):
                // the probe packets never left the access network.
                None => self.metrics.cgn.probes_blocked += 1,
            }
        }
        let next = now + SimDuration::from_hours(12);
        if next < self.windows.span.end {
            self.schedule(now, next, Ev::NatProbe);
        }
    }

    /// One scheduled hole-punch trial: classify the local side live, build
    /// the synthetic peer stack the plan prescribes, and run the
    /// simultaneous-open mechanics through both translation paths.
    fn on_punch_trial(&mut self, now: SimTime, idx: u32) {
        let Some(plan) = self.cgn_plan else { return };
        let trial = &plan.punches[idx as usize];
        if !self.gateway.is_powered() || !self.is_isp_up(now) {
            return;
        }
        let local = Endpoint::new(std::net::Ipv4Addr::new(192, 168, 1, 1), 54_320);
        let introducer = Endpoint::new(STUN_SERVERS.primary, STUN_SERVERS.port);
        let mut peer = SyntheticPeer::new(trial.peer_behavior);
        let peer_local = peer.local;
        let result = {
            let mut chain = NatChain::new(&mut self.gateway.nat, self.cgn_hop.as_mut());
            let local_type =
                natprobe::classify(&mut chain, now, local, &STUN_SERVERS).map(|o| o.nat_type);
            local_type.and_then(|lt| {
                let mut peer_path = peer.path();
                run_trial(now, &mut chain, local, &mut peer_path, peer_local, introducer)
                    .map(|success| (lt, success))
            })
        };
        match result {
            Some((local_type, success)) => {
                self.metrics.cgn.punch_trials += 1;
                if success {
                    self.metrics.cgn.punch_success += 1;
                }
                let peer_type = trial.peer_behavior.map_or(NatType::FullCone, |b| b.nat_type());
                let rec = PunchTrialRecord {
                    router: self.gateway.id,
                    at: now,
                    peer: trial.peer,
                    local_type,
                    peer_type,
                    success,
                };
                self.emit(now, Record::PunchTrial(rec));
            }
            // The local chain could not even rendezvous (no leased block):
            // the trial is a blocked probe, not a punch failure.
            None => self.metrics.cgn.probes_blocked += 1,
        }
    }

    fn on_census(&mut self, now: SimTime) {
        if self.windows.devices.contains(now) && self.gateway.is_powered() && self.is_isp_up(now)
        {
            let census = Record::DeviceCensus(self.gateway.census(now));
            self.emit(now, census);
            // Per-device association reports with anonymized MACs.
            let reports = self.out.len();
            let anonymizer = Anonymizer::new(
                DetRng::new(self.rng_presence.seed()).derive("assoc-key").seed(),
                [],
            );
            for (idx, device) in self.cfg.devices.iter().enumerate() {
                if !self.gateway.is_connected(device.mac) {
                    continue;
                }
                let medium = match (device.attachment, self.device_state[idx].band) {
                    (Attachment::Wired, _) => Medium::Wired,
                    (_, Some(Band::Ghz5)) => Medium::Wireless5,
                    _ => Medium::Wireless24,
                };
                self.emit(
                    now,
                    Record::Association(AssociationRecord {
                        router: self.gateway.id,
                        at: now,
                        device: anonymizer.mac(device.mac),
                        medium,
                    }),
                );
            }
            // Leave in the association table's key order, (at, device,
            // medium), so a drain need not re-sort the router's rows. A
            // stable sort of a slice this short allocates nothing.
            self.out[reports..].sort_by_key(|r| match r {
                Record::Association(a) => Some((a.device, a.medium)),
                _ => None,
            });
        }
        let next = now + SimDuration::from_hours(1);
        if next < self.windows.devices.end {
            self.schedule(now, next, Ev::Census);
        }
    }

    fn on_scan_slot(&mut self, now: SimTime) {
        if self.windows.wifi.contains(now) && self.gateway.is_powered() {
            let anonymizer = Anonymizer::new(0xB155_CAFE, []);
            for band in Band::ALL {
                if let Some((record, dropped)) = self.gateway.run_scan_slot(
                    now,
                    band,
                    &self.cfg.neighborhood,
                    &anonymizer,
                    &mut self.rng_scan,
                ) {
                    self.emit(now, Record::WifiScan(record));
                    // Knocked-off stations reassociate shortly.
                    for mac in dropped {
                        if let Some(idx) =
                            self.cfg.devices.iter().position(|d| d.mac == mac)
                        {
                            let delay =
                                SimDuration::from_secs(self.rng_scan.uniform_int(20, 180));
                            self.schedule(now, now + delay, Ev::Reassociate { device: idx });
                        }
                    }
                }
            }
        }
        let next = now + SimDuration::from_mins(firmware::gateway::SCAN_INTERVAL_MINS);
        if next < self.windows.wifi.end {
            self.schedule(now, next, Ev::ScanSlot);
        }
    }

    fn on_reassociate(&mut self, now: SimTime, device: usize) {
        if !self.gateway.is_powered() || !self.device_state[device].online {
            return;
        }
        self.attach(device, now);
    }

    /// Attach an online device to the gateway on its medium. The device
    /// DHCPs on join and announces itself with a gratuitous ARP, which the
    /// gateway's neighbor table learns.
    fn attach(&mut self, idx: usize, now: SimTime) {
        let device = &self.cfg.devices[idx];
        match device.attachment {
            Attachment::Wired => {
                self.gateway.connect_wired(device.mac);
            }
            Attachment::Wireless { dual_band } => {
                let band = *self.device_state[idx].band.get_or_insert_with(|| {
                    if dual_band && self.rng_presence.chance(0.75) {
                        Band::Ghz5
                    } else {
                        Band::Ghz24
                    }
                });
                self.gateway.associate(band, device.mac);
            }
        }
        let mac = self.cfg.devices[idx].mac;
        if let Ok(addr) = self.gateway.dhcp.request(now, mac) {
            self.gateway.observe_gratuitous_arp(now, mac, addr);
        }
    }

    fn detach(&mut self, idx: usize) {
        let device = &self.cfg.devices[idx];
        match device.attachment {
            Attachment::Wired => self.gateway.disconnect_wired(device.mac),
            Attachment::Wireless { .. } => self.gateway.disassociate(device.mac),
        }
        self.device_state[idx].band = None;
    }

    fn on_presence_slot(&mut self, now: SimTime) {
        if self.gateway.is_powered() {
            let activity = self
                .cfg
                .diurnal
                .activity(now, self.cfg.availability.utc_offset_hours)
                .min(1.3);
            let presence_factor = self.cfg.country.environment().presence_factor;
            for idx in 0..self.cfg.devices.len() {
                let device = &self.cfg.devices[idx];
                if device.always_connected {
                    if !self.device_state[idx].online {
                        self.device_state[idx].online = true;
                    }
                    if !self.gateway.is_connected(device.mac) {
                        self.attach(idx, now);
                    }
                    continue;
                }
                let p_on = (device.presence_propensity() * activity * presence_factor)
                    .clamp(0.02, 0.95);
                let state = self.device_state[idx];
                // A sluggish two-state chain: transitions are damped so
                // devices stay online/offline for hours, not minutes.
                if state.online {
                    if self.rng_presence.chance(0.30 * (1.0 - p_on)) {
                        self.device_state[idx].online = false;
                        self.detach(idx);
                    }
                } else if self.rng_presence.chance(0.30 * p_on) {
                    self.device_state[idx].online = true;
                    self.attach(idx, now);
                }
            }
        }
        self.schedule(now, now + SimDuration::from_mins(10), Ev::PresenceSlot);
    }

    fn ephemeral(&mut self) -> u16 {
        self.ephemeral_port = if self.ephemeral_port >= 60_000 {
            20_000
        } else {
            self.ephemeral_port + 1
        };
        self.ephemeral_port
    }

    fn on_session_arrival(&mut self, now: SimTime) {
        // Schedule the next arrival first (non-homogeneous Poisson via
        // per-arrival rate re-evaluation).
        let activity = self
            .cfg
            .diurnal
            .activity(now, self.cfg.availability.utc_offset_hours)
            .max(0.05);
        let rate_per_hour = self.cfg.session_rate_per_hour * activity;
        let mean_gap_secs = 3_600.0 / rate_per_hour;
        let gap = SimDuration::from_secs_f64(
            self.rng_session.exp(mean_gap_secs).clamp(2.0, 4.0 * 3_600.0),
        );
        let next = now + gap;
        if next < self.windows.traffic.end {
            self.schedule(now, next, Ev::SessionArrival);
        }
        if !self.gateway.is_powered()
            || !self.is_isp_up(now)
            || !self.windows.traffic.contains(now)
        {
            return;
        }
        // The scientific uploader keeps a permanent bulk upload alive.
        if self.cfg.quirk == Some(Quirk::ScientificUploader) && !self.uploader_active {
            self.start_uploader_flow(now);
        }
        // Pick an online device by usage weight.
        let online: Vec<usize> = (0..self.cfg.devices.len())
            .filter(|&i| self.device_state[i].online)
            .collect();
        if online.is_empty() {
            return;
        }
        let weights: Vec<f64> =
            online.iter().map(|&i| self.cfg.devices[i].usage_weight.max(1e-4)).collect();
        let idx = online[self.rng_session.weighted_index(&weights)];
        let device = &self.cfg.devices[idx];
        // Pick the app class from the device's mix.
        let mix = device.app_mix();
        let mix_weights: Vec<f64> = mix.iter().map(|(_, w)| *w).collect();
        let kind = mix[self.rng_session.weighted_index(&mix_weights)].0;
        let profile = netstack::sample_session(kind, &mut self.rng_session);
        // Cloud-sync clients of the era auto-throttled uploads to ~70% of
        // the available uplink (Dropbox's "limit automatically" default),
        // so they rarely saturate the CPE queue.
        let up_cap = if kind == AppKind::CloudSync {
            let throttle = self.cfg.up_link.rate_bps * 7 / 10;
            Some(profile.rate_cap_up_bps.map_or(throttle, |c| c.min(throttle)))
        } else {
            profile.rate_cap_up_bps
        };
        self.start_flow(
            now,
            idx,
            kind,
            profile.bytes_down,
            profile.bytes_up,
            profile.rate_cap_bps,
            up_cap,
        );
    }

    fn start_uploader_flow(&mut self, now: SimTime) {
        // Fig 16a's household: an unbounded upstream transfer from the
        // dominant device. Fig 16b's variant only uploads in the evening.
        let evening_only = self.cfg.id.0 % 2 == 1;
        if evening_only {
            let local_hour = now
                .to_local(self.cfg.availability.utc_offset_hours)
                .hour_of_day_f64();
            if !(16.0..23.5).contains(&local_hour) {
                return;
            }
        }
        let bytes_up = if evening_only {
            4_000_000_000 // a nightly multi-gigabyte batch
        } else {
            u64::MAX / 4 // effectively endless
        };
        // Control traffic downstream is negligible (scp acks).
        self.start_flow(now, 0, AppKind::BulkUpload, 500_000, bytes_up, None, None);
        self.uploader_active = true;
    }

    #[allow(clippy::too_many_arguments)]
    fn start_flow(
        &mut self,
        now: SimTime,
        device_idx: usize,
        kind: AppKind,
        bytes_down: u64,
        bytes_up: u64,
        rate_cap_bps: Option<u64>,
        rate_cap_up_bps: Option<u64>,
    ) {
        // The monitor must have seen every earlier second before it sees
        // this start's DNS response.
        self.settle_traffic(now);
        let device: &Device = &self.cfg.devices[device_idx];
        // Resolve the destination through the gateway's resolver; the
        // monitor observes the response when it goes upstream.
        let domain_idx = self.cfg.taste(self.universe).pick_domain(kind, &mut self.rng_session);
        let info = self.universe.get(domain_idx);
        self.dns_id = self.dns_id.wrapping_add(1);
        let (response, upstream) =
            self.gateway
                .resolver
                .lookup(now, self.zone, self.dns_id, &info.name);
        let response = match response {
            Some(r) => r,
            None => return, // NXDOMAIN: nothing to connect to
        };
        let addr = match response.address() {
            Some(a) => a,
            None => return,
        };
        if upstream {
            // The response crosses the gateway as a real wire image; parse
            // it back as the capture path would. The scratch buffer is
            // reused across lookups, so steady state allocates nothing.
            self.dns_wire_buf.clear();
            response.emit_into(&mut self.dns_wire_buf);
            if let Ok(parsed) = simnet::dns::DnsResponse::parse(&self.dns_wire_buf) {
                if let Some(monitor) = self.monitor.as_mut() {
                    monitor.on_dns_response(now, device.mac, &parsed);
                }
            }
        }
        let lan_addr = match self.gateway.dhcp.request(now, device.mac) {
            Ok(a) => a,
            Err(_) => return, // pool exhausted: the device cannot connect
        };
        // Relayed traffic keeps the neighbor entry fresh.
        self.gateway.neighbors.refresh(now, lan_addr);
        let local = Endpoint::new(lan_addr, self.ephemeral());
        let remote = Endpoint::new(addr, kind.server_port());
        let five_tuple = simnet::packet::FiveTuple {
            proto: kind.protocol(),
            src: local,
            dst: remote,
        };
        let xlate = match self.gateway.nat.translate_outbound(now, five_tuple) {
            Ok(x) => x,
            Err(_) => return, // NAT exhausted
        };
        // CGN-fronted homes cross the carrier hop too: with no leased port
        // block (an exhaustion gap between leases) the session never
        // reaches the Internet.
        if let Some(hop) = self.cgn_hop.as_mut() {
            if hop.translate_outbound(now, xlate.wan_flow).is_err() {
                self.metrics.cgn.session_blocked += 1;
                return;
            }
        }
        if kind.protocol() == simnet::packet::IpProtocol::Tcp {
            // The connection opens with a real three-way handshake; the
            // gateway classifies the segments as they cross it (this is
            // what makes a "connection" in the Traffic data set a
            // mechanical fact rather than a label).
            let rtt = self.cfg.wan_transit * 2u64;
            let trace = netstack::handshake::open_connection(
                now,
                local,
                remote,
                rtt,
                &mut self.rng_session,
            );
            debug_assert_eq!(
                trace
                    .segments
                    .first()
                    .and_then(|(_, wire)| netstack::handshake::classify(wire).ok()),
                Some(netstack::handshake::SegmentKind::Syn),
                "a new connection must open with a SYN"
            );
        }
        let flow = Flow {
            id: self.flows.next_id(),
            device: device.mac,
            local,
            remote,
            domain: info.name.clone(),
            kind,
            started: now,
            remaining_down: bytes_down.max(1),
            remaining_up: bytes_up,
            rate_cap_bps,
            rate_cap_up_bps,
            saturated_ticks: 0,
        };
        if let Some(monitor) = self.monitor.as_mut() {
            monitor.on_flow_start(&flow);
        }
        self.flows.start(flow);
        // A chain whose next second is still to come takes the flow on (the
        // second at `now` itself runs after this event); otherwise a new
        // chain starts 1 s after this start.
        let next = match self.traffic_next {
            Some(next) if next >= now => next,
            _ => now + SECOND,
        };
        self.plan_traffic(next);
    }

    /// Traffic events popped so far, stale and re-queued ones included:
    /// one per rate epoch, where there used to be one per second of every
    /// live flow.
    pub fn traffic_events(&self) -> u64 {
        self.traffic_events
    }

    /// Start a rate epoch at the chain's lattice second `next`, skipping
    /// outage seconds first: they move nothing and leave every saturation
    /// count as it is. The epoch runs the flows' steady seconds, then its
    /// boundary second, or ends early at the last second before the ISP
    /// next goes down. Only the boundary gets an event; the steady seconds
    /// are applied in bulk by [`Self::settle_traffic`].
    fn plan_traffic(&mut self, next: SimTime) {
        let next = self.next_up_second(next);
        self.traffic_next = Some(next);
        self.traffic_plan += 1;
        let steady = self
            .flows
            .steady_seconds(
                self.cfg.down_link.rate_bps,
                self.cfg.up_link.rate_bps,
                Some(self.wireless_cap_bps),
                self.cfg.up_link.queue_limit_bytes,
            )
            .min(self.up_seconds_from(next) - 1);
        // A boundary at or past the end of the span never pops; `finish`
        // settles the chain up to the end.
        if steady < lattice_seconds(next, self.windows.span.end) {
            self.queue.schedule(next + SECOND * steady, Ev::Traffic { plan: self.traffic_plan });
        }
    }

    /// Apply every second of the chain's lattice strictly before `now`.
    /// They lie inside the current epoch, ahead of its boundary event (not
    /// yet popped, or popping at `now`) and clear of outages (the plan
    /// keeps them out of an epoch), so all are steady and move in one step.
    fn settle_traffic(&mut self, now: SimTime) {
        let Some(next) = self.traffic_next else { return };
        let seconds = lattice_seconds(next, now);
        if seconds == 0 || self.flows.active_count() == 0 {
            return;
        }
        debug_assert!(seconds < self.up_seconds_from(next), "an epoch crosses no outage");
        let outcome = self.flows.advance_steady(
            seconds,
            self.cfg.down_link.rate_bps,
            self.cfg.up_link.rate_bps,
            Some(self.wireless_cap_bps),
            self.cfg.up_link.queue_limit_bytes,
        );
        if let Some(monitor) = self.monitor.as_mut() {
            monitor.on_seconds(next.align_down(SECOND), seconds, outcome);
        }
        self.traffic_next = Some(next + SECOND * seconds);
    }

    /// The first second of `t`'s lattice, at or after `t`, with the ISP up.
    fn next_up_second(&self, mut t: SimTime) -> SimTime {
        // Outages are sorted and disjoint.
        while let Some(outage) = self.outages.get(self.outages.partition_point(|iv| iv.end <= t)) {
            if !outage.contains(t) {
                break;
            }
            t += SECOND * lattice_seconds(t, outage.end);
        }
        t
    }

    /// How many seconds of `t`'s lattice, from `t` (ISP up) on, pass before
    /// the first with the ISP down; `u64::MAX` if none does.
    fn up_seconds_from(&self, t: SimTime) -> u64 {
        self.outages[self.outages.partition_point(|iv| iv.end <= t)..]
            .iter()
            .find_map(|outage| {
                let up = lattice_seconds(t, outage.start);
                (t + SECOND * up < outage.end).then_some(up)
            })
            .unwrap_or(u64::MAX)
    }

    /// The boundary second of the current epoch: the seconds before it are
    /// settled, then it runs through the scheduler's one-second tick, where
    /// a direction runs dry, a flow completes or a saturation count passes
    /// its threshold. Then the next epoch is planned.
    fn on_traffic(&mut self, now: SimTime, plan: u32) {
        self.traffic_events += 1;
        if plan != self.traffic_plan {
            return; // stale: the chain was re-planned or cut off since
        }
        if self.queue.peek_time() == Some(now) {
            // Every other event at this instant runs first (see
            // `Self::schedule`).
            self.queue.schedule(now, Ev::Traffic { plan });
            return;
        }
        self.settle_traffic(now);
        debug_assert_eq!(self.traffic_next, Some(now));
        // Power-off aborts every flow and planning skips outage seconds.
        debug_assert!(self.gateway.is_powered() && self.is_isp_up(now));
        let outcome = self.flows.tick(
            self.cfg.down_link.rate_bps,
            self.cfg.up_link.rate_bps,
            Some(self.wireless_cap_bps),
            self.cfg.up_link.queue_limit_bytes,
        );
        let mut skew_from = None;
        if let Some(monitor) = self.monitor.as_mut() {
            monitor.on_seconds(now.align_down(SECOND), 1, outcome);
            for flow in &outcome.completed {
                monitor.on_flow_end(now, flow.id);
            }
            if !outcome.completed.is_empty() {
                skew_from = Some(self.out.len());
                monitor.drain_into(&mut self.out);
            }
        }
        if !outcome.completed.is_empty() {
            self.metrics.flows.record_completions(now, &outcome.completed);
        }
        if self.uploader_active
            && outcome.completed.iter().any(|f| f.kind == AppKind::BulkUpload)
        {
            self.uploader_active = false;
        }
        if let Some(from) = skew_from {
            self.apply_skew_from(now, from);
        }
        // The chain ends with its last flow.
        match self.flows.active_count() {
            0 => self.traffic_next = None,
            _ => self.plan_traffic(now + SECOND),
        }
    }
}

/// Seconds of `from`'s one-second lattice in `[from, to)`.
fn lattice_seconds(from: SimTime, to: SimTime) -> u64 {
    to.saturating_since(from).as_micros().div_ceil(SECOND.as_micros())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyWindows;
    use collector::windows::Window;
    use household::Country;

    fn short_windows(days: u64) -> StudyWindows {
        StudyWindows::scaled(Window {
            start: SimTime::EPOCH,
            end: SimTime::EPOCH + SimDuration::from_days(days),
        })
    }

    fn run_home(country: Country, consent_override: Option<bool>, days: u64) -> collector::Datasets {
        let universe = DomainUniverse::standard();
        let zone = universe.build_zone();
        let windows = short_windows(days);
        let root = DetRng::new(99);
        let mut cfg =
            HomeConfig::sample(household::HomeId(1), country, &root.derive("h"), &universe);
        if let Some(consent) = consent_override {
            cfg.traffic_consent = consent;
        }
        let collector = Collector::new();
        collector.register(collector::RouterMeta {
            router: RouterId(1),
            country,
            traffic_consent: cfg.traffic_consent,
        });
        let sim = HomeSim::new(SimParams {
            cfg: &cfg,
            universe: &universe,
            zone: &zone,
            windows: &windows,
            seed: 42,
            reliable_upload: false,
            faults: None,
            cgn: None,
        });
        sim.run(&collector);
        collector.drain_delta()
    }

    /// A consenting US home whose devices are always connected, so any of
    /// them can open a flow. Its own sessions arrive only in the span's
    /// last hour, so until then a test drives its flows alone.
    fn quiet_home() -> (DomainUniverse, ZoneDb, StudyWindows, HomeConfig) {
        let universe = DomainUniverse::standard();
        let zone = universe.build_zone();
        let mut windows = short_windows(1);
        windows.traffic.start = windows.span.end - SimDuration::from_hours(1);
        let root = DetRng::new(99);
        let mut cfg = HomeConfig::sample(
            household::HomeId(1),
            Country::UnitedStates,
            &root.derive("h"),
            &universe,
        );
        cfg.traffic_consent = true;
        for device in &mut cfg.devices {
            device.always_connected = true;
        }
        (universe, zone, windows, cfg)
    }

    /// When the test upload starts: ten minutes and a fraction of a second
    /// in, so its lattice is not the whole seconds'.
    fn t0() -> SimTime {
        SimTime::EPOCH + SimDuration::from_mins(10) + SimDuration::from_millis(300)
    }

    /// Run `test` on a quiet home that opens, at `t0()`, an upload from
    /// device 0: one byte down and `seconds` full seconds of bytes up at
    /// the link's rate, so that it completes on the boundary second
    /// `t0() + seconds`. `test` also gets the upload's bytes per second.
    fn with_upload<R>(
        seconds: u64,
        test: impl FnOnce(&mut HomeSim<'_>, &Collector, u64) -> R,
    ) -> R {
        let (universe, zone, windows, cfg) = quiet_home();
        let collector = Collector::new();
        collector.register(collector::RouterMeta {
            router: RouterId(1),
            country: Country::UnitedStates,
            traffic_consent: true,
        });
        let mut sim = HomeSim::new(SimParams {
            cfg: &cfg,
            universe: &universe,
            zone: &zone,
            windows: &windows,
            seed: 42,
            reliable_upload: false,
            faults: None,
            cgn: None,
        });
        sim.run_until(t0(), &collector);
        assert!(sim.gateway.is_powered(), "the home is up at t0");
        let per_second = cfg.up_link.rate_bps.min(sim.wireless_cap_bps) / 8;
        sim.start_flow(t0(), 0, AppKind::BulkUpload, 1, seconds * per_second, None, None);
        assert_eq!(sim.flows.active_count(), 1, "the upload started");
        test(&mut sim, &collector, per_second)
    }

    /// A completion count, the live flows' state and every record since
    /// `t0()`.
    type Aftermath = (u64, Vec<(u64, u64, u32)>, Vec<Record>);

    /// Queue `ev` at `at(done)`, where `done` is the boundary second on
    /// which a 50-second upload completes, once the epoch ending there is
    /// planned (so its event was queued first), and run 1.5 s past `done`.
    fn event_at_completion(ev: Ev, at: fn(SimTime) -> SimTime) -> Aftermath {
        with_upload(50, |sim, collector, _| {
            let done = t0() + SECOND * 50;
            sim.run_until(t0() + SECOND * 2, collector);
            sim.windows.capacity = sim.windows.span;
            sim.windows.traffic.start = t0();
            sim.queue.schedule(at(done), ev);
            let until = done + SimDuration::from_millis(1_500);
            sim.run_until(until, collector);
            sim.settle_traffic(until);
            let live = sim
                .flows
                .active()
                .iter()
                .map(|f| (f.remaining_down, f.remaining_up, f.saturated_ticks))
                .collect();
            let mut records = std::mem::take(&mut sim.out);
            sim.monitor.as_mut().expect("consenting home").drain_into(&mut records);
            (sim.flows.completed_total(), live, records)
        })
    }

    #[test]
    fn events_at_a_boundary_second_run_before_it() {
        let before: fn(SimTime) -> SimTime = |done| done - SimDuration::from_micros(1);
        let on: fn(SimTime) -> SimTime = |done| done;
        let after: fn(SimTime) -> SimTime = |done| done + SimDuration::from_micros(1);

        // A probe at the boundary still counts the completing upload as
        // backlogged, as one just before it does; one just after does not.
        let estimate = |when| {
            event_at_completion(Ev::CapacityProbe, when).2.iter().find_map(|r| match r {
                Record::Capacity(c) => Some((c.down_bps, c.up_bps)),
                _ => None,
            })
        };
        let probes = [before, on, after].map(estimate);
        assert!(probes[1].is_some(), "the probe ran");
        assert_eq!(probes[1], probes[0]);
        assert_ne!(probes[1], probes[2]);

        // A power-off at the boundary aborts the upload before its last
        // second: no completion, 49 seconds of bytes.
        let uploaded = |(completed, live, records): Aftermath| {
            assert!(live.is_empty());
            let up = records.iter().find_map(|r| match r {
                Record::Flow(f) => Some(f.bytes_up),
                _ => None,
            });
            (completed, up.expect("the upload's record"))
        };
        let cuts =
            [before, on, after].map(|when| uploaded(event_at_completion(Ev::PowerOff, when)));
        assert_eq!(cuts[1].0, 0, "an abort is not a completion");
        assert_eq!(cuts[1], cuts[0]);
        assert_eq!(cuts[2].0, 1);
        assert_eq!(cuts[1].1 * 50, cuts[2].1 * 49);

        // A session at the boundary joins the chain: its flow's first
        // second is the boundary itself, as for a session just before it.
        let sessions =
            [before, on, after].map(|when| event_at_completion(Ev::SessionArrival, when));
        assert_eq!(sessions[1].0, 1, "the upload still completes");
        assert_eq!(sessions[1].1.len(), 1, "the session opened a flow");
        assert_eq!(sessions[1].1, sessions[0].1);
        assert_ne!(sessions[1].1, sessions[2].1);
    }

    #[test]
    fn a_flow_started_within_a_second_of_an_abort_joins_the_old_lattice() {
        with_upload(1_000, |sim, collector, per_second| {
            let ms = SimDuration::from_millis;
            // Cut the power 20.4 s in and restore it 0.2 s later; a flow
            // started at 20.9 s ticks first at 21 s, on the old lattice.
            let abort = t0() + ms(20_400);
            sim.queue.schedule(abort, Ev::PowerOff);
            sim.queue.schedule(abort + ms(200), Ev::PowerOn);
            sim.run_until(abort + ms(500), collector);
            assert_eq!(sim.flows.active_count(), 0, "the power-off aborted the upload");
            let bytes = 1_000 * per_second;
            sim.start_flow(abort + ms(500), 0, AppKind::BulkUpload, 1, bytes, None, None);
            assert_eq!(sim.traffic_next, Some(t0() + SECOND * 21));
            // The same cut ten seconds later, but the flow starts 0.2 s
            // past the chain's next second: a chain of its own.
            let abort = abort + SECOND * 10;
            sim.queue.schedule(abort, Ev::PowerOff);
            sim.queue.schedule(abort + ms(200), Ev::PowerOn);
            sim.run_until(abort + ms(800), collector);
            assert_eq!(sim.flows.active_count(), 0);
            sim.start_flow(abort + ms(800), 0, AppKind::BulkUpload, 1, bytes, None, None);
            assert_eq!(sim.traffic_next, Some(abort + ms(800) + SECOND));
        });
    }

    #[test]
    fn outage_seconds_move_nothing_and_keep_the_lattice() {
        with_upload(10_000, |sim, collector, per_second| {
            let ms = SimDuration::from_millis;
            // The upload's seconds fall at t0 + n s; the ISP is down from
            // 100.5 s to 400.25 s, over seconds 101 to 400.
            let (down, up) = (t0() + ms(100_500), t0() + ms(400_250));
            sim.outages = vec![Interval::new(down, up)];
            sim.run_until(down, collector);
            let popped = sim.traffic_events();
            sim.run_until(up, collector);
            assert_eq!(sim.traffic_events(), popped, "no traffic event pops in the outage");
            let resumed = t0() + ms(405_500);
            sim.run_until(resumed, collector);
            sim.settle_traffic(resumed);
            assert_eq!(sim.traffic_next, Some(t0() + SECOND * 406), "back on the old lattice");
            let upload = &sim.flows.active()[0];
            // Seconds 1–100 and 401–405 moved bytes; the outage's did not,
            // nor did they count as saturated.
            assert_eq!(upload.remaining_up, (10_000 - 105) * per_second);
            assert_eq!(upload.saturated_ticks, 105);
        });
    }

    #[test]
    fn traffic_events_fall_tenfold_below_one_second_ticks() {
        // Home 18 as a scientific uploader over two days of capture: an
        // endless upload whose saturation passes its threshold, sessions
        // beside it, and an ISP outage under the live upload.
        let universe = DomainUniverse::standard();
        let zone = universe.build_zone();
        let mut windows = short_windows(2);
        windows.traffic = windows.span;
        let root = DetRng::new(99);
        let mut cfg = HomeConfig::sample(
            household::HomeId(18),
            Country::UnitedStates,
            &root.derive("h"),
            &universe,
        );
        cfg.traffic_consent = true;
        cfg.quirk = Some(Quirk::ScientificUploader);
        let collector = Collector::new();
        collector.register(collector::RouterMeta {
            router: RouterId(18),
            country: Country::UnitedStates,
            traffic_consent: true,
        });
        let mut sim = HomeSim::new(SimParams {
            cfg: &cfg,
            universe: &universe,
            zone: &zone,
            windows: &windows,
            seed: 42,
            reliable_upload: false,
            faults: None,
            cgn: None,
        });
        sim.run_until(windows.span.end, &collector);
        // Popped when every second of a live flow was an event of its own.
        const ONE_SECOND_TICKS: u64 = 172_698;
        let events = sim.traffic_events();
        assert!(events * 10 <= ONE_SECOND_TICKS, "{events} traffic events");
        assert_eq!(sim.outages.len(), 1);
        assert_eq!((sim.flows.started_total(), sim.flows.completed_total()), (5, 4));
        sim.finish(&collector);
        // The records those ticks produced.
        let data = collector.drain_delta();
        let flow_bytes: u64 = data.flows.iter().map(|f| f.bytes_down + f.bytes_up).sum();
        let upstream: u64 =
            data.packet_stats.iter().map(|p| p.bytes_up + p.pkts_up + p.peak_up_1s).sum();
        assert_eq!((data.flows.len(), data.packet_stats.len(), data.macs.len()), (5, 2_779, 4));
        assert_eq!((flow_bytes, upstream), (104_429_224_726, 131_013_991_977));
    }

    #[test]
    fn heartbeat_events_fall_fivefold_below_one_per_minute() {
        // A consenting US home over ten days: presence slots, scans,
        // censuses, probes and traffic epochs all end heartbeat runs.
        let universe = DomainUniverse::standard();
        let zone = universe.build_zone();
        let windows = short_windows(10);
        let mut cfg = HomeConfig::sample(
            household::HomeId(1),
            Country::UnitedStates,
            &DetRng::new(99).derive("h"),
            &universe,
        );
        cfg.traffic_consent = true;
        let collector = Collector::new();
        let mut sim = HomeSim::new(SimParams {
            cfg: &cfg,
            universe: &universe,
            zone: &zone,
            windows: &windows,
            seed: 42,
            reliable_upload: false,
            faults: None,
            cgn: None,
        });
        sim.run_until(windows.span.end, &collector);
        let (events, sent) = (sim.heartbeat_events(), sim.metrics.heartbeats_emitted);
        assert!(sent > 10_000, "{sent} heartbeats sent");
        assert!(events * 5 <= sent, "{events} heartbeat events for {sent} heartbeats");
    }

    #[test]
    fn us_home_produces_all_datasets() {
        let data = run_home(Country::UnitedStates, Some(true), 20);
        assert!(!data.heartbeats.is_empty(), "heartbeats missing");
        let log = &data.heartbeats[&RouterId(1)];
        assert!(log.total_heartbeats() > 10_000, "got {}", log.total_heartbeats());
        assert!(!data.uptime.is_empty(), "uptime missing");
        assert!(!data.capacity.is_empty(), "capacity missing");
        assert!(!data.devices.is_empty(), "census missing");
        assert!(!data.wifi.is_empty(), "wifi scans missing");
        assert!(!data.associations.is_empty(), "associations missing");
        assert!(!data.flows.is_empty(), "flows missing");
        assert!(!data.dns.is_empty(), "dns samples missing");
        assert!(!data.packet_stats.is_empty(), "packet stats missing");
    }

    #[test]
    fn non_consenting_home_has_no_traffic_records() {
        let data = run_home(Country::UnitedStates, Some(false), 10);
        assert!(data.flows.is_empty());
        assert!(data.dns.is_empty());
        assert!(data.packet_stats.is_empty());
        assert!(data.macs.is_empty());
        // But the consent-free sets are all there.
        assert!(!data.devices.is_empty());
        assert!(!data.wifi.is_empty());
    }

    #[test]
    fn always_on_us_home_has_high_coverage() {
        let data = run_home(Country::UnitedStates, Some(false), 20);
        let log = &data.heartbeats[&RouterId(1)];
        let w = Window {
            start: SimTime::EPOCH,
            end: SimTime::EPOCH + SimDuration::from_days(20),
        };
        let cov = log.coverage(w.start, w.end);
        assert!(cov > 0.9, "US coverage {cov}");
    }

    #[test]
    fn deterministic_across_runs() {
        let a = run_home(Country::UnitedStates, Some(true), 8);
        let b = run_home(Country::UnitedStates, Some(true), 8);
        assert_eq!(a.heartbeats[&RouterId(1)], b.heartbeats[&RouterId(1)]);
        assert_eq!(a.flows.len(), b.flows.len());
        assert_eq!(a.devices, b.devices);
        assert_eq!(a.capacity.len(), b.capacity.len());
        for (x, y) in a.capacity.iter().zip(&b.capacity) {
            assert_eq!(x.down_bps, y.down_bps);
        }
    }

    #[test]
    fn capacity_estimates_track_configured_link() {
        let data = run_home(Country::UnitedStates, Some(false), 20);
        let universe = DomainUniverse::standard();
        let root = DetRng::new(99);
        let cfg = HomeConfig::sample(
            household::HomeId(1),
            Country::UnitedStates,
            &root.derive("h"),
            &universe,
        );
        for rec in &data.capacity {
            let err = (rec.down_bps as f64 - cfg.down_link.rate_bps as f64).abs()
                / cfg.down_link.rate_bps as f64;
            assert!(err < 0.10, "estimate {} vs {}", rec.down_bps, cfg.down_link.rate_bps);
        }
    }

    #[test]
    fn a_census_emits_its_association_reports_in_key_order() {
        let universe = DomainUniverse::standard();
        let zone = universe.build_zone();
        let windows = short_windows(10);
        let mut cfg = HomeConfig::sample(
            household::HomeId(1),
            Country::UnitedStates,
            &DetRng::new(99).derive("h"),
            &universe,
        );
        cfg.traffic_consent = false;
        for device in &mut cfg.devices {
            device.always_connected = true;
        }
        let collector = Collector::new();
        let shard = collector.shard_handle(RouterId(1));
        let mut sim = HomeSim::new(SimParams {
            cfg: &cfg,
            universe: &universe,
            zone: &zone,
            windows: &windows,
            seed: 42,
            reliable_upload: false,
            faults: None,
            cgn: None,
        });
        // Drive the events by hand and read what each census appends.
        let (mut censuses, mut reports) = (0, 0);
        while let Some((now, ev)) = sim.queue.pop_if_before(windows.span.end) {
            let from = sim.out.len();
            let census = matches!(ev, Ev::Census);
            sim.handle(now, ev, windows.span.end, &shard);
            if census {
                let keys: Vec<_> = sim.out[from..]
                    .iter()
                    .filter_map(|r| match r {
                        Record::Association(a) => Some((a.at, a.device, a.medium)),
                        _ => None,
                    })
                    .collect();
                assert!(keys.windows(2).all(|k| k[0] <= k[1]), "census at {now}: {keys:?}");
                censuses += 1;
                reports += keys.len();
            }
            sim.out.clear();
        }
        assert!(censuses >= 24 && reports >= 3 * censuses, "{censuses} censuses, {reports} reports");
    }

    /// Cuts on heartbeat instants and power edges, and 1 µs to either
    /// side of them, leave a home's output that of one uninterrupted run,
    /// with or without faults: a heartbeat run stops at the next pending
    /// event and at `until`, so at every cut the home has sent exactly
    /// the heartbeats due before it.
    mod cuts {
        use super::*;
        use faultlab::{FaultPlan, FaultScenario};
        use proptest::prelude::*;
        use std::sync::OnceLock;

        fn shared() -> &'static (DomainUniverse, ZoneDb) {
            static SHARED: OnceLock<(DomainUniverse, ZoneDb)> = OnceLock::new();
            SHARED.get_or_init(|| {
                let universe = DomainUniverse::standard();
                let zone = universe.build_zone();
                (universe, zone)
            })
        }

        /// What a home leaves: the drained data sets, its uplink's
        /// counters and the heartbeats it sent.
        type Outcome = (collector::Datasets, [u64; 4], u64);

        struct Home {
            cfg: HomeConfig,
            windows: StudyWindows,
            seed: u64,
            plan: FaultPlan,
        }

        impl Home {
            fn new(id: u32, country: Country, consent: bool, seed: u64, days: u64) -> Home {
                let windows = short_windows(days);
                let rng = DetRng::new(seed).derive("h");
                let mut cfg = HomeConfig::sample(household::HomeId(id), country, &rng, &shared().0);
                cfg.traffic_consent = consent;
                Home { cfg, windows, seed, plan: FaultPlan::empty() }
            }

            fn router(&self) -> RouterId {
                RouterId(self.cfg.id.0)
            }

            /// A collector armed as the study arms it.
            fn collector(&self) -> Collector {
                let collector = Collector::new();
                if !self.plan.collector_downtime.is_empty() {
                    collector.set_downtime(self.plan.collector_downtime.clone());
                }
                collector.register(collector::RouterMeta {
                    router: self.router(),
                    country: self.cfg.country,
                    traffic_consent: self.cfg.traffic_consent,
                });
                collector
            }

            fn sim(&self) -> HomeSim<'_> {
                HomeSim::new(SimParams {
                    cfg: &self.cfg,
                    universe: &shared().0,
                    zone: &shared().1,
                    windows: &self.windows,
                    seed: self.seed,
                    reliable_upload: !self.plan.is_empty(),
                    faults: self.plan.for_router(self.router()),
                    cgn: None,
                })
            }

            /// Every instant the home sends a heartbeat at: its events
            /// popped one at a time, as `run_until` pops them, each
            /// followed by the heartbeats it sent, a minute apart.
            fn heartbeat_instants(&self) -> Vec<SimTime> {
                let collector = self.collector();
                let shard = collector.shard_handle(self.router());
                let mut sim = self.sim();
                let end = self.windows.span.end;
                let mut instants = Vec::new();
                while let Some((now, ev)) = sim.queue.pop_if_before(end) {
                    let sent = sim.metrics.heartbeats_emitted;
                    sim.handle(now, ev, end, &shard);
                    if sim.flush_due() {
                        sim.flush(now, &shard);
                    }
                    let run = sim.metrics.heartbeats_emitted - sent;
                    instants.extend((0..run).map(|k| now + MINUTE * k));
                }
                instants
            }

            /// Where the router powers on or off.
            fn power_edges(&self) -> Vec<SimTime> {
                let faults = self.plan.for_router(self.router());
                HomeSchedules::derive(&self.cfg, self.windows.span, self.seed, faults)
                    .powered
                    .iter()
                    .flat_map(|iv| [iv.start, iv.end])
                    .collect()
            }

            /// Run through `cuts` to the span's end, returning the
            /// heartbeats sent before each cut, then finish.
            fn run(&self, cuts: &[SimTime]) -> (Outcome, Vec<u64>) {
                let collector = self.collector();
                let mut sim = self.sim();
                let mut sent = Vec::new();
                for &cut in cuts {
                    sim.run_until(cut, &collector);
                    sent.push(sim.metrics.heartbeats_emitted);
                }
                sim.run_until(self.windows.span.end, &collector);
                let link = sim.up_link.stats();
                let link = [
                    link.accepted_packets,
                    link.accepted_bytes,
                    link.dropped_packets,
                    link.dropped_bytes,
                ];
                let emitted = sim.metrics.heartbeats_emitted;
                sim.finish(&collector);
                ((collector.drain_delta(), link, emitted), sent)
            }
        }

        fn arb_home() -> impl Strategy<Value = Home> {
            const SCENARIOS: [Option<FaultScenario>; 4] = [
                None,
                Some(FaultScenario::RouterChurn),
                Some(FaultScenario::CollectorFlap),
                Some(FaultScenario::LossyWan),
            ];
            (1u32..500, 0..Country::ALL.len(), any::<bool>(), any::<u64>(), 3u64..6, 0..4usize)
                .prop_map(|(id, country, consent, seed, days, scenario)| {
                    let mut home = Home::new(id, Country::ALL[country], consent, seed, days);
                    if let Some(scenario) = SCENARIOS[scenario] {
                        let span = home.windows.span;
                        home.plan = FaultPlan::scenario(scenario, seed, span, &[home.router()]);
                    }
                    home
                })
        }

        proptest! {
            #[test]
            fn cuts_at_heartbeat_instants_change_nothing(
                home in arb_home(),
                picks in proptest::collection::vec((any::<usize>(), any::<bool>(), 0u64..3), 1..12),
            ) {
                let instants = home.heartbeat_instants();
                let edges = home.power_edges();
                let span = home.windows.span;
                let mut cuts: Vec<SimTime> = picks
                    .iter()
                    .filter_map(|&(idx, edge, side)| {
                        let from = if edge && !edges.is_empty() { &edges } else { &instants };
                        let at = *from.get(idx % from.len().max(1))?;
                        let cut = SimTime::from_micros((at.as_micros() + side).checked_sub(1)?);
                        (span.start < cut && cut < span.end).then_some(cut)
                    })
                    .collect();
                cuts.sort_unstable();
                cuts.dedup();
                let (whole, _) = home.run(&[]);
                let (cut, sent) = home.run(&cuts);
                for (&at, &sent) in cuts.iter().zip(&sent) {
                    let due = instants.partition_point(|&t| t < at) as u64;
                    prop_assert_eq!(sent, due, "heartbeats sent before the cut at {}", at);
                }
                prop_assert_eq!(whole.1, cut.1, "uplink counters");
                prop_assert_eq!(whole.2, cut.2, "heartbeats emitted");
                prop_assert_eq!(whole.2, instants.len() as u64);
                prop_assert!(whole.0 == cut.0, "the drained data sets differ");
            }
        }
    }

    #[test]
    fn census_counts_match_association_reports() {
        let data = run_home(Country::UnitedStates, Some(false), 20);
        for census in &data.devices {
            let assoc = data
                .associations
                .iter()
                .filter(|a| a.at == census.at)
                .count() as u32;
            assert_eq!(census.total(), assoc, "census vs associations at {}", census.at);
        }
    }
}
