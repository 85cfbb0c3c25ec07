//! Study orchestration: instantiate the deployment, run every home
//! (in parallel), and collect the six data sets.
//!
//! One private driver runs every study as a stream of windows cut from
//! the span. In each window, threads claim homes in index order from one
//! claim cursor and advance them to the window's end; then the window's
//! records are drained from the collector as one delta. A batch study
//! ([`run_study`]) is the one-window case and keeps its delta as the data
//! sets. A stream ([`run_study_stream`]) folds every delta into an
//! incremental report; the driver thread folds each window while the
//! next one simulates.

use crate::homesim::{HomeSim, SimParams};
use cgn::{CgnPlan, CgnScenario};
use collector::windows::{self, Window};
use collector::{Collector, Datasets, RouterMeta, SpillConfig, SpillStats, UploadCounters};
use faultlab::{FaultPlan, FaultScenario};
use firmware::records::RouterId;
use household::domains::DomainUniverse;
use household::home::{build_deployment_with, HomeConfig};
use household::Country;
use simnet::dns::ZoneDb;
use simnet::time::{SimDuration, SimTime};

/// The per-data-set collection windows a study runs with.
#[derive(Debug, Clone)]
pub struct StudyWindows {
    /// The full simulated span (the Heartbeats window).
    pub span: Window,
    /// Uptime reports window.
    pub uptime: Window,
    /// Device census window.
    pub devices: Window,
    /// WiFi scan window.
    pub wifi: Window,
    /// Capacity probe window.
    pub capacity: Window,
    /// Traffic capture window.
    pub traffic: Window,
}

impl StudyWindows {
    /// The paper's Table 2 windows (October 2012 – April 2013).
    pub fn table2() -> StudyWindows {
        StudyWindows {
            span: windows::heartbeats(),
            uptime: windows::uptime(),
            devices: windows::devices(),
            wifi: windows::wifi(),
            capacity: windows::capacity(),
            traffic: windows::traffic(),
        }
    }

    /// Windows scaled into an arbitrary (usually much shorter) span, for
    /// fast tests and examples. The layout mirrors Table 2's: WiFi early in
    /// the span, Uptime/Devices late, Capacity and Traffic in the final
    /// stretch, preserving every window's relative coverage.
    pub fn scaled(span: Window) -> StudyWindows {
        // In u128, so a span ending near u64::MAX µs cannot overflow; a
        // fraction of at most one fits back in u64.
        let total = u128::from(span.duration().as_micros());
        let at = |num: u128, den: u128| -> SimTime {
            span.start + SimDuration::from_micros((total * num / den) as u64)
        };
        StudyWindows {
            span,
            // WiFi: ~weeks 5–7 of 28 in the original → the second eighth.
            wifi: Window { start: at(1, 8), end: at(2, 8) },
            // Uptime/Devices: the last fifth.
            uptime: Window { start: at(4, 5), end: span.end },
            devices: Window { start: at(4, 5), end: span.end },
            // Capacity/Traffic: the last tenth.
            capacity: Window { start: at(9, 10), end: span.end },
            traffic: Window { start: at(9, 10), end: span.end },
        }
    }
}

/// Study configuration.
#[derive(Debug, Clone)]
pub struct StudyConfig {
    /// Master seed: everything derives from it.
    pub seed: u64,
    /// Deployment size. 126 reproduces the paper's Table 1 deployment
    /// exactly; any other value scales it generatively while preserving
    /// the country mix (see [`household::build_deployment_scaled`]).
    pub homes: u32,
    /// Collection windows (defaults to Table 2's).
    pub windows: StudyWindows,
    /// Threads that simulate homes, the driver thread among them: it
    /// claims homes beside `threads − 1` workers, after folding the
    /// previous stream window.
    pub threads: usize,
    /// Collection-infrastructure outage windows (§3.3 failure injection):
    /// records arriving during one are lost at the server.
    pub collector_outages: Vec<Window>,
    /// Fault scenario to compile and inject (see [`faultlab`]). `None`
    /// disengages the fault subsystem entirely: the run is byte-identical
    /// to one from a build without faultlab at all.
    pub faults: Option<FaultScenario>,
    /// CGN deployment scenario (see [`cgn`]). `None` disengages the
    /// carrier-grade tier entirely — no second translation hop, no NAT
    /// probes, no punch trials — and the run is byte-identical to one from
    /// a build without the cgn crate at all.
    pub cgn: Option<CgnScenario>,
    /// Out-of-core memory budget. `None` (the default) keeps every record
    /// in RAM; `Some` makes collector shards seal their record tables to
    /// disk segments past the budget and merge them back router by router
    /// at snapshot — reports stay byte-identical to the unbounded run.
    pub spill: Option<SpillConfig>,
}

impl StudyConfig {
    /// The full six-month study at the given seed.
    pub fn full(seed: u64) -> StudyConfig {
        StudyConfig {
            seed,
            homes: 126,
            windows: StudyWindows::table2(),
            threads: default_threads(),
            collector_outages: Vec::new(),
            faults: None,
            cgn: None,
            spill: None,
        }
    }

    /// A reduced study spanning `days` from the epoch — same deployment,
    /// proportionally scaled windows. Used by tests and quick examples.
    pub fn quick(seed: u64, days: u64) -> StudyConfig {
        let span = Window {
            start: SimTime::EPOCH,
            end: SimTime::EPOCH + SimDuration::from_days(days),
        };
        StudyConfig {
            seed,
            homes: 126,
            windows: StudyWindows::scaled(span),
            threads: default_threads(),
            collector_outages: Vec::new(),
            faults: None,
            cgn: None,
            spill: None,
        }
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(16)
}

/// Wall-clock spent in each phase of [`run_study`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseTimings {
    /// Simulating every home and ingesting its uploads: each window's
    /// wall-clock from spawning its workers to joining them, minus the
    /// driver thread's fold of the previous window, so no span counts
    /// twice (a stream times that fold's update, absorb and finalize on
    /// their own).
    pub simulate: std::time::Duration,
    /// Merging the collector shards into the sorted data sets.
    pub snapshot: std::time::Duration,
}

/// Everything a finished study produces.
#[derive(Debug)]
pub struct StudyOutput {
    /// The six data sets, snapshot from the collector.
    pub datasets: Datasets,
    /// The deployment that generated them (ground truth, used only by
    /// validation tests and never by the analyses).
    pub homes: Vec<HomeConfig>,
    /// The windows the study ran with.
    pub windows: StudyWindows,
    /// Per-phase wall-clock of the run.
    pub timings: PhaseTimings,
    /// The injected fault plan (empty when the study ran fault-free) —
    /// ground truth for scoring the analysis-side artifact detectors.
    pub fault_plan: FaultPlan,
    /// The compiled CGN plan (empty when no scenario was armed) — ground
    /// truth for scoring the NAT-characterization analyses.
    pub cgn_plan: CgnPlan,
    /// Store-and-forward delivery accounting across all shards.
    pub upload_counters: UploadCounters,
    /// Heartbeat datagrams the collector dropped during announced
    /// downtime.
    pub dropped_in_downtime: u64,
    /// Out-of-core accounting, present only when the study ran with a
    /// spill budget ([`StudyConfig::spill`]).
    pub spill: Option<SpillStats>,
}

impl StudyWindows {
    /// The analysis-side view of these windows.
    pub fn report_windows(&self) -> analysis::ReportWindows {
        analysis::ReportWindows {
            heartbeats: self.span,
            uptime: self.uptime,
            devices: self.devices,
            wifi: self.wifi,
            capacity: self.capacity,
            traffic: self.traffic,
        }
    }
}

impl StudyOutput {
    /// Compute the full per-figure report for this study.
    pub fn report(&self) -> analysis::StudyReport {
        analysis::StudyReport::compute(&self.datasets, self.windows.report_windows())
    }
}

/// Set the end-of-study gauges: deployment size and the size of each
/// collected data set. Gauges are written once, from this single-threaded
/// epilogue, so their exported values are deterministic.
fn publish_study_metrics(homes: &[HomeConfig], datasets: &Datasets) {
    obs::gauge("study_homes").set(homes.len() as u64);
    for (key, rows) in datasets.record_counts() {
        obs::gauge(key).set(rows);
    }
}

/// Everything the driver builds before the first event runs: the
/// deployment (sampled on the study's `threads` workers against one shared
/// domain universe), its compiled fault and CGN plans, and the DNS zone.
struct Deployment {
    homes: Vec<HomeConfig>,
    universe: DomainUniverse,
    zone: ZoneDb,
    fault_plan: FaultPlan,
    cgn_plan: CgnPlan,
}

impl Deployment {
    /// Build the deployment and plans for `config`, plus a collector with
    /// the spill budget, outages and fault downtime armed and every home
    /// registered.
    fn set_up(config: &StudyConfig) -> (Deployment, Collector) {
        let universe = DomainUniverse::standard();
        let homes = build_deployment_with(config.seed, config.homes, &universe, config.threads);
        // Compile the fault scenario (if any) against the actual
        // deployment. An empty plan keeps every home on the legacy
        // direct-flush path.
        let fault_plan = match config.faults {
            Some(scenario) => {
                let routers: Vec<RouterId> = homes.iter().map(|h| RouterId(h.id.0)).collect();
                FaultPlan::scenario(scenario, config.seed, config.windows.span, &routers)
            }
            None => FaultPlan::empty(),
        };
        // Compile the CGN scenario (if any) against the deployment's
        // country mix. An empty plan leaves every home on the single-NAT
        // path.
        let cgn_plan = match config.cgn {
            Some(scenario) => {
                let deployment: Vec<(RouterId, Country)> =
                    homes.iter().map(|h| (RouterId(h.id.0), h.country)).collect();
                CgnPlan::scenario(scenario, config.seed, config.windows.span, &deployment)
            }
            None => CgnPlan::empty(),
        };
        let zone = universe.build_zone();
        let collector = Collector::new();
        if let Some(spill) = &config.spill {
            collector
                .set_spill(spill)
                .expect("spill directory must be creatable before the study starts");
        }
        collector.set_outages(config.collector_outages.clone());
        if !fault_plan.collector_downtime.is_empty() {
            collector.set_downtime(fault_plan.collector_downtime.clone());
        }
        for home in &homes {
            collector.register(RouterMeta {
                router: RouterId(home.id.0),
                country: home.country,
                traffic_consent: home.traffic_consent,
            });
        }
        (Deployment { homes, universe, zone, fault_plan, cgn_plan }, collector)
    }

    /// The simulation of home `idx`.
    fn sim<'a>(
        &'a self,
        idx: usize,
        config: &'a StudyConfig,
        reliable_upload: bool,
    ) -> HomeSim<'a> {
        let home = &self.homes[idx];
        HomeSim::new(SimParams {
            cfg: home,
            universe: &self.universe,
            zone: &self.zone,
            windows: &config.windows,
            seed: config.seed,
            reliable_upload,
            faults: self.fault_plan.for_router(RouterId(home.id.0)),
            cgn: self.cgn_plan.for_router(RouterId(home.id.0)),
        })
    }

    /// Publish the end-of-study metrics and assemble the output from
    /// what the driver delivered and the data sets its caller folded.
    fn finish(self, config: &StudyConfig, delivery: Delivery, datasets: Datasets) -> StudyOutput {
        publish_study_metrics(&self.homes, &datasets);
        if !self.cgn_plan.is_empty() {
            self.cgn_plan.publish_metrics();
        }
        // Wall-clock phase spans are host profiling: they reach the
        // manifest's text summary only, never metrics.json.
        let timings = delivery.timings;
        obs::wall_span("study_simulate").record_micros(timings.simulate.as_micros() as u64);
        obs::wall_span("study_snapshot").record_micros(timings.snapshot.as_micros() as u64);
        StudyOutput {
            datasets,
            homes: self.homes,
            windows: config.windows.clone(),
            timings,
            fault_plan: self.fault_plan,
            cgn_plan: self.cgn_plan,
            upload_counters: delivery.upload_counters,
            dropped_in_downtime: delivery.dropped_in_downtime,
            spill: delivery.spill,
        }
    }
}

/// What the driver leaves once its last window is drained: the
/// collector's end-of-run accounting and the run's phase timings.
struct Delivery {
    upload_counters: UploadCounters,
    dropped_in_downtime: u64,
    /// The run's spill total, summed over every window's drain.
    spill: Option<SpillStats>,
    timings: PhaseTimings,
}

/// The one study driver: set the study up, run it window by window to the
/// span's end, and hand each window's drained delta to `on_window`, with
/// the wall-clock the drain took. A window ends `cadence` after the
/// previous one or at the span's end, whichever comes first, and at least
/// one window runs, so an empty span runs one empty window. A batch run
/// passes the span as the cadence and runs exactly one.
///
/// Per window, the driver thread and `threads − 1` scoped workers (never
/// more threads than homes) claim homes in index order from one claim
/// cursor. A home is built on its first claim, advanced to the window's
/// end, and in the last window finished and dropped, so a one-window run
/// holds no more homes than it has threads. Homes are mutually
/// independent and the collector's merge is order-insensitive, so which
/// thread runs which home never shows in the output.
///
/// Before it claims, the driver thread hands the previous window's delta
/// to `on_window`, so the callback runs while the workers simulate, and
/// at most `threads` threads are busy at once. Each callback returns
/// before the next one starts. The last window's delta has nothing left
/// to overlap and is handed over after its own barrier, so a one-window
/// run folds as it would serially. The drain stays at the barrier: it
/// must see every home at the window's end, and it resets the shards'
/// segment counters, so the next window's seals reuse the segment names
/// a deferred merge would still read. A panic on any thread, the
/// callback's included, surfaces with its own payload.
/// `force_uploader` arms the store-and-forward uploader on every home;
/// otherwise only fault and CGN runs use it.
fn drive(
    config: &StudyConfig,
    cadence: SimDuration,
    force_uploader: bool,
    mut on_window: impl FnMut(Window, Datasets, std::time::Duration),
) -> (Deployment, Delivery) {
    let (deployment, collector) = Deployment::set_up(config);
    let reliable_upload =
        force_uploader || !deployment.fault_plan.is_empty() || !deployment.cgn_plan.is_empty();
    // Boxed, so a home not yet built or already dropped costs one pointer.
    let mut slots: Vec<Option<Box<HomeSim<'_>>>> = deployment.homes.iter().map(|_| None).collect();
    let workers = config.threads.max(1).min(slots.len());
    let span = config.windows.span;
    let mut timings = PhaseTimings::default();
    // A drain moves the sealed segments out with its delta and resets the
    // collector's live spill stats, so the run's total accumulates here.
    let mut spill: Option<SpillStats> = None;
    // The previous window's drained delta, folded while this one simulates.
    let mut pending: Option<(Window, Datasets, std::time::Duration)> = None;
    let mut cursor = span.start;
    loop {
        let until = cursor + cadence.min(span.end.since(cursor));
        let last = until == span.end;
        // simlint: allow(wall-clock) — operator-facing phase timing only; never feeds the simulation or its datasets
        let sim_start = std::time::Instant::now();
        let claims = std::sync::Mutex::new(slots.iter_mut().enumerate());
        let claim_homes = || loop {
            // The guard drops with this statement, before the home runs.
            let claim = claims.lock().expect("claiming a slot cannot panic").next();
            let Some((idx, slot)) = claim else { break };
            let mut sim = slot
                .take()
                .unwrap_or_else(|| Box::new(deployment.sim(idx, config, reliable_upload)));
            sim.run_until(until, &collector);
            // Span end: the epilogue tears down flows and drains the
            // monitor and spool, so the last delta carries everything.
            if last {
                sim.finish(&collector);
            } else {
                *slot = Some(sim);
            }
        };
        let fold_cost = crossbeam::scope(|scope| {
            let helpers: Vec<_> = (1..workers).map(|_| scope.spawn(|_| claim_homes())).collect();
            // simlint: allow(wall-clock) — operator-facing phase timing only; never feeds the simulation or its datasets
            let fold_start = std::time::Instant::now();
            if let Some((window, delta, drain_cost)) = pending.take() {
                on_window(window, delta, drain_cost);
            }
            let fold_cost = fold_start.elapsed();
            claim_homes();
            // Joined here, so a home's panic re-raises its own payload
            // rather than the scope's stand-in.
            for helper in helpers {
                helper.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            }
            fold_cost
        })
        .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        timings.simulate += sim_start.elapsed() - fold_cost;
        if let Some(stats) = collector.spill_stats() {
            spill.get_or_insert_with(SpillStats::default).absorb(stats);
        }
        // simlint: allow(wall-clock) — operator-facing phase timing only; never feeds the simulation or its datasets
        let drain_start = std::time::Instant::now();
        let delta = collector.drain_delta();
        let drain_cost = drain_start.elapsed();
        timings.snapshot += drain_cost;
        let window = Window { start: cursor, end: until };
        if last {
            on_window(window, delta, drain_cost);
            break;
        }
        pending = Some((window, delta, drain_cost));
        cursor = until;
    }
    drop(slots);
    collector.publish_metrics();
    if let Some(stats) = &spill {
        stats.publish_metrics();
    }
    let upload_counters = collector.upload_counters();
    let dropped_in_downtime = collector.dropped_in_downtime();
    (deployment, Delivery { upload_counters, dropped_in_downtime, spill, timings })
}

/// Run the full study: build the deployment from `seed` (Table 1 at the
/// default 126 homes, mix-preserving generative scaling otherwise),
/// simulate every home over the configured span on `threads` workers, and
/// take the collected data sets. This is the driver's one-window case:
/// its only delta is the whole run.
pub fn run_study(config: &StudyConfig) -> StudyOutput {
    let mut datasets = Datasets::default();
    let (deployment, delivery) =
        drive(config, config.windows.span.duration(), false, |_, delta, _| datasets = delta);
    deployment.finish(config, delivery, datasets)
}

/// One emitted stream window, handed to the [`run_study_stream`] sink
/// right after the window's delta was folded in and the rolling report
/// refreshed. Every window but the last is folded, and its sink called,
/// on the driver thread while the next window simulates.
pub struct StreamWindow<'a> {
    /// Zero-based window index.
    pub index: u32,
    /// The slice of virtual time this window sealed.
    pub window: Window,
    /// The rolling report after this window (incremental state finalized
    /// against everything collected so far).
    pub report: &'a analysis::StudyReport,
    /// The accumulated data sets after this window.
    pub datasets: &'a Datasets,
    /// Wall-clock spent taking this window's delta: the collector drain
    /// plus absorbing the delta into the accumulated data sets.
    pub snapshot_cost: std::time::Duration,
    /// Wall-clock spent folding this window's delta into the incremental
    /// state (the part whose cost scales with the delta, not the history).
    pub update_cost: std::time::Duration,
    /// Wall-clock spent finalizing the rolling report from the partial
    /// state plus the accumulator.
    pub finalize_cost: std::time::Duration,
}

/// Everything a finished streaming study produces: the regular
/// [`StudyOutput`] (its datasets are the final accumulated snapshot) plus
/// the final rolling report and the window count.
pub struct StreamOutput {
    /// The study output, exactly as [`run_study`] would shape it.
    pub study: StudyOutput,
    /// The final rolling report — the differential harness proves it
    /// byte-identical to `study.report()` recomputed from scratch.
    pub report: analysis::StudyReport,
    /// Stream windows emitted (the last one ends exactly at span end).
    pub windows_run: u32,
}

/// Continuous-operation mode: run the same deployment as [`run_study`],
/// but pause every `cadence` of virtual time to drain the records sealed
/// behind the per-router watermark, fold them into the incremental
/// analysis state, and refresh the rolling report — calling `on_window`
/// with each window's results once they are folded. The fold and the
/// callback of every window but the last run on the calling thread while
/// the next window simulates on `threads − 1` workers; callbacks run in
/// window order, one at a time.
///
/// The stream always routes records through the store-and-forward upload
/// queue (a long-running collector never gets direct memory handoffs), so
/// the drained prefix is exactly what a batch run would have ingested by
/// the same virtual instant. After the final window the accumulated
/// datasets and the rolling report are byte-identical to a batch run of
/// the same config — at any thread count, spill armed or not, faults and
/// CGN included.
pub fn run_study_stream(
    config: &StudyConfig,
    cadence: SimDuration,
    mut on_window: impl FnMut(&StreamWindow<'_>),
) -> StreamOutput {
    assert!(cadence.as_micros() > 0, "stream cadence must be positive");
    let mut inc = analysis::IncrementalReport::new(config.windows.report_windows());
    let mut acc = Datasets::default();
    let mut absorber = collector::DatasetsAbsorber::default();
    let mut report: Option<analysis::StudyReport> = None;
    let mut absorbing = std::time::Duration::ZERO;
    let mut index: u32 = 0;
    // With no faults armed the forced uploader is invisible: it delivers
    // the records direct flush would.
    let (deployment, mut delivery) = drive(config, cadence, true, |window, delta, drain_cost| {
        // Fold the window: update the incremental state from the delta
        // alone, then absorb the delta into the accumulated snapshot.
        // simlint: allow(wall-clock) — per-window incremental-cost profiling for the bench harness; never feeds figures
        let update_start = std::time::Instant::now();
        inc.update(&delta);
        let update_cost = update_start.elapsed();
        // simlint: allow(wall-clock) — operator-facing phase timing only; never feeds the simulation or its datasets
        let absorb_start = std::time::Instant::now();
        acc.absorb(delta, &mut absorber);
        let absorb_cost = absorb_start.elapsed();
        absorbing += absorb_cost;
        // simlint: allow(wall-clock) — per-window incremental-cost profiling for the bench harness; never feeds figures
        let finalize_start = std::time::Instant::now();
        let rolled = inc.finalize(&acc);
        let finalize_cost = finalize_start.elapsed();
        on_window(&StreamWindow {
            index,
            window,
            report: &rolled,
            datasets: &acc,
            snapshot_cost: drain_cost + absorb_cost,
            update_cost,
            finalize_cost,
        });
        report = Some(rolled);
        obs::counter("stream_windows_total").add(1);
        index += 1;
    });
    delivery.timings.snapshot += absorbing;
    StreamOutput {
        study: deployment.finish(config, delivery, acc),
        report: report.expect("the driver runs at least one window"),
        windows_run: index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_windows_nest_inside_span() {
        let ten_days = SimTime::EPOCH + SimDuration::from_days(10);
        // The second span ends at the last representable instant, where
        // `total × 9` overflows u64.
        for span in [
            Window { start: SimTime::EPOCH, end: ten_days },
            Window { start: ten_days, end: SimTime::from_micros(u64::MAX) },
        ] {
            let w = StudyWindows::scaled(span);
            for sub in [&w.wifi, &w.uptime, &w.devices, &w.capacity, &w.traffic] {
                assert!(sub.start >= span.start && sub.end <= span.end);
                assert!(sub.end > sub.start, "window must be non-empty");
            }
            assert!(w.wifi.end <= w.uptime.start, "wifi precedes uptime as in Table 2");
            assert!(w.capacity.start >= w.devices.start);
        }
    }

    #[test]
    fn table2_windows_match_collector() {
        let w = StudyWindows::table2();
        assert_eq!(w.span, windows::heartbeats());
        assert_eq!(w.traffic, windows::traffic());
    }

    #[test]
    fn quick_study_runs_and_covers_deployment() {
        let output = run_study(&StudyConfig::quick(7, 6));
        assert_eq!(output.homes.len(), 126);
        assert_eq!(output.datasets.routers.len(), 126);
        // Every home that was ever powered has heartbeats.
        assert!(output.datasets.heartbeats.len() > 100);
        assert!(!output.datasets.devices.is_empty());
        assert!(!output.datasets.wifi.is_empty());
        assert!(!output.datasets.capacity.is_empty());
        assert!(!output.datasets.flows.is_empty());
    }

    #[test]
    fn scaled_study_covers_the_requested_deployment() {
        let mut cfg = StudyConfig::quick(5, 3);
        cfg.homes = 10;
        let output = run_study(&cfg);
        assert_eq!(output.homes.len(), 10);
        assert_eq!(output.datasets.routers.len(), 10);
        assert!(!output.datasets.heartbeats.is_empty());
    }

    #[test]
    fn study_is_deterministic_across_thread_counts() {
        let mut a_cfg = StudyConfig::quick(3, 4);
        a_cfg.threads = 1;
        let mut b_cfg = StudyConfig::quick(3, 4);
        b_cfg.threads = 8;
        let a = run_study(&a_cfg);
        let b = run_study(&b_cfg);
        // Every table must be byte-identical, not just the easy ones: the
        // sharded collector's determinism guarantee covers the whole
        // snapshot regardless of upload interleaving.
        assert_eq!(a.datasets.routers, b.datasets.routers);
        assert_eq!(a.datasets.heartbeats, b.datasets.heartbeats);
        assert_eq!(a.datasets.uptime, b.datasets.uptime);
        assert_eq!(a.datasets.capacity, b.datasets.capacity);
        assert_eq!(a.datasets.devices, b.datasets.devices);
        assert_eq!(a.datasets.wifi, b.datasets.wifi);
        assert_eq!(a.datasets.packet_stats, b.datasets.packet_stats);
        assert_eq!(a.datasets.flows, b.datasets.flows);
        assert_eq!(a.datasets.dns, b.datasets.dns);
        assert_eq!(a.datasets.macs, b.datasets.macs);
        assert_eq!(a.datasets.associations, b.datasets.associations);
        assert_eq!(a.datasets.latency, b.datasets.latency);
        // ... and so must the rendered report built on top of them.
        let report_a = a.report().render(&a.datasets);
        let report_b = b.report().render(&b.datasets);
        assert_eq!(report_a, report_b);
    }

    #[test]
    fn streamed_study_matches_batch() {
        // An empty span still runs one (empty) window, and a cadence past
        // the span's end cuts one window that covers all of it: the shape
        // of every batch run.
        for (days, cadence, windows) in [
            (6, SimDuration::from_hours(36), 4),
            (0, SimDuration::from_hours(1), 1),
            (2, SimDuration::from_days(30), 1),
        ] {
            let cfg = StudyConfig::quick(7, days);
            let batch = run_study(&cfg);
            let mut seen = Vec::new();
            let mut rolling_homes = 0;
            let streamed = run_study_stream(&cfg, cadence, |w| {
                seen.push((w.index, w.window));
                rolling_homes = w.report.routers.len();
                assert_eq!(w.datasets.routers.len(), 126);
            });
            assert_eq!(streamed.windows_run, windows, "{days} days at {cadence:?}");
            assert_eq!(seen.len(), windows as usize);
            // The windows are numbered in order and tile the span.
            let mut at = cfg.windows.span.start;
            for (i, &(index, window)) in seen.iter().enumerate() {
                assert_eq!((index as usize, window.start), (i, at));
                at = window.end;
            }
            assert_eq!(at, cfg.windows.span.end);
            assert_eq!(rolling_homes, streamed.report.routers.len());
            // The accumulated snapshot and the rolling report must be
            // byte-identical to the batch run's.
            assert_eq!(batch.datasets, streamed.study.datasets);
            assert_eq!(
                batch.report().render(&batch.datasets),
                streamed.report.render(&streamed.study.datasets),
                "final rolling report must equal the batch report"
            );
        }
    }

    #[test]
    #[should_panic(expected = "sink failed at window 1")]
    fn a_window_sink_panic_surfaces_as_itself() {
        // Window 1 is not the last, so its callback runs while window 2
        // simulates on the other thread.
        let mut cfg = StudyConfig::quick(7, 2);
        cfg.homes = 4;
        cfg.threads = 2;
        run_study_stream(&cfg, SimDuration::from_hours(12), |w| {
            if w.index == 1 {
                panic!("sink failed at window {}", w.index);
            }
        });
    }

    #[test]
    fn spilled_study_report_is_byte_identical_to_unbounded() {
        let unbounded = run_study(&StudyConfig::quick(11, 5));
        let mut cfg = StudyConfig::quick(11, 5);
        // Small enough that the traffic tables cross it many times over.
        cfg.spill = Some(SpillConfig { budget_bytes: 1 << 18, dir: None });
        let spilled = run_study(&cfg);
        let stats = spilled.spill.as_ref().expect("spill stats present when armed");
        assert!(stats.segments > 0, "budget must actually be exceeded");
        assert_eq!(stats.error, None);
        assert!(spilled.datasets.spilled_bytes() > 0);
        assert_eq!(unbounded.spill, None);
        assert_eq!(unbounded.datasets.packet_stats, spilled.datasets.packet_stats);
        assert_eq!(unbounded.datasets.flows, spilled.datasets.flows);
        assert_eq!(unbounded.datasets.dns, spilled.datasets.dns);
        assert_eq!(unbounded.datasets.macs, spilled.datasets.macs);
        assert_eq!(
            unbounded.report().render(&unbounded.datasets),
            spilled.report().render(&spilled.datasets),
            "spilled report must be byte-identical to the in-memory run"
        );
    }
}
