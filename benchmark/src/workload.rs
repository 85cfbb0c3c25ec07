//! The four named workloads and the study configuration each one runs.

use bismark::study::{StudyConfig, StudyWindows};
use cgn::CgnScenario;
use collector::windows::Window;
use collector::SpillConfig;
use faultlab::FaultScenario;
use simnet::time::{SimDuration, SimTime};
use std::path::PathBuf;

/// Worker threads every workload runs with: the core count of the host
/// the benchmark was sized on (see the README).
pub const THREADS: usize = 2;

/// The seed used when none is given; the golden digests are pinned at it.
pub const DEFAULT_SEED: u64 = 2013;

/// Where spill segments and trace files go, relative to the working
/// directory the benchmark runs in.
pub const OUT_DIR: &str = "target/bench";

/// One named set of study inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Table 1 deployment of 126 homes over 49 days, with the
    /// Table 2 windows scaled into that span, batch.
    Paper49d,
    /// 10,000 homes over half a day, batch: the deployment-scale case.
    Homes10k,
    /// 1,000 homes over two days with traffic capture over the whole span
    /// behind an ISP-mix CGN tier, batch.
    TrafficCgn,
    /// 1,000 homes over four days, streamed in hourly windows under
    /// collector flaps with a 1 MiB spill budget.
    StreamChaos,
}

/// How large a workload runs: the benchmark's own size, or a shrunken one
/// that keeps every code path but finishes in a debug-build test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark's numbers are measured at.
    Bench,
    /// Tiny sizes for the smoke test.
    Smoke,
}

impl Scale {
    /// The scale's name, as the digest table and result files spell it.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Bench => "bench",
            Scale::Smoke => "smoke",
        }
    }
}

impl Workload {
    /// Every workload, in the order the benchmark runs them.
    pub const ALL: [Workload; 4] =
        [Workload::Paper49d, Workload::Homes10k, Workload::TrafficCgn, Workload::StreamChaos];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper49d => "paper-49d",
            Workload::Homes10k => "homes-10k",
            Workload::TrafficCgn => "traffic-cgn",
            Workload::StreamChaos => "stream-chaos",
        }
    }

    /// The workload with the given name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The study this workload runs at `seed`.
    pub fn config(self, seed: u64, scale: Scale) -> StudyConfig {
        let smoke = scale == Scale::Smoke;
        let mut cfg = match self {
            // A quarter of the 197-day study: one run of the whole study
            // takes about 5.5 s on two cores, too long to take a median of
            // several within one benchmark run.
            Workload::Paper49d => StudyConfig::quick(seed, if smoke { 3 } else { 49 }),
            Workload::Homes10k => {
                let mut cfg = StudyConfig::quick(seed, 1);
                cfg.homes = if smoke { 300 } else { 10_000 };
                // Half a day: what this workload scales is homes, not days.
                cfg.windows = StudyWindows::scaled(Window {
                    start: SimTime::EPOCH,
                    end: SimTime::EPOCH + SimDuration::from_hours(12),
                });
                cfg
            }
            Workload::TrafficCgn => {
                let mut cfg = StudyConfig::quick(seed, if smoke { 1 } else { 2 });
                cfg.homes = if smoke { 60 } else { 1_000 };
                // Capacity probes and traffic capture run over the whole
                // span instead of its last tenth, so the traffic layers do
                // most of the simulate work.
                cfg.windows.capacity = cfg.windows.span;
                cfg.windows.traffic = cfg.windows.span;
                cfg.cgn = Some(CgnScenario::IspMix);
                cfg
            }
            Workload::StreamChaos => {
                let mut cfg = StudyConfig::quick(seed, if smoke { 1 } else { 4 });
                cfg.homes = if smoke { 100 } else { 1_000 };
                cfg.faults = Some(FaultScenario::CollectorFlap);
                cfg.spill = Some(SpillConfig {
                    budget_bytes: if smoke { 64 << 10 } else { 1 << 20 },
                    dir: Some(PathBuf::from(OUT_DIR).join("spill")),
                });
                cfg
            }
        };
        cfg.threads = THREADS;
        cfg
    }

    /// The stream window cadence, for the one workload that streams.
    pub fn cadence(self) -> Option<SimDuration> {
        (self == Workload::StreamChaos).then(|| SimDuration::from_hours(1))
    }
}
