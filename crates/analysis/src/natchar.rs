//! NAT-type characterization and CGN detection, computed from the
//! collected probe tables alone (never simulator ground truth).
//!
//! The firmware's STUN-style experiment leaves two tables in the
//! snapshot: `nat_probes` (one classification verdict per probe cycle)
//! and `punch_trials` (pairwise hole-punch outcomes). This module turns
//! their folded tallies into the report's NAT section: the modal NAT type
//! per home, the deployment-wide type distribution, the CGN detection
//! rate by country, and the punch-success matrix by NAT-type pair. A
//! scoring helper compares the detection verdicts against a
//! caller-supplied ground-truth set, so tests (which do hold the
//! simulator's CGN plan) can grade the experiment as an instrument.

use collector::Datasets;
use firmware::records::{NatType, RouterId};
use household::Country;
use std::collections::{BTreeMap, BTreeSet};

/// One home's aggregated NAT probe verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HomeNat {
    /// The home.
    pub router: RouterId,
    /// The most frequent classification across the home's probe cycles
    /// (ties break toward the milder type).
    pub modal_type: NatType,
    /// Probe cycles that produced a verdict.
    pub probes: usize,
    /// Did a strict majority of probes flag carrier-grade NAT (mapped
    /// address differing from the WAN address)?
    pub cgn_detected: bool,
}

/// One (local, peer) cell of the hole-punch success matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PunchCell {
    /// The initiating side's NAT type (as probed at trial time).
    pub local: NatType,
    /// The peer side's NAT type.
    pub peer: NatType,
    /// Trials attempted for this pair.
    pub attempts: usize,
    /// Trials where both sides established a path.
    pub successes: usize,
}

/// Per-country CGN detection tally.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CountryDetection {
    /// The country.
    pub country: Country,
    /// Homes whose probes flagged CGN.
    pub flagged: usize,
    /// Homes that probed at all.
    pub probed: usize,
}

/// Granularity used to cluster observed mapped ports into blocks for the
/// port-allocation figure. 512 ports is the common carrier-grade block
/// size (and the order of magnitude every deployment guide quotes), so
/// ordinary-NAT homes scatter across many blocks while block-allocated
/// CGN homes collapse into one or two.
pub const PORT_BLOCK: u16 = 512;

/// One home's row in the port-allocation figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortAllocRow {
    /// The home.
    pub router: RouterId,
    /// Distinct mapped ports its probes observed.
    pub distinct_ports: usize,
    /// Distinct [`PORT_BLOCK`]-sized blocks those ports fall into.
    pub blocks: usize,
}

/// The port-allocation distribution over the probe lease timeline: how
/// each home's observed mapped ports cluster into fixed-size blocks.
/// Homes whose every observation lands in a single block are the
/// signature of a block-allocating CGN holding one lease; homes spread
/// over several blocks either re-leased (eviction) or sit behind an
/// ordinary per-connection NAT.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PortAllocation {
    /// Per home, sorted by router ID.
    pub per_home: Vec<PortAllocRow>,
    /// Homes whose observed ports all share one block.
    pub single_block_homes: usize,
    /// Homes spread over more than one block.
    pub multi_block_homes: usize,
}

/// The complete NAT section of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct NatCharacterization {
    /// Per-home verdicts, sorted by router ID.
    pub homes: Vec<HomeNat>,
    /// Homes per modal NAT type, in [`NatType::ALL`] order (zero-count
    /// types omitted).
    pub type_counts: Vec<(NatType, usize)>,
    /// CGN detection by country, sorted by country code.
    pub detection_by_country: Vec<CountryDetection>,
    /// Punch-success matrix cells with at least one attempt, ordered by
    /// (local, peer) wire code.
    pub matrix: Vec<PunchCell>,
    /// Port-allocation distribution from the probe lease timeline.
    pub port_allocation: PortAllocation,
    /// Total probe verdicts across all homes.
    pub probes: usize,
    /// Total punch trials across all homes.
    pub trials: usize,
}

/// Build the NAT section from the folded probe tables: per-home verdict
/// tallies (counts by type code, CGN flags, probes), the punch matrix's
/// `(attempts, successes)` keyed by (local, peer) wire code, the totals,
/// and each home's observed mapped ports. Every entry is a pure sum or
/// set, so the order the probes were folded in cannot matter.
pub(crate) fn characterize_from_parts(
    data: &Datasets,
    tally: &BTreeMap<RouterId, ([usize; 5], usize, usize)>,
    cells: &BTreeMap<(u8, u8), (usize, usize)>,
    probes: usize,
    trials: usize,
    ports: &BTreeMap<RouterId, BTreeSet<u16>>,
) -> NatCharacterization {
    let homes: Vec<HomeNat> = tally
        .iter()
        .map(|(&router, &(by_type, flagged, probes))| {
            // ALL is ordered mild-to-strict; a strict `>` keeps the
            // earliest (mildest) type on ties.
            let mut modal_type = NatType::ALL[0];
            for t in NatType::ALL {
                if by_type[t.code() as usize] > by_type[modal_type.code() as usize] {
                    modal_type = t;
                }
            }
            HomeNat { router, modal_type, probes, cgn_detected: flagged * 2 > probes }
        })
        .collect();

    let mut type_counts: Vec<(NatType, usize)> = NatType::ALL
        .into_iter()
        .map(|t| (t, homes.iter().filter(|h| h.modal_type == t).count()))
        .collect();
    type_counts.retain(|&(_, n)| n > 0);

    let mut by_country: BTreeMap<&'static str, CountryDetection> = BTreeMap::new();
    for h in &homes {
        let Some(country) = data.meta(h.router).map(|m| m.country) else { continue };
        let entry = by_country
            .entry(country.code())
            .or_insert(CountryDetection { country, flagged: 0, probed: 0 });
        entry.probed += 1;
        entry.flagged += usize::from(h.cgn_detected);
    }

    let matrix = cells
        .iter()
        .map(|(&(l, p), &(attempts, successes))| PunchCell {
            local: NatType::from_code(l).expect("codes come from NatType::code"),
            peer: NatType::from_code(p).expect("codes come from NatType::code"),
            attempts,
            successes,
        })
        .collect();

    NatCharacterization {
        probes,
        trials,
        homes,
        type_counts,
        detection_by_country: by_country.into_values().collect(),
        matrix,
        port_allocation: port_allocation_from(ports),
    }
}

/// Fold per-home observed-port sets into the port-allocation figure.
pub(crate) fn port_allocation_from(ports: &BTreeMap<RouterId, BTreeSet<u16>>) -> PortAllocation {
    let per_home: Vec<PortAllocRow> = ports
        .iter()
        .map(|(&router, observed)| {
            let blocks: BTreeSet<u16> = observed.iter().map(|p| p / PORT_BLOCK).collect();
            PortAllocRow { router, distinct_ports: observed.len(), blocks: blocks.len() }
        })
        .collect();
    PortAllocation {
        single_block_homes: per_home.iter().filter(|r| r.blocks == 1).count(),
        multi_block_homes: per_home.iter().filter(|r| r.blocks > 1).count(),
        per_home,
    }
}

/// How well the probe-side CGN verdicts match a ground-truth set of
/// fronted homes (same shape as [`crate::artifacts::DetectionScore`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionScore {
    /// Fronted homes whose probes flagged CGN.
    pub detected: usize,
    /// Unfronted homes whose probes flagged CGN anyway.
    pub false_positives: usize,
    /// Fronted homes whose probes missed the CGN.
    pub missed: usize,
    /// Fraction of flags that are real (1.0 when nothing flagged).
    pub precision: f64,
    /// Fraction of fronted homes flagged (1.0 when none are fronted).
    pub recall: f64,
}

/// Score the per-home CGN verdicts against the set of homes the
/// simulator actually fronted. Only probed homes are graded — an
/// unprobed home produced no verdict to score.
pub fn score_detection(homes: &[HomeNat], truth_fronted: &BTreeSet<RouterId>) -> DetectionScore {
    let mut detected = 0usize;
    let mut false_positives = 0usize;
    let mut missed = 0usize;
    for h in homes {
        match (truth_fronted.contains(&h.router), h.cgn_detected) {
            (true, true) => detected += 1,
            (true, false) => missed += 1,
            (false, true) => false_positives += 1,
            (false, false) => {}
        }
    }
    let flagged = detected + false_positives;
    DetectionScore {
        detected,
        false_positives,
        missed,
        precision: if flagged == 0 { 1.0 } else { detected as f64 / flagged as f64 },
        recall: if detected + missed == 0 {
            1.0
        } else {
            detected as f64 / (detected + missed) as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{ReportWindows, StudyReport};
    use collector::windows::Window;
    use collector::{Collector, Datasets, RouterMeta};
    use firmware::records::{NatProbeRecord, PunchTrialRecord, Record};
    use simnet::time::{SimDuration, SimTime};

    fn t(mins: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_mins(mins)
    }

    /// The report's NAT section over `data` (the section is unwindowed).
    fn natchar(data: &Datasets) -> NatCharacterization {
        let windows = ReportWindows::spanning(Window { start: t(0), end: t(2 * 1_440) });
        StudyReport::compute(data, windows).natchar.expect("probes were collected")
    }

    fn probe(router: u32, at: u64, nat_type: NatType, cgn: bool) -> Record {
        Record::NatProbe(NatProbeRecord {
            router: RouterId(router),
            at: t(at),
            nat_type,
            mapped_ip_hash: 7,
            mapped_port: 2_048,
            cgn_detected: cgn,
        })
    }

    fn snapshot() -> Datasets {
        let collector = Collector::new();
        for (router, country) in [(1u32, Country::UnitedStates), (2, Country::India)] {
            collector.register(RouterMeta {
                router: RouterId(router),
                country,
                traffic_consent: true,
            });
        }
        // Home 1: consistently port-restricted + CGN-flagged.
        for i in 0..3 {
            collector.ingest(probe(1, i * 720, NatType::PortRestricted, true));
        }
        // Home 2: full-cone, one stray CGN flag (minority — not detected).
        collector.ingest(probe(2, 10, NatType::FullCone, true));
        collector.ingest(probe(2, 730, NatType::FullCone, false));
        collector.ingest(probe(2, 1_450, NatType::FullCone, false));
        for (success, at) in [(true, 100u64), (false, 200)] {
            collector.ingest(Record::PunchTrial(PunchTrialRecord {
                router: RouterId(1),
                at: t(at),
                peer: RouterId(2),
                local_type: NatType::PortRestricted,
                peer_type: NatType::FullCone,
                success,
            }));
        }
        collector.drain_delta()
    }

    #[test]
    fn characterize_folds_modal_types_and_matrix() {
        let data = snapshot();
        let nc = natchar(&data);
        assert_eq!(nc.probes, 6);
        assert_eq!(nc.trials, 2);
        assert_eq!(nc.homes.len(), 2);
        assert_eq!(nc.homes[0].modal_type, NatType::PortRestricted);
        assert!(nc.homes[0].cgn_detected);
        assert_eq!(nc.homes[1].modal_type, NatType::FullCone);
        assert!(!nc.homes[1].cgn_detected, "minority flag is not a detection");
        assert_eq!(
            nc.type_counts,
            vec![(NatType::FullCone, 1), (NatType::PortRestricted, 1)]
        );
        assert_eq!(nc.matrix.len(), 1);
        assert_eq!((nc.matrix[0].attempts, nc.matrix[0].successes), (2, 1));
        let india = nc.detection_by_country.iter().find(|c| c.country == Country::India);
        assert_eq!(india.map(|c| (c.flagged, c.probed)), Some((0, 1)));
    }

    #[test]
    fn port_allocation_clusters_lease_timeline_into_blocks() {
        let probe_port = |router: u32, at: u64, port: u16| {
            Record::NatProbe(NatProbeRecord {
                router: RouterId(router),
                at: t(at),
                nat_type: NatType::PortRestricted,
                mapped_ip_hash: 7,
                mapped_port: port,
                cgn_detected: true,
            })
        };
        let collector = Collector::new();
        // Home 1 holds one 512-port block for its whole timeline (three
        // observations, two distinct ports, same block).
        collector.ingest(probe_port(1, 0, 2_050));
        collector.ingest(probe_port(1, 720, 2_070));
        collector.ingest(probe_port(1, 1_440, 2_050));
        // Home 2 was re-leased: its ports span two distant blocks.
        collector.ingest(probe_port(2, 0, 2_050));
        collector.ingest(probe_port(2, 720, 9_000));
        let nc = natchar(&collector.drain_delta());
        let pa = &nc.port_allocation;
        assert_eq!(pa.per_home.len(), 2);
        assert_eq!(pa.per_home[0], PortAllocRow {
            router: RouterId(1),
            distinct_ports: 2,
            blocks: 1,
        });
        assert_eq!(pa.per_home[1], PortAllocRow {
            router: RouterId(2),
            distinct_ports: 2,
            blocks: 2,
        });
        assert_eq!((pa.single_block_homes, pa.multi_block_homes), (1, 1));
    }

    #[test]
    fn modal_tie_breaks_toward_the_milder_type() {
        let collector = Collector::new();
        collector.ingest(probe(9, 0, NatType::Symmetric, false));
        collector.ingest(probe(9, 720, NatType::FullCone, false));
        let nc = natchar(&collector.drain_delta());
        assert_eq!(nc.homes[0].modal_type, NatType::FullCone);
    }

    #[test]
    fn single_probe_home_gets_a_verdict_from_that_one_probe() {
        // One probe is a majority of itself: the modal type is the probed
        // type and a single CGN flag is a detection (1 flag * 2 > 1 probe).
        let collector = Collector::new();
        collector.ingest(probe(5, 0, NatType::Symmetric, true));
        let nc = natchar(&collector.drain_delta());
        assert_eq!(nc.homes.len(), 1);
        assert_eq!(nc.homes[0].probes, 1);
        assert_eq!(nc.homes[0].modal_type, NatType::Symmetric);
        assert!(nc.homes[0].cgn_detected);
        assert_eq!(nc.type_counts, vec![(NatType::Symmetric, 1)]);
        // No punch trials and no registered router: empty matrix, no
        // country row, but the home still appears in the per-home table.
        assert!(nc.matrix.is_empty());
        assert!(nc.detection_by_country.is_empty());
    }

    #[test]
    fn three_way_modal_tie_still_picks_the_mildest_type_present() {
        // One probe each of Restricted / PortRestricted / Symmetric:
        // every count ties at 1, and the winner must be the mildest type
        // that actually appeared — not `ALL[0]` (Open, count 0).
        let collector = Collector::new();
        collector.ingest(probe(9, 0, NatType::Symmetric, false));
        collector.ingest(probe(9, 720, NatType::PortRestricted, false));
        collector.ingest(probe(9, 1_440, NatType::Restricted, false));
        let nc = natchar(&collector.drain_delta());
        assert_eq!(nc.homes[0].modal_type, NatType::Restricted);
    }

    #[test]
    fn detection_score_with_empty_truth_set_grades_flags_as_false_positives() {
        // Probed homes but nothing actually fronted: every flag is a
        // false positive, precision collapses, recall stays 1.0 by
        // convention (no fronted home was missed).
        let homes = [
            HomeNat { router: RouterId(1), modal_type: NatType::Symmetric, probes: 2, cgn_detected: true },
            HomeNat { router: RouterId(2), modal_type: NatType::FullCone, probes: 2, cgn_detected: false },
        ];
        let s = score_detection(&homes, &BTreeSet::new());
        assert_eq!((s.detected, s.false_positives, s.missed), (0, 1, 0));
        assert_eq!((s.precision, s.recall), (0.0, 1.0));

        // Same homes with no flags at all: both ratios are the 1.0
        // convention — nothing flagged, nothing fronted.
        let quiet = [
            HomeNat { router: RouterId(3), modal_type: NatType::Open, probes: 1, cgn_detected: false },
        ];
        let clean = score_detection(&quiet, &BTreeSet::new());
        assert_eq!((clean.detected, clean.false_positives, clean.missed), (0, 0, 0));
        assert_eq!((clean.precision, clean.recall), (1.0, 1.0));
    }

    #[test]
    fn detection_score_counts_all_four_quadrants() {
        let homes = [
            HomeNat { router: RouterId(1), modal_type: NatType::Symmetric, probes: 3, cgn_detected: true },
            HomeNat { router: RouterId(2), modal_type: NatType::FullCone, probes: 3, cgn_detected: false },
            HomeNat { router: RouterId(3), modal_type: NatType::FullCone, probes: 3, cgn_detected: true },
            HomeNat { router: RouterId(4), modal_type: NatType::Restricted, probes: 3, cgn_detected: false },
        ];
        let truth: BTreeSet<RouterId> = [RouterId(1), RouterId(4)].into();
        let s = score_detection(&homes, &truth);
        assert_eq!((s.detected, s.false_positives, s.missed), (1, 1, 1));
        assert_eq!(s.precision, 0.5);
        assert_eq!(s.recall, 0.5);
        let empty = score_detection(&[], &BTreeSet::new());
        assert_eq!((empty.precision, empty.recall), (1.0, 1.0));
    }
}
