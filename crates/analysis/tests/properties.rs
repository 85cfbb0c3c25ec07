//! Property-based tests for the statistics toolkit and the figure
//! computations' order-independence (results must not depend on record
//! ordering, since the collector merges parallel uploads).

use analysis::stats::{mean, median, std_dev, Cdf, MeanStd};
use analysis::{ReportWindows, StudyReport};
use collector::windows::Window;
use collector::{Collector, RouterMeta};
use firmware::records::{DeviceCensusRecord, Record, RouterId};
use household::Country;
use proptest::prelude::*;
use simnet::time::{SimDuration, SimTime};

proptest! {
    #[test]
    fn quantiles_are_monotone_and_bounded(samples in proptest::collection::vec(-1e9f64..1e9, 1..200)) {
        let cdf = Cdf::from_samples(samples.iter().copied());
        let lo = cdf.quantile(0.0);
        let hi = cdf.quantile(1.0);
        let mut last = lo;
        for i in 0..=20 {
            let q = cdf.quantile(i as f64 / 20.0);
            prop_assert!(q >= last - 1e-9);
            prop_assert!(q >= lo && q <= hi);
            last = q;
        }
    }

    #[test]
    fn fraction_at_or_below_is_a_cdf(samples in proptest::collection::vec(-1e6f64..1e6, 1..200),
                                     probe in -2e6f64..2e6) {
        let cdf = Cdf::from_samples(samples.iter().copied());
        let f = cdf.fraction_at_or_below(probe);
        prop_assert!((0.0..=1.0).contains(&f));
        let min = cdf.quantile(0.0);
        let max = cdf.quantile(1.0);
        if probe < min {
            prop_assert_eq!(f, 0.0);
        }
        if probe >= max {
            prop_assert_eq!(f, 1.0);
        }
    }

    #[test]
    fn median_between_min_and_max(samples in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let m = median(&samples);
        let lo = samples.iter().cloned().fold(f64::MAX, f64::min);
        let hi = samples.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(m >= lo && m <= hi);
    }

    #[test]
    fn mean_std_shift_invariance(samples in proptest::collection::vec(-1e3f64..1e3, 2..100),
                                 shift in -1e3f64..1e3) {
        let base = MeanStd::of(&samples);
        let shifted: Vec<f64> = samples.iter().map(|x| x + shift).collect();
        let after = MeanStd::of(&shifted);
        prop_assert!((after.mean - base.mean - shift).abs() < 1e-6);
        prop_assert!((after.std - base.std).abs() < 1e-6);
        prop_assert!(std_dev(&samples) >= 0.0);
        prop_assert!((mean(&shifted) - mean(&samples) - shift).abs() < 1e-6);
    }

    #[test]
    fn figures_are_ingest_order_independent(
        censuses in proptest::collection::vec((0u32..5, 0u64..200, 0u8..3, 0u8..6, 0u8..3), 1..80),
        seed in any::<u64>(),
    ) {
        // Build the same census records in two different ingest orders; the
        // analysis must not care.
        // Deduplicate by (router, hour): a real router reports one census
        // per instant, and the collector's stable sort otherwise has no
        // total order to restore.
        let mut seen = std::collections::HashSet::new();
        let censuses: Vec<_> = censuses
            .into_iter()
            .filter(|(router, hour, ..)| seen.insert((*router, *hour)))
            .collect();
        let build = |order: &[usize]| {
            let collector = Collector::new();
            for router in 0..5u32 {
                collector.register(RouterMeta {
                    router: RouterId(router),
                    country: if router % 2 == 0 { Country::UnitedStates } else { Country::India },
                    traffic_consent: false,
                });
            }
            for &i in order {
                let (router, hour, wired, w24, w5) = censuses[i];
                collector.ingest(Record::DeviceCensus(DeviceCensusRecord {
                    router: RouterId(router),
                    at: SimTime::EPOCH + SimDuration::from_hours(hour),
                    wired,
                    wireless_24: w24,
                    wireless_5: w5,
                }));
            }
            collector.drain_delta()
        };
        let forward: Vec<usize> = (0..censuses.len()).collect();
        let mut shuffled = forward.clone();
        let mut rng = simnet::rng::DetRng::new(seed);
        rng.shuffle(&mut shuffled);
        let a = build(&forward);
        let b = build(&shuffled);
        let windows = ReportWindows::spanning(Window {
            start: SimTime::EPOCH,
            end: SimTime::EPOCH + SimDuration::from_hours(200),
        });
        let report_a = StudyReport::compute(&a, windows);
        let report_b = StudyReport::compute(&b, windows);
        let (fig8_a, fig8_b) = (&report_a.fig8, &report_b.fig8);
        prop_assert_eq!(fig8_a.developed.0.mean.to_bits(), fig8_b.developed.0.mean.to_bits());
        prop_assert_eq!(fig8_a.developing.1.std.to_bits(), fig8_b.developing.1.std.to_bits());
        prop_assert_eq!(report_a.fig9.ghz24.mean.to_bits(), report_b.fig9.ghz24.mean.to_bits());
    }
}
