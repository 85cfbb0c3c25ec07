//! Max-min fair bandwidth allocation (progressive water-filling).
//!
//! The access link is the bottleneck for nearly all home traffic, and TCP's
//! long-run behavior on a shared bottleneck approximates max-min fairness
//! with per-flow rate caps (application-limited flows such as video streams
//! never take more than their bitrate). The fluid flow model advances
//! second by second; each second, or each run of identical seconds, asks
//! this module how fast each active flow moves.

/// One flow's demand for an allocation round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Demand {
    /// Rate the flow could use, in bits/s. `f64::INFINITY` for
    /// backlogged (bulk) flows.
    pub rate_cap_bps: f64,
}

/// Compute a max-min fair allocation of `capacity_bps` across `demands`.
///
/// ```
/// use netstack::fair::{max_min_fair, Demand};
/// // A 1 Mbps stream and two bulk flows on a 10 Mbps link.
/// let rates = max_min_fair(10e6, &[
///     Demand { rate_cap_bps: 1e6 },
///     Demand { rate_cap_bps: f64::INFINITY },
///     Demand { rate_cap_bps: f64::INFINITY },
/// ]);
/// assert_eq!(rates, vec![1e6, 4.5e6, 4.5e6]);
/// ```
///
/// Returns one rate per demand, in the same order. Properties:
/// * no flow exceeds its cap;
/// * the sum never exceeds capacity;
/// * unused capacity exists only when every flow is cap-limited;
/// * flows with equal caps get equal rates.
pub fn max_min_fair(capacity_bps: f64, demands: &[Demand]) -> Vec<f64> {
    let mut rates = Vec::new();
    max_min_fair_into(capacity_bps, demands, &mut rates, &mut Vec::new());
    rates
}

/// [`max_min_fair`] into caller-owned buffers: `rates` receives one rate
/// per demand, and `order` is scratch for the cap-ascending sort. Both
/// are overwritten, so a caller that keeps them across rounds allocates
/// only when the demand count reaches a new high.
pub fn max_min_fair_into(
    capacity_bps: f64,
    demands: &[Demand],
    rates: &mut Vec<f64>,
    order: &mut Vec<usize>,
) {
    assert!(capacity_bps >= 0.0);
    let n = demands.len();
    rates.clear();
    rates.resize(n, 0.0);
    if n == 0 || capacity_bps == 0.0 {
        return;
    }
    // Sort indices by cap ascending; satisfy the smallest demands first.
    // The sort is stable, so equal caps are served in demand order and the
    // `remaining` subtractions always run in the same sequence.
    order.clear();
    order.extend(0..n);
    order.sort_by(|&a, &b| {
        demands[a]
            .rate_cap_bps
            .partial_cmp(&demands[b].rate_cap_bps)
            .expect("rate caps must not be NaN")
    });
    let mut remaining = capacity_bps;
    let mut unsatisfied = n;
    for &i in order.iter() {
        let fair_share = remaining / unsatisfied as f64;
        let rate = demands[i].rate_cap_bps.min(fair_share);
        rates[i] = rate;
        remaining -= rate;
        unsatisfied -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INF: f64 = f64::INFINITY;

    fn demands(caps: &[f64]) -> Vec<Demand> {
        caps.iter().map(|&c| Demand { rate_cap_bps: c }).collect()
    }

    #[test]
    fn empty_input() {
        assert!(max_min_fair(1e6, &[]).is_empty());
    }

    #[test]
    fn single_backlogged_flow_takes_everything() {
        let r = max_min_fair(10e6, &demands(&[INF]));
        assert_eq!(r, vec![10e6]);
    }

    #[test]
    fn equal_backlogged_flows_split_evenly() {
        let r = max_min_fair(9e6, &demands(&[INF, INF, INF]));
        assert_eq!(r, vec![3e6, 3e6, 3e6]);
    }

    #[test]
    fn capped_flow_releases_share() {
        // One 1 Mbps stream plus two bulk flows on a 10 Mbps link:
        // the stream gets 1, the bulks split the remaining 9.
        let r = max_min_fair(10e6, &demands(&[1e6, INF, INF]));
        assert_eq!(r[0], 1e6);
        assert_eq!(r[1], 4.5e6);
        assert_eq!(r[2], 4.5e6);
    }

    #[test]
    fn all_cap_limited_leaves_spare_capacity() {
        let r = max_min_fair(100e6, &demands(&[1e6, 2e6]));
        assert_eq!(r, vec![1e6, 2e6]);
    }

    #[test]
    fn oversubscribed_caps_share_fairly() {
        // Two flows both capped at 8 Mbps on a 10 Mbps link: 5 each.
        let r = max_min_fair(10e6, &demands(&[8e6, 8e6]));
        assert_eq!(r, vec![5e6, 5e6]);
    }

    #[test]
    fn mixed_caps_max_min_property() {
        let caps = [0.5e6, 3e6, INF, INF];
        let r = max_min_fair(10e6, &demands(&caps));
        // Small demand fully satisfied.
        assert_eq!(r[0], 0.5e6);
        assert_eq!(r[1], 3e6);
        // Remaining 6.5 split between the two backlogged flows.
        assert!((r[2] - 3.25e6).abs() < 1.0 && (r[3] - 3.25e6).abs() < 1.0);
        let total: f64 = r.iter().sum();
        assert!((total - 10e6).abs() < 1.0);
    }

    #[test]
    fn zero_capacity_gives_zero_rates() {
        let r = max_min_fair(0.0, &demands(&[INF, 1e6]));
        assert_eq!(r, vec![0.0, 0.0]);
    }

    #[test]
    fn never_exceeds_capacity_or_caps() {
        let caps = [2e6, 5e6, INF, 0.1e6, 7e6];
        let r = max_min_fair(8e6, &demands(&caps));
        let total: f64 = r.iter().sum();
        assert!(total <= 8e6 + 1.0);
        for (rate, cap) in r.iter().zip(&caps) {
            assert!(rate <= cap);
        }
    }
}
