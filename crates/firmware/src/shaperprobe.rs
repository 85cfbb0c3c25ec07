//! ShaperProbe-style capacity estimation (§3.2.2, "Capacity" data set).
//!
//! Every twelve hours the router measures each direction of its access
//! link by sending a back-to-back train of MTU-sized packets *through the
//! link model* and reading the dispersion of their arrivals: consecutive
//! packets of size `B` leaving a bottleneck of rate `r` are spaced `8B/r`
//! apart, so the inter-arrival gaps reveal the rate.
//!
//! Like the real tool, the estimator also detects **token-bucket shaping**
//! ("PowerBoost"): a train long enough to drain the bucket sees a level
//! shift — early gaps at the peak rate, late gaps at the sustained rate.
//! The *sustained* rate is what gets recorded as capacity; the detection
//! bit rides along. Receiver timestamping jitter makes repeated estimates
//! vary a little, as the deployment's did.

use simnet::link::{Link, TxOutcome};
use simnet::rng::DetRng;
use simnet::time::{SimDuration, SimTime};

/// Number of packets per probe train. Sized so the train outlasts the
/// burst phase of a shaped link (the bucket refills at the sustained rate
/// while draining at the peak rate, so the burst phase carries roughly
/// `bucket * peak / (peak - sustained)` bytes) and the tail gaps show the
/// sustained rate.
pub const TRAIN_LEN: usize = 512;
/// Probe packet size (MTU-sized UDP).
pub const PROBE_BYTES: u64 = 1_500;
/// Receiver timestamp jitter bound (one-sided, microseconds).
const JITTER_US: u64 = 60;
/// Peak/sustained ratio above which shaping is declared.
const SHAPING_THRESHOLD: f64 = 1.25;
/// Minimum delivered packets for a usable estimate.
const MIN_DELIVERED: usize = 32;
/// Pacing: when the probe's own backlog reaches half the CPE queue, hold
/// off until most of it drains. Keeps the queue non-empty (so departures
/// stay back-to-back at the bottleneck rate — dispersion is preserved)
/// without overflowing small buffers. The real tool paces its trains for
/// the same reason.
const PACE_FILL_FRACTION: f64 = 0.5;

/// Result of probing one direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeEstimate {
    /// Estimated sustained capacity in bits/s.
    pub bps: u64,
    /// Estimated burst (peak) rate in bits/s; equals `bps` when no shaping
    /// was detected.
    pub peak_bps: u64,
    /// True when a head/tail level shift was observed.
    pub shaping_detected: bool,
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.partial_cmp(b).expect("finite rates"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Run one probe train through `link` starting at `now`. Returns `None`
/// when too few packets survive (e.g. the queue was already full of cross
/// traffic) — the deployment's probes failed sometimes too.
pub fn probe_link(link: &mut Link, now: SimTime, rng: &mut DetRng) -> Option<ProbeEstimate> {
    let mut arrivals: Vec<SimTime> = Vec::with_capacity(TRAIN_LEN);
    let mut send_at = now;
    let fill_limit =
        (link.config().queue_limit_bytes as f64 * PACE_FILL_FRACTION) as u64;
    for _ in 0..TRAIN_LEN {
        if link.backlog_bytes(send_at) + PROBE_BYTES > fill_limit {
            // Wait for ~3/4 of the backlog to drain before continuing.
            let queue_delay = link.queueing_delay(send_at);
            send_at += queue_delay * 0.75;
        }
        match link.transmit(send_at, PROBE_BYTES) {
            TxOutcome::Delivered { at } => {
                // Receiver timestamping jitter.
                let jitter = SimDuration::from_micros(rng.uniform_int(0, JITTER_US));
                arrivals.push(at + jitter);
            }
            TxOutcome::Dropped => {}
        }
    }
    if arrivals.len() < MIN_DELIVERED {
        return None;
    }
    arrivals.sort();
    let gaps: Vec<f64> = arrivals
        .windows(2)
        .map(|w| w[1].since(w[0]).as_secs_f64())
        .filter(|&g| g > 0.0)
        .collect();
    if gaps.len() < MIN_DELIVERED / 2 {
        return None;
    }
    let rate_of = |gap: f64| PROBE_BYTES as f64 * 8.0 / gap;
    // Head: after the first few gaps settle; tail: the last quarter.
    let head_n = (gaps.len() / 8).max(8).min(gaps.len());
    let tail_n = (gaps.len() / 4).max(8).min(gaps.len());
    let mut head: Vec<f64> = gaps[..head_n].iter().map(|&g| rate_of(g)).collect();
    let mut tail: Vec<f64> = gaps[gaps.len() - tail_n..].iter().map(|&g| rate_of(g)).collect();
    let head_rate = median(&mut head);
    let tail_rate = median(&mut tail);
    let shaping = head_rate > SHAPING_THRESHOLD * tail_rate;
    Some(ProbeEstimate {
        bps: tail_rate as u64,
        peak_bps: if shaping { head_rate as u64 } else { tail_rate as u64 },
        shaping_detected: shaping,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::link::LinkConfig;

    fn t(secs: u64) -> SimTime {
        SimTime::from_micros(secs * 1_000_000)
    }

    #[test]
    fn estimates_plain_link_within_five_percent() {
        for rate in [1_000_000u64, 6_000_000, 25_000_000, 95_000_000] {
            let mut link = Link::new(LinkConfig::simple(
                rate,
                SimDuration::from_millis(10),
                4 * 1024 * 1024,
            ));
            let mut rng = DetRng::new(rate);
            let est = probe_link(&mut link, t(0), &mut rng).expect("probe must succeed");
            let err = (est.bps as f64 - rate as f64).abs() / rate as f64;
            assert!(err < 0.05, "rate {rate}: est {} err {err}", est.bps);
            assert!(!est.shaping_detected, "no shaping on a plain link");
        }
    }

    #[test]
    fn detects_token_bucket_shaping() {
        // 10 Mbps sustained, 20 Mbps peak, 192 KiB bucket. The bucket
        // drains at the peak rate while it refills at the sustained one,
        // so the burst phase carries bucket × peak / (peak − sustained) =
        // 393,216 B. The 768,000 B train outlasts it, so its tail reads
        // the sustained rate; a 256-packet train (384,000 B) would not.
        let cfg = LinkConfig::shaped(
            10_000_000,
            20_000_000,
            192 * 1024,
            SimDuration::from_millis(8),
            4 * 1024 * 1024,
        );
        let burst_phase = cfg.bucket_bytes * cfg.peak_bps / (cfg.peak_bps - cfg.rate_bps);
        assert_eq!((burst_phase, TRAIN_LEN as u64 * PROBE_BYTES), (393_216, 768_000));
        assert!(256 * PROBE_BYTES < burst_phase);
        let mut link = Link::new(cfg);
        let mut rng = DetRng::new(7);
        let est = probe_link(&mut link, t(0), &mut rng).expect("probe must succeed");
        assert!(est.shaping_detected, "level shift must be detected");
        let sustained_err = (est.bps as f64 - 10e6).abs() / 10e6;
        assert!(sustained_err < 0.08, "sustained est {}", est.bps);
        assert!(est.peak_bps > 15_000_000, "peak est {}", est.peak_bps);
    }

    #[test]
    fn repeated_probes_vary_but_stay_close() {
        let mut link = Link::new(LinkConfig::simple(
            8_000_000,
            SimDuration::from_millis(5),
            4 * 1024 * 1024,
        ));
        let mut rng = DetRng::new(11);
        let mut estimates = Vec::new();
        for i in 0..20u64 {
            // Space probes out so the queue drains between them.
            let est = probe_link(&mut link, t(i * 3_600), &mut rng).unwrap();
            estimates.push(est.bps as f64);
        }
        let mean = estimates.iter().sum::<f64>() / estimates.len() as f64;
        let min = estimates.iter().cloned().fold(f64::MAX, f64::min);
        let max = estimates.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max > min, "jitter must produce some variation");
        assert!((mean - 8e6).abs() / 8e6 < 0.05, "mean {mean}");
        assert!((max - min) / mean < 0.2, "spread too wide: {min}..{max}");
    }

    #[test]
    fn fails_cleanly_when_queue_cannot_hold_a_packet() {
        // A queue smaller than one probe packet drops the whole train.
        let mut link =
            Link::new(LinkConfig::simple(1_000_000, SimDuration::from_millis(5), 1_400));
        let mut rng = DetRng::new(13);
        assert_eq!(probe_link(&mut link, t(0), &mut rng), None);
    }

    #[test]
    fn pacing_survives_small_queues() {
        // A 10 KB queue cannot hold a burst, but the paced train still
        // measures the link.
        let mut link =
            Link::new(LinkConfig::simple(1_000_000, SimDuration::from_millis(5), 10_000));
        let mut rng = DetRng::new(13);
        let est = probe_link(&mut link, t(0), &mut rng).expect("paced probe succeeds");
        let err = (est.bps as f64 - 1e6).abs() / 1e6;
        assert!(err < 0.05, "est {}", est.bps);
        assert_eq!(link.stats().dropped_packets, 0, "pacing avoids drops");
    }

    #[test]
    fn bufferbloat_scale_queue_with_fast_shaped_link() {
        // The regression that motivated pacing: a 256 KB CPE queue on a
        // fast boosted link. A raw burst would drop two thirds of the
        // train and read back the peak rate; the paced train must find the
        // sustained rate.
        let rate = 86_000_000u64;
        let cfg = LinkConfig::shaped(rate, rate * 2, 192 * 1024, SimDuration::from_millis(8), 256 * 1024);
        let mut link = Link::new(cfg);
        let mut rng = DetRng::new(17);
        let est = probe_link(&mut link, t(0), &mut rng).expect("probe succeeds");
        assert!(est.shaping_detected, "shaping must be detected");
        let err = (est.bps as f64 - rate as f64).abs() / rate as f64;
        assert!(err < 0.10, "sustained est {} vs {rate}", est.bps);
    }

    #[test]
    fn deterministic_given_stream() {
        let mk = || Link::new(LinkConfig::simple(5_000_000, SimDuration::from_millis(5), 1 << 22));
        let a = probe_link(&mut mk(), t(0), &mut DetRng::new(3));
        let b = probe_link(&mut mk(), t(0), &mut DetRng::new(3));
        assert_eq!(a, b);
    }
}
