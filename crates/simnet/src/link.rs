//! Access-link model: serialization delay, token-bucket shaping, and a
//! drop-tail byte queue.
//!
//! This is the mechanism behind three of the paper's results:
//!
//! * **Capacity (Fig 14–15):** the firmware's ShaperProbe-style estimator
//!   sends a packet train *through* this model and measures dispersion, so
//!   capacity estimates are produced the way the deployment produced them
//!   rather than read out of a config field.
//! * **Token-bucket shaping:** many ISPs burst above the sustained rate
//!   ("PowerBoost"); the bucket lets short trains observe the peak rate
//!   while long transfers see the shaped rate, which is exactly the
//!   dichotomy ShaperProbe was built to detect.
//! * **Bufferbloat (Fig 16):** consumer gateways ship with queues that are
//!   far too deep. A deep drop-tail queue lets an unpaced sender burst far
//!   above the drain rate for whole seconds; utilization measured *at the
//!   LAN side* (as the firmware measures it) then exceeds the estimated
//!   capacity, reproducing the paper's "utilization > capacity" homes.
//!
//! The model is analytic FIFO rather than per-byte event-driven: each
//! [`Link::transmit`] call computes the packet's departure time in O(1)
//! amortized, so probe trains are exact while costing nothing when idle.
//! An offer to a link whose transmitter has finished (the once-a-minute
//! heartbeat's usual case) forgets the in-flight packets without walking
//! them, and the serialization time of the last size and rate seen is
//! kept, so a repeated packet costs no division.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Static description of one direction of an access link.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Sustained (shaped) rate in bits per second.
    pub rate_bps: u64,
    /// Peak rate in bits per second while token-bucket credit remains.
    /// Equal to `rate_bps` when the ISP does not burst.
    pub peak_bps: u64,
    /// Token bucket depth in bytes (burst credit). Zero disables bursting.
    pub bucket_bytes: u64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Drop-tail queue limit in bytes. Deep queues (hundreds of KB) model
    /// bufferbloat-era CPE.
    pub queue_limit_bytes: u64,
}

impl LinkConfig {
    /// A plain unshaped link: no burst bucket, the given rate, delay, and a
    /// queue sized in bytes.
    pub fn simple(rate_bps: u64, delay: SimDuration, queue_limit_bytes: u64) -> Self {
        LinkConfig { rate_bps, peak_bps: rate_bps, bucket_bytes: 0, delay, queue_limit_bytes }
    }

    /// A link with ISP-style burst shaping (peak rate until the bucket
    /// drains, sustained rate afterwards).
    pub fn shaped(
        rate_bps: u64,
        peak_bps: u64,
        bucket_bytes: u64,
        delay: SimDuration,
        queue_limit_bytes: u64,
    ) -> Self {
        assert!(peak_bps >= rate_bps, "peak rate below sustained rate");
        LinkConfig { rate_bps, peak_bps, bucket_bytes, delay, queue_limit_bytes }
    }

    /// Time to serialize `bytes` at the sustained rate.
    pub fn serialization(&self, bytes: u64) -> SimDuration {
        SimDuration::from_micros(bytes.saturating_mul(8_000_000) / self.rate_bps.max(1))
    }
}

/// Result of offering a packet to the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// Accepted; the last bit arrives at the far end at this instant.
    Delivered {
        /// Far-end arrival instant (serialization + queueing + propagation).
        at: SimTime,
    },
    /// The drop-tail queue was full.
    Dropped,
}

/// Running counters, exposed for tests and diagnostics.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct LinkStats {
    /// Packets accepted onto the queue.
    pub accepted_packets: u64,
    /// Bytes accepted onto the queue.
    pub accepted_bytes: u64,
    /// Packets dropped at the tail.
    pub dropped_packets: u64,
    /// Bytes dropped at the tail.
    pub dropped_bytes: u64,
}

/// One direction of an access link with a drop-tail queue and optional
/// token-bucket shaping.
///
/// ```
/// use simnet::link::{Link, LinkConfig, TxOutcome};
/// use simnet::time::{SimDuration, SimTime};
///
/// // 8 Mbps with 10 ms propagation: a 1000-byte packet lands 11 ms later.
/// let cfg = LinkConfig::simple(8_000_000, SimDuration::from_millis(10), 64_000);
/// let mut link = Link::new(cfg);
/// match link.transmit(SimTime::EPOCH, 1_000) {
///     TxOutcome::Delivered { at } => assert_eq!(at.as_micros(), 11_000),
///     TxOutcome::Dropped => unreachable!("queue is empty"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    cfg: LinkConfig,
    /// Instant at which the transmitter finishes everything accepted so far.
    busy_until: SimTime,
    /// Packets accepted but not yet fully serialized: (finish time, bytes).
    in_flight: VecDeque<(SimTime, u64)>,
    /// Bytes among `in_flight`.
    queued_bytes: u64,
    /// Token bucket credit in bytes.
    tokens: f64,
    /// Last time the bucket was refilled.
    tokens_at: SimTime,
    /// The last serialization time computed, as `(bytes, rate, time)`.
    tx_memo: (u64, u64, SimDuration),
    stats: LinkStats,
}

impl Link {
    /// A fresh idle link.
    pub fn new(cfg: LinkConfig) -> Self {
        Link {
            cfg,
            busy_until: SimTime::EPOCH,
            in_flight: VecDeque::new(),
            queued_bytes: 0,
            tokens: cfg.bucket_bytes as f64,
            tokens_at: SimTime::EPOCH,
            // No packet has zero bytes, so this never matches.
            tx_memo: (0, 0, SimDuration::ZERO),
            stats: LinkStats::default(),
        }
    }

    /// The static configuration.
    pub fn config(&self) -> &LinkConfig {
        &self.cfg
    }

    /// Counters so far.
    pub fn stats(&self) -> LinkStats {
        self.stats
    }

    /// Bytes currently queued or being serialized, as of `now`.
    pub fn backlog_bytes(&mut self, now: SimTime) -> u64 {
        self.drain(now);
        self.queued_bytes
    }

    /// Queueing delay a new arrival would currently experience (excluding
    /// its own serialization and the propagation delay).
    pub fn queueing_delay(&mut self, now: SimTime) -> SimDuration {
        self.drain(now);
        self.busy_until.saturating_since(now)
    }

    /// True when nothing is queued or in serialization as of `now`.
    pub fn is_idle(&mut self, now: SimTime) -> bool {
        self.backlog_bytes(now) == 0
    }

    fn drain(&mut self, now: SimTime) {
        // The last packet in flight finishes at `busy_until`, and none
        // before it finishes later.
        if self.busy_until <= now {
            self.in_flight.clear();
            self.queued_bytes = 0;
            return;
        }
        while let Some(&(finish, bytes)) = self.in_flight.front() {
            if finish <= now {
                self.in_flight.pop_front();
                self.queued_bytes -= bytes;
            } else {
                break;
            }
        }
    }

    fn refill_tokens(&mut self, upto: SimTime) {
        if self.cfg.bucket_bytes == 0 {
            return;
        }
        let dt = upto.saturating_since(self.tokens_at).as_secs_f64();
        self.tokens =
            (self.tokens + dt * self.cfg.rate_bps as f64 / 8.0).min(self.cfg.bucket_bytes as f64);
        self.tokens_at = upto;
    }

    /// Offer a packet of `bytes` to the link at time `now`.
    ///
    /// Calls must be made with non-decreasing `now` (FIFO link). Returns the
    /// far-end delivery instant, or `Dropped` when the queue is full.
    pub fn transmit(&mut self, now: SimTime, bytes: u64) -> TxOutcome {
        assert!(bytes > 0, "zero-byte packet");
        self.drain(now);
        if self.queued_bytes + bytes > self.cfg.queue_limit_bytes {
            self.stats.dropped_packets += 1;
            self.stats.dropped_bytes += bytes;
            return TxOutcome::Dropped;
        }
        let start = self.busy_until.max(now);
        self.refill_tokens(start);
        let conforming = self.cfg.bucket_bytes > 0 && self.tokens >= bytes as f64;
        let rate = if conforming {
            self.tokens -= bytes as f64;
            self.cfg.peak_bps
        } else {
            self.cfg.rate_bps
        };
        let finish = start + self.serialization_at(bytes, rate);
        if self.cfg.bucket_bytes > 0 && !conforming {
            // A non-conforming packet is paced by the bucket's refill: the
            // tokens accrued while it serializes are what admitted it, so
            // they are consumed, not banked. Without this, a backlogged
            // sender would oscillate between peak and sustained gaps and
            // exceed the shaped long-run rate.
            self.tokens = 0.0;
            self.tokens_at = finish;
        }
        self.busy_until = finish;
        self.in_flight.push_back((finish, bytes));
        self.queued_bytes += bytes;
        self.stats.accepted_packets += 1;
        self.stats.accepted_bytes += bytes;
        TxOutcome::Delivered { at: finish + self.cfg.delay }
    }

    /// Time to serialize `bytes` at `rate`, rounded up to a microsecond.
    fn serialization_at(&mut self, bytes: u64, rate: u64) -> SimDuration {
        if (self.tx_memo.0, self.tx_memo.1) != (bytes, rate) {
            let micros = bytes.saturating_mul(8_000_000).div_ceil(rate.max(1));
            self.tx_memo = (bytes, rate, SimDuration::from_micros(micros));
        }
        self.tx_memo.2
    }

    /// Reset the dynamic state (used when a router power-cycles; the queue
    /// contents do not survive).
    pub fn reset(&mut self, now: SimTime) {
        self.busy_until = now;
        self.in_flight.clear();
        self.queued_bytes = 0;
        self.tokens = self.cfg.bucket_bytes as f64;
        self.tokens_at = now;
    }
}

/// A wide-area path from the home's WAN side to a measurement server:
/// a base RTT plus an independent loss probability per packet. Heartbeats
/// cross one of these, which is why the paper cannot distinguish "router
/// off" from "path lossy" (§3.3) — and neither can our reproduction, by
/// construction.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WanPath {
    /// One-way delay from the access-link far end to the server.
    pub transit_delay: SimDuration,
    /// Probability that any given packet is lost in transit.
    pub loss_prob: f64,
}

impl WanPath {
    /// A loss-free path with the given one-way transit delay.
    pub fn reliable(transit_delay: SimDuration) -> Self {
        WanPath { transit_delay, loss_prob: 0.0 }
    }

    /// Whether a packet survives the path, drawn from `rng`.
    pub fn survives(&self, rng: &mut crate::rng::DetRng) -> bool {
        !rng.chance(self.loss_prob)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn serialization_and_delay() {
        // 8 Mbps, 10 ms delay: a 1000-byte packet takes 1 ms to serialize.
        let mut link = Link::new(LinkConfig::simple(8_000_000, SimDuration::from_millis(10), 64_000));
        match link.transmit(t(0), 1000) {
            TxOutcome::Delivered { at } => {
                assert_eq!(at, t(1_000 + 10_000));
            }
            TxOutcome::Dropped => panic!("unexpected drop"),
        }
    }

    #[test]
    fn back_to_back_packets_queue_fifo() {
        let mut link = Link::new(LinkConfig::simple(8_000_000, SimDuration::ZERO, 64_000));
        let first = link.transmit(t(0), 1000);
        let second = link.transmit(t(0), 1000);
        assert_eq!(first, TxOutcome::Delivered { at: t(1_000) });
        assert_eq!(second, TxOutcome::Delivered { at: t(2_000) });
    }

    #[test]
    fn dispersion_equals_bottleneck_rate() {
        // The property ShaperProbe relies on: back-to-back packets of size B
        // leave the bottleneck spaced B*8/rate apart.
        let rate = 12_345_678u64;
        let mut link = Link::new(LinkConfig::simple(rate, SimDuration::from_millis(5), 1 << 20));
        let size = 1500u64;
        let mut last = None;
        let mut gaps = Vec::new();
        for _ in 0..50 {
            if let TxOutcome::Delivered { at } = link.transmit(t(0), size) {
                if let Some(prev) = last {
                    gaps.push(at.since(prev).as_secs_f64());
                }
                last = Some(at);
            }
        }
        let mean_gap = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let implied = size as f64 * 8.0 / mean_gap;
        assert!((implied - rate as f64).abs() / (rate as f64) < 0.01, "implied {implied}");
    }

    #[test]
    fn drop_tail_queue_limit() {
        // Queue of 3000 bytes, everything sent at t=0: the fourth 1000-byte
        // packet exceeds the limit.
        let mut link = Link::new(LinkConfig::simple(8_000_000, SimDuration::ZERO, 3_000));
        for _ in 0..3 {
            assert!(matches!(link.transmit(t(0), 1000), TxOutcome::Delivered { .. }));
        }
        assert_eq!(link.transmit(t(0), 1000), TxOutcome::Dropped);
        assert_eq!(link.stats().dropped_packets, 1);
        // After the head drains, space opens again.
        assert!(matches!(link.transmit(t(1_000), 1000), TxOutcome::Delivered { .. }));
    }

    #[test]
    fn backlog_and_queueing_delay_decay() {
        let mut link = Link::new(LinkConfig::simple(8_000_000, SimDuration::ZERO, 1 << 20));
        for _ in 0..4 {
            link.transmit(t(0), 1000);
        }
        assert_eq!(link.backlog_bytes(t(0)), 4_000);
        assert_eq!(link.queueing_delay(t(0)), SimDuration::from_millis(4));
        assert_eq!(link.backlog_bytes(t(2_000)), 2_000);
        assert!(link.is_idle(t(4_000)));
    }

    /// The bufferbloat ablation behind Fig 16: a saturating sender fills
    /// a 1 Mbps uplink's drop-tail queue of 16 KB to 1 MB with 1,500-byte
    /// packets. The standing delay the next arrival meets is the whole
    /// queue's serialization time, 12 ms per packet: linear in the depth,
    /// from 120 ms to 8.4 s.
    #[test]
    fn bufferbloat_delay_grows_with_queue_depth() {
        let standing_delay = |queue_kb: u64| {
            let cfg = LinkConfig::simple(1_000_000, SimDuration::from_millis(10), queue_kb * 1024);
            let mut link = Link::new(cfg);
            let mut accepted = 0;
            while accepted < 10_000
                && matches!(link.transmit(t(0), 1_500), TxOutcome::Delivered { .. })
            {
                accepted += 1;
            }
            assert_eq!(accepted, queue_kb * 1024 / 1_500, "the queue holds whole packets");
            link.queueing_delay(t(0)).as_micros()
        };
        let delays = [16, 64, 256, 1024].map(standing_delay);
        assert_eq!(delays, [120_000, 516_000, 2_088_000, 8_388_000]);
    }

    #[test]
    fn token_bucket_gives_peak_then_sustained() {
        // 10 Mbps sustained, 20 Mbps peak, 15 KB bucket. First ten 1500-byte
        // packets go at peak; later ones at sustained rate.
        let cfg = LinkConfig::shaped(
            10_000_000,
            20_000_000,
            15_000,
            SimDuration::ZERO,
            1 << 20,
        );
        let mut link = Link::new(cfg);
        let mut times = Vec::new();
        for _ in 0..20 {
            if let TxOutcome::Delivered { at } = link.transmit(t(0), 1500) {
                times.push(at);
            }
        }
        let early_gap = times[1].since(times[0]).as_micros();
        let late_gap = times[19].since(times[18]).as_micros();
        assert_eq!(early_gap, 600, "peak-rate gap");
        assert_eq!(late_gap, 1200, "sustained-rate gap");
    }

    #[test]
    fn bucket_refills_when_idle() {
        let cfg =
            LinkConfig::shaped(10_000_000, 20_000_000, 15_000, SimDuration::ZERO, 1 << 20);
        let mut link = Link::new(cfg);
        // Drain the bucket.
        for _ in 0..10 {
            link.transmit(t(0), 1500);
        }
        // Wait long enough to refill 15 KB at 10 Mbps = 12 ms.
        let later = t(20_000_000);
        let a = match link.transmit(later, 1500) {
            TxOutcome::Delivered { at } => at,
            _ => panic!(),
        };
        let b = match link.transmit(later, 1500) {
            TxOutcome::Delivered { at } => at,
            _ => panic!(),
        };
        assert_eq!(b.since(a).as_micros(), 600, "refilled bucket restores peak rate");
    }

    #[test]
    fn reset_clears_queue() {
        let mut link = Link::new(LinkConfig::simple(1_000_000, SimDuration::ZERO, 1 << 20));
        for _ in 0..10 {
            link.transmit(t(0), 1500);
        }
        link.reset(t(5));
        assert!(link.is_idle(t(5)));
        // Transmissions resume immediately at the reset instant.
        assert_eq!(
            link.transmit(t(5), 125),
            TxOutcome::Delivered { at: t(5) + SimDuration::from_millis(1) }
        );
    }

    #[test]
    fn wan_path_loss() {
        let mut rng = DetRng::new(3);
        let lossy = WanPath { transit_delay: SimDuration::from_millis(40), loss_prob: 0.3 };
        let survived = (0..10_000).filter(|_| lossy.survives(&mut rng)).count();
        let frac = survived as f64 / 10_000.0;
        assert!((frac - 0.7).abs() < 0.03, "survival {frac}");
        let reliable = WanPath::reliable(SimDuration::from_millis(40));
        assert!((0..100).all(|_| reliable.survives(&mut rng)));
    }
}
