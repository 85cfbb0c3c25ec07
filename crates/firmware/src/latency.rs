//! Last-mile latency probing — the BISmark platform capability behind the
//! authors' companion performance study ("Broadband Internet Performance:
//! A View from the Gateway", the paper's reference \[32\]).
//!
//! Every probe round sends a small train of ICMP echo requests through the
//! access link to the nearest measurement server and reads the RTT
//! distribution from the replies. Under load the requests queue behind
//! bulk traffic in the (bloated) CPE buffer, so the *loaded* RTT measures
//! bufferbloat directly — the paper's §6.2 latency complaint made visible.

use crate::records::RouterId;
use serde::{Deserialize, Serialize};
#[cfg(debug_assertions)]
use simnet::icmp::IcmpEcho;
use simnet::icmp::ICMP_HEADER_LEN;
use simnet::link::{Link, TxOutcome, WanPath};
use simnet::rng::DetRng;
use simnet::time::{SimDuration, SimTime};

/// Pings per probe round.
pub const PING_TRAIN: u16 = 10;
/// Ping payload size (timestamp cookie + padding, classic 56-byte ping).
pub const PING_PAYLOAD: usize = 56;
/// Bytes one echo request puts on the uplink: ICMP header, payload and
/// the 20-byte IPv4 header.
const PING_WIRE_LEN: u64 = (ICMP_HEADER_LEN + PING_PAYLOAD + 20) as u64;

/// One latency measurement (a data set the platform collected alongside
/// the six the paper analyzes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyRecord {
    /// Reporting router.
    pub router: RouterId,
    /// Probe time.
    pub at: SimTime,
    /// Minimum RTT over the train.
    pub rtt_min: SimDuration,
    /// Median RTT.
    pub rtt_median: SimDuration,
    /// Maximum RTT.
    pub rtt_max: SimDuration,
    /// Echo requests that got no reply.
    pub lost: u8,
}

/// Run one ping round at `now`: requests traverse the uplink (queueing
/// behind whatever is buffered there), then the WAN path, then return.
/// Returns `None` when every probe was lost.
pub fn probe_latency(
    router: RouterId,
    now: SimTime,
    up_link: &mut Link,
    wan: &WanPath,
    rng: &mut DetRng,
) -> Option<LatencyRecord> {
    let mut rtts = [SimDuration::ZERO; PING_TRAIN as usize];
    let mut replies = 0usize;
    let mut lost = 0u8;
    for seq in 0..PING_TRAIN {
        // Pings are paced 100 ms apart, as ping(8) does by default... the
        // deployment used sub-second spacing; 100 ms keeps the train short.
        let send_at = now + SimDuration::from_millis(100) * u64::from(seq);
        match up_link.transmit(send_at, PING_WIRE_LEN) {
            TxOutcome::Delivered { at } => {
                if !wan.survives(rng) || !wan.survives(rng) {
                    // Forward or return leg lost.
                    lost += 1;
                    continue;
                }
                // Debug builds also emit the reply as a real wire image and
                // parse it back. Release builds skip that heap traffic; it
                // draws no random number and changes no record.
                #[cfg(debug_assertions)]
                {
                    // simlint: allow(hot-path-alloc) — debug-only wire check, absent in release
                    let echo = IcmpEcho::request(router.0 as u16, seq, vec![0xA5; PING_PAYLOAD]);
                    debug_assert_eq!(echo.wire_len() as u64 + 20, PING_WIRE_LEN);
                    let reply = echo.reply_to();
                    debug_assert_eq!(IcmpEcho::parse(&reply.emit()).map(|e| e.seq), Ok(seq));
                }
                // Reply path: transit out and back plus a small server turn
                // and downstream serialization (negligible for 84 bytes).
                rtts[replies] = at.since(send_at)
                    + wan.transit_delay
                    + wan.transit_delay
                    + SimDuration::from_micros(rng.uniform_int(100, 900));
                replies += 1;
            }
            TxOutcome::Dropped => lost += 1,
        }
    }
    let rtts = &mut rtts[..replies];
    rtts.sort_unstable();
    let (&rtt_min, &rtt_max) = (rtts.first()?, rtts.last()?);
    Some(LatencyRecord {
        router,
        at: now,
        rtt_min,
        rtt_median: rtts[rtts.len() / 2],
        rtt_max,
        lost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::link::LinkConfig;

    fn t(secs: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_secs(secs)
    }

    fn wan() -> WanPath {
        WanPath { transit_delay: SimDuration::from_millis(20), loss_prob: 0.0 }
    }

    #[test]
    fn idle_link_rtt_near_propagation() {
        let mut link =
            Link::new(LinkConfig::simple(5_000_000, SimDuration::from_millis(10), 256 * 1024));
        let mut rng = DetRng::new(1);
        let rec = probe_latency(RouterId(1), t(0), &mut link, &wan(), &mut rng).unwrap();
        assert_eq!(rec.lost, 0);
        // 10 ms access + 2×20 ms transit + ~0.1 ms serialization.
        assert!(rec.rtt_min >= SimDuration::from_millis(50));
        assert!(rec.rtt_max < SimDuration::from_millis(55), "idle RTT {}", rec.rtt_max);
    }

    #[test]
    fn bufferbloat_inflates_loaded_rtt() {
        let cfg = LinkConfig::simple(1_000_000, SimDuration::from_millis(10), 256 * 1024);
        let mut idle = Link::new(cfg);
        let mut loaded = Link::new(cfg);
        // Preload the bloated queue with 200 KB of bulk upload.
        for _ in 0..133 {
            loaded.transmit(t(0), 1_500);
        }
        let mut rng = DetRng::new(2);
        let idle_rec = probe_latency(RouterId(1), t(0), &mut idle, &wan(), &mut rng).unwrap();
        let loaded_rec =
            probe_latency(RouterId(1), t(0), &mut loaded, &wan(), &mut rng).unwrap();
        assert!(
            loaded_rec.rtt_median > idle_rec.rtt_median + SimDuration::from_millis(500),
            "bufferbloat must add most of a second: idle {} loaded {}",
            idle_rec.rtt_median,
            loaded_rec.rtt_median
        );
    }

    #[test]
    fn losses_counted() {
        let mut link =
            Link::new(LinkConfig::simple(5_000_000, SimDuration::from_millis(5), 256 * 1024));
        let lossy = WanPath { transit_delay: SimDuration::from_millis(20), loss_prob: 0.4 };
        let mut rng = DetRng::new(3);
        let rec = probe_latency(RouterId(1), t(0), &mut link, &lossy, &mut rng).unwrap();
        assert!(rec.lost > 0, "40% per-leg loss must lose some probes");
        assert!(rec.lost < PING_TRAIN as u8, "but not all of them");
    }

    #[test]
    fn all_lost_yields_none() {
        let mut link =
            Link::new(LinkConfig::simple(5_000_000, SimDuration::from_millis(5), 256 * 1024));
        let dead = WanPath { transit_delay: SimDuration::from_millis(20), loss_prob: 1.0 };
        let mut rng = DetRng::new(4);
        assert_eq!(probe_latency(RouterId(1), t(0), &mut link, &dead, &mut rng), None);
    }

    #[test]
    fn ordering_min_median_max() {
        let mut link =
            Link::new(LinkConfig::simple(2_000_000, SimDuration::from_millis(8), 256 * 1024));
        let mut rng = DetRng::new(5);
        let rec = probe_latency(RouterId(1), t(0), &mut link, &wan(), &mut rng).unwrap();
        assert!(rec.rtt_min <= rec.rtt_median && rec.rtt_median <= rec.rtt_max);
    }
}
