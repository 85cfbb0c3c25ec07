//! The home wireless environment: bands, channels, the gateway's two
//! radios, neighboring access points, association, scanning, and a
//! contention model.
//!
//! The deployment's routers had one 802.11gn radio (2.4 GHz, default
//! channel 11) and one 802.11an radio (5 GHz, default channel 36). The
//! paper's infrastructure results (Figs 9–11) rest on three observable
//! facts this module reproduces mechanistically:
//!
//! * stations associate per band, and single-band (2.4 GHz-only) devices
//!   are common, so the 2.4 GHz radio carries more stations;
//! * a scan sees only APs on the radio's configured channel (plus partial
//!   visibility of overlapping 2.4 GHz channels), so the WiFi data set is a
//!   *sample* of the neighborhood, not a census;
//! * scanning can knock associated clients off (§3.2.2), which is why the
//!   firmware throttles scans when clients are present.

use crate::packet::MacAddr;
use crate::rng::DetRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The two spectrum bands of the WNDR3800.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Band {
    /// 2.4 GHz (802.11gn radio).
    Ghz24,
    /// 5 GHz (802.11an radio).
    Ghz5,
}

impl Band {
    /// Both bands, 2.4 first.
    pub const ALL: [Band; 2] = [Band::Ghz24, Band::Ghz5];

    /// The default channel BISmark configures on this band (§3.2.2).
    pub fn default_channel(self) -> Channel {
        match self {
            Band::Ghz24 => Channel { band: self, number: 11 },
            Band::Ghz5 => Channel { band: self, number: 36 },
        }
    }

    /// Nominal PHY rate in bits per second for a good-signal station.
    pub fn phy_rate_bps(self) -> u64 {
        match self {
            Band::Ghz24 => 72_000_000,  // single-stream 802.11n, 20 MHz
            Band::Ghz5 => 150_000_000,  // 802.11n, 40 MHz
        }
    }
}

impl std::fmt::Display for Band {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Band::Ghz24 => write!(f, "2.4 GHz"),
            Band::Ghz5 => write!(f, "5 GHz"),
        }
    }
}

/// A (band, channel-number) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Channel {
    /// The spectrum band.
    pub band: Band,
    /// The channel number within the band.
    pub number: u8,
}

impl Channel {
    /// Construct a channel, validating the number for the band
    /// (1–11 on 2.4 GHz as in the US regulatory domain; the common UNII-1/2
    /// set on 5 GHz).
    pub fn new(band: Band, number: u8) -> Option<Channel> {
        let valid = match band {
            Band::Ghz24 => (1..=11).contains(&number),
            Band::Ghz5 => matches!(number, 36 | 40 | 44 | 48 | 52 | 56 | 60 | 64 | 149 | 153 | 157 | 161),
        };
        valid.then_some(Channel { band, number })
    }

    /// Degree of spectral overlap with another channel in `[0, 1]`:
    /// 1 for the same channel, a partial value for overlapping 2.4 GHz
    /// channels (which are 5 MHz apart but 20 MHz wide), 0 otherwise.
    pub fn overlap(self, other: Channel) -> f64 {
        if self.band != other.band {
            return 0.0;
        }
        if self.number == other.number {
            return 1.0;
        }
        match self.band {
            Band::Ghz24 => {
                let gap = self.number.abs_diff(other.number);
                if gap < 5 {
                    1.0 - f64::from(gap) / 5.0
                } else {
                    0.0
                }
            }
            // 5 GHz channels in this set do not overlap.
            Band::Ghz5 => 0.0,
        }
    }
}

/// A neighboring access point visible from (or interfering with) the home.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NeighborAp {
    /// The AP's BSSID.
    pub bssid: MacAddr,
    /// The channel the AP beacons on.
    pub channel: Channel,
    /// Received signal strength at the home router, in dBm (negative).
    pub signal_dbm: i8,
    /// Fraction of airtime this AP's own traffic occupies, in `[0, 1]`.
    pub airtime_load: f64,
}

/// One entry of a scan result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScanEntry {
    /// The detected AP's BSSID.
    pub bssid: MacAddr,
    /// The channel it was seen on.
    pub channel: Channel,
    /// Received signal strength in dBm.
    pub signal_dbm: i8,
}

/// Result of a radio scan: what was seen, and which associated stations the
/// scan knocked off.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanOutcome {
    /// Access points detected during the scan.
    pub visible: Vec<ScanEntry>,
    /// Stations the scan knocked off this radio.
    pub dropped_stations: Vec<MacAddr>,
}

/// Minimum signal for an AP to be detectable at all.
const DETECTION_FLOOR_DBM: i8 = -92;
/// Probability that a scan disassociates any given associated station.
const SCAN_DROP_PROB: f64 = 0.08;

/// One radio of the gateway (the router has one per band).
#[derive(Debug, Clone)]
pub struct Radio {
    channel: Channel,
    stations: BTreeMap<MacAddr, ()>,
}

impl Radio {
    /// A radio on the band's BISmark default channel.
    pub fn new(band: Band) -> Radio {
        Radio { channel: band.default_channel(), stations: BTreeMap::new() }
    }

    /// The configured channel.
    pub fn channel(&self) -> Channel {
        self.channel
    }

    /// The band this radio serves.
    pub fn band(&self) -> Band {
        self.channel.band
    }

    /// Associate a station. Idempotent.
    pub fn associate(&mut self, mac: MacAddr) {
        self.stations.insert(mac, ());
    }

    /// Disassociate a station. Returns whether it was associated.
    pub fn disassociate(&mut self, mac: MacAddr) -> bool {
        self.stations.remove(&mac).is_some()
    }

    /// Is this station currently associated?
    pub fn is_associated(&self, mac: MacAddr) -> bool {
        self.stations.contains_key(&mac)
    }

    /// Currently associated stations, in MAC order (deterministic).
    pub fn stations(&self) -> impl Iterator<Item = MacAddr> + '_ {
        self.stations.keys().copied()
    }

    /// Number of associated stations.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// Drop every station (power cycle).
    pub fn reset(&mut self) {
        self.stations.clear();
    }

    /// Scan the configured channel against a neighborhood. Detection is
    /// probabilistic in signal strength and channel overlap; each associated
    /// station is independently knocked off with a small probability — the
    /// side effect the paper's firmware throttles scans to avoid.
    pub fn scan(&mut self, neighborhood: &[NeighborAp], rng: &mut DetRng) -> ScanOutcome {
        let mut visible = Vec::new();
        for ap in neighborhood {
            let overlap = self.channel.overlap(ap.channel);
            if overlap <= 0.0 || ap.signal_dbm < DETECTION_FLOOR_DBM {
                continue;
            }
            // Stronger, more-overlapping APs are detected more reliably.
            let margin = f64::from(ap.signal_dbm - DETECTION_FLOOR_DBM);
            let p_detect = (margin / 20.0).min(1.0) * overlap;
            if rng.chance(p_detect) {
                visible.push(ScanEntry {
                    bssid: ap.bssid,
                    channel: ap.channel,
                    signal_dbm: ap.signal_dbm,
                });
            }
        }
        let mut dropped = Vec::new();
        let stations: Vec<MacAddr> = self.stations().collect();
        for mac in stations {
            if rng.chance(SCAN_DROP_PROB) {
                self.stations.remove(&mac);
                dropped.push(mac);
            }
        }
        ScanOutcome { visible, dropped_stations: dropped }
    }

    /// Fraction of airtime available to this BSS given co-channel neighbor
    /// load, in `(0, 1]`. Used by the flow layer to derate wireless
    /// throughput.
    pub fn airtime_share(&self, neighborhood: &[NeighborAp]) -> f64 {
        let foreign_load: f64 = neighborhood
            .iter()
            .map(|ap| ap.airtime_load * self.channel.overlap(ap.channel))
            .sum();
        1.0 / (1.0 + foreign_load)
    }

    /// Effective throughput available to one station when `active` stations
    /// share the radio, accounting for MAC efficiency (~60%) and neighbor
    /// contention.
    pub fn per_station_throughput_bps(&self, neighborhood: &[NeighborAp], active: usize) -> u64 {
        let active = active.max(1) as f64;
        let base = self.band().phy_rate_bps() as f64 * 0.6;
        (base * self.airtime_share(neighborhood) / active) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(n: u32) -> MacAddr {
        MacAddr::from_oui_nic(0x00_24_B2, n)
    }

    fn neighbor(n: u32, channel: Channel, signal: i8, load: f64) -> NeighborAp {
        NeighborAp { bssid: mac(n), channel, signal_dbm: signal, airtime_load: load }
    }

    #[test]
    fn default_channels_match_deployment() {
        assert_eq!(Band::Ghz24.default_channel().number, 11);
        assert_eq!(Band::Ghz5.default_channel().number, 36);
    }

    #[test]
    fn channel_validation() {
        assert!(Channel::new(Band::Ghz24, 11).is_some());
        assert!(Channel::new(Band::Ghz24, 12).is_none());
        assert!(Channel::new(Band::Ghz5, 36).is_some());
        assert!(Channel::new(Band::Ghz5, 37).is_none());
    }

    #[test]
    fn overlap_model() {
        let ch11 = Channel::new(Band::Ghz24, 11).unwrap();
        let ch8 = Channel::new(Band::Ghz24, 8).unwrap();
        let ch6 = Channel::new(Band::Ghz24, 6).unwrap();
        let ch36 = Channel::new(Band::Ghz5, 36).unwrap();
        let ch40 = Channel::new(Band::Ghz5, 40).unwrap();
        assert_eq!(ch11.overlap(ch11), 1.0);
        assert!(ch11.overlap(ch8) > 0.0 && ch11.overlap(ch8) < 1.0);
        assert_eq!(ch11.overlap(ch6), 0.0);
        assert_eq!(ch36.overlap(ch40), 0.0);
        assert_eq!(ch11.overlap(ch36), 0.0);
    }

    #[test]
    fn association_lifecycle() {
        let mut radio = Radio::new(Band::Ghz24);
        radio.associate(mac(1));
        radio.associate(mac(1));
        radio.associate(mac(2));
        assert_eq!(radio.station_count(), 2);
        assert!(radio.is_associated(mac(1)));
        assert!(radio.disassociate(mac(1)));
        assert!(!radio.disassociate(mac(1)));
        assert_eq!(radio.station_count(), 1);
        radio.reset();
        assert_eq!(radio.station_count(), 0);
    }

    #[test]
    fn scan_sees_strong_cochannel_aps() {
        let ch = Band::Ghz24.default_channel();
        let hood = vec![
            neighbor(1, ch, -40, 0.1),                                  // strong, co-channel
            neighbor(2, Channel::new(Band::Ghz24, 1).unwrap(), -40, 0.1), // far channel
            neighbor(3, ch, -95, 0.1),                                  // below floor
        ];
        let mut radio = Radio::new(Band::Ghz24);
        let mut rng = DetRng::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..50 {
            for e in radio.scan(&hood, &mut rng).visible {
                seen.insert(e.bssid);
            }
        }
        assert!(seen.contains(&mac(1)), "strong co-channel AP must appear");
        assert!(!seen.contains(&mac(2)), "non-overlapping AP never appears");
        assert!(!seen.contains(&mac(3)), "AP below detection floor never appears");
    }

    #[test]
    fn weak_aps_detected_intermittently() {
        let ch = Band::Ghz24.default_channel();
        let hood = vec![neighbor(1, ch, -85, 0.0)];
        let mut radio = Radio::new(Band::Ghz24);
        let mut rng = DetRng::new(2);
        let detections =
            (0..400).filter(|_| !radio.scan(&hood, &mut rng).visible.is_empty()).count();
        assert!(detections > 40 && detections < 360, "weak AP partially visible: {detections}");
    }

    #[test]
    fn scans_sometimes_drop_stations() {
        let mut radio = Radio::new(Band::Ghz24);
        let mut rng = DetRng::new(3);
        let mut total_drops = 0;
        for round in 0..200u32 {
            radio.associate(mac(round % 5));
            total_drops += radio.scan(&[], &mut rng).dropped_stations.len();
        }
        assert!(total_drops > 0, "scan disassociation side effect must occur");
    }

    /// The scan-throttle ablation (§3.2.2): one associated station, one
    /// strong co-channel neighbour, and 1,000 slots with a scan in every
    /// 1st, 3rd or 6th. Every scan sees the neighbour, and each knocks the
    /// station off with probability `SCAN_DROP_PROB`, so throttling cuts
    /// disruptions as it cuts sightings: 74, 20 and 7 client drops for
    /// 1,000, 334 and 167 AP sightings at this seed.
    #[test]
    fn scan_throttle_trades_sightings_for_disruptions() {
        let hood = [neighbor(7, Band::Ghz24.default_channel(), -55, 0.1)];
        let sweep = [1u64, 3, 6].map(|throttle| {
            let mut radio = Radio::new(Band::Ghz24);
            let mut rng = DetRng::new(42);
            let (mut sightings, mut drops) = (0, 0);
            for _ in (0..1_000u64).filter(|slot| slot % throttle == 0) {
                radio.associate(mac(1));
                let outcome = radio.scan(&hood, &mut rng);
                sightings += outcome.visible.len();
                drops += outcome.dropped_stations.len();
            }
            (sightings, drops)
        });
        assert_eq!(sweep, [(1_000, 74), (334, 20), (167, 7)]);
    }

    #[test]
    fn airtime_share_decreases_with_neighbor_load() {
        let ch = Band::Ghz24.default_channel();
        let radio = Radio::new(Band::Ghz24);
        let empty_share = radio.airtime_share(&[]);
        let busy = vec![neighbor(1, ch, -50, 0.5), neighbor(2, ch, -55, 0.5)];
        let busy_share = radio.airtime_share(&busy);
        assert_eq!(empty_share, 1.0);
        assert!(busy_share < 0.6);
        // Off-channel load does not count.
        let off = vec![neighbor(3, Channel::new(Band::Ghz5, 36).unwrap(), -50, 0.9)];
        assert_eq!(radio.airtime_share(&off), 1.0);
    }

    #[test]
    fn per_station_throughput_splits_fairly() {
        let radio = Radio::new(Band::Ghz5);
        let solo = radio.per_station_throughput_bps(&[], 1);
        let shared = radio.per_station_throughput_bps(&[], 3);
        assert!(solo > shared * 2);
        assert!(solo <= Band::Ghz5.phy_rate_bps());
        // Zero active stations is treated as one (no division by zero).
        assert_eq!(radio.per_station_throughput_bps(&[], 0), solo);
    }

    #[test]
    fn five_ghz_faster_than_two_four() {
        let r24 = Radio::new(Band::Ghz24);
        let r5 = Radio::new(Band::Ghz5);
        assert!(r5.per_station_throughput_bps(&[], 1) > r24.per_station_throughput_bps(&[], 1));
    }
}
