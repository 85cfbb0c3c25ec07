//! The measurement records the gateway uploads — one type per data set of
//! Table 2. These are the *only* things the collector ever sees; every
//! figure in the paper is computed from vectors of these records, never
//! from simulator-internal state.

use crate::anonymize::{AnonMac, ReportedDomain};
use serde::{Deserialize, Serialize};
use simnet::packet::IpProtocol;
use simnet::time::{SimDuration, SimTime};
use simnet::wifi::Band;

/// Identifier of the reporting router (equals the home id).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RouterId(pub u32);

impl std::fmt::Display for RouterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bismark-{:03}", self.0)
    }
}

/// One received heartbeat (Heartbeats data set). The record is created by
/// the *collector* when a heartbeat packet survives the WAN path; lost
/// heartbeats leave gaps, which is the entire measurement signal of §4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeartbeatRecord {
    /// Reporting router.
    pub router: RouterId,
    /// Collector-side arrival time.
    pub at: SimTime,
}

/// A 12-hourly uptime report (Uptime data set): how long the router has
/// been powered since its last boot. Distinguishes "powered but offline"
/// from "powered off" at coarse granularity (§3.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct UptimeRecord {
    /// Reporting router.
    pub router: RouterId,
    /// Report time.
    pub at: SimTime,
    /// Time since boot at `at`.
    pub uptime: SimDuration,
}

/// A 12-hourly access-link capacity measurement (Capacity data set),
/// produced by the ShaperProbe-style estimator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityRecord {
    /// Reporting router.
    pub router: RouterId,
    /// Measurement time.
    pub at: SimTime,
    /// Estimated downstream capacity in bits/s.
    pub down_bps: u64,
    /// Estimated upstream capacity in bits/s.
    pub up_bps: u64,
    /// True when the estimator detected token-bucket shaping (a level shift
    /// between the head and tail of the probe train).
    pub shaping_detected: bool,
}

/// An hourly device census (Devices data set): connected wired devices and
/// associated stations per radio. Coarse by design — counts, not
/// identities — so it required no written consent (§3.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceCensusRecord {
    /// Reporting router.
    pub router: RouterId,
    /// Census time.
    pub at: SimTime,
    /// Devices on the Ethernet ports.
    pub wired: u8,
    /// Stations associated on the 2.4 GHz radio.
    pub wireless_24: u8,
    /// Stations associated on the 5 GHz radio.
    pub wireless_5: u8,
}

impl DeviceCensusRecord {
    /// Total connected devices.
    pub fn total(&self) -> u32 {
        u32::from(self.wired) + u32::from(self.wireless_24) + u32::from(self.wireless_5)
    }

    /// Total wireless stations.
    pub fn wireless_total(&self) -> u32 {
        u32::from(self.wireless_24) + u32::from(self.wireless_5)
    }
}

/// One AP sighting within a WiFi scan (WiFi data set).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ApSighting {
    /// Hash of the neighbor's BSSID (BSSIDs are infrastructure, not user
    /// PII, but the released data set hashed them anyway).
    pub bssid_hash: u64,
    /// Channel the AP was seen on.
    pub channel_number: u8,
    /// Received signal strength in dBm.
    pub signal_dbm: i8,
}

/// A periodic WiFi scan report (WiFi data set).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WifiScanRecord {
    /// Reporting router.
    pub router: RouterId,
    /// Scan time.
    pub at: SimTime,
    /// Band scanned.
    pub band: Band,
    /// APs seen on the configured channel.
    pub aps: Vec<ApSighting>,
    /// Stations associated to this radio at scan time.
    pub associated_stations: u8,
}

/// Aggregate packet statistics (Traffic data set, "packet statistics": the
/// size and timestamp of every relayed packet, aggregated at upload into
/// one-minute windows that keep the *maximum per-second throughput* seen in
/// the window — the exact quantity §6.2's utilization analysis uses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketStatsRecord {
    /// Reporting router.
    pub router: RouterId,
    /// Start of the one-minute window.
    pub at: SimTime,
    /// Bytes from the Internet to the LAN in the window.
    pub bytes_down: u64,
    /// Bytes from the LAN to the Internet in the window.
    pub bytes_up: u64,
    /// Downstream packets in the window.
    pub pkts_down: u64,
    /// Upstream packets in the window.
    pub pkts_up: u64,
    /// Maximum one-second downstream byte count within the window.
    pub peak_down_1s: u64,
    /// Maximum one-second upstream byte count within the window.
    pub peak_up_1s: u64,
}

impl PacketStatsRecord {
    /// Peak downstream throughput in bits/s (max per-second bytes × 8).
    pub fn peak_down_bps(&self) -> u64 {
        self.peak_down_1s * 8
    }

    /// Peak upstream throughput in bits/s.
    pub fn peak_up_bps(&self) -> u64 {
        self.peak_up_1s * 8
    }
}

/// A sampled flow record (Traffic data set, "flow statistics"): obfuscated
/// endpoints, anonymized device MAC, application port, byte counts, and
/// the domain the flow was attributed to via DNS.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Reporting router.
    pub router: RouterId,
    /// Flow start time.
    pub started: SimTime,
    /// Flow end time (record is emitted at completion).
    pub ended: SimTime,
    /// Anonymized device MAC.
    pub device: AnonMac,
    /// Obfuscated remote address.
    pub remote_ip_hash: u64,
    /// Remote (server) port — reveals the application class.
    pub remote_port: u16,
    /// Transport protocol.
    pub proto: IpProtocol,
    /// Domain attribution from the gateway's DNS view, whitelisted-or-token.
    pub domain: ReportedDomain,
    /// Bytes received by the device.
    pub bytes_down: u64,
    /// Bytes sent by the device.
    pub bytes_up: u64,
}

impl FlowRecord {
    /// Total bytes in both directions.
    pub fn total_bytes(&self) -> u64 {
        self.bytes_down + self.bytes_up
    }
}

/// A sampled DNS answer (Traffic data set, "DNS responses"): A and CNAME
/// records with non-whitelisted names obfuscated.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DnsSampleRecord {
    /// Reporting router.
    pub router: RouterId,
    /// Response time.
    pub at: SimTime,
    /// Anonymized querying device.
    pub device: AnonMac,
    /// The queried name, whitelisted-or-token.
    pub name: ReportedDomain,
    /// Number of CNAME links in the answer chain.
    pub cname_links: u8,
    /// Whether the answer carried an A record.
    pub resolved: bool,
}

/// A device sighting with its anonymized MAC (Traffic data set, "MAC
/// addresses"): lets the analysis count manufacturer prevalence (Fig 12)
/// without identifying devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MacSightingRecord {
    /// Reporting router.
    pub router: RouterId,
    /// First time the device was seen in the window.
    pub first_seen: SimTime,
    /// Anonymized MAC.
    pub device: AnonMac,
    /// Total traffic attributed to the device so far, in bytes (the Fig 12
    /// analysis keeps devices that moved ≥ 100 KB).
    pub bytes_total: u64,
}

/// The medium a device was seen on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Medium {
    /// An Ethernet port.
    Wired,
    /// The 2.4 GHz radio.
    Wireless24,
    /// The 5 GHz radio.
    Wireless5,
}

impl Medium {
    /// The wireless band, if any.
    pub fn band(self) -> Option<Band> {
        match self {
            Medium::Wired => None,
            Medium::Wireless24 => Some(Band::Ghz24),
            Medium::Wireless5 => Some(Band::Ghz5),
        }
    }
}

/// An hourly per-device association report (Devices data set companion):
/// which anonymized devices were connected, and on which medium. This is
/// what the per-home unique-device figures (Figs 7 and 10) and the
/// always-connected analysis (Table 5) are computed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AssociationRecord {
    /// Reporting router.
    pub router: RouterId,
    /// Census time this report accompanies.
    pub at: SimTime,
    /// Anonymized device MAC.
    pub device: crate::anonymize::AnonMac,
    /// Where the device was attached.
    pub medium: Medium,
}

pub use crate::latency::LatencyRecord;
pub use crate::natprobe::NatType;

/// One completed STUN-style NAT characterization probe (NAT Probes data
/// set): the classified NAT type, the mapped endpoint the primary STUN
/// server reported, and whether the mapped address differed from the
/// gateway's own WAN address — the carrier-grade-NAT detection signal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NatProbeRecord {
    /// Reporting router.
    pub router: RouterId,
    /// Probe time.
    pub at: SimTime,
    /// The classified NAT type.
    pub nat_type: NatType,
    /// Hash of the mapped address the STUN server observed (see
    /// [`crate::natprobe::ip_hash`]); lets the analysis count distinct
    /// shared pool addresses without carrying raw IPs.
    pub mapped_ip_hash: u64,
    /// The mapped port the STUN server observed.
    pub mapped_port: u16,
    /// True when the mapped address differs from the gateway's WAN
    /// address: a second translation tier sits between home and internet.
    pub cgn_detected: bool,
}

/// One pairwise UDP hole-punch trial (Punch Trials data set): two homes
/// exchange mapped endpoints through an introducer and attempt a
/// simultaneous open; `success` records whether traffic flowed both ways.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PunchTrialRecord {
    /// Reporting router (the initiating side).
    pub router: RouterId,
    /// Trial time.
    pub at: SimTime,
    /// The peer home's router.
    pub peer: RouterId,
    /// This side's NAT type at trial time (the latest probe's verdict).
    pub local_type: NatType,
    /// The peer's NAT type, as exchanged through the introducer.
    pub peer_type: NatType,
    /// Did both sides receive at least one datagram?
    pub success: bool,
}

/// Everything a router can upload, as a single enum for transport through
/// the collector's ingestion path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[allow(missing_docs)] // variant names mirror the record types
pub enum Record {
    Heartbeat(HeartbeatRecord),
    Uptime(UptimeRecord),
    Capacity(CapacityRecord),
    DeviceCensus(DeviceCensusRecord),
    WifiScan(WifiScanRecord),
    PacketStats(PacketStatsRecord),
    Flow(FlowRecord),
    DnsSample(DnsSampleRecord),
    MacSighting(MacSightingRecord),
    Association(AssociationRecord),
    Latency(LatencyRecord),
    NatProbe(NatProbeRecord),
    PunchTrial(PunchTrialRecord),
}

impl Record {
    /// The reporting router.
    pub fn router(&self) -> RouterId {
        match self {
            Record::Heartbeat(r) => r.router,
            Record::Uptime(r) => r.router,
            Record::Capacity(r) => r.router,
            Record::DeviceCensus(r) => r.router,
            Record::WifiScan(r) => r.router,
            Record::PacketStats(r) => r.router,
            Record::Flow(r) => r.router,
            Record::DnsSample(r) => r.router,
            Record::MacSighting(r) => r.router,
            Record::Association(r) => r.router,
            Record::Latency(r) => r.router,
            Record::NatProbe(r) => r.router,
            Record::PunchTrial(r) => r.router,
        }
    }

    /// Shift every timestamp in the record forward by `offset` — the
    /// clock-skew fault: a gateway whose clock runs ahead stamps its
    /// records in its own skewed time, and the collector stores them as
    /// stamped. Heartbeats are exempt in practice because their `at` is
    /// assigned collector-side on arrival.
    pub fn shift_time(&mut self, offset: SimDuration) {
        match self {
            Record::Heartbeat(r) => r.at += offset,
            Record::Uptime(r) => r.at += offset,
            Record::Capacity(r) => r.at += offset,
            Record::DeviceCensus(r) => r.at += offset,
            Record::WifiScan(r) => r.at += offset,
            Record::PacketStats(r) => r.at += offset,
            Record::Flow(r) => {
                r.started += offset;
                r.ended += offset;
            }
            Record::DnsSample(r) => r.at += offset,
            Record::MacSighting(r) => r.first_seen += offset,
            Record::Association(r) => r.at += offset,
            Record::Latency(r) => r.at += offset,
            Record::NatProbe(r) => r.at += offset,
            Record::PunchTrial(r) => r.at += offset,
        }
    }

    /// The record's timestamp (collection-relevant instant).
    pub fn at(&self) -> SimTime {
        match self {
            Record::Heartbeat(r) => r.at,
            Record::Uptime(r) => r.at,
            Record::Capacity(r) => r.at,
            Record::DeviceCensus(r) => r.at,
            Record::WifiScan(r) => r.at,
            Record::PacketStats(r) => r.at,
            Record::Flow(r) => r.ended,
            Record::DnsSample(r) => r.at,
            Record::MacSighting(r) => r.first_seen,
            Record::Association(r) => r.at,
            Record::Latency(r) => r.at,
            Record::NatProbe(r) => r.at,
            Record::PunchTrial(r) => r.at,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn census_totals() {
        let c = DeviceCensusRecord {
            router: RouterId(1),
            at: SimTime::EPOCH,
            wired: 2,
            wireless_24: 4,
            wireless_5: 1,
        };
        assert_eq!(c.total(), 7);
        assert_eq!(c.wireless_total(), 5);
    }

    #[test]
    fn record_dispatch() {
        let hb = Record::Heartbeat(HeartbeatRecord {
            router: RouterId(3),
            at: SimTime::from_micros(60_000_000),
        });
        assert_eq!(hb.router(), RouterId(3));
        assert_eq!(hb.at(), SimTime::from_micros(60_000_000));
    }

    #[test]
    fn records_serialize() {
        let rec = Record::Capacity(CapacityRecord {
            router: RouterId(5),
            at: SimTime::EPOCH,
            down_bps: 20_000_000,
            up_bps: 2_000_000,
            shaping_detected: true,
        });
        let json = serde_json::to_string(&rec).unwrap();
        assert!(json.contains("20000000"));
    }

    #[test]
    fn records_round_trip() {
        use simnet::dns::DomainName;

        let records = vec![
            Record::Heartbeat(HeartbeatRecord {
                router: RouterId(3),
                at: SimTime::from_micros(60_000_000),
            }),
            Record::Capacity(CapacityRecord {
                router: RouterId(5),
                at: SimTime::EPOCH,
                down_bps: 20_000_000,
                up_bps: 2_000_000,
                shaping_detected: true,
            }),
            Record::WifiScan(WifiScanRecord {
                router: RouterId(7),
                at: SimTime::from_micros(1),
                band: Band::Ghz5,
                aps: vec![ApSighting { bssid_hash: 0xDEAD_BEEF, channel_number: 36, signal_dbm: -61 }],
                associated_stations: 2,
            }),
            Record::Flow(FlowRecord {
                router: RouterId(9),
                started: SimTime::EPOCH,
                ended: SimTime::from_micros(42),
                device: AnonMac { oui: 0x0017F2, suffix_hash: 0x1234 },
                remote_ip_hash: 99,
                remote_port: 443,
                proto: IpProtocol::Tcp,
                domain: ReportedDomain::Clear(DomainName::new("netflix.com").unwrap()),
                bytes_down: 4096,
                bytes_up: 512,
            }),
            Record::DnsSample(DnsSampleRecord {
                router: RouterId(9),
                at: SimTime::from_micros(7),
                device: AnonMac { oui: 0x0017F2, suffix_hash: 0x1234 },
                name: ReportedDomain::Obfuscated(0x5EC237),
                cname_links: 2,
                resolved: true,
            }),
        ];
        for rec in records {
            let json = serde_json::to_string(&rec).unwrap();
            let back: Record = serde_json::from_str(&json).unwrap();
            assert_eq!(back, rec, "round trip through {json}");
        }
    }
}
