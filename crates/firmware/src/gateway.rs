//! The gateway itself: router state (radios, DHCP, NAT, DNS cache), boot
//! accounting, the hourly device census, and the WiFi scan policy.
//!
//! The measurement *schedule* — when minutes, hours, and 12-hour marks
//! fire — is driven by the home simulation's event queue; this type holds
//! the state those events act on and implements the firmware-side logic
//! (census counting, scan throttling, boot/uptime bookkeeping).

use crate::anonymize::Anonymizer;
use crate::records::{ApSighting, DeviceCensusRecord, RouterId, UptimeRecord, WifiScanRecord};
use simnet::arp::{ArpPacket, NeighborTable, ARP_LEN};
use simnet::dhcp::DhcpServer;
use simnet::dns::CachingResolver;
use simnet::nat::Nat;
use simnet::packet::MacAddr;
use simnet::rng::DetRng;
use simnet::time::SimTime;
use simnet::wifi::{Band, NeighborAp, Radio};
use std::collections::BTreeSet;
use std::net::Ipv4Addr;

/// How often the scanner *wants* to run (§3.2.2: every 10 minutes).
pub const SCAN_INTERVAL_MINS: u64 = 10;
/// Throttle factor applied when clients are associated (scans can knock
/// clients off, so the firmware backs off to every 30 minutes).
pub const SCAN_THROTTLE: u64 = 3;

/// Decide whether a scheduled scan slot should actually scan, given the
/// number of associated stations and the slot index since boot.
pub fn should_scan(associated: usize, slot: u64) -> bool {
    if associated == 0 {
        true
    } else {
        slot.is_multiple_of(SCAN_THROTTLE)
    }
}

/// The BISmark router: all firmware-visible state for one home.
#[derive(Debug)]
pub struct Gateway {
    /// Router identity (equals the home id).
    pub id: RouterId,
    /// The WAN address.
    pub wan_addr: Ipv4Addr,
    /// 2.4 GHz radio.
    pub radio_24: Radio,
    /// 5 GHz radio.
    pub radio_5: Radio,
    /// LAN address server.
    pub dhcp: DhcpServer,
    /// The address/port translator.
    pub nat: Nat,
    /// The gateway's caching stub resolver.
    pub resolver: CachingResolver,
    /// The kernel-style ARP neighbor table (populated by gratuitous ARP at
    /// attach and refreshed by relayed traffic).
    pub neighbors: NeighborTable,
    /// Devices currently on the Ethernet ports.
    wired: BTreeSet<MacAddr>,
    /// Whether the router is powered.
    powered: bool,
    /// Boot time of the current power cycle.
    booted_at: SimTime,
    /// Heartbeat sequence number within this boot.
    pub heartbeat_seq: u64,
    /// Scan slot counter within this boot.
    scan_slot: u64,
}

impl Gateway {
    /// A powered-off gateway with factory state.
    pub fn new(id: RouterId, wan_addr: Ipv4Addr) -> Gateway {
        Gateway {
            id,
            wan_addr,
            radio_24: Radio::new(Band::Ghz24),
            radio_5: Radio::new(Band::Ghz5),
            dhcp: DhcpServer::new(),
            nat: Nat::new(wan_addr),
            resolver: CachingResolver::new(),
            neighbors: NeighborTable::new(),
            wired: BTreeSet::new(),
            powered: false,
            booted_at: SimTime::EPOCH,
            heartbeat_seq: 0,
            scan_slot: 0,
        }
    }

    /// Is the router powered right now?
    pub fn is_powered(&self) -> bool {
        self.powered
    }

    /// Time since boot, or zero when off.
    pub fn uptime(&self, now: SimTime) -> simnet::time::SimDuration {
        if self.powered {
            now.saturating_since(self.booted_at)
        } else {
            simnet::time::SimDuration::ZERO
        }
    }

    /// Power the router on: volatile state starts fresh.
    pub fn power_on(&mut self, now: SimTime) {
        if self.powered {
            return;
        }
        self.powered = true;
        self.booted_at = now;
        self.heartbeat_seq = 0;
        self.scan_slot = 0;
    }

    /// Power the router off: associations, leases, NAT mappings, and the
    /// DNS cache all evaporate (they live in RAM).
    pub fn power_off(&mut self, _now: SimTime) {
        if !self.powered {
            return;
        }
        self.powered = false;
        self.radio_24.reset();
        self.radio_5.reset();
        self.dhcp.reset();
        self.resolver.reset();
        self.neighbors.reset();
        self.wired.clear();
    }

    /// Attach a wired device (at most four ports). The device announces
    /// itself with a gratuitous ARP, which populates the neighbor table —
    /// the structure a real census reads.
    pub fn connect_wired(&mut self, mac: MacAddr) -> bool {
        if self.wired.len() >= 4 && !self.wired.contains(&mac) {
            return false;
        }
        self.wired.insert(mac);
        true
    }

    /// A device joined the LAN and broadcast a gratuitous ARP: parse the
    /// wire image at the gateway and learn the neighbor.
    pub fn observe_gratuitous_arp(&mut self, now: SimTime, mac: MacAddr, addr: std::net::Ipv4Addr) {
        // The gateway receives the broadcast as bytes and parses it.
        let mut wire = [0u8; ARP_LEN];
        ArpPacket::gratuitous(mac, addr).emit_into(&mut wire);
        if let Ok(parsed) = ArpPacket::parse(&wire) {
            self.neighbors.observe(now, &parsed);
        }
    }

    /// Detach a wired device.
    pub fn disconnect_wired(&mut self, mac: MacAddr) {
        self.wired.remove(&mac);
    }

    /// Is this MAC currently connected on any medium?
    pub fn is_connected(&self, mac: MacAddr) -> bool {
        self.wired.contains(&mac)
            || self.radio_24.is_associated(mac)
            || self.radio_5.is_associated(mac)
    }

    /// Associate a wireless station on the given band.
    pub fn associate(&mut self, band: Band, mac: MacAddr) {
        match band {
            Band::Ghz24 => self.radio_24.associate(mac),
            Band::Ghz5 => self.radio_5.associate(mac),
        }
    }

    /// Disassociate a wireless station from whichever radio holds it.
    pub fn disassociate(&mut self, mac: MacAddr) {
        self.radio_24.disassociate(mac);
        self.radio_5.disassociate(mac);
    }

    /// Take the hourly device census.
    pub fn census(&self, now: SimTime) -> DeviceCensusRecord {
        DeviceCensusRecord {
            router: self.id,
            at: now,
            wired: self.wired.len() as u8,
            wireless_24: self.radio_24.station_count() as u8,
            wireless_5: self.radio_5.station_count() as u8,
        }
    }

    /// Build the 12-hourly uptime report.
    pub fn uptime_report(&self, now: SimTime) -> UptimeRecord {
        UptimeRecord { router: self.id, at: now, uptime: self.uptime(now) }
    }

    /// Run the scan slot for one band. Applies the throttle policy; when it
    /// scans, neighbor APs are sampled and any stations the scan knocked
    /// off are disassociated (the caller learns which, to model the client
    /// reconnecting later). Returns `None` when the slot was throttled.
    pub fn run_scan_slot(
        &mut self,
        now: SimTime,
        band: Band,
        neighborhood: &[NeighborAp],
        anonymizer: &Anonymizer,
        rng: &mut DetRng,
    ) -> Option<(WifiScanRecord, Vec<MacAddr>)> {
        let radio = match band {
            Band::Ghz24 => &mut self.radio_24,
            Band::Ghz5 => &mut self.radio_5,
        };
        let slot = self.scan_slot;
        if band == Band::Ghz5 {
            // Slot counter advances once per (24, 5) pair; 2.4 GHz goes first.
            self.scan_slot += 1;
        }
        if !should_scan(radio.station_count(), slot) {
            return None;
        }
        let outcome = radio.scan(neighborhood, rng);
        let associated = radio.station_count() as u8;
        let aps = outcome
            .visible
            .iter()
            .map(|entry| ApSighting {
                bssid_hash: anonymizer.ip(Ipv4Addr::from(
                    (entry.bssid.oui() ^ entry.bssid.nic()).to_be_bytes(),
                )),
                channel_number: entry.channel.number,
                signal_dbm: entry.signal_dbm,
            })
            .collect();
        Some((
            WifiScanRecord { router: self.id, at: now, band, aps, associated_stations: associated },
            outcome.dropped_stations,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::time::SimDuration;

    fn mac(n: u32) -> MacAddr {
        MacAddr::from_oui_nic(0x00_17_F2, n)
    }

    fn gw() -> Gateway {
        Gateway::new(RouterId(1), Ipv4Addr::new(100, 64, 0, 1))
    }

    fn t(mins: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_mins(mins)
    }

    #[test]
    fn power_cycle_clears_volatile_state() {
        let mut g = gw();
        g.power_on(t(0));
        g.connect_wired(mac(1));
        g.associate(Band::Ghz24, mac(2));
        g.associate(Band::Ghz5, mac(3));
        g.dhcp.request(t(0), mac(2)).unwrap();
        assert_eq!(g.census(t(1)).total(), 3);
        g.power_off(t(2));
        assert!(!g.is_powered());
        assert_eq!(g.census(t(3)).total(), 0);
        g.power_on(t(4));
        assert_eq!(g.uptime(t(5)), SimDuration::from_mins(1));
        assert_eq!(g.heartbeat_seq, 0);
    }

    #[test]
    fn double_power_on_keeps_boot_time() {
        let mut g = gw();
        g.power_on(t(0));
        g.power_on(t(10));
        assert_eq!(g.uptime(t(20)), SimDuration::from_mins(20));
    }

    #[test]
    fn wired_ports_capped_at_four() {
        let mut g = gw();
        g.power_on(t(0));
        for i in 0..4 {
            assert!(g.connect_wired(mac(i)));
        }
        assert!(!g.connect_wired(mac(99)), "fifth port must not exist");
        assert!(g.connect_wired(mac(0)), "re-connecting an attached device is fine");
        g.disconnect_wired(mac(0));
        assert!(g.connect_wired(mac(99)));
    }

    #[test]
    fn census_counts_by_medium() {
        let mut g = gw();
        g.power_on(t(0));
        g.connect_wired(mac(1));
        g.associate(Band::Ghz24, mac(2));
        g.associate(Band::Ghz24, mac(3));
        g.associate(Band::Ghz5, mac(4));
        let c = g.census(t(1));
        assert_eq!((c.wired, c.wireless_24, c.wireless_5), (1, 2, 1));
        assert!(g.is_connected(mac(4)));
        g.disassociate(mac(4));
        assert!(!g.is_connected(mac(4)));
    }

    #[test]
    fn scan_policy_throttles_with_clients() {
        assert!(should_scan(0, 0));
        assert!(should_scan(0, 1));
        assert!(should_scan(3, 0));
        assert!(!should_scan(3, 1));
        assert!(!should_scan(3, 2));
        assert!(should_scan(3, 3));
    }

    #[test]
    fn scan_slot_produces_record_or_none() {
        let mut g = gw();
        g.power_on(t(0));
        let anon = Anonymizer::new(5, []);
        let mut rng = DetRng::new(2);
        let hood = vec![NeighborAp {
            bssid: mac(77),
            channel: Band::Ghz24.default_channel(),
            signal_dbm: -45,
            airtime_load: 0.1,
        }];
        // No clients: every slot scans.
        let mut seen_any = false;
        for i in 0..6 {
            let r24 = g.run_scan_slot(t(10 * i), Band::Ghz24, &hood, &anon, &mut rng);
            let r5 = g.run_scan_slot(t(10 * i), Band::Ghz5, &hood, &anon, &mut rng);
            assert!(r24.is_some() && r5.is_some());
            if !r24.unwrap().0.aps.is_empty() {
                seen_any = true;
            }
        }
        assert!(seen_any, "the strong co-channel AP must be sighted");
        // With clients associated, two of three slots are throttled.
        g.associate(Band::Ghz24, mac(1));
        let mut scans = 0;
        for i in 6..12 {
            if g.run_scan_slot(t(10 * i), Band::Ghz24, &hood, &anon, &mut rng).is_some() {
                scans += 1;
            }
            g.run_scan_slot(t(10 * i), Band::Ghz5, &hood, &anon, &mut rng);
            g.associate(Band::Ghz24, mac(1)); // re-associate if knocked off
        }
        assert_eq!(scans, 2, "throttled to one in three slots");
    }

    #[test]
    fn uptime_report_matches_boot() {
        let mut g = gw();
        g.power_on(t(100));
        let rep = g.uptime_report(t(160));
        assert_eq!(rep.uptime, SimDuration::from_mins(60));
        assert_eq!(rep.router, RouterId(1));
    }
}
