//! ARP: wire format, cache, and the gateway-side neighbor table.
//!
//! ARP is how a real gateway actually *sees* wired devices: the hourly
//! device census on the deployment's routers read the kernel neighbor
//! table, which is populated by ARP traffic. The simulation models that
//! path: a device announces itself with a gratuitous ARP when it attaches,
//! requests resolve the gateway's address, and entries age out — so a
//! silent, detached device eventually disappears from the census, exactly
//! as on real hardware.

use crate::packet::{MacAddr, ParseError};
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// Default neighbor-entry lifetime (Linux base_reachable_time ballpark).
pub const ARP_ENTRY_TTL: SimDuration = SimDuration::from_secs(60);
/// Wire length of an Ethernet/IPv4 ARP packet.
pub const ARP_LEN: usize = 28;

/// ARP operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArpOp {
    /// Who-has request.
    Request,
    /// Is-at reply.
    Reply,
}

/// An Ethernet/IPv4 ARP packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArpPacket {
    /// Operation.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

impl ArpPacket {
    /// A who-has request from `sender` for `target_ip`.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr([0; 6]),
            target_ip,
        }
    }

    /// A gratuitous announcement (sender asks about its own address) —
    /// what hosts broadcast when they join a LAN.
    pub fn gratuitous(mac: MacAddr, ip: Ipv4Addr) -> ArpPacket {
        ArpPacket::request(mac, ip, ip)
    }

    /// The reply answering `request` on behalf of `mac`.
    pub fn reply_to(request: &ArpPacket, mac: MacAddr) -> ArpPacket {
        ArpPacket {
            op: ArpOp::Reply,
            sender_mac: mac,
            sender_ip: request.target_ip,
            target_mac: request.sender_mac,
            target_ip: request.sender_ip,
        }
    }

    /// True for gratuitous announcements.
    pub fn is_gratuitous(&self) -> bool {
        self.op == ArpOp::Request && self.sender_ip == self.target_ip
    }

    /// Serialize to the 28-byte wire image.
    pub fn emit(&self) -> Vec<u8> {
        let mut buf = [0u8; ARP_LEN];
        self.emit_into(&mut buf);
        buf.to_vec()
    }

    /// Write the 28-byte wire image into a caller-owned buffer (typically
    /// a stack array) with zero heap allocations. Byte-identical to
    /// [`ArpPacket::emit`].
    pub fn emit_into(&self, out: &mut [u8; ARP_LEN]) {
        out[0..2].copy_from_slice(&1u16.to_be_bytes()); // HTYPE Ethernet
        out[2..4].copy_from_slice(&0x0800u16.to_be_bytes()); // PTYPE IPv4
        out[4] = 6; // HLEN
        out[5] = 4; // PLEN
        out[6..8].copy_from_slice(
            &match self.op {
                ArpOp::Request => 1u16,
                ArpOp::Reply => 2u16,
            }
            .to_be_bytes(),
        );
        out[8..14].copy_from_slice(&self.sender_mac.0);
        out[14..18].copy_from_slice(&self.sender_ip.octets());
        out[18..24].copy_from_slice(&self.target_mac.0);
        out[24..28].copy_from_slice(&self.target_ip.octets());
    }

    /// Parse a wire image.
    pub fn parse(data: &[u8]) -> Result<ArpPacket, ParseError> {
        if data.len() < ARP_LEN {
            return Err(ParseError::Truncated);
        }
        if data[0..2] != [0, 1] || data[2..4] != [8, 0] || data[4] != 6 || data[5] != 4 {
            return Err(ParseError::Unsupported);
        }
        let op = match u16::from_be_bytes([data[6], data[7]]) {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            _ => return Err(ParseError::Unsupported),
        };
        let mut sender_mac = [0u8; 6];
        sender_mac.copy_from_slice(&data[8..14]);
        let mut target_mac = [0u8; 6];
        target_mac.copy_from_slice(&data[18..24]);
        Ok(ArpPacket {
            op,
            sender_mac: MacAddr(sender_mac),
            sender_ip: Ipv4Addr::new(data[14], data[15], data[16], data[17]),
            target_mac: MacAddr(target_mac),
            target_ip: Ipv4Addr::new(data[24], data[25], data[26], data[27]),
        })
    }
}

/// A neighbor table with aging — the structure the census actually reads.
#[derive(Debug, Default)]
pub struct NeighborTable {
    entries: BTreeMap<Ipv4Addr, (MacAddr, SimTime)>,
}

impl NeighborTable {
    /// An empty table.
    pub fn new() -> NeighborTable {
        NeighborTable::default()
    }

    /// Learn (or refresh) a neighbor from an observed ARP packet.
    pub fn observe(&mut self, now: SimTime, packet: &ArpPacket) {
        self.entries.insert(packet.sender_ip, (packet.sender_mac, now));
        if packet.op == ArpOp::Reply {
            // The reply's target also proved reachable moments ago.
            self.entries
                .entry(packet.target_ip)
                .or_insert((packet.target_mac, now));
        }
    }

    /// Refresh an entry because IP traffic from it was relayed (real
    /// kernels do this too; it keeps active hosts resident).
    pub fn refresh(&mut self, now: SimTime, ip: Ipv4Addr) {
        if let Some((_, seen)) = self.entries.get_mut(&ip) {
            *seen = now;
        }
    }

    /// Look up a live neighbor.
    pub fn lookup(&self, now: SimTime, ip: Ipv4Addr) -> Option<MacAddr> {
        self.entries
            .get(&ip)
            .filter(|(_, seen)| now.saturating_since(*seen) < ARP_ENTRY_TTL)
            .map(|(mac, _)| *mac)
    }

    /// Drop entries older than the TTL; returns how many were evicted.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        self.entries.retain(|_, (_, seen)| now.saturating_since(*seen) < ARP_ENTRY_TTL);
        before - self.entries.len()
    }

    /// Live entry count as of `now`.
    pub fn live_count(&self, now: SimTime) -> usize {
        self.entries
            .values()
            .filter(|(_, seen)| now.saturating_since(*seen) < ARP_ENTRY_TTL)
            .count()
    }

    /// Drop everything (power cycle).
    pub fn reset(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(n: u32) -> MacAddr {
        MacAddr::from_oui_nic(0x00_17_F2, n)
    }

    fn ip(h: u8) -> Ipv4Addr {
        Ipv4Addr::new(192, 168, 1, h)
    }

    fn t(secs: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_secs(secs)
    }

    #[test]
    fn wire_round_trip() {
        let req = ArpPacket::request(mac(1), ip(10), ip(1));
        let wire = req.emit();
        assert_eq!(wire.len(), ARP_LEN);
        assert_eq!(ArpPacket::parse(&wire).unwrap(), req);
        let rep = ArpPacket::reply_to(&req, mac(99));
        assert_eq!(ArpPacket::parse(&rep.emit()).unwrap(), rep);
    }

    #[test]
    fn reply_addresses_the_requester() {
        let req = ArpPacket::request(mac(1), ip(10), ip(1));
        let rep = ArpPacket::reply_to(&req, mac(99));
        assert_eq!(rep.op, ArpOp::Reply);
        assert_eq!(rep.sender_ip, ip(1));
        assert_eq!(rep.target_mac, mac(1));
        assert_eq!(rep.target_ip, ip(10));
    }

    #[test]
    fn gratuitous_detection() {
        assert!(ArpPacket::gratuitous(mac(1), ip(10)).is_gratuitous());
        assert!(!ArpPacket::request(mac(1), ip(10), ip(1)).is_gratuitous());
    }

    #[test]
    fn malformed_rejected() {
        assert_eq!(ArpPacket::parse(&[0; 27]), Err(ParseError::Truncated));
        let mut wire = ArpPacket::gratuitous(mac(1), ip(10)).emit();
        wire[7] = 9; // bogus op
        assert_eq!(ArpPacket::parse(&wire), Err(ParseError::Unsupported));
        let mut wire2 = ArpPacket::gratuitous(mac(1), ip(10)).emit();
        wire2[3] = 0x06; // not IPv4
        assert_eq!(ArpPacket::parse(&wire2), Err(ParseError::Unsupported));
    }

    /// One FNV-1a digest over the wire images of requests, gratuitous
    /// announcements and replies across a grid of addresses.
    #[test]
    fn wire_bytes_are_pinned() {
        let macs = [MacAddr([0; 6]), mac(1), MacAddr::BROADCAST];
        let ips = [Ipv4Addr::new(0, 0, 0, 0), ip(10), Ipv4Addr::new(255, 255, 255, 255)];
        let mut images = Vec::new();
        for sender_mac in macs {
            for sender_ip in ips {
                let mut packets = vec![ArpPacket::gratuitous(sender_mac, sender_ip)];
                for target_ip in ips {
                    let req = ArpPacket::request(sender_mac, sender_ip, target_ip);
                    packets.push(ArpPacket::reply_to(&req, mac(99)));
                    packets.push(req);
                }
                for packet in packets {
                    let wire = packet.emit();
                    assert_eq!(ArpPacket::parse(&wire), Ok(packet));
                    images.extend_from_slice(&wire);
                }
            }
        }
        assert_eq!(images.len(), 3 * 3 * 7 * ARP_LEN);
        assert_eq!(obs::fnv1a64(&images), 0xcc78_247c_ae12_c69a, "ARP wire digest");
    }

    #[test]
    fn table_learns_and_ages() {
        let mut table = NeighborTable::new();
        table.observe(t(0), &ArpPacket::gratuitous(mac(1), ip(10)));
        assert_eq!(table.lookup(t(30), ip(10)), Some(mac(1)));
        assert_eq!(table.lookup(t(61), ip(10)), None, "entry aged out");
        assert_eq!(table.expire(t(61)), 1);
        assert_eq!(table.live_count(t(61)), 0);
    }

    #[test]
    fn traffic_refreshes_entries() {
        let mut table = NeighborTable::new();
        table.observe(t(0), &ArpPacket::gratuitous(mac(1), ip(10)));
        table.refresh(t(50), ip(10));
        assert_eq!(table.lookup(t(100), ip(10)), Some(mac(1)), "refreshed at t=50");
        assert_eq!(table.lookup(t(111), ip(10)), None);
    }

    #[test]
    fn replies_teach_both_sides() {
        let mut table = NeighborTable::new();
        let req = ArpPacket::request(mac(1), ip(10), ip(1));
        let rep = ArpPacket::reply_to(&req, mac(2));
        table.observe(t(0), &rep);
        assert_eq!(table.lookup(t(1), ip(1)), Some(mac(2)));
        assert_eq!(table.lookup(t(1), ip(10)), Some(mac(1)));
    }

    #[test]
    fn reset_clears() {
        let mut table = NeighborTable::new();
        table.observe(t(0), &ArpPacket::gratuitous(mac(1), ip(10)));
        table.reset();
        assert_eq!(table.live_count(t(0)), 0);
    }
}
