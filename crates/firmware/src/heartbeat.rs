//! Heartbeats: once a minute, the router sends a small UDP packet to the
//! central collection server. No retransmission, no acknowledgment — a
//! lost packet simply leaves a gap, and persistent gaps are what §4 reads
//! as downtime.
//!
//! The packet is a genuine UDP/IPv4 wire image carrying the router id and
//! a sequence number, emitted through the home's *uplink* (so a saturated
//! uplink can delay it) and then across a lossy WAN path. The collector
//! parses and validates it before recording.

use crate::records::RouterId;
use simnet::packet::{IpProtocol, Ipv4View, ParseError, UdpView, IPV4_HEADER_LEN};
use std::net::Ipv4Addr;

/// The collector's UDP port for heartbeats.
pub const HEARTBEAT_PORT: u16 = 9_100;
/// The collection server's address (the deployment's server at Georgia
/// Tech; any stable address works here).
pub const COLLECTOR_ADDR: Ipv4Addr = Ipv4Addr::new(128, 61, 23, 45);
/// Magic tag guarding against misparses.
const MAGIC: &[u8; 4] = b"BSMK";

/// Heartbeat payload contents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Heartbeat {
    /// The reporting router.
    pub router: RouterId,
    /// Monotonic per-boot sequence number.
    pub seq: u64,
}

impl Heartbeat {
    /// Wire length of a heartbeat packet: 20 IP + 8 UDP + 16 payload.
    pub const WIRE_LEN: usize = 44;

    /// Build the full IPv4+UDP wire image from the router's WAN address.
    pub fn emit(&self, wan_addr: Ipv4Addr) -> Vec<u8> {
        let mut out = [0u8; Self::WIRE_LEN];
        self.emit_into(wan_addr, &mut out);
        out.to_vec()
    }

    /// Write the full IPv4+UDP wire image into a caller-owned buffer
    /// (typically a stack array) with zero heap allocations. Byte-identical
    /// to [`Heartbeat::emit`].
    #[inline]
    pub fn emit_into(&self, wan_addr: Ipv4Addr, out: &mut [u8; Self::WIRE_LEN]) {
        let mut payload = [0u8; 16];
        payload[0..4].copy_from_slice(MAGIC);
        payload[4..8].copy_from_slice(&self.router.0.to_be_bytes());
        payload[8..16].copy_from_slice(&self.seq.to_be_bytes());
        let (ip_header, udp_segment) = out.split_at_mut(IPV4_HEADER_LEN);
        UdpView { src_port: HEARTBEAT_PORT, dst_port: HEARTBEAT_PORT, payload: &payload }
            .emit_into(wan_addr, COLLECTOR_ADDR, udp_segment);
        Ipv4View {
            src: wan_addr,
            dst: COLLECTOR_ADDR,
            protocol: IpProtocol::Udp,
            ttl: 64,
            identification: 0,
            dscp_ecn: 0,
            payload: udp_segment,
        }
        .emit_header_into(ip_header);
    }

    /// Parse and validate a received wire image (collector side). Runs on
    /// borrowed views all the way down: no heap allocations.
    #[inline]
    pub fn parse(wire: &[u8]) -> Result<(Heartbeat, Ipv4Addr), ParseError> {
        let ip = Ipv4View::parse(wire)?;
        if ip.protocol != IpProtocol::Udp || ip.dst != COLLECTOR_ADDR {
            return Err(ParseError::Unsupported);
        }
        let udp = UdpView::parse(ip.payload, ip.src, ip.dst)?;
        if udp.dst_port != HEARTBEAT_PORT || udp.payload.len() != 16 {
            return Err(ParseError::Unsupported);
        }
        if &udp.payload[0..4] != MAGIC {
            return Err(ParseError::Unsupported);
        }
        let router = RouterId(u32::from_be_bytes(
            udp.payload[4..8].try_into().expect("fixed slice"),
        ));
        let seq = u64::from_be_bytes(udp.payload[8..16].try_into().expect("fixed slice"));
        Ok((Heartbeat { router, seq }, ip.src))
    }

    /// Wire length of a heartbeat packet (for link accounting).
    pub fn wire_len() -> u64 {
        Self::WIRE_LEN as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::packet::{Ipv4Packet, UdpDatagram};

    const WAN: Ipv4Addr = Ipv4Addr::new(100, 64, 0, 7);

    #[test]
    fn round_trip() {
        let hb = Heartbeat { router: RouterId(42), seq: 123_456 };
        let wire = hb.emit(WAN);
        assert_eq!(wire.len() as u64, Heartbeat::wire_len());
        let (parsed, src) = Heartbeat::parse(&wire).unwrap();
        assert_eq!(parsed, hb);
        assert_eq!(src, WAN);
    }

    #[test]
    fn emit_into_matches_emit() {
        let hb = Heartbeat { router: RouterId(0xDEAD), seq: u64::MAX - 7 };
        let mut stack = [0u8; Heartbeat::WIRE_LEN];
        hb.emit_into(WAN, &mut stack);
        assert_eq!(stack.as_slice(), hb.emit(WAN).as_slice());
        let (parsed, src) = Heartbeat::parse(&stack).unwrap();
        assert_eq!(parsed, hb);
        assert_eq!(src, WAN);
    }

    #[test]
    fn wrong_port_rejected() {
        let hb = Heartbeat { router: RouterId(1), seq: 1 };
        let mut wire = hb.emit(WAN);
        // Mangle the UDP destination port (bytes 20..22 are src port,
        // 22..24 dst port) and fix nothing else: checksum now fails, which
        // is also a rejection — both paths are fine, we only need Err.
        wire[22] ^= 0xFF;
        assert!(Heartbeat::parse(&wire).is_err());
    }

    #[test]
    fn bad_magic_rejected() {
        let hb = Heartbeat { router: RouterId(1), seq: 1 };
        let wire = hb.emit(WAN);
        // Rebuild with corrupted payload but valid checksums.
        let ip = Ipv4Packet::parse(&wire).unwrap();
        let udp = UdpDatagram::parse(&ip.payload, ip.src, ip.dst).unwrap();
        let mut payload = udp.payload.clone();
        payload[0] = b'X';
        let evil = Ipv4Packet::new(
            ip.src,
            ip.dst,
            IpProtocol::Udp,
            UdpDatagram::new(udp.src_port, udp.dst_port, payload).emit(ip.src, ip.dst),
        )
        .emit();
        assert_eq!(Heartbeat::parse(&evil), Err(ParseError::Unsupported));
    }

    #[test]
    fn non_udp_rejected() {
        let pkt = Ipv4Packet::new(WAN, COLLECTOR_ADDR, IpProtocol::Tcp, vec![0; 24]).emit();
        assert_eq!(Heartbeat::parse(&pkt), Err(ParseError::Unsupported));
    }

    /// The golden digests see a delivered heartbeat only as its arrival
    /// stamp, so the wire bytes are pinned here: one FNV-1a digest over
    /// the images of a grid of routers, sequence numbers and WAN
    /// addresses, each round-tripped through `parse`.
    #[test]
    fn wire_bytes_are_pinned() {
        let wans = [WAN, Ipv4Addr::new(0, 0, 0, 0), Ipv4Addr::new(255, 255, 255, 255)];
        let seqs = [0, 1, 0xFFFF, 0x1_0000, u64::MAX];
        let mut images = Vec::new();
        for wan in wans {
            for router in [0, 1, 42, u32::MAX].map(RouterId) {
                // The first seq whose UDP checksum computes to zero, which
                // RFC 768 sends as 0xFFFF. A sum that never folds to zero
                // is never sent as 0xFFFF, so the field identifies it.
                let zero_sum = (0..=0xFFFF)
                    .find(|&seq| Heartbeat { router, seq }.emit(wan)[26..28] == [0xFF, 0xFF])
                    .expect("a zero UDP checksum within one 16-bit seq period");
                for seq in seqs.into_iter().chain([zero_sum]) {
                    let hb = Heartbeat { router, seq };
                    let wire = hb.emit(wan);
                    assert_eq!(Heartbeat::parse(&wire), Ok((hb, wan)));
                    images.extend_from_slice(&wire);
                }
            }
        }
        assert_eq!(images.len(), 3 * 4 * 6 * Heartbeat::WIRE_LEN);
        assert_eq!(obs::fnv1a64(&images), 0x35cf_fce6_516b_f51d, "heartbeat wire digest");
    }
}
