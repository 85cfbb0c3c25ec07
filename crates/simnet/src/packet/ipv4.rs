//! IPv4 header handling: emit with a valid header checksum, parse with
//! verification. Options are not supported (IHL must be 5), matching the
//! traffic the simulation generates.

use super::checksum;
use super::ParseError;
use std::net::Ipv4Addr;

/// Length of an option-less IPv4 header.
pub const IPV4_HEADER_LEN: usize = 20;

/// IP protocol numbers used in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize, serde::Deserialize)]
pub enum IpProtocol {
    /// ICMP (protocol 1).
    Icmp,
    /// TCP (protocol 6).
    Tcp,
    /// UDP (protocol 17).
    Udp,
    /// Any other protocol number, carried verbatim.
    Other(u8),
}

impl From<u8> for IpProtocol {
    fn from(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            other => IpProtocol::Other(other),
        }
    }
}

impl From<IpProtocol> for u8 {
    fn from(p: IpProtocol) -> u8 {
        match p {
            IpProtocol::Icmp => 1,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Other(v) => v,
        }
    }
}

/// A parsed or to-be-emitted IPv4 packet (no options).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ipv4Packet {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport protocol of the payload.
    pub protocol: IpProtocol,
    /// Time to live.
    pub ttl: u8,
    /// Identification field (fragmentation is not used).
    pub identification: u16,
    /// Differentiated services byte; zero for normal traffic.
    pub dscp_ecn: u8,
    /// Transport payload bytes.
    pub payload: Vec<u8>,
}

impl Ipv4Packet {
    /// Build a packet with the default TTL of 64.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol, payload: Vec<u8>) -> Self {
        Ipv4Packet { src, dst, protocol, ttl: 64, identification: 0, dscp_ecn: 0, payload }
    }

    /// Total length on the wire.
    pub fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN + self.payload.len()
    }

    /// A borrowed view over this packet, for allocation-free emission.
    pub fn view(&self) -> Ipv4View<'_> {
        Ipv4View {
            src: self.src,
            dst: self.dst,
            protocol: self.protocol,
            ttl: self.ttl,
            identification: self.identification,
            dscp_ecn: self.dscp_ecn,
            payload: &self.payload,
        }
    }

    /// Serialize, computing the header checksum.
    pub fn emit(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.emit_into(&mut buf);
        buf
    }

    /// Append the wire image to `out`, reusing its capacity.
    pub fn emit_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + self.wire_len(), 0);
        self.view().emit_into(&mut out[start..]);
    }

    /// Parse and verify a wire image.
    #[inline]
    pub fn parse(data: &[u8]) -> Result<Ipv4Packet, ParseError> {
        Ipv4View::parse(data).map(|v| v.to_owned())
    }

    /// Decrement TTL, returning `false` when the packet must be dropped.
    pub fn decrement_ttl(&mut self) -> bool {
        if self.ttl <= 1 {
            false
        } else {
            self.ttl -= 1;
            true
        }
    }
}

/// A borrowed IPv4 packet: the header fields plus a payload slice. This is
/// the allocation-free counterpart of [`Ipv4Packet`] — `parse` borrows the
/// payload from the wire image and `emit_into` writes into a caller-owned
/// buffer, so hot paths (heartbeats, probes) touch no heap at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4View<'a> {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport protocol of the payload.
    pub protocol: IpProtocol,
    /// Time to live.
    pub ttl: u8,
    /// Identification field (fragmentation is not used).
    pub identification: u16,
    /// Differentiated services byte; zero for normal traffic.
    pub dscp_ecn: u8,
    /// Transport payload bytes.
    pub payload: &'a [u8],
}

impl<'a> Ipv4View<'a> {
    /// Total length on the wire.
    pub fn wire_len(&self) -> usize {
        IPV4_HEADER_LEN + self.payload.len()
    }

    /// Write the wire image into `out[..self.wire_len()]`, computing the
    /// header checksum. Returns the number of bytes written.
    pub fn emit_into(&self, out: &mut [u8]) -> usize {
        let total_len = self.wire_len();
        self.emit_header_into(out);
        out[IPV4_HEADER_LEN..total_len].copy_from_slice(self.payload);
        total_len
    }

    /// Write only the 20-byte header (checksum included) into
    /// `out[..IPV4_HEADER_LEN]`, for callers that have already placed the
    /// payload after the header in the same buffer. The header's total
    /// length field still covers `self.payload.len()` payload bytes.
    #[inline]
    pub fn emit_header_into(&self, out: &mut [u8]) -> usize {
        let total_len = self.wire_len();
        assert!(total_len <= u16::MAX as usize, "IPv4 packet too large");
        out[0] = 0x45; // version 4, IHL 5
        out[1] = self.dscp_ecn;
        out[2..4].copy_from_slice(&(total_len as u16).to_be_bytes());
        out[4..6].copy_from_slice(&self.identification.to_be_bytes());
        out[6..8].copy_from_slice(&[0x40, 0x00]); // flags: don't fragment
        out[8] = self.ttl;
        out[9] = self.protocol.into();
        out[10..12].copy_from_slice(&[0, 0]); // checksum placeholder
        out[12..16].copy_from_slice(&self.src.octets());
        out[16..20].copy_from_slice(&self.dst.octets());
        let c = checksum::checksum(&out[..IPV4_HEADER_LEN]);
        out[10..12].copy_from_slice(&c.to_be_bytes());
        IPV4_HEADER_LEN
    }

    /// Parse and verify a wire image, borrowing the payload.
    #[inline]
    pub fn parse(data: &'a [u8]) -> Result<Ipv4View<'a>, ParseError> {
        if data.len() < IPV4_HEADER_LEN {
            return Err(ParseError::Truncated);
        }
        let version = data[0] >> 4;
        let ihl = (data[0] & 0x0F) as usize * 4;
        if version != 4 || ihl != IPV4_HEADER_LEN {
            return Err(ParseError::Unsupported);
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]) as usize;
        if total_len < IPV4_HEADER_LEN || total_len > data.len() {
            return Err(ParseError::BadLength);
        }
        if !checksum::verify(&data[..IPV4_HEADER_LEN]) {
            return Err(ParseError::BadChecksum);
        }
        Ok(Ipv4View {
            src: Ipv4Addr::new(data[12], data[13], data[14], data[15]),
            dst: Ipv4Addr::new(data[16], data[17], data[18], data[19]),
            protocol: data[9].into(),
            ttl: data[8],
            identification: u16::from_be_bytes([data[4], data[5]]),
            dscp_ecn: data[1],
            payload: &data[IPV4_HEADER_LEN..total_len],
        })
    }

    /// Copy into an owning [`Ipv4Packet`].
    pub fn to_owned(&self) -> Ipv4Packet {
        Ipv4Packet {
            src: self.src,
            dst: self.dst,
            protocol: self.protocol,
            ttl: self.ttl,
            identification: self.identification,
            dscp_ecn: self.dscp_ecn,
            payload: self.payload.to_vec(),
        }
    }
}

/// True for RFC 1918 private addresses — what sits behind the NAT.
pub fn is_private(addr: Ipv4Addr) -> bool {
    let o = addr.octets();
    o[0] == 10 || (o[0] == 172 && (16..=31).contains(&o[1])) || (o[0] == 192 && o[1] == 168)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Packet {
        Ipv4Packet::new(
            Ipv4Addr::new(192, 168, 1, 10),
            Ipv4Addr::new(8, 8, 8, 8),
            IpProtocol::Udp,
            vec![0xAA; 32],
        )
    }

    #[test]
    fn round_trip() {
        let pkt = sample();
        let wire = pkt.emit();
        assert_eq!(wire.len(), pkt.wire_len());
        assert_eq!(Ipv4Packet::parse(&wire).unwrap(), pkt);
    }

    #[test]
    fn corrupted_checksum_rejected() {
        let mut wire = sample().emit();
        wire[15] ^= 0x01; // flip a bit inside the source address
        assert_eq!(Ipv4Packet::parse(&wire), Err(ParseError::BadChecksum));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(Ipv4Packet::parse(&[0x45; 10]), Err(ParseError::Truncated));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut wire = sample().emit();
        wire[0] = 0x65; // version 6
        assert_eq!(Ipv4Packet::parse(&wire), Err(ParseError::Unsupported));
    }

    #[test]
    fn bad_total_length_rejected() {
        let mut wire = sample().emit();
        // Claim a total length longer than the buffer; fix the checksum so
        // the length check (not the checksum check) does the rejecting.
        let bogus = (wire.len() + 64) as u16;
        wire[2..4].copy_from_slice(&bogus.to_be_bytes());
        wire[10..12].copy_from_slice(&[0, 0]);
        let c = checksum::checksum(&wire[..IPV4_HEADER_LEN]);
        wire[10..12].copy_from_slice(&c.to_be_bytes());
        assert_eq!(Ipv4Packet::parse(&wire), Err(ParseError::BadLength));
    }

    #[test]
    fn extra_trailing_bytes_ignored() {
        // Ethernet padding after the IP total length must not confuse parse.
        let pkt = sample();
        let mut wire = pkt.emit();
        wire.extend_from_slice(&[0u8; 6]);
        assert_eq!(Ipv4Packet::parse(&wire).unwrap(), pkt);
    }

    #[test]
    fn ttl_decrement() {
        let mut pkt = sample();
        pkt.ttl = 2;
        assert!(pkt.decrement_ttl());
        assert_eq!(pkt.ttl, 1);
        assert!(!pkt.decrement_ttl());
    }

    #[test]
    fn private_ranges() {
        assert!(is_private(Ipv4Addr::new(10, 1, 2, 3)));
        assert!(is_private(Ipv4Addr::new(172, 16, 0, 1)));
        assert!(is_private(Ipv4Addr::new(172, 31, 255, 1)));
        assert!(!is_private(Ipv4Addr::new(172, 32, 0, 1)));
        assert!(is_private(Ipv4Addr::new(192, 168, 1, 1)));
        assert!(!is_private(Ipv4Addr::new(8, 8, 8, 8)));
    }

    #[test]
    fn protocol_mapping() {
        assert_eq!(IpProtocol::from(6), IpProtocol::Tcp);
        assert_eq!(IpProtocol::from(17), IpProtocol::Udp);
        assert_eq!(IpProtocol::from(1), IpProtocol::Icmp);
        assert_eq!(u8::from(IpProtocol::Other(89)), 89);
    }
}
