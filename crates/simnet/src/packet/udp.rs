//! UDP datagrams with pseudo-header checksums. Heartbeats, DNS, and the
//! ShaperProbe trains all ride on UDP.

use super::checksum;
use super::ParseError;
use std::net::Ipv4Addr;

/// Length of a UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A parsed or to-be-emitted UDP datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: Vec<u8>,
}

impl UdpDatagram {
    /// Construct a datagram.
    pub fn new(src_port: u16, dst_port: u16, payload: Vec<u8>) -> Self {
        UdpDatagram { src_port, dst_port, payload }
    }

    /// Length on the wire.
    pub fn wire_len(&self) -> usize {
        UDP_HEADER_LEN + self.payload.len()
    }

    /// A borrowed view over this datagram, for allocation-free emission.
    pub fn view(&self) -> UdpView<'_> {
        UdpView { src_port: self.src_port, dst_port: self.dst_port, payload: &self.payload }
    }

    /// Serialize with the pseudo-header checksum for the given IP pair.
    pub fn emit(&self, src: Ipv4Addr, dst: Ipv4Addr) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.emit_into(src, dst, &mut buf);
        buf
    }

    /// Append the wire image to `out`, reusing its capacity.
    #[inline]
    pub fn emit_into(&self, src: Ipv4Addr, dst: Ipv4Addr, out: &mut Vec<u8>) {
        let start = out.len();
        out.resize(start + self.wire_len(), 0);
        self.view().emit_into(src, dst, &mut out[start..]);
    }

    /// Parse and verify against the pseudo-header for the given IP pair.
    #[inline]
    pub fn parse(data: &[u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<UdpDatagram, ParseError> {
        UdpView::parse(data, src, dst).map(|v| v.to_owned())
    }
}

/// A borrowed UDP datagram: ports plus a payload slice — the
/// allocation-free counterpart of [`UdpDatagram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpView<'a> {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: &'a [u8],
}

impl<'a> UdpView<'a> {
    /// Length on the wire.
    pub fn wire_len(&self) -> usize {
        UDP_HEADER_LEN + self.payload.len()
    }

    /// Write the wire image into `out[..self.wire_len()]`, computing the
    /// pseudo-header checksum for the given IP pair. Returns the number of
    /// bytes written.
    #[inline]
    pub fn emit_into(&self, src: Ipv4Addr, dst: Ipv4Addr, out: &mut [u8]) -> usize {
        let len = self.wire_len();
        assert!(len <= u16::MAX as usize, "UDP datagram too large");
        out[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        out[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        out[4..6].copy_from_slice(&(len as u16).to_be_bytes());
        out[6..8].copy_from_slice(&[0, 0]);
        out[UDP_HEADER_LEN..len].copy_from_slice(self.payload);
        let mut c = checksum::pseudo_header_checksum(src, dst, 17, &out[..len]);
        if c == 0 {
            // RFC 768: an all-zero computed checksum is transmitted as 0xFFFF.
            c = 0xFFFF;
        }
        out[6..8].copy_from_slice(&c.to_be_bytes());
        len
    }

    /// Parse and verify against the pseudo-header, borrowing the payload.
    #[inline]
    pub fn parse(data: &'a [u8], src: Ipv4Addr, dst: Ipv4Addr) -> Result<UdpView<'a>, ParseError> {
        if data.len() < UDP_HEADER_LEN {
            return Err(ParseError::Truncated);
        }
        let len = u16::from_be_bytes([data[4], data[5]]) as usize;
        if len < UDP_HEADER_LEN || len > data.len() {
            return Err(ParseError::BadLength);
        }
        let cksum = u16::from_be_bytes([data[6], data[7]]);
        if cksum != 0 {
            // A computed value of zero over data including the transmitted
            // checksum indicates validity.
            let sum = checksum::pseudo_header_checksum(src, dst, 17, &data[..len]);
            if sum != 0 {
                return Err(ParseError::BadChecksum);
            }
        }
        Ok(UdpView {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
            payload: &data[UDP_HEADER_LEN..len],
        })
    }

    /// Copy into an owning [`UdpDatagram`].
    pub fn to_owned(&self) -> UdpDatagram {
        UdpDatagram {
            src_port: self.src_port,
            dst_port: self.dst_port,
            payload: self.payload.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 2);
    const DST: Ipv4Addr = Ipv4Addr::new(128, 61, 2, 1);

    #[test]
    fn round_trip() {
        let dgram = UdpDatagram::new(50_000, 53, b"heartbeat".to_vec());
        let wire = dgram.emit(SRC, DST);
        assert_eq!(UdpDatagram::parse(&wire, SRC, DST).unwrap(), dgram);
    }

    #[test]
    fn checksum_binds_addresses() {
        let dgram = UdpDatagram::new(1111, 2222, vec![9; 16]);
        let wire = dgram.emit(SRC, DST);
        // Same bytes presented with a different pseudo-header must fail.
        let other = Ipv4Addr::new(10, 0, 0, 1);
        assert_eq!(UdpDatagram::parse(&wire, other, DST), Err(ParseError::BadChecksum));
    }

    #[test]
    fn corrupt_payload_rejected() {
        let dgram = UdpDatagram::new(1111, 2222, vec![1, 2, 3, 4]);
        let mut wire = dgram.emit(SRC, DST);
        let last = wire.len() - 1;
        wire[last] ^= 0xFF;
        assert_eq!(UdpDatagram::parse(&wire, SRC, DST), Err(ParseError::BadChecksum));
    }

    #[test]
    fn truncated_and_bad_length() {
        assert_eq!(UdpDatagram::parse(&[0; 4], SRC, DST), Err(ParseError::Truncated));
        let dgram = UdpDatagram::new(1, 2, vec![0; 8]);
        let mut wire = dgram.emit(SRC, DST);
        wire[4..6].copy_from_slice(&100u16.to_be_bytes());
        assert_eq!(UdpDatagram::parse(&wire, SRC, DST), Err(ParseError::BadLength));
    }

    #[test]
    fn empty_payload_ok() {
        let dgram = UdpDatagram::new(7, 9, Vec::new());
        let wire = dgram.emit(SRC, DST);
        assert_eq!(wire.len(), UDP_HEADER_LEN);
        assert_eq!(UdpDatagram::parse(&wire, SRC, DST).unwrap(), dgram);
    }
}
