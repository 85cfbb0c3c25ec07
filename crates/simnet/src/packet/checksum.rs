//! The Internet checksum (RFC 1071) shared by the IPv4, UDP, and TCP
//! implementations.

use std::net::Ipv4Addr;

/// One's-complement sum of a byte slice, folding carries, without the final
/// complement. Odd trailing bytes are padded with zero per RFC 1071.
#[inline]
pub fn ones_complement_sum(data: &[u8]) -> u32 {
    let mut sum: u32 = 0;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u32::from(u16::from_be_bytes([chunk[0], chunk[1]]));
    }
    if let [last] = chunks.remainder() {
        sum += u32::from(u16::from_be_bytes([*last, 0]));
    }
    sum
}

/// Fold a 32-bit running sum to 16 bits and complement it.
#[inline]
pub fn finish(mut sum: u32) -> u16 {
    while sum > 0xFFFF {
        sum = (sum & 0xFFFF) + (sum >> 16);
    }
    !(sum as u16)
}

/// RFC 1071 checksum of a standalone buffer (e.g. an IPv4 header with its
/// checksum field zeroed).
#[inline]
pub fn checksum(data: &[u8]) -> u16 {
    finish(ones_complement_sum(data))
}

/// Checksum over the IPv4 pseudo-header plus a transport segment, as UDP
/// and TCP require.
#[inline]
pub fn pseudo_header_checksum(
    src: Ipv4Addr,
    dst: Ipv4Addr,
    protocol: u8,
    segment: &[u8],
) -> u16 {
    let mut sum = ones_complement_sum(&src.octets());
    sum += ones_complement_sum(&dst.octets());
    sum += u32::from(protocol);
    sum += segment.len() as u32;
    sum += ones_complement_sum(segment);
    finish(sum)
}

/// Verify a buffer whose checksum field is still in place: the folded sum of
/// the whole buffer must be zero.
#[inline]
pub fn verify(data: &[u8]) -> bool {
    finish(ones_complement_sum(data)) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_worked_example() {
        // The classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2u16);
    }

    #[test]
    fn odd_length_pads_with_zero() {
        assert_eq!(checksum(&[0xFF]), checksum(&[0xFF, 0x00]));
    }

    #[test]
    fn verify_round_trip() {
        let mut data = vec![0x45u8, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11, 0, 0];
        let c = checksum(&data);
        data[10..12].copy_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
        data[4] ^= 0x01;
        assert!(!verify(&data));
    }

    #[test]
    fn empty_buffer_checksum() {
        assert_eq!(checksum(&[]), 0xFFFF);
    }

    #[test]
    fn pseudo_header_differs_by_protocol() {
        let a = Ipv4Addr::new(10, 0, 0, 1);
        let b = Ipv4Addr::new(8, 8, 8, 8);
        let seg = [1u8, 2, 3, 4];
        assert_ne!(
            pseudo_header_checksum(a, b, 17, &seg),
            pseudo_header_checksum(a, b, 6, &seg)
        );
    }
}
