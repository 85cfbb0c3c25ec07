//! Ethernet II framing and MAC addresses.
//!
//! MAC addresses matter to this study beyond framing: the BISmark firmware
//! identifies device *manufacturers* from the OUI (upper 24 bits) and
//! anonymizes the device-specific lower 24 bits before upload (§3.2.2 of the
//! paper), so [`MacAddr`] exposes both halves explicitly.

use super::ParseError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Length of an Ethernet II header: destination, source, ethertype.
pub const ETHERNET_HEADER_LEN: usize = 14;

/// A 48-bit IEEE 802 MAC address.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address ff:ff:ff:ff:ff:ff.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// Build an address from an OUI (lower 24 bits used) and a NIC-specific
    /// suffix (lower 24 bits used).
    pub fn from_oui_nic(oui: u32, nic: u32) -> MacAddr {
        MacAddr([
            ((oui >> 16) & 0xFF) as u8,
            ((oui >> 8) & 0xFF) as u8,
            (oui & 0xFF) as u8,
            ((nic >> 16) & 0xFF) as u8,
            ((nic >> 8) & 0xFF) as u8,
            (nic & 0xFF) as u8,
        ])
    }

    /// The Organizationally Unique Identifier: upper 24 bits, which identify
    /// the manufacturer and which the firmware is allowed to report.
    pub fn oui(self) -> u32 {
        (u32::from(self.0[0]) << 16) | (u32::from(self.0[1]) << 8) | u32::from(self.0[2])
    }

    /// The NIC-specific lower 24 bits — the personally identifying half the
    /// firmware must hash before upload.
    pub fn nic(self) -> u32 {
        (u32::from(self.0[3]) << 16) | (u32::from(self.0[4]) << 8) | u32::from(self.0[5])
    }

    /// True for broadcast/multicast addresses (group bit set).
    pub fn is_multicast(self) -> bool {
        self.0[0] & 0x01 != 0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// Ethertype values used in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806).
    Arp,
    /// Anything else, carried verbatim.
    Other(u16),
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            other => EtherType::Other(other),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(t: EtherType) -> u16 {
        match t {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Other(v) => v,
        }
    }
}

/// A parsed or to-be-emitted Ethernet II frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EthernetFrame {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// Payload type.
    pub ethertype: EtherType,
    /// Frame payload.
    pub payload: Vec<u8>,
}

impl EthernetFrame {
    /// Length on the wire.
    pub fn wire_len(&self) -> usize {
        ETHERNET_HEADER_LEN + self.payload.len()
    }

    /// A borrowed view over this frame, for allocation-free emission.
    pub fn view(&self) -> EthernetView<'_> {
        EthernetView { dst: self.dst, src: self.src, ethertype: self.ethertype, payload: &self.payload }
    }

    /// Serialize to a wire image.
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

    /// Parse a wire image.
    pub fn parse(data: &[u8]) -> Result<EthernetFrame, ParseError> {
        EthernetView::parse(data).map(|v| v.to_owned())
    }
}

/// A borrowed Ethernet II frame: addresses plus a payload slice — the
/// allocation-free counterpart of [`EthernetFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetView<'a> {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// Payload type.
    pub ethertype: EtherType,
    /// Frame payload.
    pub payload: &'a [u8],
}

impl<'a> EthernetView<'a> {
    /// Length on the wire.
    pub fn wire_len(&self) -> usize {
        ETHERNET_HEADER_LEN + self.payload.len()
    }

    /// Write the wire image into `out[..self.wire_len()]`. Returns the
    /// number of bytes written.
    pub fn emit_into(&self, out: &mut [u8]) -> usize {
        let len = self.wire_len();
        out[0..6].copy_from_slice(&self.dst.0);
        out[6..12].copy_from_slice(&self.src.0);
        out[12..14].copy_from_slice(&u16::from(self.ethertype).to_be_bytes());
        out[ETHERNET_HEADER_LEN..len].copy_from_slice(self.payload);
        len
    }

    /// Parse a wire image, borrowing the payload.
    pub fn parse(data: &'a [u8]) -> Result<EthernetView<'a>, ParseError> {
        if data.len() < ETHERNET_HEADER_LEN {
            return Err(ParseError::Truncated);
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&data[0..6]);
        src.copy_from_slice(&data[6..12]);
        let ethertype = u16::from_be_bytes([data[12], data[13]]).into();
        Ok(EthernetView {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype,
            payload: &data[ETHERNET_HEADER_LEN..],
        })
    }

    /// Copy into an owning [`EthernetFrame`].
    pub fn to_owned(&self) -> EthernetFrame {
        EthernetFrame {
            dst: self.dst,
            src: self.src,
            ethertype: self.ethertype,
            payload: self.payload.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_halves_round_trip() {
        let mac = MacAddr::from_oui_nic(0x00_1B_63, 0xAB_CD_EF);
        assert_eq!(mac.oui(), 0x001B63);
        assert_eq!(mac.nic(), 0xABCDEF);
        assert_eq!(format!("{mac}"), "00:1b:63:ab:cd:ef");
    }

    #[test]
    fn broadcast_is_multicast() {
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::from_oui_nic(0x001B63, 1).is_multicast());
    }

    #[test]
    fn frame_round_trip() {
        let frame = EthernetFrame {
            dst: MacAddr::from_oui_nic(0x0A0B0C, 0x010203),
            src: MacAddr::from_oui_nic(0x0D0E0F, 0x040506),
            ethertype: EtherType::Ipv4,
            payload: vec![1, 2, 3, 4, 5],
        };
        let wire = frame.emit();
        assert_eq!(wire.len(), ETHERNET_HEADER_LEN + 5);
        assert_eq!(EthernetFrame::parse(&wire).unwrap(), frame);
    }

    #[test]
    fn truncated_frame_rejected() {
        assert_eq!(EthernetFrame::parse(&[0u8; 13]), Err(ParseError::Truncated));
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(EtherType::from(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from(0x86DD), EtherType::Other(0x86DD));
        assert_eq!(u16::from(EtherType::Other(0x1234)), 0x1234);
    }
}
