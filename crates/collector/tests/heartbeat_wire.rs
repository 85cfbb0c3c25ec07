//! Robustness of the heartbeat wire decoder, the collector's one decoder
//! of bytes straight off the network.
//!
//! * `Heartbeat::parse` never panics: not on arbitrary bytes, and not on
//!   any truncation or single-byte corruption of a valid 44-byte image.
//! * `Collector::ingest_heartbeat_wire` returns `Err` exactly when
//!   `parse` does, and logs exactly the heartbeats `parse` accepts.
//! * `rejected_heartbeats()` counts every `Err`. It is the value
//!   `publish_metrics` exports as `collector_heartbeats_rejected_total`.

use collector::Collector;
use firmware::heartbeat::Heartbeat;
use firmware::records::RouterId;
use proptest::prelude::*;
use simnet::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

fn image(router: u32, seq: u64, wan: [u8; 4]) -> Vec<u8> {
    Heartbeat { router: RouterId(router), seq }.emit(Ipv4Addr::from(wan))
}

/// Ingest `wires` one minute apart into a fresh collector and hold it to
/// `parse`: the same verdict per packet, one reject counted per `Err`,
/// one logged heartbeat per `Ok`.
fn ingest_agrees_with_parse(wires: &[Vec<u8>]) -> Collector {
    let collector = Collector::new();
    let mut rejected = 0u64;
    for (minute, wire) in (0u64..).zip(wires) {
        let at = SimTime::EPOCH + SimDuration::from_mins(minute);
        let parsed = Heartbeat::parse(wire).map(|_| ());
        assert_eq!(collector.ingest_heartbeat_wire(at, wire), parsed, "wire {wire:02x?}");
        rejected += u64::from(parsed.is_err());
    }
    assert_eq!(collector.rejected_heartbeats(), rejected);
    let logged: u64 =
        collector.snapshot().heartbeats.values().map(|log| log.total_heartbeats()).sum();
    assert_eq!(logged, wires.len() as u64 - rejected);
    collector
}

proptest! {
    #[test]
    fn arbitrary_bytes_are_rejected_without_panicking(
        wires in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..96), 1..16),
    ) {
        ingest_agrees_with_parse(&wires);
    }

    #[test]
    fn every_truncation_of_a_valid_image_is_rejected(
        router in any::<u32>(),
        seq in any::<u64>(),
        wan in any::<[u8; 4]>(),
    ) {
        let wire = image(router, seq, wan);
        prop_assert_eq!(wire.len(), Heartbeat::WIRE_LEN);
        let cuts: Vec<Vec<u8>> = (0..wire.len()).map(|cut| wire[..cut].to_vec()).collect();
        for cut in &cuts {
            prop_assert!(Heartbeat::parse(cut).is_err(), "{} bytes parsed", cut.len());
        }
        let collector = ingest_agrees_with_parse(&cuts);
        prop_assert_eq!(collector.rejected_heartbeats(), Heartbeat::WIRE_LEN as u64);
    }

    #[test]
    fn single_byte_corruptions_never_panic(
        router in any::<u32>(),
        seq in any::<u64>(),
        wan in any::<[u8; 4]>(),
        edits in proptest::collection::vec((0usize..Heartbeat::WIRE_LEN, any::<u8>()), 1..16),
    ) {
        let valid = image(router, seq, wan);
        let wires: Vec<Vec<u8>> = edits
            .iter()
            .map(|&(at, byte)| {
                let mut wire = valid.clone();
                wire[at] = byte;
                wire
            })
            .collect();
        ingest_agrees_with_parse(&wires);
    }
}

#[test]
fn published_reject_counter_is_the_collectors_count() {
    let valid = image(7, 1, [100, 64, 0, 7]);
    let mut flipped = valid.clone();
    flipped[30] ^= 0xFF;
    let wires = vec![valid.clone(), vec![], flipped, valid[..20].to_vec(), valid];
    let collector = ingest_agrees_with_parse(&wires);
    assert_eq!(collector.rejected_heartbeats(), 3);
    let published = || {
        obs::snapshot().counters.get("collector_heartbeats_rejected_total").copied().unwrap_or(0)
    };
    let before = published();
    collector.publish_metrics();
    assert_eq!(published() - before, 3);
}
