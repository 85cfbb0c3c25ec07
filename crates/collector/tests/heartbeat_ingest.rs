//! Batched heartbeat hand-over against the one-record path.
//!
//! Home simulations buffer each delivered heartbeat's arrival stamp and
//! hand the stamps over in batches through
//! `ShardHandle::ingest_heartbeats`. The collector admits a heartbeat by
//! its stamp alone, so for any non-decreasing stamp runs and any announced
//! downtime, the batches must leave exactly what stamp-by-stamp
//! `Collector::ingest_heartbeat` leaves:
//!
//! * the same per-router run logs, with no log for a router whose stamps
//!   were all dropped;
//! * the same `dropped_in_downtime()` count;
//! * an empty buffer after every hand-over.

use collector::windows::Window;
use collector::Collector;
use firmware::records::{HeartbeatRecord, RouterId};
use proptest::prelude::*;
use simnet::time::{SimDuration, SimTime};

/// Four routers, two of them on one shard (ids 128 apart), so a batch
/// lands beside another router's log.
const ROUTERS: [RouterId; 4] = [RouterId(3), RouterId(131), RouterId(7), RouterId(40)];

fn secs(s: u64) -> SimTime {
    SimTime::EPOCH + SimDuration::from_secs(s)
}

/// Non-decreasing arrival stamps: a start, then gaps of 0 to 10 minutes.
fn stamp_run() -> impl Strategy<Value = Vec<SimTime>> {
    (0u64..3_600, proptest::collection::vec(0u64..600, 0..150)).prop_map(|(start, gaps)| {
        gaps.iter()
            .scan(start, |at, &gap| {
                *at += gap;
                Some(secs(*at))
            })
            .collect()
    })
}

/// Up to three windows of up to 2 hours, anywhere in the first 20 hours.
fn windows() -> impl Strategy<Value = Vec<Window>> {
    proptest::collection::vec((0u64..72_000, 1u64..7_200), 0..4).prop_map(|spans| {
        spans
            .into_iter()
            .map(|(start, len)| Window { start: secs(start), end: secs(start + len) })
            .collect()
    })
}

fn collector(downtime: &[Window]) -> Collector {
    let collector = Collector::new();
    collector.set_downtime(downtime.to_vec());
    collector
}

proptest! {
    #[test]
    fn batched_ingest_matches_stamp_by_stamp(
        runs in proptest::collection::vec(stamp_run(), ROUTERS.len()),
        downtime in windows(),
        batch in 1usize..40,
    ) {
        let reference = collector(&downtime);
        for (&router, stamps) in ROUTERS.iter().zip(&runs) {
            for &at in stamps {
                reference.ingest_heartbeat(HeartbeatRecord { router, at });
            }
        }

        let batched = collector(&downtime);
        let mut buffer = Vec::new();
        for (&router, stamps) in ROUTERS.iter().zip(&runs) {
            let shard = batched.shard_handle(router);
            shard.ingest_heartbeats(router, &mut buffer);
            for chunk in stamps.chunks(batch) {
                buffer.extend_from_slice(chunk);
                shard.ingest_heartbeats(router, &mut buffer);
                prop_assert!(buffer.is_empty(), "a hand-over must leave the buffer empty");
            }
        }

        prop_assert_eq!(batched.dropped_in_downtime(), reference.dropped_in_downtime());
        let (want, got) = (reference.drain_delta(), batched.drain_delta());
        prop_assert!(
            got.heartbeats.values().all(|log| log.total_heartbeats() > 0),
            "a router whose stamps were all dropped must get no log"
        );
        prop_assert_eq!(got.heartbeats, want.heartbeats);
    }
}
