//! Property-based tests for the upload ingestion path: the watermark /
//! dedup / reorder-buffer machinery must make batch delivery *idempotent*
//! and *order-free*. Whatever arrival pattern the network produces —
//! duplicates from retries whose ack was lost, reorderings from parallel
//! paths, partial replays after a crash — as long as every batch is
//! eventually offered at least once, the resulting data sets are
//! byte-identical to a clean in-order delivery.

use collector::{Collector, Datasets, RouterMeta};
use firmware::records::{HeartbeatRecord, Record, RouterId, UptimeRecord};
use firmware::uploader::{GapCause, GapDecl};
use household::Country;
use proptest::prelude::*;
use simnet::time::{SimDuration, SimTime};

const ROUTERS: u32 = 3;
const BATCHES_PER_ROUTER: u64 = 5;
/// One router's sequence has a hole: batch 3 was destroyed and is covered
/// by a gap declaration riding on batch 4 instead of ever arriving.
const GAP_ROUTER: u32 = 2;
const GAP_SEQ: u64 = 3;

fn t(mins: u64) -> SimTime {
    SimTime::EPOCH + SimDuration::from_mins(mins)
}

/// The canonical contents of one batch. Heartbeat timestamps increase with
/// the sequence number, so *seq-order application* (which the collector
/// guarantees regardless of arrival order) keeps the run-length heartbeat
/// log's monotonicity invariant.
fn batch_records(router: RouterId, seq: u64) -> Vec<Record> {
    let base = seq * 100 + u64::from(router.0);
    vec![
        Record::Heartbeat(HeartbeatRecord { router, at: t(base) }),
        Record::Heartbeat(HeartbeatRecord { router, at: t(base + 1) }),
        Record::Uptime(UptimeRecord {
            router,
            at: t(base + 2),
            uptime: SimDuration::from_mins(base),
        }),
    ]
}

fn gaps_for(router: RouterId, seq: u64) -> Vec<GapDecl> {
    if router.0 == GAP_ROUTER && seq == GAP_SEQ + 1 {
        vec![GapDecl {
            first_seq: GAP_SEQ,
            last_seq: GAP_SEQ,
            records_lost: 3,
            from: t(GAP_SEQ * 100),
            to: t(GAP_SEQ * 100 + 2),
            cause: GapCause::FlashWipe,
        }]
    } else {
        Vec::new()
    }
}

/// Every (router, seq) batch that exists, in clean delivery order.
fn canonical_order() -> Vec<(RouterId, u64)> {
    let mut all = Vec::new();
    for r in 1..=ROUTERS {
        for seq in 1..=BATCHES_PER_ROUTER {
            if r == GAP_ROUTER && seq == GAP_SEQ {
                continue; // destroyed: covered by a gap declaration
            }
            all.push((RouterId(r), seq));
        }
    }
    all
}

fn fresh_collector() -> Collector {
    let collector = Collector::new();
    for r in 1..=ROUTERS {
        collector.register(RouterMeta {
            router: RouterId(r),
            country: Country::UnitedStates,
            traffic_consent: false,
        });
    }
    collector
}

fn deliver(collector: &Collector, router: RouterId, seq: u64, attempt: u32) {
    let mut records = batch_records(router, seq);
    let gaps = gaps_for(router, seq);
    let shard = collector.shard_handle(router);
    shard.ingest_upload(t(10_000), router, seq, attempt, &gaps, &mut records);
}

fn reference_datasets() -> Datasets {
    let collector = fresh_collector();
    for (router, seq) in canonical_order() {
        deliver(&collector, router, seq, 0);
    }
    collector.drain_delta()
}

proptest! {
    #[test]
    fn any_arrival_pattern_yields_identical_datasets(
        scramble in proptest::collection::vec(0u64..14, 0..60),
        attempts in proptest::collection::vec(0u64..3, 14),
    ) {
        let all = canonical_order();
        let reference = reference_datasets();
        let collector = fresh_collector();
        // Phase 1: an adversarial prefix — arbitrary batches arrive in an
        // arbitrary order, some of them many times (retries), some not at
        // all yet (still in flight).
        for &i in &scramble {
            let (router, seq) = all[i as usize];
            deliver(&collector, router, seq, attempts[i as usize] as u32);
        }
        // Phase 2: the reliable uploader eventually gets everything
        // through — replay the full sequence, backwards for good measure
        // (every batch has now been offered between 1 and N times).
        for &(router, seq) in all.iter().rev() {
            deliver(&collector, router, seq, 1);
        }
        let datasets = collector.drain_delta();
        prop_assert!(
            datasets == reference,
            "scrambled delivery diverged from clean in-order delivery"
        );
        // The gap ledger is part of the equality above, but make the
        // expectation explicit: exactly one gap record, never duplicated.
        let gaps: Vec<_> = datasets.upload_gaps.iter().collect();
        prop_assert_eq!(gaps.len(), 1);
        prop_assert_eq!(gaps[0].first_seq, GAP_SEQ);
        prop_assert_eq!(gaps[0].records_lost, 3);
    }

    #[test]
    fn double_ingestion_of_any_prefix_is_invisible(
        prefix_len in 0u64..15,
    ) {
        let all = canonical_order();
        let reference = reference_datasets();
        let collector = fresh_collector();
        // Deliver a prefix, then the *entire* sequence again: the second
        // pass must ack the already-applied prefix as duplicates without
        // changing a single record.
        for &(router, seq) in all.iter().take(prefix_len as usize) {
            deliver(&collector, router, seq, 0);
        }
        for &(router, seq) in &all {
            deliver(&collector, router, seq, 1);
        }
        prop_assert!(collector.drain_delta() == reference);
    }
}
