//! Parallel-ingest stress test: many home threads uploading through shard
//! handles while collector-side outage windows are in effect must land on
//! exactly the serial result — same drop count, same per-router heartbeat
//! run logs, same tables.

use collector::windows::Window;
use collector::{Collector, RouterMeta};
use firmware::records::{HeartbeatRecord, Record, RouterId, UptimeRecord};
use household::Country;
use simnet::time::{SimDuration, SimTime};

fn mins(m: u64) -> SimTime {
    SimTime::EPOCH + SimDuration::from_mins(m)
}

const MINUTES: u64 = 2_000;

/// Router IDs spanning many shards, including two that collide with
/// router 2 modulo the shard count so multi-router shards are exercised.
fn router_ids() -> Vec<RouterId> {
    (0..24u32).map(RouterId).chain([RouterId(130), RouterId(258)]).collect()
}

/// Three interleaved collector-side outage windows.
fn outages() -> Vec<Window> {
    vec![
        Window { start: mins(100), end: mins(160) },
        Window { start: mins(700), end: mins(730) },
        Window { start: mins(1_500), end: mins(1_800) },
    ]
}

fn records_for(router: RouterId) -> Vec<Record> {
    // Uptime every 10 minutes, phase-shifted per router so each home loses
    // a different subset to the outages.
    let offset = u64::from(router.0) % 7;
    (0..MINUTES)
        .filter(|m| m % 10 == offset)
        .map(|m| {
            Record::Uptime(UptimeRecord {
                router,
                at: mins(m),
                uptime: SimDuration::from_mins(m),
            })
        })
        .collect()
}

fn heartbeats_for(router: RouterId) -> Vec<HeartbeatRecord> {
    (0..MINUTES).map(|m| HeartbeatRecord { router, at: mins(m) }).collect()
}

fn register_all(collector: &Collector) {
    for router in router_ids() {
        collector.register(RouterMeta {
            router,
            country: Country::UnitedStates,
            traffic_consent: false,
        });
    }
}

fn serial_reference() -> Collector {
    let collector = Collector::new();
    collector.set_outages(outages());
    register_all(&collector);
    for router in router_ids() {
        for hb in heartbeats_for(router) {
            collector.ingest_heartbeat(hb);
        }
        collector.ingest_batch(records_for(router));
    }
    collector
}

#[test]
fn parallel_shard_ingest_matches_serial() {
    let reference = serial_reference();
    let expected_dropped = reference.dropped_in_outage();
    assert!(expected_dropped > 0, "outage windows must actually drop records");

    let parallel = Collector::new();
    parallel.set_outages(outages());
    register_all(&parallel);
    std::thread::scope(|scope| {
        for router in router_ids() {
            let collector = &parallel;
            scope.spawn(move || {
                let shard = collector.shard_handle(router);
                // Interleave small heartbeat hand-overs with small batch
                // uploads so shard locks are taken and released many times
                // mid-stream while other homes hammer the same and
                // neighbouring shards.
                let mut pending = records_for(router).into_iter().peekable();
                let mut stamps = Vec::new();
                for (i, hb) in heartbeats_for(router).into_iter().enumerate() {
                    stamps.push(hb.at);
                    if i % 10 == 9 {
                        shard.ingest_heartbeats(router, &mut stamps);
                    }
                    if i % 100 == 99 {
                        collector.ingest_batch(pending.by_ref().take(20).collect());
                    }
                }
                shard.ingest_heartbeats(router, &mut stamps);
                collector.ingest_batch(pending.collect());
            });
        }
    });

    assert_eq!(parallel.dropped_in_outage(), expected_dropped);

    let a = reference.drain_delta();
    let b = parallel.drain_delta();

    // Per-router heartbeat run logs are identical...
    assert_eq!(a.heartbeats.len(), b.heartbeats.len());
    for (router, log) in &a.heartbeats {
        let other = b.heartbeats.get(router).expect("router missing from parallel run");
        assert_eq!(log.total_heartbeats(), other.total_heartbeats(), "router {router:?}");
        assert_eq!(log.runs(), other.runs(), "router {router:?}");
    }

    // ...and so is everything else.
    assert_eq!(a.routers, b.routers);
    assert_eq!(a.uptime, b.uptime);
    assert_eq!(a.capacity, b.capacity);
    assert_eq!(a.devices, b.devices);
    assert_eq!(a.wifi, b.wifi);
    assert_eq!(a.packet_stats, b.packet_stats);
    assert_eq!(a.flows, b.flows);
    assert_eq!(a.dns, b.dns);
    assert_eq!(a.macs, b.macs);
    assert_eq!(a.associations, b.associations);
    assert_eq!(a.latency, b.latency);
}
