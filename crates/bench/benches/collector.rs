//! Collector ingestion and merge benches: the sharded server's hot paths —
//! per-record vs batched uploads, contended multi-thread ingestion, and
//! snapshot/merge throughput over a deployment-sized dataset.

use analysis::DataIndex;
use collector::{Collector, FlowTable, PacketStatsTable, RouterMeta};
use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use firmware::anonymize::{AnonMac, ReportedDomain};
use firmware::records::{
    FlowRecord, HeartbeatRecord, PacketStatsRecord, Record, RouterId, UptimeRecord,
};
use household::Country;
use simnet::packet::IpProtocol;
use simnet::time::{SimDuration, SimTime};

fn mins(m: u64) -> SimTime {
    SimTime::EPOCH + SimDuration::from_mins(m)
}

fn uptime_records(router: RouterId, n: u64) -> Vec<Record> {
    (0..n)
        .map(|m| {
            Record::Uptime(UptimeRecord {
                router,
                at: mins(m),
                uptime: SimDuration::from_mins(m),
            })
        })
        .collect()
}

fn registered(routers: u32) -> Collector {
    let collector = Collector::new();
    for r in 0..routers {
        collector.register(RouterMeta {
            router: RouterId(r),
            country: Country::UnitedStates,
            traffic_consent: false,
        });
    }
    collector
}

const RECORDS_PER_HOME: u64 = 5_000;

/// One home's upload, record-at-a-time vs batched vs drained through a
/// shard handle (the path home simulations take).
fn bench_ingest_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("collector_ingest_5k");
    group.sample_size(20);
    group.bench_function("single_records", |b| {
        b.iter_batched(
            || uptime_records(RouterId(7), RECORDS_PER_HOME),
            |records| {
                let collector = registered(1);
                for record in records {
                    collector.ingest(record);
                }
                black_box(collector.snapshot().record_count())
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("batch", |b| {
        b.iter_batched(
            || uptime_records(RouterId(7), RECORDS_PER_HOME),
            |records| {
                let collector = registered(1);
                collector.ingest_batch(records);
                black_box(collector.snapshot().record_count())
            },
            BatchSize::LargeInput,
        )
    });
    group.bench_function("shard_handle_drain", |b| {
        b.iter_batched(
            || uptime_records(RouterId(7), RECORDS_PER_HOME),
            |mut records| {
                let collector = registered(1);
                collector.shard_handle(RouterId(7)).ingest_drain(&mut records);
                black_box(collector.snapshot().record_count())
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

/// Eight upload threads hammering the collector at once, deployment-style:
/// each thread owns a slice of the 126 routers and interleaves heartbeats
/// with small record batches.
fn bench_contended_ingest(c: &mut Criterion) {
    const THREADS: u32 = 8;
    const ROUTERS: u32 = 126;
    const HEARTBEATS: u64 = 500;
    let mut group = c.benchmark_group("collector_contended");
    group.sample_size(10);
    group.bench_function("8_threads_126_homes", |b| {
        b.iter(|| {
            let collector = registered(ROUTERS);
            std::thread::scope(|scope| {
                for t in 0..THREADS {
                    let collector = &collector;
                    scope.spawn(move || {
                        for r in (t..ROUTERS).step_by(THREADS as usize) {
                            let router = RouterId(r);
                            let shard = collector.shard_handle(router);
                            for m in 0..HEARTBEATS {
                                shard.ingest_heartbeat(HeartbeatRecord { router, at: mins(m) });
                                if m % 100 == 99 {
                                    collector.ingest_batch(uptime_records(router, 50));
                                }
                            }
                        }
                    });
                }
            });
            black_box(collector.into_datasets().record_count())
        })
    });
    group.finish();
}

/// Snapshot (clone + merge) vs consuming merge over a full-deployment-sized
/// collector: 126 homes, 5k records each, spread over all shards.
fn bench_snapshot_merge(c: &mut Criterion) {
    const ROUTERS: u32 = 126;
    let filled = || {
        let collector = registered(ROUTERS);
        for r in 0..ROUTERS {
            let router = RouterId(r);
            let shard = collector.shard_handle(router);
            collector.ingest_batch(uptime_records(router, RECORDS_PER_HOME));
            for m in (0..RECORDS_PER_HOME).step_by(10) {
                shard.ingest_heartbeat(HeartbeatRecord { router, at: mins(m) });
            }
        }
        collector
    };
    let mut group = c.benchmark_group("collector_merge_126x5k");
    group.sample_size(10);
    let live = filled();
    group.bench_function("snapshot", |b| {
        b.iter(|| black_box(live.snapshot().record_count()))
    });
    group.bench_function("into_datasets", |b| {
        b.iter_batched(
            filled,
            |collector| black_box(collector.into_datasets().record_count()),
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn stats_record(router: RouterId, m: u64) -> PacketStatsRecord {
    PacketStatsRecord {
        router,
        at: mins(m),
        bytes_down: m * 1500,
        bytes_up: m * 400,
        pkts_down: m,
        pkts_up: m / 2,
        peak_down_1s: 40_000,
        peak_up_1s: 9_000,
    }
}

fn flow_record(router: RouterId, m: u64) -> FlowRecord {
    FlowRecord {
        router,
        started: mins(m),
        ended: mins(m) + SimDuration::from_secs(30),
        device: AnonMac { oui: 0x0000_0102, suffix_hash: (m % 7) as u32 },
        remote_ip_hash: m.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        remote_port: 443,
        proto: IpProtocol::Tcp,
        // A small rotating set so interning hits both lanes: repeats and
        // first sightings.
        domain: ReportedDomain::Obfuscated(m % 50),
        bytes_down: m * 900,
        bytes_up: m * 120,
    }
}

/// The columnar append hot path: pushing high-volume records straight into
/// the struct-of-arrays tables (delta time encoding, narrow columns, and
/// domain interning all exercised).
fn bench_columnar_append(c: &mut Criterion) {
    const N: u64 = 50_000;
    let mut group = c.benchmark_group("columnar_append_50k");
    group.sample_size(20);
    group.bench_function("packet_stats", |b| {
        b.iter(|| {
            let mut table = PacketStatsTable::default();
            for m in 0..N {
                table.push(stats_record(RouterId((m % 126) as u32), m));
            }
            black_box(table.len())
        })
    });
    group.bench_function("flows", |b| {
        b.iter(|| {
            let mut table = FlowTable::default();
            for m in 0..N {
                table.push(flow_record(RouterId((m % 126) as u32), m));
            }
            black_box(table.len())
        })
    });
    group.finish();
}

/// DataIndex construction over columnar datasets, plus a full per-router
/// column scan — the analysis-side read path over the encoded columns.
fn bench_index_from_columns(c: &mut Criterion) {
    const ROUTERS: u32 = 126;
    const PER_ROUTER: u64 = 2_000;
    let collector = registered(ROUTERS);
    for r in 0..ROUTERS {
        let router = RouterId(r);
        for m in 0..PER_ROUTER {
            collector.ingest(Record::PacketStats(stats_record(router, m)));
            collector.ingest(Record::Flow(flow_record(router, m)));
        }
    }
    let datasets = collector.into_datasets();
    let mut group = c.benchmark_group("columnar_index_126x4k");
    group.sample_size(20);
    group.bench_function("data_index_new", |b| {
        b.iter(|| black_box(DataIndex::new(&datasets).routers().len()))
    });
    group.bench_function("scan_all_columns", |b| {
        b.iter(|| {
            let idx = DataIndex::new(&datasets);
            let mut bytes = 0u64;
            for r in 0..ROUTERS {
                for s in idx.packet_stats(RouterId(r)) {
                    bytes = bytes.wrapping_add(s.bytes_down);
                }
                for f in idx.flows(RouterId(r)) {
                    bytes = bytes.wrapping_add(f.bytes_down);
                }
            }
            black_box(bytes)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ingest_paths,
    bench_contended_ingest,
    bench_snapshot_merge,
    bench_columnar_append,
    bench_index_from_columns
);
criterion_main!(benches);
