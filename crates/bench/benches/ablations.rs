//! Timing benches for the mechanisms DESIGN.md's ablations sweep. The
//! ablation outcomes themselves are asserted by unit tests beside the code
//! they drive:
//!
//! * **bufferbloat** (`simnet::link`): queue depth vs standing delay;
//! * **scan throttle** (`simnet::wifi`): scan rate vs AP sightings and
//!   client disassociations;
//! * **heartbeat interval** (`collector::runlog`): sampling period vs
//!   downtime detection;
//! * **probe train length** (`firmware::shaperprobe`): train bytes vs the
//!   burst phase of a shaped link.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use simnet::link::{Link, LinkConfig, TxOutcome};
use simnet::rng::DetRng;
use simnet::time::{SimDuration, SimTime};
use simnet::wifi::{Band, NeighborAp, Radio};

fn bench_bufferbloat_queue_fill(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_bufferbloat");
    for queue_kb in [16u64, 256, 1024] {
        let cfg = LinkConfig::simple(1_000_000, SimDuration::from_millis(10), queue_kb * 1024);
        group.bench_function(&format!("fill_queue_{queue_kb}kb"), |b| {
            b.iter(|| {
                let mut link = Link::new(cfg);
                let mut accepted = 0;
                while matches!(link.transmit(SimTime::EPOCH, 1_500), TxOutcome::Delivered { .. })
                {
                    accepted += 1;
                }
                black_box(accepted)
            })
        });
    }
    group.finish();
}

fn bench_scan_slot(c: &mut Criterion) {
    let hood = vec![NeighborAp {
        bssid: simnet::packet::MacAddr::from_oui_nic(0xF8_1A_67, 7),
        channel: Band::Ghz24.default_channel(),
        signal_dbm: -55,
        airtime_load: 0.1,
    }];
    c.bench_function("ablation_scan_slot", |b| {
        let mut radio = Radio::new(Band::Ghz24);
        let mut rng = DetRng::new(1);
        b.iter(|| black_box(radio.scan(&hood, &mut rng).visible.len()))
    });
}

fn bench_runlog_ingest(c: &mut Criterion) {
    c.bench_function("ablation_runlog_ingest_10k", |b| {
        b.iter(|| {
            let mut log = collector::RunLog::new();
            for i in 0..10_000u64 {
                log.push(SimTime::EPOCH + SimDuration::from_mins(i));
            }
            black_box(log.runs().len())
        })
    });
}

fn bench_probe_train(c: &mut Criterion) {
    let cfg = LinkConfig::shaped(
        10_000_000,
        20_000_000,
        192 * 1024,
        SimDuration::from_millis(8),
        1 << 22,
    );
    c.bench_function("ablation_probe_512", |b| {
        let mut rng = DetRng::new(10);
        b.iter(|| {
            let mut link = Link::new(cfg);
            black_box(firmware::probe_link(&mut link, SimTime::EPOCH, &mut rng))
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_bufferbloat_queue_fill, bench_scan_slot, bench_runlog_ingest,
        bench_probe_train
);
criterion_main!(benches);
