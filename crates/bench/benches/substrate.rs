//! Microbenchmarks of the simulation substrate: the hot paths every study
//! run exercises millions of times.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use simnet::dns::{DnsQuery, DomainName};
use simnet::event::EventQueue;
use simnet::link::{Link, LinkConfig};
use simnet::nat::Nat;
use simnet::packet::{Endpoint, FiveTuple, IpProtocol, Ipv4Packet};
use simnet::rng::{DetRng, ZipfTable};
use simnet::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

fn bench_event_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("event_queue");
    group.throughput(Throughput::Elements(10_000));
    group.bench_function("schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(SimTime::from_micros((i * 7919) % 1_000_000), i);
            }
            let mut sum = 0u64;
            while let Some((_, e)) = q.pop() {
                sum = sum.wrapping_add(e);
            }
            black_box(sum)
        })
    });
    group.finish();
}

fn bench_packets(c: &mut Criterion) {
    let mut group = c.benchmark_group("packets");
    let pkt = Ipv4Packet::new(
        Ipv4Addr::new(192, 168, 1, 7),
        Ipv4Addr::new(23, 64, 1, 10),
        IpProtocol::Tcp,
        vec![0xAB; 1_400],
    );
    let wire = pkt.emit();
    group.throughput(Throughput::Bytes(wire.len() as u64));
    group.bench_function("ipv4_emit_1400B", |b| b.iter(|| black_box(pkt.emit())));
    group.bench_function("ipv4_parse_1400B", |b| {
        b.iter(|| black_box(Ipv4Packet::parse(&wire).expect("valid")))
    });
    let wan = Ipv4Addr::new(100, 64, 0, 7);
    let hb = firmware::Heartbeat { router: firmware::RouterId(7), seq: 42 };
    let hb_wire = hb.emit(wan);
    group.bench_function("heartbeat_emit", |b| b.iter(|| black_box(hb.emit(wan))));
    // The zero-allocation path the simulation hot loop uses. With the wire
    // helpers inlined, constant inputs would let the whole emit hoist out
    // of the loop: router, address and a seq that changes every iteration
    // go through `black_box`.
    let next = |seq: &mut u64| {
        *seq += 1;
        firmware::Heartbeat { router: black_box(firmware::RouterId(7)), seq: black_box(*seq) }
    };
    group.bench_function("heartbeat_emit_into", |b| {
        let mut buf = [0u8; firmware::Heartbeat::WIRE_LEN];
        let mut seq = 0;
        b.iter(|| {
            next(&mut seq).emit_into(black_box(wan), &mut buf);
            black_box(&buf);
        })
    });
    group.bench_function("heartbeat_parse", |b| {
        b.iter(|| black_box(firmware::Heartbeat::parse(&hb_wire).expect("valid")))
    });
    group.bench_function("heartbeat_round_trip", |b| {
        // Shaped like `HomeSim::on_heartbeats`: emit into a stack buffer,
        // then the collector-side parse.
        let mut seq = 0;
        b.iter(|| {
            let mut wire = [0u8; firmware::Heartbeat::WIRE_LEN];
            next(&mut seq).emit_into(black_box(wan), &mut wire);
            black_box(firmware::Heartbeat::parse(&wire).expect("valid"))
        })
    });
    let q = DnsQuery { id: 9, name: DomainName::new("www.netflix.com").unwrap() };
    let q_wire = q.emit();
    group.bench_function("dns_query_roundtrip", |b| {
        b.iter(|| black_box(DnsQuery::parse(&q_wire).expect("valid")))
    });
    group.finish();
}

fn bench_dns_resolve(c: &mut Criterion) {
    use simnet::dns::{CachingResolver, ZoneDb};
    let mut group = c.benchmark_group("dns_resolve");
    // A zone with a CNAME chain, like the CDN-backed domains in the
    // standard universe: www.example.com -> cdn.example.net -> A.
    let mut zone = ZoneDb::new();
    let www = DomainName::new("www.example.com").unwrap();
    let cdn = DomainName::new("cdn.example.net").unwrap();
    let edge = DomainName::new("edge7.example.net").unwrap();
    zone.insert_cname(www.clone(), cdn.clone(), SimDuration::from_secs(300));
    zone.insert_cname(cdn, edge.clone(), SimDuration::from_secs(300));
    zone.insert_a(edge, Ipv4Addr::new(23, 64, 1, 10), SimDuration::from_secs(60));
    group.bench_function("zonedb_cname_chain", |b| {
        let query = DnsQuery { id: 1, name: www.clone() };
        b.iter(|| black_box(zone.resolve(&query)))
    });
    group.bench_function("caching_resolver_hit", |b| {
        let mut resolver = CachingResolver::new();
        resolver.lookup(SimTime::EPOCH, &zone, 1, &www);
        b.iter(|| black_box(resolver.lookup(SimTime::EPOCH, &zone, 2, &www)))
    });
    group.finish();
}

fn bench_nat(c: &mut Criterion) {
    c.bench_function("nat_translate_outbound_hit", |b| {
        let mut nat = Nat::new(Ipv4Addr::new(203, 0, 113, 9));
        let flow = FiveTuple {
            proto: IpProtocol::Tcp,
            src: Endpoint::new(Ipv4Addr::new(192, 168, 1, 10), 40_000),
            dst: Endpoint::new(Ipv4Addr::new(23, 64, 1, 10), 443),
        };
        nat.translate_outbound(SimTime::EPOCH, flow).expect("maps");
        b.iter(|| black_box(nat.translate_outbound(SimTime::EPOCH, flow).expect("hit")))
    });
    c.bench_function("nat_mapping_churn_1k", |b| {
        b.iter(|| {
            let mut nat = Nat::new(Ipv4Addr::new(203, 0, 113, 9));
            for i in 0..1_000u16 {
                let flow = FiveTuple {
                    proto: IpProtocol::Udp,
                    src: Endpoint::new(Ipv4Addr::new(192, 168, 1, 10), 10_000 + i),
                    dst: Endpoint::new(Ipv4Addr::new(8, 8, 8, 8), 53),
                };
                black_box(nat.translate_outbound(SimTime::EPOCH, flow).expect("maps"));
            }
        })
    });
}

fn bench_link(c: &mut Criterion) {
    c.bench_function("link_transmit_train_512", |b| {
        let cfg = LinkConfig::simple(20_000_000, SimDuration::from_millis(10), 1 << 22);
        b.iter(|| {
            let mut link = Link::new(cfg);
            for _ in 0..512 {
                black_box(link.transmit(SimTime::EPOCH, 1_500));
            }
        })
    });
    c.bench_function("shaperprobe_full", |b| {
        let cfg = LinkConfig::shaped(
            10_000_000,
            20_000_000,
            192 * 1024,
            SimDuration::from_millis(8),
            256 * 1024,
        );
        let mut rng = DetRng::new(5);
        b.iter(|| {
            let mut link = Link::new(cfg);
            black_box(firmware::probe_link(&mut link, SimTime::EPOCH, &mut rng))
        })
    });
}

fn bench_rng_and_fair(c: &mut Criterion) {
    c.bench_function("zipf_sample", |b| {
        let table = ZipfTable::new(200, 1.9);
        let mut rng = DetRng::new(3);
        b.iter(|| black_box(rng.zipf(&table)))
    });
    c.bench_function("max_min_fair_16_flows", |b| {
        let demands: Vec<netstack::fair::Demand> = (0..16)
            .map(|i| netstack::fair::Demand {
                rate_cap_bps: if i % 3 == 0 { f64::INFINITY } else { 1e6 * (i + 1) as f64 },
            })
            .collect();
        b.iter(|| black_box(netstack::fair::max_min_fair(50e6, &demands)))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_event_queue, bench_packets, bench_dns_resolve, bench_nat, bench_link, bench_rng_and_fair
);
criterion_main!(benches);
