//! Property-based tests over the simnet substrate: wire-format round
//! trips under arbitrary inputs, event-queue ordering invariants, NAT
//! translation invariants, and link-model monotonicity.

use proptest::prelude::*;
use simnet::dns::{DnsQuery, DnsRecord, DnsResponse, DomainName, RecordData};
use simnet::event::EventQueue;
use simnet::link::{Link, LinkConfig, TxOutcome};
use simnet::nat::Nat;
use simnet::packet::{
    Endpoint, EthernetFrame, EtherType, FiveTuple, IpProtocol, Ipv4Packet, MacAddr, TcpFlags,
    TcpSegment, UdpDatagram,
};
use simnet::rng::{DetRng, ZipfTable};
use simnet::time::{SimDuration, SimTime};
use std::net::Ipv4Addr;

fn arb_ipv4() -> impl Strategy<Value = Ipv4Addr> {
    any::<[u8; 4]>().prop_map(|o| Ipv4Addr::new(o[0], o[1], o[2], o[3]))
}

fn arb_mac() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr)
}

fn arb_label() -> impl Strategy<Value = String> {
    proptest::string::string_regex("[a-z0-9][a-z0-9-]{0,20}").expect("valid regex")
}

fn arb_domain() -> impl Strategy<Value = DomainName> {
    proptest::collection::vec(arb_label(), 1..5)
        .prop_map(|labels| DomainName::new(&labels.join(".")).expect("labels are valid"))
}

proptest! {
    #[test]
    fn ethernet_round_trip(dst in arb_mac(), src in arb_mac(), ethertype in any::<u16>(),
                           payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        let frame = EthernetFrame { dst, src, ethertype: EtherType::from(ethertype), payload };
        let parsed = EthernetFrame::parse(&frame.emit()).unwrap();
        prop_assert_eq!(parsed, frame);
    }

    #[test]
    fn ipv4_round_trip(src in arb_ipv4(), dst in arb_ipv4(), proto in any::<u8>(),
                       ttl in 1u8..=255, ident in any::<u16>(),
                       payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let pkt = Ipv4Packet {
            src, dst,
            protocol: IpProtocol::from(proto),
            ttl,
            identification: ident,
            dscp_ecn: 0,
            payload,
        };
        let parsed = Ipv4Packet::parse(&pkt.emit()).unwrap();
        prop_assert_eq!(parsed, pkt);
    }

    #[test]
    fn ipv4_single_bit_flip_detected_in_header(
        src in arb_ipv4(), dst in arb_ipv4(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        byte in 0usize..20, bit in 0u8..8,
    ) {
        let pkt = Ipv4Packet::new(src, dst, IpProtocol::Tcp, payload);
        let mut wire = pkt.emit();
        wire[byte] ^= 1 << bit;
        // Any single-bit header corruption must be rejected: either the
        // checksum catches it or a structural check does.
        prop_assert!(Ipv4Packet::parse(&wire).is_err());
    }

    #[test]
    fn udp_round_trip(src in arb_ipv4(), dst in arb_ipv4(),
                      sport in any::<u16>(), dport in any::<u16>(),
                      payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let dgram = UdpDatagram::new(sport, dport, payload);
        let parsed = UdpDatagram::parse(&dgram.emit(src, dst), src, dst).unwrap();
        prop_assert_eq!(parsed, dgram);
    }

    #[test]
    fn tcp_round_trip(src in arb_ipv4(), dst in arb_ipv4(), sport in any::<u16>(),
                      dport in any::<u16>(), seq in any::<u32>(), ack in any::<u32>(),
                      window in any::<u16>(), flag_bits in 0u8..32,
                      payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        let seg = TcpSegment {
            src_port: sport,
            dst_port: dport,
            seq,
            ack,
            flags: TcpFlags {
                fin: flag_bits & 1 != 0,
                syn: flag_bits & 2 != 0,
                rst: flag_bits & 4 != 0,
                psh: flag_bits & 8 != 0,
                ack: flag_bits & 16 != 0,
            },
            window,
            payload,
        };
        let parsed = TcpSegment::parse(&seg.emit(src, dst), src, dst).unwrap();
        prop_assert_eq!(parsed, seg);
    }

    #[test]
    fn emit_into_matches_emit(dst in arb_mac(), src in arb_mac(),
                              src_ip in arb_ipv4(), dst_ip in arb_ipv4(),
                              sport in any::<u16>(), dport in any::<u16>(),
                              payload in proptest::collection::vec(any::<u8>(), 0..512)) {
        // The zero-allocation emit paths must be byte-identical to the
        // allocating ones for arbitrary payloads, at every layer.
        let dgram = UdpDatagram::new(sport, dport, payload);
        let udp_wire = dgram.emit(src_ip, dst_ip);
        let mut udp_buf = vec![0u8; dgram.wire_len()];
        dgram.view().emit_into(src_ip, dst_ip, &mut udp_buf);
        prop_assert_eq!(&udp_buf, &udp_wire);

        let pkt = Ipv4Packet::new(src_ip, dst_ip, IpProtocol::Udp, udp_wire);
        let ip_wire = pkt.emit();
        let mut ip_buf = vec![0u8; pkt.wire_len()];
        pkt.view().emit_into(&mut ip_buf);
        prop_assert_eq!(&ip_buf, &ip_wire);
        // Header-only emission over an already-placed payload agrees too.
        let mut split_buf = vec![0u8; pkt.wire_len()];
        split_buf[simnet::packet::IPV4_HEADER_LEN..].copy_from_slice(&pkt.payload);
        pkt.view().emit_header_into(&mut split_buf);
        prop_assert_eq!(&split_buf, &ip_wire);

        let frame = EthernetFrame {
            dst, src,
            ethertype: EtherType::Ipv4,
            payload: ip_wire.clone(),
        };
        let eth_wire = frame.emit();
        let mut eth_buf = vec![0u8; frame.wire_len()];
        frame.view().emit_into(&mut eth_buf);
        prop_assert_eq!(&eth_buf, &eth_wire);
    }

    #[test]
    fn view_parse_of_emit_round_trips(src_ip in arb_ipv4(), dst_ip in arb_ipv4(),
                                      sport in any::<u16>(), dport in any::<u16>(),
                                      payload in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Borrowed-view parsing sees exactly what the owning parse sees.
        let dgram = UdpDatagram::new(sport, dport, payload);
        let pkt = Ipv4Packet::new(src_ip, dst_ip, IpProtocol::Udp, dgram.emit(src_ip, dst_ip));
        let wire = pkt.emit();
        let ip_view = simnet::packet::Ipv4View::parse(&wire).unwrap();
        prop_assert_eq!(ip_view.to_owned(), pkt);
        let udp_view =
            simnet::packet::UdpView::parse(ip_view.payload, ip_view.src, ip_view.dst).unwrap();
        prop_assert_eq!(udp_view.to_owned(), dgram);
    }

    #[test]
    fn dns_emit_into_appends(id in any::<u16>(), name in arb_domain(), junk in 0usize..32) {
        // DnsQuery::emit_into appends after existing content and matches
        // the allocating emit byte for byte.
        let q = DnsQuery { id, name };
        let mut buf = vec![0xEE; junk];
        q.emit_into(&mut buf);
        prop_assert_eq!(&buf[junk..], q.emit().as_slice());
    }

    #[test]
    fn dns_query_round_trip(id in any::<u16>(), name in arb_domain()) {
        let q = DnsQuery { id, name };
        prop_assert_eq!(DnsQuery::parse(&q.emit()).unwrap(), q);
    }

    #[test]
    fn dns_response_round_trip(id in any::<u16>(), question in arb_domain(),
                               chain in proptest::collection::vec(arb_domain(), 0..4),
                               addr in arb_ipv4(), ttl_secs in 0u32..1_000_000) {
        // Build a CNAME chain ending in an A record (or NXDOMAIN when empty).
        let mut answers = Vec::new();
        let mut owner = question.clone();
        for target in &chain {
            answers.push(DnsRecord {
                name: owner.clone(),
                data: RecordData::Cname(target.clone()),
                ttl: SimDuration::from_secs(u64::from(ttl_secs)),
            });
            owner = target.clone();
        }
        if !chain.is_empty() {
            answers.push(DnsRecord {
                name: owner,
                data: RecordData::A(addr),
                ttl: SimDuration::from_secs(u64::from(ttl_secs)),
            });
        }
        let resp = DnsResponse { id, question, answers };
        let parsed = DnsResponse::parse(&resp.emit()).unwrap();
        prop_assert_eq!(&parsed, &resp);
        if !chain.is_empty() {
            prop_assert_eq!(parsed.address(), Some(addr));
        }
    }

    #[test]
    fn domain_parse_never_panics(s in "\\PC{0,64}") {
        let _ = DomainName::new(&s);
    }

    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(*t), i);
        }
        let mut last = SimTime::EPOCH;
        let mut count = 0;
        while let Some((at, _)) = q.pop() {
            prop_assert!(at >= last);
            last = at;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    #[test]
    fn event_queue_same_time_is_fifo(n in 1usize..100) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_micros(42), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(order, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn nat_round_trip_any_flow(host in 2u8..250, sport in 1024u16..65000,
                               dst in arb_ipv4(), dport in 1u16..65000, proto_tcp in any::<bool>()) {
        let wan = Ipv4Addr::new(203, 0, 113, 9);
        let mut nat = Nat::new(wan);
        let flow = FiveTuple {
            proto: if proto_tcp { IpProtocol::Tcp } else { IpProtocol::Udp },
            src: Endpoint::new(Ipv4Addr::new(192, 168, 1, host), sport),
            dst: Endpoint::new(dst, dport),
        };
        let out = nat.translate_outbound(SimTime::EPOCH, flow).unwrap();
        prop_assert_eq!(out.wan_flow.src.addr, wan);
        prop_assert_eq!(out.wan_flow.dst, flow.dst);
        // The reply translates back to exactly the original LAN endpoint.
        let reply = out.wan_flow.reversed();
        let lan = nat.translate_inbound(SimTime::from_micros(1), reply).unwrap();
        prop_assert_eq!(lan.dst, flow.src);
    }

    #[test]
    fn nat_distinct_sources_never_collide(hosts in proptest::collection::btree_set(2u8..250, 2..40)) {
        let mut nat = Nat::new(Ipv4Addr::new(203, 0, 113, 9));
        let mut ports = std::collections::HashSet::new();
        for host in hosts {
            let flow = FiveTuple {
                proto: IpProtocol::Udp,
                src: Endpoint::new(Ipv4Addr::new(10, 0, 0, host), 5000),
                dst: Endpoint::new(Ipv4Addr::new(8, 8, 8, 8), 53),
            };
            let out = nat.translate_outbound(SimTime::EPOCH, flow).unwrap();
            prop_assert!(ports.insert(out.wan_flow.src.port), "WAN port reused");
        }
    }

    #[test]
    fn link_deliveries_are_fifo(sizes in proptest::collection::vec(64u64..9000, 1..100),
                                gaps in proptest::collection::vec(0u64..5_000, 1..100)) {
        let mut link = Link::new(LinkConfig::simple(10_000_000, SimDuration::from_millis(3), 1 << 22));
        let mut now = SimTime::EPOCH;
        let mut last_delivery = SimTime::EPOCH;
        for (size, gap) in sizes.iter().zip(&gaps) {
            now += SimDuration::from_micros(*gap);
            if let TxOutcome::Delivered { at } = link.transmit(now, *size) {
                prop_assert!(at >= last_delivery, "FIFO violated");
                prop_assert!(at >= now, "delivery before arrival");
                last_delivery = at;
            }
        }
    }

    #[test]
    fn link_backlog_never_exceeds_limit(sizes in proptest::collection::vec(64u64..9000, 1..200)) {
        let limit = 20_000u64;
        let mut link = Link::new(LinkConfig::simple(1_000_000, SimDuration::ZERO, limit));
        for size in sizes {
            link.transmit(SimTime::EPOCH, size);
            prop_assert!(link.backlog_bytes(SimTime::EPOCH) <= limit);
        }
    }

    #[test]
    fn zipf_pmf_is_normalized_and_monotone(n in 1usize..500, s in 0.1f64..3.0) {
        let table = ZipfTable::new(n, s);
        let total: f64 = (0..n).map(|i| table.pmf(i)).sum();
        prop_assert!((total - 1.0).abs() < 1e-6);
        for i in 1..n {
            prop_assert!(table.pmf(i) <= table.pmf(i - 1) + 1e-12);
        }
    }

    #[test]
    fn derived_rng_streams_reproducible(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let a = DetRng::new(seed);
        let mut s1 = a.derive(&label);
        let mut s2 = DetRng::new(seed).derive(&label);
        for _ in 0..16 {
            prop_assert_eq!(s1.next_u64(), s2.next_u64());
        }
    }
}

/// The link as it was before offers to an idle link skipped the walk of
/// finished packets and repeated sizes skipped the division: every offer
/// and query walks the in-flight queue, and every accepted packet divides
/// for its serialization time. `Link` must behave exactly like it.
struct ReferenceLink {
    cfg: LinkConfig,
    busy_until: SimTime,
    in_flight: std::collections::VecDeque<(SimTime, u64)>,
    queued_bytes: u64,
    tokens: f64,
    tokens_at: SimTime,
    /// Accepted packets and bytes, dropped packets and bytes.
    stats: [u64; 4],
}

impl ReferenceLink {
    fn new(cfg: LinkConfig) -> ReferenceLink {
        ReferenceLink {
            cfg,
            busy_until: SimTime::EPOCH,
            in_flight: std::collections::VecDeque::new(),
            queued_bytes: 0,
            tokens: cfg.bucket_bytes as f64,
            tokens_at: SimTime::EPOCH,
            stats: [0; 4],
        }
    }

    fn drain(&mut self, now: SimTime) {
        while let Some(&(finish, bytes)) = self.in_flight.front() {
            if finish > now {
                break;
            }
            self.in_flight.pop_front();
            self.queued_bytes -= bytes;
        }
    }

    fn backlog_bytes(&mut self, now: SimTime) -> u64 {
        self.drain(now);
        self.queued_bytes
    }

    fn queueing_delay(&mut self, now: SimTime) -> SimDuration {
        self.drain(now);
        self.busy_until.saturating_since(now)
    }

    fn transmit(&mut self, now: SimTime, bytes: u64) -> TxOutcome {
        self.drain(now);
        if self.queued_bytes + bytes > self.cfg.queue_limit_bytes {
            self.stats[2] += 1;
            self.stats[3] += bytes;
            return TxOutcome::Dropped;
        }
        let start = self.busy_until.max(now);
        if self.cfg.bucket_bytes > 0 {
            let dt = start.saturating_since(self.tokens_at).as_secs_f64();
            self.tokens = (self.tokens + dt * self.cfg.rate_bps as f64 / 8.0)
                .min(self.cfg.bucket_bytes as f64);
            self.tokens_at = start;
        }
        let conforming = self.cfg.bucket_bytes > 0 && self.tokens >= bytes as f64;
        let rate = if conforming {
            self.tokens -= bytes as f64;
            self.cfg.peak_bps
        } else {
            self.cfg.rate_bps
        };
        let tx = SimDuration::from_micros(bytes.saturating_mul(8_000_000).div_ceil(rate.max(1)));
        let finish = start + tx;
        if self.cfg.bucket_bytes > 0 && !conforming {
            self.tokens = 0.0;
            self.tokens_at = finish;
        }
        self.busy_until = finish;
        self.in_flight.push_back((finish, bytes));
        self.queued_bytes += bytes;
        self.stats[0] += 1;
        self.stats[1] += bytes;
        TxOutcome::Delivered { at: finish + self.cfg.delay }
    }

    fn reset(&mut self, now: SimTime) {
        self.busy_until = now;
        self.in_flight.clear();
        self.queued_bytes = 0;
        self.tokens = self.cfg.bucket_bytes as f64;
        self.tokens_at = now;
    }
}

/// A simple or shaped link, 1 kbit/s to 1 Gbit/s, with a queue limit
/// below one small packet, around a few packets, or up to 8 MiB. A shaped
/// link's bucket holds a few small packets at most or up to 200 KB.
fn arb_link_config() -> impl Strategy<Value = LinkConfig> {
    let queue = prop_oneof![1u64..64, 64u64..20_000, 20_000u64..(8 << 20)];
    let bucket = prop_oneof![1u64..200, 200u64..200_000];
    let shaping = (any::<bool>(), 1u64..5, bucket);
    (1_000u64..1_000_000_000, 0u64..100_000, queue, shaping).prop_map(
        |(rate, delay_us, queue, (shaped, boost, bucket))| {
            let delay = SimDuration::from_micros(delay_us);
            if shaped {
                LinkConfig::shaped(rate, rate * boost, bucket, delay, queue)
            } else {
                LinkConfig::simple(rate, delay, queue)
            }
        },
    )
}

/// A step forward in time: none, a few microseconds, about one packet's
/// serialization, or seconds.
fn arb_gap() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..10, 10u64..5_000, 5_000u64..3_000_000]
}

proptest! {
    #[test]
    fn link_idle_path_equals_the_drain_walk(
        cfg in arb_link_config(),
        ops in proptest::collection::vec((0u8..8, arb_gap(), 0u64..4, 1u64..3_000), 1..200),
    ) {
        let mut link = Link::new(cfg);
        let mut model = ReferenceLink::new(cfg);
        let mut now = SimTime::EPOCH;
        for (kind, gap, repeat, size) in ops {
            // Most offers repeat one of two sizes, as heartbeats and
            // probe trains do, so a repeated size meets both of a shaped
            // link's rates.
            let bytes = [44, 1_500, 44, size][repeat as usize];
            now = match kind {
                // Exactly when the transmitter finishes, or 1 µs to
                // either side of it, if that is not in the past.
                0..=2 => now.max(SimTime::from_micros(
                    (model.busy_until.as_micros() + u64::from(kind)).saturating_sub(1),
                )),
                _ => now + SimDuration::from_micros(gap),
            };
            match kind {
                6 => prop_assert_eq!(link.backlog_bytes(now), model.backlog_bytes(now)),
                7 if gap % 8 == 0 => {
                    link.reset(now);
                    model.reset(now);
                }
                7 => prop_assert_eq!(link.queueing_delay(now), model.queueing_delay(now)),
                _ => prop_assert_eq!(link.transmit(now, bytes), model.transmit(now, bytes)),
            }
            let stats = link.stats();
            prop_assert_eq!(
                [stats.accepted_packets, stats.accepted_bytes, stats.dropped_packets, stats.dropped_bytes],
                model.stats
            );
        }
        prop_assert_eq!(link.backlog_bytes(now), model.backlog_bytes(now));
        prop_assert_eq!(link.queueing_delay(now), model.queueing_delay(now));
    }
}
