//! Allocation accounting for the firmware hot paths.
//!
//! The simulation emits and parses on the order of 10^7 heartbeats per
//! study run, so this path is required to touch the heap zero times per
//! packet; the store-and-forward upload queue sits on the same hot path
//! whenever a fault plan is active, so its steady state (fill → seal →
//! attempt → fail → ack) carries the same requirement. So do the
//! one-second traffic tick (flow scheduler plus traffic monitor), which
//! runs millions of times in a traffic-capturing study, and the hourly
//! latency probe. The `obs` metric handles ride these same hot paths, so
//! their increments are held to the same bar. A counting global allocator
//! makes all of this hard tests rather than code-review promises.

use firmware::latency::{probe_latency, PING_TRAIN};
use firmware::records::{Record, RouterId, UptimeRecord};
use firmware::uploader::{Uploader, UploaderConfig};
use firmware::{Anonymizer, Heartbeat, TrafficMonitor};
use netstack::{AppKind, Flow, FlowId, FlowScheduler};
use simnet::dns::DomainName;
use simnet::link::{Link, LinkConfig, WanPath};
use simnet::packet::{Endpoint, MacAddr};
use simnet::rng::DetRng;
use simnet::time::{SimDuration, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

thread_local! {
    // Const-initialized so the first access inside `alloc` cannot itself
    // allocate (lazy TLS init would recurse into the allocator). Per-thread
    // counting also keeps the libtest harness thread's own allocations from
    // being charged to the code under test.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: an allocation during thread teardown (after this TLS
        // slot is destroyed) must not panic inside the allocator.
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

#[test]
fn obs_counter_and_histogram_increments_allocate_nothing() {
    // Handle registration allocates (Box::leak into the static registry);
    // doing it in the warm-up phase mirrors how the simulation registers
    // handles once, before any hot loop runs.
    let counter = obs::counter("alloc_test_total");
    let hist = obs::histogram("alloc_test_micros", &obs::DURATION_BOUNDS_MICROS);
    counter.inc();
    hist.record(1_000_000);

    let before = ALLOCATIONS.with(Cell::get);
    for i in 0..100_000u64 {
        counter.add(2);
        counter.inc();
        hist.record(i * 37);
    }
    let after = ALLOCATIONS.with(Cell::get);
    assert!(
        after == before,
        "obs increments allocated {} times over 100k iterations",
        after - before
    );
    assert!(counter.get() >= 300_000);
}

#[test]
fn heartbeat_emit_and_parse_allocate_nothing() {
    let wan = Ipv4Addr::new(100, 64, 0, 9);
    let mut wire = [0u8; Heartbeat::WIRE_LEN];
    // Warm-up iteration outside the counted window, in case anything lazy
    // initializes on first use.
    Heartbeat { router: RouterId(7), seq: 0 }.emit_into(wan, &mut wire);
    Heartbeat::parse(&wire).expect("valid warm-up packet");

    let before = ALLOCATIONS.with(Cell::get);
    for seq in 1..=10_000u64 {
        let hb = Heartbeat { router: RouterId(7), seq };
        hb.emit_into(wan, &mut wire);
        let (parsed, src) = Heartbeat::parse(&wire).expect("valid packet");
        assert!(parsed == hb && src == wan);
    }
    let after = ALLOCATIONS.with(Cell::get);
    assert!(
        after == before,
        "heartbeat emit+parse allocated {} times over 10k packets",
        after - before
    );
}

#[test]
fn upload_queue_steady_state_allocates_nothing() {
    let cfg = UploaderConfig { batch_records: 64, ..UploaderConfig::default() };
    let batch = cfg.batch_records;
    let mut up = Uploader::new(cfg);
    let mut rng = DetRng::new(41).derive("alloc-test");
    let mut out: Vec<Record> = Vec::with_capacity(batch);
    let fill = |out: &mut Vec<Record>, round: u64| {
        for i in 0..batch as u64 {
            out.push(Record::Uptime(UptimeRecord {
                router: RouterId(3),
                at: SimTime::EPOCH + SimDuration::from_mins(round * 100 + i),
                uptime: SimDuration::from_mins(i),
            }));
        }
    };
    // One full cycle: fill, seal, offer once and fail (exercising the
    // backoff draw), offer again and ack. The ack recycles the batch's
    // buffer into the uploader's free pool.
    let cycle = |up: &mut Uploader, out: &mut Vec<Record>, rng: &mut DetRng, round: u64| {
        fill(out, round);
        up.seal(out);
        let seq = up.attempt().expect("sealed batch is in the spool").seq;
        let _backoff = up.fail_front(rng);
        let a = up.attempt().expect("failed batch stays at the front");
        assert_eq!(a.seq, seq);
        a.records.clear(); // the collector drains the buffer on accept
        up.ack_front();
    };
    // Warm-up rounds populate the free pool (the first seals hand the
    // caller fresh, empty buffers that grow to batch capacity once).
    for round in 0..4 {
        cycle(&mut up, &mut out, &mut rng, round);
    }
    assert!(!up.has_backlog(), "warm-up must drain fully");

    let before = ALLOCATIONS.with(Cell::get);
    for round in 4..1_004 {
        cycle(&mut up, &mut out, &mut rng, round);
    }
    let after = ALLOCATIONS.with(Cell::get);
    assert!(
        after == before,
        "upload queue steady state allocated {} times over 1k seal/fail/ack cycles",
        after - before
    );
    assert_eq!(up.stats().acked_batches, 1_004);
    assert_eq!(up.stats().failed_attempts, 1_004);
}

/// One traffic tick as the simulator drives it: every third second a flow
/// starts on one of three devices, then the scheduler advances, the
/// monitor sees each flow's progress, the uplink burst and every
/// completion, and completions drain the monitor's records into `out`.
fn traffic_second(
    sched: &mut FlowScheduler,
    mon: &mut TrafficMonitor,
    out: &mut Vec<Record>,
    template: &Flow,
    t: u64,
) {
    let now = SimTime::EPOCH + SimDuration::from_secs(t);
    if t.is_multiple_of(3) {
        let mut flow = template.clone();
        flow.id = sched.next_id();
        flow.device = MacAddr::from_oui_nic(0x00_17_F2, (t % 9 / 3) as u32);
        flow.started = now;
        flow.remaining_down = 200_000 + (t % 7) * 150_000;
        flow.remaining_up = 20_000 + (t % 5) * 60_000;
        mon.on_flow_start(&flow);
        sched.start(flow);
    }
    let outcome =
        sched.tick(SimDuration::from_secs(1), 8_000_000, 1_000_000, Some(20_000_000), 256 * 1024);
    let mut drained_up = 0;
    for progress in &outcome.progress {
        drained_up += progress.bytes_up;
        mon.on_flow_progress(now, progress);
    }
    mon.add_uplink_burst(now, outcome.total_up_offered.saturating_sub(drained_up));
    for flow in &outcome.completed {
        mon.on_flow_end(now, flow.id);
    }
    if !outcome.completed.is_empty() {
        mon.drain_into(out);
        out.clear(); // the collector takes the batch
    }
}

#[test]
fn traffic_tick_steady_state_allocates_nothing() {
    let mut sched = FlowScheduler::new();
    let mut mon = TrafficMonitor::new(
        RouterId(5),
        Anonymizer::new(0x5EED, [DomainName::new("netflix.com").expect("valid name")]),
    );
    // The remote address never resolved through the gateway, so records
    // carry the obfuscated address: the no-DNS-context path.
    let template = Flow {
        id: FlowId(0),
        device: MacAddr::from_oui_nic(0x00_17_F2, 0),
        local: Endpoint::new(Ipv4Addr::new(192, 168, 1, 10), 40_000),
        remote: Endpoint::new(Ipv4Addr::new(198, 51, 100, 7), 443),
        domain: DomainName::new("example.com").expect("valid name"),
        kind: AppKind::Web,
        started: SimTime::EPOCH,
        remaining_down: 0,
        remaining_up: 0,
        rate_cap_bps: None,
        rate_cap_up_bps: None,
        saturated_ticks: 0,
    };
    let mut out: Vec<Record> = Vec::new();
    // Warm-up grows every buffer to the pattern's high-water mark and
    // registers all three devices.
    for t in 0..1_000 {
        traffic_second(&mut sched, &mut mon, &mut out, &template, t);
    }

    let started_before = sched.started_total();
    let completed_before = sched.completed_total();
    let before = ALLOCATIONS.with(Cell::get);
    for t in 1_000..101_000 {
        traffic_second(&mut sched, &mut mon, &mut out, &template, t);
    }
    let after = ALLOCATIONS.with(Cell::get);
    assert!(
        after == before,
        "traffic ticks allocated {} times over 100k seconds",
        after - before
    );
    assert!(sched.started_total() - started_before > 30_000, "flows kept starting");
    assert!(sched.completed_total() - completed_before > 30_000, "flows kept completing");
}

#[test]
fn latency_probe_allocates_nothing_in_release() {
    let mut link =
        Link::new(LinkConfig::simple(1_000_000, SimDuration::from_millis(10), 64 * 1024));
    let wan = WanPath { transit_delay: SimDuration::from_millis(20), loss_prob: 0.05 };
    let mut rng = DetRng::new(43).derive("alloc-latency");
    let hour = |n: u64| SimTime::EPOCH + SimDuration::from_hours(n);
    probe_latency(RouterId(9), hour(0), &mut link, &wan, &mut rng).expect("warm-up probe");

    let mut replies = 0u64;
    let before = ALLOCATIONS.with(Cell::get);
    for n in 1..=10_000 {
        if let Some(rec) = probe_latency(RouterId(9), hour(n), &mut link, &wan, &mut rng) {
            replies += u64::from(PING_TRAIN - u16::from(rec.lost));
        }
    }
    let after = ALLOCATIONS.with(Cell::get);
    // Debug builds also round-trip every answered echo through its wire
    // image: the request payload, the reply's copy, the emitted reply and
    // the parsed payload are four allocations per reply.
    let expected = if cfg!(debug_assertions) { 4 * replies } else { 0 };
    assert!(replies > 80_000, "most pings answered: {replies}");
    assert!(
        after - before == expected,
        "latency probes allocated {} times over 10k probes ({replies} replies), want {expected}",
        after - before
    );
}
