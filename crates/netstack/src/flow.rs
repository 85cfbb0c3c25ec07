//! The fluid flow model: active transfers that share the access link under
//! max-min fairness, advanced second by second.
//!
//! Individual bulk data packets are not simulated one by one — a six-month,
//! 126-home study would be intractable — but every second yields per-flow
//! byte and packet counts at the *gateway's LAN vantage point*, which is
//! exactly the granularity the BISmark firmware records ("the size and
//! timestamp of every packet relayed to and from the Internet", aggregated
//! here per second). Measurement-relevant packets (DNS, heartbeats, probe
//! trains) are real wire images built in `simnet`.
//!
//! Between flow starts, a direction running out of bytes and an upload's
//! queue filling up, the max-min rates do not change, so neither does
//! anything a second moves. [`FlowScheduler::steady_seconds`] counts such
//! a rate epoch's identical seconds, [`FlowScheduler::advance_steady`]
//! moves them in one step, and [`FlowScheduler::tick`] runs the one
//! second at the epoch's boundary.

use crate::fair::{max_min_fair_into, Demand};
use simnet::dns::DomainName;
use simnet::packet::{Endpoint, IpProtocol, MacAddr};
use simnet::time::SimTime;
use serde::{Deserialize, Serialize};

/// Application class of a flow; determines its size/rate profile and port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum AppKind {
    /// Short request/response web transfers (HTTP/HTTPS).
    Web,
    /// Long-running rate-limited video streaming (the paper's dominant
    /// traffic class).
    StreamingVideo,
    /// Rate-limited audio streaming (e.g. pandora.com).
    StreamingAudio,
    /// Bidirectional constant-bitrate voice.
    Voip,
    /// Backlogged upstream transfer (the paper's "scientific data uploader").
    BulkUpload,
    /// Cloud file sync: bursty, upstream-heavy (the paper's Dropbox iMac).
    CloudSync,
    /// Software updates and other unattended downloads.
    Background,
    /// Interactive gaming: low-rate, latency-sensitive.
    Gaming,
}

impl AppKind {
    /// The server port this application class typically uses.
    pub fn server_port(self) -> u16 {
        match self {
            AppKind::Web => 443,
            AppKind::StreamingVideo => 443,
            AppKind::StreamingAudio => 443,
            AppKind::Voip => 5_060,
            AppKind::BulkUpload => 22,
            AppKind::CloudSync => 443,
            AppKind::Background => 80,
            AppKind::Gaming => 3_074,
        }
    }

    /// Transport protocol for this class.
    pub fn protocol(self) -> IpProtocol {
        match self {
            AppKind::Voip | AppKind::Gaming => IpProtocol::Udp,
            _ => IpProtocol::Tcp,
        }
    }

    /// Typical full-size data packet length, used to convert fluid byte
    /// counts to packet counts.
    pub fn packet_bytes(self) -> u64 {
        match self {
            AppKind::Voip => 214,    // 20 ms G.711 + headers
            AppKind::Gaming => 128,
            _ => 1_420,
        }
    }
}

/// Unique id of a flow within one home's simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FlowId(pub u64);

/// An active transfer between a LAN device and an Internet service.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Flow id, unique per home.
    pub id: FlowId,
    /// The LAN device's MAC address (the attribution key).
    pub device: MacAddr,
    /// The LAN-side transport endpoint.
    pub local: Endpoint,
    /// The remote service endpoint.
    pub remote: Endpoint,
    /// The service's domain (base domain for ranking).
    pub domain: DomainName,
    /// Application class.
    pub kind: AppKind,
    /// When the flow started.
    pub started: SimTime,
    /// Bytes still to receive.
    pub remaining_down: u64,
    /// Bytes still to send.
    pub remaining_up: u64,
    /// Application-level downstream rate cap in bits/s (streaming bitrate,
    /// VoIP codec rate). `None` means backlogged — the flow takes whatever
    /// the link gives it.
    pub rate_cap_bps: Option<u64>,
    /// Application-level upstream rate cap. Paced download apps only send
    /// acknowledgment-clocked trickles upstream, so this is far below the
    /// downstream cap for streaming and absent for bulk senders.
    pub rate_cap_up_bps: Option<u64>,
    /// Consecutive ticks this flow's sender has been pushing more upstream
    /// data than the link drained. Managed by the scheduler; sustained
    /// saturation is what produces LAN-ingress overcounting.
    pub saturated_ticks: u32,
}

impl Flow {
    /// True once nothing remains in either direction.
    pub fn is_complete(&self) -> bool {
        self.remaining_down == 0 && self.remaining_up == 0
    }

    fn demand(&self, remaining: u64, cap: Option<u64>) -> Demand {
        if remaining == 0 {
            return Demand { rate_cap_bps: 0.0 };
        }
        Demand { rate_cap_bps: cap.map_or(f64::INFINITY, |cap| cap as f64) }
    }
}

/// Per-flow byte movement during one second — what the firmware's passive
/// capture observes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlowProgress {
    /// Which flow moved.
    pub id: FlowId,
    /// Bytes received from the Internet this second.
    pub bytes_down: u64,
    /// Bytes sent to the Internet this second.
    pub bytes_up: u64,
    /// Approximate downstream packet count.
    pub pkts_down: u64,
    /// Approximate upstream packet count.
    pub pkts_up: u64,
}

/// Result of advancing the scheduler by one second ([`FlowScheduler::tick`])
/// or by a run of steady seconds ([`FlowScheduler::advance_steady`]).
#[derive(Debug, Clone, Default)]
pub struct TickOutcome {
    /// Per-flow movement in one second; every second of a steady run moves
    /// the same (flows that moved zero bytes are included while active, so
    /// idle-but-open connections remain visible).
    pub progress: Vec<FlowProgress>,
    /// Flows that finished during this second, removed from the active set.
    /// Always empty after a steady run.
    pub completed: Vec<Flow>,
    /// Total bytes offered downstream over every second advanced (=
    /// delivered; downstream arrivals are shaped upstream of the queue in
    /// this model).
    pub total_down: u64,
    /// Total bytes the LAN pushed toward the Internet over every second
    /// advanced, measured at the gateway's LAN ingress — what the
    /// firmware's packet counters see. Equal to the drained bytes for short
    /// transfers (TCP's window limits any initial burst); under *sustained*
    /// saturation the bloated CPE queue stays full, the sender's window
    /// repeatedly overshoots and recovers, and LAN-ingress counts run 20–30%
    /// above goodput from retransmissions. This is the mechanism behind the
    /// paper's Fig 16 "utilization exceeds capacity" homes.
    pub total_up_offered: u64,
}

/// Bytes a flow allocated `rate_bps` moves in one second.
fn bytes_per_second(rate_bps: f64) -> u64 {
    (rate_bps / 8.0) as u64
}

/// Seconds an unpaced upload must stay saturated before its standing queue
/// forms: roughly the time to fill the CPE buffer, floor 120.
fn fill_ticks(up_queue_bytes: u64, up_capacity_bps: u64) -> u32 {
    (up_queue_bytes * 8 * 10).checked_div(up_capacity_bps).map_or(120, |t| t.max(120)) as u32
}

/// Seconds that move a full `per_second` before the one that empties
/// `remaining`; `u64::MAX` when no second ever does.
fn seconds_before_empty(remaining: u64, per_second: u64) -> u64 {
    match (remaining, per_second) {
        (0, _) | (_, 0) => u64::MAX,
        _ => (remaining - 1) / per_second,
    }
}

/// The per-home flow scheduler: owns active flows and advances them
/// against the link capacities, one second or one steady run at a time.
#[derive(Debug, Default)]
pub struct FlowScheduler {
    active: Vec<Flow>,
    next_id: u64,
    /// Cumulative flows ever started; read by the observability layer.
    started: u64,
    /// Cumulative flows that ran to completion (aborts excluded).
    completed: u64,
    /// Per-step buffers, overwritten by every allocation and kept so a
    /// steady-state step allocates nothing.
    down_demands: Vec<Demand>,
    up_demands: Vec<Demand>,
    down_rates: Vec<f64>,
    up_rates: Vec<f64>,
    order: Vec<usize>,
    outcome: TickOutcome,
}

impl FlowScheduler {
    /// An empty scheduler.
    pub fn new() -> Self {
        FlowScheduler::default()
    }

    /// Allocate the next flow id.
    pub fn next_id(&mut self) -> FlowId {
        let id = FlowId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Add a flow to the active set.
    pub fn start(&mut self, flow: Flow) {
        self.started += 1;
        self.active.push(flow);
    }

    /// Cumulative count of flows ever started.
    pub fn started_total(&self) -> u64 {
        self.started
    }

    /// Cumulative count of flows that ran to completion (power-off aborts
    /// are not completions).
    pub fn completed_total(&self) -> u64 {
        self.completed
    }

    /// Active flows, in start order.
    pub fn active(&self) -> &[Flow] {
        &self.active
    }

    /// Number of active flows.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Abort every active flow (router power-off); returns them.
    pub fn abort_all(&mut self) -> Vec<Flow> {
        std::mem::take(&mut self.active)
    }

    /// Advance all active flows by one second against the given downstream
    /// and upstream capacities (bits/s); each moves ⌊rate/8⌋ bytes, or what
    /// it has left. `per_flow_cap_bps` optionally limits each individual
    /// flow (per-station radio throughput); in practice the access link is
    /// the bottleneck, so one shared cap per home keeps the model honest
    /// enough. `up_queue_bytes` scales how quickly sustained saturation
    /// builds a standing queue (deeper buffers take longer to enter the
    /// pathological regime).
    ///
    /// The outcome lives in the scheduler and is overwritten by the next
    /// step.
    pub fn tick(
        &mut self,
        down_capacity_bps: u64,
        up_capacity_bps: u64,
        per_flow_cap_bps: Option<u64>,
        up_queue_bytes: u64,
    ) -> &TickOutcome {
        self.allocate(down_capacity_bps, up_capacity_bps, per_flow_cap_bps);
        self.advance(1, fill_ticks(up_queue_bytes, up_capacity_bps));
        // Remove completed flows. `remove` (not `swap_remove`) keeps the
        // survivors in start order, which fixes the order of the next
        // second's demands and therefore of its floating-point sums.
        let outcome = &mut self.outcome;
        let mut idx = 0;
        while idx < self.active.len() {
            if self.active[idx].is_complete() {
                self.completed += 1;
                outcome.completed.push(self.active.remove(idx));
            } else {
                idx += 1;
            }
        }
        outcome
    }

    /// How many of the coming seconds are steady, each moving exactly what
    /// the first moves, under [`Self::tick`]'s arguments. The second after
    /// them is the epoch's boundary and must run through [`Self::tick`]: in
    /// it a direction runs out of bytes, possibly short of a full second's
    /// share, or an unpaced upload's saturation passes the standing-queue
    /// threshold. A flow's demand depends only on its caps and on which
    /// directions have bytes left, so nothing else changes the rates until
    /// a flow starts or is aborted. `u64::MAX` when no flow ever reaches a
    /// boundary (idle flows, or none).
    pub fn steady_seconds(
        &mut self,
        down_capacity_bps: u64,
        up_capacity_bps: u64,
        per_flow_cap_bps: Option<u64>,
        up_queue_bytes: u64,
    ) -> u64 {
        self.allocate(down_capacity_bps, up_capacity_bps, per_flow_cap_bps);
        let fill = fill_ticks(up_queue_bytes, up_capacity_bps);
        let mut steady = u64::MAX;
        for ((flow, &down_rate), &up_rate) in
            self.active.iter().zip(&self.down_rates).zip(&self.up_rates)
        {
            let up = bytes_per_second(up_rate);
            steady = steady
                .min(seconds_before_empty(flow.remaining_down, bytes_per_second(down_rate)))
                .min(seconds_before_empty(flow.remaining_up, up));
            // A saturated upload's count reaches the threshold on the
            // `fill − saturated_ticks + 1`-th second, the first to carry
            // the overshoot; a count at `u32::MAX` never passes it.
            let saturated = flow.rate_cap_up_bps.is_none() && up.min(flow.remaining_up) > 0;
            if saturated && fill < u32::MAX && flow.saturated_ticks <= fill {
                steady = steady.min(u64::from(fill - flow.saturated_ticks));
            }
        }
        steady
    }

    /// Advance `seconds` steady seconds in one step: at most
    /// [`Self::steady_seconds`] under the same arguments. The rates are
    /// computed once; every second still moves ⌊rate/8⌋ bytes per flow,
    /// exactly as that many [`Self::tick`]s would. The outcome's `progress`
    /// is one second's movement, its totals cover all `seconds`, and no
    /// flow completes.
    pub fn advance_steady(
        &mut self,
        seconds: u64,
        down_capacity_bps: u64,
        up_capacity_bps: u64,
        per_flow_cap_bps: Option<u64>,
        up_queue_bytes: u64,
    ) -> &TickOutcome {
        debug_assert!(
            seconds
                <= self.steady_seconds(
                    down_capacity_bps,
                    up_capacity_bps,
                    per_flow_cap_bps,
                    up_queue_bytes
                ),
            "{seconds} seconds run past the epoch's boundary"
        );
        self.allocate(down_capacity_bps, up_capacity_bps, per_flow_cap_bps);
        self.advance(seconds, fill_ticks(up_queue_bytes, up_capacity_bps));
        &self.outcome
    }

    /// Fill the rate buffers with the max-min allocation of the current
    /// demands.
    fn allocate(
        &mut self,
        down_capacity_bps: u64,
        up_capacity_bps: u64,
        per_flow_cap_bps: Option<u64>,
    ) {
        let clamp = |d: Demand| -> Demand {
            match per_flow_cap_bps {
                Some(cap) => Demand { rate_cap_bps: d.rate_cap_bps.min(cap as f64) },
                None => d,
            }
        };
        self.down_demands.clear();
        self.down_demands
            .extend(self.active.iter().map(|f| clamp(f.demand(f.remaining_down, f.rate_cap_bps))));
        self.up_demands.clear();
        self.up_demands
            .extend(self.active.iter().map(|f| clamp(f.demand(f.remaining_up, f.rate_cap_up_bps))));
        max_min_fair_into(
            down_capacity_bps as f64,
            &self.down_demands,
            &mut self.down_rates,
            &mut self.order,
        );
        // Upstream: senders *offer* at their demanded rate; the link drains
        // at `up_capacity_bps`. We still allocate fairly for what gets
        // through, but record the offered load separately.
        max_min_fair_into(
            up_capacity_bps as f64,
            &self.up_demands,
            &mut self.up_rates,
            &mut self.order,
        );
    }

    /// Move every flow by `seconds` seconds at the allocated rates, each
    /// second moving what the first does. One second may end short of a
    /// full share; more than one must be steady.
    fn advance(&mut self, seconds: u64, fill_ticks: u32) {
        let outcome = &mut self.outcome;
        outcome.progress.clear();
        outcome.completed.clear();
        outcome.total_down = 0;
        outcome.total_up_offered = 0;
        for ((flow, &down_rate), &up_rate) in
            self.active.iter_mut().zip(&self.down_rates).zip(&self.up_rates)
        {
            let moved_down = bytes_per_second(down_rate).min(flow.remaining_down);
            let moved_up = bytes_per_second(up_rate).min(flow.remaining_up);
            flow.remaining_down -= seconds * moved_down;
            flow.remaining_up -= seconds * moved_up;
            let pkt = flow.kind.packet_bytes();
            outcome.progress.push(FlowProgress {
                id: flow.id,
                bytes_down: moved_down,
                bytes_up: moved_up,
                pkts_down: moved_down.div_ceil(pkt),
                pkts_up: moved_up.div_ceil(pkt),
            });
            outcome.total_down += seconds * moved_down;
            // LAN-ingress upstream accounting. Short saturations look like
            // goodput (TCP's window caps the burst); once saturation has
            // persisted long enough for a standing queue to form
            // (`fill_ticks`), loss-recovery overshoot inflates LAN-ingress
            // counts 25% above goodput. In a steady run the count stays on
            // one side of the threshold.
            let unpaced = flow.rate_cap_up_bps.is_none();
            let saturated_now = unpaced && flow.remaining_up > 0 && moved_up > 0;
            let mut offered = moved_up;
            if saturated_now {
                flow.saturated_ticks = u32::try_from(
                    u64::from(flow.saturated_ticks).saturating_add(seconds),
                )
                .unwrap_or(u32::MAX);
                if flow.saturated_ticks > fill_ticks {
                    offered += moved_up / 4;
                }
            } else {
                flow.saturated_ticks = 0;
            }
            outcome.total_up_offered += seconds * offered;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DomainName {
        DomainName::new(s).unwrap()
    }

    fn mac(n: u32) -> MacAddr {
        MacAddr::from_oui_nic(0x3C_07_54, n)
    }

    fn flow(id: u64, down: u64, up: u64, cap: Option<u64>) -> Flow {
        Flow {
            id: FlowId(id),
            device: mac(id as u32),
            local: Endpoint::new(std::net::Ipv4Addr::new(192, 168, 1, 10), 40_000 + id as u16),
            remote: Endpoint::new(std::net::Ipv4Addr::new(93, 184, 216, 34), 443),
            domain: name("example.com"),
            kind: AppKind::Web,
            started: SimTime::EPOCH,
            remaining_down: down,
            remaining_up: up,
            rate_cap_bps: cap,
            rate_cap_up_bps: cap,
            saturated_ticks: 0,
        }
    }

    #[test]
    fn single_flow_consumes_link() {
        let mut sched = FlowScheduler::new();
        // 10 Mbit of data on a 10 Mbps link: exactly one second.
        sched.start(flow(0, 1_250_000, 0, None));
        let out = sched.tick(10_000_000, 1_000_000, None, 256 * 1024);
        assert_eq!(out.total_down, 1_250_000);
        assert_eq!(out.completed.len(), 1);
        assert_eq!(sched.active_count(), 0);
    }

    #[test]
    fn capped_flow_moves_at_its_rate() {
        let mut sched = FlowScheduler::new();
        sched.start(flow(0, 10_000_000, 0, Some(4_000_000)));
        let out = sched.tick(50_000_000, 1_000_000, None, 256 * 1024);
        assert_eq!(out.total_down, 500_000, "4 Mbps for 1 s = 500 KB");
        assert_eq!(sched.active_count(), 1);
    }

    #[test]
    fn two_bulk_flows_share_fairly() {
        let mut sched = FlowScheduler::new();
        sched.start(flow(0, 10_000_000, 0, None));
        sched.start(flow(1, 10_000_000, 0, None));
        let out = sched.tick(8_000_000, 1_000_000, None, 256 * 1024);
        assert_eq!(out.progress[0].bytes_down, out.progress[1].bytes_down);
        assert_eq!(out.total_down, 1_000_000);
    }

    #[test]
    fn per_flow_cap_limits_wireless_flows() {
        let mut sched = FlowScheduler::new();
        sched.start(flow(0, 100_000_000, 0, None));
        let out = sched.tick(100_000_000, 1_000_000, Some(20_000_000), 256 * 1024);
        assert_eq!(out.total_down, 2_500_000, "20 Mbps wireless ceiling");
    }

    #[test]
    fn sustained_saturation_overcounts_at_lan_ingress() {
        let mut sched = FlowScheduler::new();
        sched.start(flow(0, 0, 500_000_000, None));
        // Short saturation: LAN ingress equals goodput.
        let out = sched.tick(10_000_000, 2_000_000, None, 256 * 1024);
        let drained = out.progress[0].bytes_up;
        assert_eq!(drained, 250_000, "2 Mbps drain");
        assert_eq!(out.total_up_offered, drained, "no overcount before a standing queue forms");
        // Keep the link saturated past the standing-queue threshold.
        let mut last = out;
        for _ in 0..130 {
            last = sched.tick(10_000_000, 2_000_000, None, 256 * 1024);
        }
        let drained_last = last.progress[0].bytes_up;
        assert!(
            last.total_up_offered >= drained_last + drained_last / 5,
            "sustained saturation inflates LAN-ingress counts: {} vs {}",
            last.total_up_offered,
            drained_last
        );
    }

    #[test]
    fn saturation_counter_resets_when_drained() {
        let mut sched = FlowScheduler::new();
        // Saturate for a while, then let it complete and start a new one.
        sched.start(flow(0, 0, 1_000_000, None));
        for _ in 0..4 {
            sched.tick(10_000_000, 2_000_000, None, 256 * 1024);
        }
        assert_eq!(sched.active_count(), 0, "upload completed");
        sched.start(flow(1, 0, 300_000, None));
        let out = sched.tick(10_000_000, 2_000_000, None, 256 * 1024);
        assert_eq!(out.total_up_offered, out.progress[0].bytes_up);
    }

    #[test]
    fn paced_uploads_never_overcount() {
        let mut sched = FlowScheduler::new();
        sched.start(flow(0, 0, 50_000_000, Some(500_000)));
        let out = sched.tick(10_000_000, 2_000_000, None, 256 * 1024);
        assert_eq!(out.total_up_offered, out.progress[0].bytes_up);
    }

    #[test]
    fn completion_and_packet_counts() {
        let mut sched = FlowScheduler::new();
        sched.start(flow(0, 14_200, 1_420, None));
        let out = sched.tick(10_000_000, 10_000_000, None, 256 * 1024);
        assert_eq!(out.completed.len(), 1);
        assert_eq!(out.progress[0].pkts_down, 10);
        assert_eq!(out.progress[0].pkts_up, 1);
    }

    #[test]
    fn a_steady_run_stops_short_of_the_boundary_second() {
        let mut sched = FlowScheduler::new();
        // Ten full seconds at 4 Mbps down; up runs dry after the first.
        sched.start(flow(0, 5_000_000, 100, Some(4_000_000)));
        let link = (50_000_000, 1_000_000, None, 256 * 1024);
        assert_eq!(sched.steady_seconds(link.0, link.1, link.2, link.3), 0);
        sched.tick(link.0, link.1, link.2, link.3);
        assert_eq!(sched.steady_seconds(link.0, link.1, link.2, link.3), 8);
        let out = sched.advance_steady(8, link.0, link.1, link.2, link.3);
        assert_eq!((out.progress[0].bytes_down, out.total_down), (500_000, 4_000_000));
        assert_eq!(sched.active()[0].remaining_down, 500_000);
        assert_eq!(sched.tick(link.0, link.1, link.2, link.3).completed.len(), 1);
    }

    #[test]
    fn saturation_passing_its_threshold_ends_a_steady_run() {
        let mut sched = FlowScheduler::new();
        let mut upload = flow(0, 0, u64::MAX / 4, None);
        upload.saturated_ticks = 100;
        sched.start(upload);
        // A 256 KiB queue on a 2 Mbps uplink forms in the 120-second floor.
        let link = (10_000_000, 2_000_000, None, 256 * 1024);
        assert_eq!(sched.steady_seconds(link.0, link.1, link.2, link.3), 20);
        let out = sched.advance_steady(20, link.0, link.1, link.2, link.3);
        assert_eq!(out.total_up_offered, 20 * 250_000, "no overcount yet");
        let out = sched.tick(link.0, link.1, link.2, link.3);
        assert_eq!(out.total_up_offered, 250_000 + 250_000 / 4);
        // From here on only running dry ends the run.
        let left = u64::MAX / 4 - 21 * 250_000;
        assert_eq!(sched.steady_seconds(link.0, link.1, link.2, link.3), (left - 1) / 250_000);
    }

    #[test]
    fn abort_all_clears_active_set() {
        let mut sched = FlowScheduler::new();
        sched.start(flow(0, 1_000_000, 0, None));
        sched.start(flow(1, 1_000_000, 0, None));
        let aborted = sched.abort_all();
        assert_eq!(aborted.len(), 2);
        assert_eq!(sched.active_count(), 0);
    }

    #[test]
    fn idle_open_flow_reports_zero_progress() {
        let mut sched = FlowScheduler::new();
        // A flow with a zero rate cap models a long-lived idle connection.
        sched.start(flow(0, 1_000_000, 0, Some(0)));
        let out = sched.tick(10_000_000, 10_000_000, None, 256 * 1024);
        assert_eq!(out.progress.len(), 1);
        assert_eq!(out.progress[0].bytes_down, 0);
        assert_eq!(sched.active_count(), 1);
    }

    #[test]
    fn flow_ids_monotonic() {
        let mut sched = FlowScheduler::new();
        let a = sched.next_id();
        let b = sched.next_id();
        assert!(b > a);
    }

    #[test]
    fn app_kind_properties() {
        assert_eq!(AppKind::Voip.protocol(), IpProtocol::Udp);
        assert_eq!(AppKind::Web.protocol(), IpProtocol::Tcp);
        assert!(AppKind::Voip.packet_bytes() < AppKind::StreamingVideo.packet_bytes());
        assert_eq!(AppKind::Web.server_port(), 443);
    }
}
