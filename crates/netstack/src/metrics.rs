//! Flow-layer metric handles: session lifecycle counts and sim-time flow
//! durations.
//!
//! The scheduler keeps plain cumulative counters
//! ([`crate::FlowScheduler::started_total`] /
//! [`crate::FlowScheduler::completed_total`]); this module maps them onto
//! the global `obs` registry at end of run. Flow *durations* are recorded
//! as they complete (a few per simulated minute at most — four relaxed
//! atomics each), in **sim-time microseconds**, never wall clock.

use crate::FlowScheduler;
use simnet::time::SimTime;

/// Pre-registered handles for the flow-layer metrics.
#[derive(Debug, Clone, Copy)]
pub struct FlowMetrics {
    /// Flows ever started.
    pub flows_started: &'static obs::Counter,
    /// Flows that ran to completion (power-off aborts excluded).
    pub flows_completed: &'static obs::Counter,
    /// Completed-flow lifetimes in sim-time microseconds.
    pub flow_duration: &'static obs::Histogram,
}

impl FlowMetrics {
    /// Register (or fetch) the flow-layer handles.
    pub fn handles() -> FlowMetrics {
        FlowMetrics {
            flows_started: obs::counter("flows_started_total"),
            flows_completed: obs::counter("flows_completed_total"),
            flow_duration: obs::histogram(
                "flow_duration_micros",
                &obs::DURATION_BOUNDS_MICROS,
            ),
        }
    }

    /// Record the sim-time lifetimes of flows that just completed.
    pub fn record_completions(&self, now: SimTime, completed: &[crate::Flow]) {
        for flow in completed {
            self.flow_duration.record(now.since(flow.started).as_micros());
        }
    }

    /// Fold one scheduler's lifetime counts into the global totals.
    pub fn publish_scheduler(&self, sched: &FlowScheduler) {
        self.flows_started.add(sched.started_total());
        self.flows_completed.add(sched.completed_total());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AppKind, Flow, FlowId};
    use simnet::packet::{Endpoint, MacAddr};
    use simnet::time::SimDuration;
    use std::net::Ipv4Addr;

    #[test]
    fn scheduler_counts_and_durations_publish() {
        let m = FlowMetrics::handles();
        let before =
            (m.flows_started.get(), m.flows_completed.get(), m.flow_duration.count());
        let mut sched = FlowScheduler::new();
        sched.start(Flow {
            id: FlowId(0),
            device: MacAddr::from_oui_nic(0x3C_07_54, 1),
            local: Endpoint::new(Ipv4Addr::new(192, 168, 1, 10), 40_000),
            remote: Endpoint::new(Ipv4Addr::new(93, 184, 216, 34), 443),
            domain: simnet::dns::DomainName::new("example.com").unwrap(),
            kind: AppKind::Web,
            started: SimTime::EPOCH,
            remaining_down: 1_000,
            remaining_up: 0,
            rate_cap_bps: None,
            rate_cap_up_bps: None,
            saturated_ticks: 0,
        });
        let out = sched.tick(10_000_000, 1_000_000, None, 256 * 1024);
        assert_eq!(out.completed.len(), 1);
        m.record_completions(SimTime::EPOCH + SimDuration::from_secs(1), &out.completed);
        m.publish_scheduler(&sched);
        assert_eq!(m.flows_started.get() - before.0, 1);
        assert_eq!(m.flows_completed.get() - before.1, 1);
        assert_eq!(m.flow_duration.count() - before.2, 1);
    }
}
