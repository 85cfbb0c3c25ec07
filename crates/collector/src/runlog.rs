//! Run-length-encoded heartbeat logs.
//!
//! The deployment received one heartbeat per router per minute for six
//! months — tens of millions of timestamps. Since every §4 analysis only
//! cares about *gaps of ten minutes or more*, the collector compresses
//! consecutive-minute heartbeats into runs at ingest time: a run is a
//! `(first, last, count)` triple of heartbeats no more than a tolerance
//! apart. Isolated heartbeat losses (a 2-minute hole) stay inside a run
//! and — exactly as in the paper — remain invisible to the downtime
//! analysis; only sustained silence splits runs.

use serde::{Deserialize, Serialize};
use simnet::time::{SimDuration, SimTime};

/// Heartbeats arrive nominally 60 s apart; anything up to this tolerance
/// extends the current run. Three minutes spans up to two consecutive
/// losses, which can never amount to the ten-minute downtime threshold.
pub const RUN_TOLERANCE: SimDuration = SimDuration::from_secs(3 * 60);

/// A maximal run of regularly received heartbeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HeartbeatRun {
    /// Arrival of the first heartbeat in the run.
    pub first: SimTime,
    /// Arrival of the last heartbeat in the run.
    pub last: SimTime,
    /// Number of heartbeats received in the run.
    pub count: u64,
}

impl HeartbeatRun {
    /// Span covered by the run.
    pub fn span(&self) -> SimDuration {
        self.last.since(self.first)
    }
}

/// The compressed heartbeat log for one router.
///
/// ```
/// use collector::RunLog;
/// use simnet::time::{SimDuration, SimTime};
///
/// let minute = |m: u64| SimTime::EPOCH + SimDuration::from_mins(m);
/// let mut log = RunLog::new();
/// for m in (0..30).chain(60..90) {
///     log.push(minute(m)); // a 30-minute silence splits two runs
/// }
/// assert_eq!(log.runs().len(), 2);
/// let gaps = log.downtimes(minute(0), minute(90), SimDuration::from_mins(10));
/// assert_eq!(gaps, vec![(minute(29), minute(60))]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunLog {
    runs: Vec<HeartbeatRun>,
}

impl RunLog {
    /// An empty log.
    pub fn new() -> RunLog {
        RunLog::default()
    }

    /// Record a heartbeat arrival. Arrivals must be non-decreasing.
    pub fn push(&mut self, at: SimTime) {
        match self.runs.last_mut() {
            Some(run) if at >= run.last && at.since(run.last) <= RUN_TOLERANCE => {
                run.last = at;
                run.count += 1;
            }
            Some(run) => {
                debug_assert!(at >= run.last, "heartbeats must arrive in order");
                self.runs.push(HeartbeatRun { first: at, last: at, count: 1 });
            }
            None => self.runs.push(HeartbeatRun { first: at, last: at, count: 1 }),
        }
    }

    /// Append a later log onto this one — the stream-mode fold of one
    /// window's heartbeats behind the accumulated history. When the
    /// other log's first run starts within [`RUN_TOLERANCE`] of this
    /// log's last heartbeat the two boundary runs merge, so the result
    /// is exactly the log a single [`RunLog::push`] stream of all the
    /// arrivals would have produced.
    pub fn append(&mut self, other: &RunLog) {
        let mut incoming = other.runs.iter();
        if let (Some(last), Some(first)) = (self.runs.last_mut(), other.runs.first()) {
            debug_assert!(first.first >= last.last, "window logs must arrive in order");
            if first.first >= last.last && first.first.since(last.last) <= RUN_TOLERANCE {
                last.last = first.last;
                last.count += first.count;
                incoming.next();
            }
        }
        self.runs.extend(incoming.copied());
    }

    /// The runs, in time order.
    pub fn runs(&self) -> &[HeartbeatRun] {
        &self.runs
    }

    /// Total heartbeats received.
    pub fn total_heartbeats(&self) -> u64 {
        self.runs.iter().map(|r| r.count).sum()
    }

    /// Time of the first/last heartbeat ever received.
    pub fn extent(&self) -> Option<(SimTime, SimTime)> {
        match (self.runs.first(), self.runs.last()) {
            (Some(a), Some(b)) => Some((a.first, b.last)),
            _ => None,
        }
    }

    /// Gaps of at least `min_gap` between runs, within `[start, end)` —
    /// the paper's downtime events. The period before the first heartbeat
    /// and after the last one inside the window also counts when long
    /// enough (a router that never reports *is* down).
    pub fn downtimes(
        &self,
        start: SimTime,
        end: SimTime,
        min_gap: SimDuration,
    ) -> Vec<(SimTime, SimTime)> {
        let mut gaps = Vec::new();
        let mut cursor = start;
        for run in &self.runs {
            if run.last < start {
                cursor = cursor.max(run.last);
                continue;
            }
            if run.first >= end {
                break;
            }
            let gap_start = cursor;
            let gap_end = run.first.min(end);
            if gap_end > gap_start && gap_end.since(gap_start) >= min_gap {
                gaps.push((gap_start, gap_end));
            }
            cursor = cursor.max(run.last.min(end));
        }
        if end > cursor && end.since(cursor) >= min_gap {
            gaps.push((cursor, end));
        }
        gaps
    }

    /// Fraction of `[start, end)` covered by heartbeat runs — the §4.2
    /// "router on X% of the time" metric.
    pub fn coverage(&self, start: SimTime, end: SimTime) -> f64 {
        assert!(end > start);
        let mut covered = SimDuration::ZERO;
        for run in &self.runs {
            let s = run.first.max(start);
            let e = run.last.min(end);
            if e > s {
                covered += e.since(s);
            }
        }
        covered / end.since(start)
    }
}

/// Delivery accounting for the batch upload path, kept alongside the run
/// logs so an operator reading the collection run can tell a healthy fleet
/// ("everything accepted first try") from one limping through faults
/// ("retried-then-accepted"), and both from actual rejections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UploadCounters {
    /// Batches accepted and applied (first appearance of their sequence
    /// number, whether in order or buffered ahead of the watermark).
    pub accepted: u64,
    /// Of `accepted`, how many arrived with a non-zero attempt counter —
    /// i.e. were retried at least once before getting through.
    pub retried_accepted: u64,
    /// Batches acknowledged but discarded because their sequence number
    /// was already known (replays after a lost ack).
    pub duplicates: u64,
    /// Upload attempts nacked because the collector was down. These are
    /// *rejections*, not losses: the router keeps the batch and retries.
    pub rejected: u64,
    /// Gap declarations accepted onto the ledger (declared-lost batch
    /// ranges — the only path by which records are ever truly lost).
    pub gap_declarations: u64,
    /// Per-router sequence watermark increments (a batch applied in order,
    /// a buffered batch drained contiguous, or a declared gap skipped).
    pub watermark_advances: u64,
}

impl UploadCounters {
    /// Fold another counter set into this one (per-shard → global).
    pub fn merge(&mut self, other: UploadCounters) {
        self.accepted += other.accepted;
        self.retried_accepted += other.retried_accepted;
        self.duplicates += other.duplicates;
        self.rejected += other.rejected;
        self.gap_declarations += other.gap_declarations;
        self.watermark_advances += other.watermark_advances;
    }

    /// Batches that went through on their first attempt.
    pub fn delivered_first_try(&self) -> u64 {
        self.accepted - self.retried_accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(mins: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_mins(mins)
    }

    #[test]
    fn upload_counters_merge_and_distinguish_retries() {
        let mut a = UploadCounters { accepted: 10, retried_accepted: 2, ..Default::default() };
        let b = UploadCounters {
            accepted: 5,
            retried_accepted: 5,
            duplicates: 3,
            rejected: 7,
            gap_declarations: 1,
            watermark_advances: 4,
        };
        a.merge(b);
        assert_eq!(a.accepted, 15);
        assert_eq!(a.retried_accepted, 7);
        assert_eq!(a.delivered_first_try(), 8);
        assert_eq!((a.duplicates, a.rejected, a.gap_declarations), (3, 7, 1));
        assert_eq!(a.watermark_advances, 4);
    }

    #[test]
    fn consecutive_minutes_form_one_run() {
        let mut log = RunLog::new();
        for i in 0..60 {
            log.push(m(i));
        }
        assert_eq!(log.runs().len(), 1);
        assert_eq!(log.total_heartbeats(), 60);
        assert_eq!(log.runs()[0].span(), SimDuration::from_mins(59));
    }

    #[test]
    fn single_loss_stays_inside_run() {
        let mut log = RunLog::new();
        for i in 0..10 {
            if i != 5 {
                log.push(m(i));
            }
        }
        assert_eq!(log.runs().len(), 1, "a 2-minute hole is within tolerance");
        assert_eq!(log.total_heartbeats(), 9);
    }

    #[test]
    fn long_silence_splits_runs() {
        let mut log = RunLog::new();
        log.push(m(0));
        log.push(m(1));
        log.push(m(30));
        log.push(m(31));
        assert_eq!(log.runs().len(), 2);
    }

    #[test]
    fn append_equals_continuous_push_at_every_split() {
        // Whatever minute a stream window boundary lands on — mid-run,
        // inside a short hole, across a real downtime — folding the two
        // halves back together must reproduce the continuously pushed log.
        let arrivals: Vec<u64> = (0..10).chain(15..20).chain(40..50).collect();
        let mut whole = RunLog::new();
        for &i in &arrivals {
            whole.push(m(i));
        }
        for split in 0..=arrivals.len() {
            let mut head = RunLog::new();
            for &i in &arrivals[..split] {
                head.push(m(i));
            }
            let mut tail = RunLog::new();
            for &i in &arrivals[split..] {
                tail.push(m(i));
            }
            head.append(&tail);
            assert_eq!(head, whole, "split at {split}");
        }
    }

    #[test]
    fn downtimes_respect_threshold() {
        let mut log = RunLog::new();
        for i in 0..10 {
            log.push(m(i));
        }
        for i in 15..20 {
            log.push(m(i)); // 6-minute gap: below threshold
        }
        for i in 40..50 {
            log.push(m(i)); // 21-minute gap: downtime
        }
        let gaps = log.downtimes(m(0), m(50), SimDuration::from_mins(10));
        assert_eq!(gaps, vec![(m(19), m(40))]);
    }

    /// The heartbeat-interval ablation: five hours of heartbeats with a
    /// 12-minute outage, sent every 1, 5 or 10 minutes, read against the
    /// paper's 10-minute downtime threshold. At 1 and 5 minutes the log
    /// finds the outage and nothing else. At 10 minutes every interval
    /// exceeds [`RUN_TOLERANCE`], so each heartbeat is a run of its own
    /// and every gap reaches the threshold: the outage is one of 28
    /// downtimes, one per heartbeat received.
    #[test]
    fn heartbeat_interval_ablation() {
        let detect = |interval: usize| {
            let mut log = RunLog::new();
            for t in (0..300).step_by(interval).filter(|t| !(100..112).contains(t)) {
                log.push(m(t));
            }
            (log.runs().len(), log.downtimes(m(0), m(300), SimDuration::from_mins(10)))
        };
        assert_eq!(detect(1).1, vec![(m(99), m(112))]);
        assert_eq!(detect(5).1, vec![(m(95), m(115))]);
        let (runs, gaps) = detect(10);
        assert_eq!((runs, gaps.len()), (28, 28));
        assert!(gaps.contains(&(m(90), m(120))), "the outage is among them");
    }

    #[test]
    fn leading_and_trailing_silence_count() {
        let mut log = RunLog::new();
        for i in 30..40 {
            log.push(m(i));
        }
        let gaps = log.downtimes(m(0), m(100), SimDuration::from_mins(10));
        assert_eq!(gaps, vec![(m(0), m(30)), (m(39), m(100))]);
    }

    #[test]
    fn empty_log_is_one_big_downtime() {
        let log = RunLog::new();
        let gaps = log.downtimes(m(0), m(100), SimDuration::from_mins(10));
        assert_eq!(gaps, vec![(m(0), m(100))]);
        assert_eq!(log.extent(), None);
    }

    #[test]
    fn coverage_fraction() {
        let mut log = RunLog::new();
        for i in 0..25 {
            log.push(m(i));
        }
        for i in 75..100 {
            log.push(m(i));
        }
        let cov = log.coverage(m(0), m(100));
        assert!((cov - 0.48).abs() < 0.01, "coverage {cov}");
    }

    #[test]
    fn downtimes_clipped_to_window() {
        let mut log = RunLog::new();
        log.push(m(0));
        log.push(m(100));
        let gaps = log.downtimes(m(20), m(80), SimDuration::from_mins(10));
        assert_eq!(gaps, vec![(m(20), m(80))]);
    }
}
