//! # analysis — every figure and table of the paper, recomputed
//!
//! One report path: [`IncrementalReport`] folds the collected
//! [`collector::Datasets`] (never simulator ground truth) with one scan
//! per table and finishes each artifact with one function. A batch
//! report ([`StudyReport::compute`]) is that fold over one window; a
//! stream study folds window by window. The modules:
//!
//! * [`availability`] — §4: Figs 3–6, downtime extraction;
//! * [`infrastructure`] — §5: Figs 7–12, Table 5;
//! * [`usage`] — §6: Figs 13–20;
//! * [`highlights`] — Tables 1–4 and 6;
//! * [`incremental`] — [`IncrementalReport`], the report engine:
//!   per-figure partial state folded delta by delta, then finished into
//!   a [`StudyReport`];
//! * [`stats`] — CDFs, quantiles, moments;
//! * [`artifacts`] — correlated-gap detection separating collector-side
//!   failures from genuine home downtime (§3.3's limitation, auditable);
//! * [`caps`] — the uCap usage-cap manager (paper ref \[24\]);
//! * [`natchar`] — NAT-type characterization and CGN detection from the
//!   firmware's STUN-style probe tables;
//! * [`fingerprint`] — §7's device-fingerprinting future work, implemented;
//! * [`render`] — plain-text plots and tables;
//! * [`report`] — [`report::StudyReport`], the whole paper in one struct.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod artifacts;
pub mod availability;
pub mod caps;
pub mod fingerprint;
pub mod highlights;
pub mod incremental;
pub mod latency;
pub mod infrastructure;
pub mod natchar;
pub mod render;
pub mod report;
mod runs;
pub mod stats;
pub mod usage;

pub use incremental::IncrementalReport;
pub use report::{ReportWindows, StudyReport};
pub use stats::Cdf;
