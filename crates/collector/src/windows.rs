//! The collection windows of Table 2, as offsets from the study epoch
//! (Monday, October 1, 2012).
//!
//! | Data set   | Dates                        |
//! |------------|------------------------------|
//! | Heartbeats | Oct 1, 2012 – Apr 15, 2013   |
//! | Capacity   | Apr 1 – Apr 15, 2013         |
//! | Uptime     | Mar 6 – Apr 15, 2013         |
//! | Devices    | Mar 6 – Apr 15, 2013         |
//! | WiFi       | Nov 1 – Nov 15, 2012         |
//! | Traffic    | Apr 1 – Apr 15, 2013         |

use simnet::time::{SimDuration, SimTime};

/// Day index (from the Oct 1 epoch) of November 1, 2012.
pub const NOV_1: u64 = 31;
/// Day index of November 16, 2012 (exclusive end of the WiFi window).
pub const NOV_16: u64 = 46;
/// Day index of March 6, 2013.
pub const MAR_6: u64 = 156;
/// Day index of April 1, 2013.
pub const APR_1: u64 = 182;
/// Day index of April 16, 2013 (exclusive end of the spring windows).
pub const APR_16: u64 = 197;

fn day(d: u64) -> SimTime {
    SimTime::EPOCH + SimDuration::from_days(d)
}

/// A half-open collection window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Inclusive start.
    pub start: SimTime,
    /// Exclusive end.
    pub end: SimTime,
}

impl Window {
    /// Window length.
    pub fn duration(&self) -> SimDuration {
        self.end.since(self.start)
    }

    /// Does the window contain `t`?
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// Heartbeats: October 1, 2012 – April 15, 2013.
pub fn heartbeats() -> Window {
    Window { start: day(0), end: day(APR_16) }
}

/// Uptime: March 6 – April 15, 2013.
pub fn uptime() -> Window {
    Window { start: day(MAR_6), end: day(APR_16) }
}

/// Devices: March 6 – April 15, 2013.
pub fn devices() -> Window {
    Window { start: day(MAR_6), end: day(APR_16) }
}

/// WiFi: November 1 – November 15, 2012.
pub fn wifi() -> Window {
    Window { start: day(NOV_1), end: day(NOV_16) }
}

/// Capacity: April 1 – April 15, 2013.
pub fn capacity() -> Window {
    Window { start: day(APR_1), end: day(APR_16) }
}

/// Traffic: April 1 – April 15, 2013.
pub fn traffic() -> Window {
    Window { start: day(APR_1), end: day(APR_16) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_lengths_match_table2() {
        assert_eq!(heartbeats().duration().as_days_f64(), 197.0);
        assert_eq!(wifi().duration().as_days_f64(), 15.0);
        assert_eq!(capacity().duration().as_days_f64(), 15.0);
        assert_eq!(traffic().duration().as_days_f64(), 15.0);
        assert_eq!(uptime().duration().as_days_f64(), 41.0);
        assert_eq!(devices(), uptime());
    }

    #[test]
    fn calendar_offsets_consistent() {
        // Oct 31 days, Nov 30, Dec 31, Jan 31, Feb 28, Mar 31.
        assert_eq!(NOV_1, 31);
        assert_eq!(MAR_6, 31 + 30 + 31 + 31 + 28 + 5);
        assert_eq!(APR_1, 31 + 30 + 31 + 31 + 28 + 31);
    }

    #[test]
    fn containment() {
        let w = wifi();
        assert!(w.contains(day(NOV_1)));
        assert!(w.contains(day(NOV_16) - SimDuration::from_secs(1)));
        assert!(!w.contains(day(NOV_16)));
        assert!(!w.contains(day(0)));
    }
}
