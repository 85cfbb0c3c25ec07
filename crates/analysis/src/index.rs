//! A shared per-router index over a [`Datasets`] snapshot.
//!
//! Snapshots keep every table sorted with the router ID as the leading
//! key, so each router's records form one contiguous run. [`DataIndex`]
//! finds those runs once (a handful of binary searches per router) and
//! hands the figures zero-copy slices plus O(1) registration lookups —
//! replacing the per-record `Datasets::meta` scans and whole-table
//! filters the analyses used to do.
//!
//! The nine high-volume tables (the four Traffic tables, WiFi scans,
//! associations, latency probes, NAT probes and punch trials) are
//! columnar and may be partially **spilled to disk** when the study ran
//! under a memory budget (`collector::spill`). Their per-router iterators stream
//! spilled blocks lazily — one router's rows are decoded at a time,
//! never the whole table — so figure computation over a 100k-home
//! spilled snapshot holds only the small row tables plus one router's
//! columnar rows in RAM at once.

use collector::columns::{
    RouterAssociations, RouterDns, RouterFlows, RouterPacketStats, RouterWifi,
};
use collector::{Datasets, RouterMeta};
use firmware::records::{CapacityRecord, DeviceCensusRecord, RouterId, UptimeRecord};
use household::{Country, Region};
use std::collections::HashMap;

/// Split a router-sorted table into per-router contiguous slices.
fn slices_by_router<T>(
    table: &[T],
    router_of: impl Fn(&T) -> RouterId,
) -> HashMap<RouterId, &[T]> {
    let mut out = HashMap::new();
    let mut start = 0;
    while start < table.len() {
        let router = router_of(&table[start]);
        let len = table[start..].partition_point(|r| router_of(r) == router);
        out.insert(router, &table[start..start + len]);
        start += len;
    }
    out
}

/// Per-router slices into every sorted table of one snapshot, shared by
/// all figures of a report so each table is grouped exactly once.
#[derive(Debug)]
pub struct DataIndex<'a> {
    data: &'a Datasets,
    meta: HashMap<RouterId, RouterMeta>,
    uptime: HashMap<RouterId, &'a [UptimeRecord]>,
    capacity: HashMap<RouterId, &'a [CapacityRecord]>,
    devices: HashMap<RouterId, &'a [DeviceCensusRecord]>,
}

impl<'a> DataIndex<'a> {
    /// Index a snapshot. Cost is O(routers · log records) — negligible next
    /// to a single full-table scan.
    pub fn new(data: &'a Datasets) -> DataIndex<'a> {
        DataIndex {
            meta: data.routers.iter().map(|m| (m.router, *m)).collect(),
            uptime: slices_by_router(&data.uptime, |r| r.router),
            capacity: slices_by_router(&data.capacity, |r| r.router),
            devices: slices_by_router(&data.devices, |r| r.router),
            data,
        }
    }

    /// The underlying snapshot.
    pub fn data(&self) -> &'a Datasets {
        self.data
    }

    /// Registered routers, sorted by ID (the snapshot keeps them sorted),
    /// for deterministic per-router iteration.
    pub fn routers(&self) -> &'a [RouterMeta] {
        &self.data.routers
    }

    /// Registration metadata, O(1).
    pub fn meta(&self, router: RouterId) -> Option<&RouterMeta> {
        self.meta.get(&router)
    }

    /// The router's country, if registered.
    pub fn country(&self, router: RouterId) -> Option<Country> {
        self.meta(router).map(|m| m.country)
    }

    /// The router's region, if registered.
    pub fn region(&self, router: RouterId) -> Option<Region> {
        self.meta(router).map(|m| m.country.region())
    }

    /// One router's uptime reports (empty if none).
    pub fn uptime(&self, router: RouterId) -> &'a [UptimeRecord] {
        self.uptime.get(&router).copied().unwrap_or(&[])
    }

    /// One router's capacity measurements.
    pub fn capacity(&self, router: RouterId) -> &'a [CapacityRecord] {
        self.capacity.get(&router).copied().unwrap_or(&[])
    }

    /// One router's device censuses.
    pub fn devices(&self, router: RouterId) -> &'a [DeviceCensusRecord] {
        self.devices.get(&router).copied().unwrap_or(&[])
    }

    /// One router's WiFi scans, decoded from the snapshot's columnar
    /// table (records yielded by value; spilled blocks stream in lazily).
    pub fn wifi(&self, router: RouterId) -> RouterWifi<'a> {
        self.data.wifi.router(router)
    }

    /// One router's per-minute packet statistics, decoded from the
    /// snapshot's columnar table (records yielded by value). For spilled
    /// snapshots this streams the router's on-disk block in, then chains
    /// the resident tail — the rest of the table stays on disk.
    pub fn packet_stats(&self, router: RouterId) -> RouterPacketStats<'a> {
        self.data.packet_stats.router(router)
    }

    /// One router's flow records, decoded from columns (streaming spilled
    /// blocks lazily; see [`DataIndex::packet_stats`]).
    pub fn flows(&self, router: RouterId) -> RouterFlows<'a> {
        self.data.flows.router(router)
    }

    /// One router's DNS samples, decoded from columns (streaming spilled
    /// blocks lazily; see [`DataIndex::packet_stats`]).
    pub fn dns(&self, router: RouterId) -> RouterDns<'a> {
        self.data.dns.router(router)
    }

    /// Bytes of Traffic data living in on-disk spill segments rather than
    /// RAM (0 for ordinary in-memory snapshots). Diagnostic: lets report
    /// code and tests confirm a bounded-memory run really stayed bounded.
    pub fn spilled_traffic_bytes(&self) -> u64 {
        self.data.spilled_bytes()
    }

    /// One router's association reports, decoded from columns (streaming
    /// spilled blocks lazily; see [`DataIndex::packet_stats`]).
    pub fn associations(&self, router: RouterId) -> RouterAssociations<'a> {
        self.data.associations.router(router)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use collector::Collector;
    use firmware::records::Record;
    use simnet::time::{SimDuration, SimTime};

    fn t(mins: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_mins(mins)
    }

    #[test]
    fn index_groups_contiguous_runs() {
        let collector = Collector::new();
        collector.register(RouterMeta {
            router: RouterId(1),
            country: Country::UnitedStates,
            traffic_consent: true,
        });
        collector.register(RouterMeta {
            router: RouterId(2),
            country: Country::India,
            traffic_consent: false,
        });
        for (router, at) in [(2u32, 4u64), (1, 9), (2, 1), (1, 3)] {
            collector.ingest(Record::Uptime(UptimeRecord {
                router: RouterId(router),
                at: t(at),
                uptime: SimDuration::ZERO,
            }));
        }
        let data = collector.snapshot();
        let idx = DataIndex::new(&data);
        assert_eq!(idx.uptime(RouterId(1)).len(), 2);
        assert_eq!(idx.uptime(RouterId(2)).len(), 2);
        assert_eq!(idx.uptime(RouterId(1))[0].at, t(3));
        assert!(idx.uptime(RouterId(3)).is_empty());
        assert_eq!(idx.region(RouterId(2)), Some(Region::Developing));
        assert_eq!(idx.meta(RouterId(9)), None);
    }
}
