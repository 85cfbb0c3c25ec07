//! Columnar (struct-of-arrays) storage for the high-volume tables.
//!
//! Nine of the collector's 14 tables dominate a study's memory footprint —
//! the four consent-gated Traffic tables (per-minute packet statistics,
//! flows, DNS samples, MAC sightings), the consent-free WiFi scans,
//! associations, and latency probes that *every* home emits, and the two
//! CGN characterization tables (NAT probes, hole-punch trials): the
//! 197-day deployment materializes tens of millions of them, and scaling
//! the deployment to 10k+ homes multiplies that by two orders of
//! magnitude. Row-of-structs `Vec<Record>` storage pays padding and full
//! `u64` width for every field; this module stores each table as one
//! column per field, grouped per router, with narrow encodings:
//!
//! * **timestamps** ([`TimeCol`]) — delta-from-previous as `u32`
//!   microseconds, with a sentinel escape to a 64-bit side array for
//!   backward jumps or gaps over ~71 minutes. Per-router record streams
//!   are chronological, so escapes are rare;
//! * **counters** ([`NarrowCol`]) — `u32` fast lane with the same
//!   sentinel escape for values that need 64 bits;
//! * **domains** ([`DomainPool`]) — per-router interning of
//!   [`ReportedDomain`] values to `u32` ids (homes revisit the same
//!   handful of domains all study long);
//! * **everything small** (`AnonMac`, ports, protocols, flags) — plain
//!   dense vectors at natural width.
//!
//! The encodings are *pure functions of the pushed record sequence*, so
//! `PartialEq` on a table equals record-sequence equality — determinism
//! tests can keep comparing snapshots directly. Iteration rebuilds
//! records by value in (router, arrival) order, which after a snapshot
//! merge is exactly the (router, time)-sorted global order the legacy row
//! vectors had; callers iterate (`for r in &data.flows`) without caring
//! that rows no longer exist in memory.
//!
//! Under a spill budget ([`crate::spill`]) a table may additionally own
//! disk-backed parts: per-router blocks of these same columns in segment
//! files, framed little-endian by the `encode`/`decode` pairs in this
//! module. A collector shard's table holds one part per sealed segment; a
//! merged table holds at most one, its merged file. Per-router iteration
//! streams the spilled head from disk, part by part, before the resident
//! tail; flat iteration walks the ordered union of resident and spilled
//! routers, so every consumer sees the identical record sequence whether
//! or not the study spilled.

use crate::spill::{
    put_u16, put_u32, put_u64, put_u8, read_block, BlockRef, Cursor, SegmentStore, SpillError,
};
use firmware::anonymize::{AnonMac, ReportedDomain};
use firmware::latency::LatencyRecord;
use firmware::records::{
    ApSighting, AssociationRecord, DnsSampleRecord, FlowRecord, MacSightingRecord, Medium,
    NatProbeRecord, NatType, PacketStatsRecord, PunchTrialRecord, RouterId, WifiScanRecord,
};
use simnet::dns::DomainName;
use simnet::packet::IpProtocol;
use simnet::time::{SimDuration, SimTime};
use simnet::wifi::Band;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The escape marker in a narrow lane: the real value lives in the wide
/// side array. Chosen at the top of the `u32` range so every in-range
/// value encodes as itself.
const ESCAPE: u32 = u32::MAX;

/// A timestamp column: `u32` microsecond deltas from the previous entry,
/// escaping to an absolute 64-bit side array when a record jumps backward
/// or more than `u32::MAX - 1` microseconds (~71 minutes) forward.
/// Lossless for any input order; 4 bytes per record in the steady state.
#[derive(Debug, Clone, PartialEq)]
pub struct TimeCol {
    enc: Vec<u32>,
    wide: Vec<u64>,
    /// Encoder state: absolute microseconds of the last appended entry.
    last: u64,
}

impl TimeCol {
    /// An empty column (`const`, so shared static empties are possible).
    pub const fn empty() -> TimeCol {
        TimeCol { enc: Vec::new(), wide: Vec::new(), last: 0 }
    }

    /// Append one timestamp.
    pub fn append(&mut self, t: SimTime) {
        let us = t.as_micros();
        let delta = us.wrapping_sub(self.last);
        if us >= self.last && delta < u64::from(ESCAPE) {
            self.enc.push(delta as u32);
        } else {
            self.enc.push(ESCAPE);
            self.wide.push(us);
        }
        self.last = us;
    }

    /// Entries appended so far.
    pub fn len(&self) -> usize {
        self.enc.len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.enc.is_empty()
    }

    /// Sequential decode of every timestamp, in append order.
    pub fn iter(&self) -> TimeColIter<'_> {
        TimeColIter { enc: self.enc.iter(), wide: self.wide.iter(), last: 0 }
    }

    /// Heap bytes held by the column.
    pub fn heap_bytes(&self) -> usize {
        self.enc.capacity() * 4 + self.wide.capacity() * 8
    }

    /// Append the little-endian segment framing of this column.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.last);
        put_u64(out, self.enc.len() as u64);
        for &v in &self.enc {
            put_u32(out, v);
        }
        put_u64(out, self.wide.len() as u64);
        for &v in &self.wide {
            put_u64(out, v);
        }
    }

    /// Decode a column previously written by [`TimeCol::encode`].
    pub(crate) fn decode(cur: &mut Cursor<'_>) -> Result<TimeCol, SpillError> {
        let last = cur.u64()?;
        let n = cur.len_prefix(4)?;
        let mut enc = Vec::with_capacity(n);
        for _ in 0..n {
            enc.push(cur.u32()?);
        }
        let w = cur.len_prefix(8)?;
        let mut wide = Vec::with_capacity(w);
        for _ in 0..w {
            wide.push(cur.u64()?);
        }
        if enc.iter().filter(|&&e| e == ESCAPE).count() != wide.len() {
            return Err(SpillError::Corrupt("time column escape/wide mismatch"));
        }
        Ok(TimeCol { enc, wide, last })
    }
}

impl Default for TimeCol {
    fn default() -> TimeCol {
        TimeCol::empty()
    }
}

/// Sequential decoder over a [`TimeCol`].
#[derive(Debug, Clone)]
pub struct TimeColIter<'a> {
    enc: std::slice::Iter<'a, u32>,
    wide: std::slice::Iter<'a, u64>,
    last: u64,
}

impl Iterator for TimeColIter<'_> {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        let &e = self.enc.next()?;
        self.last = if e == ESCAPE {
            self.wide.next().copied()?
        } else {
            self.last + u64::from(e)
        };
        Some(SimTime::from_micros(self.last))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.enc.size_hint()
    }
}

impl ExactSizeIterator for TimeColIter<'_> {}

/// A `u64` value column with a `u32` fast lane: values below the escape
/// threshold store in 4 bytes, the rest go to a 64-bit side array. Byte
/// and packet counts per one-minute window almost always fit.
#[derive(Debug, Clone, PartialEq)]
pub struct NarrowCol {
    enc: Vec<u32>,
    wide: Vec<u64>,
}

impl NarrowCol {
    /// An empty column.
    pub const fn empty() -> NarrowCol {
        NarrowCol { enc: Vec::new(), wide: Vec::new() }
    }

    /// Append one value.
    pub fn append(&mut self, v: u64) {
        if v < u64::from(ESCAPE) {
            self.enc.push(v as u32);
        } else {
            self.enc.push(ESCAPE);
            self.wide.push(v);
        }
    }

    /// Entries appended so far.
    pub fn len(&self) -> usize {
        self.enc.len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.enc.is_empty()
    }

    /// Sequential decode of every value, in append order.
    pub fn iter(&self) -> NarrowColIter<'_> {
        NarrowColIter { enc: self.enc.iter(), wide: self.wide.iter() }
    }

    /// Heap bytes held by the column.
    pub fn heap_bytes(&self) -> usize {
        self.enc.capacity() * 4 + self.wide.capacity() * 8
    }

    /// Append the little-endian segment framing of this column.
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.enc.len() as u64);
        for &v in &self.enc {
            put_u32(out, v);
        }
        put_u64(out, self.wide.len() as u64);
        for &v in &self.wide {
            put_u64(out, v);
        }
    }

    /// Decode a column previously written by [`NarrowCol::encode`].
    pub(crate) fn decode(cur: &mut Cursor<'_>) -> Result<NarrowCol, SpillError> {
        let n = cur.len_prefix(4)?;
        let mut enc = Vec::with_capacity(n);
        for _ in 0..n {
            enc.push(cur.u32()?);
        }
        let w = cur.len_prefix(8)?;
        let mut wide = Vec::with_capacity(w);
        for _ in 0..w {
            wide.push(cur.u64()?);
        }
        if enc.iter().filter(|&&e| e == ESCAPE).count() != wide.len() {
            return Err(SpillError::Corrupt("narrow column escape/wide mismatch"));
        }
        Ok(NarrowCol { enc, wide })
    }
}

impl Default for NarrowCol {
    fn default() -> NarrowCol {
        NarrowCol::empty()
    }
}

/// Sequential decoder over a [`NarrowCol`].
#[derive(Debug, Clone)]
pub struct NarrowColIter<'a> {
    enc: std::slice::Iter<'a, u32>,
    wide: std::slice::Iter<'a, u64>,
}

impl Iterator for NarrowColIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        let &e = self.enc.next()?;
        if e == ESCAPE {
            self.wide.next().copied()
        } else {
            Some(u64::from(e))
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.enc.size_hint()
    }
}

impl ExactSizeIterator for NarrowColIter<'_> {}

/// A per-router domain interner: each distinct [`ReportedDomain`] is
/// stored once and referenced by a dense `u32` id. Equality compares the
/// pool only — first-appearance order is a pure function of the pushed
/// sequence, and the lookup map is derivable from the pool.
#[derive(Debug, Clone)]
pub struct DomainPool {
    pool: Vec<ReportedDomain>,
    lookup: BTreeMap<ReportedDomain, u32>,
}

impl DomainPool {
    /// An empty pool.
    pub const fn empty() -> DomainPool {
        DomainPool { pool: Vec::new(), lookup: BTreeMap::new() }
    }

    /// The id for a domain, interning it on first sight.
    pub fn intern(&mut self, domain: &ReportedDomain) -> u32 {
        if let Some(&id) = self.lookup.get(domain) {
            return id;
        }
        let id = self.pool.len() as u32;
        // simlint: allow(hot-path-transitive) — first-sight interning clones once per unique domain, amortized away on the per-record path
        self.pool.push(domain.clone());
        // simlint: allow(hot-path-transitive) — second copy of the same first-sight-only clone
        self.lookup.insert(domain.clone(), id);
        id
    }

    /// The domain behind an id issued by this pool.
    ///
    /// # Panics
    /// If the id was not issued by this pool (a column/pool pairing bug).
    pub fn get(&self, id: u32) -> &ReportedDomain {
        &self.pool[id as usize]
    }

    /// Distinct domains interned.
    pub fn len(&self) -> usize {
        self.pool.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.pool.is_empty()
    }

    /// Append the little-endian segment framing of the pool, in id order
    /// (so decoding re-interns into the identical pool).
    pub(crate) fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.pool.len() as u64);
        for d in &self.pool {
            match d {
                ReportedDomain::Clear(name) => {
                    put_u8(out, 0);
                    let s = name.as_str().as_bytes();
                    put_u32(out, s.len() as u32);
                    out.extend_from_slice(s);
                }
                ReportedDomain::Obfuscated(token) => {
                    put_u8(out, 1);
                    put_u64(out, *token);
                }
            }
        }
    }

    /// Decode a pool previously written by [`DomainPool::encode`].
    pub(crate) fn decode(cur: &mut Cursor<'_>) -> Result<DomainPool, SpillError> {
        let n = cur.len_prefix(1)?;
        let mut pool = DomainPool::empty();
        for _ in 0..n {
            let domain = match cur.u8()? {
                0 => {
                    let len = cur.u32()? as usize;
                    let bytes = cur.take(len)?;
                    let s = std::str::from_utf8(bytes)
                        .map_err(|_| SpillError::Corrupt("domain name is not utf-8"))?;
                    let name = DomainName::new(s)
                        .map_err(|_| SpillError::Corrupt("invalid domain name"))?;
                    ReportedDomain::Clear(name)
                }
                1 => ReportedDomain::Obfuscated(cur.u64()?),
                _ => return Err(SpillError::Corrupt("unknown domain tag")),
            };
            pool.intern(&domain);
        }
        if pool.len() != n {
            return Err(SpillError::Corrupt("duplicate domain in pool"));
        }
        Ok(pool)
    }
}

/// Encode a dense [`AnonMac`] column.
fn encode_macs(out: &mut Vec<u8>, macs: &[AnonMac]) {
    put_u64(out, macs.len() as u64);
    for m in macs {
        put_u32(out, m.oui);
        put_u32(out, m.suffix_hash);
    }
}

/// Decode a dense [`AnonMac`] column.
fn decode_macs(cur: &mut Cursor<'_>) -> Result<Vec<AnonMac>, SpillError> {
    let n = cur.len_prefix(8)?;
    let mut macs = Vec::with_capacity(n);
    for _ in 0..n {
        let oui = cur.u32()?;
        let suffix_hash = cur.u32()?;
        macs.push(AnonMac { oui, suffix_hash });
    }
    Ok(macs)
}

impl Default for DomainPool {
    fn default() -> DomainPool {
        DomainPool::empty()
    }
}

impl PartialEq for DomainPool {
    fn eq(&self, other: &DomainPool) -> bool {
        self.pool == other.pool
    }
}

/// Columns of one router's [`PacketStatsRecord`] stream.
#[derive(Debug, Clone, PartialEq)]
struct PacketStatsCols {
    at: TimeCol,
    bytes_down: NarrowCol,
    bytes_up: NarrowCol,
    pkts_down: NarrowCol,
    pkts_up: NarrowCol,
    peak_down_1s: NarrowCol,
    peak_up_1s: NarrowCol,
}

impl PacketStatsCols {
    const fn empty() -> PacketStatsCols {
        PacketStatsCols {
            at: TimeCol::empty(),
            bytes_down: NarrowCol::empty(),
            bytes_up: NarrowCol::empty(),
            pkts_down: NarrowCol::empty(),
            pkts_up: NarrowCol::empty(),
            peak_down_1s: NarrowCol::empty(),
            peak_up_1s: NarrowCol::empty(),
        }
    }

    fn append(&mut self, r: &PacketStatsRecord) {
        self.at.append(r.at);
        self.bytes_down.append(r.bytes_down);
        self.bytes_up.append(r.bytes_up);
        self.pkts_down.append(r.pkts_down);
        self.pkts_up.append(r.pkts_up);
        self.peak_down_1s.append(r.peak_down_1s);
        self.peak_up_1s.append(r.peak_up_1s);
    }

    fn len(&self) -> usize {
        self.at.len()
    }

    fn iter(&self, router: RouterId) -> ResidentPacketStats<'_> {
        ResidentPacketStats {
            router,
            at: self.at.iter(),
            bytes_down: self.bytes_down.iter(),
            bytes_up: self.bytes_up.iter(),
            pkts_down: self.pkts_down.iter(),
            pkts_up: self.pkts_up.iter(),
            peak_down_1s: self.peak_down_1s.iter(),
            peak_up_1s: self.peak_up_1s.iter(),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.at.heap_bytes()
            + self.bytes_down.heap_bytes()
            + self.bytes_up.heap_bytes()
            + self.pkts_down.heap_bytes()
            + self.pkts_up.heap_bytes()
            + self.peak_down_1s.heap_bytes()
            + self.peak_up_1s.heap_bytes()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.at.encode(out);
        self.bytes_down.encode(out);
        self.bytes_up.encode(out);
        self.pkts_down.encode(out);
        self.pkts_up.encode(out);
        self.peak_down_1s.encode(out);
        self.peak_up_1s.encode(out);
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<PacketStatsCols, SpillError> {
        let cols = PacketStatsCols {
            at: TimeCol::decode(cur)?,
            bytes_down: NarrowCol::decode(cur)?,
            bytes_up: NarrowCol::decode(cur)?,
            pkts_down: NarrowCol::decode(cur)?,
            pkts_up: NarrowCol::decode(cur)?,
            peak_down_1s: NarrowCol::decode(cur)?,
            peak_up_1s: NarrowCol::decode(cur)?,
        };
        let n = cols.at.len();
        if [
            cols.bytes_down.len(),
            cols.bytes_up.len(),
            cols.pkts_down.len(),
            cols.pkts_up.len(),
            cols.peak_down_1s.len(),
            cols.peak_up_1s.len(),
        ]
        .iter()
        .any(|&l| l != n)
        {
            return Err(SpillError::Corrupt("packet-stats column length mismatch"));
        }
        Ok(cols)
    }
}

impl Default for PacketStatsCols {
    fn default() -> PacketStatsCols {
        PacketStatsCols::empty()
    }
}

/// One router's packet statistics, rebuilt record-by-record from columns.
#[derive(Debug, Clone)]
pub struct ResidentPacketStats<'a> {
    router: RouterId,
    at: TimeColIter<'a>,
    bytes_down: NarrowColIter<'a>,
    bytes_up: NarrowColIter<'a>,
    pkts_down: NarrowColIter<'a>,
    pkts_up: NarrowColIter<'a>,
    peak_down_1s: NarrowColIter<'a>,
    peak_up_1s: NarrowColIter<'a>,
}

impl Iterator for ResidentPacketStats<'_> {
    type Item = PacketStatsRecord;

    fn next(&mut self) -> Option<PacketStatsRecord> {
        Some(PacketStatsRecord {
            router: self.router,
            at: self.at.next()?,
            bytes_down: self.bytes_down.next()?,
            bytes_up: self.bytes_up.next()?,
            pkts_down: self.pkts_down.next()?,
            pkts_up: self.pkts_up.next()?,
            peak_down_1s: self.peak_down_1s.next()?,
            peak_up_1s: self.peak_up_1s.next()?,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.at.size_hint()
    }
}

impl ExactSizeIterator for ResidentPacketStats<'_> {}

/// Columns of one router's [`FlowRecord`] stream. `ended` is the
/// chronological axis (records are emitted at completion); `started`
/// stores as the flow duration relative to `ended`, which is small for
/// real flows and losslessly wrapping for arbitrary test input.
#[derive(Debug, Clone, PartialEq)]
struct FlowCols {
    ended: TimeCol,
    dur: NarrowCol,
    device: Vec<AnonMac>,
    remote_ip_hash: Vec<u64>,
    remote_port: Vec<u16>,
    proto: Vec<IpProtocol>,
    domain: Vec<u32>,
    domains: DomainPool,
    bytes_down: NarrowCol,
    bytes_up: NarrowCol,
}

impl FlowCols {
    const fn empty() -> FlowCols {
        FlowCols {
            ended: TimeCol::empty(),
            dur: NarrowCol::empty(),
            device: Vec::new(),
            remote_ip_hash: Vec::new(),
            remote_port: Vec::new(),
            proto: Vec::new(),
            domain: Vec::new(),
            domains: DomainPool::empty(),
            bytes_down: NarrowCol::empty(),
            bytes_up: NarrowCol::empty(),
        }
    }

    fn append(&mut self, r: &FlowRecord) {
        self.ended.append(r.ended);
        self.dur.append(r.ended.as_micros().wrapping_sub(r.started.as_micros()));
        self.device.push(r.device);
        self.remote_ip_hash.push(r.remote_ip_hash);
        self.remote_port.push(r.remote_port);
        self.proto.push(r.proto);
        let id = self.domains.intern(&r.domain);
        self.domain.push(id);
        self.bytes_down.append(r.bytes_down);
        self.bytes_up.append(r.bytes_up);
    }

    fn len(&self) -> usize {
        self.ended.len()
    }

    fn iter(&self, router: RouterId) -> ResidentFlows<'_> {
        ResidentFlows {
            router,
            ended: self.ended.iter(),
            dur: self.dur.iter(),
            device: self.device.iter(),
            remote_ip_hash: self.remote_ip_hash.iter(),
            remote_port: self.remote_port.iter(),
            proto: self.proto.iter(),
            domain: self.domain.iter(),
            domains: &self.domains,
            bytes_down: self.bytes_down.iter(),
            bytes_up: self.bytes_up.iter(),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.ended.heap_bytes()
            + self.dur.heap_bytes()
            + self.device.capacity() * std::mem::size_of::<AnonMac>()
            + self.remote_ip_hash.capacity() * 8
            + self.remote_port.capacity() * 2
            + self.proto.capacity()
            + self.domain.capacity() * 4
            + self.bytes_down.heap_bytes()
            + self.bytes_up.heap_bytes()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.ended.encode(out);
        self.dur.encode(out);
        encode_macs(out, &self.device);
        put_u64(out, self.remote_ip_hash.len() as u64);
        for &v in &self.remote_ip_hash {
            put_u64(out, v);
        }
        put_u64(out, self.remote_port.len() as u64);
        for &v in &self.remote_port {
            put_u16(out, v);
        }
        put_u64(out, self.proto.len() as u64);
        for &p in &self.proto {
            put_u8(out, u8::from(p));
        }
        put_u64(out, self.domain.len() as u64);
        for &v in &self.domain {
            put_u32(out, v);
        }
        self.domains.encode(out);
        self.bytes_down.encode(out);
        self.bytes_up.encode(out);
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<FlowCols, SpillError> {
        let ended = TimeCol::decode(cur)?;
        let dur = NarrowCol::decode(cur)?;
        let device = decode_macs(cur)?;
        let n_ip = cur.len_prefix(8)?;
        let mut remote_ip_hash = Vec::with_capacity(n_ip);
        for _ in 0..n_ip {
            remote_ip_hash.push(cur.u64()?);
        }
        let n_port = cur.len_prefix(2)?;
        let mut remote_port = Vec::with_capacity(n_port);
        for _ in 0..n_port {
            remote_port.push(cur.u16()?);
        }
        let n_proto = cur.len_prefix(1)?;
        let mut proto = Vec::with_capacity(n_proto);
        for _ in 0..n_proto {
            proto.push(IpProtocol::from(cur.u8()?));
        }
        let n_dom = cur.len_prefix(4)?;
        let mut domain = Vec::with_capacity(n_dom);
        for _ in 0..n_dom {
            domain.push(cur.u32()?);
        }
        let domains = DomainPool::decode(cur)?;
        let bytes_down = NarrowCol::decode(cur)?;
        let bytes_up = NarrowCol::decode(cur)?;
        let n = ended.len();
        if [
            dur.len(),
            device.len(),
            remote_ip_hash.len(),
            remote_port.len(),
            proto.len(),
            domain.len(),
            bytes_down.len(),
            bytes_up.len(),
        ]
        .iter()
        .any(|&l| l != n)
        {
            return Err(SpillError::Corrupt("flow column length mismatch"));
        }
        if domain.iter().any(|&id| id as usize >= domains.len()) {
            return Err(SpillError::Corrupt("flow domain id out of pool range"));
        }
        Ok(FlowCols {
            ended,
            dur,
            device,
            remote_ip_hash,
            remote_port,
            proto,
            domain,
            domains,
            bytes_down,
            bytes_up,
        })
    }
}

impl Default for FlowCols {
    fn default() -> FlowCols {
        FlowCols::empty()
    }
}

/// One router's flows, rebuilt record-by-record from columns.
#[derive(Debug, Clone)]
pub struct ResidentFlows<'a> {
    router: RouterId,
    ended: TimeColIter<'a>,
    dur: NarrowColIter<'a>,
    device: std::slice::Iter<'a, AnonMac>,
    remote_ip_hash: std::slice::Iter<'a, u64>,
    remote_port: std::slice::Iter<'a, u16>,
    proto: std::slice::Iter<'a, IpProtocol>,
    domain: std::slice::Iter<'a, u32>,
    domains: &'a DomainPool,
    bytes_down: NarrowColIter<'a>,
    bytes_up: NarrowColIter<'a>,
}

impl Iterator for ResidentFlows<'_> {
    type Item = FlowRecord;

    fn next(&mut self) -> Option<FlowRecord> {
        let ended = self.ended.next()?;
        let dur = self.dur.next()?;
        Some(FlowRecord {
            router: self.router,
            started: SimTime::from_micros(ended.as_micros().wrapping_sub(dur)),
            ended,
            device: self.device.next().copied()?,
            remote_ip_hash: self.remote_ip_hash.next().copied()?,
            remote_port: self.remote_port.next().copied()?,
            proto: self.proto.next().copied()?,
            domain: self.domains.get(*self.domain.next()?).clone(),
            bytes_down: self.bytes_down.next()?,
            bytes_up: self.bytes_up.next()?,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ended.size_hint()
    }
}

impl ExactSizeIterator for ResidentFlows<'_> {}

/// Columns of one router's [`DnsSampleRecord`] stream.
#[derive(Debug, Clone, PartialEq)]
struct DnsCols {
    at: TimeCol,
    device: Vec<AnonMac>,
    name: Vec<u32>,
    names: DomainPool,
    cname_links: Vec<u8>,
    resolved: Vec<bool>,
}

impl DnsCols {
    const fn empty() -> DnsCols {
        DnsCols {
            at: TimeCol::empty(),
            device: Vec::new(),
            name: Vec::new(),
            names: DomainPool::empty(),
            cname_links: Vec::new(),
            resolved: Vec::new(),
        }
    }

    fn append(&mut self, r: &DnsSampleRecord) {
        self.at.append(r.at);
        self.device.push(r.device);
        let id = self.names.intern(&r.name);
        self.name.push(id);
        self.cname_links.push(r.cname_links);
        self.resolved.push(r.resolved);
    }

    fn len(&self) -> usize {
        self.at.len()
    }

    fn iter(&self, router: RouterId) -> ResidentDns<'_> {
        ResidentDns {
            router,
            at: self.at.iter(),
            device: self.device.iter(),
            name: self.name.iter(),
            names: &self.names,
            cname_links: self.cname_links.iter(),
            resolved: self.resolved.iter(),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.at.heap_bytes()
            + self.device.capacity() * std::mem::size_of::<AnonMac>()
            + self.name.capacity() * 4
            + self.cname_links.capacity()
            + self.resolved.capacity()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.at.encode(out);
        encode_macs(out, &self.device);
        put_u64(out, self.name.len() as u64);
        for &v in &self.name {
            put_u32(out, v);
        }
        self.names.encode(out);
        put_u64(out, self.cname_links.len() as u64);
        for &v in &self.cname_links {
            put_u8(out, v);
        }
        put_u64(out, self.resolved.len() as u64);
        for &v in &self.resolved {
            put_u8(out, u8::from(v));
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<DnsCols, SpillError> {
        let at = TimeCol::decode(cur)?;
        let device = decode_macs(cur)?;
        let n_name = cur.len_prefix(4)?;
        let mut name = Vec::with_capacity(n_name);
        for _ in 0..n_name {
            name.push(cur.u32()?);
        }
        let names = DomainPool::decode(cur)?;
        let n_links = cur.len_prefix(1)?;
        let mut cname_links = Vec::with_capacity(n_links);
        for _ in 0..n_links {
            cname_links.push(cur.u8()?);
        }
        let n_res = cur.len_prefix(1)?;
        let mut resolved = Vec::with_capacity(n_res);
        for _ in 0..n_res {
            resolved.push(match cur.u8()? {
                0 => false,
                1 => true,
                _ => return Err(SpillError::Corrupt("dns resolved flag out of range")),
            });
        }
        let n = at.len();
        if [device.len(), name.len(), cname_links.len(), resolved.len()]
            .iter()
            .any(|&l| l != n)
        {
            return Err(SpillError::Corrupt("dns column length mismatch"));
        }
        if name.iter().any(|&id| id as usize >= names.len()) {
            return Err(SpillError::Corrupt("dns name id out of pool range"));
        }
        Ok(DnsCols { at, device, name, names, cname_links, resolved })
    }
}

impl Default for DnsCols {
    fn default() -> DnsCols {
        DnsCols::empty()
    }
}

/// One router's DNS samples, rebuilt record-by-record from columns.
#[derive(Debug, Clone)]
pub struct ResidentDns<'a> {
    router: RouterId,
    at: TimeColIter<'a>,
    device: std::slice::Iter<'a, AnonMac>,
    name: std::slice::Iter<'a, u32>,
    names: &'a DomainPool,
    cname_links: std::slice::Iter<'a, u8>,
    resolved: std::slice::Iter<'a, bool>,
}

impl Iterator for ResidentDns<'_> {
    type Item = DnsSampleRecord;

    fn next(&mut self) -> Option<DnsSampleRecord> {
        Some(DnsSampleRecord {
            router: self.router,
            at: self.at.next()?,
            device: self.device.next().copied()?,
            name: self.names.get(*self.name.next()?).clone(),
            cname_links: self.cname_links.next().copied()?,
            resolved: self.resolved.next().copied()?,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.at.size_hint()
    }
}

impl ExactSizeIterator for ResidentDns<'_> {}

/// Columns of one router's [`MacSightingRecord`] stream.
#[derive(Debug, Clone, PartialEq)]
struct MacCols {
    first_seen: TimeCol,
    device: Vec<AnonMac>,
    bytes_total: NarrowCol,
}

impl MacCols {
    const fn empty() -> MacCols {
        MacCols {
            first_seen: TimeCol::empty(),
            device: Vec::new(),
            bytes_total: NarrowCol::empty(),
        }
    }

    fn append(&mut self, r: &MacSightingRecord) {
        self.first_seen.append(r.first_seen);
        self.device.push(r.device);
        self.bytes_total.append(r.bytes_total);
    }

    fn len(&self) -> usize {
        self.first_seen.len()
    }

    fn iter(&self, router: RouterId) -> ResidentMacs<'_> {
        ResidentMacs {
            router,
            first_seen: self.first_seen.iter(),
            device: self.device.iter(),
            bytes_total: self.bytes_total.iter(),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.first_seen.heap_bytes()
            + self.device.capacity() * std::mem::size_of::<AnonMac>()
            + self.bytes_total.heap_bytes()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.first_seen.encode(out);
        encode_macs(out, &self.device);
        self.bytes_total.encode(out);
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<MacCols, SpillError> {
        let first_seen = TimeCol::decode(cur)?;
        let device = decode_macs(cur)?;
        let bytes_total = NarrowCol::decode(cur)?;
        if device.len() != first_seen.len() || bytes_total.len() != first_seen.len() {
            return Err(SpillError::Corrupt("mac column length mismatch"));
        }
        Ok(MacCols { first_seen, device, bytes_total })
    }
}

impl Default for MacCols {
    fn default() -> MacCols {
        MacCols::empty()
    }
}

/// One router's MAC sightings, rebuilt record-by-record from columns.
#[derive(Debug, Clone)]
pub struct ResidentMacs<'a> {
    router: RouterId,
    first_seen: TimeColIter<'a>,
    device: std::slice::Iter<'a, AnonMac>,
    bytes_total: NarrowColIter<'a>,
}

impl Iterator for ResidentMacs<'_> {
    type Item = MacSightingRecord;

    fn next(&mut self) -> Option<MacSightingRecord> {
        Some(MacSightingRecord {
            router: self.router,
            first_seen: self.first_seen.next()?,
            device: self.device.next().copied()?,
            bytes_total: self.bytes_total.next()?,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.first_seen.size_hint()
    }
}

impl ExactSizeIterator for ResidentMacs<'_> {}

/// A disk-backed portion of a table: per-router blocks of encoded column
/// groups in one sealed segment or merged file, owned (with the rest of
/// the spill directory) by a shared [`SegmentStore`].
#[derive(Debug, Clone)]
struct SpilledPart {
    store: Arc<SegmentStore>,
    file: String,
    blocks: BTreeMap<RouterId, BlockRef>,
}

impl SpilledPart {
    /// Read one block into `buf`. Opens the file per call so concurrent
    /// report threads can stream the same table independently.
    fn read(&self, at: &BlockRef, buf: &mut Vec<u8>) -> Result<(), SpillError> {
        let mut file = self.store.open(&self.file)?;
        read_block(&mut file, at, buf)
    }

    /// Total encoded bytes across all blocks.
    fn bytes(&self) -> u64 {
        self.blocks.values().map(|b| b.len).sum()
    }
}

/// Per-router accumulated tail records, carried across stream windows so
/// a table's `absorb` can tell the in-order fast path (the delta lands at
/// or after the accumulated tail, append directly) from a late window
/// that needs one router re-sorted. One state per table, parameterized by
/// that table's record type.
#[derive(Debug, Clone)]
pub struct AbsorbState<R> {
    last: BTreeMap<RouterId, R>,
}

impl<R> Default for AbsorbState<R> {
    fn default() -> AbsorbState<R> {
        AbsorbState { last: BTreeMap::new() }
    }
}

/// The row type behind each columnar table, so the collector's generated
/// table-set code can name a table's [`AbsorbState`].
pub(crate) trait Columnar {
    /// The record type the table stores.
    type Record;
}

/// Generates one public columnar table: per-router column groups keyed by
/// a `BTreeMap`, disk-backed [`SpilledPart`]s, a flat record iterator in
/// (router, arrival) order, segment sealing, and shard merges (in-memory
/// and spilled) that reproduce the legacy row-table merge byte for byte.
/// `tag` names the table's merged spill file.
macro_rules! columnar_table {
    (
        $(#[$tdoc:meta])*
        table $Table:ident;
        $(#[$idoc:meta])*
        iter $TableIter:ident;
        cols $Cols:ident;
        record $Record:ty;
        router_iter $RouterIter:ident;
        resident_iter $ResidentIter:ident;
        empty $EMPTY:ident;
        tag $tag:literal;
        key |$r:ident| $key:expr;
    ) => {
        static $EMPTY: $Cols = $Cols::empty();

        $(#[$tdoc])*
        #[derive(Debug, Clone, Default)]
        pub struct $Table {
            by_router: BTreeMap<RouterId, $Cols>,
            /// Records across all routers, resident and spilled.
            len: usize,
            /// Disk-backed parts, oldest first: a shard's sealed segment
            /// slices, or the one merged file of a spilled merge. A
            /// router's rows are its blocks in part order followed by its
            /// resident columns — its exact arrival order.
            spilled: Vec<SpilledPart>,
        }

        impl Columnar for $Table {
            type Record = $Record;
        }

        impl $Table {
            /// Append one record to its router's column group.
            pub fn push(&mut self, record: $Record) {
                self.by_router.entry(record.router).or_default().append(&record);
                self.len += 1;
            }

            /// Total records across all routers.
            pub fn len(&self) -> usize {
                self.len
            }

            /// True when no record has been pushed.
            pub fn is_empty(&self) -> bool {
                self.len == 0
            }

            /// Iterate every record by value in (router, per-router
            /// arrival) order — after a snapshot merge, the same global
            /// (router, time)-sorted order the legacy row vector had.
            /// Spilled routers stream from disk one router at a time.
            pub fn iter(&self) -> $TableIter<'_> {
                $TableIter {
                    table: self,
                    routers: self.routers().into_iter().collect::<Vec<_>>().into_iter(),
                    current: None,
                }
            }

            /// Every router with rows, resident or spilled.
            fn routers(&self) -> BTreeSet<RouterId> {
                let mut routers: BTreeSet<RouterId> = self.by_router.keys().copied().collect();
                for part in &self.spilled {
                    routers.extend(part.blocks.keys().copied());
                }
                routers
            }

            /// Iterate one router's records (empty if it never reported):
            /// the spilled head, decoded from the segment files, followed
            /// by the resident tail.
            pub fn router(&self, router: RouterId) -> $RouterIter<'_> {
                $RouterIter {
                    head: self.spilled_rows(router).into_iter(),
                    tail: self.by_router.get(&router).unwrap_or(&$EMPTY).iter(router),
                }
            }

            /// Decode one router's spilled rows (empty when nothing
            /// spilled for it). Segment files are process-private and
            /// written by this same build, so a read or decode failure
            /// here is a bug, not an input condition — panic with the
            /// file name rather than thread `Result` through every
            /// analysis iterator.
            fn spilled_rows(&self, router: RouterId) -> Vec<$Record> {
                let mut rows = Vec::new();
                let mut buf = Vec::new();
                for part in &self.spilled {
                    let Some(block) = part.blocks.get(&router) else { continue };
                    if let Err(e) = part.read(block, &mut buf) {
                        panic!("spilled column read failed ({}): {e}", part.file);
                    }
                    match <$Cols>::decode(&mut Cursor::new(&buf)) {
                        Ok(cols) => rows.extend(cols.iter(router)),
                        Err(e) => panic!("spilled column decode failed ({}): {e}", part.file),
                    }
                }
                rows
            }

            /// Records held for one router (resident + spilled).
            pub fn router_len(&self, router: RouterId) -> usize {
                let resident = self.by_router.get(&router).map_or(0, $Cols::len);
                let spilled: u64 =
                    self.spilled.iter().filter_map(|p| p.blocks.get(&router)).map(|b| b.rows).sum();
                resident + spilled as usize
            }

            /// True when some rows live in resident columns, not only on
            /// disk.
            pub(crate) fn has_resident(&self) -> bool {
                !self.by_router.is_empty()
            }

            /// Heap bytes held by the resident columns (diagnostic; the
            /// spilled part stays on disk — see [`Self::spilled_bytes`]).
            pub fn heap_bytes(&self) -> usize {
                self.by_router.values().map($Cols::heap_bytes).sum()
            }

            /// Encoded bytes of this table living in spilled blocks.
            pub fn spilled_bytes(&self) -> u64 {
                self.spilled.iter().map(SpilledPart::bytes).sum()
            }

            /// Merge per-shard tables into one globally sorted table.
            ///
            /// Routers are partitioned across shards, so each router's
            /// column group normally arrives from exactly one chunk: the
            /// merge moves groups into the output map (router order) and
            /// then stable-sorts any router whose arrival order violates
            /// the table's time subkey — exactly the order the legacy
            /// row merge produced, whether it took its concatenation
            /// fast path (all runs sorted and disjoint) or its global
            /// stable-sort fallback. A router appearing in several
            /// chunks (hand-built tables only) concatenates in chunk
            /// order before the same normalize pass. Chunks must be fully
            /// resident: the collector merges spilled shards on disk.
            pub fn merge(chunks: Vec<$Table>) -> $Table {
                let mut out = $Table::default();
                for chunk in chunks {
                    debug_assert!(chunk.spilled.is_empty(), "in-memory merge of a spilled chunk");
                    out.len += chunk.len;
                    for (router, cols) in chunk.by_router {
                        match out.by_router.entry(router) {
                            Entry::Vacant(slot) => {
                                slot.insert(cols);
                            }
                            Entry::Occupied(mut slot) => {
                                let mut rows: Vec<$Record> =
                                    slot.get().iter(router).collect();
                                rows.extend(cols.iter(router));
                                let mut rebuilt = $Cols::empty();
                                for row in &rows {
                                    rebuilt.append(row);
                                }
                                *slot.get_mut() = rebuilt;
                            }
                        }
                    }
                }
                for (router, cols) in out.by_router.iter_mut() {
                    Self::normalize(*router, cols);
                }
                out
            }

            /// Rebuild one router's columns in time-subkey order when
            /// the concatenated arrival order violates it — the shared
            /// normalize pass of [`Self::merge`] and
            /// [`Self::merge_spilled`]. Ties keep arrival order.
            fn normalize(router: RouterId, cols: &mut $Cols) {
                let mut prev = None;
                let mut sorted = true;
                for record in cols.iter(router) {
                    let $r = &record;
                    let k = $key;
                    if prev.as_ref() > Some(&k) {
                        sorted = false;
                        break;
                    }
                    prev = Some(k);
                }
                if !sorted {
                    let mut rows: Vec<$Record> = cols.iter(router).collect();
                    Self::sort_rows(&mut rows);
                    let mut rebuilt = $Cols::empty();
                    for row in &rows {
                        rebuilt.append(row);
                    }
                    *cols = rebuilt;
                }
            }

            /// Stable-sort rows by the table's time subkey.
            fn sort_rows(rows: &mut Vec<$Record>) {
                rows.sort_by(|a, b| {
                    let ka = {
                        let $r = a;
                        $key
                    };
                    let kb = {
                        let $r = b;
                        $key
                    };
                    ka.cmp(&kb)
                });
            }

            /// Encode every non-empty router column group into `out`
            /// (which already starts with the segment magic, so offsets
            /// are file-absolute) and return the per-router block table.
            pub(crate) fn encode_segment(
                &self,
                out: &mut Vec<u8>,
            ) -> BTreeMap<RouterId, BlockRef> {
                let mut blocks = BTreeMap::new();
                for (&router, cols) in &self.by_router {
                    if cols.len() == 0 {
                        continue;
                    }
                    let offset = out.len() as u64;
                    cols.encode(out);
                    blocks.insert(
                        router,
                        BlockRef {
                            offset,
                            len: out.len() as u64 - offset,
                            rows: cols.len() as u64,
                        },
                    );
                }
                blocks
            }

            /// Hand the resident rows over to the segment `file`, once
            /// the bytes [`Self::encode_segment`] returned `blocks` for
            /// are on disk: the rows read back from there from now on and
            /// the resident columns start empty.
            pub(crate) fn seal(
                &mut self,
                store: &Arc<SegmentStore>,
                file: &str,
                blocks: BTreeMap<RouterId, BlockRef>,
            ) {
                self.by_router = BTreeMap::new();
                if !blocks.is_empty() {
                    self.spilled.push(SpilledPart {
                        store: Arc::clone(store),
                        file: file.to_string(),
                        blocks,
                    });
                }
            }

            /// Merge one table's per-shard slices the way a collector
            /// snapshot does: in memory when no shard spilled any of this
            /// table's rows, otherwise through [`Self::merge_spilled`]
            /// into the merged file `merged-{merge_id}-<tag>.col` of the
            /// shards' segment store.
            pub(crate) fn merge_shards(
                chunks: Vec<$Table>,
                merge_id: u64,
            ) -> Result<$Table, SpillError> {
                let store =
                    chunks.iter().find_map(|c| c.spilled.first()).map(|p| Arc::clone(&p.store));
                match store {
                    None => Ok(Self::merge(chunks)),
                    Some(store) => Self::merge_spilled(
                        chunks,
                        &store,
                        &format!("merged-{merge_id}-{}.col", $tag),
                    ),
                }
            }

            /// Merge per-shard tables — each shard's spilled parts (in
            /// seal order) plus its resident columns — into one globally
            /// sorted table whose spilled routers live in a fresh merged
            /// file written through `store`.
            ///
            /// Routers are disjoint across shards (`router % NUM_SHARDS`
            /// addressing), so each router merges independently: spilled
            /// pieces concatenate in seal order, the resident tail
            /// follows, and the same normalize pass as the in-memory
            /// [`Self::merge`] restores the time subkey — which is why a
            /// spilled run's record stream is identical to the unbounded
            /// one. Routers that never spilled keep their columns
            /// resident; the rest re-encode to disk, so peak memory
            /// stays one router's rows above the resident set.
            pub(crate) fn merge_spilled(
                inputs: Vec<$Table>,
                store: &Arc<SegmentStore>,
                out_name: &str,
            ) -> Result<$Table, SpillError> {
                let mut out = $Table::default();
                let mut writer = store.writer(out_name)?;
                let mut out_blocks: BTreeMap<RouterId, BlockRef> = BTreeMap::new();
                let mut buf = Vec::new();
                let mut enc: Vec<u8> = Vec::new();
                for chunk in inputs {
                    let routers = chunk.routers();
                    let parts = chunk.spilled;
                    let mut resident_map = chunk.by_router;
                    let mut files = Vec::with_capacity(parts.len());
                    for part in &parts {
                        files.push(store.open(&part.file)?);
                    }
                    for router in routers {
                        if !parts.iter().any(|p| p.blocks.contains_key(&router)) {
                            // Never spilled: keep the columns resident,
                            // normalized exactly as the in-memory merge
                            // would have.
                            let Some(mut cols) = resident_map.remove(&router) else {
                                continue;
                            };
                            out.len += cols.len();
                            Self::normalize(router, &mut cols);
                            out.by_router.insert(router, cols);
                            continue;
                        }
                        let mut rows: Vec<$Record> = Vec::new();
                        for (part, file) in parts.iter().zip(files.iter_mut()) {
                            let Some(block) = part.blocks.get(&router) else {
                                continue;
                            };
                            read_block(file, block, &mut buf)?;
                            let mut cur = Cursor::new(&buf);
                            let cols = <$Cols>::decode(&mut cur)?;
                            rows.extend(cols.iter(router));
                        }
                        if let Some(cols) = resident_map.remove(&router) {
                            rows.extend(cols.iter(router));
                        }
                        let sorted = rows.windows(2).all(|w| {
                            let ka = {
                                let $r = &w[0];
                                $key
                            };
                            let kb = {
                                let $r = &w[1];
                                $key
                            };
                            ka <= kb
                        });
                        if !sorted {
                            Self::sort_rows(&mut rows);
                        }
                        let mut rebuilt = $Cols::empty();
                        for row in &rows {
                            rebuilt.append(row);
                        }
                        out.len += rows.len();
                        enc.clear();
                        rebuilt.encode(&mut enc);
                        let offset = writer.append(&enc)?;
                        out_blocks.insert(
                            router,
                            BlockRef {
                                offset,
                                len: enc.len() as u64,
                                rows: rows.len() as u64,
                            },
                        );
                    }
                }
                writer.finish()?;
                if !out_blocks.is_empty() {
                    out.spilled.push(SpilledPart {
                        store: Arc::clone(store),
                        file: out_name.to_string(),
                        blocks: out_blocks,
                    });
                }
                Ok(out)
            }

            /// Fold a stream-window delta into this accumulated table.
            ///
            /// The delta holds everything the collector sealed behind
            /// the per-router watermark since the previous drain, so
            /// concatenating the deltas per router reproduces the batch
            /// arrival sequence exactly. Per router the delta is already
            /// in time-subkey order (its merge normalized it); when its
            /// first record lands at or after the accumulated tail — the
            /// steady state — the rows append straight into the resident
            /// columns. A router whose timestamps step backwards across
            /// a drain boundary (clock skew) instead rebuilds with the
            /// same stable sort the batch merge uses, so the final
            /// record stream matches a single batch merge of all
            /// arrivals byte for byte.
            ///
            /// `state` carries each router's accumulated tail record
            /// across windows. The accumulator must be fully resident;
            /// the delta may be spill-backed (its rows stream in through
            /// [`Self::router`]).
            pub fn absorb(&mut self, delta: &$Table, state: &mut AbsorbState<$Record>) {
                debug_assert!(self.spilled.is_empty(), "absorb target must be resident");
                for router in delta.routers() {
                    let mut rows = delta.router(router);
                    let Some(first) = rows.next() else { continue };
                    let in_order = match state.last.get(&router) {
                        None => true,
                        Some(prev) => {
                            let ka = {
                                let $r = prev;
                                $key
                            };
                            let kb = {
                                let $r = &first;
                                $key
                            };
                            ka <= kb
                        }
                    };
                    if in_order {
                        let mut tail = first;
                        for next in rows {
                            self.push(tail);
                            tail = next;
                        }
                        state.last.insert(router, tail.clone());
                        self.push(tail);
                    } else {
                        let mut all: Vec<$Record> = self
                            .by_router
                            .get(&router)
                            .map(|c| c.iter(router).collect())
                            .unwrap_or_default();
                        let held = all.len();
                        all.push(first);
                        all.extend(rows);
                        self.len += all.len() - held;
                        Self::sort_rows(&mut all);
                        let mut rebuilt = $Cols::empty();
                        for row in &all {
                            rebuilt.append(row);
                        }
                        let last = all.last().expect("router delta is non-empty");
                        state.last.insert(router, last.clone());
                        self.by_router.insert(router, rebuilt);
                    }
                }
            }

            /// Delete this merged table's spilled file from its store —
            /// stream-mode cleanup once a spill-backed delta's rows have
            /// been absorbed into the resident accumulator. (A shard's
            /// sealed segments are shared by all nine tables and stay
            /// until the store drops.)
            pub fn release_spilled(&mut self) {
                for part in self.spilled.drain(..) {
                    part.store.remove_file(&part.file);
                }
            }
        }

        /// Record-sequence equality. Two fully resident tables compare
        /// their encoded columns directly (a pure function of the pushed
        /// sequence); when either side has a spilled part, the record
        /// streams are compared element by element instead.
        impl PartialEq for $Table {
            fn eq(&self, other: &$Table) -> bool {
                if self.len != other.len {
                    return false;
                }
                if self.spilled.is_empty() && other.spilled.is_empty() {
                    return self.by_router == other.by_router;
                }
                self.iter().eq(other.iter())
            }
        }

        impl<'a> IntoIterator for &'a $Table {
            type Item = $Record;
            type IntoIter = $TableIter<'a>;

            fn into_iter(self) -> $TableIter<'a> {
                self.iter()
            }
        }

        $(#[$idoc])*
        #[derive(Debug, Clone)]
        pub struct $TableIter<'a> {
            table: &'a $Table,
            routers: std::vec::IntoIter<RouterId>,
            current: Option<$RouterIter<'a>>,
        }

        impl<'a> Iterator for $TableIter<'a> {
            type Item = $Record;

            fn next(&mut self) -> Option<$Record> {
                loop {
                    if let Some(current) = &mut self.current {
                        if let Some(record) = current.next() {
                            return Some(record);
                        }
                    }
                    let router = self.routers.next()?;
                    self.current = Some(self.table.router(router));
                }
            }
        }

        #[doc = concat!(
            "One router's records from a [`", stringify!($Table), "`]: the ",
            "spilled head (already decoded from disk) then the resident tail."
        )]
        #[derive(Debug, Clone)]
        pub struct $RouterIter<'a> {
            head: std::vec::IntoIter<$Record>,
            tail: $ResidentIter<'a>,
        }

        impl<'a> Iterator for $RouterIter<'a> {
            type Item = $Record;

            fn next(&mut self) -> Option<$Record> {
                self.head.next().or_else(|| self.tail.next())
            }

            fn size_hint(&self) -> (usize, Option<usize>) {
                let n = self.head.len() + self.tail.len();
                (n, Some(n))
            }
        }

        impl ExactSizeIterator for $RouterIter<'_> {}
    };
}

columnar_table! {
    /// The packet-statistics table (Traffic data set) in columnar form:
    /// per-minute windows, ~28 bytes/record instead of the 64-byte row.
    table PacketStatsTable;
    /// Flat record iterator over a [`PacketStatsTable`].
    iter PacketStatsIter;
    cols PacketStatsCols;
    record PacketStatsRecord;
    router_iter RouterPacketStats;
    resident_iter ResidentPacketStats;
    empty EMPTY_PACKET_STATS;
    tag "packet-stats";
    key |r| r.at;
}

columnar_table! {
    /// The flow table (Traffic data set) in columnar form: interned
    /// domains and delta-coded times, ~40 bytes/record instead of the
    /// 88-byte row.
    table FlowTable;
    /// Flat record iterator over a [`FlowTable`].
    iter FlowsIter;
    cols FlowCols;
    record FlowRecord;
    router_iter RouterFlows;
    resident_iter ResidentFlows;
    empty EMPTY_FLOWS;
    tag "flows";
    key |r| (r.ended, r.started, r.device);
}

columnar_table! {
    /// The DNS-sample table (Traffic data set) in columnar form:
    /// interned names, ~18 bytes/record instead of the 56-byte row.
    table DnsTable;
    /// Flat record iterator over a [`DnsTable`].
    iter DnsIter;
    cols DnsCols;
    record DnsSampleRecord;
    router_iter RouterDns;
    resident_iter ResidentDns;
    empty EMPTY_DNS;
    tag "dns";
    key |r| (r.at, r.device);
}

columnar_table! {
    /// The MAC-sighting table (Traffic data set) in columnar form:
    /// ~16 bytes/record instead of the 32-byte row.
    table MacTable;
    /// Flat record iterator over a [`MacTable`].
    iter MacsIter;
    cols MacCols;
    record MacSightingRecord;
    router_iter RouterMacs;
    resident_iter ResidentMacs;
    empty EMPTY_MACS;
    tag "macs";
    key |r| (r.first_seen, r.device);
}

/// Columns of one router's [`WifiScanRecord`] stream. The variable-length
/// `aps` list flattens into parallel per-sighting columns addressed by a
/// per-scan count, so a scan costs ~6 bytes plus 10 per neighbor instead
/// of a 56-byte row plus a heap `Vec`.
#[derive(Debug, Clone, PartialEq)]
struct WifiCols {
    at: TimeCol,
    band: Vec<Band>,
    associated_stations: Vec<u8>,
    /// APs sighted per scan; indexes the three flattened AP columns.
    ap_counts: Vec<u32>,
    ap_bssid_hash: Vec<u64>,
    ap_channel: Vec<u8>,
    ap_signal: Vec<i8>,
}

impl WifiCols {
    const fn empty() -> WifiCols {
        WifiCols {
            at: TimeCol::empty(),
            band: Vec::new(),
            associated_stations: Vec::new(),
            ap_counts: Vec::new(),
            ap_bssid_hash: Vec::new(),
            ap_channel: Vec::new(),
            ap_signal: Vec::new(),
        }
    }

    fn append(&mut self, r: &WifiScanRecord) {
        self.at.append(r.at);
        self.band.push(r.band);
        self.associated_stations.push(r.associated_stations);
        self.ap_counts.push(r.aps.len() as u32);
        for ap in &r.aps {
            self.ap_bssid_hash.push(ap.bssid_hash);
            self.ap_channel.push(ap.channel_number);
            self.ap_signal.push(ap.signal_dbm);
        }
    }

    fn len(&self) -> usize {
        self.at.len()
    }

    fn iter(&self, router: RouterId) -> ResidentWifi<'_> {
        ResidentWifi {
            router,
            at: self.at.iter(),
            band: self.band.iter(),
            associated_stations: self.associated_stations.iter(),
            ap_counts: self.ap_counts.iter(),
            ap_bssid_hash: &self.ap_bssid_hash,
            ap_channel: &self.ap_channel,
            ap_signal: &self.ap_signal,
            ap_at: 0,
        }
    }

    fn heap_bytes(&self) -> usize {
        self.at.heap_bytes()
            + self.band.capacity()
            + self.associated_stations.capacity()
            + self.ap_counts.capacity() * 4
            + self.ap_bssid_hash.capacity() * 8
            + self.ap_channel.capacity()
            + self.ap_signal.capacity()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.at.encode(out);
        put_u64(out, self.band.len() as u64);
        for &b in &self.band {
            put_u8(out, match b {
                Band::Ghz24 => 0,
                Band::Ghz5 => 1,
            });
        }
        put_u64(out, self.associated_stations.len() as u64);
        for &v in &self.associated_stations {
            put_u8(out, v);
        }
        put_u64(out, self.ap_counts.len() as u64);
        for &v in &self.ap_counts {
            put_u32(out, v);
        }
        put_u64(out, self.ap_bssid_hash.len() as u64);
        for &v in &self.ap_bssid_hash {
            put_u64(out, v);
        }
        for &v in &self.ap_channel {
            put_u8(out, v);
        }
        for &v in &self.ap_signal {
            put_u8(out, v as u8);
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<WifiCols, SpillError> {
        let at = TimeCol::decode(cur)?;
        let n_band = cur.len_prefix(1)?;
        let mut band = Vec::with_capacity(n_band);
        for _ in 0..n_band {
            band.push(match cur.u8()? {
                0 => Band::Ghz24,
                1 => Band::Ghz5,
                _ => return Err(SpillError::Corrupt("wifi band tag out of range")),
            });
        }
        let n_sta = cur.len_prefix(1)?;
        let mut associated_stations = Vec::with_capacity(n_sta);
        for _ in 0..n_sta {
            associated_stations.push(cur.u8()?);
        }
        let n_counts = cur.len_prefix(4)?;
        let mut ap_counts = Vec::with_capacity(n_counts);
        for _ in 0..n_counts {
            ap_counts.push(cur.u32()?);
        }
        let n_aps = cur.len_prefix(8)?;
        let mut ap_bssid_hash = Vec::with_capacity(n_aps);
        for _ in 0..n_aps {
            ap_bssid_hash.push(cur.u64()?);
        }
        let mut ap_channel = Vec::with_capacity(n_aps);
        for _ in 0..n_aps {
            ap_channel.push(cur.u8()?);
        }
        let mut ap_signal = Vec::with_capacity(n_aps);
        for _ in 0..n_aps {
            ap_signal.push(cur.u8()? as i8);
        }
        let n = at.len();
        if band.len() != n || associated_stations.len() != n || ap_counts.len() != n {
            return Err(SpillError::Corrupt("wifi column length mismatch"));
        }
        let total: u64 = ap_counts.iter().map(|&c| u64::from(c)).sum();
        if total != n_aps as u64 {
            return Err(SpillError::Corrupt("wifi AP counts do not sum to AP columns"));
        }
        Ok(WifiCols {
            at,
            band,
            associated_stations,
            ap_counts,
            ap_bssid_hash,
            ap_channel,
            ap_signal,
        })
    }
}

impl Default for WifiCols {
    fn default() -> WifiCols {
        WifiCols::empty()
    }
}

/// One router's WiFi scans, rebuilt record-by-record from columns.
#[derive(Debug, Clone)]
pub struct ResidentWifi<'a> {
    router: RouterId,
    at: TimeColIter<'a>,
    band: std::slice::Iter<'a, Band>,
    associated_stations: std::slice::Iter<'a, u8>,
    ap_counts: std::slice::Iter<'a, u32>,
    ap_bssid_hash: &'a [u64],
    ap_channel: &'a [u8],
    ap_signal: &'a [i8],
    /// Cursor into the flattened AP columns.
    ap_at: usize,
}

impl Iterator for ResidentWifi<'_> {
    type Item = WifiScanRecord;

    fn next(&mut self) -> Option<WifiScanRecord> {
        let at = self.at.next()?;
        let band = *self.band.next()?;
        let associated_stations = *self.associated_stations.next()?;
        let count = *self.ap_counts.next()? as usize;
        let (start, end) = (self.ap_at, self.ap_at + count);
        self.ap_at = end;
        let aps = (start..end)
            .map(|i| ApSighting {
                bssid_hash: self.ap_bssid_hash[i],
                channel_number: self.ap_channel[i],
                signal_dbm: self.ap_signal[i],
            })
            .collect();
        Some(WifiScanRecord { router: self.router, at, band, aps, associated_stations })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.at.size_hint()
    }
}

impl ExactSizeIterator for ResidentWifi<'_> {}

/// Columns of one router's [`AssociationRecord`] stream.
#[derive(Debug, Clone, PartialEq)]
struct AssociationCols {
    at: TimeCol,
    device: Vec<AnonMac>,
    medium: Vec<Medium>,
}

impl AssociationCols {
    const fn empty() -> AssociationCols {
        AssociationCols { at: TimeCol::empty(), device: Vec::new(), medium: Vec::new() }
    }

    fn append(&mut self, r: &AssociationRecord) {
        self.at.append(r.at);
        self.device.push(r.device);
        self.medium.push(r.medium);
    }

    fn len(&self) -> usize {
        self.at.len()
    }

    fn iter(&self, router: RouterId) -> ResidentAssociations<'_> {
        ResidentAssociations {
            router,
            at: self.at.iter(),
            device: self.device.iter(),
            medium: self.medium.iter(),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.at.heap_bytes()
            + self.device.capacity() * std::mem::size_of::<AnonMac>()
            + self.medium.capacity()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.at.encode(out);
        encode_macs(out, &self.device);
        put_u64(out, self.medium.len() as u64);
        for &m in &self.medium {
            put_u8(out, match m {
                Medium::Wired => 0,
                Medium::Wireless24 => 1,
                Medium::Wireless5 => 2,
            });
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<AssociationCols, SpillError> {
        let at = TimeCol::decode(cur)?;
        let device = decode_macs(cur)?;
        let n_med = cur.len_prefix(1)?;
        let mut medium = Vec::with_capacity(n_med);
        for _ in 0..n_med {
            medium.push(match cur.u8()? {
                0 => Medium::Wired,
                1 => Medium::Wireless24,
                2 => Medium::Wireless5,
                _ => return Err(SpillError::Corrupt("association medium tag out of range")),
            });
        }
        if device.len() != at.len() || medium.len() != at.len() {
            return Err(SpillError::Corrupt("association column length mismatch"));
        }
        Ok(AssociationCols { at, device, medium })
    }
}

impl Default for AssociationCols {
    fn default() -> AssociationCols {
        AssociationCols::empty()
    }
}

/// One router's association reports, rebuilt record-by-record from columns.
#[derive(Debug, Clone)]
pub struct ResidentAssociations<'a> {
    router: RouterId,
    at: TimeColIter<'a>,
    device: std::slice::Iter<'a, AnonMac>,
    medium: std::slice::Iter<'a, Medium>,
}

impl Iterator for ResidentAssociations<'_> {
    type Item = AssociationRecord;

    fn next(&mut self) -> Option<AssociationRecord> {
        Some(AssociationRecord {
            router: self.router,
            at: self.at.next()?,
            device: self.device.next().copied()?,
            medium: self.medium.next().copied()?,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.at.size_hint()
    }
}

impl ExactSizeIterator for ResidentAssociations<'_> {}

/// Columns of one router's [`LatencyRecord`] stream. RTTs are stored as
/// narrow microsecond columns (a home's RTT is tens of milliseconds, far
/// under the `u32` escape threshold).
#[derive(Debug, Clone, PartialEq)]
struct LatencyCols {
    at: TimeCol,
    rtt_min: NarrowCol,
    rtt_median: NarrowCol,
    rtt_max: NarrowCol,
    lost: Vec<u8>,
}

impl LatencyCols {
    const fn empty() -> LatencyCols {
        LatencyCols {
            at: TimeCol::empty(),
            rtt_min: NarrowCol::empty(),
            rtt_median: NarrowCol::empty(),
            rtt_max: NarrowCol::empty(),
            lost: Vec::new(),
        }
    }

    fn append(&mut self, r: &LatencyRecord) {
        self.at.append(r.at);
        self.rtt_min.append(r.rtt_min.as_micros());
        self.rtt_median.append(r.rtt_median.as_micros());
        self.rtt_max.append(r.rtt_max.as_micros());
        self.lost.push(r.lost);
    }

    fn len(&self) -> usize {
        self.at.len()
    }

    fn iter(&self, router: RouterId) -> ResidentLatency<'_> {
        ResidentLatency {
            router,
            at: self.at.iter(),
            rtt_min: self.rtt_min.iter(),
            rtt_median: self.rtt_median.iter(),
            rtt_max: self.rtt_max.iter(),
            lost: self.lost.iter(),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.at.heap_bytes()
            + self.rtt_min.heap_bytes()
            + self.rtt_median.heap_bytes()
            + self.rtt_max.heap_bytes()
            + self.lost.capacity()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.at.encode(out);
        self.rtt_min.encode(out);
        self.rtt_median.encode(out);
        self.rtt_max.encode(out);
        put_u64(out, self.lost.len() as u64);
        for &v in &self.lost {
            put_u8(out, v);
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<LatencyCols, SpillError> {
        let at = TimeCol::decode(cur)?;
        let rtt_min = NarrowCol::decode(cur)?;
        let rtt_median = NarrowCol::decode(cur)?;
        let rtt_max = NarrowCol::decode(cur)?;
        let n_lost = cur.len_prefix(1)?;
        let mut lost = Vec::with_capacity(n_lost);
        for _ in 0..n_lost {
            lost.push(cur.u8()?);
        }
        let n = at.len();
        if [rtt_min.len(), rtt_median.len(), rtt_max.len(), lost.len()].iter().any(|&l| l != n) {
            return Err(SpillError::Corrupt("latency column length mismatch"));
        }
        Ok(LatencyCols { at, rtt_min, rtt_median, rtt_max, lost })
    }
}

impl Default for LatencyCols {
    fn default() -> LatencyCols {
        LatencyCols::empty()
    }
}

/// One router's latency probes, rebuilt record-by-record from columns.
#[derive(Debug, Clone)]
pub struct ResidentLatency<'a> {
    router: RouterId,
    at: TimeColIter<'a>,
    rtt_min: NarrowColIter<'a>,
    rtt_median: NarrowColIter<'a>,
    rtt_max: NarrowColIter<'a>,
    lost: std::slice::Iter<'a, u8>,
}

impl Iterator for ResidentLatency<'_> {
    type Item = LatencyRecord;

    fn next(&mut self) -> Option<LatencyRecord> {
        Some(LatencyRecord {
            router: self.router,
            at: self.at.next()?,
            rtt_min: SimDuration::from_micros(self.rtt_min.next()?),
            rtt_median: SimDuration::from_micros(self.rtt_median.next()?),
            rtt_max: SimDuration::from_micros(self.rtt_max.next()?),
            lost: *self.lost.next()?,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.at.size_hint()
    }
}

impl ExactSizeIterator for ResidentLatency<'_> {}

columnar_table! {
    /// The WiFi-scan table in columnar form: flattened AP sightings,
    /// ~6 bytes/scan plus 10 per neighbor instead of a 56-byte row plus
    /// a heap `Vec` per scan.
    table WifiTable;
    /// Flat record iterator over a [`WifiTable`].
    iter WifiIter;
    cols WifiCols;
    record WifiScanRecord;
    router_iter RouterWifi;
    resident_iter ResidentWifi;
    empty EMPTY_WIFI;
    tag "wifi";
    key |r| (r.at, r.band);
}

columnar_table! {
    /// The association table in columnar form: ~11 bytes/record instead
    /// of the 24-byte row.
    table AssociationTable;
    /// Flat record iterator over an [`AssociationTable`].
    iter AssociationsIter;
    cols AssociationCols;
    record AssociationRecord;
    router_iter RouterAssociations;
    resident_iter ResidentAssociations;
    empty EMPTY_ASSOCIATIONS;
    tag "associations";
    key |r| (r.at, r.device, r.medium);
}

columnar_table! {
    /// The latency-probe table in columnar form: ~15 bytes/record
    /// instead of the 48-byte row.
    table LatencyTable;
    /// Flat record iterator over a [`LatencyTable`].
    iter LatencyIter;
    cols LatencyCols;
    record LatencyRecord;
    router_iter RouterLatency;
    resident_iter ResidentLatency;
    empty EMPTY_LATENCY;
    tag "latency";
    key |r| r.at;
}

/// Columns of one router's [`NatProbeRecord`] stream. NAT types are
/// 1-byte wire codes; mapped-address hashes are dense `u64`s (they never
/// fit a narrow lane anyway).
#[derive(Debug, Clone, PartialEq)]
struct NatProbeCols {
    at: TimeCol,
    nat_type: Vec<u8>,
    mapped_ip_hash: Vec<u64>,
    mapped_port: Vec<u16>,
    cgn_detected: Vec<u8>,
}

impl NatProbeCols {
    const fn empty() -> NatProbeCols {
        NatProbeCols {
            at: TimeCol::empty(),
            nat_type: Vec::new(),
            mapped_ip_hash: Vec::new(),
            mapped_port: Vec::new(),
            cgn_detected: Vec::new(),
        }
    }

    fn append(&mut self, r: &NatProbeRecord) {
        self.at.append(r.at);
        self.nat_type.push(r.nat_type.code());
        self.mapped_ip_hash.push(r.mapped_ip_hash);
        self.mapped_port.push(r.mapped_port);
        self.cgn_detected.push(u8::from(r.cgn_detected));
    }

    fn len(&self) -> usize {
        self.at.len()
    }

    fn iter(&self, router: RouterId) -> ResidentNatProbes<'_> {
        ResidentNatProbes {
            router,
            at: self.at.iter(),
            nat_type: self.nat_type.iter(),
            mapped_ip_hash: self.mapped_ip_hash.iter(),
            mapped_port: self.mapped_port.iter(),
            cgn_detected: self.cgn_detected.iter(),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.at.heap_bytes()
            + self.nat_type.capacity()
            + self.mapped_ip_hash.capacity() * 8
            + self.mapped_port.capacity() * 2
            + self.cgn_detected.capacity()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.at.encode(out);
        put_u64(out, self.nat_type.len() as u64);
        for &v in &self.nat_type {
            put_u8(out, v);
        }
        put_u64(out, self.mapped_ip_hash.len() as u64);
        for &v in &self.mapped_ip_hash {
            put_u64(out, v);
        }
        put_u64(out, self.mapped_port.len() as u64);
        for &v in &self.mapped_port {
            put_u16(out, v);
        }
        put_u64(out, self.cgn_detected.len() as u64);
        for &v in &self.cgn_detected {
            put_u8(out, v);
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<NatProbeCols, SpillError> {
        let at = TimeCol::decode(cur)?;
        let n_types = cur.len_prefix(1)?;
        let mut nat_type = Vec::with_capacity(n_types);
        for _ in 0..n_types {
            let code = cur.u8()?;
            if NatType::from_code(code).is_none() {
                return Err(SpillError::Corrupt("nat probe type code out of range"));
            }
            nat_type.push(code);
        }
        let n_hash = cur.len_prefix(8)?;
        let mut mapped_ip_hash = Vec::with_capacity(n_hash);
        for _ in 0..n_hash {
            mapped_ip_hash.push(cur.u64()?);
        }
        let n_port = cur.len_prefix(2)?;
        let mut mapped_port = Vec::with_capacity(n_port);
        for _ in 0..n_port {
            mapped_port.push(cur.u16()?);
        }
        let n_det = cur.len_prefix(1)?;
        let mut cgn_detected = Vec::with_capacity(n_det);
        for _ in 0..n_det {
            let v = cur.u8()?;
            if v > 1 {
                return Err(SpillError::Corrupt("nat probe cgn flag out of range"));
            }
            cgn_detected.push(v);
        }
        let n = at.len();
        if [nat_type.len(), mapped_ip_hash.len(), mapped_port.len(), cgn_detected.len()]
            .iter()
            .any(|&l| l != n)
        {
            return Err(SpillError::Corrupt("nat probe column length mismatch"));
        }
        Ok(NatProbeCols { at, nat_type, mapped_ip_hash, mapped_port, cgn_detected })
    }
}

impl Default for NatProbeCols {
    fn default() -> NatProbeCols {
        NatProbeCols::empty()
    }
}

/// One router's NAT probes, rebuilt record-by-record from columns.
#[derive(Debug, Clone)]
pub struct ResidentNatProbes<'a> {
    router: RouterId,
    at: TimeColIter<'a>,
    nat_type: std::slice::Iter<'a, u8>,
    mapped_ip_hash: std::slice::Iter<'a, u64>,
    mapped_port: std::slice::Iter<'a, u16>,
    cgn_detected: std::slice::Iter<'a, u8>,
}

impl Iterator for ResidentNatProbes<'_> {
    type Item = NatProbeRecord;

    fn next(&mut self) -> Option<NatProbeRecord> {
        Some(NatProbeRecord {
            router: self.router,
            at: self.at.next()?,
            nat_type: NatType::from_code(*self.nat_type.next()?)
                .expect("codes validated on append/decode"),
            mapped_ip_hash: *self.mapped_ip_hash.next()?,
            mapped_port: *self.mapped_port.next()?,
            cgn_detected: *self.cgn_detected.next()? != 0,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.at.size_hint()
    }
}

impl ExactSizeIterator for ResidentNatProbes<'_> {}

/// Columns of one router's [`PunchTrialRecord`] stream: peer router ids
/// in a narrow lane, type pair and outcome as single bytes.
#[derive(Debug, Clone, PartialEq)]
struct PunchTrialCols {
    at: TimeCol,
    peer: NarrowCol,
    local_type: Vec<u8>,
    peer_type: Vec<u8>,
    success: Vec<u8>,
}

impl PunchTrialCols {
    const fn empty() -> PunchTrialCols {
        PunchTrialCols {
            at: TimeCol::empty(),
            peer: NarrowCol::empty(),
            local_type: Vec::new(),
            peer_type: Vec::new(),
            success: Vec::new(),
        }
    }

    fn append(&mut self, r: &PunchTrialRecord) {
        self.at.append(r.at);
        self.peer.append(u64::from(r.peer.0));
        self.local_type.push(r.local_type.code());
        self.peer_type.push(r.peer_type.code());
        self.success.push(u8::from(r.success));
    }

    fn len(&self) -> usize {
        self.at.len()
    }

    fn iter(&self, router: RouterId) -> ResidentPunchTrials<'_> {
        ResidentPunchTrials {
            router,
            at: self.at.iter(),
            peer: self.peer.iter(),
            local_type: self.local_type.iter(),
            peer_type: self.peer_type.iter(),
            success: self.success.iter(),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.at.heap_bytes()
            + self.peer.heap_bytes()
            + self.local_type.capacity()
            + self.peer_type.capacity()
            + self.success.capacity()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.at.encode(out);
        self.peer.encode(out);
        for list in [&self.local_type, &self.peer_type, &self.success] {
            put_u64(out, list.len() as u64);
            for &v in list {
                put_u8(out, v);
            }
        }
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<PunchTrialCols, SpillError> {
        let at = TimeCol::decode(cur)?;
        let peer = NarrowCol::decode(cur)?;
        let mut lists: [Vec<u8>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for (i, list) in lists.iter_mut().enumerate() {
            let n = cur.len_prefix(1)?;
            list.reserve(n);
            for _ in 0..n {
                let v = cur.u8()?;
                let bad = if i == 2 { v > 1 } else { NatType::from_code(v).is_none() };
                if bad {
                    return Err(SpillError::Corrupt("punch trial byte column out of range"));
                }
                list.push(v);
            }
        }
        let [local_type, peer_type, success] = lists;
        let n = at.len();
        if [peer.len(), local_type.len(), peer_type.len(), success.len()]
            .iter()
            .any(|&l| l != n)
        {
            return Err(SpillError::Corrupt("punch trial column length mismatch"));
        }
        Ok(PunchTrialCols { at, peer, local_type, peer_type, success })
    }
}

impl Default for PunchTrialCols {
    fn default() -> PunchTrialCols {
        PunchTrialCols::empty()
    }
}

/// One router's punch trials, rebuilt record-by-record from columns.
#[derive(Debug, Clone)]
pub struct ResidentPunchTrials<'a> {
    router: RouterId,
    at: TimeColIter<'a>,
    peer: NarrowColIter<'a>,
    local_type: std::slice::Iter<'a, u8>,
    peer_type: std::slice::Iter<'a, u8>,
    success: std::slice::Iter<'a, u8>,
}

impl Iterator for ResidentPunchTrials<'_> {
    type Item = PunchTrialRecord;

    fn next(&mut self) -> Option<PunchTrialRecord> {
        Some(PunchTrialRecord {
            router: self.router,
            at: self.at.next()?,
            peer: RouterId(self.peer.next()? as u32),
            local_type: NatType::from_code(*self.local_type.next()?)
                .expect("codes validated on append/decode"),
            peer_type: NatType::from_code(*self.peer_type.next()?)
                .expect("codes validated on append/decode"),
            success: *self.success.next()? != 0,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.at.size_hint()
    }
}

impl ExactSizeIterator for ResidentPunchTrials<'_> {}

columnar_table! {
    /// The NAT-probe table in columnar form: ~16 bytes/record instead of
    /// the 32-byte row.
    table NatProbeTable;
    /// Flat record iterator over a [`NatProbeTable`].
    iter NatProbesIter;
    cols NatProbeCols;
    record NatProbeRecord;
    router_iter RouterNatProbes;
    resident_iter ResidentNatProbes;
    empty EMPTY_NAT_PROBES;
    tag "nat-probes";
    key |r| r.at;
}

columnar_table! {
    /// The hole-punch-trial table in columnar form: ~12 bytes/record
    /// instead of the 32-byte row.
    table PunchTrialTable;
    /// Flat record iterator over a [`PunchTrialTable`].
    iter PunchTrialsIter;
    cols PunchTrialCols;
    record PunchTrialRecord;
    router_iter RouterPunchTrials;
    resident_iter ResidentPunchTrials;
    empty EMPTY_PUNCH_TRIALS;
    tag "punch-trials";
    key |r| (r.at, r.peer);
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::dns::DomainName;
    use simnet::time::SimDuration;

    fn t(mins: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_mins(mins)
    }

    #[test]
    fn time_col_round_trips_monotone_jumpy_and_backward_sequences() {
        let inputs = vec![
            SimTime::from_micros(0),
            SimTime::from_micros(5),
            SimTime::from_micros(5),
            // Forward jump past the u32 delta range: escapes.
            SimTime::from_micros(6_000_000_000),
            // Backward jump: escapes.
            SimTime::from_micros(100),
            SimTime::from_micros(u64::MAX),
            SimTime::from_micros(u64::MAX),
        ];
        let mut col = TimeCol::empty();
        for &v in &inputs {
            col.append(v);
        }
        assert_eq!(col.iter().collect::<Vec<_>>(), inputs);
        assert_eq!(col.len(), 7);
        // Only the three non-delta-codable entries hit the wide lane.
        assert_eq!(col.wide.len(), 3);
    }

    #[test]
    fn narrow_col_round_trips_across_the_escape_threshold() {
        let inputs =
            vec![0, 1, u64::from(u32::MAX) - 1, u64::from(u32::MAX), u64::from(u32::MAX) + 1, u64::MAX];
        let mut col = NarrowCol::empty();
        for &v in &inputs {
            col.append(v);
        }
        assert_eq!(col.iter().collect::<Vec<_>>(), inputs);
        assert_eq!(col.wide.len(), 3);
    }

    #[test]
    fn domain_pool_interns_by_value_and_compares_by_pool() {
        let clear = ReportedDomain::Clear(DomainName::new("netflix.com").unwrap());
        let obf = ReportedDomain::Obfuscated(7);
        let mut a = DomainPool::empty();
        assert_eq!(a.intern(&clear), 0);
        assert_eq!(a.intern(&obf), 1);
        assert_eq!(a.intern(&clear), 0, "re-interning is id-stable");
        assert_eq!(a.len(), 2);
        assert_eq!(a.get(1), &obf);
        let mut b = DomainPool::empty();
        b.intern(&clear);
        b.intern(&obf);
        assert_eq!(a, b);
        let mut c = DomainPool::empty();
        c.intern(&obf);
        c.intern(&clear);
        assert_ne!(a, c, "interning order is part of equality");
    }

    fn flow(router: u32, started: u64, ended: u64, suffix: u32, domain: u64) -> FlowRecord {
        FlowRecord {
            router: RouterId(router),
            started: t(started),
            ended: t(ended),
            device: AnonMac { oui: 0x0017F2, suffix_hash: suffix },
            remote_ip_hash: 99,
            remote_port: 443,
            proto: IpProtocol::Tcp,
            domain: ReportedDomain::Obfuscated(domain),
            bytes_down: 4096,
            bytes_up: 512,
        }
    }

    #[test]
    fn flow_table_round_trips_and_indexes_per_router() {
        let rows = vec![
            flow(2, 0, 5, 1, 10),
            flow(1, 3, 4, 2, 10),
            flow(2, 1, 6, 1, 11),
            // started after ended: wrapping duration still round-trips.
            flow(1, 9, 7, 3, 10),
        ];
        let mut table = FlowTable::default();
        for r in &rows {
            table.push(r.clone());
        }
        assert_eq!(table.len(), 4);
        assert_eq!(table.router_len(RouterId(1)), 2);
        assert_eq!(table.router(RouterId(3)).count(), 0);
        // Flat iteration groups by router, preserving arrival order within.
        let expect = vec![rows[1].clone(), rows[3].clone(), rows[0].clone(), rows[2].clone()];
        assert_eq!(table.iter().collect::<Vec<_>>(), expect);
        assert_eq!(table.router(RouterId(2)).collect::<Vec<_>>(), vec![rows[0].clone(), rows[2].clone()]);
    }

    #[test]
    fn table_equality_tracks_the_pushed_sequence() {
        let mut a = FlowTable::default();
        let mut b = FlowTable::default();
        for r in [flow(1, 0, 1, 1, 5), flow(1, 2, 3, 1, 6)] {
            a.push(r.clone());
            b.push(r);
        }
        assert_eq!(a, b);
        b.push(flow(1, 4, 5, 1, 5));
        assert_ne!(a, b);
    }

    #[test]
    fn merge_concatenates_disjoint_routers_and_sorts_unordered_ones() {
        // Shard A: router 1 in order; shard B: router 2 out of order.
        let mut a = FlowTable::default();
        a.push(flow(1, 0, 2, 1, 5));
        a.push(flow(1, 1, 3, 1, 5));
        let mut b = FlowTable::default();
        b.push(flow(2, 5, 9, 1, 6));
        b.push(flow(2, 2, 4, 1, 6));
        let merged = FlowTable::merge(vec![a, b]);
        assert_eq!(merged.len(), 4);
        let order: Vec<(u32, SimTime)> =
            merged.iter().map(|r| (r.router.0, r.ended)).collect();
        assert_eq!(order, vec![(1, t(2)), (1, t(3)), (2, t(4)), (2, t(9))]);
        // The unordered router was rebuilt; the ordered one kept its
        // original (already-sorted) encoding.
        let rebuilt: Vec<SimTime> =
            merged.router(RouterId(2)).map(|r| r.ended).collect();
        assert_eq!(rebuilt, vec![t(4), t(9)]);
    }

    #[test]
    fn merge_with_a_router_split_across_chunks_stays_stable() {
        // Ties on the full subkey must preserve chunk order (stable sort).
        let first = flow(7, 0, 5, 1, 10);
        let second = flow(7, 0, 5, 1, 11);
        let mut a = FlowTable::default();
        a.push(first.clone());
        let mut b = FlowTable::default();
        b.push(second.clone());
        let merged = FlowTable::merge(vec![a, b]);
        assert_eq!(merged.iter().collect::<Vec<_>>(), vec![first, second]);
    }

    #[test]
    fn packet_stats_dns_and_mac_tables_round_trip() {
        let ps = PacketStatsRecord {
            router: RouterId(3),
            at: t(1),
            bytes_down: u64::MAX,
            bytes_up: 1,
            pkts_down: 2,
            pkts_up: 3,
            peak_down_1s: 4,
            peak_up_1s: 5,
        };
        let mut pst = PacketStatsTable::default();
        pst.push(ps);
        assert_eq!(pst.iter().collect::<Vec<_>>(), vec![ps]);

        let dns = DnsSampleRecord {
            router: RouterId(3),
            at: t(2),
            device: AnonMac { oui: 1, suffix_hash: 2 },
            name: ReportedDomain::Clear(DomainName::new("netflix.com").unwrap()),
            cname_links: 2,
            resolved: true,
        };
        let mut dt = DnsTable::default();
        dt.push(dns.clone());
        dt.push(dns.clone());
        assert_eq!(dt.iter().collect::<Vec<_>>(), vec![dns.clone(), dns]);

        let mac = MacSightingRecord {
            router: RouterId(4),
            first_seen: t(3),
            device: AnonMac { oui: 5, suffix_hash: 6 },
            bytes_total: 1 << 40,
        };
        let mut mt = MacTable::default();
        mt.push(mac);
        assert_eq!(mt.iter().collect::<Vec<_>>(), vec![mac]);
        assert!(mt.heap_bytes() > 0);
    }

    #[test]
    fn flow_cols_encode_decode_round_trips() {
        let mut cols = FlowCols::empty();
        for r in [flow(1, 0, 5, 1, 10), flow(1, 3, 4, 2, 11), flow(1, 9, 7, 3, 10)] {
            cols.append(&r);
        }
        let mut buf = Vec::new();
        cols.encode(&mut buf);
        let decoded = FlowCols::decode(&mut crate::spill::Cursor::new(&buf)).unwrap();
        assert_eq!(
            cols.iter(RouterId(1)).collect::<Vec<_>>(),
            decoded.iter(RouterId(1)).collect::<Vec<_>>()
        );
        // Truncation anywhere inside the block is a decode error, not UB.
        for cut in [0, 1, buf.len() / 2, buf.len() - 1] {
            assert!(
                FlowCols::decode(&mut crate::spill::Cursor::new(&buf[..cut])).is_err(),
                "truncated at {cut} must fail"
            );
        }
    }

    #[test]
    fn merge_spilled_reunifies_disk_and_resident_rows() {
        use crate::spill::{SegmentStore, SEGMENT_MAGIC};
        use std::sync::Arc;

        // Model: what an unbounded in-memory shard would hold.
        let spilled_rows = [flow(1, 0, 2, 1, 5), flow(129, 1, 3, 1, 6), flow(1, 2, 4, 2, 5)];
        let resident_rows = [flow(1, 5, 6, 1, 7), flow(129, 4, 8, 2, 6)];
        let mut model = FlowTable::default();
        for r in spilled_rows.iter().chain(&resident_rows) {
            model.push(r.clone());
        }
        let merged_model = FlowTable::merge(vec![model]);

        // Out-of-core: the first batch sealed to disk, the rest resident.
        let mut shard = FlowTable::default();
        for r in &spilled_rows {
            shard.push(r.clone());
        }
        let store = Arc::new(SegmentStore::create(None).unwrap());
        let mut buf = Vec::new();
        buf.extend_from_slice(SEGMENT_MAGIC);
        let blocks = shard.encode_segment(&mut buf);
        store.write_file("shard001-seg00000.seg", &buf).unwrap();
        shard.seal(&store, "shard001-seg00000.seg", blocks);
        assert!(!shard.has_resident(), "sealed rows leave the resident columns");
        for r in &resident_rows {
            shard.push(r.clone());
        }
        assert_eq!(shard, merged_model, "a sealed shard table still reads its arrival sequence");
        let merged = FlowTable::merge_shards(vec![shard], 0).unwrap();

        assert_eq!(merged.len(), merged_model.len());
        assert!(merged.spilled_bytes() > 0, "merged rows should live on disk");
        assert_eq!(
            merged.iter().collect::<Vec<_>>(),
            merged_model.iter().collect::<Vec<_>>()
        );
        assert_eq!(merged, merged_model, "PartialEq must see through the spill");
        assert_eq!(
            merged.router(RouterId(129)).collect::<Vec<_>>(),
            merged_model.router(RouterId(129)).collect::<Vec<_>>()
        );
        assert_eq!(merged.router_len(RouterId(1)), 3);
    }

    /// One valid encoded block per columnar table, each holding records
    /// that exercise the escape lanes (backward and far-forward times,
    /// 64-bit counters) and every tag value (bands, media, NAT types).
    fn valid_blocks() -> Vec<(&'static str, Vec<u8>)> {
        fn block<C>(cols: C, encode: fn(&C, &mut Vec<u8>)) -> Vec<u8> {
            let mut buf = Vec::new();
            encode(&cols, &mut buf);
            buf
        }
        let r = RouterId(1);
        let times = [t(5), t(1), SimTime::from_micros(u64::MAX), t(2)];
        let device = |i: usize| AnonMac { oui: i as u32, suffix_hash: 7 * i as u32 };
        let domain = |i: usize| match i % 2 {
            0 => ReportedDomain::Clear(DomainName::new("example.com").unwrap()),
            _ => ReportedDomain::Obfuscated(i as u64),
        };
        let nat = |i: usize| NatType::from_code((i % 5) as u8).expect("codes 0..5 are valid");
        let mut ps = PacketStatsCols::empty();
        let mut fl = FlowCols::empty();
        let mut dn = DnsCols::empty();
        let mut mc = MacCols::empty();
        let mut wf = WifiCols::empty();
        let mut ac = AssociationCols::empty();
        let mut lt = LatencyCols::empty();
        let mut np = NatProbeCols::empty();
        let mut pt = PunchTrialCols::empty();
        for (i, &at) in times.iter().enumerate() {
            let big = if i % 2 == 0 { u64::MAX - i as u64 } else { i as u64 };
            ps.append(&PacketStatsRecord {
                router: r,
                at,
                bytes_down: big,
                bytes_up: 1,
                pkts_down: 2,
                pkts_up: big,
                peak_down_1s: 4,
                peak_up_1s: 5,
            });
            fl.append(&flow(1, i as u64 * 3, i as u64, i as u32, i as u64 % 2));
            dn.append(&DnsSampleRecord {
                router: r,
                at,
                device: device(i),
                name: domain(i),
                cname_links: i as u8,
                resolved: i % 2 == 0,
            });
            mc.append(&MacSightingRecord {
                router: r,
                first_seen: at,
                device: device(i),
                bytes_total: big,
            });
            wf.append(&WifiScanRecord {
                router: r,
                at,
                band: if i % 2 == 0 { Band::Ghz24 } else { Band::Ghz5 },
                aps: (0..i)
                    .map(|j| ApSighting {
                        bssid_hash: big ^ j as u64,
                        channel_number: j as u8 + 1,
                        signal_dbm: -40 - j as i8,
                    })
                    .collect(),
                associated_stations: i as u8,
            });
            ac.append(&AssociationRecord {
                router: r,
                at,
                device: device(i),
                medium: [Medium::Wired, Medium::Wireless24, Medium::Wireless5][i % 3],
            });
            lt.append(&LatencyRecord {
                router: r,
                at,
                rtt_min: SimDuration::from_micros(i as u64),
                rtt_median: SimDuration::from_micros(big / 2),
                rtt_max: SimDuration::from_micros(big),
                lost: i as u8,
            });
            np.append(&NatProbeRecord {
                router: r,
                at,
                nat_type: nat(i),
                mapped_ip_hash: big,
                mapped_port: i as u16,
                cgn_detected: i % 2 == 1,
            });
            pt.append(&PunchTrialRecord {
                router: r,
                at,
                peer: RouterId(i as u32),
                local_type: nat(i),
                peer_type: nat(i + 1),
                success: i % 2 == 0,
            });
        }
        vec![
            ("PacketStatsCols", block(ps, PacketStatsCols::encode)),
            ("FlowCols", block(fl, FlowCols::encode)),
            ("DnsCols", block(dn, DnsCols::encode)),
            ("MacCols", block(mc, MacCols::encode)),
            ("WifiCols", block(wf, WifiCols::encode)),
            ("AssociationCols", block(ac, AssociationCols::encode)),
            ("LatencyCols", block(lt, LatencyCols::encode)),
            ("NatProbeCols", block(np, NatProbeCols::encode)),
            ("PunchTrialCols", block(pt, PunchTrialCols::encode)),
        ]
    }

    /// Decode `bytes` as a block of every one of the nine column groups.
    /// Each decode must return an error or columns whose records all
    /// rebuild; a panic anywhere fails the calling test. Returns the
    /// groups that decoded, with their record counts.
    fn decode_as_every_table(bytes: &[u8]) -> Vec<(&'static str, usize)> {
        let mut decoded = Vec::new();
        macro_rules! decode_fully {
            ($($Cols:ident),*) => {$(
                if let Ok(cols) = $Cols::decode(&mut Cursor::new(bytes)) {
                    let rows = cols.iter(RouterId(1)).count();
                    assert_eq!(rows, cols.len(), "{} rows", stringify!($Cols));
                    decoded.push((stringify!($Cols), rows));
                }
            )*};
        }
        decode_fully!(
            PacketStatsCols,
            FlowCols,
            DnsCols,
            MacCols,
            WifiCols,
            AssociationCols,
            LatencyCols,
            NatProbeCols,
            PunchTrialCols
        );
        decoded
    }

    #[test]
    fn valid_blocks_round_trip_and_every_truncation_decodes_safely() {
        for (table, block) in valid_blocks() {
            assert!(
                decode_as_every_table(&block).contains(&(table, 4)),
                "{table} must decode its own block"
            );
            for cut in 0..block.len() {
                decode_as_every_table(&block[..cut]);
            }
        }
    }

    mod decoder_robustness {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn decoders_never_panic_on_arbitrary_bytes(
                bytes in proptest::collection::vec(any::<u8>(), 0..512),
            ) {
                decode_as_every_table(&bytes);
            }

            #[test]
            fn decoders_never_panic_on_corrupted_valid_blocks(
                table in 0usize..9,
                edits in proptest::collection::vec((any::<u16>(), any::<u8>()), 1..8),
            ) {
                let (_, mut block) = valid_blocks().swap_remove(table);
                for (at, byte) in edits {
                    let len = block.len();
                    block[usize::from(at) % len] = byte;
                }
                decode_as_every_table(&block);
            }
        }
    }
}
