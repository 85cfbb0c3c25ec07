//! Columnar (struct-of-arrays) storage for the collector's 13 record
//! tables, one per record kind the routers upload.
//!
//! Nine of them dominate a study's memory footprint — the four
//! consent-gated Traffic tables (per-minute packet statistics, flows, DNS
//! samples, MAC sightings), the consent-free WiFi scans, associations, and
//! latency probes that *every* home emits, and the two CGN
//! characterization tables (NAT probes, hole-punch trials): the 197-day
//! deployment materializes tens of millions of them, and scaling the
//! deployment to 10k+ homes multiplies that by two orders of magnitude.
//! Row-of-structs `Vec<Record>` storage pays padding and full `u64` width
//! for every field; these tables store one column per field, grouped per
//! router, with narrow encodings. Each encoding is one type implementing
//! the crate-private `Column` trait (append, length, iterate, heap bytes,
//! per-value resident bytes, segment encode and decode):
//!
//! * **timestamps** (`TimeCol`) — delta-from-previous as `u32`
//!   microseconds, with a sentinel escape to a 64-bit side array for
//!   backward jumps or gaps over ~71 minutes. Per-router record streams
//!   are chronological, so escapes are rare;
//! * **counters** (`NarrowCol`) — `u32` fast lane with the same
//!   sentinel escape for values that need 64 bits;
//! * **domains** (`Domains`) — `u32` ids into a per-router
//!   `DomainPool` that interns each [`ReportedDomain`] once (homes
//!   revisit the same handful of domains all study long);
//! * **AP sightings** (`ApSightings`) — a WiFi scan's nested list,
//!   flattened into a per-scan count and three per-sighting columns;
//! * **everything small** (`AnonMac`, ports, protocols, flags, bands,
//!   media, NAT types) — `Dense<T>`, a plain vector at natural width
//!   whose decode rejects out-of-range tags.
//!
//! The other four (uptime reports, capacity measurements, device
//! censuses and the upload-gap ledger) hold one to three rows per router,
//! so each keeps one `Dense` column of whole records: a column per field
//! would pay a vector header and its growth slack per field per router
//! (DESIGN.md §8 has the measurement).
//!
//! Each table is declared once, in a `columnar_table!` invocation: its
//! merged-file tag, its sort key, its columns as `field: ColumnType =
//! what it stores from the record`, and how a record is rebuilt from the
//! decoded fields. The macro generates the per-router column group, its
//! length-checked decode, its rebuild iterator and the table around it.
//! A table's spill estimate, [`FlowTable::resident_bytes`] and its
//! siblings, is the sum of its columns' steady-state bytes per value.
//!
//! The encodings are *pure functions of the pushed record sequence*, so
//! `PartialEq` on a table equals record-sequence equality — determinism
//! tests can keep comparing snapshots directly. Iteration rebuilds
//! records by value in (router, arrival) order, which after a snapshot
//! merge is the (router, key)-sorted global order; callers iterate (`for
//! r in &data.flows`) or read one router (`data.flows.router(r)`).
//!
//! Under a spill budget ([`crate::spill`]) a table may additionally own
//! disk-backed parts: per-router blocks of these same columns in segment
//! files, framed little-endian by the columns' `encode`/`decode` pairs,
//! in declaration order. A collector shard's table holds one part per
//! sealed segment; a merged table holds at most one, its merged file.
//! Per-router iteration streams the spilled head from disk, part by part,
//! before the resident tail; flat iteration walks the ordered union of
//! resident and spilled routers, so every consumer sees the identical
//! record sequence whether or not the study spilled.

use crate::spill::{
    put_u16, put_u32, put_u64, put_u8, read_block, BlockRef, Cursor, SegmentStore, SpillError,
};
use firmware::anonymize::{AnonMac, ReportedDomain};
use firmware::latency::LatencyRecord;
use crate::server::UploadGapRecord;
use firmware::records::{
    ApSighting, AssociationRecord, CapacityRecord, DeviceCensusRecord, DnsSampleRecord,
    FlowRecord, MacSightingRecord, Medium, NatProbeRecord, NatType, PacketStatsRecord,
    PunchTrialRecord, RouterId, UptimeRecord, WifiScanRecord,
};
use firmware::uploader::GapCause;
use simnet::dns::DomainName;
use simnet::packet::IpProtocol;
use simnet::time::{SimDuration, SimTime};
use simnet::wifi::Band;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;
use std::mem::size_of;
use std::sync::Arc;

/// One column of a table's per-router group, implemented once per
/// encoding. A table declaration names a column type per record field;
/// the generated group appends, iterates, sizes and frames itself by
/// calling these in declaration order.
pub(crate) trait Column: Clone + Debug + PartialEq {
    /// What one append stores, borrowed from the record.
    type Value;
    /// Iteration over the stored values, in append order.
    type Iter<'a>: ExactSizeIterator + Clone + Debug
    where
        Self: 'a;

    /// An empty column (`const`, so shared static empties are possible).
    const EMPTY: Self;

    /// Append one value.
    fn append(&mut self, v: &Self::Value);

    /// Values appended so far.
    fn len(&self) -> usize;

    /// Sequential decode of every value, in append order.
    fn iter(&self) -> Self::Iter<'_>;

    /// Heap bytes held by the column.
    fn heap_bytes(&self) -> usize;

    /// Heap bytes one append of `v` adds in the steady state: no escapes,
    /// domains already interned, vector growth amortized away.
    fn resident_bytes(v: &Self::Value) -> usize;

    /// Append the little-endian segment framing of this column.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode a column previously written by [`Column::encode`].
    fn decode(cur: &mut Cursor<'_>) -> Result<Self, SpillError>;
}

/// A fixed-width value a [`Dense`] column stores at natural width.
pub(crate) trait Fixed: Copy + Debug + PartialEq {
    /// Framed bytes per value.
    const WIRE: usize;

    /// Append the value's framing.
    fn put(self, out: &mut Vec<u8>);

    /// Read one value, rejecting a tag outside the type's range.
    fn get(cur: &mut Cursor<'_>) -> Result<Self, SpillError>;
}

/// `Fixed` for integers framed little-endian at their own width.
macro_rules! fixed_int {
    ($($T:ty: $put:ident, $get:ident;)*) => {$(
        impl Fixed for $T {
            const WIRE: usize = size_of::<$T>();

            fn put(self, out: &mut Vec<u8>) {
                $put(out, self);
            }

            fn get(cur: &mut Cursor<'_>) -> Result<$T, SpillError> {
                cur.$get()
            }
        }
    )*};
}

fixed_int! {
    u8: put_u8, u8;
    u16: put_u16, u16;
    u32: put_u32, u32;
    u64: put_u64, u64;
}

/// `Fixed` for `bool` and fieldless enums, framed as one tag byte: the
/// value's discriminant, which is its index in the listed values (every
/// value, in declaration order). Decode rejects a tag past the list.
macro_rules! fixed_tag {
    ($($T:ty: $what:literal = $all:expr;)*) => {$(
        impl Fixed for $T {
            const WIRE: usize = 1;

            fn put(self, out: &mut Vec<u8>) {
                put_u8(out, self as u8);
            }

            fn get(cur: &mut Cursor<'_>) -> Result<$T, SpillError> {
                let tag = usize::from(cur.u8()?);
                $all.get(tag).copied().ok_or(SpillError::Corrupt($what))
            }
        }
    )*};
}

fixed_tag! {
    bool: "flag out of range" = [false, true];
    Band: "wifi band tag out of range" = [Band::Ghz24, Band::Ghz5];
    Medium: "medium tag out of range" = [Medium::Wired, Medium::Wireless24, Medium::Wireless5];
    NatType: "nat type code out of range" = NatType::ALL;
    GapCause: "gap cause tag out of range" = [GapCause::Evicted, GapCause::FlashWipe];
}

/// `Fixed` for an id or time framed as the integer it wraps.
macro_rules! fixed_newtype {
    ($($T:ty: $Inner:ty = |$v:ident| $raw:expr, $new:expr;)*) => {$(
        impl Fixed for $T {
            const WIRE: usize = <$Inner as Fixed>::WIRE;

            fn put(self, out: &mut Vec<u8>) {
                let $v = self;
                $raw.put(out);
            }

            fn get(cur: &mut Cursor<'_>) -> Result<$T, SpillError> {
                <$Inner as Fixed>::get(cur).map($new)
            }
        }
    )*};
}

fixed_newtype! {
    RouterId: u32 = |id| id.0, RouterId;
    SimTime: u64 = |t| t.as_micros(), SimTime::from_micros;
    SimDuration: u64 = |d| d.as_micros(), SimDuration::from_micros;
}

/// `Fixed` for a record stored whole: its fields framed in declaration
/// order, each by its own `Fixed` impl, so decode rejects what any field
/// rejects.
macro_rules! fixed_record {
    ($($T:ident { $($field:ident: $F:ty,)+ })*) => {$(
        impl Fixed for $T {
            const WIRE: usize = 0 $(+ <$F as Fixed>::WIRE)+;

            fn put(self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)+
            }

            fn get(cur: &mut Cursor<'_>) -> Result<$T, SpillError> {
                Ok($T { $($field: <$F as Fixed>::get(cur)?,)+ })
            }
        }
    )*};
}

fixed_record! {
    UptimeRecord { router: RouterId, at: SimTime, uptime: SimDuration, }
    CapacityRecord {
        router: RouterId,
        at: SimTime,
        down_bps: u64,
        up_bps: u64,
        shaping_detected: bool,
    }
    DeviceCensusRecord { router: RouterId, at: SimTime, wired: u8, wireless_24: u8, wireless_5: u8, }
    UploadGapRecord {
        router: RouterId,
        first_seq: u64,
        last_seq: u64,
        records_lost: u64,
        from: SimTime,
        to: SimTime,
        cause: GapCause,
    }
}

impl Fixed for AnonMac {
    const WIRE: usize = 8;

    fn put(self, out: &mut Vec<u8>) {
        put_u32(out, self.oui);
        put_u32(out, self.suffix_hash);
    }

    fn get(cur: &mut Cursor<'_>) -> Result<AnonMac, SpillError> {
        Ok(AnonMac { oui: cur.u32()?, suffix_hash: cur.u32()? })
    }
}

/// One byte: the IP protocol number (`Other` carries it verbatim).
impl Fixed for IpProtocol {
    const WIRE: usize = 1;

    fn put(self, out: &mut Vec<u8>) {
        put_u8(out, u8::from(self));
    }

    fn get(cur: &mut Cursor<'_>) -> Result<IpProtocol, SpillError> {
        Ok(IpProtocol::from(cur.u8()?))
    }
}

/// Frame `values` as a `u64` count, then each value.
fn put_vec<T: Fixed>(out: &mut Vec<u8>, values: &[T]) {
    put_u64(out, values.len() as u64);
    for &v in values {
        v.put(out);
    }
}

/// Read a vector framed by [`put_vec`].
fn get_vec<T: Fixed>(cur: &mut Cursor<'_>) -> Result<Vec<T>, SpillError> {
    let n = cur.len_prefix(T::WIRE)?;
    let mut values = Vec::with_capacity(n);
    for _ in 0..n {
        values.push(T::get(cur)?);
    }
    Ok(values)
}

/// A column of fixed-width values at natural width.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Dense<T>(Vec<T>);

impl<T: Fixed> Column for Dense<T> {
    type Value = T;
    type Iter<'a> = std::iter::Copied<std::slice::Iter<'a, T>> where T: 'a;

    const EMPTY: Dense<T> = Dense(Vec::new());

    fn append(&mut self, v: &T) {
        self.0.push(*v);
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn iter(&self) -> Self::Iter<'_> {
        self.0.iter().copied()
    }

    fn heap_bytes(&self) -> usize {
        self.0.capacity() * size_of::<T>()
    }

    fn resident_bytes(_: &T) -> usize {
        size_of::<T>()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_vec(out, &self.0);
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<Dense<T>, SpillError> {
        get_vec(cur).map(Dense)
    }
}

/// The escape marker in a narrow lane: the real value lives in the wide
/// side array. Chosen at the top of the `u32` range so every in-range
/// value encodes as itself.
const ESCAPE: u32 = u32::MAX;

/// The two lanes under [`TimeCol`] and [`NarrowCol`]: each entry is a
/// `u32` in `enc`, or [`ESCAPE`] there with its 64-bit value next in
/// `wide`. Framed as `enc` then `wide`.
#[derive(Debug, Clone, PartialEq)]
struct Lanes {
    enc: Vec<u32>,
    wide: Vec<u64>,
}

impl Lanes {
    const EMPTY: Lanes = Lanes { enc: Vec::new(), wide: Vec::new() };

    /// Store `narrow` in the fast lane, or escape and store `wide` when
    /// `narrow` does not fit below the marker.
    fn push(&mut self, narrow: u64, wide: u64) {
        if narrow < u64::from(ESCAPE) {
            self.enc.push(narrow as u32);
        } else {
            self.enc.push(ESCAPE);
            self.wide.push(wide);
        }
    }

    fn heap_bytes(&self) -> usize {
        self.enc.capacity() * 4 + self.wide.capacity() * 8
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_vec(out, &self.enc);
        put_vec(out, &self.wide);
    }

    fn decode(cur: &mut Cursor<'_>, mismatch: &'static str) -> Result<Lanes, SpillError> {
        let lanes = Lanes { enc: get_vec(cur)?, wide: get_vec(cur)? };
        if lanes.enc.iter().filter(|&&e| e == ESCAPE).count() != lanes.wide.len() {
            return Err(SpillError::Corrupt(mismatch));
        }
        Ok(lanes)
    }
}

/// A timestamp column: `u32` microsecond deltas from the previous entry,
/// escaping to an absolute 64-bit side array when a record jumps backward
/// or more than `u32::MAX - 1` microseconds (~71 minutes) forward.
/// Lossless for any input order; 4 bytes per record in the steady state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TimeCol {
    lanes: Lanes,
    /// Encoder state: absolute microseconds of the last appended entry.
    last: u64,
}

impl Column for TimeCol {
    type Value = SimTime;
    type Iter<'a> = TimeColIter<'a>;

    const EMPTY: TimeCol = TimeCol { lanes: Lanes::EMPTY, last: 0 };

    fn append(&mut self, t: &SimTime) {
        let us = t.as_micros();
        let delta = if us >= self.last { us - self.last } else { u64::MAX };
        self.lanes.push(delta, us);
        self.last = us;
    }

    fn len(&self) -> usize {
        self.lanes.enc.len()
    }

    fn iter(&self) -> TimeColIter<'_> {
        TimeColIter { enc: self.lanes.enc.iter(), wide: self.lanes.wide.iter(), last: 0 }
    }

    fn heap_bytes(&self) -> usize {
        self.lanes.heap_bytes()
    }

    fn resident_bytes(_: &SimTime) -> usize {
        4
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.last);
        self.lanes.encode(out);
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<TimeCol, SpillError> {
        let last = cur.u64()?;
        let lanes = Lanes::decode(cur, "time column escape/wide mismatch")?;
        Ok(TimeCol { lanes, last })
    }
}

/// Sequential decoder over a [`TimeCol`].
#[derive(Debug, Clone)]
pub(crate) struct TimeColIter<'a> {
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
pub(crate) struct NarrowCol(Lanes);

impl Column for NarrowCol {
    type Value = u64;
    type Iter<'a> = NarrowColIter<'a>;

    const EMPTY: NarrowCol = NarrowCol(Lanes::EMPTY);

    fn append(&mut self, v: &u64) {
        self.0.push(*v, *v);
    }

    fn len(&self) -> usize {
        self.0.enc.len()
    }

    fn iter(&self) -> NarrowColIter<'_> {
        NarrowColIter { enc: self.0.enc.iter(), wide: self.0.wide.iter() }
    }

    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }

    fn resident_bytes(_: &u64) -> usize {
        4
    }

    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<NarrowCol, SpillError> {
        Lanes::decode(cur, "narrow column escape/wide mismatch").map(NarrowCol)
    }
}

/// Sequential decoder over a [`NarrowCol`].
#[derive(Debug, Clone)]
pub(crate) struct NarrowColIter<'a> {
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
pub(crate) struct DomainPool {
    pool: Vec<ReportedDomain>,
    lookup: BTreeMap<ReportedDomain, u32>,
}

impl DomainPool {
    /// An empty pool.
    pub(crate) const fn empty() -> DomainPool {
        DomainPool { pool: Vec::new(), lookup: BTreeMap::new() }
    }

    /// The id for a domain, interning it on first sight.
    pub(crate) fn intern(&mut self, domain: &ReportedDomain) -> u32 {
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
    pub(crate) fn get(&self, id: u32) -> &ReportedDomain {
        &self.pool[id as usize]
    }

    /// Distinct domains interned.
    pub(crate) fn len(&self) -> usize {
        self.pool.len()
    }

    /// Append the little-endian segment framing of the pool, in id order
    /// (so decoding re-interns into the identical pool).
    fn encode(&self, out: &mut Vec<u8>) {
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
    fn decode(cur: &mut Cursor<'_>) -> Result<DomainPool, SpillError> {
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

impl PartialEq for DomainPool {
    fn eq(&self, other: &DomainPool) -> bool {
        self.pool == other.pool
    }
}

/// A domain column: per-record `u32` ids into the router's
/// [`DomainPool`], framed as the ids, then the pool. Iteration yields
/// references into the pool, so a rebuilt record clones its domain in
/// place.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Domains {
    ids: Vec<u32>,
    pool: DomainPool,
}

impl Column for Domains {
    type Value = ReportedDomain;
    type Iter<'a> = DomainsIter<'a>;

    const EMPTY: Domains = Domains { ids: Vec::new(), pool: DomainPool::empty() };

    fn append(&mut self, d: &ReportedDomain) {
        let id = self.pool.intern(d);
        self.ids.push(id);
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn iter(&self) -> DomainsIter<'_> {
        DomainsIter { ids: self.ids.iter(), pool: &self.pool }
    }

    fn heap_bytes(&self) -> usize {
        self.ids.capacity() * 4
    }

    fn resident_bytes(_: &ReportedDomain) -> usize {
        4
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_vec(out, &self.ids);
        self.pool.encode(out);
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<Domains, SpillError> {
        let ids: Vec<u32> = get_vec(cur)?;
        let pool = DomainPool::decode(cur)?;
        if ids.iter().any(|&id| id as usize >= pool.len()) {
            return Err(SpillError::Corrupt("domain id out of pool range"));
        }
        Ok(Domains { ids, pool })
    }
}

/// Sequential decoder over a `Domains` column.
#[derive(Debug, Clone)]
pub(crate) struct DomainsIter<'a> {
    ids: std::slice::Iter<'a, u32>,
    pool: &'a DomainPool,
}

impl<'a> Iterator for DomainsIter<'a> {
    type Item = &'a ReportedDomain;

    fn next(&mut self) -> Option<&'a ReportedDomain> {
        Some(self.pool.get(*self.ids.next()?))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.ids.size_hint()
    }
}

impl ExactSizeIterator for DomainsIter<'_> {}

/// A WiFi scan's AP list, flattened: APs sighted per scan, then one
/// column per sighting field. Framed as the counts, the length-prefixed
/// BSSID hashes, then the channels and signals, which share that length.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ApSightings {
    counts: Vec<u32>,
    bssid_hash: Vec<u64>,
    channel: Vec<u8>,
    signal: Vec<i8>,
}

impl Column for ApSightings {
    type Value = Vec<ApSighting>;
    type Iter<'a> = ApSightingsIter<'a>;

    const EMPTY: ApSightings = ApSightings {
        counts: Vec::new(),
        bssid_hash: Vec::new(),
        channel: Vec::new(),
        signal: Vec::new(),
    };

    fn append(&mut self, aps: &Vec<ApSighting>) {
        self.counts.push(aps.len() as u32);
        for ap in aps {
            self.bssid_hash.push(ap.bssid_hash);
            self.channel.push(ap.channel_number);
            self.signal.push(ap.signal_dbm);
        }
    }

    fn len(&self) -> usize {
        self.counts.len()
    }

    fn iter(&self) -> ApSightingsIter<'_> {
        ApSightingsIter { counts: self.counts.iter(), cols: self, at: 0 }
    }

    fn heap_bytes(&self) -> usize {
        self.counts.capacity() * 4
            + self.bssid_hash.capacity() * 8
            + self.channel.capacity()
            + self.signal.capacity()
    }

    /// The count, plus a BSSID hash, a channel and a signal per AP.
    fn resident_bytes(aps: &Vec<ApSighting>) -> usize {
        4 + 10 * aps.len()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_vec(out, &self.counts);
        put_vec(out, &self.bssid_hash);
        out.extend_from_slice(&self.channel);
        out.extend(self.signal.iter().map(|&v| v as u8));
    }

    fn decode(cur: &mut Cursor<'_>) -> Result<ApSightings, SpillError> {
        let counts: Vec<u32> = get_vec(cur)?;
        let bssid_hash: Vec<u64> = get_vec(cur)?;
        let n = bssid_hash.len();
        let channel = cur.take(n)?.to_vec();
        let signal = cur.take(n)?.iter().map(|&v| v as i8).collect();
        if counts.iter().map(|&c| u64::from(c)).sum::<u64>() != n as u64 {
            return Err(SpillError::Corrupt("wifi AP counts do not sum to AP columns"));
        }
        Ok(ApSightings { counts, bssid_hash, channel, signal })
    }
}

/// Sequential decoder over an `ApSightings` column: one AP list per scan.
#[derive(Debug, Clone)]
pub(crate) struct ApSightingsIter<'a> {
    counts: std::slice::Iter<'a, u32>,
    cols: &'a ApSightings,
    /// Cursor into the flattened sighting columns.
    at: usize,
}

impl Iterator for ApSightingsIter<'_> {
    type Item = Vec<ApSighting>;

    fn next(&mut self) -> Option<Vec<ApSighting>> {
        let count = *self.counts.next()? as usize;
        let (start, end) = (self.at, self.at + count);
        self.at = end;
        let c = self.cols;
        Some(
            (start..end)
                .map(|i| ApSighting {
                    bssid_hash: c.bssid_hash[i],
                    channel_number: c.channel[i],
                    signal_dbm: c.signal[i],
                })
                .collect(),
        )
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.counts.size_hint()
    }
}

impl ExactSizeIterator for ApSightingsIter<'_> {}

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

/// Whether `keys` never step backwards.
fn ascending<K: Ord>(mut keys: impl Iterator<Item = K>) -> bool {
    let Some(mut prev) = keys.next() else { return true };
    keys.all(|k| {
        let in_order = prev <= k;
        prev = k;
        in_order
    })
}

/// Generates one public columnar table from its declaration: the
/// per-router column group (append, length-checked decode, encode, heap
/// and resident bytes), the iterator that rebuilds records from the
/// group's columns, and the table around them — groups keyed by a
/// `BTreeMap`, disk-backed [`SpilledPart`]s, a flat record iterator in
/// (router, arrival) order, segment sealing, and shard merges (in-memory
/// and spilled) whose rows equal a stable sort of every shard's rows by
/// (router, key).
/// `tag` names the table's merged spill file; `key` is the per-router
/// sort subkey merges restore.
macro_rules! columnar_table {
    (
        $(#[$tdoc:meta])*
        table $Table:ident: $Record:ty, tag $tag:literal, key |$kr:ident| $key:expr;
        $(#[$idoc:meta])*
        iter $TableIter:ident, router $RouterIter:ident, resident $ResidentIter:ident;
        cols $Cols:ident |$r:ident| { $($field:ident: $Col:ty = $value:expr,)+ }
        rebuild |$router:ident| $rebuild:expr
    ) => {
        #[doc = concat!("Columns of one router's `", stringify!($Record), "` stream.")]
        #[derive(Debug, Clone, PartialEq)]
        struct $Cols {
            $($field: $Col,)+
        }

        impl $Cols {
            const EMPTY: $Cols = $Cols { $($field: <$Col as Column>::EMPTY,)+ };

            fn append(&mut self, $r: &$Record) {
                $(self.$field.append(&$value);)+
            }

            /// A group holding `rows`, in order.
            fn from_rows(rows: &[$Record]) -> $Cols {
                let mut cols = $Cols::EMPTY;
                for row in rows {
                    cols.append(row);
                }
                cols
            }

            fn len(&self) -> usize {
                [$(self.$field.len()),+][0]
            }

            fn iter(&self, router: RouterId) -> $ResidentIter<'_> {
                $ResidentIter { router, $($field: self.$field.iter(),)+ }
            }

            fn heap_bytes(&self) -> usize {
                0 $(+ self.$field.heap_bytes())+
            }

            fn encode(&self, out: &mut Vec<u8>) {
                $(self.$field.encode(out);)+
            }

            fn decode(cur: &mut Cursor<'_>) -> Result<$Cols, SpillError> {
                let cols = $Cols { $($field: <$Col as Column>::decode(cur)?,)+ };
                let lens = [$(cols.$field.len()),+];
                if lens.iter().any(|&l| l != lens[0]) {
                    return Err(SpillError::Corrupt(concat!(
                        stringify!($Cols),
                        " column length mismatch"
                    )));
                }
                Ok(cols)
            }
        }

        #[doc = concat!(
            "One router's `", stringify!($Record), "`s, rebuilt record by record ",
            "from its columns."
        )]
        #[derive(Debug, Clone)]
        pub struct $ResidentIter<'a> {
            router: RouterId,
            $($field: <$Col as Column>::Iter<'a>,)+
        }

        impl Iterator for $ResidentIter<'_> {
            type Item = $Record;

            fn next(&mut self) -> Option<$Record> {
                let $router = self.router;
                $(let $field = self.$field.next()?;)+
                Some($rebuild)
            }

            fn size_hint(&self) -> (usize, Option<usize>) {
                let n = [$(self.$field.len()),+][0];
                (n, Some(n))
            }
        }

        impl ExactSizeIterator for $ResidentIter<'_> {}

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
                self.by_router.entry(record.router).or_insert_with(|| $Cols::EMPTY).append(&record);
                self.len += 1;
            }

            /// Heap bytes a push of `record` adds in the steady state: the
            /// sum of its columns' bytes per value. The collector's spill
            /// estimate.
            pub fn resident_bytes($r: &$Record) -> usize {
                0 $(+ <$Col as Column>::resident_bytes(&$value))+
            }

            /// Push `record` and add its [`Self::resident_bytes`] to
            /// `estimate`.
            pub(crate) fn push_estimated(&mut self, record: $Record, estimate: &mut usize) {
                *estimate += Self::resident_bytes(&record);
                self.push(record);
            }

            /// The per-router sort subkey merges restore.
            fn key($kr: &$Record) -> impl Ord {
                $key
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
            /// arrival) order — after a snapshot merge, the global
            /// (router, key)-sorted order. Spilled routers stream from
            /// disk one router at a time.
            pub fn iter(&self) -> $TableIter<'_> {
                $TableIter {
                    table: self,
                    routers: self.routers().into_iter().collect::<Vec<_>>().into_iter(),
                    current: None,
                }
            }

            /// Every router with rows, resident or spilled.
            pub fn routers(&self) -> BTreeSet<RouterId> {
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
                static EMPTY: $Cols = $Cols::EMPTY;
                $RouterIter {
                    head: self.spilled_rows(router).into_iter(),
                    tail: self.by_router.get(&router).unwrap_or(&EMPTY).iter(router),
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
                    match $Cols::decode(&mut Cursor::new(&buf)) {
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
                            Entry::Occupied(slot) => {
                                let held = slot.into_mut();
                                for row in cols.iter(router) {
                                    held.append(&row);
                                }
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
                if !ascending(cols.iter(router).map(|r| Self::key(&r))) {
                    let mut rows: Vec<$Record> = cols.iter(router).collect();
                    rows.sort_by_key(Self::key);
                    *cols = $Cols::from_rows(&rows);
                }
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
                            let cols = $Cols::decode(&mut Cursor::new(&buf))?;
                            rows.extend(cols.iter(router));
                        }
                        if let Some(cols) = resident_map.remove(&router) {
                            rows.extend(cols.iter(router));
                        }
                        if !ascending(rows.iter().map(Self::key)) {
                            rows.sort_by_key(Self::key);
                        }
                        out.len += rows.len();
                        enc.clear();
                        $Cols::from_rows(&rows).encode(&mut enc);
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
                        Some(prev) => Self::key(prev) <= Self::key(&first),
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
                        all.sort_by_key(Self::key);
                        let last = all.last().expect("router delta is non-empty");
                        state.last.insert(router, last.clone());
                        self.by_router.insert(router, $Cols::from_rows(&all));
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
    /// one per-minute window per record, 28 resident bytes each.
    table PacketStatsTable: PacketStatsRecord, tag "packet-stats", key |r| r.at;
    /// Flat record iterator over a [`PacketStatsTable`].
    iter PacketStatsIter, router RouterPacketStats, resident ResidentPacketStats;
    cols PacketStatsCols |r| {
        at: TimeCol = r.at,
        bytes_down: NarrowCol = r.bytes_down,
        bytes_up: NarrowCol = r.bytes_up,
        pkts_down: NarrowCol = r.pkts_down,
        pkts_up: NarrowCol = r.pkts_up,
        peak_down_1s: NarrowCol = r.peak_down_1s,
        peak_up_1s: NarrowCol = r.peak_up_1s,
    }
    rebuild |router| PacketStatsRecord {
        router,
        at,
        bytes_down,
        bytes_up,
        pkts_down,
        pkts_up,
        peak_down_1s,
        peak_up_1s,
    }
}

columnar_table! {
    /// The flow table (Traffic data set) in columnar form: interned
    /// domains and delta-coded times, 40 resident bytes per record. `ended`
    /// is the chronological axis (records are emitted at completion);
    /// `started` stores as the flow duration before `ended`, which is
    /// small for real flows and losslessly wrapping for arbitrary input.
    table FlowTable: FlowRecord, tag "flows", key |r| (r.ended, r.started, r.device);
    /// Flat record iterator over a [`FlowTable`].
    iter FlowsIter, router RouterFlows, resident ResidentFlows;
    cols FlowCols |r| {
        ended: TimeCol = r.ended,
        dur: NarrowCol = r.ended.as_micros().wrapping_sub(r.started.as_micros()),
        device: Dense<AnonMac> = r.device,
        remote_ip_hash: Dense<u64> = r.remote_ip_hash,
        remote_port: Dense<u16> = r.remote_port,
        proto: Dense<IpProtocol> = r.proto,
        domain: Domains = r.domain,
        bytes_down: NarrowCol = r.bytes_down,
        bytes_up: NarrowCol = r.bytes_up,
    }
    rebuild |router| FlowRecord {
        router,
        started: SimTime::from_micros(ended.as_micros().wrapping_sub(dur)),
        ended,
        device,
        remote_ip_hash,
        remote_port,
        proto,
        domain: domain.clone(),
        bytes_down,
        bytes_up,
    }
}

columnar_table! {
    /// The DNS-sample table (Traffic data set) in columnar form: interned
    /// names, 18 resident bytes per record.
    table DnsTable: DnsSampleRecord, tag "dns", key |r| (r.at, r.device);
    /// Flat record iterator over a [`DnsTable`].
    iter DnsIter, router RouterDns, resident ResidentDns;
    cols DnsCols |r| {
        at: TimeCol = r.at,
        device: Dense<AnonMac> = r.device,
        name: Domains = r.name,
        cname_links: Dense<u8> = r.cname_links,
        resolved: Dense<bool> = r.resolved,
    }
    rebuild |router| DnsSampleRecord {
        router,
        at,
        device,
        name: name.clone(),
        cname_links,
        resolved,
    }
}

columnar_table! {
    /// The MAC-sighting table (Traffic data set) in columnar form: 16
    /// resident bytes per record.
    table MacTable: MacSightingRecord, tag "macs", key |r| (r.first_seen, r.device);
    /// Flat record iterator over a [`MacTable`].
    iter MacsIter, router RouterMacs, resident ResidentMacs;
    cols MacCols |r| {
        first_seen: TimeCol = r.first_seen,
        device: Dense<AnonMac> = r.device,
        bytes_total: NarrowCol = r.bytes_total,
    }
    rebuild |router| MacSightingRecord { router, first_seen, device, bytes_total }
}

columnar_table! {
    /// The WiFi-scan table in columnar form: flattened AP sightings, 10
    /// resident bytes per scan plus 10 per neighbor instead of a 56-byte
    /// row plus a heap `Vec` per scan.
    table WifiTable: WifiScanRecord, tag "wifi", key |r| (r.at, r.band);
    /// Flat record iterator over a [`WifiTable`].
    iter WifiIter, router RouterWifi, resident ResidentWifi;
    cols WifiCols |r| {
        at: TimeCol = r.at,
        band: Dense<Band> = r.band,
        associated_stations: Dense<u8> = r.associated_stations,
        aps: ApSightings = r.aps,
    }
    rebuild |router| WifiScanRecord { router, at, band, aps, associated_stations }
}

columnar_table! {
    /// The association table in columnar form: 13 resident bytes per
    /// record.
    table AssociationTable: AssociationRecord, tag "associations",
        key |r| (r.at, r.device, r.medium);
    /// Flat record iterator over an [`AssociationTable`].
    iter AssociationsIter, router RouterAssociations, resident ResidentAssociations;
    cols AssociationCols |r| {
        at: TimeCol = r.at,
        device: Dense<AnonMac> = r.device,
        medium: Dense<Medium> = r.medium,
    }
    rebuild |router| AssociationRecord { router, at, device, medium }
}

columnar_table! {
    /// The latency-probe table in columnar form: RTTs as narrow
    /// microsecond columns (a home's RTT is tens of milliseconds, far
    /// under the `u32` escape), 17 resident bytes per record.
    table LatencyTable: LatencyRecord, tag "latency", key |r| r.at;
    /// Flat record iterator over a [`LatencyTable`].
    iter LatencyIter, router RouterLatency, resident ResidentLatency;
    cols LatencyCols |r| {
        at: TimeCol = r.at,
        rtt_min: NarrowCol = r.rtt_min.as_micros(),
        rtt_median: NarrowCol = r.rtt_median.as_micros(),
        rtt_max: NarrowCol = r.rtt_max.as_micros(),
        lost: Dense<u8> = r.lost,
    }
    rebuild |router| LatencyRecord {
        router,
        at,
        rtt_min: SimDuration::from_micros(rtt_min),
        rtt_median: SimDuration::from_micros(rtt_median),
        rtt_max: SimDuration::from_micros(rtt_max),
        lost,
    }
}

columnar_table! {
    /// The NAT-probe table in columnar form: 16 resident bytes per record.
    /// Mapped-address hashes are dense `u64`s (they never fit a narrow
    /// lane anyway).
    table NatProbeTable: NatProbeRecord, tag "nat-probes", key |r| r.at;
    /// Flat record iterator over a [`NatProbeTable`].
    iter NatProbesIter, router RouterNatProbes, resident ResidentNatProbes;
    cols NatProbeCols |r| {
        at: TimeCol = r.at,
        nat_type: Dense<NatType> = r.nat_type,
        mapped_ip_hash: Dense<u64> = r.mapped_ip_hash,
        mapped_port: Dense<u16> = r.mapped_port,
        cgn_detected: Dense<bool> = r.cgn_detected,
    }
    rebuild |router| NatProbeRecord {
        router,
        at,
        nat_type,
        mapped_ip_hash,
        mapped_port,
        cgn_detected,
    }
}

columnar_table! {
    /// The hole-punch-trial table in columnar form: peer router ids in a
    /// narrow lane, 11 resident bytes per record.
    table PunchTrialTable: PunchTrialRecord, tag "punch-trials", key |r| (r.at, r.peer);
    /// Flat record iterator over a [`PunchTrialTable`].
    iter PunchTrialsIter, router RouterPunchTrials, resident ResidentPunchTrials;
    cols PunchTrialCols |r| {
        at: TimeCol = r.at,
        peer: NarrowCol = u64::from(r.peer.0),
        local_type: Dense<NatType> = r.local_type,
        peer_type: Dense<NatType> = r.peer_type,
        success: Dense<bool> = r.success,
    }
    rebuild |router| PunchTrialRecord {
        router,
        at,
        peer: RouterId(peer as u32),
        local_type,
        peer_type,
        success,
    }
}

columnar_table! {
    /// The uptime table: whole rows, 24 resident bytes each (see the
    /// module docs for why the four small tables keep whole rows).
    table UptimeTable: UptimeRecord, tag "uptime", key |r| r.at;
    /// Flat record iterator over an [`UptimeTable`].
    iter UptimeIter, router RouterUptime, resident ResidentUptime;
    cols UptimeCols |r| {
        row: Dense<UptimeRecord> = *r,
    }
    rebuild |_router| row
}

columnar_table! {
    /// The capacity table: whole rows, 32 resident bytes each.
    table CapacityTable: CapacityRecord, tag "capacity", key |r| r.at;
    /// Flat record iterator over a [`CapacityTable`].
    iter CapacityIter, router RouterCapacity, resident ResidentCapacity;
    cols CapacityCols |r| {
        row: Dense<CapacityRecord> = *r,
    }
    rebuild |_router| row
}

columnar_table! {
    /// The device-census table: whole rows, 16 resident bytes each.
    table CensusTable: DeviceCensusRecord, tag "devices", key |r| r.at;
    /// Flat record iterator over a [`CensusTable`].
    iter CensusIter, router RouterCensuses, resident ResidentCensuses;
    cols CensusCols |r| {
        row: Dense<DeviceCensusRecord> = *r,
    }
    rebuild |_router| row
}

columnar_table! {
    /// The upload-gap ledger: whole rows, 48 resident bytes each, in
    /// first-lost-batch order per router. Empty unless faults destroyed
    /// spooled data.
    table UploadGapTable: UploadGapRecord, tag "upload-gaps", key |r| r.first_seq;
    /// Flat record iterator over an [`UploadGapTable`].
    iter UploadGapsIter, router RouterUploadGaps, resident ResidentUploadGaps;
    cols UploadGapCols |r| {
        row: Dense<UploadGapRecord> = *r,
    }
    rebuild |_router| row
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
        let mut col = TimeCol::EMPTY;
        for v in &inputs {
            col.append(v);
        }
        assert_eq!(col.iter().collect::<Vec<_>>(), inputs);
        assert_eq!(col.len(), 7);
        // Only the three non-delta-codable entries hit the wide lane.
        assert_eq!(col.lanes.wide.len(), 3);
    }

    #[test]
    fn narrow_col_round_trips_across_the_escape_threshold() {
        let inputs =
            vec![0, 1, u64::from(u32::MAX) - 1, u64::from(u32::MAX), u64::from(u32::MAX) + 1, u64::MAX];
        let mut col = NarrowCol::EMPTY;
        for v in &inputs {
            col.append(v);
        }
        assert_eq!(col.iter().collect::<Vec<_>>(), inputs);
        assert_eq!(col.0.wide.len(), 3);
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
    fn flow_heap_bytes_count_the_two_byte_protocol() {
        // 1,024 escape-free flows: every column at capacity 1,024, 40
        // bytes per flow — `IpProtocol` is 2 bytes (`Other` carries one).
        let mut table = FlowTable::default();
        for i in 0..1_024 {
            table.push(flow(1, i, i + 1, 1, i % 3));
        }
        assert!(table.heap_bytes() >= 1_024 * 40, "{}", table.heap_bytes());
    }

    #[test]
    fn resident_bytes_sum_the_column_widths() {
        let (router, at) = (RouterId(1), t(1));
        let device = AnonMac { oui: 1, suffix_hash: 2 };
        let ap = ApSighting { bssid_hash: 3, channel_number: 6, signal_dbm: -50 };
        let scan = |aps| WifiScanRecord { router, at, band: Band::Ghz5, aps, associated_stations: 0 };
        let rtt = SimDuration::from_micros(20_000);
        let nat = NatType::FullCone;
        let figures = [
            (PacketStatsTable::resident_bytes(&PacketStatsRecord {
                router,
                at,
                bytes_down: 1,
                bytes_up: 2,
                pkts_down: 3,
                pkts_up: 4,
                peak_down_1s: 5,
                peak_up_1s: 6,
            }), 28),
            (FlowTable::resident_bytes(&flow(1, 0, 1, 1, 5)), 40),
            (DnsTable::resident_bytes(&DnsSampleRecord {
                router,
                at,
                device,
                name: ReportedDomain::Obfuscated(7),
                cname_links: 0,
                resolved: true,
            }), 18),
            (MacTable::resident_bytes(&MacSightingRecord {
                router,
                first_seen: at,
                device,
                bytes_total: 9,
            }), 16),
            (WifiTable::resident_bytes(&scan(vec![])), 10),
            (WifiTable::resident_bytes(&scan(vec![ap; 3])), 40),
            (AssociationTable::resident_bytes(&AssociationRecord {
                router,
                at,
                device,
                medium: Medium::Wired,
            }), 13),
            (LatencyTable::resident_bytes(&LatencyRecord {
                router,
                at,
                rtt_min: rtt,
                rtt_median: rtt,
                rtt_max: rtt,
                lost: 0,
            }), 17),
            (NatProbeTable::resident_bytes(&NatProbeRecord {
                router,
                at,
                nat_type: nat,
                mapped_ip_hash: 8,
                mapped_port: 9,
                cgn_detected: false,
            }), 16),
            (PunchTrialTable::resident_bytes(&PunchTrialRecord {
                router,
                at,
                peer: RouterId(2),
                local_type: nat,
                peer_type: nat,
                success: true,
            }), 11),
            (UptimeTable::resident_bytes(&UptimeRecord { router, at, uptime: rtt }), 24),
            (CapacityTable::resident_bytes(&CapacityRecord {
                router,
                at,
                down_bps: 1,
                up_bps: 2,
                shaping_detected: false,
            }), 32),
            (CensusTable::resident_bytes(&DeviceCensusRecord {
                router,
                at,
                wired: 1,
                wireless_24: 2,
                wireless_5: 3,
            }), 16),
            (UploadGapTable::resident_bytes(&UploadGapRecord {
                router,
                first_seq: 1,
                last_seq: 2,
                records_lost: 3,
                from: at,
                to: at,
                cause: GapCause::Evicted,
            }), 48),
        ];
        for (i, (got, want)) in figures.into_iter().enumerate() {
            assert_eq!(got, want, "figure {i}");
        }
    }

    #[test]
    fn flow_cols_encode_decode_round_trips() {
        let mut cols = FlowCols::EMPTY;
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

    /// One valid encoded block per table, each holding records that
    /// exercise the escape lanes (backward and far-forward times, 64-bit
    /// counters) and every tag value (bands, media, NAT types, flags, gap
    /// causes).
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
        let mut ps = PacketStatsCols::EMPTY;
        let mut fl = FlowCols::EMPTY;
        let mut dn = DnsCols::EMPTY;
        let mut mc = MacCols::EMPTY;
        let mut wf = WifiCols::EMPTY;
        let mut ac = AssociationCols::EMPTY;
        let mut lt = LatencyCols::EMPTY;
        let mut np = NatProbeCols::EMPTY;
        let mut pt = PunchTrialCols::EMPTY;
        let mut up = UptimeCols::EMPTY;
        let mut cp = CapacityCols::EMPTY;
        let mut cs = CensusCols::EMPTY;
        let mut ug = UploadGapCols::EMPTY;
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
            up.append(&UptimeRecord { router: r, at, uptime: SimDuration::from_micros(big) });
            cp.append(&CapacityRecord {
                router: r,
                at,
                down_bps: big,
                up_bps: i as u64,
                shaping_detected: i % 2 == 1,
            });
            cs.append(&DeviceCensusRecord {
                router: r,
                at,
                wired: i as u8,
                wireless_24: 2 * i as u8,
                wireless_5: u8::MAX - i as u8,
            });
            ug.append(&UploadGapRecord {
                router: r,
                first_seq: i as u64,
                last_seq: big,
                records_lost: 3 * i as u64,
                from: at,
                to: times[3 - i],
                cause: [GapCause::Evicted, GapCause::FlashWipe][i % 2],
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
            ("UptimeCols", block(up, UptimeCols::encode)),
            ("CapacityCols", block(cp, CapacityCols::encode)),
            ("CensusCols", block(cs, CensusCols::encode)),
            ("UploadGapCols", block(ug, UploadGapCols::encode)),
        ]
    }

    /// The segment bytes of every table, pinned by FNV-1a digests of
    /// [`valid_blocks`]: a change to any column's framing, or to the
    /// order of a table's columns, moves one of them.
    #[test]
    fn valid_blocks_encode_to_pinned_bytes() {
        let pinned = [
            ("PacketStatsCols", 0x43fb_568f_9cc3_7dba),
            ("FlowCols", 0x0ed7_ade9_3824_ac91),
            ("DnsCols", 0xc490_5922_4867_9008),
            ("MacCols", 0x3d2e_0377_eac7_477c),
            ("WifiCols", 0x94d7_f99b_bf83_5b8e),
            ("AssociationCols", 0x53ee_025d_5701_ffb3),
            ("LatencyCols", 0x0f6b_b203_fad1_931a),
            ("NatProbeCols", 0xdfa5_63b4_f59d_0c42),
            ("PunchTrialCols", 0x7030_d857_2628_0f46),
            ("UptimeCols", 0xdec5_b946_505b_05d5),
            ("CapacityCols", 0xda8b_d77b_7661_d17f),
            ("CensusCols", 0x6018_e2e0_ebe2_df5b),
            ("UploadGapCols", 0xad0b_5655_7bcb_892d),
        ];
        let got: Vec<(&str, u64)> =
            valid_blocks().iter().map(|(table, block)| (*table, obs::fnv1a64(block))).collect();
        assert_eq!(got, pinned);
    }

    #[test]
    fn whole_rows_frame_their_fields_little_endian_and_reject_bad_tags() {
        let gap = UploadGapRecord {
            router: RouterId(0x0102_0304),
            first_seq: 5,
            last_seq: 6,
            records_lost: 7,
            from: SimTime::from_micros(8),
            to: SimTime::from_micros(9),
            cause: GapCause::FlashWipe,
        };
        let mut cols = UploadGapCols::EMPTY;
        cols.append(&gap);
        let mut buf = Vec::new();
        cols.encode(&mut buf);
        let mut want = 1u64.to_le_bytes().to_vec();
        want.extend(0x0102_0304u32.to_le_bytes());
        for v in [5u64, 6, 7, 8, 9] {
            want.extend(v.to_le_bytes());
        }
        want.push(1);
        assert_eq!(buf, want);
        assert_eq!(UploadGapRecord::WIRE, want.len() - 8);
        *buf.last_mut().unwrap() = 2;
        assert!(UploadGapCols::decode(&mut Cursor::new(&buf)).is_err(), "gap cause 2");
        let mut cols = CapacityCols::EMPTY;
        cols.append(&CapacityRecord {
            router: RouterId(1),
            at: t(1),
            down_bps: 2,
            up_bps: 3,
            shaping_detected: true,
        });
        let mut buf = Vec::new();
        cols.encode(&mut buf);
        *buf.last_mut().unwrap() = 2;
        assert!(CapacityCols::decode(&mut Cursor::new(&buf)).is_err(), "flag 2");
    }

    /// Decode `bytes` as a block of every one of the 13 column groups.
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
            PunchTrialCols,
            UptimeCols,
            CapacityCols,
            CensusCols,
            UploadGapCols
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
                table in 0usize..13,
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
