//! Content-addressed result caching for repeated-read workloads.
//!
//! Real read-mapping traffic is heavily duplicated: PCR duplicates,
//! resequenced reads and repeated query/subject pairs mean the same
//! `(scheme, q, s)` DP problem is solved many times per run. The
//! [`ResultCache`] is a sharded, byte-budgeted store of finished batch
//! results, consulted by the [`BatchScheduler`](crate::BatchScheduler)
//! *before* work units are formed — cached pairs never reach a backend
//! — and filled from unit results after execution.
//!
//! **Key.** One 64-bit [`CacheKey`] per request: the scheme
//! fingerprint, the request kind and the word-wise [`content_hash`] of
//! query and subject (each folds its length in), mixed in that order.
//! Every table on the request path uses the word as it is — low bits
//! pick the shard, the high half is tag and home slot inside it, the
//! scheduler's in-batch dedup indexes with it — and nothing re-hashes.
//!
//! **Collisions.** The key is fast, not cryptographic. Byte equality is
//! the only thing that serves a hit: a probe walks the entries carrying
//! its key and takes the one whose stored lengths and code bytes equal
//! the borrowed [`PairRef`]'s. A carrier with other bytes is counted
//! (`cache.collisions`, reported when non-zero) and skipped, so
//! colliding requests live side by side and never get each other's
//! answer; crafted collisions cost a longer walk, bounded by one
//! shard's entries.
//!
//! **Layout and eviction.** A shard is a byte ring plus a flat
//! open-addressing table of `tag ‖ offset` words. An entry is written
//! once at the ring's head — a 24-byte header, then `q ‖ s ‖ value` in
//! place — so nothing is allocated or freed per entry. Room is made at
//! the tail: the oldest entry is dropped, unless a hit marked it since
//! it was written; then it moves to the head unmarked (second chance).
//! Ring and table grow on demand, both count against the budget, and
//! an entry larger than a whole ring is refused before a byte is copied.
//!
//! **Locking.** [`ResultCache::get_many`] and
//! [`ResultCache::insert_many`] bucket their keys by shard and take
//! each shard's lock once per call. The locks are the `parking_lot`
//! shim's, which recover the guard: a panic that unwinds under one
//! does not turn every later call on that shard into a panic.
//!
//! **Zero-copy.** Probing hashes and compares the borrowed slices in
//! place. Inserting retains one copy of the pair's code bytes (the
//! verification material) — a deliberate second ingest point, counted
//! as `cache.ingest_bytes` and in the resident `cache.bytes` gauge, not
//! under the dispatch path's `*.bytes_copied`, which stays zero.

use crate::spec::SchemeSpec;
use anyseq_core::alignment::AlignOp;
use anyseq_core::score::Score;
use anyseq_core::Alignment;
use anyseq_seq::{content_hash, PairRef};
use parking_lot::Mutex;

/// `BatchStats::counters` name: pairs served from the cache (including
/// in-batch duplicates served from their leader's result).
pub const CACHE_HITS: &str = "cache.hits";
/// `BatchStats::counters` name: pairs that had to be computed.
/// `cache.hits + cache.misses == pairs` on every cache-enabled run.
pub const CACHE_MISSES: &str = "cache.misses";
/// `BatchStats::counters` name: resident cache bytes after the run
/// (a gauge snapshot, not an additive counter).
pub const CACHE_BYTES: &str = "cache.bytes";
/// `BatchStats::counters` name: entries evicted by the byte budget
/// during the run.
pub const CACHE_EVICTIONS: &str = "cache.evictions";
/// `BatchStats::counters` name: probes that met their key on other
/// bytes during the run (only present when non-zero — expected never).
pub const CACHE_COLLISIONS: &str = "cache.collisions";
/// `BatchStats::counters` name: sequence bytes retained by cache
/// inserts this run (the cache's own ingest copy; distinct from the
/// dispatch-path `*.bytes_copied` convention, which stays zero).
pub const CACHE_INGEST_BYTES: &str = "cache.ingest_bytes";

/// What a cached entry answers: a score-only request or a full
/// alignment (traceback) request. Part of the key — the two never
/// alias.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReqKind {
    /// `score_batch` results.
    Score,
    /// `align_batch` results.
    Align,
}

/// The identity of one request — scheme, request kind, both sequences
/// and their lengths — in one well-mixed word (see the module docs).
/// Requests with different keys differ; requests with the same key are
/// the same only if their bytes say so.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheKey(pub u64);

impl CacheKey {
    /// Derives the key for one borrowed pair under an already-computed
    /// scheme fingerprint (hashes the code slices in place; copies
    /// nothing).
    pub fn new(scheme: u64, pair: &PairRef<'_>, kind: ReqKind) -> CacheKey {
        let fold = |h: u64, word: u64| {
            let x = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            x ^ (x >> 29)
        };
        let request = fold(scheme, 1 + kind as u64);
        let q = fold(request, content_hash(pair.q));
        CacheKey(fold(q, content_hash(pair.s)))
    }

    /// Derives the key for one borrowed pair under a scheme spec.
    pub fn for_pair(spec: &SchemeSpec, pair: &PairRef<'_>, kind: ReqKind) -> CacheKey {
        CacheKey::new(spec.fingerprint(), pair, kind)
    }

    fn shard(self) -> usize {
        self.0 as usize % ResultCache::SHARDS
    }

    /// What a shard's table keeps of the key: its high half, whose low
    /// bits are also the entry's home slot.
    fn tag(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// Result types the cache stores in place: implemented for [`Score`]
/// and [`Alignment`]. Sealed in practice — the scheduler is generic
/// over this.
pub trait CacheableResult: Clone + Send {
    /// The request kind this type answers.
    const KIND: ReqKind;

    /// How many bytes [`CacheableResult::encode`] writes.
    fn encoded_len(&self) -> usize;

    /// Writes the value into `out`, `encoded_len` bytes long.
    fn encode(&self, out: &mut [u8]);

    /// Reads back what `encode` wrote; `None` for bytes another result
    /// type wrote (which the keying already prevents).
    fn decode(bytes: &[u8]) -> Option<Self>;
}

impl CacheableResult for Score {
    const KIND: ReqKind = ReqKind::Score;

    fn encoded_len(&self) -> usize {
        std::mem::size_of::<Score>()
    }

    fn encode(&self, out: &mut [u8]) {
        out.copy_from_slice(&self.to_le_bytes());
    }

    fn decode(bytes: &[u8]) -> Option<Score> {
        bytes.try_into().ok().map(Score::from_le_bytes)
    }
}

/// Alignment ops by their stored byte.
const OPS: [AlignOp; 4] = [
    AlignOp::Match,
    AlignOp::Mismatch,
    AlignOp::GapS,
    AlignOp::GapQ,
];
/// Stored bytes ahead of an alignment's ops: the score and the four
/// region bounds, a `u64` each.
const ALIGN_FIXED: usize = 5 * 8;

impl CacheableResult for Alignment {
    const KIND: ReqKind = ReqKind::Align;

    fn encoded_len(&self) -> usize {
        ALIGN_FIXED + self.ops.len()
    }

    fn encode(&self, out: &mut [u8]) {
        let bounds = [self.q_start, self.q_end, self.s_start, self.s_end];
        let words = [self.score as u64]
            .into_iter()
            .chain(bounds.map(|b| b as u64));
        for (slot, word) in out.chunks_exact_mut(8).zip(words) {
            slot.copy_from_slice(&word.to_le_bytes());
        }
        for (byte, op) in out[ALIGN_FIXED..].iter_mut().zip(&self.ops) {
            *byte = *op as u8;
        }
    }

    fn decode(bytes: &[u8]) -> Option<Alignment> {
        let (fixed, ops) = bytes.split_at_checked(ALIGN_FIXED)?;
        let word =
            |i: usize| u64::from_le_bytes(fixed[8 * i..8 * i + 8].try_into().expect("8 bytes"));
        let ops = ops.iter().map(|&b| OPS.get(b as usize).copied());
        Some(Alignment {
            score: word(0) as Score,
            ops: ops.collect::<Option<_>>()?,
            q_start: word(1) as usize,
            q_end: word(2) as usize,
            s_start: word(3) as usize,
            s_end: word(4) as usize,
        })
    }
}

/// Bytes ahead of an entry's `q ‖ s ‖ value`: the key, then the two
/// sequence lengths, the value length and the flags as `u32`s.
const HEADER: usize = 24;
/// Entry flag: a probe hit this entry since it was written.
const REFERENCED: u32 = 1;
/// Entry flag: replaced by a later copy; no table slot points here.
const DEAD: u32 = 2;
/// An unused table slot (no offset is this large, see [`Shard::new`]).
const EMPTY: u64 = u64::MAX;

/// An entry's header, read out of the ring.
struct Header {
    key: u64,
    q_len: usize,
    s_len: usize,
    value_len: usize,
    flags: u32,
}

/// Ring bytes of an entry with `payload` bytes of `q ‖ s ‖ value`:
/// entries start 8-byte aligned.
fn entry_size(payload: usize) -> usize {
    HEADER + payload.next_multiple_of(8)
}

/// One lock-guarded shard: a byte ring of entries, oldest at `tail` and
/// newest below `head`, and an open-addressing table over it.
///
/// Entries never straddle the ring's end. Either the live bytes are `tail..head`, or — `wrapped`, the head
/// having started over below the tail — `tail..end` and then `0..head`.
struct Shard {
    ring: Vec<u8>,
    /// Most bytes the ring may span.
    cap: usize,
    head: usize,
    tail: usize,
    end: usize,
    wrapped: bool,
    /// `tag << 32 | offset / 8` per entry, linear probing from slot
    /// `tag & mask`; at most half full, doubling up to `max_slots`.
    table: Vec<u64>,
    max_slots: usize,
    /// Entries, and the traffic so far (`bytes` is worked out when the
    /// stats are read); per shard, so that skew between shards — a key
    /// mix that hashes unevenly — is visible.
    stats: ShardStats,
}

impl Shard {
    /// A shard that keeps ring and table together within `budget`
    /// bytes. The table may take a sixteenth of it (an eighth when that
    /// is no power of two): a slot pair per ~256 budget bytes, more
    /// than a ring of read-sized entries can use.
    fn new(budget: usize) -> Shard {
        let max_slots = (budget / 128).next_power_of_two().max(2);
        let cap = budget.saturating_sub(max_slots * 8) / 8 * 8;
        Shard {
            ring: Vec::new(),
            // Offsets are stored in 8-byte units in 32 bits.
            cap: cap.min((u32::MAX as usize).saturating_mul(8) - 8),
            head: 0,
            tail: 0,
            end: 0,
            wrapped: false,
            table: Vec::new(),
            max_slots,
            stats: ShardStats::default(),
        }
    }

    fn header(&self, off: usize) -> Header {
        let word =
            |at: usize| u64::from_le_bytes(self.ring[at..at + 8].try_into().expect("8 bytes"));
        let (lens, rest) = (word(off + 8), word(off + 16));
        Header {
            key: word(off),
            q_len: lens as u32 as usize,
            s_len: (lens >> 32) as usize,
            value_len: rest as u32 as usize,
            flags: (rest >> 32) as u32,
        }
    }

    fn set_flags(&mut self, off: usize, flags: u32) {
        self.ring[off + 20..off + HEADER].copy_from_slice(&flags.to_le_bytes());
    }

    /// The entry carrying `key` whose bytes are `pair`'s, as its table
    /// slot, ring offset and header. Carriers of the key with other
    /// bytes count as collisions when `counted`.
    fn find(
        &mut self,
        key: CacheKey,
        pair: &PairRef<'_>,
        counted: bool,
    ) -> Option<(usize, usize, Header)> {
        let mask = self.table.len().checked_sub(1)?;
        let mut i = key.tag() as usize & mask;
        // At most half the slots are taken: an empty one ends the walk.
        while self.table[i] != EMPTY {
            let off = self.table[i] as u32 as usize * 8;
            if (self.table[i] >> 32) as u32 == key.tag() && self.header(off).key == key.0 {
                let h = self.header(off);
                let seqs = &self.ring[off + HEADER..off + HEADER + h.q_len + h.s_len];
                if h.q_len == pair.q.len()
                    && seqs[..h.q_len] == *pair.q
                    && seqs[h.q_len..] == *pair.s
                {
                    return Some((i, off, h));
                }
                self.stats.collisions += counted as u64;
            }
            i = (i + 1) & mask;
        }
        None
    }

    fn get<T: CacheableResult>(&mut self, key: CacheKey, pair: &PairRef<'_>) -> Option<T> {
        let (_, off, h) = self.find(key, pair, true)?;
        let at = off + HEADER + h.q_len + h.s_len;
        let value = T::decode(&self.ring[at..at + h.value_len])?;
        if h.flags & REFERENCED == 0 {
            self.set_flags(off, h.flags | REFERENCED);
        }
        self.stats.hits += 1;
        Some(value)
    }

    /// Stores `value` for `pair`; returns whether the pair's bytes were
    /// copied in. They are not when an equal entry takes the new value
    /// where its old one lies, nor when the entry is larger than the
    /// ring could ever hold.
    fn insert<T: CacheableResult>(&mut self, key: CacheKey, pair: &PairRef<'_>, value: &T) -> bool {
        let (q_len, s_len, value_len) = (pair.q.len(), pair.s.len(), value.encoded_len());
        let payload = q_len.saturating_add(s_len).saturating_add(value_len);
        let lens_fit = [q_len, s_len, value_len]
            .iter()
            .all(|&len| u32::try_from(len).is_ok());
        if payload > self.cap.saturating_sub(HEADER) || !lens_fit {
            return false;
        }
        if let Some((slot, off, h)) = self.find(key, pair, false) {
            if h.value_len == value_len {
                let at = off + HEADER + q_len + s_len;
                value.encode(&mut self.ring[at..at + value_len]);
                self.set_flags(off, h.flags | REFERENCED);
                return false;
            }
            // A value of another length: retire the old copy where it
            // lies, until the tail passes it.
            self.unlink(slot);
            self.set_flags(off, DEAD);
            self.stats.entries -= 1;
        }
        while self.stats.entries as usize >= self.max_slots / 2 {
            self.evict_one();
        }
        let size = entry_size(payload);
        let off = self.claim(size);
        let lens = q_len as u64 | (s_len as u64) << 32;
        for (at, word) in [(off, key.0), (off + 8, lens), (off + 16, value_len as u64)] {
            self.ring[at..at + 8].copy_from_slice(&word.to_le_bytes());
        }
        let body = &mut self.ring[off + HEADER..off + size];
        body[..q_len].copy_from_slice(pair.q);
        body[q_len..q_len + s_len].copy_from_slice(pair.s);
        value.encode(&mut body[q_len + s_len..q_len + s_len + value_len]);
        self.stats.entries += 1;
        self.link((key.tag() as u64) << 32 | (off / 8) as u64);
        true
    }

    /// Enters a slot word into the table, doubling it first when that
    /// would leave it more than half full.
    fn link(&mut self, slot: u64) {
        let want = (self.stats.entries as usize * 2).next_power_of_two();
        let want = want.max(8).min(self.max_slots);
        let moved = if want > self.table.len() {
            std::mem::replace(&mut self.table, vec![EMPTY; want])
        } else {
            Vec::new()
        };
        let mask = self.table.len() - 1;
        for slot in moved.into_iter().filter(|&s| s != EMPTY).chain([slot]) {
            let mut i = (slot >> 32) as usize & mask;
            while self.table[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.table[i] = slot;
        }
    }

    /// Takes `size ≤ cap` bytes at the head, first evicting from the
    /// tail until they are free, and starting over at the bottom when
    /// the top cannot hold them.
    fn claim(&mut self, size: usize) -> usize {
        loop {
            if !self.wrapped && self.head + size > self.cap && size <= self.tail {
                (self.end, self.head, self.wrapped) = (self.head, 0, true);
            }
            let limit = if self.wrapped { self.tail } else { self.cap };
            if self.head + size <= limit {
                break;
            }
            self.evict_one();
        }
        let off = self.head;
        self.head += size;
        if self.ring.len() < self.head {
            self.ring.resize(self.head, 0);
        }
        off
    }

    /// Frees the oldest entry's bytes: drops the entry, or — if a hit
    /// marked it since it was written — moves it to the head unmarked.
    fn evict_one(&mut self) {
        let (off, h) = (self.tail, self.header(self.tail));
        let size = entry_size(h.q_len + h.s_len + h.value_len);
        self.tail += size;
        if self.wrapped && self.tail == self.end {
            (self.tail, self.wrapped) = (0, false);
        }
        if !self.wrapped && self.tail == self.head {
            (self.tail, self.head) = (0, 0);
        }
        if h.flags & DEAD != 0 {
            return;
        }
        let slot_of = |off: usize| h.key >> 32 << 32 | (off / 8) as u64;
        let mask = self.table.len() - 1;
        let mut i = (h.key >> 32) as usize & mask;
        while self.table[i] != slot_of(off) {
            i = (i + 1) & mask;
        }
        if h.flags & REFERENCED != 0 {
            // The head never passes the tail, so the bytes just freed
            // make room for the move (no eviction inside this claim);
            // source and target may overlap.
            self.set_flags(off, 0);
            let to = self.claim(size);
            self.ring.copy_within(off..off + size, to);
            self.table[i] = slot_of(to);
            return;
        }
        self.stats.entries -= 1;
        self.stats.evictions += 1;
        self.unlink(i);
    }

    /// Empties table slot `hole`, shifting back the entries that probed
    /// past it so every walk from a home slot stays unbroken.
    fn unlink(&mut self, mut hole: usize) {
        let mask = self.table.len() - 1;
        let mut i = (hole + 1) & mask;
        while self.table[i] != EMPTY {
            let home = (self.table[i] >> 32) as usize & mask;
            if (i.wrapping_sub(home) & mask) >= (i.wrapping_sub(hole) & mask) {
                self.table[hole] = self.table[i];
                hole = i;
            }
            i = (i + 1) & mask;
        }
        self.table[hole] = EMPTY;
    }
}

/// A point-in-time view of one cache shard — or, from
/// [`ResultCache::totals`], of all of them: the source for the
/// `anyseq_cache_shard_*` gauges and the `cache.*` counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Resident bytes: the ring as far as it has grown, plus the table.
    pub bytes: u64,
    /// Live entries.
    pub entries: u64,
    /// Cumulative verified hits served.
    pub hits: u64,
    /// Cumulative entries dropped to make room.
    pub evictions: u64,
    /// Cumulative probes that met their key on other bytes.
    pub collisions: u64,
}

/// A sharded, byte-budgeted store of finished batch results, keyed on
/// content hashes and verified on bytes — see the module docs for the
/// key derivation, collision policy, layout and eviction.
///
/// Thread-safe: shards lock independently, and the `_many` calls hold
/// each shard's lock once.
///
/// ```
/// use anyseq_engine::cache::{CacheKey, ReqKind, ResultCache};
/// use anyseq_engine::SchemeSpec;
/// use anyseq_seq::PairRef;
///
/// let cache = ResultCache::with_budget(1 << 20);
/// let spec = SchemeSpec::global_linear(2, -1, -1);
/// let (q, s) = ([0u8, 1, 2, 3], [0u8, 1, 2]);
/// let pair = PairRef::new(&q, &s);
/// let key = CacheKey::for_pair(&spec, &pair, ReqKind::Score);
/// assert_eq!(cache.get::<i32>(key, &pair), None);
/// cache.insert(key, &pair, &42i32);
/// assert_eq!(cache.get::<i32>(key, &pair), Some(42));
/// ```
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    budget: usize,
}

impl ResultCache {
    /// Number of independently locked shards.
    pub const SHARDS: usize = 16;

    /// A cache bounded to `bytes` of resident memory (entries and the
    /// tables over them), split evenly across [`ResultCache::SHARDS`]
    /// shards. Nothing is allocated until entries arrive. A zero budget
    /// caches nothing (every entry is larger than the ring).
    pub fn with_budget(bytes: usize) -> ResultCache {
        let shard = || Mutex::new(Shard::new(bytes / Self::SHARDS));
        ResultCache {
            shards: (0..Self::SHARDS).map(|_| shard()).collect(),
            budget: bytes,
        }
    }

    /// Calls `visit(shard, i)` for every `keys[i]`, shard by shard
    /// under one lock hold each.
    fn by_shard(&self, keys: &[CacheKey], mut visit: impl FnMut(&mut Shard, usize)) {
        let mut starts = [0usize; Self::SHARDS + 1];
        for key in keys {
            starts[key.shard() + 1] += 1;
        }
        for s in 0..Self::SHARDS {
            starts[s + 1] += starts[s];
        }
        let (mut order, mut next) = (vec![0usize; keys.len()], starts);
        for (i, key) in keys.iter().enumerate() {
            order[next[key.shard()]] = i;
            next[key.shard()] += 1;
        }
        for s in 0..Self::SHARDS {
            let bucket = &order[starts[s]..starts[s + 1]];
            if !bucket.is_empty() {
                let mut shard = self.shards[s].lock();
                bucket.iter().for_each(|&i| visit(&mut shard, i));
            }
        }
    }

    /// Looks up every `keys[i]`, serving a value only from an entry
    /// whose stored bytes equal `pairs[i]` (see the collision policy in
    /// the module docs). A hit marks the entry as recently used.
    pub fn get_many<T: CacheableResult>(
        &self,
        keys: &[CacheKey],
        pairs: &[PairRef<'_>],
    ) -> Vec<Option<T>> {
        assert_eq!(keys.len(), pairs.len(), "one pair per key");
        let mut found: Vec<Option<T>> = keys.iter().map(|_| None).collect();
        self.by_shard(keys, |shard, i| found[i] = shard.get(keys[i], &pairs[i]));
        found
    }

    /// [`ResultCache::get_many`] for one pair.
    pub fn get<T: CacheableResult>(&self, key: CacheKey, pair: &PairRef<'_>) -> Option<T> {
        self.get_many(&[key], &[*pair]).pop().flatten()
    }

    /// Stores `values[i]` for `pairs[i]` under `keys[i]`, each with a
    /// copy of its pair's code bytes as verification material, making
    /// room by evicting from the shard's tail. An entry larger than a
    /// shard's whole ring is refused before it is copied, and evicts
    /// nothing. Returns the sequence bytes the call retained.
    pub fn insert_many<T: CacheableResult>(
        &self,
        keys: &[CacheKey],
        pairs: &[PairRef<'_>],
        values: &[T],
    ) -> usize {
        assert!(keys.len() == pairs.len() && keys.len() == values.len());
        let mut retained = 0;
        self.by_shard(keys, |shard, i| {
            if shard.insert(keys[i], &pairs[i], &values[i]) {
                retained += pairs[i].q.len() + pairs[i].s.len();
            }
        });
        retained
    }

    /// [`ResultCache::insert_many`] for one pair.
    pub fn insert<T: CacheableResult>(
        &self,
        key: CacheKey,
        pair: &PairRef<'_>,
        value: &T,
    ) -> usize {
        self.insert_many(&[key], &[*pair], std::slice::from_ref(value))
    }

    /// Per-shard occupancy and traffic, in shard-index order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let stats = |shard: &Mutex<Shard>| {
            let shard = shard.lock();
            ShardStats {
                bytes: (shard.ring.len() + shard.table.len() * 8) as u64,
                ..shard.stats
            }
        };
        self.shards.iter().map(stats).collect()
    }

    /// The shards' stats summed: resident bytes and entries now;
    /// hits, evictions and collisions since construction (or the last
    /// [`ResultCache::clear`]).
    pub fn totals(&self) -> ShardStats {
        let mut sum = ShardStats::default();
        for shard in self.shard_stats() {
            sum.bytes += shard.bytes;
            sum.entries += shard.entries;
            sum.hits += shard.hits;
            sum.evictions += shard.evictions;
            sum.collisions += shard.collisions;
        }
        sum
    }

    /// The configured total byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Drops every entry, frees rings and tables, and resets the
    /// hit/eviction/collision totals.
    pub fn clear(&self) {
        for shard in &self.shards {
            *shard.lock() = Shard::new(self.budget / Self::SHARDS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::KindSpec;

    fn spec() -> SchemeSpec {
        SchemeSpec::global_linear(2, -1, -1)
    }

    /// The score-request key of `q` against itself.
    fn key_of(q: &[u8]) -> CacheKey {
        CacheKey::for_pair(&spec(), &PairRef::new(q, q), ReqKind::Score)
    }

    /// Deterministic test bytes: `n` codes off a stepped LCG state.
    fn codes(state: &mut u64, n: usize) -> Vec<u8> {
        let mut next = || {
            *state = (*state)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (*state >> 33) as u8 % 5
        };
        (0..n).map(|_| next()).collect()
    }

    #[test]
    fn score_and_align_round_trip_without_aliasing() {
        let cache = ResultCache::with_budget(1 << 20);
        let (q, s) = ([0u8, 1, 2, 3], [0u8, 1, 2, 3]);
        let pair = PairRef::new(&q, &s);
        let score_key = CacheKey::for_pair(&spec(), &pair, ReqKind::Score);
        let align_key = CacheKey::for_pair(&spec(), &pair, ReqKind::Align);
        assert_ne!(score_key, align_key, "request kinds never alias");

        let aln = Alignment {
            ops: OPS.iter().chain(&OPS[..2]).copied().collect(),
            q_start: 1,
            q_end: 4,
            s_end: 3,
            ..Alignment::empty(-8)
        };
        assert_eq!(cache.insert(score_key, &pair, &-8i32), 8);
        cache.insert(align_key, &pair, &aln);
        assert_eq!(cache.get::<Score>(score_key, &pair), Some(-8));
        assert_eq!(cache.get::<Alignment>(align_key, &pair), Some(aln));
        // Even a forged key cannot read one kind's bytes as the other.
        assert_eq!(cache.get::<Alignment>(score_key, &pair), None);
        assert_eq!(cache.get::<Score>(align_key, &pair), None);
        let now = cache.totals();
        assert_eq!((now.entries, now.collisions), (2, 0));
        assert!(now.bytes > 0);
    }

    #[test]
    fn different_schemes_never_alias() {
        let cache = ResultCache::with_budget(1 << 20);
        let other = SchemeSpec::global_linear(2, -1, -2);
        let (q, s) = ([0u8, 1], [1u8, 1]);
        let (pair, mirrored) = (PairRef::new(&q, &s), PairRef::new(&s, &q));
        let key = CacheKey::for_pair(&spec(), &pair, ReqKind::Score);
        cache.insert(key, &pair, &3i32);
        let probe = CacheKey::for_pair(&other, &pair, ReqKind::Score);
        assert_eq!(cache.get::<Score>(probe, &pair), None);
        // Nor do a pair and its mirror image.
        let probe = CacheKey::for_pair(&spec(), &mirrored, ReqKind::Score);
        assert_ne!(probe, key);
        assert_eq!(cache.get::<Score>(probe, &mirrored), None);
    }

    #[test]
    fn forced_hash_collision_is_rejected_by_the_byte_check() {
        // Different byte strings under — by construction — the same
        // key: exactly what a real 64-bit collision would look like.
        // The cache must refuse to serve the stored value for them.
        let cache = ResultCache::with_budget(1 << 20);
        let (stored, collider, subject) = ([0u8, 1, 2, 3], [3u8, 2, 1, 0], [1u8, 1, 1]);
        let key = CacheKey(42); // forged: every request here hashes to 42
        let genuine = PairRef::new(&stored, &subject);
        cache.insert(key, &genuine, &10i32);
        let colliders = [
            PairRef::new(&collider, &subject),    // other query bytes
            PairRef::new(&stored, &[2, 2, 2]),    // other subject bytes
            PairRef::new(&stored[..3], &subject), // a prefix of the stored bytes
        ];
        for (n, pair) in colliders.iter().enumerate() {
            assert_eq!(cache.get::<Score>(key, pair), None, "collider {n}");
            assert_eq!(cache.totals().collisions, n as u64 + 1);
        }
        // The genuine pair still hits, and is no collision.
        assert_eq!(cache.get::<Score>(key, &genuine), Some(10));
        assert_eq!(cache.totals().collisions, 3);
        // Colliding requests live side by side: each is served its own.
        cache.insert(key, &colliders[0], &11i32);
        assert_eq!(cache.totals().entries, 2);
        assert_eq!(cache.get::<Score>(key, &colliders[0]), Some(11));
        assert_eq!(cache.get::<Score>(key, &genuine), Some(10));
    }

    #[test]
    fn warm_entries_never_serve_a_different_kind() {
        // Property sweep: a warm Global entry must never answer a
        // SemiGlobal/Local/FreeEnd probe for the *same* pair — the kind
        // changes the optimum, so serving across kinds would silently
        // corrupt scores. The kind lives in the scheme fingerprint;
        // this pins that derivation.
        let cache = ResultCache::with_budget(1 << 20);
        let kinds = [KindSpec::SemiGlobal, KindSpec::Local, KindSpec::FreeEnd];
        let mut state = 0x243f_6a88_85a3_08d3u64;
        for trial in 0..200 {
            let q = codes(&mut state, 16 + trial % 48);
            let s = codes(&mut state, 16 + (trial * 7) % 48);
            let pair = PairRef::new(&q, &s);
            let global_key = CacheKey::for_pair(&spec(), &pair, ReqKind::Score);
            cache.insert(global_key, &pair, &(trial as i32));
            for kind in kinds {
                let probe = CacheKey::for_pair(&spec().with_kind(kind), &pair, ReqKind::Score);
                assert_ne!(probe, global_key, "trial {trial}: {kind:?} aliases Global");
                assert_eq!(
                    cache.get::<Score>(probe, &pair),
                    None,
                    "trial {trial}: {kind:?}"
                );
            }
            // The Global entry itself still hits.
            assert_eq!(cache.get::<Score>(global_key, &pair), Some(trial as i32));
        }
        assert_eq!(cache.totals().collisions, 0, "kind misses are clean");
    }

    #[test]
    fn lru_budget_evicts_oldest_first() {
        // A tiny budget and many entries: evictions must occur, resident
        // bytes must respect the budget, an entry is never the victim of
        // its own insert, and what a shard gave up is its oldest.
        let budget = ResultCache::SHARDS * 1024;
        let cache = ResultCache::with_budget(budget);
        let mut state = 3;
        let seqs: Vec<Vec<u8>> = (0..200).map(|_| codes(&mut state, 64)).collect();
        for (k, q) in seqs.iter().enumerate() {
            cache.insert(key_of(q), &PairRef::new(q, q), &(k as i32));
            assert!(cache.totals().bytes <= budget as u64, "insert {k}");
            assert_eq!(
                cache.get::<Score>(key_of(q), &PairRef::new(q, q)),
                Some(k as i32)
            );
        }
        assert!(
            cache.totals().evictions > 0,
            "budget must have forced evictions"
        );
        let mut oldest_alive = [usize::MAX; ResultCache::SHARDS];
        let mut newest_dead = [0; ResultCache::SHARDS];
        for (k, q) in seqs.iter().enumerate() {
            let shard = key_of(q).shard();
            match cache.get::<Score>(key_of(q), &PairRef::new(q, q)) {
                Some(_) => oldest_alive[shard] = oldest_alive[shard].min(k),
                None => newest_dead[shard] = newest_dead[shard].max(k),
            }
        }
        for (dead, alive) in newest_dead.iter().zip(oldest_alive) {
            assert!(*dead < alive, "a shard kept {alive} but dropped {dead}");
        }
    }

    #[test]
    fn touch_protects_recently_used_entries() {
        // Keep one entry hot by re-probing it between inserts; it must
        // outlive colder entries however often its shard turns over.
        let cache = ResultCache::with_budget(ResultCache::SHARDS * 600);
        let hot = vec![1u8; 32];
        let hot_pair = PairRef::new(&hot, &hot);
        cache.insert(key_of(&hot), &hot_pair, &7i32);
        let mut state = 9;
        for _ in 0..400 {
            let cold = codes(&mut state, 32);
            cache.insert(key_of(&cold), &PairRef::new(&cold, &cold), &1i32);
            // Touch the hot entry so the tail never finds it unmarked.
            assert_eq!(cache.get::<Score>(key_of(&hot), &hot_pair), Some(7));
        }
        let hot_shard = cache.shard_stats()[key_of(&hot).shard()];
        assert!(hot_shard.evictions > 0, "the hot shard turned over");
    }

    #[test]
    fn replacing_an_entry_updates_bytes_not_entries() {
        let cache = ResultCache::with_budget(1 << 20);
        let q = [0u8, 1, 2];
        let pair = PairRef::new(&q, &q);
        assert_eq!(cache.insert(key_of(&q), &pair, &1i32), 6);
        let before = cache.totals();
        assert_eq!(
            cache.insert(key_of(&q), &pair, &2i32),
            0,
            "no bytes copied again"
        );
        assert_eq!(cache.totals(), before);
        assert_eq!(cache.get::<Score>(key_of(&q), &pair), Some(2));
    }

    #[test]
    fn ring_wraps_with_mixed_entry_sizes() {
        // Thousands of alignments of 0–90 ops over 4–200-base reads,
        // through rings of under 2 KiB each, probed as they go:
        // whatever is served is exactly what was stored last — in place
        // or, for another length, as a fresh copy — and the budget
        // holds at every step.
        let budget = ResultCache::SHARDS * 2048;
        let cache = ResultCache::with_budget(budget);
        let mut state = 77;
        // Distinct by construction: each read starts with its index.
        let digits = |k: usize| [k / 125, k / 25, k / 5, k].map(|d| (d % 5) as u8).to_vec();
        let read = |k: usize| [digits(k), codes(&mut state, k * 37 % 197)].concat();
        let pool: Vec<Vec<u8>> = (0..300).map(read).collect();
        let key = |q: &[u8]| CacheKey::for_pair(&spec(), &PairRef::new(q, q), ReqKind::Align);
        let aligned = |k: usize, round: usize| Alignment {
            ops: vec![OPS[round % 4]; (k * 13 + round % 3) % 90],
            q_end: k,
            ..Alignment::empty(round as i32)
        };
        let mut last = vec![None; pool.len()];
        let mut served = 0;
        for step in 0..6000 {
            let draw = codes(&mut state, 4);
            let k = draw.iter().fold(0, |k, &c| k * 5 + c as usize) % pool.len();
            let (q, pair) = (&pool[k], PairRef::new(&pool[k], &pool[k]));
            if let (Some(round), Some(aln)) = (last[k], cache.get::<Alignment>(key(q), &pair)) {
                assert_eq!(aln, aligned(k, round), "step {step}");
                served += 1;
            }
            cache.insert(key(q), &pair, &aligned(k, step));
            last[k] = Some(step);
            assert_eq!(cache.get(key(q), &pair), Some(aligned(k, step)));
            assert!(cache.totals().bytes <= budget as u64, "step {step}");
        }
        let now = cache.totals();
        assert!(served > 100, "only {served} alignments were served again");
        assert!(now.evictions > 20 * now.entries, "barely wrapped: {now:?}");
        // An entry larger than a ring is refused, and evicts nothing.
        let big = vec![2u8; 2048];
        assert_eq!(
            cache.insert(key(&big), &PairRef::new(&big, &big), &aligned(0, 0)),
            0
        );
        assert_eq!(cache.totals(), now);
        // Every resident entry is reachable through the table.
        let found = |q: &Vec<u8>| {
            cache
                .get::<Alignment>(key(q), &PairRef::new(q, q))
                .is_some()
        };
        assert_eq!(pool.iter().filter(|q| found(q)).count() as u64, now.entries);
    }

    #[test]
    fn clear_resets_everything() {
        let cache = ResultCache::with_budget(ResultCache::SHARDS * 512);
        for k in 0..50u8 {
            let q = vec![k % 5; 24 + k as usize];
            cache.insert(key_of(&q), &PairRef::new(&q, &q), &(k as i32));
            cache.get::<Score>(key_of(&q), &PairRef::new(&q, &q));
        }
        let before = cache.totals();
        assert!(before.entries > 0 && before.hits > 0 && before.evictions > 0);
        cache.clear();
        assert_eq!(cache.totals(), ShardStats::default());
        // …and the cleared cache caches again.
        cache.insert(CacheKey(5), &PairRef::new(&[1, 2], &[3]), &4i32);
        assert_eq!(
            cache.get::<Score>(CacheKey(5), &PairRef::new(&[1, 2], &[3])),
            Some(4)
        );
    }

    #[test]
    fn shard_stats_track_hits_and_evictions() {
        let cache = ResultCache::with_budget(ResultCache::SHARDS * 600);
        assert_eq!(
            cache.shard_stats(),
            [ShardStats::default(); ResultCache::SHARDS]
        );
        let mut state = 5;
        for k in 0..64 {
            let q = codes(&mut state, 32);
            cache.insert(key_of(&q), &PairRef::new(&q, &q), &k);
            cache.get::<Score>(key_of(&q), &PairRef::new(&q, &q));
        }
        let (stats, sum) = (cache.shard_stats(), cache.totals());
        assert_eq!(sum.hits, 64, "every insert was re-read at once");
        assert!(sum.evictions > 0);
        assert_eq!(sum.entries + sum.evictions, 64);
        assert_eq!(
            stats.iter().map(|s| s.evictions).sum::<u64>(),
            sum.evictions
        );
        assert_eq!(stats.iter().map(|s| s.bytes).sum::<u64>(), sum.bytes);
        assert!(stats.iter().all(|s| s.bytes <= 600), "{stats:?}");
    }

    #[test]
    fn zero_budget_caches_nothing() {
        let cache = ResultCache::with_budget(0);
        let q = [0u8, 1];
        assert_eq!(cache.insert(key_of(&q), &PairRef::new(&q, &q), &5i32), 0);
        assert_eq!(cache.get::<Score>(key_of(&q), &PairRef::new(&q, &q)), None);
        assert_eq!(cache.totals(), ShardStats::default());
    }
}
