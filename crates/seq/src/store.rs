//! Zero-copy batch storage: the [`SeqStore`] arena plus the
//! [`BatchView`]/[`PairRef`] view types every batch engine consumes.
//!
//! The batch execution layer (`anyseq-engine`) used to move owned
//! [`Seq`] pairs around, which forced the scheduler to deep-clone every
//! pair's code vector when gathering a work unit — for exclusive units
//! holding multi-Mbp genomes that copy dominated wall time and doubled
//! peak memory. This module is the fix:
//!
//! * [`SeqStore`] — an append-only arena keeping all code bytes in one
//!   contiguous allocation, with per-entry offsets.
//! * [`PairRef`] — a pair of borrowed code slices (`&[u8]` query +
//!   subject), `Copy`, 32 bytes. Moving a `PairRef` moves pointers,
//!   never sequence bytes.
//! * [`BatchView`] — an ordered list of [`PairRef`]s over storage the
//!   caller keeps alive: the request shape of
//!   `Engine::score_batch`/`align_batch` and the `BatchScheduler`.
//!
//! Sequences are ingested (copied) exactly once — when they are read or
//! generated into a `Seq` or pushed into a `SeqStore` — and every layer
//! below that point works on borrowed slices.

use crate::seq::{Seq, SeqError};
use std::fmt;

/// 64-bit content hash over raw code bytes — the cheap, stable identity
/// result caching keys on. Stable across runs and platforms (unlike
/// `std::hash::DefaultHasher`); fast, not cryptographic, so whoever
/// serves a result on it verifies the bytes too.
///
/// Reads eight bytes per step on two independent multiply–xorshift
/// lanes. The length is folded in before the first word: code 0 is a
/// real base, so the zero-padded tail word of `[0; 9]` must not alias
/// `[0; 8]`.
pub fn content_hash(codes: &[u8]) -> u64 {
    fn mix(h: u64, word: u64) -> u64 {
        let x = (h ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x ^ (x >> 32)
    }
    let word = |bytes: &[u8]| u64::from_le_bytes(bytes.try_into().expect("an 8-byte chunk"));
    let mut a = mix(0xcbf2_9ce4_8422_2325, codes.len() as u64);
    let mut b = 0x8422_2325_cbf2_9ce4;
    let mut blocks = codes.chunks_exact(16);
    for block in &mut blocks {
        a = mix(a, word(&block[..8]));
        b = mix(b, word(&block[8..]));
    }
    let mut rest = blocks.remainder();
    if rest.len() >= 8 {
        a = mix(a, word(&rest[..8]));
        rest = &rest[8..];
    }
    if !rest.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        b = mix(b, u64::from_le_bytes(tail));
    }
    mix(a, b.rotate_left(32))
}

/// Index of one sequence inside a [`SeqStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeqId(u32);

/// The id the next entry would get, or [`SeqError::StoreFull`] when
/// the `u32` id space is exhausted — the testable seam behind
/// [`SeqStore::push`]'s capacity check.
fn next_id(entries: usize) -> Result<SeqId, SeqError> {
    match u32::try_from(entries) {
        Ok(id) => Ok(SeqId(id)),
        Err(_) => Err(SeqError::StoreFull { entries }),
    }
}

impl SeqId {
    /// The raw index (entries are numbered in push order).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An append-only arena of code sequences: one contiguous byte buffer
/// and per-entry offsets.
///
/// ```
/// use anyseq_seq::{Seq, SeqStore};
///
/// let mut store = SeqStore::new();
/// let q = store.push(&Seq::from_ascii(b"ACGT").unwrap()).unwrap();
/// let s = store.push_codes(&[0, 1, 2, 3, 3]).unwrap();
/// assert_eq!(store.get(q), &[0, 1, 2, 3]);
/// let view = store.view(&[(q, s)]);
/// assert_eq!(view.len(), 1);
/// assert_eq!(view.get(0).q, store.get(q));
/// ```
#[derive(Default, Clone)]
pub struct SeqStore {
    codes: Vec<u8>,
    /// `bounds[k]..bounds[k + 1]` delimits entry `k`; `bounds[0] == 0`.
    bounds: Vec<usize>,
}

impl SeqStore {
    /// An empty store.
    pub fn new() -> SeqStore {
        SeqStore {
            codes: Vec::new(),
            bounds: vec![0],
        }
    }

    /// An empty store with `bytes` of code capacity pre-allocated.
    pub fn with_capacity(bytes: usize) -> SeqStore {
        SeqStore {
            codes: Vec::with_capacity(bytes),
            bounds: vec![0],
        }
    }

    /// Most entries a store can hold: ids are `u32`, numbered from 0.
    pub const MAX_ENTRIES: usize = u32::MAX as usize + 1;

    /// Appends a sequence's codes (the one ingest copy) and returns its
    /// id.
    ///
    /// # Errors
    /// [`SeqError::StoreFull`] once [`SeqStore::MAX_ENTRIES`] entries
    /// are resident — a long-running ingest loop gets a recoverable
    /// error (and an unchanged, still-usable store) instead of a
    /// process abort.
    pub fn push(&mut self, seq: &Seq) -> Result<SeqId, SeqError> {
        self.push_valid(seq.codes())
    }

    /// Appends raw codes after validating them (`0..=4` per byte).
    ///
    /// # Errors
    /// [`SeqError::InvalidCode`] for out-of-range bytes;
    /// [`SeqError::StoreFull`] at entry-id capacity (see
    /// [`SeqStore::push`]).
    pub fn push_codes(&mut self, codes: &[u8]) -> Result<SeqId, SeqError> {
        if let Some(pos) = codes.iter().position(|&c| c > 4) {
            return Err(SeqError::InvalidCode {
                pos,
                code: codes[pos],
            });
        }
        self.push_valid(codes)
    }

    fn push_valid(&mut self, codes: &[u8]) -> Result<SeqId, SeqError> {
        let id = next_id(self.len())?;
        self.codes.extend_from_slice(codes);
        self.bounds.push(self.codes.len());
        Ok(id)
    }

    /// The code slice of entry `id`.
    #[inline]
    pub fn get(&self, id: SeqId) -> &[u8] {
        &self.codes[self.bounds[id.index()]..self.bounds[id.index() + 1]]
    }

    /// Number of stored sequences.
    pub fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    /// Whether the store holds no sequences.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total code bytes resident in the arena.
    pub fn bytes(&self) -> usize {
        self.codes.len()
    }

    /// A borrowed pair over two entries.
    #[inline]
    pub fn pair(&self, q: SeqId, s: SeqId) -> PairRef<'_> {
        PairRef {
            q: self.get(q),
            s: self.get(s),
        }
    }

    /// A [`BatchView`] over the given pairs, in order.
    pub fn view(&self, pairs: &[(SeqId, SeqId)]) -> BatchView<'_> {
        BatchView {
            pairs: pairs.iter().map(|&(q, s)| self.pair(q, s)).collect(),
        }
    }
}

impl fmt::Debug for SeqStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SeqStore({} entries, {} bytes)",
            self.len(),
            self.bytes()
        )
    }
}

/// One borrowed query/subject pair: the unit every batch engine
/// consumes. `Copy` — moving it moves two fat pointers, never bytes.
///
/// The slices must hold base *codes* (`0..=4`, see `crate::alphabet`),
/// which every constructor in this crate guarantees; engines index
/// substitution tables with them.
#[derive(Debug, Clone, Copy)]
pub struct PairRef<'a> {
    /// Query codes.
    pub q: &'a [u8],
    /// Subject codes.
    pub s: &'a [u8],
}

impl<'a> PairRef<'a> {
    /// A pair over raw code slices (callers must supply valid codes).
    #[inline]
    pub fn new(q: &'a [u8], s: &'a [u8]) -> PairRef<'a> {
        PairRef { q, s }
    }

    /// Borrows an owned pair.
    #[inline]
    pub fn from_seqs(q: &'a Seq, s: &'a Seq) -> PairRef<'a> {
        PairRef {
            q: q.codes(),
            s: s.codes(),
        }
    }

    /// DP cells of a score-only pass over this pair: `|q| · |s|`.
    #[inline]
    pub fn cells(&self) -> u64 {
        self.q.len() as u64 * self.s.len() as u64
    }

    /// Total sequence bytes the pair references.
    #[inline]
    pub fn bytes(&self) -> u64 {
        (self.q.len() + self.s.len()) as u64
    }
}

/// An ordered, borrowed batch of pairs — the request model of the batch
/// execution layer. Holds only [`PairRef`]s (32 bytes each); the code
/// bytes live in whatever storage the caller keeps alive (a
/// [`SeqStore`], a `Vec<(Seq, Seq)>`, memory-mapped input, …).
///
/// ```
/// use anyseq_seq::{BatchView, Seq};
///
/// let pairs = vec![(
///     Seq::from_ascii(b"ACGT").unwrap(),
///     Seq::from_ascii(b"ACGA").unwrap(),
/// )];
/// let view = BatchView::from_pairs(&pairs);
/// assert_eq!(view.len(), 1);
/// assert_eq!(view.get(0).cells(), 16);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BatchView<'a> {
    pairs: Vec<PairRef<'a>>,
}

impl<'a> BatchView<'a> {
    /// A view borrowing every pair of an owned batch (copies pointers,
    /// not sequence bytes).
    pub fn from_pairs(pairs: &'a [(Seq, Seq)]) -> BatchView<'a> {
        BatchView {
            pairs: pairs
                .iter()
                .map(|(q, s)| PairRef::from_seqs(q, s))
                .collect(),
        }
    }

    /// A view over pre-built pair references.
    pub fn from_refs(pairs: Vec<PairRef<'a>>) -> BatchView<'a> {
        BatchView { pairs }
    }

    /// Number of pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether the view holds no pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The `k`-th pair.
    #[inline]
    pub fn get(&self, k: usize) -> PairRef<'a> {
        self.pairs[k]
    }

    /// The pairs as a slice (what `Engine` implementations take).
    #[inline]
    pub fn refs(&self) -> &[PairRef<'a>] {
        &self.pairs
    }

    /// Iterates over the pairs.
    pub fn iter(&self) -> impl Iterator<Item = PairRef<'a>> + '_ {
        self.pairs.iter().copied()
    }

    /// Total DP cells of a score-only pass over the whole batch.
    pub fn total_cells(&self) -> u64 {
        self.pairs.iter().map(|p| p.cells()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_round_trips_and_hashes() {
        let mut store = SeqStore::new();
        let a = Seq::from_ascii(b"ACGTACGT").unwrap();
        let b = Seq::from_ascii(b"TTTT").unwrap();
        let ia = store.push(&a).unwrap();
        let ib = store.push(&b).unwrap();
        let ia2 = store.push(&a).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.bytes(), 20);
        assert_eq!(store.get(ia), a.codes());
        assert_eq!(store.get(ib), b.codes());
        // Content hashing follows the bytes, not where they live.
        assert_eq!(content_hash(store.get(ia)), content_hash(store.get(ia2)));
        assert_ne!(content_hash(store.get(ia)), content_hash(store.get(ib)));
        assert_eq!(content_hash(store.get(ia)), content_hash(a.codes()));
    }

    #[test]
    fn store_rejects_invalid_codes() {
        let mut store = SeqStore::new();
        let err = store.push_codes(&[0, 1, 9]).unwrap_err();
        assert_eq!(err, SeqError::InvalidCode { pos: 2, code: 9 });
        assert!(store.is_empty());
        assert!(store.push_codes(&[0, 4]).is_ok());
    }

    #[test]
    fn empty_entries_are_distinct() {
        let mut store = SeqStore::new();
        let e1 = store.push_codes(&[]).unwrap();
        let e2 = store.push(&Seq::new()).unwrap();
        assert_ne!(e1, e2);
        assert!(store.get(e1).is_empty() && store.get(e2).is_empty());
    }

    #[test]
    fn view_borrows_without_copying() {
        let mut store = SeqStore::new();
        let a = store.push_codes(&[0, 1, 2, 3]).unwrap();
        let b = store.push_codes(&[3, 2, 1]).unwrap();
        let view = store.view(&[(a, b), (b, a)]);
        assert_eq!(view.len(), 2);
        // The refs alias the arena allocation — zero-copy by pointer
        // identity, not just by value.
        assert!(std::ptr::eq(view.get(0).q.as_ptr(), store.get(a).as_ptr()));
        assert!(std::ptr::eq(view.get(1).q.as_ptr(), store.get(b).as_ptr()));
        assert_eq!(view.total_cells(), 12 + 12);
    }

    #[test]
    fn view_from_owned_pairs_matches() {
        let pairs = vec![
            (
                Seq::from_ascii(b"ACGT").unwrap(),
                Seq::from_ascii(b"AC").unwrap(),
            ),
            (Seq::new(), Seq::from_ascii(b"T").unwrap()),
        ];
        let view = BatchView::from_pairs(&pairs);
        assert_eq!(view.len(), 2);
        assert_eq!(view.get(0).cells(), 8);
        assert_eq!(view.get(1).cells(), 0);
        assert_eq!(view.total_cells(), 8);
        for (k, p) in view.iter().enumerate() {
            assert_eq!(p.q, pairs[k].0.codes());
            assert_eq!(p.s, pairs[k].1.codes());
        }
    }

    #[test]
    fn store_full_is_a_typed_error_not_a_panic() {
        // The id allocator is the capacity check: pushing entry number
        // MAX_ENTRIES must surface `StoreFull` instead of aborting the
        // ingest loop. (Exercised through the seam — actually filling
        // a store would need >4 billion entries.)
        assert_eq!(next_id(0), Ok(SeqId(0)));
        assert_eq!(next_id(SeqStore::MAX_ENTRIES - 1), Ok(SeqId(u32::MAX)));
        assert_eq!(
            next_id(SeqStore::MAX_ENTRIES),
            Err(SeqError::StoreFull {
                entries: SeqStore::MAX_ENTRIES
            })
        );
        let err = next_id(SeqStore::MAX_ENTRIES).unwrap_err();
        assert!(err.to_string().contains("full"), "{err}");
    }

    #[test]
    fn content_hash_follows_the_bytes_and_the_length() {
        // Equal bytes ⇒ equal hash, wherever they live.
        let reads: Vec<Vec<u8>> = (0..40usize)
            .map(|n| (0..n).map(|i| ((i * 7 + n) % 5) as u8).collect())
            .collect();
        for read in &reads {
            assert_eq!(content_hash(read), content_hash(&read.clone()));
        }
        // Code 0 is a real base: runs of it that differ only in length
        // — across the 8-byte word and 16-byte block edges — must not
        // alias through the zero-padded tail word; nor may any of the
        // reads above, one per length and every tail shape.
        let mut hashes: Vec<u64> = [0usize, 1, 2, 7, 8, 9, 15, 16, 17, 24, 25]
            .iter()
            .map(|&n| content_hash(&vec![0u8; n]))
            .chain(reads[1..].iter().map(|r| content_hash(r)))
            .collect();
        let all = hashes.len();
        hashes.sort_unstable();
        hashes.dedup();
        assert_eq!(hashes.len(), all);
        // One flipped base anywhere changes the hash.
        let base = vec![1u8; 37];
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] = 2;
            assert_ne!(content_hash(&flipped), content_hash(&base), "base {i}");
        }
    }
}
