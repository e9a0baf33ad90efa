//! Owned DNA sequences and cheap read-only views.
//!
//! [`Seq`] stores one base *code* per byte (see [`crate::alphabet`]).
//! Alignment engines never touch ASCII: they read codes through slices,
//! mirroring the paper's `Sequence { len, at, release }` accessor
//! abstraction (§III-B) — in Rust the accessor indirection compiles away
//! through monomorphization exactly like AnyDSL's partial evaluation
//! removes it.

use crate::alphabet::{complement_code, Base};
use std::fmt;

/// Error raised when constructing a sequence from invalid input, or
/// when a sequence store cannot accept more entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeqError {
    /// A byte that is not an ASCII letter (and not ignorable whitespace)
    /// appeared at the given position.
    InvalidByte { pos: usize, byte: u8 },
    /// A raw code outside `0..=4` appeared at the given position.
    InvalidCode { pos: usize, code: u8 },
    /// A [`SeqStore`](crate::SeqStore) reached its entry-id capacity
    /// (`u32` ids); the store is unchanged and remains usable.
    StoreFull {
        /// Entries already resident when the push was refused.
        entries: usize,
    },
}

impl fmt::Display for SeqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeqError::InvalidByte { pos, byte } => {
                write!(f, "invalid sequence byte 0x{byte:02x} at position {pos}")
            }
            SeqError::InvalidCode { pos, code } => {
                write!(f, "invalid base code {code} at position {pos}")
            }
            SeqError::StoreFull { entries } => {
                write!(f, "sequence store is full ({entries} entries; ids are u32)")
            }
        }
    }
}

impl std::error::Error for SeqError {}

/// An owned DNA sequence, stored as one base code per byte.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Seq {
    codes: Vec<u8>,
}

impl Seq {
    /// Creates an empty sequence.
    pub fn new() -> Seq {
        Seq { codes: Vec::new() }
    }

    /// Parses ASCII (FASTA-style) text. Whitespace is skipped; any other
    /// non-letter byte is an error; non-ACGT letters become `N`.
    pub fn from_ascii(text: &[u8]) -> Result<Seq, SeqError> {
        let mut codes = Vec::with_capacity(text.len());
        for (pos, &byte) in text.iter().enumerate() {
            if byte.is_ascii_whitespace() {
                continue;
            }
            match Base::from_ascii(byte) {
                Some(b) => codes.push(b.code()),
                None => return Err(SeqError::InvalidByte { pos, byte }),
            }
        }
        Ok(Seq { codes })
    }

    /// Wraps a vector of raw base codes after validating it.
    pub fn from_codes(codes: Vec<u8>) -> Result<Seq, SeqError> {
        if let Some(pos) = codes.iter().position(|&c| c > 4) {
            return Err(SeqError::InvalidCode {
                pos,
                code: codes[pos],
            });
        }
        Ok(Seq { codes })
    }

    /// Wraps raw codes without validation.
    ///
    /// Callers must guarantee every code is `0..=4`; generators in this
    /// crate use it to avoid a pass over multi-megabase outputs.
    pub(crate) fn from_codes_unchecked(codes: Vec<u8>) -> Seq {
        debug_assert!(codes.iter().all(|&c| c <= 4));
        Seq { codes }
    }

    /// Builds a sequence from typed bases.
    pub fn from_bases(bases: &[Base]) -> Seq {
        Seq {
            codes: bases.iter().map(|b| b.code()).collect(),
        }
    }

    /// Number of bases.
    #[inline(always)]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the sequence is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The raw code slice (hot path input for every engine).
    #[inline(always)]
    pub fn codes(&self) -> &[u8] {
        &self.codes
    }

    /// The base at `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Option<Base> {
        self.codes.get(i).and_then(|&c| Base::from_code(c))
    }

    /// Extracts `range` as a new owned sequence.
    pub fn subseq(&self, range: std::ops::Range<usize>) -> Seq {
        Seq {
            codes: self.codes[range].to_vec(),
        }
    }

    /// The reverse complement of this sequence.
    pub fn rev_comp(&self) -> Seq {
        Seq {
            codes: self
                .codes
                .iter()
                .rev()
                .map(|&c| complement_code(c))
                .collect(),
        }
    }

    /// Renders the sequence as upper-case ASCII.
    pub fn to_ascii(&self) -> Vec<u8> {
        const LUT: [u8; 5] = [b'A', b'C', b'G', b'T', b'N'];
        self.codes.iter().map(|&c| LUT[c as usize]).collect()
    }

    /// GC fraction of the concrete (non-`N`) bases; `0.0` if none.
    pub fn gc_content(&self) -> f64 {
        let mut gc = 0usize;
        let mut concrete = 0usize;
        for &c in &self.codes {
            if c < 4 {
                concrete += 1;
                if c == 1 || c == 2 {
                    gc += 1;
                }
            }
        }
        if concrete == 0 {
            0.0
        } else {
            gc as f64 / concrete as f64
        }
    }
}

impl fmt::Debug for Seq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ascii = self.to_ascii();
        let shown = if ascii.len() > 48 {
            format!(
                "{}…({} bp)",
                String::from_utf8_lossy(&ascii[..48]),
                ascii.len()
            )
        } else {
            String::from_utf8_lossy(&ascii).into_owned()
        };
        write!(f, "Seq({shown})")
    }
}

impl std::ops::Index<usize> for Seq {
    type Output = u8;
    #[inline(always)]
    fn index(&self, i: usize) -> &u8 {
        &self.codes[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_skips_whitespace() {
        let s = Seq::from_ascii(b"AC GT\nac\tgt").unwrap();
        assert_eq!(s.to_ascii(), b"ACGTACGT");
    }

    #[test]
    fn parse_rejects_garbage() {
        let err = Seq::from_ascii(b"ACG-T").unwrap_err();
        assert_eq!(err, SeqError::InvalidByte { pos: 3, byte: b'-' });
    }

    #[test]
    fn codes_round_trip() {
        let s = Seq::from_codes(vec![0, 1, 2, 3, 4]).unwrap();
        assert_eq!(s.to_ascii(), b"ACGTN");
        assert!(Seq::from_codes(vec![0, 9]).is_err());
    }

    #[test]
    fn rev_comp_known() {
        let s = Seq::from_ascii(b"AACGTN").unwrap();
        assert_eq!(s.rev_comp().to_ascii(), b"NACGTT");
    }

    #[test]
    fn rev_comp_is_involution() {
        let s = Seq::from_ascii(b"ACGTTGCAACGTNNNACGT").unwrap();
        assert_eq!(s.rev_comp().rev_comp(), s);
    }

    #[test]
    fn subseq_and_index() {
        let s = Seq::from_ascii(b"ACGTACGT").unwrap();
        assert_eq!(s.subseq(2..6).to_ascii(), b"GTAC");
        assert_eq!(s[0], 0);
        assert_eq!(s[3], 3);
    }

    #[test]
    fn gc_content_ignores_n() {
        let s = Seq::from_ascii(b"GGCCNNNN").unwrap();
        assert!((s.gc_content() - 1.0).abs() < 1e-12);
        let s = Seq::from_ascii(b"ATGC").unwrap();
        assert!((s.gc_content() - 0.5).abs() < 1e-12);
        assert_eq!(Seq::from_ascii(b"NNN").unwrap().gc_content(), 0.0);
    }

    #[test]
    fn empty_sequence_behaves() {
        let s = Seq::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.rev_comp(), s);
    }
}
