//! Per-parse symbol interning.
//!
//! A program names the same few hundred symbols over and over; the reader
//! allocates each distinct name once and hands out shared [`Rc<str>`]s,
//! so a symbol costs a reference-count bump instead of a fresh `String`.
//! The table lives as long as one [`Parser`](crate::Parser): there is no
//! process-wide table, and names never outlive the data that holds them.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// A fast, non-cryptographic hasher in the spirit of rustc's `FxHasher`:
/// it folds its input in a word at a time. This is the workspace's one
/// table hasher: the reader's symbol table here, and the graph, call and
/// plan tables of `sct-core` and the interpreter, whose keys are
/// word-packed graphs or small integers. SipHash's DoS resistance buys
/// nothing for a compiler's own tables and costs more than interning
/// saves (the workspace builds offline, so no external hash crate).
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

/// [`std::hash::BuildHasher`] for [`FxHasher`], usable as the `S`
/// parameter of std maps.
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut rest = bytes;
        while let Some((word, tail)) = rest.split_first_chunk::<8>() {
            self.add(u64::from_le_bytes(*word));
            rest = tail;
        }
        // The last 1 to 7 bytes as one word, without a variable-length
        // copy: two overlapping reads, or the first, middle and last byte.
        let n = rest.len();
        let word = match n {
            0 => return,
            4.. => {
                let lo = u32::from_le_bytes(rest[..4].try_into().unwrap());
                let hi = u32::from_le_bytes(rest[n - 4..].try_into().unwrap());
                u64::from(lo) | u64::from(hi) << 32
            }
            _ => {
                u64::from(rest[0])
                    | u64::from(rest[n / 2]) << 8
                    | u64::from(rest[n - 1]) << 16
                    | (n as u64) << 24
            }
        };
        self.add(word);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    /// The multiply mixes every input bit into the high bits only, while
    /// hash tables pick buckets by the low bits: fold the high half down.
    #[inline]
    fn finish(&self) -> u64 {
        self.hash ^ (self.hash >> 32)
    }
}

/// The symbol table of one parse.
#[derive(Default)]
pub(crate) struct Interner {
    names: HashSet<Rc<str>, FxBuildHasher>,
}

impl Interner {
    /// The shared name `text`, allocated on first sight.
    pub(crate) fn intern(&mut self, text: &str) -> Rc<str> {
        if let Some(name) = self.names.get(text) {
            return Rc::clone(name);
        }
        let name: Rc<str> = Rc::from(text);
        self.names.insert(Rc::clone(&name));
        name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_names_share_one_allocation() {
        let mut t = Interner::default();
        let a = t.intern("loop");
        let b = t.intern("loop");
        let c = t.intern("loop2");
        assert!(Rc::ptr_eq(&a, &b));
        assert!(!Rc::ptr_eq(&a, &c));
        assert_eq!(&*c, "loop2");
    }

    #[test]
    fn hasher_separates_names_sharing_a_word() {
        use std::hash::BuildHasher;
        let hash = |s: &str| FxBuildHasher::default().hash_one(s);
        assert_ne!(hash("abcdefgh"), hash("abcdefghi"));
        assert_ne!(hash("f1"), hash("f2"));
        assert_eq!(hash("list->vector"), hash("list->vector"));
    }

    /// Tables pick buckets by the low bits, so names that differ only in
    /// a late byte must still spread over them.
    #[test]
    fn hasher_spreads_similar_names_over_low_bits() {
        use std::hash::BuildHasher;
        let buckets: HashSet<u64> = (0..1000)
            .map(|i| FxBuildHasher::default().hash_one(format!("f{i}")) & 2047)
            .collect();
        assert!(buckets.len() > 600, "{} buckets of 2048", buckets.len());
    }
}
