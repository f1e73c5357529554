//! Message size accounting and B-bit word packing.
//!
//! The CONGEST model allows `O(log n)` bits per edge per round. We account
//! message sizes in *words*, where one word is one `O(log n)`-bit quantity
//! (a vertex id, an edge id half, a counter bounded by `poly(n)`). A message
//! of `w` words therefore occupies `w · ceil(log2 n)` bits, and the standard
//! per-round budget is a small constant number of words.
//!
//! # Word packing
//!
//! The budget machinery charges messages per declared word, and the fast
//! kernel's mailbox arena *stores* them that way too. A type opts in by
//! implementing [`Words::pack`]/[`Words::unpack`]: `pack` returns the
//! value as exactly `words()` B-bit words in the low `words() · B` bits of
//! one `u64` register (B = `word_bits(n)` for the run's graph), or `None`
//! when a field is wider than B bits or the whole message is over 63
//! bits. The kernel then stores that message natively, so packing is
//! always lossless and outcome-invariant. `unpack` must be the exact
//! inverse. Fields are laid out first-field-lowest: a composite packs its
//! first component into the low bits and shifts each later one above the
//! words before it, so `unpack` reads fields in order by shifting right.
//! The primitive word types below and their `Option`, pair, triple and
//! `Vec` composites all pack; protocol enums keep the `None` default and
//! cost nothing.

use planar_graph::{EdgeId, VertexId};

/// Bit width of `words` B-bit words, or `None` when it is over 63 (the
/// kernel's packed slots keep bit 63 for their tag).
fn width(words: usize, b: u32) -> Option<u32> {
    let bits = (words as u64).checked_mul(u64::from(b))?;
    (bits <= 63).then_some(bits as u32)
}

/// `value` as `words` B-bit words, or `None` if it does not fit.
fn pack_field(value: u64, words: usize, b: u32) -> Option<u64> {
    let w = width(words, b)?;
    (value >> w == 0).then_some(value)
}

/// The low `words` B-bit words of `v` (inverse of [`pack_field`]).
fn unpack_field(words: usize, b: u32, v: u64) -> Option<u64> {
    let w = width(words, b)?;
    Some(v & ((1u64 << w) - 1))
}

/// Packs `hi` (`hi_words` words) above `lo` (`lo_words` words), or `None`
/// if the two together are over 63 bits.
fn join(lo: u64, lo_words: usize, hi: u64, hi_words: usize, b: u32) -> Option<u64> {
    width(lo_words + hi_words, b)?;
    Some(lo | hi << width(lo_words, b)?)
}

/// `v` with the low `words` B-bit words shifted out: the next field.
fn skip(v: u64, words: usize, b: u32) -> Option<u64> {
    Some(v >> width(words, b)?)
}

/// Types whose on-wire size is a known number of `O(log n)`-bit words.
///
/// Implementations must be exact: the simulator charges every sent message
/// by this amount and rejects rounds that exceed the per-edge budget, so an
/// undercounting implementation would invalidate the round-complexity
/// measurements.
pub trait Words {
    /// Number of `O(log n)`-bit words this value occupies on the wire.
    fn words(&self) -> usize;

    /// This value as exactly [`words`](Self::words) B-bit words in the low
    /// `words() · b` bits of one register, or `None` when a field does not
    /// fit in B bits, the total is over 63 bits, or the type has no packed
    /// form (the default). Must be a pure function of the value and `b`.
    fn pack(&self, b: u32) -> Option<u64> {
        let _ = b;
        None
    }

    /// Exact inverse of [`pack`](Self::pack) for values that packed at the
    /// same `b`. Reads only its own low `words() · b` bits of `v`; `None`
    /// from a packing type indicates corruption (the kernel treats it as a
    /// bug).
    fn unpack(b: u32, v: u64) -> Option<Self>
    where
        Self: Sized,
    {
        let _ = (b, v);
        None
    }
}

impl Words for u32 {
    fn words(&self) -> usize {
        1
    }

    fn pack(&self, b: u32) -> Option<u64> {
        pack_field(u64::from(*self), 1, b)
    }

    fn unpack(b: u32, v: u64) -> Option<Self> {
        u32::try_from(unpack_field(1, b, v)?).ok()
    }
}

impl Words for u64 {
    fn words(&self) -> usize {
        // A u64 counter is still poly(n)-bounded in our use; count it as one
        // word when n >= 2^32 would be required to overflow it. We charge 2
        // to stay conservative.
        2
    }

    fn pack(&self, b: u32) -> Option<u64> {
        pack_field(*self, 2, b)
    }

    fn unpack(b: u32, v: u64) -> Option<Self> {
        unpack_field(2, b, v)
    }
}

impl Words for usize {
    fn words(&self) -> usize {
        1
    }

    fn pack(&self, b: u32) -> Option<u64> {
        pack_field(u64::try_from(*self).ok()?, 1, b)
    }

    fn unpack(b: u32, v: u64) -> Option<Self> {
        usize::try_from(unpack_field(1, b, v)?).ok()
    }
}

impl Words for bool {
    fn words(&self) -> usize {
        1
    }

    fn pack(&self, b: u32) -> Option<u64> {
        pack_field(u64::from(*self), 1, b)
    }

    fn unpack(b: u32, v: u64) -> Option<Self> {
        match unpack_field(1, b, v)? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Words for VertexId {
    fn words(&self) -> usize {
        1
    }

    fn pack(&self, b: u32) -> Option<u64> {
        pack_field(u64::from(self.0), 1, b)
    }

    fn unpack(b: u32, v: u64) -> Option<Self> {
        u32::try_from(unpack_field(1, b, v)?).ok().map(VertexId)
    }
}

impl Words for EdgeId {
    fn words(&self) -> usize {
        2
    }
}

/// `Option<T>`: a one-word tag (0 = `None`, 1 = `Some`), then `T`.
impl<T: Words> Words for Option<T> {
    fn words(&self) -> usize {
        match self {
            Some(t) => 1 + t.words(),
            None => 1,
        }
    }

    fn pack(&self, b: u32) -> Option<u64> {
        match self {
            None => pack_field(0, 1, b),
            Some(t) => join(pack_field(1, 1, b)?, 1, t.pack(b)?, t.words(), b),
        }
    }

    fn unpack(b: u32, v: u64) -> Option<Self> {
        match unpack_field(1, b, v)? {
            0 => Some(None),
            1 => T::unpack(b, skip(v, 1, b)?).map(Some),
            _ => None,
        }
    }
}

/// `Vec<T>`: a one-word length, then the elements in order.
impl<T: Words> Words for Vec<T> {
    fn words(&self) -> usize {
        1 + self.iter().map(Words::words).sum::<usize>()
    }

    fn pack(&self, b: u32) -> Option<u64> {
        let mut packed = pack_field(self.len() as u64, 1, b)?;
        let mut words = 1;
        for t in self {
            packed = join(packed, words, t.pack(b)?, t.words(), b)?;
            words += t.words();
        }
        Some(packed)
    }

    fn unpack(b: u32, v: u64) -> Option<Self> {
        let len = unpack_field(1, b, v)?;
        let mut rest = skip(v, 1, b)?;
        let mut words = 1;
        let mut out = Vec::new();
        for _ in 0..len {
            let t = T::unpack(b, rest)?;
            words += t.words();
            // A corrupt length cannot run past the register.
            width(words, b)?;
            rest = skip(rest, t.words(), b)?;
            out.push(t);
        }
        Some(out)
    }
}

impl<A: Words, B: Words> Words for (A, B) {
    fn words(&self) -> usize {
        self.0.words() + self.1.words()
    }

    fn pack(&self, b: u32) -> Option<u64> {
        join(
            self.0.pack(b)?,
            self.0.words(),
            self.1.pack(b)?,
            self.1.words(),
            b,
        )
    }

    fn unpack(b: u32, v: u64) -> Option<Self> {
        let a = A::unpack(b, v)?;
        let rest = skip(v, a.words(), b)?;
        Some((a, B::unpack(b, rest)?))
    }
}

impl<A: Words, B: Words, C: Words> Words for (A, B, C) {
    fn words(&self) -> usize {
        self.0.words() + self.1.words() + self.2.words()
    }

    fn pack(&self, b: u32) -> Option<u64> {
        let ab = join(
            self.0.pack(b)?,
            self.0.words(),
            self.1.pack(b)?,
            self.1.words(),
            b,
        )?;
        let ab_words = self.0.words() + self.1.words();
        join(ab, ab_words, self.2.pack(b)?, self.2.words(), b)
    }

    fn unpack(b: u32, v: u64) -> Option<Self> {
        let a = A::unpack(b, v)?;
        let v = skip(v, a.words(), b)?;
        let bb = B::unpack(b, v)?;
        let c = C::unpack(b, skip(v, bb.words(), b)?)?;
        Some((a, bb, c))
    }
}

/// Number of bits per word for an `n`-node network: `ceil(log2 n)`, at
/// least 1.
pub fn word_bits(n: usize) -> usize {
    (usize::BITS - n.max(2).next_power_of_two().leading_zeros()) as usize - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(5u32.words(), 1);
        assert_eq!(VertexId(3).words(), 1);
        assert_eq!(EdgeId::new(VertexId(0), VertexId(1)).words(), 2);
        assert_eq!(Some(VertexId(1)).words(), 2);
        assert_eq!(None::<VertexId>.words(), 1);
        assert_eq!(vec![1u32, 2, 3].words(), 4);
        assert_eq!((VertexId(0), 7u32).words(), 2);
    }

    #[test]
    fn word_bits_is_log2() {
        assert_eq!(word_bits(2), 1);
        assert_eq!(word_bits(4), 2);
        assert_eq!(word_bits(5), 3);
        assert_eq!(word_bits(1024), 10);
        assert_eq!(word_bits(1025), 11);
        assert!(word_bits(0) >= 1);
    }

    /// Whether a `words`-word field holding `x` fits at `b` bits per word.
    fn field_fits(x: u64, words: usize, b: u32) -> bool {
        width(words, b).is_some_and(|w| x >> w == 0)
    }

    /// `v` packs at `b` exactly when `fits`; a packed value stays below
    /// `2^(words·b)` and unpacks to `v`.
    fn check<T: Words + PartialEq + std::fmt::Debug>(v: &T, b: u32, fits: bool) {
        match v.pack(b) {
            Some(p) => {
                assert!(fits, "{v:?} must decline at b={b}, packed {p:#x}");
                let w = v.words() as u32 * b;
                assert!(
                    w <= 63 && p >> w == 0,
                    "{v:?} at b={b}: {p:#x} wider than {w} bits"
                );
                assert_eq!(T::unpack(b, p).as_ref(), Some(v), "b={b}, packed {p:#x}");
            }
            None => assert!(!fits, "{v:?} must pack at b={b}"),
        }
    }

    /// 0, 1, `2^(words·b) − 1`, `2^(words·b)` and `u64::MAX`.
    fn boundaries(words: usize, b: u32) -> Vec<u64> {
        let mut v = vec![0, 1, u64::MAX];
        if let Some(top) = 1u64.checked_shl(words as u32 * b) {
            v.extend([top - 1, top]);
        }
        v
    }

    /// Every packing type at every `b` in `1..=32`, over boundary values:
    /// what fits round-trips exactly, what is wider than its declared
    /// words or over 63 bits in total declines.
    #[test]
    fn pack_roundtrips_exhaustively() {
        for b in 1..=32u32 {
            let one = boundaries(1, b);
            let smalls: Vec<u32> = one
                .iter()
                .filter_map(|&x| u32::try_from(x).ok())
                .chain([u32::MAX])
                .collect();
            for &x in &smalls {
                let fits = field_fits(u64::from(x), 1, b);
                check(&x, b, fits);
                check(&VertexId(x), b, fits);
                check(&Some(x), b, fits && 2 * b <= 63);
                for &y in &smalls {
                    let both = fits && field_fits(u64::from(y), 1, b);
                    check(&(VertexId(x), y), b, both && 2 * b <= 63);
                    for flag in [false, true] {
                        check(&(flag, x as usize, Some(y)), b, both && 4 * b <= 63);
                    }
                }
            }
            for &x in one.iter().chain(&[usize::MAX as u64]) {
                if let Ok(x) = usize::try_from(x) {
                    check(&x, b, field_fits(x as u64, 1, b));
                }
            }
            for &x in boundaries(2, b).iter().chain(&one) {
                let fits = field_fits(x, 2, b);
                check(&x, b, fits);
                check(&Some(x), b, fits && 3 * b <= 63);
            }
            check(&false, b, true);
            check(&true, b, true);
            check(&None::<u32>, b, true);
            check(&None::<u64>, b, true);
            for len in 0..=3usize {
                for &x in &smalls {
                    let v = vec![x; len];
                    let fits = field_fits(len as u64, 1, b)
                        && (len == 0 || field_fits(u64::from(x), 1, b))
                        && (1 + len) as u32 * b <= 63;
                    check(&v, b, fits);
                }
            }
        }
        // Over 63 bits in total declines even when every field fits.
        assert_eq!(0u64.pack(32), None);
        assert_eq!(u64::MAX.pack(32), None);
        assert_eq!((VertexId(0), 0u32).pack(32), None);
        assert_eq!((VertexId(1), 1u32).pack(31), Some(1 | 1 << 31));
    }

    #[test]
    fn pack_lays_fields_out_first_field_lowest() {
        assert_eq!((VertexId(5), 3u32).pack(4), Some(5 | 3 << 4));
        assert_eq!(Some(VertexId(2)).pack(3), Some(1 | 2 << 3));
        assert_eq!(vec![1u32, 2].pack(2), Some(2 | 1 << 2 | 2 << 4));
        // Mixed widths inside a composite: a two-word u64 after a flag.
        let v = (true, 9u64, VertexId(1));
        assert_eq!(v.pack(4), Some(1 | 9 << 4 | 1 << 12));
        assert_eq!(
            <(bool, u64, VertexId)>::unpack(4, 1 | 9 << 4 | 1 << 12),
            Some(v)
        );
    }

    #[test]
    fn edge_id_falls_back_to_native() {
        assert_eq!(EdgeId::new(VertexId(0), VertexId(1)).pack(16), None);
    }
}
