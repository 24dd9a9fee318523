//! Bitmap word abstraction.
//!
//! The paper's MSI optimization matches the bitmap integer width to the
//! device's subgroup width (32-bit on NVIDIA/Intel warps, 64-bit on AMD
//! wavefronts). Frontiers are therefore generic over a [`Word`] type; the
//! device inspector picks the instantiation at runtime. The helpers that
//! map a subgroup's lanes onto the bits of a word or onto a run of words
//! live here too.

use sygraph_sim::{full_mask, AtomicInt, DeviceBuffer, DeviceScalar, SubgroupCtx};

/// An unsigned integer usable as a bitmap word.
pub trait Word: AtomicInt + PartialEq + std::fmt::Debug {
    /// Bits per word (32 or 64).
    const BITS: u32;
    /// The zero word.
    const ZERO: Self;
    /// A word with only bit `i` set.
    fn one_bit(i: u32) -> Self;
    /// Population count.
    fn count_ones(self) -> u32;
    /// Whether no bits are set.
    fn is_zero(self) -> bool;
    /// Whether bit `i` is set.
    fn test_bit(self, i: u32) -> bool;
    /// Bitwise AND.
    fn and(self, other: Self) -> Self;
    /// Bitwise OR.
    fn or(self, other: Self) -> Self;
    /// Bitwise XOR.
    fn xor(self, other: Self) -> Self;
    /// Bitwise NOT.
    fn not(self) -> Self;
    /// Lowest 64 bits (for mask interop; a u32 word zero-extends).
    fn to_u64(self) -> u64;
    /// Index of the lowest set bit, or `BITS` if zero.
    fn trailing_zeros(self) -> u32;
    /// The word holding the lowest `BITS` bits of `bits` (the inverse of
    /// [`Word::to_u64`]; a u32 word truncates).
    fn from_u64(bits: u64) -> Self;
}

macro_rules! impl_word {
    ($t:ty, $bits:expr) => {
        impl Word for $t {
            const BITS: u32 = $bits;
            const ZERO: Self = 0;
            #[inline]
            fn one_bit(i: u32) -> Self {
                debug_assert!(i < Self::BITS);
                1 << i
            }
            #[inline]
            fn count_ones(self) -> u32 {
                <$t>::count_ones(self)
            }
            #[inline]
            fn is_zero(self) -> bool {
                self == 0
            }
            #[inline]
            fn test_bit(self, i: u32) -> bool {
                self & (1 << i) != 0
            }
            #[inline]
            fn and(self, other: Self) -> Self {
                self & other
            }
            #[inline]
            fn or(self, other: Self) -> Self {
                self | other
            }
            #[inline]
            fn xor(self, other: Self) -> Self {
                self ^ other
            }
            #[inline]
            fn not(self) -> Self {
                !self
            }
            #[inline]
            fn to_u64(self) -> u64 {
                self as u64
            }
            #[inline]
            fn trailing_zeros(self) -> u32 {
                <$t>::trailing_zeros(self)
            }
            #[inline]
            fn from_u64(bits: u64) -> Self {
                bits as $t
            }
        }
    };
}

impl_word!(u32, 32);
impl_word!(u64, 64);

/// Number of words needed to cover `n` bits.
#[inline]
pub fn words_for<W: Word>(n: usize) -> usize {
    n.div_ceil(W::BITS as usize).max(1)
}

/// `(word index, bit index)` of vertex `v` — the paper's
/// `id(v)/b` and `id(v) mod b`.
#[inline]
pub fn locate<W: Word>(v: u32) -> (usize, u32) {
    ((v / W::BITS) as usize, v % W::BITS)
}

/// Ballots the bits `[bits.0, bits.1)` of `word` one subgroup-wide pass at
/// a time — several passes when the range is wider than the subgroup — and
/// hands each non-empty pass to `each(sg, id_of_lane_0, active_mask)`. Bit
/// `b` stands for id `first + b`; ids at or past `limit` (the tail bits of
/// the last word) never vote.
pub(crate) fn for_each_pass<W: Word>(
    sg: &mut SubgroupCtx<'_, '_>,
    word: W,
    first: u32,
    limit: u32,
    bits: (u32, u32),
    mut each: impl FnMut(&mut SubgroupCtx<'_, '_>, u32, u64),
) {
    let sgw = sg.width();
    let (bit_lo, bit_hi) = bits;
    for p in 0..(bit_hi - bit_lo).div_ceil(sgw) {
        let bit_base = bit_lo + p * sgw;
        let active = sg.ballot(|lane| {
            let bit = bit_base + lane;
            bit < bit_hi && word.test_bit(bit) && first + bit < limit
        });
        if active != 0 {
            each(sg, first + bit_base, active);
        }
    }
}

/// Mask of the lanes that hold an item when items `first..end` are dealt
/// to a subgroup `sgw` wide, one per lane: all of them, or the `end -
/// first` a last, partial slab has.
pub(crate) fn slab_mask(sgw: usize, first: usize, end: usize) -> u64 {
    full_mask((end - first).min(sgw) as u32)
}

/// Zeroes `buf[lo..hi]` with the subgroup's lanes on consecutive
/// elements, a subgroup width per pass.
pub(crate) fn zero_run<T: DeviceScalar>(
    sg: &mut SubgroupCtx<'_, '_>,
    buf: &DeviceBuffer<T>,
    lo: usize,
    hi: usize,
) {
    let sgw = sg.width() as usize;
    for base in (lo..hi).step_by(sgw) {
        let mask = slab_mask(sgw, base, hi);
        sg.store(buf, mask, |lane| (base + lane as usize, T::default()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_math_u32() {
        assert_eq!(u32::one_bit(5), 32);
        assert!(u32::one_bit(5).test_bit(5));
        assert!(!u32::one_bit(5).test_bit(4));
        assert_eq!(locate::<u32>(70), (2, 6));
        assert_eq!(words_for::<u32>(65), 3);
        assert_eq!(words_for::<u32>(0), 1);
    }

    #[test]
    fn bit_math_u64() {
        assert_eq!(locate::<u64>(70), (1, 6));
        assert_eq!(words_for::<u64>(64), 1);
        assert_eq!(words_for::<u64>(65), 2);
        assert_eq!(u64::one_bit(63), 1 << 63);
    }

    #[test]
    fn set_operations() {
        let a: u32 = 0b1100;
        let b: u32 = 0b1010;
        assert_eq!(a.and(b), 0b1000);
        assert_eq!(a.or(b), 0b1110);
        assert_eq!(a.xor(b), 0b0110);
        assert_eq!(a.and(b.not()), 0b0100);
        assert!(0u64.is_zero());
        assert_eq!(0b1000u32.trailing_zeros(), 3);
    }
}
