//! A fixed-width 256-bit unsigned integer.
//!
//! Weights of next-level items in the HALT hierarchy grow beyond 128 bits:
//! level-1 items carry `w < 2^64`, level-2 items carry `2^{i+1}·|B(i)| < 2^129`,
//! and level-3 items reach ≈ `2^140`. A fixed four-limb integer keeps them
//! `Copy` and O(1)-word, per the Word RAM model.

// pss-lint: allow-file(no-bare-index) — the limb array is a fixed [u64; 4] indexed by constants and values masked to < 4

use crate::narrow;
use bignum::BigUint;
use std::cmp::Ordering;
use std::fmt;

/// Unsigned 256-bit integer (four little-endian 64-bit limbs).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct U256([u64; 4]);

impl U256 {
    /// 0.
    pub const ZERO: U256 = U256([0; 4]);
    /// 1.
    pub const ONE: U256 = U256([1, 0, 0, 0]);

    /// Constructs from a `u64`.
    #[inline]
    pub fn from_u64(v: u64) -> Self {
        U256([v, 0, 0, 0])
    }

    /// Constructs from a `u128`.
    #[inline]
    pub fn from_u128(v: u128) -> Self {
        U256([v as u64, (v >> 64) as u64, 0, 0])
    }

    /// `v · 2^k` in O(1) word operations — the proxy-weight constructor
    /// (`count · 2^{i+1}` without the general shift's limb loop). Panics if
    /// the product does not fit in 256 bits (matching `checked_shl`'s
    /// loudness rather than truncating silently).
    #[inline]
    pub fn from_u64_shifted(v: u64, k: u32) -> Self {
        assert!(
            v == 0 || k as u64 + 64 - u64::from(v.leading_zeros()) <= 256,
            "{v} << {k} overflows U256"
        );
        if v == 0 {
            return U256::ZERO;
        }
        let limb = (k / 64) as usize;
        let bits = k % 64;
        let mut l = [0u64; 4];
        l[limb] = v << bits;
        if bits > 0 && limb + 1 < 4 {
            l[limb + 1] = v >> (64 - bits);
        }
        U256(l)
    }

    /// `2^k` for `k < 256`.
    #[inline]
    pub fn pow2(k: u32) -> Self {
        assert!(k < 256);
        let mut l = [0u64; 4];
        l[(k / 64) as usize] = 1u64 << (k % 64);
        U256(l)
    }

    /// `true` iff 0.
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// Converts to `u128` if it fits.
    #[inline]
    pub fn to_u128(&self) -> Option<u128> {
        if self.0[2] == 0 && self.0[3] == 0 {
            Some(self.0[0] as u128 | ((self.0[1] as u128) << 64))
        } else {
            None
        }
    }

    /// Converts to an exact [`BigUint`].
    pub fn to_biguint(&self) -> BigUint {
        BigUint::from_limbs(self.0.to_vec())
    }

    /// Number of significant bits.
    #[inline]
    pub fn bit_len(&self) -> u32 {
        for i in (0..4).rev() {
            if self.0[i] != 0 {
                return narrow::u32_of_usize(i) * 64 + 64 - self.0[i].leading_zeros();
            }
        }
        0
    }

    /// `⌊log2 self⌋`; panics on 0.
    #[inline]
    pub fn floor_log2(&self) -> u32 {
        assert!(!self.is_zero(), "log2 of zero");
        self.bit_len() - 1
    }

    /// Checked addition.
    pub fn checked_add(&self, rhs: &U256) -> Option<U256> {
        let mut out = [0u64; 4];
        let mut carry = 0u64;
        #[allow(clippy::needless_range_loop)]
        for i in 0..4 {
            let (s1, c1) = self.0[i].overflowing_add(rhs.0[i]);
            let (s2, c2) = s1.overflowing_add(carry);
            out[i] = s2;
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            None
        } else {
            Some(U256(out))
        }
    }

    /// Checked subtraction (`None` on underflow).
    pub fn checked_sub(&self, rhs: &U256) -> Option<U256> {
        let mut out = [0u64; 4];
        let mut borrow = 0u64;
        #[allow(clippy::needless_range_loop)]
        for i in 0..4 {
            let (d1, b1) = self.0[i].overflowing_sub(rhs.0[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        if borrow != 0 {
            None
        } else {
            Some(U256(out))
        }
    }

    /// Checked multiplication by a `u64`.
    pub fn checked_mul_u64(&self, v: u64) -> Option<U256> {
        let mut out = [0u64; 4];
        let mut carry = 0u128;
        #[allow(clippy::needless_range_loop)]
        for i in 0..4 {
            let cur = (self.0[i] as u128) * (v as u128) + carry;
            out[i] = cur as u64;
            carry = cur >> 64;
        }
        if carry != 0 {
            None
        } else {
            Some(U256(out))
        }
    }

    /// Checked left shift.
    pub fn checked_shl(&self, k: u32) -> Option<U256> {
        if self.is_zero() {
            return Some(*self);
        }
        if k as u64 + self.bit_len() as u64 > 256 {
            return None;
        }
        let limb = (k / 64) as usize;
        let bits = k % 64;
        let mut out = [0u64; 4];
        for i in (0..4 - limb).rev() {
            out[i + limb] = self.0[i] << bits;
            if bits > 0 && i > 0 {
                out[i + limb] |= self.0[i - 1] >> (64 - bits);
            }
        }
        Some(U256(out))
    }

    /// Logical right shift.
    pub fn shr(&self, k: u32) -> U256 {
        if k >= 256 {
            return U256::ZERO;
        }
        let limb = (k / 64) as usize;
        let bits = k % 64;
        let mut out = [0u64; 4];
        for i in limb..4 {
            out[i - limb] = self.0[i] >> bits;
            if bits > 0 && i + 1 < 4 {
                out[i - limb] |= self.0[i + 1] << (64 - bits);
            }
        }
        U256(out)
    }
}

impl PartialOrd for U256 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for U256 {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..4).rev() {
            match self.0[i].cmp(&other.0[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl From<u64> for U256 {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl From<u128> for U256 {
    fn from(v: u128) -> Self {
        Self::from_u128(v)
    }
}

impl fmt::Debug for U256 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "U256(0x{:x}_{:016x}_{:016x}_{:016x})",
            self.0[3], self.0[2], self.0[1], self.0[0]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips() {
        assert_eq!(U256::from_u128(12345).to_u128(), Some(12345));
        assert_eq!(U256::pow2(200).to_u128(), None);
        assert_eq!(U256::pow2(127).to_u128(), Some(1u128 << 127));
    }

    #[test]
    fn bit_len_and_log2() {
        assert_eq!(U256::ZERO.bit_len(), 0);
        assert_eq!(U256::ONE.bit_len(), 1);
        assert_eq!(U256::pow2(130).bit_len(), 131);
        assert_eq!(U256::pow2(130).floor_log2(), 130);
        assert_eq!(U256::from_u64(255).floor_log2(), 7);
    }

    #[test]
    fn add_sub() {
        let a = U256::pow2(130);
        let b = U256::from_u64(7);
        let s = a.checked_add(&b).unwrap();
        assert_eq!(s.checked_sub(&a).unwrap(), b);
        assert_eq!(s.checked_sub(&b).unwrap(), a);
        assert!(U256::ZERO.checked_sub(&U256::ONE).is_none());
        assert!(U256::pow2(255).checked_add(&U256::pow2(255)).is_none());
    }

    #[test]
    fn mul_and_shifts() {
        let a = U256::from_u128(u128::MAX);
        let m = a.checked_mul_u64(2).unwrap();
        assert_eq!(m, a.checked_shl(1).unwrap());
        assert_eq!(m.shr(1), a);
        assert!(U256::pow2(250).checked_shl(10).is_none());
        assert_eq!(U256::pow2(100).checked_shl(100).unwrap(), U256::pow2(200));
        assert_eq!(U256::pow2(100).shr(100), U256::ONE);
        assert_eq!(U256::pow2(100).shr(300), U256::ZERO);
    }

    #[test]
    fn from_u64_shifted_matches_general_shift() {
        for &v in &[0u64, 1, 7, 255, u64::MAX, 0xDEAD_BEEF] {
            for k in [0u32, 1, 31, 63, 64, 65, 127, 128, 161, 191] {
                if v != 0 && k as u64 + 64 - u64::from(v.leading_zeros()) > 256 {
                    continue;
                }
                assert_eq!(
                    U256::from_u64_shifted(v, k),
                    U256::from_u64(v).checked_shl(k).unwrap(),
                    "{v} << {k}"
                );
            }
        }
        assert_eq!(U256::from_u64_shifted(0, 300), U256::ZERO);
    }

    #[test]
    fn to_biguint_matches() {
        let a = U256::pow2(170).checked_add(&U256::from_u64(99)).unwrap();
        let b = a.to_biguint();
        assert_eq!(b, bignum::BigUint::pow2(170).add(&bignum::BigUint::from_u64(99)));
    }

    #[test]
    fn ordering() {
        assert!(U256::pow2(128) > U256::from_u128(u128::MAX));
        assert!(U256::from_u64(3) < U256::from_u64(4));
        assert_eq!(U256::from_u64(4).cmp(&U256::from_u64(4)), Ordering::Equal);
    }
}
