//! Arbitrary-precision unsigned integers on 64-bit limbs.
//!
//! In the Word RAM model of the paper (§2.1) "every long integer is represented
//! by an array of words". [`BigUint`] is exactly that: little-endian 64-bit
//! limbs with no leading zero limb. The values the samplers form — the query
//! parameters, `W = α·Σw + β` and the threshold products — are rationals of
//! O(1) words (§2.2), so a value of at most two limbs is held inline and only
//! a longer one spills to the heap: arithmetic whose operands and result fit
//! in 128 bits runs on `u128` words and never allocates. All arithmetic is
//! exact; division is Knuth's Algorithm D in base 2^32 with a fast
//! single-limb path.

// pss-lint: allow-file(no-bare-index) — limb arrays are self-managed: every index is derived
// from limbs.len() or a split of it, audited in place; a slip here is caught by the proptest
// round-trip suite rather than hidden behind get() chains that would obscure Algorithm D
// pss-lint: allow-file(no-lossy-cast) — the base-2^32 Knuth division deliberately decomposes
// limbs with truncating casts (lo-32 semantics); remaining casts are masked (% 64) or bounded

use std::cmp::Ordering;
use std::fmt;

/// Limbs a value holds inline; a longer value lives on the heap.
const INLINE: usize = 2;

/// The limb storage, normalized so that every value has exactly one form: a
/// value of at most [`INLINE`] significant limbs is `Inline`, with every limb
/// from `len` on zero, and `Heap` holds three or more limbs, the last one
/// non-zero. Derived equality is then value equality, and a zero compares
/// as two words.
#[derive(Clone, PartialEq, Eq)]
enum Repr {
    Inline { len: u8, limbs: [u64; INLINE] },
    Heap(Box<[u64]>),
}

/// An arbitrary-precision unsigned integer (little-endian 64-bit limbs).
///
/// Values of at most 128 bits live inline (24 bytes, no heap); equality,
/// ordering and hashing are by value, and [`BigUint::limbs`] is the same
/// normalized slice whichever form holds it.
#[derive(Clone, PartialEq, Eq)]
pub struct BigUint {
    repr: Repr,
}

impl Default for BigUint {
    fn default() -> Self {
        Self::zero()
    }
}

impl std::hash::Hash for BigUint {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.limbs().hash(state);
    }
}

impl BigUint {
    /// The inline form of `v`.
    #[inline]
    const fn inline(v: u128) -> Self {
        let (lo, hi) = (v as u64, (v >> 64) as u64);
        let len = if hi != 0 { 2 } else { (lo != 0) as u8 };
        BigUint { repr: Repr::Inline { len, limbs: [lo, hi] } }
    }

    /// The value as one `u128` word when it is held inline.
    #[inline]
    fn word(&self) -> Option<u128> {
        match self.repr {
            Repr::Inline { limbs: [lo, hi], .. } => Some(lo as u128 | (hi as u128) << 64),
            Repr::Heap(_) => None,
        }
    }

    /// Both operands as `u128` words when both are held inline.
    #[inline]
    fn words(&self, other: &Self) -> Option<(u128, u128)> {
        Some((self.word()?, other.word()?))
    }

    /// The value 0.
    #[inline]
    pub const fn zero() -> Self {
        Self::inline(0)
    }

    /// The value 1.
    #[inline]
    pub const fn one() -> Self {
        Self::inline(1)
    }

    /// Constructs from a `u64`.
    #[inline]
    pub const fn from_u64(v: u64) -> Self {
        Self::inline(v as u128)
    }

    /// Constructs from a `u128`.
    #[inline]
    pub const fn from_u128(v: u128) -> Self {
        Self::inline(v)
    }

    /// Constructs from little-endian limbs (normalizing trailing zeros).
    pub fn from_limbs(mut limbs: Vec<u64>) -> Self {
        while limbs.last() == Some(&0) {
            limbs.pop();
        }
        match *limbs {
            [] => Self::zero(),
            [lo] => Self::from_u64(lo),
            [lo, hi] => Self::inline(lo as u128 | (hi as u128) << 64),
            _ => BigUint { repr: Repr::Heap(limbs.into_boxed_slice()) },
        }
    }

    /// Borrow the little-endian limbs.
    #[inline]
    pub fn limbs(&self) -> &[u64] {
        match &self.repr {
            Repr::Inline { len, limbs } => &limbs[..usize::from(*len)],
            Repr::Heap(limbs) => limbs,
        }
    }

    /// Number of limbs (words) used; this is the model's space measure.
    #[inline]
    pub fn word_len(&self) -> usize {
        self.limbs().len()
    }

    /// `true` iff the value is 0.
    #[inline]
    pub fn is_zero(&self) -> bool {
        matches!(self.repr, Repr::Inline { len: 0, .. })
    }

    /// `true` iff the value is 1.
    #[inline]
    pub fn is_one(&self) -> bool {
        self.word() == Some(1)
    }

    /// Converts to `u64`, returning `None` on overflow.
    #[inline]
    pub fn to_u64(&self) -> Option<u64> {
        self.word().and_then(|v| u64::try_from(v).ok())
    }

    /// Converts to `u128`, returning `None` on overflow.
    #[inline]
    pub fn to_u128(&self) -> Option<u128> {
        self.word()
    }

    /// Lossy conversion to `f64` (used only for diagnostics, never for sampling).
    pub fn to_f64_lossy(&self) -> f64 {
        let mut acc = 0.0_f64;
        for &l in self.limbs().iter().rev() {
            acc = acc * 1.8446744073709552e19 + l as f64;
        }
        acc
    }

    /// Certified `f64` bracket: returns `(lo, hi)` with `lo ≤ self ≤ hi` as
    /// exact mathematical inequalities. Values with at most 53 significant
    /// bits are represented exactly (`lo == hi`); otherwise the bracket is one
    /// unit in the last place wide. Values beyond `f64::MAX` get
    /// `(f64::MAX, +∞)`.
    ///
    /// Unlike [`BigUint::to_f64_lossy`] this is safe to feed into the sampling
    /// fast path: any decision made strictly against the bracket agrees with
    /// the exact value.
    pub fn to_f64_bounds(&self) -> (f64, f64) {
        f64_bounds_from_limbs(self.limbs(), self.bit_len())
    }

    /// Number of significant bits: `bit_len(0) == 0`, `bit_len(1) == 1`.
    ///
    /// In the Word RAM model this is one "index of highest non-zero bit"
    /// instruction per word, i.e. O(words).
    #[inline]
    pub fn bit_len(&self) -> u64 {
        let limbs = self.limbs();
        match limbs.last() {
            None => 0,
            Some(&hi) => (limbs.len() as u64 - 1) * 64 + (64 - hi.leading_zeros() as u64),
        }
    }

    /// Returns bit `i` (little-endian; bit 0 is the least significant).
    #[inline]
    pub fn bit(&self, i: u64) -> bool {
        let limbs = self.limbs();
        let limb = (i / 64) as usize;
        if limb >= limbs.len() {
            return false;
        }
        // pss-lint: allow(no-bare-shift) — amount is masked to < 64
        (limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// `2^k`.
    pub fn pow2(k: u64) -> Self {
        if let Some(v) = u32::try_from(k).ok().and_then(|k| 1u128.checked_shl(k)) {
            return Self::inline(v);
        }
        let limb = (k / 64) as usize;
        let mut limbs = vec![0u64; limb + 1];
        // pss-lint: allow(no-bare-shift) — amount is masked to < 64
        limbs[limb] = 1u64 << (k % 64);
        Self::from_limbs(limbs)
    }

    /// `true` iff the value is an exact power of two.
    pub fn is_pow2(&self) -> bool {
        let Some((last, rest)) = self.limbs().split_last() else {
            return false;
        };
        last.is_power_of_two() && rest.iter().all(|&l| l == 0)
    }

    /// Number of trailing zero bits (`None` for zero).
    pub fn trailing_zeros(&self) -> Option<u64> {
        for (i, &l) in self.limbs().iter().enumerate() {
            if l != 0 {
                return Some(i as u64 * 64 + l.trailing_zeros() as u64);
            }
        }
        None
    }

    /// `self + other`.
    pub fn add(&self, other: &Self) -> Self {
        if let Some(s) = self.words(other).and_then(|(a, b)| a.checked_add(b)) {
            return Self::inline(s);
        }
        let (a, b) = if self.word_len() >= other.word_len() {
            (self.limbs(), other.limbs())
        } else {
            (other.limbs(), self.limbs())
        };
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry = 0u64;
        for (i, &ai) in a.iter().enumerate() {
            let bi = b.get(i).copied().unwrap_or(0);
            let (s1, c1) = ai.overflowing_add(bi);
            let (s2, c2) = s1.overflowing_add(carry);
            out.push(s2);
            carry = (c1 as u64) + (c2 as u64);
        }
        if carry != 0 {
            out.push(carry);
        }
        BigUint::from_limbs(out)
    }

    /// `self + v` for a single limb.
    pub fn add_u64(&self, v: u64) -> Self {
        self.add(&BigUint::from_u64(v))
    }

    /// `self - other`; panics on underflow (callers compare first).
    pub fn sub(&self, other: &Self) -> Self {
        debug_assert!(self.cmp(other) != Ordering::Less, "BigUint::sub underflow");
        if let Some((a, b)) = self.words(other) {
            return Self::inline(a.wrapping_sub(b));
        }
        let a = self.limbs();
        let mut out = Vec::with_capacity(a.len());
        let mut borrow = 0u64;
        for (i, &ai) in a.iter().enumerate() {
            let bi = other.limbs().get(i).copied().unwrap_or(0);
            let (d1, b1) = ai.overflowing_sub(bi);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out.push(d2);
            borrow = (b1 as u64) + (b2 as u64);
        }
        debug_assert_eq!(borrow, 0);
        BigUint::from_limbs(out)
    }

    /// `self * other` (schoolbook; operand sizes in this library are tiny).
    pub fn mul(&self, other: &Self) -> Self {
        if let Some(p) = self.words(other).and_then(|(a, b)| a.checked_mul(b)) {
            return Self::inline(p);
        }
        if self.is_zero() || other.is_zero() {
            return Self::zero();
        }
        let (a, b) = (self.limbs(), other.limbs());
        let mut out = vec![0u64; a.len() + b.len()];
        for (i, &x) in a.iter().enumerate() {
            let mut carry = 0u128;
            for (j, &y) in b.iter().enumerate() {
                let cur = out[i + j] as u128 + (x as u128) * (y as u128) + carry;
                out[i + j] = cur as u64;
                carry = cur >> 64;
            }
            let mut k = i + b.len();
            while carry != 0 {
                let cur = out[k] as u128 + carry;
                out[k] = cur as u64;
                carry = cur >> 64;
                k += 1;
            }
        }
        BigUint::from_limbs(out)
    }

    /// `self * v` for a single limb.
    pub fn mul_u64(&self, v: u64) -> Self {
        if let Some(p) = self.word().and_then(|a| a.checked_mul(v as u128)) {
            return Self::inline(p);
        }
        if v == 0 || self.is_zero() {
            return Self::zero();
        }
        let a = self.limbs();
        let mut out = Vec::with_capacity(a.len() + 1);
        let mut carry = 0u128;
        for &x in a {
            let cur = (x as u128) * (v as u128) + carry;
            out.push(cur as u64);
            carry = cur >> 64;
        }
        if carry != 0 {
            out.push(carry as u64);
        }
        BigUint::from_limbs(out)
    }

    /// `self << k`.
    pub fn shl(&self, k: u64) -> Self {
        if self.is_zero() || k == 0 {
            return self.clone();
        }
        if let Some(a) = self.word() {
            // Fits in 128 bits iff k ≤ 128 − bit_len, so k < 128 here.
            if k <= 128 - self.bit_len() {
                return Self::inline(a.wrapping_shl(k as u32));
            }
        }
        let limb_shift = (k / 64) as usize;
        let bit_shift = (k % 64) as u32;
        let mut out = vec![0u64; limb_shift];
        if bit_shift == 0 {
            out.extend_from_slice(self.limbs());
        } else {
            let mut carry = 0u64;
            for &l in self.limbs() {
                // pss-lint: allow(no-bare-shift) — bit_shift ∈ 1..=63: the == 0 case took the branch above
                out.push((l << bit_shift) | carry);
                // pss-lint: allow(no-bare-shift) — 64 - bit_shift ∈ 1..=63 for bit_shift ∈ 1..=63
                carry = l >> (64 - bit_shift);
            }
            if carry != 0 {
                out.push(carry);
            }
        }
        BigUint::from_limbs(out)
    }

    /// `self >> k` (floor).
    pub fn shr(&self, k: u64) -> Self {
        if let Some(a) = self.word() {
            return Self::inline(u32::try_from(k).ok().and_then(|k| a.checked_shr(k)).unwrap_or(0));
        }
        let limbs = self.limbs();
        let limb_shift = (k / 64) as usize;
        if limb_shift >= limbs.len() {
            return Self::zero();
        }
        let bit_shift = (k % 64) as u32;
        let src = &limbs[limb_shift..];
        let mut out = Vec::with_capacity(src.len());
        if bit_shift == 0 {
            out.extend_from_slice(src);
        } else {
            for i in 0..src.len() {
                let hi = src.get(i + 1).copied().unwrap_or(0);
                // pss-lint: allow(no-bare-shift) — bit_shift ∈ 1..=63: the == 0 case took the branch above
                out.push((src[i] >> bit_shift) | (hi << (64 - bit_shift)));
            }
        }
        BigUint::from_limbs(out)
    }

    /// Truncates to the lowest `k` bits (i.e. `self mod 2^k`).
    pub fn low_bits(&self, k: u64) -> Self {
        if k >= self.bit_len() {
            return self.clone();
        }
        let limbs = self.limbs();
        if k <= 128 {
            // The result fits in the low two limbs: k < bit_len, so the
            // value has at least one limb, and k ≤ 128 keeps the mask shift
            // in range (k = 0 masks everything off).
            let lo = limbs[0] as u128 | (limbs.get(1).copied().unwrap_or(0) as u128) << 64;
            let mask = u128::MAX.checked_shr(128 - k as u32).unwrap_or(0);
            return Self::inline(lo & mask);
        }
        let full = (k / 64) as usize;
        let mut out: Vec<u64> = limbs[..=full].to_vec();
        let rem = k % 64;
        if rem == 0 {
            out.pop();
        } else if let Some(last) = out.last_mut() {
            // pss-lint: allow(no-bare-shift) — rem = k % 64 and the rem == 0 case took the branch above
            *last &= (1u64 << rem) - 1;
        }
        BigUint::from_limbs(out)
    }

    /// Comparison.
    #[allow(clippy::should_implement_trait)]
    pub fn cmp(&self, other: &Self) -> Ordering {
        if let Some((a, b)) = self.words(other) {
            return a.cmp(&b);
        }
        let (a, b) = (self.limbs(), other.limbs());
        a.len().cmp(&b.len()).then_with(|| a.iter().rev().cmp(b.iter().rev()))
    }

    /// `(self / other, self % other)`; panics if `other == 0`.
    pub fn div_rem(&self, other: &Self) -> (Self, Self) {
        assert!(!other.is_zero(), "division by zero");
        if let Some((a, b)) = self.words(other) {
            return (Self::inline(a / b), Self::inline(a % b));
        }
        match self.cmp(other) {
            Ordering::Less => return (Self::zero(), self.clone()),
            Ordering::Equal => return (Self::one(), Self::zero()),
            Ordering::Greater => {}
        }
        if let Some(d) = other.to_u64() {
            let (q, r) = self.div_rem_u64(d);
            return (q, Self::from_u64(r));
        }
        self.div_rem_knuth(other)
    }

    /// `(self / d, self % d)` for a single limb divisor.
    pub fn div_rem_u64(&self, d: u64) -> (Self, u64) {
        assert!(d != 0, "division by zero");
        if let Some(a) = self.word() {
            return (Self::inline(a / d as u128), (a % d as u128) as u64);
        }
        let limbs = self.limbs();
        let mut q = vec![0u64; limbs.len()];
        let mut rem = 0u128;
        for i in (0..limbs.len()).rev() {
            let cur = (rem << 64) | limbs[i] as u128;
            q[i] = (cur / d as u128) as u64;
            rem = cur % d as u128;
        }
        (BigUint::from_limbs(q), rem as u64)
    }

    /// Knuth Algorithm D in base 2^32.
    fn div_rem_knuth(&self, other: &Self) -> (Self, Self) {
        fn to32(x: &BigUint) -> Vec<u32> {
            let mut v = Vec::with_capacity(x.word_len() * 2);
            for &l in x.limbs() {
                v.push(l as u32);
                v.push((l >> 32) as u32);
            }
            while v.last() == Some(&0) {
                v.pop();
            }
            v
        }
        fn from32(v: &[u32]) -> BigUint {
            let mut limbs = Vec::with_capacity(v.len() / 2 + 1);
            let mut i = 0;
            while i < v.len() {
                let lo = v[i] as u64;
                let hi = v.get(i + 1).copied().unwrap_or(0) as u64;
                limbs.push(lo | (hi << 32));
                i += 2;
            }
            BigUint::from_limbs(limbs)
        }

        const B: u64 = 1 << 32;
        let u0 = to32(self);
        let v0 = to32(other);
        let n = v0.len();
        let m = u0.len() - n;
        debug_assert!(n >= 2);

        // D1: normalize so the divisor's top digit has its high bit set.
        let s = v0[n - 1].leading_zeros();
        let vv: Vec<u32> = {
            let b = BigUint::from_limbs(
                v0.chunks(2)
                    .map(|c| c[0] as u64 | ((c.get(1).copied().unwrap_or(0) as u64) << 32))
                    .collect(),
            );
            to32(&b.shl(s as u64))
        };
        let un_big = from32(&u0).shl(s as u64);
        let mut uu = to32(&un_big);
        uu.resize(m + n + 1, 0);

        let mut q = vec![0u32; m + 1];
        for j in (0..=m).rev() {
            // D3: estimate q̂.
            let top = ((uu[j + n] as u64) << 32) | uu[j + n - 1] as u64;
            let mut qhat = top / vv[n - 1] as u64;
            let mut rhat = top % vv[n - 1] as u64;
            while qhat >= B || qhat * vv[n - 2] as u64 > ((rhat << 32) | uu[j + n - 2] as u64) {
                qhat -= 1;
                rhat += vv[n - 1] as u64;
                if rhat >= B {
                    break;
                }
            }
            // D4: multiply and subtract.
            let mut borrow = 0i64;
            let mut carry = 0u64;
            for i in 0..n {
                let p = qhat * vv[i] as u64 + carry;
                carry = p >> 32;
                let sub = (uu[i + j] as i64) - ((p & 0xFFFF_FFFF) as i64) - borrow;
                uu[i + j] = sub as u32;
                borrow = if sub < 0 { 1 } else { 0 };
                if sub < 0 {
                    // Two's-complement wrap already stored; nothing more to do.
                }
            }
            let sub = (uu[j + n] as i64) - (carry as i64) - borrow;
            uu[j + n] = sub as u32;
            if sub < 0 {
                // D6: q̂ was one too large; add back.
                qhat -= 1;
                let mut c = 0u64;
                for i in 0..n {
                    let t = uu[i + j] as u64 + vv[i] as u64 + c;
                    uu[i + j] = t as u32;
                    c = t >> 32;
                }
                uu[j + n] = (uu[j + n] as u64).wrapping_add(c) as u32;
            }
            q[j] = qhat as u32;
        }
        let quot = from32(&q);
        let rem = from32(&uu[..n]).shr(s as u64);
        (quot, rem)
    }

    /// Greatest common divisor (binary GCD).
    pub fn gcd(&self, other: &Self) -> Self {
        let mut a = self.clone();
        let mut b = other.clone();
        if a.is_zero() {
            return b;
        }
        if b.is_zero() {
            return a;
        }
        let za = a.trailing_zeros().unwrap_or(0);
        let zb = b.trailing_zeros().unwrap_or(0);
        let z = za.min(zb);
        a = a.shr(za);
        b = b.shr(zb);
        loop {
            match a.cmp(&b) {
                Ordering::Equal => break,
                Ordering::Greater => {
                    a = a.sub(&b);
                    a = a.shr(a.trailing_zeros().unwrap_or(0));
                }
                Ordering::Less => {
                    b = b.sub(&a);
                    b = b.shr(b.trailing_zeros().unwrap_or(0));
                }
            }
        }
        a.shl(z)
    }

    /// `self^k` (exact; beware growth — used only in tests and tiny exponents).
    pub fn pow(&self, mut k: u64) -> Self {
        let mut base = self.clone();
        let mut acc = Self::one();
        while k > 0 {
            if k & 1 == 1 {
                acc = acc.mul(&base);
            }
            k >>= 1;
            if k > 0 {
                base = base.mul(&base);
            }
        }
        acc
    }
}

impl PartialOrd for BigUint {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(Ord::cmp(self, other))
    }
}

impl Ord for BigUint {
    fn cmp(&self, other: &Self) -> Ordering {
        BigUint::cmp(self, other)
    }
}

impl From<u64> for BigUint {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl From<u128> for BigUint {
    fn from(v: u128) -> Self {
        Self::from_u128(v)
    }
}

impl fmt::Debug for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigUint(0x")?;
        if self.is_zero() {
            write!(f, "0")?;
        }
        for (i, l) in self.limbs().iter().rev().enumerate() {
            if i == 0 {
                write!(f, "{l:x}")?;
            } else {
                write!(f, "{l:016x}")?;
            }
        }
        write!(f, ")")
    }
}

impl fmt::Display for BigUint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut digits = Vec::new();
        let mut cur = self.clone();
        while !cur.is_zero() {
            let (q, r) = cur.div_rem_u64(10);
            digits.push(b'0' + r as u8);
            cur = q;
        }
        digits.reverse();
        // pss-lint: allow(no-panic-paths) — digits holds only ASCII b'0'..=b'9' built two lines up
        f.write_str(std::str::from_utf8(&digits).unwrap())
    }
}

/// Certified `f64` bracket of the integer with little-endian 64-bit `limbs`
/// and `bit_len` significant bits: `lo ≤ value ≤ hi` exactly.
///
/// Shared by [`BigUint::to_f64_bounds`] and fixed-width integer types in
/// higher crates (the Word RAM hierarchy's 256-bit proxy weights), so the
/// whole workspace agrees on one directed-rounding conversion.
pub fn f64_bounds_from_limbs(limbs: &[u64], bit_len: u64) -> (f64, f64) {
    if bit_len <= 53 {
        // At most 53 significant bits: exactly representable.
        let v = limbs.first().copied().unwrap_or(0) as f64;
        return (v, v);
    }
    // t = ⌊value / 2^s⌋ carries exactly the top 53 bits; sticky records
    // whether any of the discarded low `s` bits is set.
    let s = bit_len - 53;
    let word = (s / 64) as usize;
    let off = (s % 64) as u32;
    // pss-lint: allow(no-bare-shift) — off = s % 64 < 64
    let mut t = limbs[word] >> off;
    if off != 0 && word + 1 < limbs.len() {
        // pss-lint: allow(no-bare-shift) — guarded by off != 0, so 64 - off ∈ 1..=63
        t |= limbs[word + 1] << (64 - off);
    }
    debug_assert!(t >> 53 == 0, "top-bit extraction overflowed 53 bits");
    // pss-lint: allow(no-bare-shift) — off = s % 64 < 64 and the mask is only read when off != 0
    let sticky = (off != 0 && limbs[word] & ((1u64 << off) - 1) != 0)
        || limbs[..word].iter().any(|&l| l != 0);
    // t and t+1 are ≤ 2^53 (exact in f64); scaling by 2^s is exact while the
    // result stays finite, so lo = t·2^s ≤ value and value ≤ (t+sticky)·2^s = hi.
    let scale = if s <= 1023 { 2f64.powi(s as i32) } else { f64::INFINITY };
    let lo = t as f64 * scale;
    let hi = if sticky { (t + 1) as f64 * scale } else { lo };
    (if lo.is_finite() { lo } else { f64::MAX }, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u128) -> BigUint {
        BigUint::from_u128(v)
    }

    #[test]
    fn zero_and_one() {
        assert!(BigUint::zero().is_zero());
        assert!(BigUint::one().is_one());
        assert_eq!(BigUint::zero().bit_len(), 0);
        assert_eq!(BigUint::one().bit_len(), 1);
    }

    #[test]
    fn equality_is_value_equality() {
        let zero = BigUint::zero();
        // A zero built by arithmetic normalizes to the one inline zero.
        let computed_zero = big(7).sub(&big(7));
        assert_eq!(zero, computed_zero);
        assert_eq!(zero, BigUint::from_limbs(vec![0, 0]));
        assert_ne!(zero, BigUint::one());
        assert_ne!(BigUint::one(), zero);
        assert_eq!(BigUint::one(), big(1));
        let wide = big(u128::MAX).mul(&big(3));
        assert_eq!(wide.limbs().len(), 3);
        assert_eq!(wide, BigUint::from_limbs(wide.limbs().to_vec()));
        assert_ne!(wide, wide.add(&BigUint::one()));
        assert_ne!(wide, big(u128::MAX), "a shorter value never equals a longer one");
        // Equal values hash alike.
        let hash = |v: &BigUint| {
            use std::hash::{Hash, Hasher};
            let mut h = std::collections::hash_map::DefaultHasher::new();
            v.hash(&mut h);
            h.finish()
        };
        assert_eq!(hash(&zero), hash(&computed_zero));
        assert_eq!(hash(&wide), hash(&BigUint::from_limbs(wide.limbs().to_vec())));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = big(u128::MAX - 5);
        let b = big(12345);
        let s = a.add(&b);
        assert_eq!(s.sub(&b), a);
        assert_eq!(s.sub(&a), b);
    }

    #[test]
    fn add_carries_across_limbs() {
        let a = big(u128::MAX);
        let s = a.add(&BigUint::one());
        assert_eq!(s, BigUint::pow2(128));
        assert_eq!(s.word_len(), 3);
    }

    #[test]
    fn mul_matches_u128() {
        let a = big(0xDEAD_BEEF_CAFE);
        let b = big(0xFEED_FACE);
        assert_eq!(a.mul(&b).to_u128().unwrap(), 0xDEAD_BEEF_CAFEu128 * 0xFEED_FACEu128);
    }

    #[test]
    fn mul_big() {
        // (2^128 - 1)^2 = 2^256 - 2^129 + 1
        let a = big(u128::MAX);
        let sq = a.mul(&a);
        let expect = BigUint::pow2(256).sub(&BigUint::pow2(129)).add(&BigUint::one());
        assert_eq!(sq, expect);
    }

    #[test]
    fn shifts() {
        let a = big(0b1011);
        assert_eq!(a.shl(100).shr(100), a);
        assert_eq!(a.shl(3).to_u64().unwrap(), 0b1011000);
        assert_eq!(a.shr(2).to_u64().unwrap(), 0b10);
        assert_eq!(a.shr(64), BigUint::zero());
    }

    #[test]
    fn bit_access() {
        let a = BigUint::pow2(130).add(&BigUint::one());
        assert!(a.bit(0));
        assert!(a.bit(130));
        assert!(!a.bit(64));
        assert!(!a.bit(1000));
    }

    #[test]
    fn low_bits_mod() {
        let a = big(0xFFFF_0000_FFFF_0000_1234_5678_9ABC_DEF0);
        assert_eq!(a.low_bits(16).to_u64().unwrap(), 0xDEF0);
        assert_eq!(a.low_bits(64).to_u64().unwrap(), 0x1234_5678_9ABC_DEF0);
        assert_eq!(a.low_bits(200), a);
    }

    #[test]
    fn div_rem_small() {
        let a = big(1_000_000_007u128 * 997 + 123);
        let (q, r) = a.div_rem(&big(1_000_000_007));
        assert_eq!(q.to_u64().unwrap(), 997);
        assert_eq!(r.to_u64().unwrap(), 123);
    }

    #[test]
    fn div_rem_multi_limb() {
        // a = d*q + r with multi-limb d.
        let d = big(u128::MAX - 12345);
        let q = big(0xABCD_EF01_2345_6789);
        let r = big(42);
        let a = d.mul(&q).add(&r);
        let (qq, rr) = a.div_rem(&d);
        assert_eq!(qq, q);
        assert_eq!(rr, r);
    }

    #[test]
    fn div_rem_knuth_addback_path() {
        // Force the rare "add back" correction: divisor with high digit just
        // above B/2 and dividend crafted near the boundary.
        let d = BigUint::pow2(95).add(&BigUint::one());
        let a = BigUint::pow2(190).sub(&BigUint::one());
        let (q, r) = a.div_rem(&d);
        assert_eq!(q.mul(&d).add(&r), a);
        assert!(r.cmp(&d) == Ordering::Less);
    }

    #[test]
    fn div_rem_exhaustive_shape() {
        // Cross-check many shapes against reconstruction.
        let mut x = BigUint::one();
        for i in 1..40u64 {
            x = x.mul_u64(0x9E37_79B9_7F4A_7C15).add_u64(i);
            let mut d = BigUint::one();
            for j in 1..(i % 7 + 2) {
                d = d.mul_u64(0xC2B2_AE3D_27D4_EB4F ^ j).add_u64(j * 7 + 1);
            }
            let (q, r) = x.div_rem(&d);
            assert_eq!(q.mul(&d).add(&r), x, "i={i}");
            assert!(r.cmp(&d) == Ordering::Less, "i={i}");
        }
    }

    #[test]
    fn gcd_basic() {
        assert_eq!(big(48).gcd(&big(36)).to_u64().unwrap(), 12);
        assert_eq!(big(0).gcd(&big(7)).to_u64().unwrap(), 7);
        let a = big(2u128.pow(40) * 3 * 7);
        let b = big(2u128.pow(20) * 7 * 11);
        assert_eq!(a.gcd(&b).to_u128().unwrap(), 2u128.pow(20) * 7);
    }

    #[test]
    fn pow_small() {
        assert_eq!(big(3).pow(5).to_u64().unwrap(), 243);
        assert_eq!(big(2).pow(130), BigUint::pow2(130));
        assert_eq!(big(7).pow(0), BigUint::one());
    }

    #[test]
    fn display_decimal() {
        assert_eq!(big(0).to_string(), "0");
        assert_eq!(big(1234567890123456789).to_string(), "1234567890123456789");
        assert_eq!(BigUint::pow2(128).to_string(), "340282366920938463463374607431768211456");
    }

    #[test]
    fn trailing_zeros_and_pow2() {
        assert_eq!(BigUint::pow2(77).trailing_zeros(), Some(77));
        assert!(BigUint::pow2(77).is_pow2());
        assert!(!big(12).is_pow2());
        assert!(!BigUint::zero().is_pow2());
        assert_eq!(BigUint::zero().trailing_zeros(), None);
    }

    #[test]
    fn mul_u64_matches_mul() {
        let a = big(u128::MAX / 3);
        assert_eq!(a.mul_u64(12345), a.mul(&big(12345)));
    }

    #[test]
    fn bit_len_values() {
        assert_eq!(big(1).bit_len(), 1);
        assert_eq!(big(255).bit_len(), 8);
        assert_eq!(big(256).bit_len(), 9);
        assert_eq!(BigUint::pow2(64).bit_len(), 65);
    }
}
