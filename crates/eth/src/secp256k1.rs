//! secp256k1 elliptic-curve arithmetic and ECDSA, from scratch.
//!
//! Implements the curve `y² = x³ + 7` over the field `F_p` with
//! `p = 2^256 - 2^32 - 977`, Jacobian-coordinate group law, deterministic
//! RFC-6979 nonces, low-`s` normalized signatures, and public-key recovery
//! (the `ecrecover` primitive that lets the chain derive a transaction's
//! sender from its signature alone).

use ofl_primitives::u256::{U256, U512};
use ofl_primitives::{hmac_sha256, keccak256, H160};
use std::sync::OnceLock;

/// The field prime `p = 2^256 - 2^32 - 977`.
pub const P: U256 = U256([
    0xfffffffefffffc2f,
    0xffffffffffffffff,
    0xffffffffffffffff,
    0xffffffffffffffff,
]);

/// The group order `n`.
pub const N: U256 = U256([
    0xbfd25e8cd0364141,
    0xbaaedce6af48a03b,
    0xfffffffffffffffe,
    0xffffffffffffffff,
]);

/// Generator x-coordinate.
pub const GX: U256 = U256([
    0x59f2815b16f81798,
    0x029bfcdb2dce28d9,
    0x55a06295ce870b07,
    0x79be667ef9dcbbac,
]);

/// Generator y-coordinate.
pub const GY: U256 = U256([
    0x9c47d08ffb10d4b8,
    0xfd17b448a6855419,
    0x5da4fbfc0e1108a8,
    0x483ada7726a3c465,
]);

/// `2^256 - p = 2^32 + 977`, the folding constant for fast reduction.
const C: U256 = U256([0x1000003d1, 0, 0, 0]);

/// `2^256 - n` (about 2^129), the folding constant for fast scalar
/// reduction mod the group order.
const N_C: U256 = U256([0x402da1732fc9bebf, 0x4551231950b75fc4, 0x1, 0]);

/// 512-bit addition with carry out (carry can only be 0 or 1 here because we
/// only ever add values far below 2^512).
fn u512_add(a: &U512, b: &U512) -> U512 {
    let mut out = [0u64; 8];
    let mut carry = 0u128;
    for (i, limb) in out.iter_mut().enumerate() {
        let sum = a.0[i] as u128 + b.0[i] as u128 + carry;
        *limb = sum as u64;
        carry = sum >> 64;
    }
    debug_assert_eq!(carry, 0, "u512_add overflow");
    U512(out)
}

/// Reduces a 512-bit product modulo `p` using the special form of the
/// secp256k1 prime: `2^256 ≡ 2^32 + 977 (mod p)`, so the high half folds
/// into the low half with one small multiplication. Two folds plus at most
/// two conditional subtractions suffice.
fn reduce_p(w: &U512) -> U256 {
    let mut cur = *w;
    // Fold until the high 256 bits are zero (at most 2 iterations: the first
    // fold leaves hi ≤ 2^34, the second leaves hi = 0).
    loop {
        let hi = U256([cur.0[4], cur.0[5], cur.0[6], cur.0[7]]);
        let lo = U256([cur.0[0], cur.0[1], cur.0[2], cur.0[3]]);
        if hi.is_zero() {
            let mut r = lo;
            while r >= P {
                r = r.wrapping_sub(&P);
            }
            return r;
        }
        cur = u512_add(&hi.widening_mul(&C), &U512::from_u256(&lo));
    }
}

/// Reduces a 512-bit product modulo the group order `n` by the same
/// folding trick as [`reduce_p`]: `2^256 ≡ 2^256 - n (mod n)` and the
/// difference is only ~2^129, so a handful of folds replace bit-by-bit
/// long division. Every ECDSA sign and recover runs hundreds of scalar
/// multiplies through here (the Fermat inversions), so this is squarely
/// on the fleet's signing hot path.
fn reduce_n(w: &U512) -> U256 {
    let mut cur = *w;
    loop {
        let hi = U256([cur.0[4], cur.0[5], cur.0[6], cur.0[7]]);
        let lo = U256([cur.0[0], cur.0[1], cur.0[2], cur.0[3]]);
        if hi.is_zero() {
            let mut r = lo;
            while r >= N {
                r = r.wrapping_sub(&N);
            }
            return r;
        }
        cur = u512_add(&hi.widening_mul(&N_C), &U512::from_u256(&lo));
    }
}

/// Field element in `F_p`, kept reduced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Fe(U256);

// Field arithmetic reads as math (`a.add(b)`, `a.mul(b)`); these are not
// the operator traits and deliberately take/return by value.
#[allow(clippy::should_implement_trait)]
impl Fe {
    pub const ZERO: Fe = Fe(U256::ZERO);
    pub const ONE: Fe = Fe(U256::ONE);

    /// Constructs from an integer, reducing mod `p`.
    pub fn new(v: U256) -> Fe {
        if v >= P {
            Fe(v.wrapping_sub(&P))
        } else {
            Fe(v)
        }
    }

    /// The underlying reduced integer.
    pub fn to_u256(self) -> U256 {
        self.0
    }

    pub fn is_zero(self) -> bool {
        self.0.is_zero()
    }

    /// True iff the canonical representative is odd (used for point
    /// compression parity / recovery ids).
    pub fn is_odd(self) -> bool {
        self.0.bit(0)
    }

    pub fn add(self, rhs: Fe) -> Fe {
        let (sum, carry) = self.0.overflowing_add(&rhs.0);
        let mut r = sum;
        if carry || r >= P {
            r = r.wrapping_sub(&P);
        }
        Fe(r)
    }

    pub fn sub(self, rhs: Fe) -> Fe {
        if self.0 >= rhs.0 {
            Fe(self.0.wrapping_sub(&rhs.0))
        } else {
            Fe(P.wrapping_sub(&rhs.0).wrapping_add(&self.0))
        }
    }

    pub fn neg(self) -> Fe {
        if self.0.is_zero() {
            self
        } else {
            Fe(P.wrapping_sub(&self.0))
        }
    }

    pub fn mul(self, rhs: Fe) -> Fe {
        Fe(reduce_p(&self.0.widening_mul(&rhs.0)))
    }

    pub fn square(self) -> Fe {
        self.mul(self)
    }

    /// Small-scalar multiply (for the 2·, 3·, 8· constants in the group law).
    pub fn mul_small(self, k: u64) -> Fe {
        Fe(reduce_p(&self.0.widening_mul(&U256::from_u64(k))))
    }

    /// Multiplicative inverse by Fermat (p is prime); `None` for zero.
    pub fn inv(self) -> Option<Fe> {
        if self.is_zero() {
            return None;
        }
        Some(self.pow(&P.wrapping_sub(&U256::from_u64(2))))
    }

    /// Exponentiation by squaring.
    pub fn pow(self, e: &U256) -> Fe {
        let mut result = Fe::ONE;
        let mut base = self;
        for i in 0..e.bits() {
            if e.bit(i as usize) {
                result = result.mul(base);
            }
            base = base.square();
        }
        result
    }

    /// Square root via `a^((p+1)/4)` (valid because `p ≡ 3 mod 4`);
    /// `None` when `a` is a non-residue.
    pub fn sqrt(self) -> Option<Fe> {
        // (p + 1) / 4
        let exp = U256([
            0xffffffffbfffff0c,
            0xffffffffffffffff,
            0xffffffffffffffff,
            0x3fffffffffffffff,
        ]);
        let cand = self.pow(&exp);
        if cand.square() == self {
            Some(cand)
        } else {
            None
        }
    }
}

/// Scalar in `Z_n`, kept reduced. Arithmetic uses the `reduce_n` folding
/// reduction — the Fermat inversions inside sign/recover run hundreds of
/// scalar multiplies each, so generic long-division reduction here would
/// dominate the whole signing path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Scalar(U256);

#[allow(clippy::should_implement_trait)]
impl Scalar {
    pub const ZERO: Scalar = Scalar(U256::ZERO);

    /// Constructs reducing mod `n`. One conditional subtraction is a full
    /// reduction: `2n > 2^256`, so any `U256` is below `2n`.
    pub fn new(v: U256) -> Scalar {
        if v >= N {
            Scalar(v.wrapping_sub(&N))
        } else {
            Scalar(v)
        }
    }

    /// Constructs only if already reduced and nonzero (strict validation for
    /// externally supplied `r`/`s`/private keys).
    pub fn from_canonical(v: U256) -> Option<Scalar> {
        if v.is_zero() || v >= N {
            None
        } else {
            Some(Scalar(v))
        }
    }

    pub fn to_u256(self) -> U256 {
        self.0
    }

    pub fn is_zero(self) -> bool {
        self.0.is_zero()
    }

    /// True iff the scalar exceeds `n/2` (high-`s` signatures are malleable
    /// and rejected by Ethereum since EIP-2).
    pub fn is_high(self) -> bool {
        // n/2 rounded down
        let half_n = U256([
            0xdfe92f46681b20a0,
            0x5d576e7357a4501d,
            0xffffffffffffffff,
            0x7fffffffffffffff,
        ]);
        self.0 > half_n
    }

    pub fn add(self, rhs: Scalar) -> Scalar {
        let (sum, carry) = self.0.overflowing_add(&rhs.0);
        let mut r = sum;
        if carry || r >= N {
            r = r.wrapping_sub(&N);
        }
        Scalar(r)
    }

    pub fn mul(self, rhs: Scalar) -> Scalar {
        Scalar(reduce_n(&self.0.widening_mul(&rhs.0)))
    }

    pub fn neg(self) -> Scalar {
        if self.0.is_zero() {
            self
        } else {
            Scalar(N.wrapping_sub(&self.0))
        }
    }

    /// Inverse by Fermat (n is prime), over the folding multiply; `None`
    /// for zero.
    pub fn inv(self) -> Option<Scalar> {
        if self.is_zero() {
            return None;
        }
        let e = N.wrapping_sub(&U256::from_u64(2));
        let mut result = Scalar(U256::ONE);
        let mut base = self;
        for i in 0..e.bits() {
            if e.bit(i as usize) {
                result = result.mul(base);
            }
            base = base.mul(base);
        }
        Some(result)
    }
}

/// A point on the curve in affine coordinates, or infinity.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Affine {
    /// The identity element.
    Infinity,
    /// A finite point (x, y) satisfying the curve equation.
    Point { x: Fe, y: Fe },
}

impl Affine {
    /// The generator `G`.
    pub fn generator() -> Affine {
        Affine::Point {
            x: Fe::new(GX),
            y: Fe::new(GY),
        }
    }

    /// Validates the curve equation `y² = x³ + 7`.
    pub fn is_on_curve(&self) -> bool {
        match self {
            Affine::Infinity => true,
            Affine::Point { x, y } => {
                let lhs = y.square();
                let rhs = x.square().mul(*x).add(Fe::new(U256::from_u64(7)));
                lhs == rhs
            }
        }
    }

    /// Lifts an x-coordinate to a point with the requested y parity
    /// (`ecrecover`'s core step). `None` if x is not on the curve.
    pub fn lift_x(x: Fe, odd_y: bool) -> Option<Affine> {
        let y2 = x.square().mul(x).add(Fe::new(U256::from_u64(7)));
        let mut y = y2.sqrt()?;
        if y.is_odd() != odd_y {
            y = y.neg();
        }
        Some(Affine::Point { x, y })
    }

    /// Uncompressed SEC1 encoding (0x04 || X || Y); `None` for infinity.
    pub fn to_uncompressed(&self) -> Option<[u8; 65]> {
        match self {
            Affine::Infinity => None,
            Affine::Point { x, y } => {
                let mut out = [0u8; 65];
                out[0] = 0x04;
                out[1..33].copy_from_slice(&x.to_u256().to_be_bytes());
                out[33..65].copy_from_slice(&y.to_u256().to_be_bytes());
                Some(out)
            }
        }
    }

    /// The Ethereum address of this public key: low 20 bytes of
    /// `keccak256(X || Y)`.
    pub fn to_eth_address(&self) -> Option<H160> {
        let enc = self.to_uncompressed()?;
        let digest = keccak256(&enc[1..]);
        Some(H160::from_slice(&digest[12..]))
    }
}

/// Jacobian-coordinate point `(X/Z², Y/Z³)` for inversion-free group law.
#[derive(Clone, Copy, Debug)]
pub struct Jacobian {
    x: Fe,
    y: Fe,
    z: Fe,
}

impl Jacobian {
    /// The identity (encoded with Z = 0).
    pub const INFINITY: Jacobian = Jacobian {
        x: Fe::ONE,
        y: Fe::ONE,
        z: Fe::ZERO,
    };

    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Converts from affine.
    pub fn from_affine(p: &Affine) -> Jacobian {
        match p {
            Affine::Infinity => Jacobian::INFINITY,
            Affine::Point { x, y } => Jacobian {
                x: *x,
                y: *y,
                z: Fe::ONE,
            },
        }
    }

    /// Converts to affine (one field inversion).
    pub fn to_affine(&self) -> Affine {
        if self.is_infinity() {
            return Affine::Infinity;
        }
        let zinv = self.z.inv().expect("nonzero z");
        let zinv2 = zinv.square();
        let zinv3 = zinv2.mul(zinv);
        Affine::Point {
            x: self.x.mul(zinv2),
            y: self.y.mul(zinv3),
        }
    }

    /// Point doubling (a = 0 specialization, dbl-2009-l formulas).
    pub fn double(&self) -> Jacobian {
        if self.is_infinity() || self.y.is_zero() {
            return Jacobian::INFINITY;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = self.x.add(b).square().sub(a).sub(c).mul_small(2);
        let e = a.mul_small(3);
        let f = e.square();
        let x3 = f.sub(d.mul_small(2));
        let y3 = e.mul(d.sub(x3)).sub(c.mul_small(8));
        let z3 = self.y.mul(self.z).mul_small(2);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// General Jacobian addition (add-2007-bl).
    pub fn add(&self, other: &Jacobian) -> Jacobian {
        if self.is_infinity() {
            return *other;
        }
        if other.is_infinity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = other.z.square();
        let u1 = self.x.mul(z2z2);
        let u2 = other.x.mul(z1z1);
        let s1 = self.y.mul(other.z).mul(z2z2);
        let s2 = other.y.mul(self.z).mul(z1z1);
        if u1 == u2 {
            if s1 == s2 {
                return self.double();
            }
            return Jacobian::INFINITY;
        }
        let h = u2.sub(u1);
        let i = h.mul_small(2).square();
        let j = h.mul(i);
        let r = s2.sub(s1).mul_small(2);
        let v = u1.mul(i);
        let x3 = r.square().sub(j).sub(v.mul_small(2));
        let y3 = r.mul(v.sub(x3)).sub(s1.mul(j).mul_small(2));
        let z3 = self.z.add(other.z).square().sub(z1z1).sub(z2z2).mul(h);
        Jacobian {
            x: x3,
            y: y3,
            z: z3,
        }
    }

    /// Scalar multiplication via a 4-bit window: 15 precomputed multiples,
    /// then four doublings plus at most one addition per scalar nibble —
    /// about half the additions of plain double-and-add for a full-width
    /// scalar. Same group element as [`Jacobian::scalar_mul_binary`]
    /// (regression-pinned in the tests); `ecrecover` runs one of these per
    /// mined transaction.
    pub fn scalar_mul(&self, k: &Scalar) -> Jacobian {
        let e = k.to_u256();
        if e.is_zero() || self.is_infinity() {
            return Jacobian::INFINITY;
        }
        let mut multiples = [*self; 15];
        for i in 1..15 {
            multiples[i] = multiples[i - 1].add(self);
        }
        let top_window = (e.bits() as usize).div_ceil(4);
        let mut acc = Jacobian::INFINITY;
        for w in (0..top_window).rev() {
            acc = acc.double().double().double().double();
            let digit = ((e.0[w / 16] >> ((w % 16) * 4)) & 0xf) as usize;
            if digit != 0 {
                acc = acc.add(&multiples[digit - 1]);
            }
        }
        acc
    }

    /// Scalar multiplication by plain left-to-right double-and-add — the
    /// reference path the windowed ladder is verified against.
    pub fn scalar_mul_binary(&self, k: &Scalar) -> Jacobian {
        let e = k.to_u256();
        let mut acc = Jacobian::INFINITY;
        let nbits = e.bits();
        for i in (0..nbits).rev() {
            acc = acc.double();
            if e.bit(i as usize) {
                acc = acc.add(self);
            }
        }
        acc
    }
}

/// Fixed-base precomputation for the generator: `TABLE[w][d - 1]` holds
/// `(d · 16^w) · G` for windows `w ∈ 0..64` and digits `d ∈ 1..=15`, so a
/// generator multiply is at most 63 additions with **zero doublings** —
/// every transaction signature pays two generator multiplies (nonce point
/// + RFC-6979 retries), and fleets sign tens of thousands of them.
static G_TABLE: OnceLock<Vec<[Jacobian; 15]>> = OnceLock::new();

fn g_table() -> &'static [[Jacobian; 15]] {
    G_TABLE.get_or_init(|| {
        let mut table = Vec::with_capacity(64);
        let mut base = Jacobian::from_affine(&Affine::generator());
        for _ in 0..64 {
            let mut entries = [Jacobian::INFINITY; 15];
            let mut acc = base;
            for slot in entries.iter_mut() {
                *slot = acc;
                acc = acc.add(&base);
            }
            // After 15 additions acc = 16·base: the next window's unit.
            table.push(entries);
            base = acc;
        }
        table
    })
}

/// Multiplies the generator by `k` via the 4-bit fixed-base table. The
/// result is the same group element as [`g_mul_double_and_add`], so every
/// affine coordinate — and therefore every signature byte — is identical;
/// only the wall-clock cost changes (regression-pinned in the tests).
pub fn g_mul(k: &Scalar) -> Jacobian {
    let table = g_table();
    let e = k.to_u256();
    let mut acc = Jacobian::INFINITY;
    for (w, entries) in table.iter().enumerate() {
        let digit = ((e.0[w / 16] >> ((w % 16) * 4)) & 0xf) as usize;
        if digit != 0 {
            acc = acc.add(&entries[digit - 1]);
        }
    }
    acc
}

/// Multiplies the generator by `k` with plain left-to-right
/// double-and-add — the reference path the precomputed table is verified
/// against.
pub fn g_mul_double_and_add(k: &Scalar) -> Jacobian {
    Jacobian::from_affine(&Affine::generator()).scalar_mul_binary(k)
}

/// An ECDSA signature with recovery information.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Signature {
    /// x-coordinate of the nonce point, mod n.
    pub r: U256,
    /// Low-normalized proof scalar.
    pub s: U256,
    /// Recovery id: bit 0 = parity of the (possibly negated) nonce point's y.
    pub recovery_id: u8,
}

/// Errors from ECDSA operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EcdsaError {
    /// Private key is zero or ≥ n.
    InvalidPrivateKey,
    /// r or s outside [1, n-1].
    InvalidSignature,
    /// Recovery produced no valid point.
    RecoveryFailed,
}

impl core::fmt::Display for EcdsaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let msg = match self {
            EcdsaError::InvalidPrivateKey => "invalid private key",
            EcdsaError::InvalidSignature => "invalid signature scalars",
            EcdsaError::RecoveryFailed => "public key recovery failed",
        };
        f.write_str(msg)
    }
}

impl std::error::Error for EcdsaError {}

/// RFC-6979 deterministic nonce derivation (HMAC-SHA256 DRBG), with an
/// optional `extra` counter for the retry loop.
fn rfc6979_nonce(private_key: &U256, msg_hash: &[u8; 32], attempt: u32) -> Scalar {
    let x = private_key.to_be_bytes();
    let mut v = [0x01u8; 32];
    let mut k = [0x00u8; 32];

    let mut seed = Vec::with_capacity(97);
    seed.extend_from_slice(&v);
    seed.push(0x00);
    seed.extend_from_slice(&x);
    seed.extend_from_slice(msg_hash);
    if attempt > 0 {
        seed.extend_from_slice(&attempt.to_be_bytes());
    }
    k = hmac_sha256(&k, &seed);
    v = hmac_sha256(&k, &v);

    let mut seed2 = Vec::with_capacity(97);
    seed2.extend_from_slice(&v);
    seed2.push(0x01);
    seed2.extend_from_slice(&x);
    seed2.extend_from_slice(msg_hash);
    if attempt > 0 {
        seed2.extend_from_slice(&attempt.to_be_bytes());
    }
    k = hmac_sha256(&k, &seed2);
    v = hmac_sha256(&k, &v);

    loop {
        v = hmac_sha256(&k, &v);
        let cand = U256::from_be_bytes(&v);
        if let Some(s) = Scalar::from_canonical(cand) {
            return s;
        }
        let mut retry = Vec::with_capacity(33);
        retry.extend_from_slice(&v);
        retry.push(0x00);
        k = hmac_sha256(&k, &retry);
        v = hmac_sha256(&k, &v);
    }
}

/// Derives the public key for a private scalar.
pub fn public_key(private_key: &U256) -> Result<Affine, EcdsaError> {
    let d = Scalar::from_canonical(*private_key).ok_or(EcdsaError::InvalidPrivateKey)?;
    Ok(g_mul(&d).to_affine())
}

/// Signs a 32-byte message hash, producing a low-`s` signature with a
/// recovery id. Deterministic: the same key and hash always yield the same
/// signature (RFC 6979).
pub fn sign(private_key: &U256, msg_hash: &[u8; 32]) -> Result<Signature, EcdsaError> {
    let d = Scalar::from_canonical(*private_key).ok_or(EcdsaError::InvalidPrivateKey)?;
    let z = Scalar::new(U256::from_be_bytes(msg_hash));
    for attempt in 0..128 {
        let k = rfc6979_nonce(private_key, msg_hash, attempt);
        let point = g_mul(&k).to_affine();
        let (rx, ry) = match point {
            Affine::Infinity => continue,
            Affine::Point { x, y } => (x, y),
        };
        // r = x(R) mod n. We reject the (astronomically rare) r ≥ n case
        // rather than carrying the extra recovery bit.
        if rx.to_u256() >= N {
            continue;
        }
        let r = match Scalar::from_canonical(rx.to_u256()) {
            Some(r) => r,
            None => continue,
        };
        let kinv = k.inv().expect("nonce is nonzero");
        let mut s = kinv.mul(z.add(r.mul(d)));
        if s.is_zero() {
            continue;
        }
        let mut rec_id = ry.is_odd() as u8;
        if s.is_high() {
            s = s.neg();
            rec_id ^= 1;
        }
        return Ok(Signature {
            r: r.to_u256(),
            s: s.to_u256(),
            recovery_id: rec_id,
        });
    }
    Err(EcdsaError::RecoveryFailed)
}

/// Verifies a signature against a public key. High-`s` signatures are
/// rejected (EIP-2 semantics).
pub fn verify(public_key: &Affine, msg_hash: &[u8; 32], sig: &Signature) -> bool {
    let (r, s) = match (Scalar::from_canonical(sig.r), Scalar::from_canonical(sig.s)) {
        (Some(r), Some(s)) => (r, s),
        _ => return false,
    };
    if s.is_high() {
        return false;
    }
    if !public_key.is_on_curve() || *public_key == Affine::Infinity {
        return false;
    }
    let z = Scalar::new(U256::from_be_bytes(msg_hash));
    let sinv = match s.inv() {
        Some(v) => v,
        None => return false,
    };
    let u1 = z.mul(sinv);
    let u2 = r.mul(sinv);
    let point = g_mul(&u1)
        .add(&Jacobian::from_affine(public_key).scalar_mul(&u2))
        .to_affine();
    match point {
        Affine::Infinity => false,
        Affine::Point { x, .. } => Scalar::new(x.to_u256()) == r,
    }
}

/// Recovers the signing public key from a signature (`ecrecover`).
pub fn recover(msg_hash: &[u8; 32], sig: &Signature) -> Result<Affine, EcdsaError> {
    let r = Scalar::from_canonical(sig.r).ok_or(EcdsaError::InvalidSignature)?;
    let s = Scalar::from_canonical(sig.s).ok_or(EcdsaError::InvalidSignature)?;
    if sig.recovery_id > 1 {
        return Err(EcdsaError::InvalidSignature);
    }
    let x = Fe::new(sig.r);
    let r_point = Affine::lift_x(x, sig.recovery_id & 1 == 1).ok_or(EcdsaError::RecoveryFailed)?;
    let z = Scalar::new(U256::from_be_bytes(msg_hash));
    let rinv = r.inv().ok_or(EcdsaError::InvalidSignature)?;
    // Q = r⁻¹(s·R − z·G) = (r⁻¹s)·R + (r⁻¹(−z))·G — folding the inverse
    // into the scalars costs one arbitrary-point multiply plus one
    // table-accelerated generator multiply, instead of two arbitrary-point
    // multiplies on top of the generator one.
    let u1 = rinv.mul(s);
    let u2 = rinv.mul(z.neg());
    let q = Jacobian::from_affine(&r_point)
        .scalar_mul(&u1)
        .add(&g_mul(&u2))
        .to_affine();
    if q == Affine::Infinity {
        return Err(EcdsaError::RecoveryFailed);
    }
    Ok(q)
}

/// Recovers the Ethereum sender address from a signature.
pub fn recover_address(msg_hash: &[u8; 32], sig: &Signature) -> Result<H160, EcdsaError> {
    recover(msg_hash, sig)?
        .to_eth_address()
        .ok_or(EcdsaError::RecoveryFailed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ofl_primitives::hex::to_hex;

    fn fe_hex(s: &str) -> Fe {
        Fe::new(U256::from_hex_str(s).unwrap())
    }

    #[test]
    fn generator_on_curve() {
        assert!(Affine::generator().is_on_curve());
    }

    #[test]
    fn two_g_known_value() {
        let g2 = Jacobian::from_affine(&Affine::generator())
            .double()
            .to_affine();
        match g2 {
            Affine::Point { x, y } => {
                assert_eq!(
                    x,
                    fe_hex("c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5")
                );
                assert_eq!(
                    y,
                    fe_hex("1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a")
                );
            }
            _ => panic!("2G is finite"),
        }
        assert!(g2.is_on_curve());
    }

    #[test]
    fn scalar_mul_matches_repeated_add() {
        let g = Jacobian::from_affine(&Affine::generator());
        let mut acc = Jacobian::INFINITY;
        for k in 1..=20u64 {
            acc = acc.add(&g);
            let direct = g.scalar_mul(&Scalar::new(U256::from_u64(k)));
            assert_eq!(acc.to_affine(), direct.to_affine(), "k={k}");
        }
    }

    #[test]
    fn fixed_base_table_matches_double_and_add() {
        // Small scalars, structured scalars (one digit per window
        // boundary), and group-order edge cases.
        let mut scalars = vec![
            U256::ONE,
            U256::from_u64(2),
            U256::from_u64(15),
            U256::from_u64(16),
            U256::from_u64(0xdeadbeef),
            U256::from_hex_str("4c0883a69102937d6231471b5dbb6204fe512961708279feb1be6ae5538da033")
                .unwrap(),
            N.wrapping_sub(&U256::ONE),
        ];
        for w in [1u32, 15, 16, 31, 32, 63] {
            scalars.push(U256::ONE.shl(w * 4));
        }
        for v in scalars {
            let k = Scalar::new(v);
            assert_eq!(
                g_mul(&k).to_affine(),
                g_mul_double_and_add(&k).to_affine(),
                "k={v:?}"
            );
        }
    }

    #[test]
    fn precomputed_signatures_are_byte_identical_to_double_and_add() {
        // The table changes the cost of g·k, never its value: recompute
        // each signature with the reference scalar-mul path inlined and
        // compare every byte.
        for i in 1..16u64 {
            let key = U256::from_u64(i * 7919 + 13);
            let h = keccak256(&i.to_be_bytes());
            let fast = sign(&key, &h).unwrap();
            // Reference signature via double-and-add, same RFC-6979 nonce.
            let d = Scalar::from_canonical(key).unwrap();
            let z = Scalar::new(U256::from_be_bytes(&h));
            let k = rfc6979_nonce(&key, &h, 0);
            let (rx, ry) = match g_mul_double_and_add(&k).to_affine() {
                Affine::Point { x, y } => (x, y),
                Affine::Infinity => panic!("nonce point is finite"),
            };
            let r = Scalar::from_canonical(rx.to_u256()).unwrap();
            let mut s = k.inv().unwrap().mul(z.add(r.mul(d)));
            let mut rec_id = ry.is_odd() as u8;
            if s.is_high() {
                s = s.neg();
                rec_id ^= 1;
            }
            assert_eq!(fast.r.to_be_bytes(), r.to_u256().to_be_bytes(), "i={i}");
            assert_eq!(fast.s.to_be_bytes(), s.to_u256().to_be_bytes(), "i={i}");
            assert_eq!(fast.recovery_id, rec_id, "i={i}");
        }
    }

    #[test]
    fn windowed_scalar_mul_matches_double_and_add() {
        // An arbitrary point (7·G) against edge scalars: tiny, nibble
        // boundaries, and order-adjacent values.
        let p = g_mul(&Scalar::new(U256::from_u64(7)));
        let mut scalars = vec![
            U256::ZERO,
            U256::ONE,
            U256::from_u64(15),
            U256::from_u64(16),
            U256::from_u64(0xdeadbeef),
            U256::from_hex_str("4c0883a69102937d6231471b5dbb6204fe512961708279feb1be6ae5538da033")
                .unwrap(),
            N.wrapping_sub(&U256::ONE),
        ];
        for w in [1u32, 15, 16, 31, 32, 63] {
            scalars.push(U256::ONE.shl(w * 4));
        }
        for v in scalars {
            let k = Scalar::new(v);
            assert_eq!(
                p.scalar_mul(&k).to_affine(),
                p.scalar_mul_binary(&k).to_affine(),
                "k={v:?}"
            );
        }
    }

    #[test]
    fn scalar_folding_reduction_matches_long_division() {
        // reduce_n against the generic div_rem reduction over products of
        // order-adjacent and structured operands.
        let values = [
            U256::ZERO,
            U256::ONE,
            U256::from_u64(0xffff_ffff),
            N.wrapping_sub(&U256::ONE),
            N.wrapping_add(&U256::ONE), // wraps mod 2^256: exercises Scalar::new too
            U256::MAX,
            U256::from_hex_str("8000000000000000000000000000000000000000000000000000000000000001")
                .unwrap(),
        ];
        for a in values {
            assert_eq!(Scalar::new(a).to_u256(), a.div_rem(&N).1, "new a={a:?}");
            for b in values {
                let fast = Scalar::new(a).mul(Scalar::new(b)).to_u256();
                let slow = a.div_rem(&N).1.mul_mod(&b.div_rem(&N).1, &N);
                assert_eq!(fast, slow, "a={a:?} b={b:?}");
            }
        }
        // Addition overflow fold: (n-1) + (n-1) ≡ n-2.
        let nm1 = Scalar::new(N.wrapping_sub(&U256::ONE));
        assert_eq!(nm1.add(nm1).to_u256(), N.wrapping_sub(&U256::from_u64(2)));
        // Fermat inverse over the folding multiply agrees with the generic
        // path and satisfies the inverse law.
        for v in [
            U256::from_u64(2),
            U256::from_u64(0xdead),
            N.wrapping_sub(&U256::ONE),
        ] {
            let s = Scalar::new(v);
            let inv = s.inv().unwrap();
            assert_eq!(inv.to_u256(), v.inv_mod_prime(&N).unwrap());
            assert_eq!(s.mul(inv).to_u256(), U256::ONE);
        }
    }

    #[test]
    fn n_times_g_is_infinity() {
        // (n-1)G + G = O
        let n_minus_1 = Scalar::new(N.wrapping_sub(&U256::ONE));
        let p = g_mul(&n_minus_1);
        let sum = p.add(&Jacobian::from_affine(&Affine::generator()));
        assert!(sum.to_affine() == Affine::Infinity);
    }

    #[test]
    fn pubkey_of_one_is_g() {
        let pk = public_key(&U256::ONE).unwrap();
        assert_eq!(pk, Affine::generator());
    }

    #[test]
    fn known_eth_address_for_key_one() {
        // Widely known: privkey 0x...01 → address 0x7E5F4552091A69125d5DfCb7b8C2659029395Bdf
        let addr = public_key(&U256::ONE).unwrap().to_eth_address().unwrap();
        assert_eq!(
            addr.to_checksum(),
            "0x7E5F4552091A69125d5DfCb7b8C2659029395Bdf"
        );
    }

    #[test]
    fn rfc6979_satoshi_vector() {
        // Classic secp256k1+SHA-256 RFC6979 vector: d=1, msg="Satoshi Nakamoto".
        let msg_hash = ofl_primitives::sha256(b"Satoshi Nakamoto");
        let sig = sign(&U256::ONE, &msg_hash).unwrap();
        assert_eq!(
            to_hex(&sig.r.to_be_bytes()),
            "934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8"
        );
        assert_eq!(
            to_hex(&sig.s.to_be_bytes()),
            "2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5"
        );
    }

    #[test]
    fn sign_verify_roundtrip() {
        let keys = [
            U256::from_u64(0xdeadbeef),
            U256::from_hex_str("4c0883a69102937d6231471b5dbb6204fe512961708279feb1be6ae5538da033")
                .unwrap(),
            N.wrapping_sub(&U256::ONE), // largest valid key
        ];
        for key in keys {
            let pk = public_key(&key).unwrap();
            for msg in [&b"hello"[..], b"", b"another message"] {
                let h = keccak256(msg);
                let sig = sign(&key, &h).unwrap();
                assert!(verify(&pk, &h, &sig));
                // Perturbed hash fails.
                let mut h2 = h;
                h2[0] ^= 1;
                assert!(!verify(&pk, &h2, &sig));
            }
        }
    }

    #[test]
    fn signatures_are_low_s() {
        for i in 1..20u64 {
            let key = U256::from_u64(i * 7 + 1);
            let h = keccak256(&i.to_be_bytes());
            let sig = sign(&key, &h).unwrap();
            assert!(!Scalar::from_canonical(sig.s).unwrap().is_high());
        }
    }

    #[test]
    fn high_s_rejected_by_verify() {
        let key = U256::from_u64(42);
        let pk = public_key(&key).unwrap();
        let h = keccak256(b"malleability");
        let sig = sign(&key, &h).unwrap();
        // Flip to the high-s twin: s' = n - s, still algebraically valid.
        let high = Signature {
            r: sig.r,
            s: N.wrapping_sub(&sig.s),
            recovery_id: sig.recovery_id ^ 1,
        };
        assert!(!verify(&pk, &h, &high));
    }

    #[test]
    fn recovery_roundtrip() {
        for i in 1..10u64 {
            let key = U256::from_u64(i * 1000 + 3);
            let expect = public_key(&key).unwrap();
            let h = keccak256(&i.to_le_bytes());
            let sig = sign(&key, &h).unwrap();
            let got = recover(&h, &sig).unwrap();
            assert_eq!(got, expect, "i={i}");
            assert_eq!(
                recover_address(&h, &sig).unwrap(),
                expect.to_eth_address().unwrap()
            );
        }
    }

    #[test]
    fn recover_rejects_garbage() {
        let h = keccak256(b"x");
        assert!(recover(
            &h,
            &Signature {
                r: U256::ZERO,
                s: U256::ONE,
                recovery_id: 0
            }
        )
        .is_err());
        assert!(recover(
            &h,
            &Signature {
                r: N,
                s: U256::ONE,
                recovery_id: 0
            }
        )
        .is_err());
        assert!(recover(
            &h,
            &Signature {
                r: U256::ONE,
                s: U256::ONE,
                recovery_id: 5
            }
        )
        .is_err());
    }

    #[test]
    fn invalid_private_keys_rejected() {
        assert_eq!(public_key(&U256::ZERO), Err(EcdsaError::InvalidPrivateKey));
        assert_eq!(public_key(&N), Err(EcdsaError::InvalidPrivateKey));
        assert!(public_key(&N.wrapping_sub(&U256::ONE)).is_ok());
    }

    #[test]
    fn field_sqrt() {
        // 4 has root 2 (or p-2).
        let four = Fe::new(U256::from_u64(4));
        let r = four.sqrt().unwrap();
        assert!(r == Fe::new(U256::from_u64(2)) || r == Fe::new(U256::from_u64(2)).neg());
        // 5 is a known non-residue mod p? Verify via Euler criterion instead of
        // assuming: a^((p-1)/2) == p-1 for non-residues.
        let exp = P.wrapping_sub(&U256::ONE).shr(1);
        let five = Fe::new(U256::from_u64(5));
        let euler = five.pow(&exp);
        if euler == Fe::ONE {
            assert!(five.sqrt().is_some());
        } else {
            assert!(five.sqrt().is_none());
        }
    }

    #[test]
    fn field_inverse_law() {
        for i in 1..50u64 {
            let a = Fe::new(U256::from_u64(i * 977 + 5));
            assert_eq!(a.mul(a.inv().unwrap()), Fe::ONE);
        }
    }

    #[test]
    fn reduce_p_extremes() {
        // (p-1)² mod p = 1
        let pm1 = Fe::new(P.wrapping_sub(&U256::ONE));
        assert_eq!(pm1.square(), Fe::ONE);
        // MAX * MAX reduces consistently with the generic path.
        let m = Fe::new(U256::MAX); // reduces to 2^256-1-p
        let fast = m.square().to_u256();
        let slow = m.to_u256().mul_mod(&m.to_u256(), &P);
        assert_eq!(fast, slow);
    }
}
