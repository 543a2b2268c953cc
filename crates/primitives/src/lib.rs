//! # ofl-primitives
//!
//! Self-contained cryptographic and encoding primitives for the OFL-W3
//! reproduction stack. Everything here is implemented from scratch against
//! published test vectors — no external crypto dependencies — so the
//! blockchain (`ofl-eth`) and content-addressed storage (`ofl-ipfs`) layers
//! above are fully auditable.
//!
//! Modules:
//! - [`u256`]: 256/512-bit unsigned integers (EVM words, wei, field elements)
//! - [`keccak`][]: Keccak-256 (Ethereum hashing)
//! - [`sha256`](mod@sha256): SHA-256 + HMAC-SHA256 (IPFS multihash, RFC-6979 nonces)
//! - [`hex`], [`base58`], [`base32`]: text encodings (addresses, CIDs)
//! - [`varint`]: unsigned LEB128 varints (multiformats headers)
//! - [`rlp`]: Recursive Length Prefix (transactions, blocks)
//! - [`fixed`]: `H160` / `H256` fixed-width types

#![forbid(unsafe_code)]

pub mod base32;
pub mod base58;
pub mod fixed;
pub mod hex;
pub mod keccak;
pub mod rlp;
pub mod sha256;
pub mod u256;
pub mod varint;

pub use fixed::{H160, H256};
pub use keccak::keccak256;
pub use sha256::{hmac_sha256, sha256};
pub use u256::{U256, U512};

/// Wei per ether (10^18), as a convenience for balance formatting.
pub fn wei_per_eth() -> U256 {
    U256::from_u128(1_000_000_000_000_000_000)
}

/// Wei per gwei (10^9).
pub fn wei_per_gwei() -> U256 {
    U256::from_u64(1_000_000_000)
}

/// Formats a wei amount as a decimal ETH string with `dp` fractional digits
/// (rounded toward zero), e.g. `format_eth(&fee, 8) == "0.00204900"`.
pub fn format_eth(wei: &U256, dp: usize) -> String {
    let (whole, frac) = wei.div_rem(&wei_per_eth());
    if dp == 0 {
        return whole.to_dec_string();
    }
    // Scale the fractional remainder to dp digits.
    let mut scaled = frac;
    let ten = U256::from_u64(10);
    for _ in 0..dp {
        scaled = scaled.wrapping_mul(&ten);
    }
    let digits = scaled.div_rem(&wei_per_eth()).0.to_dec_string();
    let padded = format!("{digits:0>dp$}");
    format!("{}.{}", whole.to_dec_string(), padded)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eth_formatting() {
        let one_eth = wei_per_eth();
        assert_eq!(format_eth(&one_eth, 4), "1.0000");
        let fee = U256::from_u128(1_623_660_000_000_000); // 0.00162366 ETH
        assert_eq!(format_eth(&fee, 8), "0.00162366");
        assert_eq!(format_eth(&U256::ZERO, 2), "0.00");
        assert_eq!(format_eth(&U256::from_u64(1), 18), "0.000000000000000001");
    }

    #[test]
    fn gwei_constant() {
        assert_eq!(
            wei_per_gwei().wrapping_mul(&U256::from_u64(1_000_000_000)),
            wei_per_eth()
        );
    }
}
