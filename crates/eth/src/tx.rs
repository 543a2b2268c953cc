//! Transaction types: EIP-1559 dynamic-fee transactions (the default on
//! Sepolia, which the paper uses) and legacy EIP-155 transactions.
//!
//! Signing hashes, RLP envelopes, and sender recovery follow the Ethereum
//! specifications so that a transaction round-trips
//! `sign → encode → decode → recover_sender` byte-exactly.

use crate::secp256k1::{self, EcdsaError, Signature};
use ofl_primitives::rlp::{self, Item, RlpError};
use ofl_primitives::u256::U256;
use ofl_primitives::{keccak256, H160, H256};

/// EIP-1559 type-2 transaction payload (before signing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxRequest {
    /// Chain id (replay protection).
    pub chain_id: u64,
    /// Sender account nonce.
    pub nonce: u64,
    /// Max priority fee per gas (tip), in wei.
    pub max_priority_fee_per_gas: U256,
    /// Max total fee per gas, in wei.
    pub max_fee_per_gas: U256,
    /// Gas limit.
    pub gas_limit: u64,
    /// Recipient; `None` creates a contract.
    pub to: Option<H160>,
    /// Wei transferred.
    pub value: U256,
    /// Calldata or init code.
    pub data: Vec<u8>,
}

impl TxRequest {
    /// The EIP-2718 typed signing hash:
    /// `keccak256(0x02 ‖ rlp([chain_id, nonce, tip, fee, gas, to, value, data, []]))`.
    pub fn signing_hash(&self) -> H256 {
        let payload = rlp::encode(&Item::List(self.rlp_fields()));
        let mut pre = Vec::with_capacity(payload.len() + 1);
        pre.push(0x02);
        pre.extend_from_slice(&payload);
        H256::from_bytes(keccak256(&pre))
    }

    fn rlp_fields(&self) -> Vec<Item> {
        vec![
            Item::u64(self.chain_id),
            Item::u64(self.nonce),
            Item::uint(&self.max_priority_fee_per_gas),
            Item::uint(&self.max_fee_per_gas),
            Item::u64(self.gas_limit),
            match &self.to {
                Some(addr) => Item::bytes(addr.as_bytes()),
                None => Item::bytes([]),
            },
            Item::uint(&self.value),
            Item::bytes(&self.data),
            Item::List(vec![]), // access list (always empty here)
        ]
    }

    /// Attaches a signature, producing a broadcastable transaction.
    pub fn into_signed(self, signature: Signature) -> SignedTx {
        SignedTx {
            request: self,
            signature,
        }
    }

    /// True iff this deploys a contract.
    pub fn is_create(&self) -> bool {
        self.to.is_none()
    }
}

/// A signed EIP-1559 transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignedTx {
    /// The signed payload.
    pub request: TxRequest,
    /// secp256k1 signature with y-parity in `recovery_id`.
    pub signature: Signature,
}

/// Errors from decoding or validating raw transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxError {
    /// Not a type-2 envelope.
    UnsupportedType(u8),
    /// Malformed RLP.
    Rlp(RlpError),
    /// Wrong field count or field shapes.
    MalformedBody,
    /// Signature scalars invalid or recovery failed.
    Signature(EcdsaError),
    /// `to` field is neither empty nor 20 bytes.
    BadAddress,
}

impl From<RlpError> for TxError {
    fn from(e: RlpError) -> Self {
        TxError::Rlp(e)
    }
}

impl From<EcdsaError> for TxError {
    fn from(e: EcdsaError) -> Self {
        TxError::Signature(e)
    }
}

impl core::fmt::Display for TxError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TxError::UnsupportedType(t) => write!(f, "unsupported transaction type {t}"),
            TxError::Rlp(e) => write!(f, "rlp: {e}"),
            TxError::MalformedBody => write!(f, "malformed transaction body"),
            TxError::Signature(e) => write!(f, "signature: {e}"),
            TxError::BadAddress => write!(f, "recipient is neither empty nor 20 bytes"),
        }
    }
}

impl std::error::Error for TxError {}

impl SignedTx {
    /// The canonical encoding: `0x02 ‖ rlp([...fields, y_parity, r, s])`.
    pub fn encode(&self) -> Vec<u8> {
        let mut fields = self.request.rlp_fields();
        fields.push(Item::u64(self.signature.recovery_id as u64));
        fields.push(Item::uint(&self.signature.r));
        fields.push(Item::uint(&self.signature.s));
        let payload = rlp::encode(&Item::List(fields));
        let mut out = Vec::with_capacity(payload.len() + 1);
        out.push(0x02);
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes a raw typed transaction.
    pub fn decode(raw: &[u8]) -> Result<SignedTx, TxError> {
        let (&ty, body) = raw.split_first().ok_or(TxError::MalformedBody)?;
        if ty != 0x02 {
            return Err(TxError::UnsupportedType(ty));
        }
        let item = rlp::decode(body)?;
        let fields = item.as_list().ok_or(TxError::MalformedBody)?;
        if fields.len() != 12 {
            return Err(TxError::MalformedBody);
        }
        let to_bytes = fields[5].as_bytes().ok_or(TxError::MalformedBody)?;
        let to = match to_bytes.len() {
            0 => None,
            20 => Some(H160::from_slice(to_bytes)),
            _ => return Err(TxError::BadAddress),
        };
        // Access list must be the empty list in our subset.
        if fields[8].as_list().map(|l| l.len()) != Some(0) {
            return Err(TxError::MalformedBody);
        }
        let recovery_id = fields[9].as_u64()?;
        if recovery_id > 1 {
            return Err(TxError::Signature(EcdsaError::InvalidSignature));
        }
        let request = TxRequest {
            chain_id: fields[0].as_u64()?,
            nonce: fields[1].as_u64()?,
            max_priority_fee_per_gas: fields[2].as_uint()?,
            max_fee_per_gas: fields[3].as_uint()?,
            gas_limit: fields[4].as_u64()?,
            to,
            value: fields[6].as_uint()?,
            data: fields[7].as_bytes().ok_or(TxError::MalformedBody)?.to_vec(),
        };
        let signature = Signature {
            recovery_id: recovery_id as u8,
            r: fields[10].as_uint()?,
            s: fields[11].as_uint()?,
        };
        Ok(SignedTx { request, signature })
    }

    /// The transaction hash (Keccak of the canonical encoding).
    pub fn hash(&self) -> H256 {
        H256::from_bytes(keccak256(&self.encode()))
    }

    /// Recovers the sender address from the signature. High-`s`
    /// signatures are rejected (EIP-2), so no transaction has a malleated
    /// twin under another hash.
    pub fn recover_sender(&self) -> Result<H160, TxError> {
        recover_low_s(&self.request.signing_hash(), &self.signature)
    }

    /// Verifies the signature against a claimed sender.
    pub fn verify_sender(&self, expected: &H160) -> bool {
        self.recover_sender()
            .map(|a| a == *expected)
            .unwrap_or(false)
    }
}

/// Signs a request with a private key, producing a broadcastable transaction.
pub fn sign_tx(request: TxRequest, private_key: &U256) -> Result<SignedTx, EcdsaError> {
    let hash = request.signing_hash();
    let signature = secp256k1::sign(private_key, &hash.0)?;
    Ok(request.into_signed(signature))
}

/// A legacy (pre-EIP-1559) transaction with EIP-155 replay protection.
///
/// Kept for wire-format completeness: older tooling still produces these,
/// and the chain accepts them via [`LegacyTx::into_dynamic_fee`], which maps
/// `gas_price` onto `max_fee = max_priority_fee = gas_price` — exactly how
/// EIP-1559 clients interpret legacy transactions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LegacyTx {
    /// Chain id (EIP-155).
    pub chain_id: u64,
    /// Sender nonce.
    pub nonce: u64,
    /// Single gas price, in wei.
    pub gas_price: U256,
    /// Gas limit.
    pub gas_limit: u64,
    /// Recipient; `None` creates a contract.
    pub to: Option<H160>,
    /// Wei transferred.
    pub value: U256,
    /// Calldata or init code.
    pub data: Vec<u8>,
}

impl LegacyTx {
    /// The EIP-155 signing hash:
    /// `keccak256(rlp([nonce, gas_price, gas, to, value, data, chain_id, 0, 0]))`.
    pub fn signing_hash(&self) -> H256 {
        let item = Item::List(vec![
            Item::u64(self.nonce),
            Item::uint(&self.gas_price),
            Item::u64(self.gas_limit),
            match &self.to {
                Some(addr) => Item::bytes(addr.as_bytes()),
                None => Item::bytes([]),
            },
            Item::uint(&self.value),
            Item::bytes(&self.data),
            Item::u64(self.chain_id),
            Item::u64(0),
            Item::u64(0),
        ]);
        H256::from_bytes(keccak256(&rlp::encode(&item)))
    }

    /// The EIP-155 `v` value for a recovery id: `35 + 2·chain_id + parity`.
    pub fn v(&self, recovery_id: u8) -> u64 {
        35 + 2 * self.chain_id + recovery_id as u64
    }

    /// Extracts the recovery id from an EIP-155 `v`; `None` when `v` does
    /// not belong to this chain.
    pub fn recovery_id_from_v(chain_id: u64, v: u64) -> Option<u8> {
        let base = 35 + 2 * chain_id;
        match v.checked_sub(base) {
            Some(0) => Some(0),
            Some(1) => Some(1),
            _ => None,
        }
    }

    /// Signs and converts to the EIP-1559 representation the chain executes.
    pub fn sign_as_dynamic_fee(self, private_key: &U256) -> Result<SignedTx, EcdsaError> {
        sign_tx(self.into_dynamic_fee(), private_key)
    }

    /// Maps onto a [`TxRequest`] (`max_fee = tip = gas_price`).
    pub fn into_dynamic_fee(self) -> TxRequest {
        TxRequest {
            chain_id: self.chain_id,
            nonce: self.nonce,
            max_priority_fee_per_gas: self.gas_price,
            max_fee_per_gas: self.gas_price,
            gas_limit: self.gas_limit,
            to: self.to,
            value: self.value,
            data: self.data,
        }
    }

    /// Recovers the sender of a raw `(v, r, s)`-signed legacy transaction.
    pub fn recover_sender(&self, v: u64, r: U256, s: U256) -> Result<H160, TxError> {
        let recovery_id =
            Self::recovery_id_from_v(self.chain_id, v).ok_or(TxError::MalformedBody)?;
        let sig = Signature { r, s, recovery_id };
        recover_low_s(&self.signing_hash(), &sig)
    }
}

/// `ecrecover` under EIP-2: a signature with `s > n/2` is
/// [`EcdsaError::InvalidSignature`] before any curve arithmetic.
fn recover_low_s(hash: &H256, sig: &Signature) -> Result<H160, TxError> {
    if !sig.is_low_s() {
        return Err(TxError::Signature(EcdsaError::InvalidSignature));
    }
    Ok(secp256k1::recover_address(&hash.0, sig)?)
}

/// The deterministic contract address for a CREATE by `sender` at `nonce`:
/// `keccak256(rlp([sender, nonce]))[12..]`.
pub fn create_address(sender: &H160, nonce: u64) -> H160 {
    let item = Item::List(vec![Item::bytes(sender.as_bytes()), Item::u64(nonce)]);
    let digest = keccak256(&rlp::encode(&item));
    H160::from_slice(&digest[12..])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> TxRequest {
        TxRequest {
            chain_id: 11155111,
            nonce: 3,
            max_priority_fee_per_gas: U256::from(1_500_000_000u64),
            max_fee_per_gas: U256::from(30_000_000_000u64),
            gas_limit: 100_000,
            to: Some(H160::from_slice(&[0x42; 20])),
            value: U256::from_u128(1_000_000_000_000_000),
            data: vec![0xde, 0xad, 0xbe, 0xef],
        }
    }

    #[test]
    fn sign_encode_decode_recover() {
        let key = U256::from(0xbeefu64);
        let expected_sender = secp256k1::public_key(&key)
            .unwrap()
            .to_eth_address()
            .unwrap();
        let tx = sign_tx(sample_request(), &key).unwrap();
        let raw = tx.encode();
        assert_eq!(raw[0], 0x02);
        let decoded = SignedTx::decode(&raw).unwrap();
        assert_eq!(decoded, tx);
        assert_eq!(decoded.recover_sender().unwrap(), expected_sender);
        assert!(decoded.verify_sender(&expected_sender));
        assert!(!decoded.verify_sender(&H160::ZERO));
    }

    #[test]
    fn tamper_changes_sender_or_fails() {
        let key = U256::from(0x1234u64);
        let honest = secp256k1::public_key(&key)
            .unwrap()
            .to_eth_address()
            .unwrap();
        let tx = sign_tx(sample_request(), &key).unwrap();
        let mut tampered = tx.clone();
        tampered.request.value = U256::from(999u64);
        // The recovered sender will not match the honest signer.
        // Recovery may legitimately fail; if it succeeds, the recovered
        // sender must differ.
        if let Ok(addr) = tampered.recover_sender() {
            assert_ne!(addr, honest);
        }
    }

    #[test]
    fn legacy_high_s_twin_is_rejected() {
        let legacy = LegacyTx {
            chain_id: 1,
            nonce: 0,
            gas_price: U256::from(20_000_000_000u64),
            gas_limit: 21_000,
            to: None,
            value: U256::ZERO,
            data: vec![],
        };
        let sig = secp256k1::sign(&U256::from(0xbeefu64), &legacy.signing_hash().0).unwrap();
        let twin_v = legacy.v(sig.recovery_id ^ 1);
        let high_s = secp256k1::N.wrapping_sub(&sig.s);
        assert_eq!(
            legacy.recover_sender(twin_v, sig.r, high_s),
            Err(TxError::Signature(EcdsaError::InvalidSignature))
        );
    }

    #[test]
    fn create_tx_roundtrip() {
        let mut req = sample_request();
        req.to = None;
        req.data = vec![0x60, 0x01, 0x60, 0x02];
        let key = U256::from(77u64);
        let tx = sign_tx(req, &key).unwrap();
        let dec = SignedTx::decode(&tx.encode()).unwrap();
        assert!(dec.request.is_create());
        assert_eq!(dec.request.data, vec![0x60, 0x01, 0x60, 0x02]);
    }

    #[test]
    fn signing_hash_depends_on_every_field() {
        let base = sample_request();
        let h0 = base.signing_hash();
        let mut variants = Vec::new();
        let mut r = base.clone();
        r.nonce += 1;
        variants.push(r.signing_hash());
        let mut r = base.clone();
        r.chain_id = 1;
        variants.push(r.signing_hash());
        let mut r = base.clone();
        r.value = U256::ZERO;
        variants.push(r.signing_hash());
        let mut r = base.clone();
        r.data.push(0);
        variants.push(r.signing_hash());
        let mut r = base.clone();
        r.to = None;
        variants.push(r.signing_hash());
        for v in variants {
            assert_ne!(v, h0);
        }
    }

    #[test]
    fn tx_hash_distinct_from_signing_hash() {
        let tx = sign_tx(sample_request(), &U256::from(5u64)).unwrap();
        assert_ne!(tx.hash(), tx.request.signing_hash());
    }

    #[test]
    fn decode_rejects_wrong_type() {
        assert!(matches!(
            SignedTx::decode(&[0x01, 0xc0]),
            Err(TxError::UnsupportedType(1))
        ));
        assert!(SignedTx::decode(&[]).is_err());
    }

    #[test]
    fn decode_rejects_bad_field_count() {
        let item = Item::List(vec![Item::u64(1); 5]);
        let mut raw = vec![0x02];
        raw.extend(rlp::encode(&item));
        assert_eq!(SignedTx::decode(&raw), Err(TxError::MalformedBody));
    }

    #[test]
    fn legacy_eip155_signing_and_recovery() {
        let legacy = LegacyTx {
            chain_id: 11155111,
            nonce: 2,
            gas_price: U256::from(20_000_000_000u64),
            gas_limit: 21_000,
            to: Some(H160::from_slice(&[0x11; 20])),
            value: U256::from(999u64),
            data: vec![],
        };
        let key = U256::from(0xc0ffeeu64);
        let sender = secp256k1::public_key(&key)
            .unwrap()
            .to_eth_address()
            .unwrap();
        let sig = secp256k1::sign(&key, &legacy.signing_hash().0).unwrap();
        let v = legacy.v(sig.recovery_id);
        assert!(v == 35 + 2 * 11155111 || v == 36 + 2 * 11155111);
        assert_eq!(legacy.recover_sender(v, sig.r, sig.s).unwrap(), sender);
        // Wrong chain's v is rejected.
        assert!(legacy.recover_sender(27, sig.r, sig.s).is_err());
        assert_eq!(LegacyTx::recovery_id_from_v(1, 37), Some(0));
        assert_eq!(LegacyTx::recovery_id_from_v(1, 38), Some(1));
        assert_eq!(LegacyTx::recovery_id_from_v(1, 39), None);
    }

    #[test]
    fn legacy_converts_to_dynamic_fee_and_executes_equivalently() {
        let legacy = LegacyTx {
            chain_id: 11155111,
            nonce: 0,
            gas_price: U256::from(15_000_000_000u64),
            gas_limit: 30_000,
            to: Some(H160::from_slice(&[0x22; 20])),
            value: U256::from(5u64),
            data: vec![1, 2, 3],
        };
        let req = legacy.clone().into_dynamic_fee();
        assert_eq!(req.max_fee_per_gas, legacy.gas_price);
        assert_eq!(req.max_priority_fee_per_gas, legacy.gas_price);
        assert_eq!(req.value, legacy.value);
        let signed = legacy.sign_as_dynamic_fee(&U256::from(42u64)).unwrap();
        assert!(signed.recover_sender().is_ok());
    }

    #[test]
    fn legacy_signing_hash_differs_from_typed() {
        let legacy = LegacyTx {
            chain_id: 1,
            nonce: 0,
            gas_price: U256::from(10u64),
            gas_limit: 21_000,
            to: None,
            value: U256::ZERO,
            data: vec![],
        };
        let typed = legacy.clone().into_dynamic_fee();
        assert_ne!(legacy.signing_hash(), typed.signing_hash());
    }

    #[test]
    fn create_address_known_vector() {
        // Known mainnet vector: sender 0x6ac7ea33f8831ea9dcc53393aaa88b25a785dbf0
        // nonce 0 → Cryptokitties-era example; verify the generic property
        // instead: distinct nonces give distinct addresses and match the
        // hand-computed keccak.
        let sender = H160::from_hex("0x6ac7ea33f8831ea9dcc53393aaa88b25a785dbf0").unwrap();
        let a0 = create_address(&sender, 0);
        let a1 = create_address(&sender, 1);
        assert_ne!(a0, a1);
        let manual = {
            let item = Item::List(vec![Item::bytes(sender.as_bytes()), Item::u64(0)]);
            let d = keccak256(&rlp::encode(&item));
            H160::from_slice(&d[12..])
        };
        assert_eq!(a0, manual);
    }
}
