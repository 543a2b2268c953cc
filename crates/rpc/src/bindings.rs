//! Typed contract binding over the [`EthApi`] trait.
//!
//! [`ModelMarketContract`] is the handle for the paper's `CidStorage`
//! contract — the model market's on-chain CID registry. Its reads dispatch
//! through any [`EthApi`] provider and decode into native Rust types with
//! typed errors. The ABI comes from `ofl_eth::contracts`: the signature
//! constants the assembled runtime dispatches on, and that module's
//! calldata builders and event topic, so the contract's interface is
//! written down once.

use crate::envelope::{RpcError, RpcMethod, RpcRequest, RpcResult};
use crate::eth::EthApi;
use crate::Billed;
use ofl_eth::abi::{self, AbiError, Type, Value};
use ofl_eth::block::Receipt;
use ofl_eth::chain::{CallResult, LogFilter};
use ofl_eth::contracts::{cid_storage_init_code, CidStorage, CID_COUNT_SIG};
use ofl_eth::evm::LogEntry;
use ofl_primitives::{H160, H256};

/// Typed errors from a contract binding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindingError {
    /// Transport/node failure underneath the binding.
    Rpc(RpcError),
    /// The call executed and reverted; carries the revert payload.
    Reverted(Vec<u8>),
    /// Returndata failed ABI decoding (truncated, trailing garbage, …).
    Decode(AbiError),
    /// Returndata decoded, but not into the expected Rust type (e.g. a
    /// `uint256` counter that does not fit `u64`).
    TypeMismatch,
}

impl core::fmt::Display for BindingError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            BindingError::Rpc(e) => write!(f, "rpc: {e}"),
            BindingError::Reverted(data) => {
                write!(
                    f,
                    "contract call reverted ({} bytes of revert data)",
                    data.len()
                )
            }
            BindingError::Decode(e) => write!(f, "returndata decode: {e}"),
            BindingError::TypeMismatch => write!(f, "returndata does not fit the bound type"),
        }
    }
}

impl std::error::Error for BindingError {}

impl From<RpcError> for BindingError {
    fn from(e: RpcError) -> Self {
        BindingError::Rpc(e)
    }
}

/// A successful call's returndata; a reverted call's payload as the error.
fn returndata(result: &CallResult) -> Result<&[u8], BindingError> {
    if result.success {
        Ok(&result.output)
    } else {
        Err(BindingError::Reverted(result.output.clone()))
    }
}

/// Decodes a call's returndata as one `uint256` that fits `u64`.
fn decode_u64(result: &CallResult) -> Result<u64, BindingError> {
    let mut values =
        abi::decode(&[Type::Uint], returndata(result)?).map_err(BindingError::Decode)?;
    values
        .remove(0)
        .as_uint()
        .and_then(|u| u.to_u64())
        .ok_or(BindingError::TypeMismatch)
}

/// Decodes ABI data — a call's returndata or a log's payload — as one
/// `string`.
fn decode_string(data: &[u8]) -> Result<String, BindingError> {
    let mut values = abi::decode(&[Type::String], data).map_err(BindingError::Decode)?;
    match values.remove(0) {
        Value::String(s) => Ok(s),
        _ => Err(BindingError::TypeMismatch),
    }
}

/// Typed handle for the model market's on-chain CID registry — the paper's
/// `CidStorage` contract (Fig 2). All calldata encoding and returndata
/// decoding lives behind these methods; core never touches a raw
/// signature string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelMarketContract {
    /// Deployed contract address.
    pub address: H160,
}

impl ModelMarketContract {
    /// Wraps an already-deployed address.
    pub fn at(address: H160) -> Self {
        Self { address }
    }

    /// The deployable init code (broadcast it from any funded account to
    /// create a fresh instance).
    pub fn init_code() -> Vec<u8> {
        cid_storage_init_code()
    }

    /// Typed handle from a mined deployment receipt: fails on a reverted
    /// deployment or a receipt without a contract address.
    pub fn from_deploy_receipt(receipt: &Receipt) -> Result<Self, BindingError> {
        if !receipt.is_success() {
            return Err(BindingError::Reverted(receipt.output.clone()));
        }
        receipt
            .contract_address
            .map(Self::at)
            .ok_or(BindingError::TypeMismatch)
    }

    /// One free `eth_call` to this contract, decoded by `decode`.
    fn read<E: EthApi + ?Sized, T>(
        &self,
        eth: &mut E,
        from: &H160,
        data: Vec<u8>,
        decode: impl FnOnce(&CallResult) -> Result<T, BindingError>,
    ) -> Billed<Result<T, BindingError>> {
        eth.call(from, &self.address, data)
            .map(|called| called.map_err(BindingError::Rpc).and_then(|r| decode(&r)))
    }

    /// Typed free read of `cidCount`.
    pub fn cid_count<E: EthApi + ?Sized>(
        &self,
        eth: &mut E,
        from: &H160,
    ) -> Billed<Result<u64, BindingError>> {
        self.read(eth, from, abi::encode_call(CID_COUNT_SIG, &[]), decode_u64)
    }

    /// Typed free read of `getCid(index)`.
    pub fn get_cid<E: EthApi + ?Sized>(
        &self,
        eth: &mut E,
        from: &H160,
        index: u64,
    ) -> Billed<Result<String, BindingError>> {
        self.read(eth, from, Self::get_cid_calldata(index), |r| {
            returndata(r).and_then(decode_string)
        })
    }

    /// ABI calldata for an `uploadCid(cid)` transaction.
    pub fn upload_cid_calldata(cid: &str) -> Vec<u8> {
        CidStorage::upload_cid_calldata(cid)
    }

    /// ABI calldata for a `getCid(index)` call.
    pub fn get_cid_calldata(index: u64) -> Vec<u8> {
        CidStorage::get_cid_calldata(index)
    }

    /// Topic hash of the `CidUploaded` event.
    pub fn uploaded_topic() -> H256 {
        CidStorage::uploaded_topic()
    }

    /// Decodes one `CidUploaded` log's data payload.
    pub fn decode_uploaded(log: &LogEntry) -> Result<String, BindingError> {
        decode_string(&log.data)
    }

    /// Typed `eth_getLogs` query for `CidUploaded` over the inclusive block
    /// range `[from_block, to_block]`.
    pub fn uploaded_cids_in<E: EthApi + ?Sized>(
        &self,
        eth: &mut E,
        from_block: u64,
        to_block: u64,
    ) -> Billed<Result<Vec<String>, BindingError>> {
        let filter = LogFilter::all()
            .in_blocks(from_block, to_block)
            .at_address(self.address)
            .with_topic(Self::uploaded_topic());
        eth.get_logs(&filter).map(|logs| {
            logs.map_err(BindingError::Rpc)?
                .iter()
                .map(|entry| Self::decode_uploaded(&entry.log))
                .collect()
        })
    }

    /// Reads every stored CID in upload order: one `cidCount` plus one
    /// batched-friendly `getCid` per index.
    pub fn all_cids<E: EthApi + ?Sized>(
        &self,
        eth: &mut E,
        from: &H160,
    ) -> Billed<Result<Vec<String>, BindingError>> {
        let counted = self.cid_count(eth, from);
        let mut cost = counted.cost;
        let count = match counted.value {
            Ok(n) => n,
            Err(e) => {
                return Billed {
                    value: Err(e),
                    cost,
                }
            }
        };
        let mut cids = Vec::with_capacity(count as usize);
        for index in 0..count {
            let billed = self.get_cid(eth, from, index);
            cost = cost.saturating_add(billed.cost);
            match billed.value {
                Ok(cid) => cids.push(cid),
                Err(e) => {
                    return Billed {
                        value: Err(e),
                        cost,
                    }
                }
            }
        }
        Billed {
            value: Ok(cids),
            cost,
        }
    }

    /// Reads every stored CID in **two** provider round trips regardless of
    /// count: one `cidCount` call, then all `getCid` reads as a single
    /// [`EthApi::batch`] — the Fig 7b "download CIDs" path without the
    /// per-index wire tax.
    pub fn all_cids_batched<E: EthApi + ?Sized>(
        &self,
        eth: &mut E,
        from: &H160,
    ) -> Billed<Result<Vec<String>, BindingError>> {
        let counted = self.cid_count(eth, from);
        let mut cost = counted.cost;
        let count = match counted.value {
            Ok(n) => n,
            Err(e) => {
                return Billed {
                    value: Err(e),
                    cost,
                }
            }
        };
        if count == 0 {
            return Billed {
                value: Ok(Vec::new()),
                cost,
            };
        }
        let requests: Vec<RpcRequest> = (0..count)
            .map(|index| {
                RpcRequest::new(
                    index,
                    RpcMethod::Call {
                        from: *from,
                        to: self.address,
                        data: Self::get_cid_calldata(index),
                    },
                )
            })
            .collect();
        // Tag-match the reply array: the CIDs are collected positionally,
        // and a reordering endpoint shuffles what the wire delivers.
        let responses = crate::envelope::match_to_requests(&requests, eth.batch(&requests));
        let mut cids = Vec::with_capacity(count as usize);
        for response in responses {
            cost = cost.saturating_add(response.cost);
            let decoded = match response.result {
                Ok(RpcResult::Call(call)) => returndata(&call).and_then(decode_string),
                Ok(_) => Err(BindingError::Rpc(RpcError::UnexpectedResponse)),
                Err(e) => Err(BindingError::Rpc(e)),
            };
            match decoded {
                Ok(cid) => cids.push(cid),
                Err(e) => {
                    return Billed {
                        value: Err(e),
                        cost,
                    }
                }
            }
        }
        Billed {
            value: Ok(cids),
            cost,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eth::EthApi;
    use crate::sim::SimProvider;
    use ofl_eth::chain::{Chain, ChainConfig};
    use ofl_eth::wallet::Wallet;
    use ofl_ipfs::swarm::Swarm;
    use ofl_primitives::u256::U256;
    use ofl_primitives::wei_per_eth;

    struct Fixture {
        provider: SimProvider,
        contract: ModelMarketContract,
        wallet: Wallet,
        caller: H160,
        time: u64,
    }

    impl Fixture {
        fn new() -> Fixture {
            let wallet = Wallet::from_seed("bindings", 1);
            let caller = wallet.addresses()[0];
            let chain = Chain::new(
                ChainConfig::default(),
                &[(caller, wei_per_eth().wrapping_mul(&U256::from(10u64)))],
            );
            let mut provider = SimProvider::new(chain, Swarm::new());
            let raw = wallet
                .sign_raw(
                    &provider.chain,
                    &caller,
                    None,
                    U256::ZERO,
                    ModelMarketContract::init_code(),
                )
                .unwrap();
            let hash = provider.send_raw_transaction(&raw).value.unwrap();
            provider.chain.mine_block(12);
            let receipt = provider.chain.receipt(&hash).unwrap().clone();
            let contract = ModelMarketContract::from_deploy_receipt(&receipt).unwrap();
            Fixture {
                provider,
                contract,
                wallet,
                caller,
                time: 12,
            }
        }

        fn upload(&mut self, cid: &str) {
            let raw = self
                .wallet
                .sign_raw(
                    &self.provider.chain,
                    &self.caller,
                    Some(self.contract.address),
                    U256::ZERO,
                    ModelMarketContract::upload_cid_calldata(cid),
                )
                .unwrap();
            self.provider.send_raw_transaction(&raw).value.unwrap();
            self.time += 12;
            self.provider.chain.mine_block(self.time);
        }
    }

    #[test]
    fn typed_reads_roundtrip_through_the_provider() {
        let mut f = Fixture::new();
        assert_eq!(
            f.contract
                .cid_count(&mut f.provider, &f.caller)
                .value
                .unwrap(),
            0
        );
        let cid = "QmYwAPJzv5CZsnA625s3Xf2nemtYgPpHdWEz79ojWnPbdG";
        f.upload(cid);
        f.upload("short-cid");
        assert_eq!(
            f.contract
                .cid_count(&mut f.provider, &f.caller)
                .value
                .unwrap(),
            2
        );
        assert_eq!(
            f.contract
                .get_cid(&mut f.provider, &f.caller, 0)
                .value
                .unwrap(),
            cid
        );
        assert_eq!(
            f.contract
                .all_cids(&mut f.provider, &f.caller)
                .value
                .unwrap(),
            vec![cid.to_string(), "short-cid".to_string()]
        );
    }

    #[test]
    fn batched_cid_reads_agree_with_per_call_reads_in_two_round_trips() {
        let mut f = Fixture::new();
        for cid in ["QmAlpha", "QmBeta", "QmGamma", "QmDelta"] {
            f.upload(cid);
        }
        let per_call = f
            .contract
            .all_cids(&mut f.provider, &f.caller)
            .value
            .unwrap();
        let batched = f
            .contract
            .all_cids_batched(&mut f.provider, &f.caller)
            .value
            .unwrap();
        assert_eq!(per_call, batched);
        // Cross-layer oracle: the chain-level reader agrees with the
        // provider-level handle.
        let reference = CidStorage::at(f.contract.address)
            .all_cids(&f.provider.chain, &f.caller)
            .unwrap();
        assert_eq!(reference, batched);
        // Round-trip accounting through a metered stack: 1 count + 1 batch.
        let mut metered = crate::decorate(
            Box::new(f.provider),
            ofl_netsim::link::NetworkProfile::campus(),
            0,
            crate::EndpointFaults::default(),
        );
        let again = f
            .contract
            .all_cids_batched(&mut *metered, &f.caller)
            .value
            .unwrap();
        assert_eq!(again, batched);
        let metrics = metered.metrics().unwrap();
        assert_eq!(metrics.round_trips, 2);
        assert_eq!(metrics.method("eth_call").calls, 5);
        assert_eq!(metrics.batched_requests, 4);
    }

    #[test]
    fn out_of_range_read_is_a_typed_revert() {
        let mut f = Fixture::new();
        let result = f.contract.get_cid(&mut f.provider, &f.caller, 7).value;
        assert!(matches!(result, Err(BindingError::Reverted(_))));
    }

    #[test]
    fn event_query_decodes_over_a_range() {
        let mut f = Fixture::new();
        for cid in ["QmFirst", "QmSecond", "QmThird"] {
            f.upload(cid);
        }
        let head = f.provider.chain.height();
        let all = f
            .contract
            .uploaded_cids_in(&mut f.provider, 1, head)
            .value
            .unwrap();
        assert_eq!(all, vec!["QmFirst", "QmSecond", "QmThird"]);
        // The range actually filters: skip the first upload's block.
        let later = f
            .contract
            .uploaded_cids_in(&mut f.provider, 3, head)
            .value
            .unwrap();
        assert_eq!(later, vec!["QmSecond", "QmThird"]);
    }

    #[test]
    fn corrupt_returndata_is_a_decode_error_not_a_truncation() {
        // Decode path only: returndata with trailing garbage must surface
        // AbiError::TrailingData through the typed binding.
        let mut output = abi::encode(&[Value::Uint(U256::from(3u64))]);
        output.push(0xAA);
        let corrupt = CallResult {
            success: true,
            output,
            gas_used: 0,
        };
        assert_eq!(
            decode_u64(&corrupt),
            Err(BindingError::Decode(AbiError::TrailingData))
        );
    }

    #[test]
    fn type_mismatch_is_surfaced() {
        // A uint256 that cannot fit u64.
        let output = abi::encode(&[Value::Uint(U256::MAX)]);
        let result = CallResult {
            success: true,
            output,
            gas_used: 0,
        };
        assert_eq!(decode_u64(&result), Err(BindingError::TypeMismatch));
    }

    #[test]
    fn deploy_receipt_validation() {
        let f = Fixture::new();
        let good = f
            .provider
            .chain
            .receipt(&f.provider.chain.block(1).unwrap().tx_hashes[0])
            .unwrap()
            .clone();
        assert!(ModelMarketContract::from_deploy_receipt(&good).is_ok());
        let mut bad = good.clone();
        bad.status = ofl_eth::block::TxStatus::Reverted;
        assert!(matches!(
            ModelMarketContract::from_deploy_receipt(&bad),
            Err(BindingError::Reverted(_))
        ));
    }
}
