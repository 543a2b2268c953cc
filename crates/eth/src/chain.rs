//! The blockchain: mempool, transaction execution, PoA block production
//! with 12-second slots, EIP-1559 base-fee dynamics, and read-only calls.
//!
//! This is the "Sepolia testnet" of the reproduction. Time is externalized —
//! [`Chain::mine_block`] takes the slot timestamp — so the network simulator
//! in `ofl-netsim` can drive block production from its virtual clock and the
//! paper's Fig 7 "waiting for confirmation" latencies emerge naturally.

use crate::block::{tx_root, Block, Bloom, Header, Receipt, TxStatus};
use crate::evm::{Env, Interpreter, Outcome};
use crate::gas;
use crate::state::State;
use crate::tx::{create_address, SignedTx, TxError};
use ofl_primitives::u256::U256;
use ofl_primitives::{H160, H256};
use std::collections::HashMap;

/// Chain-level configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChainConfig {
    /// Chain id; defaults to Sepolia's 11155111.
    pub chain_id: u64,
    /// Seconds between blocks (Ethereum PoS slot time: 12 s).
    pub block_time: u64,
    /// Per-block gas limit.
    pub gas_limit: u64,
    /// Genesis base fee, in wei.
    pub initial_base_fee: U256,
    /// PoA block producer / fee recipient.
    pub coinbase: H160,
    /// How many slots a confirmation wait may mine before giving up with a
    /// typed timeout (the old behaviour hardcoded 64 deep inside
    /// `World::mine_until`).
    pub max_wait_slots: u64,
}

impl Default for ChainConfig {
    fn default() -> Self {
        ChainConfig {
            chain_id: 11_155_111,
            block_time: 12,
            gas_limit: 30_000_000,
            // ~12 gwei: calibrated so CidStorage deployment costs ≈0.002 ETH
            // as reported in the paper's Fig 5 (see EXPERIMENTS.md).
            initial_base_fee: U256::from(12_000_000_000u64),
            coinbase: H160::from_slice(&[0xC0u8; 20]),
            max_wait_slots: 64,
        }
    }
}

/// Errors surfaced when a transaction cannot even enter the mempool or
/// begin execution (execution-time failures produce failed *receipts*
/// instead).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// Signature/encoding problem.
    Tx(TxError),
    /// Wrong chain id.
    WrongChain { expected: u64, got: u64 },
    /// Nonce lower than the account's current nonce.
    NonceTooLow { expected: u64, got: u64 },
    /// Cannot afford `gas_limit × max_fee + value`.
    InsufficientFunds,
    /// `max_fee_per_gas` below the current base fee.
    FeeTooLow,
    /// Gas limit below intrinsic cost.
    IntrinsicGas,
    /// Gas limit above the block gas limit.
    ExceedsBlockGas,
}

impl From<TxError> for ChainError {
    fn from(e: TxError) -> Self {
        ChainError::Tx(e)
    }
}

impl core::fmt::Display for ChainError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ChainError::Tx(e) => write!(f, "transaction: {e}"),
            ChainError::WrongChain { expected, got } => {
                write!(f, "wrong chain id: expected {expected}, got {got}")
            }
            ChainError::NonceTooLow { expected, got } => {
                write!(f, "nonce too low: expected ≥ {expected}, got {got}")
            }
            ChainError::InsufficientFunds => {
                write!(f, "insufficient funds for gas × price + value")
            }
            ChainError::FeeTooLow => write!(f, "max fee per gas below base fee"),
            ChainError::IntrinsicGas => write!(f, "gas limit below intrinsic cost"),
            ChainError::ExceedsBlockGas => write!(f, "gas limit exceeds block gas limit"),
        }
    }
}

impl std::error::Error for ChainError {}

/// An `eth_getLogs`-style filter. `None` fields match everything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogFilter {
    /// First block to scan (inclusive; clamped to 1).
    pub from_block: u64,
    /// Last block to scan (inclusive; clamped to the chain head).
    pub to_block: u64,
    /// Emitting contract address.
    pub address: Option<H160>,
    /// Required first topic (the event signature hash).
    pub topic: Option<H256>,
}

impl LogFilter {
    /// A filter over the whole chain.
    pub fn all() -> LogFilter {
        LogFilter {
            from_block: 1,
            to_block: u64::MAX,
            address: None,
            topic: None,
        }
    }

    /// Restricts to one contract.
    pub fn at_address(mut self, address: H160) -> LogFilter {
        self.address = Some(address);
        self
    }

    /// Restricts to one event signature.
    pub fn with_topic(mut self, topic: H256) -> LogFilter {
        self.topic = Some(topic);
        self
    }

    /// Restricts to the inclusive block range `[from, to]` — what an
    /// incremental event watcher passes so re-polls only scan new blocks.
    pub fn in_blocks(mut self, from: u64, to: u64) -> LogFilter {
        self.from_block = from;
        self.to_block = to;
        self
    }
}

/// One log matched by [`Chain::get_logs`], with its position metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FilteredLog {
    /// Block that contains the log.
    pub block_number: u64,
    /// Transaction that emitted it.
    pub tx_hash: H256,
    /// Index within the transaction's logs.
    pub log_index: usize,
    /// The log itself.
    pub log: crate::evm::LogEntry,
}

/// A pending transaction as a mempool watcher sees it: decoded once at
/// submission time, not re-parsed per subscriber. Carries enough for a
/// front-runner to act (who, which contract, which function, what bid)
/// without exposing the raw calldata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingTxEvent {
    /// Transaction hash.
    pub hash: H256,
    /// Recovered sender.
    pub sender: H160,
    /// Recipient (`None` for contract creation).
    pub to: Option<H160>,
    /// First four calldata bytes (the function selector), when present.
    pub selector: Option<[u8; 4]>,
    /// Effective tip per gas as priced against the base fee at submission.
    pub tip: U256,
    /// Sender nonce.
    pub nonce: u64,
}

/// One raw chain event, recorded in publish order. The chain assigns each
/// event a chain-monotonic sequence number at publish time; the `(slot,
/// shard, seq)` delivery key the subscription layer advertises is built
/// from it.
#[derive(Debug, Clone, PartialEq)]
pub enum ChainEvent {
    /// A block was mined.
    Head(Box<Block>),
    /// A mined transaction emitted this log (execution order within the
    /// block).
    Log(FilteredLog),
    /// A transaction entered the mempool.
    Pending(PendingTxEvent),
}

/// The result of a read-only (`eth_call`) execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallResult {
    /// Whether the call succeeded.
    pub success: bool,
    /// Return or revert data.
    pub output: Vec<u8>,
    /// Gas that a transaction doing this would have used (excluding
    /// intrinsic).
    pub gas_used: u64,
}

/// The blockchain simulator.
pub struct Chain {
    config: ChainConfig,
    state: State,
    blocks: Vec<Block>,
    receipts: HashMap<H256, Receipt>,
    tx_index: HashMap<H256, SignedTx>,
    mempool: Vec<SignedTx>,
    base_fee: U256,
    /// Total wei burned via the base fee (EIP-1559).
    burned: U256,
    /// Senders recovered at submission, so mining a pool transaction does
    /// not pay `ecrecover` again on every block attempt (recovery is
    /// deterministic, so the memo can never disagree with a re-run).
    sender_memo: HashMap<H256, H160>,
    /// The raw event log: heads, logs, and pending transactions in publish
    /// order. Empty (and free) until [`Chain::enable_events`] — fleets
    /// without subscribers never buffer anything.
    events: Vec<(u64, ChainEvent)>,
    /// Next event sequence number (chain-monotonic, never reused).
    event_seq: u64,
    /// Whether publish sites record events at all.
    events_enabled: bool,
}

impl Chain {
    /// Creates a chain with the given config and genesis allocations.
    pub fn new(config: ChainConfig, genesis: &[(H160, U256)]) -> Chain {
        let mut state = State::new();
        for (addr, amount) in genesis {
            state
                .credit(addr, amount)
                .expect("genesis allocation overflow");
        }
        let base_fee = config.initial_base_fee;
        Chain {
            config,
            state,
            blocks: Vec::new(),
            receipts: HashMap::new(),
            tx_index: HashMap::new(),
            mempool: Vec::new(),
            base_fee,
            burned: U256::ZERO,
            sender_memo: HashMap::new(),
            events: Vec::new(),
            event_seq: 0,
            events_enabled: false,
        }
    }

    /// Turns on event recording. Off by default so non-subscribing worlds
    /// pay nothing; the first subscription flips it on — consistently
    /// across in-process and remote backends, which is what keeps their
    /// event streams bit-identical.
    pub fn enable_events(&mut self) {
        self.events_enabled = true;
    }

    /// Whether publish sites currently record events.
    pub fn events_enabled(&self) -> bool {
        self.events_enabled
    }

    /// Takes every event published since the last drain, in publish order
    /// with chain-monotonic sequence numbers.
    pub fn drain_events(&mut self) -> Vec<(u64, ChainEvent)> {
        std::mem::take(&mut self.events)
    }

    /// Records one event (no-op until [`Chain::enable_events`]).
    fn publish(&mut self, event: ChainEvent) {
        if self.events_enabled {
            self.events.push((self.event_seq, event));
            self.event_seq += 1;
        }
    }

    /// Chain configuration.
    pub fn config(&self) -> &ChainConfig {
        &self.config
    }

    /// Current base fee.
    pub fn base_fee(&self) -> U256 {
        self.base_fee
    }

    /// Total burned wei.
    pub fn burned(&self) -> U256 {
        self.burned
    }

    /// Current block height (0 = genesis, no blocks mined).
    pub fn height(&self) -> u64 {
        self.blocks.len() as u64
    }

    /// Account balance.
    pub fn balance(&self, address: &H160) -> U256 {
        self.state.balance(address)
    }

    /// Account nonce.
    pub fn nonce(&self, address: &H160) -> u64 {
        self.state.nonce(address)
    }

    /// Contract code at an address.
    pub fn code(&self, address: &H160) -> &[u8] {
        self.state.code(address)
    }

    /// Raw storage read (for tests/inspection).
    pub fn storage(&self, address: &H160, key: &H256) -> U256 {
        self.state.storage(address, key)
    }

    /// Looks up a mined transaction's receipt.
    pub fn receipt(&self, tx_hash: &H256) -> Option<&Receipt> {
        self.receipts.get(tx_hash)
    }

    /// Looks up a block by number (1-based; block 1 is the first mined).
    pub fn block(&self, number: u64) -> Option<&Block> {
        if number == 0 || number > self.blocks.len() as u64 {
            None
        } else {
            Some(&self.blocks[number as usize - 1])
        }
    }

    /// The latest block, if any.
    pub fn latest_block(&self) -> Option<&Block> {
        self.blocks.last()
    }

    /// Number of transactions waiting in the mempool.
    pub fn mempool_len(&self) -> usize {
        self.mempool.len()
    }

    /// Whether a submitted transaction is still waiting in the mempool.
    pub fn is_pending(&self, hash: &H256) -> bool {
        self.mempool.iter().any(|tx| tx.hash() == *hash)
    }

    /// `eth_getLogs`: collects logs matching `filter` from the inclusive
    /// block range, using each block's bloom filter to skip blocks that
    /// cannot contain a match.
    pub fn get_logs(&self, filter: &LogFilter) -> Vec<FilteredLog> {
        let from = filter.from_block.max(1);
        let to = filter.to_block.min(self.height());
        let mut out = Vec::new();
        for number in from..=to {
            let block = &self.blocks[number as usize - 1];
            // Bloom pre-filter: a definite miss skips receipt scanning.
            if let Some(addr) = &filter.address {
                if !block.header.bloom.contains(addr.as_bytes()) {
                    continue;
                }
            }
            if let Some(topic) = &filter.topic {
                if !block.header.bloom.contains(topic.as_bytes()) {
                    continue;
                }
            }
            for tx_hash in &block.tx_hashes {
                let receipt = &self.receipts[tx_hash];
                for (log_index, log) in receipt.logs.iter().enumerate() {
                    if let Some(addr) = &filter.address {
                        if log.address != *addr {
                            continue;
                        }
                    }
                    if let Some(topic) = &filter.topic {
                        if log.topics.first() != Some(topic) {
                            continue;
                        }
                    }
                    out.push(FilteredLog {
                        block_number: number,
                        tx_hash: *tx_hash,
                        log_index,
                        log: log.clone(),
                    });
                }
            }
        }
        out
    }

    /// Validates a signed transaction and queues it. Returns its hash.
    pub fn submit(&mut self, tx: SignedTx) -> Result<H256, ChainError> {
        let sender = tx.recover_sender()?;
        let req = &tx.request;
        if req.chain_id != self.config.chain_id {
            return Err(ChainError::WrongChain {
                expected: self.config.chain_id,
                got: req.chain_id,
            });
        }
        let current_nonce = self.state.nonce(&sender);
        // Allow future nonces (they wait in the pool); reject stale ones.
        if req.nonce < current_nonce {
            return Err(ChainError::NonceTooLow {
                expected: current_nonce,
                got: req.nonce,
            });
        }
        if req.gas_limit > self.config.gas_limit {
            return Err(ChainError::ExceedsBlockGas);
        }
        if req.gas_limit < gas::intrinsic_gas(&req.data, req.is_create()) {
            return Err(ChainError::IntrinsicGas);
        }
        let max_cost = U256::from(req.gas_limit)
            .checked_mul(&req.max_fee_per_gas)
            .and_then(|c| c.checked_add(&req.value))
            .ok_or(ChainError::InsufficientFunds)?;
        if self.state.balance(&sender) < max_cost {
            return Err(ChainError::InsufficientFunds);
        }
        let hash = tx.hash();
        if self.events_enabled {
            let selector = (req.data.len() >= 4).then(|| {
                let mut s = [0u8; 4];
                s.copy_from_slice(&req.data[..4]);
                s
            });
            let event = PendingTxEvent {
                hash,
                sender,
                to: req.to,
                selector,
                tip: effective_tip(&tx, &self.base_fee),
                nonce: req.nonce,
            };
            self.publish(ChainEvent::Pending(event));
        }
        self.sender_memo.insert(hash, sender);
        self.mempool.push(tx);
        Ok(hash)
    }

    /// Submits a raw encoded transaction (`eth_sendRawTransaction`).
    pub fn submit_raw(&mut self, raw: &[u8]) -> Result<H256, ChainError> {
        let tx = SignedTx::decode(raw)?;
        self.submit(tx)
    }

    /// Mines one block at `timestamp`, executing mempool transactions in
    /// order until the block gas limit is reached. Returns the new block.
    pub fn mine_block(&mut self, timestamp: u64) -> Block {
        let number = self.height() + 1;
        let parent_hash = self.latest_block().map(|b| b.hash()).unwrap_or(H256::ZERO);
        let mut included = Vec::new();
        let mut receipts = Vec::new();
        let mut gas_used_total = 0u64;
        let mut bloom = Bloom::default();
        let mut remaining = Vec::new();

        let mut pool = std::mem::take(&mut self.mempool);
        // Builder policy: highest effective tip first, as priced against this
        // block's base fee. The sort is stable, so submission order breaks
        // ties and a sender's equal-tip nonce run keeps its relative order.
        let base = self.base_fee;
        pool.sort_by_key(|tx| std::cmp::Reverse(effective_tip(tx, &base)));
        for tx in pool {
            if gas_used_total + tx.request.gas_limit > self.config.gas_limit {
                remaining.push(tx);
                continue;
            }
            // Not ready (future nonce): keep for a later block.
            let sender = match self.sender_memo.get(&tx.hash()).copied() {
                Some(s) => s,
                None => match tx.recover_sender() {
                    Ok(s) => s,
                    Err(_) => continue, // drop unverifiable txs
                },
            };
            if tx.request.nonce != self.state.nonce(&sender) {
                if tx.request.nonce > self.state.nonce(&sender) {
                    remaining.push(tx);
                }
                continue;
            }
            match self.execute(&tx, &sender, number, timestamp) {
                Ok(receipt) => {
                    gas_used_total += receipt.gas_used;
                    for log in &receipt.logs {
                        bloom.accrue_log(log);
                    }
                    included.push(tx.hash());
                    self.tx_index.insert(tx.hash(), tx);
                    receipts.push(receipt);
                }
                Err(_) => {
                    // Became invalid since submission (e.g. balance spent);
                    // drop it, as real clients evict such transactions.
                }
            }
        }
        self.mempool = remaining;
        // Only pool transactions can be mined again; drop memo entries for
        // everything that left the pool this block.
        if self.mempool.is_empty() {
            self.sender_memo.clear();
        } else {
            let live: std::collections::HashSet<H256> =
                self.mempool.iter().map(|tx| tx.hash()).collect();
            self.sender_memo.retain(|h, _| live.contains(h));
        }

        let header = Header {
            parent_hash,
            number,
            timestamp,
            coinbase: self.config.coinbase,
            gas_used: gas_used_total,
            gas_limit: self.config.gas_limit,
            base_fee: self.base_fee,
            tx_root: tx_root(&included),
            bloom,
        };
        let block = Block {
            header,
            tx_hashes: included,
        };
        if self.events_enabled {
            // Head first, then this block's logs in execution order — the
            // delivery-order contract subscribers rely on.
            self.publish(ChainEvent::Head(Box::new(block.clone())));
            let log_events: Vec<ChainEvent> = receipts
                .iter()
                .flat_map(|r| {
                    r.logs.iter().enumerate().map(|(log_index, log)| {
                        ChainEvent::Log(FilteredLog {
                            block_number: number,
                            tx_hash: r.tx_hash,
                            log_index,
                            log: log.clone(),
                        })
                    })
                })
                .collect();
            for event in log_events {
                self.publish(event);
            }
        }
        // lint: ordered-ok(receipts here is the per-block Vec in execution order, not the receipts map)
        for r in receipts {
            self.receipts.insert(r.tx_hash, r);
        }
        self.blocks.push(block.clone());
        self.update_base_fee(gas_used_total);
        block
    }

    /// EIP-1559 base fee update: ±1/8 proportional to deviation from the
    /// half-full target, and at least 1 wei up on an over-full block.
    ///
    /// One deviation from the specification (geth's and bor's
    /// `CalcBaseFee`): a decrease stops at a 7-wei floor instead of
    /// reaching zero. `base_fee_matches_the_eip1559_reference` pins this
    /// against a transcription of the reference.
    fn update_base_fee(&mut self, gas_used: u64) {
        let target = self.config.gas_limit / 2;
        if gas_used == target {
            return;
        }
        let base = self.base_fee;
        if gas_used > target {
            let delta_num = base
                .wrapping_mul(&U256::from(gas_used - target))
                .div_rem(&U256::from(target))
                .0
                .div_rem(&U256::from(8u64))
                .0;
            let delta = delta_num.max(U256::ONE);
            self.base_fee = base.wrapping_add(&delta);
        } else {
            let delta = base
                .wrapping_mul(&U256::from(target - gas_used))
                .div_rem(&U256::from(target))
                .0
                .div_rem(&U256::from(8u64))
                .0;
            self.base_fee = base
                .checked_sub(&delta)
                .unwrap_or(U256::ZERO)
                .max(U256::from(7u64));
        }
    }

    /// Executes a validated transaction against the state. Only returns
    /// `Err` when the transaction cannot pay for itself; EVM-level failures
    /// produce receipts with `Reverted`/`Failed` status.
    fn execute(
        &mut self,
        tx: &SignedTx,
        sender: &H160,
        block_number: u64,
        timestamp: u64,
    ) -> Result<Receipt, ChainError> {
        let req = &tx.request;
        if req.max_fee_per_gas < self.base_fee {
            return Err(ChainError::FeeTooLow);
        }
        // effective price = base fee + min(tip, max_fee − base fee)
        let max_tip = req.max_fee_per_gas.wrapping_sub(&self.base_fee);
        let tip = if req.max_priority_fee_per_gas < max_tip {
            req.max_priority_fee_per_gas
        } else {
            max_tip
        };
        let price = self.base_fee.wrapping_add(&tip);

        let upfront = U256::from(req.gas_limit).wrapping_mul(&price);
        let total_needed = upfront
            .checked_add(&req.value)
            .ok_or(ChainError::InsufficientFunds)?;
        if self.state.balance(sender) < total_needed {
            return Err(ChainError::InsufficientFunds);
        }
        // Charge the maximum upfront; unused gas is refunded below.
        self.state
            .debit(sender, &upfront)
            .expect("balance checked above");
        let nonce_before = self.state.nonce(sender);
        self.state.bump_nonce(sender);

        let intrinsic = gas::intrinsic_gas(&req.data, req.is_create());
        debug_assert!(req.gas_limit >= intrinsic, "validated at submit");
        let exec_gas = req.gas_limit - intrinsic;

        // Everything past this point can roll back on failure, except the
        // fee and nonce which stay.
        let snapshot = self.state.snapshot();

        let (status, mut gas_used, refund, logs, contract_address, output) = if req.is_create() {
            self.execute_create(
                req,
                sender,
                nonce_before,
                price,
                block_number,
                timestamp,
                exec_gas,
            )
        } else {
            self.execute_call(req, sender, price, block_number, timestamp, exec_gas)
        };

        if status != TxStatus::Success {
            self.state = snapshot;
        }

        // EIP-3529 refund cap: at most gas_used / 5.
        let capped_refund = refund.min(gas_used / gas::MAX_REFUND_QUOTIENT);
        gas_used -= capped_refund;
        let total_gas = intrinsic + gas_used;

        // Return unused gas.
        let refund_wei = U256::from(req.gas_limit - total_gas).wrapping_mul(&price);
        self.state
            .credit(sender, &refund_wei)
            .expect("refund cannot overflow");
        // Tip to coinbase; base-fee share is burned.
        let tip_wei = U256::from(total_gas).wrapping_mul(&tip);
        let coinbase = self.config.coinbase;
        self.state
            .credit(&coinbase, &tip_wei)
            .expect("tip cannot overflow");
        self.burned = self
            .burned
            .wrapping_add(&U256::from(total_gas).wrapping_mul(&self.base_fee));

        Ok(Receipt {
            tx_hash: tx.hash(),
            status,
            gas_used: total_gas,
            effective_gas_price: price,
            fee: U256::from(total_gas).wrapping_mul(&price),
            contract_address,
            logs,
            block_number,
            output,
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn execute_create(
        &mut self,
        req: &crate::tx::TxRequest,
        sender: &H160,
        nonce_before: u64,
        price: U256,
        block_number: u64,
        timestamp: u64,
        exec_gas: u64,
    ) -> ExecOutcome {
        let new_address = create_address(sender, nonce_before);
        // Endow the new contract with the transaction value.
        if self
            .state
            .transfer(sender, &new_address, &req.value)
            .is_err()
        {
            return (TxStatus::Failed, exec_gas, 0, Vec::new(), None, Vec::new());
        }
        let env = self.env_for(
            req,
            sender,
            new_address,
            price,
            block_number,
            timestamp,
            Vec::new(),
        );
        let result = Interpreter::new(&mut self.state, env, req.data.clone(), exec_gas).run();
        match result.outcome {
            Outcome::Success => {
                let runtime = result.output;
                let deposit_cost = gas::CODE_DEPOSIT_BYTE * runtime.len() as u64;
                if result.gas_used + deposit_cost > exec_gas {
                    return (TxStatus::Failed, exec_gas, 0, Vec::new(), None, Vec::new());
                }
                self.state.account_mut(&new_address).code = runtime;
                (
                    TxStatus::Success,
                    result.gas_used + deposit_cost,
                    result.refund,
                    result.logs,
                    Some(new_address),
                    Vec::new(),
                )
            }
            Outcome::Revert => (
                TxStatus::Reverted,
                result.gas_used,
                0,
                Vec::new(),
                None,
                result.output,
            ),
            _ => (TxStatus::Failed, exec_gas, 0, Vec::new(), None, Vec::new()),
        }
    }

    fn execute_call(
        &mut self,
        req: &crate::tx::TxRequest,
        sender: &H160,
        price: U256,
        block_number: u64,
        timestamp: u64,
        exec_gas: u64,
    ) -> ExecOutcome {
        let to = req.to.expect("call path requires recipient");
        if self.state.transfer(sender, &to, &req.value).is_err() {
            return (TxStatus::Failed, exec_gas, 0, Vec::new(), None, Vec::new());
        }
        let code = self.state.code(&to).to_vec();
        if code.is_empty() {
            // Plain value transfer: no execution.
            return (TxStatus::Success, 0, 0, Vec::new(), None, Vec::new());
        }
        let env = self.env_for(
            req,
            sender,
            to,
            price,
            block_number,
            timestamp,
            req.data.clone(),
        );
        let result = Interpreter::new(&mut self.state, env, code, exec_gas).run();
        match result.outcome {
            Outcome::Success => (
                TxStatus::Success,
                result.gas_used,
                result.refund,
                result.logs,
                None,
                result.output,
            ),
            Outcome::Revert => (
                TxStatus::Reverted,
                result.gas_used,
                0,
                Vec::new(),
                None,
                result.output,
            ),
            _ => (TxStatus::Failed, exec_gas, 0, Vec::new(), None, Vec::new()),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn env_for(
        &self,
        req: &crate::tx::TxRequest,
        sender: &H160,
        address: H160,
        price: U256,
        block_number: u64,
        timestamp: u64,
        calldata: Vec<u8>,
    ) -> Env {
        Env {
            address,
            caller: *sender,
            origin: *sender,
            call_value: req.value,
            calldata,
            gas_price: price,
            block_number,
            timestamp,
            gas_limit: self.config.gas_limit,
            chain_id: self.config.chain_id,
            base_fee: self.base_fee,
        }
    }

    /// Read-only call (`eth_call`): executes against a scratch copy of the
    /// state. Free — this is why the paper's Step 5 "download CIDs" incurs
    /// no gas fee.
    pub fn call(&self, from: &H160, to: &H160, data: Vec<u8>) -> CallResult {
        let code = self.state.code(to).to_vec();
        if code.is_empty() {
            return CallResult {
                success: true,
                output: Vec::new(),
                gas_used: 0,
            };
        }
        let env = Env {
            address: *to,
            caller: *from,
            origin: *from,
            call_value: U256::ZERO,
            calldata: data,
            gas_price: self.base_fee,
            block_number: self.height() + 1,
            timestamp: self.latest_block().map(|b| b.header.timestamp).unwrap_or(0),
            gas_limit: self.config.gas_limit,
            chain_id: self.config.chain_id,
            base_fee: self.base_fee,
        };
        let mut scratch = self.state.clone();
        let result = Interpreter::new(&mut scratch, env, code, self.config.gas_limit).run();
        CallResult {
            success: result.is_success(),
            gas_used: result.gas_used,
            output: result.output,
        }
    }

    /// Estimates the total gas a transaction would use (intrinsic +
    /// execution), like `eth_estimateGas`.
    pub fn estimate_gas(&self, from: &H160, to: Option<&H160>, data: &[u8]) -> u64 {
        match to {
            Some(to) => {
                let result = self.call(from, to, data.to_vec());
                gas::intrinsic_gas(data, false) + result.gas_used
            }
            None => {
                // Creation: simulate init execution + deposit.
                let env = Env {
                    address: create_address(from, self.state.nonce(from)),
                    caller: *from,
                    origin: *from,
                    call_value: U256::ZERO,
                    calldata: Vec::new(),
                    gas_price: self.base_fee,
                    block_number: self.height() + 1,
                    timestamp: 0,
                    gas_limit: self.config.gas_limit,
                    chain_id: self.config.chain_id,
                    base_fee: self.base_fee,
                };
                let mut scratch = self.state.clone();
                let result =
                    Interpreter::new(&mut scratch, env, data.to_vec(), self.config.gas_limit).run();
                gas::intrinsic_gas(data, true)
                    + result.gas_used
                    + gas::CODE_DEPOSIT_BYTE * result.output.len() as u64
            }
        }
    }

    /// Direct state access for integration tests and the faucet.
    pub fn state_mut(&mut self) -> &mut State {
        &mut self.state
    }

    /// Read-only state access.
    pub fn state(&self) -> &State {
        &self.state
    }
}

/// The tip a transaction actually pays per gas at `base_fee`:
/// `min(max_priority_fee, max_fee − base_fee)`, zero when underwater.
fn effective_tip(tx: &SignedTx, base_fee: &U256) -> U256 {
    let headroom = tx
        .request
        .max_fee_per_gas
        .checked_sub(base_fee)
        .unwrap_or(U256::ZERO);
    if tx.request.max_priority_fee_per_gas < headroom {
        tx.request.max_priority_fee_per_gas
    } else {
        headroom
    }
}

type ExecOutcome = (
    TxStatus,
    u64,
    u64,
    Vec<crate::evm::LogEntry>,
    Option<H160>,
    Vec<u8>,
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secp256k1;
    use crate::tx::{sign_tx, TxRequest};
    use ofl_primitives::wei_per_eth;
    use proptest::prelude::*;

    fn key(i: u64) -> U256 {
        U256::from(1_000_000 + i)
    }

    fn addr_of(k: &U256) -> H160 {
        secp256k1::public_key(k).unwrap().to_eth_address().unwrap()
    }

    fn funded_chain(n_accounts: u64) -> Chain {
        let genesis: Vec<(H160, U256)> = (0..n_accounts)
            .map(|i| (addr_of(&key(i)), wei_per_eth()))
            .collect();
        Chain::new(ChainConfig::default(), &genesis)
    }

    fn transfer_req(chain: &Chain, from: u64, to: H160, value: U256) -> TxRequest {
        TxRequest {
            chain_id: chain.config().chain_id,
            nonce: chain.nonce(&addr_of(&key(from))),
            max_priority_fee_per_gas: U256::from(1_500_000_000u64),
            max_fee_per_gas: U256::from(40_000_000_000u64),
            gas_limit: 21_000,
            to: Some(to),
            value,
            data: Vec::new(),
        }
    }

    /// `compute_next_base_fee` (bor's `eip1559.go`, SNIPPETS.md Snippet 2):
    /// elasticity 2, change denominator 8, saturating at zero.
    fn compute_next_base_fee(current: U256, gas_used: U256, gas_limit: U256) -> U256 {
        let gas_target = gas_limit.checked_div(&U256::from(2u64)).unwrap();
        let denominator = U256::from(8u64);
        if gas_used == gas_target {
            current
        } else if gas_used > gas_target {
            let x = current.checked_mul(&(gas_used - gas_target)).unwrap();
            let y = x.checked_div(&gas_target).unwrap();
            current + y.checked_div(&denominator).unwrap().max(U256::ONE)
        } else {
            let x = current.checked_mul(&(gas_target - gas_used)).unwrap();
            let y = x.checked_div(&gas_target).unwrap();
            current
                .checked_sub(&y.checked_div(&denominator).unwrap())
                .unwrap_or(U256::ZERO)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn base_fee_matches_the_eip1559_reference(
            // Shifting a random u128 right spreads bases over every
            // magnitude, down to the single wei where `max(delta, 1)` acts.
            base in (any::<u128>(), 0u32..128).prop_map(|(b, s)| b >> s),
            limit in 2u64..60_000_000,
            used in any::<u64>(),
            pick in 0u8..4,
        ) {
            // Exact target, empty and full blocks get their own picks.
            let gas_used = match pick {
                0 => limit / 2,
                1 => 0,
                2 => limit,
                _ => used % (limit + 1),
            };
            let mut chain = Chain::new(
                ChainConfig {
                    gas_limit: limit,
                    initial_base_fee: U256::from_u128(base),
                    ..ChainConfig::default()
                },
                &[],
            );
            chain.update_base_fee(gas_used);
            let reference = compute_next_base_fee(
                U256::from_u128(base),
                U256::from(gas_used),
                U256::from(limit),
            );
            if gas_used < limit / 2 {
                prop_assert_eq!(chain.base_fee(), reference.max(U256::from(7u64)));
            } else {
                prop_assert_eq!(chain.base_fee(), reference);
            }
        }
    }

    #[test]
    fn high_s_twin_is_rejected_at_submit() {
        let mut chain = funded_chain(2);
        let to = addr_of(&key(1));
        let tx = sign_tx(transfer_req(&chain, 0, to, U256::ONE), &key(0)).unwrap();
        let mut twin = tx.clone();
        twin.signature.s = secp256k1::N.wrapping_sub(&tx.signature.s);
        twin.signature.recovery_id ^= 1;
        // `ecrecover` itself stays permissive: the twin names the same
        // sender, under a different transaction hash.
        let signing_hash = tx.request.signing_hash().0;
        assert_eq!(
            secp256k1::recover_address(&signing_hash, &twin.signature),
            Ok(addr_of(&key(0)))
        );
        assert_ne!(twin.hash(), tx.hash());
        assert!(chain.submit(tx).is_ok());
        assert_eq!(
            chain.submit(twin),
            Err(ChainError::Tx(TxError::Signature(
                secp256k1::EcdsaError::InvalidSignature
            )))
        );
    }

    #[test]
    fn plain_transfer_executes() {
        let mut chain = funded_chain(2);
        let to = addr_of(&key(1));
        let value = U256::from_u128(1_000_000_000_000_000);
        let tx = sign_tx(transfer_req(&chain, 0, to, value), &key(0)).unwrap();
        let hash = chain.submit(tx).unwrap();
        let block = chain.mine_block(12);
        assert_eq!(block.tx_hashes, vec![hash]);
        let receipt = chain.receipt(&hash).unwrap();
        assert!(receipt.is_success());
        assert_eq!(receipt.gas_used, 21_000);
        assert_eq!(chain.balance(&to), wei_per_eth().wrapping_add(&value));
        // Sender lost value + fee.
        let sender = addr_of(&key(0));
        let expect_spent = value.wrapping_add(&receipt.fee);
        assert_eq!(
            chain.balance(&sender),
            wei_per_eth().wrapping_sub(&expect_spent)
        );
    }

    #[test]
    fn fee_splits_into_burn_and_tip() {
        let mut chain = funded_chain(2);
        let to = addr_of(&key(1));
        let tx = sign_tx(transfer_req(&chain, 0, to, U256::ONE), &key(0)).unwrap();
        chain.submit(tx).unwrap();
        let base_fee = chain.base_fee();
        chain.mine_block(12);
        let tip = U256::from(21_000u64).wrapping_mul(&U256::from(1_500_000_000u64));
        let burn = U256::from(21_000u64).wrapping_mul(&base_fee);
        assert_eq!(chain.balance(&chain.config().coinbase), tip);
        assert_eq!(chain.burned(), burn);
    }

    #[test]
    fn nonce_ordering_enforced() {
        let mut chain = funded_chain(2);
        let to = addr_of(&key(1));
        // Submit nonce 1 before nonce 0: both accepted, both mined in order.
        let mut req1 = transfer_req(&chain, 0, to, U256::ONE);
        req1.nonce = 1;
        let tx1 = sign_tx(req1, &key(0)).unwrap();
        let req0 = transfer_req(&chain, 0, to, U256::ONE);
        let tx0 = sign_tx(req0, &key(0)).unwrap();
        chain.submit(tx1).unwrap();
        chain.submit(tx0).unwrap();
        let b1 = chain.mine_block(12);
        assert_eq!(b1.tx_hashes.len(), 1); // only nonce 0 ready
        let b2 = chain.mine_block(24);
        assert_eq!(b2.tx_hashes.len(), 1); // nonce 1 now ready
        assert_eq!(chain.nonce(&addr_of(&key(0))), 2);
    }

    #[test]
    fn stale_nonce_rejected_at_submit() {
        let mut chain = funded_chain(2);
        let to = addr_of(&key(1));
        let tx = sign_tx(transfer_req(&chain, 0, to, U256::ONE), &key(0)).unwrap();
        chain.submit(tx.clone()).unwrap();
        chain.mine_block(12);
        assert!(matches!(
            chain.submit(tx),
            Err(ChainError::NonceTooLow { .. })
        ));
    }

    #[test]
    fn insufficient_funds_rejected() {
        let mut chain = funded_chain(2);
        let to = addr_of(&key(1));
        let tx = sign_tx(
            transfer_req(&chain, 0, to, wei_per_eth().wrapping_mul(&U256::from(2u64))),
            &key(0),
        )
        .unwrap();
        assert_eq!(chain.submit(tx), Err(ChainError::InsufficientFunds));
    }

    #[test]
    fn wrong_chain_rejected() {
        let mut chain = funded_chain(1);
        let mut req = transfer_req(&chain, 0, H160::ZERO, U256::ONE);
        req.chain_id = 1;
        let tx = sign_tx(req, &key(0)).unwrap();
        assert!(matches!(
            chain.submit(tx),
            Err(ChainError::WrongChain { .. })
        ));
    }

    #[test]
    fn contract_deploy_and_call() {
        // Deploy a contract that returns 42 for any call.
        // runtime: PUSH1 42 PUSH1 0 MSTORE PUSH1 32 PUSH1 0 RETURN
        let runtime = vec![0x60, 0x2a, 0x60, 0x00, 0x52, 0x60, 0x20, 0x60, 0x00, 0xf3];
        let init = crate::asm::deployment_code(&runtime);
        let mut chain = funded_chain(1);
        let req = TxRequest {
            chain_id: chain.config().chain_id,
            nonce: 0,
            max_priority_fee_per_gas: U256::from(1_500_000_000u64),
            max_fee_per_gas: U256::from(40_000_000_000u64),
            gas_limit: 200_000,
            to: None,
            value: U256::ZERO,
            data: init,
        };
        let tx = sign_tx(req, &key(0)).unwrap();
        let hash = chain.submit(tx).unwrap();
        chain.mine_block(12);
        let receipt = chain.receipt(&hash).unwrap().clone();
        assert!(receipt.is_success());
        let contract = receipt.contract_address.unwrap();
        assert_eq!(chain.code(&contract), &runtime[..]);
        // Read it.
        let out = chain.call(&addr_of(&key(0)), &contract, Vec::new());
        assert!(out.success);
        assert_eq!(U256::from_be_slice(&out.output), U256::from(42u64));
        // Deployment gas: intrinsic (53000 + calldata) + exec + deposit.
        assert!(receipt.gas_used > 53_000 + 200 * runtime.len() as u64);
    }

    #[test]
    fn reverting_tx_charges_fee_but_rolls_back_state() {
        // Contract that stores then reverts: PUSH1 1 PUSH1 0 SSTORE PUSH1 0 PUSH1 0 REVERT
        let runtime = vec![0x60, 0x01, 0x60, 0x00, 0x55, 0x60, 0x00, 0x60, 0x00, 0xfd];
        let init = crate::asm::deployment_code(&runtime);
        let mut chain = funded_chain(1);
        let sender = addr_of(&key(0));
        let deploy = TxRequest {
            chain_id: chain.config().chain_id,
            nonce: 0,
            max_priority_fee_per_gas: U256::from(1_500_000_000u64),
            max_fee_per_gas: U256::from(40_000_000_000u64),
            gas_limit: 200_000,
            to: None,
            value: U256::ZERO,
            data: init,
        };
        let dtx = sign_tx(deploy, &key(0)).unwrap();
        let dhash = chain.submit(dtx).unwrap();
        chain.mine_block(12);
        let contract = chain.receipt(&dhash).unwrap().contract_address.unwrap();

        let balance_before = chain.balance(&sender);
        let call = TxRequest {
            chain_id: chain.config().chain_id,
            nonce: 1,
            max_priority_fee_per_gas: U256::from(1_500_000_000u64),
            max_fee_per_gas: U256::from(40_000_000_000u64),
            gas_limit: 100_000,
            to: Some(contract),
            value: U256::ZERO,
            data: Vec::new(),
        };
        let ctx = sign_tx(call, &key(0)).unwrap();
        let chash = chain.submit(ctx).unwrap();
        chain.mine_block(24);
        let receipt = chain.receipt(&chash).unwrap();
        assert_eq!(receipt.status, TxStatus::Reverted);
        // Storage rolled back.
        assert_eq!(chain.storage(&contract, &H256::ZERO), U256::ZERO);
        // Fee charged.
        assert!(chain.balance(&sender) < balance_before);
        // Nonce advanced.
        assert_eq!(chain.nonce(&sender), 2);
    }

    #[test]
    fn base_fee_rises_when_blocks_full() {
        let cfg = ChainConfig {
            gas_limit: 42_000, // target = 21000: one transfer exactly fills it
            ..ChainConfig::default()
        };
        let genesis = vec![(addr_of(&key(0)), wei_per_eth())];
        let mut chain = Chain::new(cfg, &genesis);
        let fee0 = chain.base_fee();
        // Two transfers = 42000 gas = 2× target → base fee must rise.
        for n in 0..2 {
            let req = TxRequest {
                chain_id: chain.config().chain_id,
                nonce: n,
                max_priority_fee_per_gas: U256::from(1_000_000_000u64),
                max_fee_per_gas: U256::from(100_000_000_000u64),
                gas_limit: 21_000,
                to: Some(H160::from_slice(&[9; 20])),
                value: U256::ONE,
                data: Vec::new(),
            };
            chain.submit(sign_tx(req, &key(0)).unwrap()).unwrap();
        }
        chain.mine_block(12);
        assert!(chain.base_fee() > fee0);
        // Empty block → falls.
        let fee1 = chain.base_fee();
        chain.mine_block(24);
        assert!(chain.base_fee() < fee1);
    }

    #[test]
    fn same_slot_txs_from_distinct_senders_share_a_block_ordered_by_tip() {
        // The invariant the discrete-event session engine relies on: many
        // owners submitting within one 12 s window land in ONE block, and
        // the builder orders them by effective tip, not submission order.
        let mut chain = funded_chain(3);
        let to = H160::from_slice(&[7; 20]);
        let mut hashes = Vec::new();
        // Submission order: lowest tip first — the block must invert it.
        for (i, tip_gwei) in [1u64, 2, 3].into_iter().enumerate() {
            let mut req = transfer_req(&chain, i as u64, to, U256::ONE);
            req.max_priority_fee_per_gas = U256::from(tip_gwei * 1_000_000_000);
            let tx = sign_tx(req, &key(i as u64)).unwrap();
            hashes.push(chain.submit(tx).unwrap());
        }
        let block = chain.mine_block(12);
        assert_eq!(block.tx_hashes.len(), 3, "same slot ⇒ same block");
        assert_eq!(block.header.number, 1);
        // Effective tip descending: sender 2 (3 gwei), then 1, then 0.
        assert_eq!(block.tx_hashes[0], hashes[2]);
        assert_eq!(block.tx_hashes[1], hashes[1]);
        assert_eq!(block.tx_hashes[2], hashes[0]);
        for h in &hashes {
            assert_eq!(chain.receipt(h).unwrap().block_number, 1);
        }
        assert_eq!(chain.mempool_len(), 0);
    }

    #[test]
    fn tip_ordering_respects_per_sender_nonces() {
        // A sender's own nonce run is never reordered by the tip sort: the
        // stable sort keeps equal-tip transactions in submission order, and
        // a not-yet-ready nonce simply waits for the next block.
        let mut chain = funded_chain(2);
        let to = H160::from_slice(&[8; 20]);
        // Sender 0 submits nonces 0 and 1 with the same tip.
        for nonce in 0..2u64 {
            let mut req = transfer_req(&chain, 0, to, U256::ONE);
            req.nonce = nonce;
            chain.submit(sign_tx(req, &key(0)).unwrap()).unwrap();
        }
        // Sender 1 outbids both.
        let mut rich = transfer_req(&chain, 1, to, U256::ONE);
        rich.max_priority_fee_per_gas = U256::from(9_000_000_000u64);
        let rich_hash = chain.submit(sign_tx(rich, &key(1)).unwrap()).unwrap();
        let block = chain.mine_block(12);
        assert_eq!(block.tx_hashes.len(), 3);
        assert_eq!(block.tx_hashes[0], rich_hash);
        assert_eq!(chain.nonce(&addr_of(&key(0))), 2);
    }

    #[test]
    fn mempool_pending_visibility() {
        let mut chain = funded_chain(2);
        let to = addr_of(&key(1));
        let tx = sign_tx(transfer_req(&chain, 0, to, U256::ONE), &key(0)).unwrap();
        let hash = chain.submit(tx).unwrap();
        assert!(chain.is_pending(&hash));
        chain.mine_block(12);
        assert!(!chain.is_pending(&hash));
        assert!(chain.receipt(&hash).is_some());
    }

    #[test]
    fn value_conservation_across_many_txs() {
        let mut chain = funded_chain(4);
        let initial_supply = chain.state().total_supply();
        for round in 0..3u64 {
            for i in 0..4u64 {
                let to = addr_of(&key((i + 1) % 4));
                let req = TxRequest {
                    chain_id: chain.config().chain_id,
                    nonce: round,
                    max_priority_fee_per_gas: U256::from(1_000_000_000u64),
                    max_fee_per_gas: U256::from(40_000_000_000u64),
                    gas_limit: 21_000,
                    to: Some(to),
                    value: U256::from(1234u64),
                    data: Vec::new(),
                };
                chain.submit(sign_tx(req, &key(i)).unwrap()).unwrap();
            }
            chain.mine_block(12 * (round + 1));
        }
        // supply = remaining balances + burned
        let now = chain.state().total_supply().wrapping_add(&chain.burned());
        assert_eq!(now, initial_supply);
    }

    #[test]
    fn estimate_gas_matches_actual_for_transfer() {
        let chain = funded_chain(2);
        let from = addr_of(&key(0));
        let to = addr_of(&key(1));
        assert_eq!(chain.estimate_gas(&from, Some(&to), &[]), 21_000);
    }

    #[test]
    fn events_are_free_until_enabled() {
        let mut chain = funded_chain(2);
        let to = addr_of(&key(1));
        let tx = sign_tx(transfer_req(&chain, 0, to, U256::ONE), &key(0)).unwrap();
        chain.submit(tx).unwrap();
        chain.mine_block(12);
        assert!(!chain.events_enabled());
        assert!(chain.drain_events().is_empty());
    }

    #[test]
    fn enabled_chain_publishes_pending_head_and_log_events_in_order() {
        let mut chain = funded_chain(2);
        chain.enable_events();
        let to = addr_of(&key(1));
        let mut req = transfer_req(&chain, 0, to, U256::ONE);
        req.data = vec![0xaa, 0xbb, 0xcc, 0xdd, 0x01];
        req.gas_limit = 30_000;
        let tip = req.max_priority_fee_per_gas;
        let nonce = req.nonce;
        let tx = sign_tx(req, &key(0)).unwrap();
        let hash = chain.submit(tx).unwrap();

        let pending = chain.drain_events();
        assert_eq!(pending.len(), 1);
        let (seq0, ChainEvent::Pending(p)) = &pending[0] else {
            panic!("expected a pending event, got {pending:?}");
        };
        assert_eq!(*seq0, 0);
        assert_eq!(p.hash, hash);
        assert_eq!(p.sender, addr_of(&key(0)));
        assert_eq!(p.to, Some(to));
        assert_eq!(p.selector, Some([0xaa, 0xbb, 0xcc, 0xdd]));
        assert_eq!(p.tip, tip);
        assert_eq!(p.nonce, nonce);

        let block = chain.mine_block(12);
        let mined = chain.drain_events();
        // A plain transfer emits no logs: just the head, with the sequence
        // continuing past the drained pending event.
        assert_eq!(mined.len(), 1);
        let (seq1, ChainEvent::Head(head)) = &mined[0] else {
            panic!("expected a head event, got {mined:?}");
        };
        assert_eq!(*seq1, 1);
        assert_eq!(head.hash(), block.hash());
        // Drained means drained.
        assert!(chain.drain_events().is_empty());
    }

    #[test]
    fn log_events_follow_their_head_in_execution_order() {
        // A contract whose runtime emits LOG0 over memory[0..0]:
        // PUSH1 0 PUSH1 0 LOG0 STOP
        let runtime = vec![0x60, 0x00, 0x60, 0x00, 0xa0, 0x00];
        let init = crate::asm::deployment_code(&runtime);
        let mut chain = funded_chain(1);
        let deploy = TxRequest {
            chain_id: chain.config().chain_id,
            nonce: 0,
            max_priority_fee_per_gas: U256::from(1_500_000_000u64),
            max_fee_per_gas: U256::from(40_000_000_000u64),
            gas_limit: 200_000,
            to: None,
            value: U256::ZERO,
            data: init,
        };
        let dhash = chain.submit(sign_tx(deploy, &key(0)).unwrap()).unwrap();
        chain.mine_block(12);
        let contract = chain.receipt(&dhash).unwrap().contract_address.unwrap();

        chain.enable_events();
        let call = TxRequest {
            chain_id: chain.config().chain_id,
            nonce: 1,
            max_priority_fee_per_gas: U256::from(1_500_000_000u64),
            max_fee_per_gas: U256::from(40_000_000_000u64),
            gas_limit: 100_000,
            to: Some(contract),
            value: U256::ZERO,
            data: Vec::new(),
        };
        let chash = chain.submit(sign_tx(call, &key(0)).unwrap()).unwrap();
        chain.mine_block(24);
        let events = chain.drain_events();
        // Pending, then head, then the emitted log — seq strictly rising.
        assert_eq!(events.len(), 3);
        assert!(matches!(events[0].1, ChainEvent::Pending(_)));
        assert!(matches!(events[1].1, ChainEvent::Head(_)));
        let ChainEvent::Log(fl) = &events[2].1 else {
            panic!("expected a log event, got {:?}", events[2]);
        };
        assert_eq!(fl.tx_hash, chash);
        assert_eq!(fl.block_number, 2);
        assert_eq!(fl.log.address, contract);
        let seqs: Vec<u64> = events.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn reads_are_free() {
        let chain = funded_chain(1);
        let before = chain.balance(&addr_of(&key(0)));
        let _ = chain.call(
            &addr_of(&key(0)),
            &H160::from_slice(&[1; 20]),
            vec![1, 2, 3],
        );
        assert_eq!(chain.balance(&addr_of(&key(0))), before);
        assert_eq!(chain.height(), 0);
    }
}
