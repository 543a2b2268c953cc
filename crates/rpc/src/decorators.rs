//! The endpoint stack: latency pricing, deterministic fault injection, and
//! per-method metering around one node backend.
//!
//! The endpoint stack wraps any [`NodeProvider`] backend (the in-process
//! [`SimProvider`](crate::SimProvider) or a
//! [`SocketProvider`](crate::SocketProvider)) and sends every exchange
//! through one fixed pipeline. Each fault is off unless its profile is set
//! in [`EndpointFaults`]; pricing and metering are always on.
//!
//! ```text
//! execute / batch   1. refusal  rate limit (seeded 429 past the slot quota),
//!                               then flaky (seeded drop): a refused exchange
//!                               never reaches the backend
//!                   2. backend  the call, then stale lag on head/receipt reads
//!                   3. spike    seeded slot-long stall
//!                   4. latency  netsim price of the exchange
//!                   5. metering per-method calls, errors and costs
//!                   6. reorder  seeded shuffle of a batch reply array
//! add / cat / pin   backend, latency, metering (IPFS is never faulted)
//! on_slot           sub-lag clock, spike window, rate-limit window, backend
//! drain / unsubscribe  sub-lag hold queue over the backend's pushes
//! ```
//!
//! The stack never touches a clock: it *prices* requests into the response
//! envelope's `cost` field, and the caller decides which clock or timeline
//! pays. That is what lets the serial workflow charge its one global clock
//! while the discrete-event engine charges per-owner timelines, both
//! through the same stack.

use crate::backstage::{BackstageOp, BackstageReply};
use crate::envelope::{RpcError, RpcMethod, RpcRequest, RpcResponse, RpcResult};
use crate::eth::EthApi;
use crate::ipfs::IpfsApi;
use crate::provider::{EndpointFaults, NodeProvider};
use crate::sub::{Notification, SubscriptionKind};
use crate::Billed;
use ofl_eth::chain::Chain;
use ofl_ipfs::cid::Cid;
use ofl_ipfs::swarm::{AddResult, FetchStats, IpfsError, Swarm};
use ofl_netsim::clock::SimDuration;
use ofl_netsim::link::NetworkProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, VecDeque};

// ----------------------------------------------------------------------
// Fault profiles
// ----------------------------------------------------------------------

/// How an unreliable RPC endpoint misbehaves: each Ethereum request (or
/// whole batch) is dropped with a seeded, deterministic coin and costs the
/// client-side timeout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultProfile {
    /// Seed of the drop sequence — equal seeds reproduce the exact same
    /// faults, request for request.
    pub seed: u64,
    /// Probability that any one Ethereum request (or whole batch) is
    /// dropped.
    pub drop_rate: f64,
    /// Virtual time a dropped request wastes before the caller gives up on
    /// it (the client-side timeout).
    pub timeout: SimDuration,
}

impl FaultProfile {
    /// A profile with the default 3-second client timeout.
    pub fn new(seed: u64, drop_rate: f64) -> FaultProfile {
        FaultProfile {
            seed,
            drop_rate,
            timeout: SimDuration::from_secs(3),
        }
    }
}

/// How a quota-enforcing endpoint throttles its clients. Each slot grants a
/// seeded allowance (baseline plus deterministic jitter); the request over
/// budget is refused with [`RpcError::RateLimited`] at the cost of the
/// back-off, after which the window is considered elapsed and renews.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimitProfile {
    /// Seed of the per-slot allowance jitter — equal seeds reproduce the
    /// exact same 429 sequence, request for request.
    pub seed: u64,
    /// Baseline request budget per 12-second slot (single requests and
    /// whole batches each spend one unit, like one HTTP exchange).
    pub requests_per_slot: u64,
    /// Virtual time a throttled client backs off before retrying; the
    /// window is treated as elapsed once the back-off is paid.
    pub backoff: SimDuration,
}

impl RateLimitProfile {
    /// A profile with the default 1-second client back-off.
    pub fn new(seed: u64, requests_per_slot: u64) -> RateLimitProfile {
        RateLimitProfile {
            seed,
            requests_per_slot,
            backoff: SimDuration::from_secs(1),
        }
    }
}

/// How a congested endpoint's latency spikes come and go. At each idle slot
/// boundary a seeded coin decides whether a spike begins; while one is
/// live, every Ethereum request (or whole batch) pays the stall on top of
/// its normal price. Spikes are a property of virtual *slots*, not of
/// request count, so equal seeds stall the exact same windows however much
/// traffic flows through them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeProfile {
    /// Seed of the per-slot spike draws — equal seeds reproduce the exact
    /// same stall windows, slot for slot.
    pub seed: u64,
    /// Probability that a stall begins at any idle slot boundary.
    pub spike_rate: f64,
    /// How many 12-second slots one stall lasts once it begins.
    pub spike_slots: u64,
    /// Extra virtual time every Ethereum exchange pays while stalled.
    pub stall: SimDuration,
}

impl SpikeProfile {
    /// A profile with the default 2-slot, 2-second stalls.
    pub fn new(seed: u64, spike_rate: f64) -> SpikeProfile {
        SpikeProfile {
            seed,
            spike_rate,
            spike_slots: 2,
            stall: SimDuration::from_secs(2),
        }
    }
}

/// How a batch-reordering endpoint shuffles its answers. JSON-RPC promises
/// nothing about the order of a batch reply's array; every response keeps
/// its tag (and its priced cost) through the shuffle, so tag-matching
/// clients (see [`match_to_requests`](crate::envelope::match_to_requests))
/// reassemble request order exactly, while positional consumers would read
/// the wrong answers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReorderProfile {
    /// Seed of the per-batch permutation draws — equal seeds shuffle every
    /// batch identically, draw for draw.
    pub seed: u64,
}

impl ReorderProfile {
    /// A profile shuffling with the given seed.
    pub fn new(seed: u64) -> ReorderProfile {
        ReorderProfile { seed }
    }
}

/// How far a lagging replica trails the canonical head: each
/// `eth_blockNumber` answers up to N slots behind it, and each
/// `eth_getTransactionReceipt` hides receipts the lagged replica has not
/// indexed yet (they come back `None`, exactly like an unmined transaction
/// — the classic load-balanced-RPC inconsistency clients must re-poll
/// through).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaleProfile {
    /// Seed of the per-read lag draws — equal seeds reproduce the exact
    /// same staleness, read for read.
    pub seed: u64,
    /// Largest lag, in slots, a read may be served at (each read draws a
    /// lag in `0..=max_lag_slots`).
    pub max_lag_slots: u64,
}

impl StaleProfile {
    /// A profile lagging up to `max_lag_slots` behind the head.
    pub fn new(seed: u64, max_lag_slots: u64) -> StaleProfile {
        StaleProfile {
            seed,
            max_lag_slots,
        }
    }
}

/// How a lagging push path delays subscription deliveries. Each
/// subscription draws a fixed seeded lag in slots when its first
/// notification arrives; every notification for it is then held for that
/// many [`NodeProvider::on_slot`] boundaries before a drain releases it.
/// Consumers keyed on the notification's own `seq` are unaffected.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubLagProfile {
    /// Seed of the per-subscription delay draws — equal seeds lag every
    /// subscription identically, draw for draw.
    pub seed: u64,
    /// Largest delivery lag, in slots, a subscription may be assigned
    /// (each subscription draws a fixed lag in `0..=max_delay_slots` when
    /// its first notification arrives).
    pub max_delay_slots: u64,
}

impl SubLagProfile {
    /// A profile lagging each subscription by up to `max_delay_slots`.
    pub fn new(seed: u64, max_delay_slots: u64) -> SubLagProfile {
        SubLagProfile {
            seed,
            max_delay_slots,
        }
    }
}

// ----------------------------------------------------------------------
// Fault state
// ----------------------------------------------------------------------

/// Seeded request drops.
struct Flaky {
    profile: FaultProfile,
    rng: StdRng,
    /// Requests (or whole batches) dropped so far.
    dropped: u64,
}

impl Flaky {
    fn new(profile: FaultProfile) -> Flaky {
        Flaky {
            rng: StdRng::seed_from_u64(profile.seed),
            profile,
            dropped: 0,
        }
    }

    fn drops_now(&mut self) -> bool {
        let dropped = self.rng.gen_bool(self.profile.drop_rate);
        if dropped {
            self.dropped += 1;
            ofl_trace::trace_event!(
                ofl_trace::Category::Provider,
                "flaky.drop",
                "total" => self.dropped,
            );
        }
        dropped
    }
}

/// Seeded per-slot request quota.
struct RateLimit {
    profile: RateLimitProfile,
    rng: StdRng,
    allowance: u64,
    used: u64,
    /// Requests (or whole batches) refused so far.
    limited: u64,
}

impl RateLimit {
    fn new(profile: RateLimitProfile) -> RateLimit {
        let mut rng = StdRng::seed_from_u64(profile.seed);
        let allowance = draw_allowance(&mut rng, &profile);
        RateLimit {
            profile,
            rng,
            allowance,
            used: 0,
            limited: 0,
        }
    }

    /// Spends one unit of the window's budget; `true` means the request is
    /// refused (and the window renews behind the priced back-off).
    fn throttles_now(&mut self) -> bool {
        if self.used < self.allowance {
            self.used += 1;
            return false;
        }
        self.limited += 1;
        ofl_trace::trace_event!(
            ofl_trace::Category::Provider,
            "ratelimit.throttle",
            "total" => self.limited,
        );
        self.renew_window();
        true
    }

    fn renew_window(&mut self) {
        self.used = 0;
        self.allowance = draw_allowance(&mut self.rng, &self.profile);
    }
}

/// Baseline budget plus up to 25 % seeded jitter.
fn draw_allowance(rng: &mut StdRng, profile: &RateLimitProfile) -> u64 {
    let jitter_span = profile.requests_per_slot / 4 + 1;
    (profile.requests_per_slot + rng.gen_range(0..jitter_span)).max(1)
}

/// Seeded slot-long latency stalls.
struct Spike {
    profile: SpikeProfile,
    rng: StdRng,
    /// Slots left before the current spike clears (0 = healthy).
    remaining_slots: u64,
    /// Requests (or whole batches) served mid-spike.
    stalled: u64,
}

impl Spike {
    /// The first slot draws its coin immediately, so a spike can be live
    /// from the very first request.
    fn new(profile: SpikeProfile) -> Spike {
        let mut rng = StdRng::seed_from_u64(profile.seed);
        let remaining_slots = if rng.gen_bool(profile.spike_rate) {
            profile.spike_slots
        } else {
            0
        };
        Spike {
            profile,
            rng,
            remaining_slots,
            stalled: 0,
        }
    }

    /// One slot elapses: a live spike runs down; an idle boundary draws the
    /// seeded coin for the next one. The coin is only drawn while healthy,
    /// so the draw stream — and with it every later window — depends on
    /// nothing but the seed and the slot count.
    fn advance_slot(&mut self) {
        if self.remaining_slots > 0 {
            self.remaining_slots -= 1;
            return;
        }
        if self.rng.gen_bool(self.profile.spike_rate) {
            self.remaining_slots = self.profile.spike_slots;
        }
    }

    /// Adds the stall to one exchange's cost when a spike is live.
    fn stall(&mut self, cost: SimDuration) -> SimDuration {
        if self.remaining_slots == 0 {
            return cost;
        }
        self.stalled += 1;
        ofl_trace::trace_event!(
            ofl_trace::Category::Provider,
            "spike.stall",
            "total" => self.stalled,
            "stall_us" => self.profile.stall.as_micros(),
        );
        cost.saturating_add(self.profile.stall)
    }
}

/// Seeded batch reply permutation.
struct Reorder {
    rng: StdRng,
    /// Batches that came back in a non-identity order.
    reordered: u64,
}

impl Reorder {
    fn shuffle(&mut self, responses: &mut [RpcResponse]) {
        if shuffle(&mut self.rng, responses) {
            self.reordered += 1;
            ofl_trace::trace_event!(
                ofl_trace::Category::Provider,
                "reorder.shuffle",
                "total" => self.reordered,
                "batch" => responses.len(),
            );
        }
    }
}

/// Fisher–Yates with a seeded stream: `len - 1` draws per slice whatever
/// the transport, so equal seeds permute identically. `true` when the
/// order changed.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) -> bool {
    let mut moved = false;
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        if j != i {
            moved = true;
            items.swap(i, j);
        }
    }
    moved
}

/// Seeded lagging-replica head and receipt reads.
struct Stale {
    profile: StaleProfile,
    rng: StdRng,
    /// Reads actually degraded (lagged head or hidden receipt).
    served_stale: u64,
}

impl Stale {
    /// Applies a seeded lag to one answered read. Its canonical-head query
    /// goes straight to the backend: it is neither faulted nor metered.
    fn lag(
        &mut self,
        backend: &mut dyn NodeProvider,
        request: &RpcRequest,
        response: &mut RpcResponse,
    ) {
        let lagged_reads = matches!(
            request.method,
            RpcMethod::BlockNumber | RpcMethod::GetTransactionReceipt { .. }
        );
        if !lagged_reads || response.result.is_err() {
            return;
        }
        let lag = self.rng.gen_range(0..=self.profile.max_lag_slots);
        match &mut response.result {
            Ok(RpcResult::BlockNumber(n)) => {
                if lag > 0 && *n > 0 {
                    self.served_stale += 1;
                    ofl_trace::trace_event!(
                        ofl_trace::Category::Provider,
                        "stale.serve",
                        "total" => self.served_stale,
                        "lag" => lag,
                    );
                }
                *n = n.saturating_sub(lag);
            }
            Ok(RpcResult::Receipt(Some(receipt))) => {
                let head = match backend
                    .execute(&RpcRequest::new(0, RpcMethod::BlockNumber))
                    .result
                {
                    Ok(RpcResult::BlockNumber(n)) => Some(n),
                    _ => None,
                };
                // The replica's view ends `lag` slots before the head; a
                // receipt past that view does not exist yet.
                if head.is_some_and(|head| receipt.block_number.saturating_add(lag) > head) {
                    self.served_stale += 1;
                    ofl_trace::trace_event!(
                        ofl_trace::Category::Provider,
                        "stale.hide_receipt",
                        "total" => self.served_stale,
                        "lag" => lag,
                    );
                    response.result = Ok(RpcResult::Receipt(None));
                }
            }
            _ => {}
        }
    }
}

/// Seeded per-subscription push-delivery lag.
struct SubLag {
    profile: SubLagProfile,
    rng: StdRng,
    /// Slots elapsed since construction (the release clock).
    slot: u64,
    /// Fixed per-subscription lag, drawn on first sight.
    lags: BTreeMap<u64, u64>,
    /// Held notifications with their release slot, in arrival order.
    held: VecDeque<(u64, Notification)>,
    /// Notifications delivered at least one slot late.
    delayed: u64,
}

impl SubLag {
    /// Queues fresh publications behind their subscription's lag and
    /// releases everything whose slot has come, in arrival order.
    fn release(&mut self, fresh: Vec<Notification>) -> Vec<Notification> {
        for note in fresh {
            let lag = *self.lags.entry(note.sub_id).or_insert_with(|| {
                if self.profile.max_delay_slots == 0 {
                    0
                } else {
                    self.rng.gen_range(0..=self.profile.max_delay_slots)
                }
            });
            if lag > 0 {
                self.delayed += 1;
            }
            self.held.push_back((self.slot + lag, note));
        }
        let mut released = Vec::new();
        let mut still = VecDeque::with_capacity(self.held.len());
        for (release_slot, note) in self.held.drain(..) {
            if release_slot <= self.slot {
                released.push(note);
            } else {
                still.push_back((release_slot, note));
            }
        }
        self.held = still;
        released
    }
}

// ----------------------------------------------------------------------
// Metering
// ----------------------------------------------------------------------

/// Counters for one method.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MethodStats {
    /// Requests issued.
    pub calls: u64,
    /// Requests that came back as transport/node errors.
    pub errors: u64,
    /// Total virtual time priced onto this method's requests.
    pub cost: SimDuration,
}

/// A snapshot of everything an endpoint stack metered — what
/// `SessionReport` surfaces so a session can say "this run made 41
/// provider round trips costing 4.2 virtual seconds".
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProviderMetrics {
    methods: BTreeMap<&'static str, MethodStats>,
    /// Wire round trips: one per single request, one per whole batch, one
    /// per IPFS exchange.
    pub round_trips: u64,
    /// Requests that travelled inside a batch.
    pub batched_requests: u64,
}

impl ProviderMetrics {
    /// Stats for one method (zeroed when the method was never called).
    pub fn method(&self, name: &str) -> MethodStats {
        self.methods.get(name).copied().unwrap_or_default()
    }

    /// `(method, stats)` rows in deterministic (sorted) order.
    pub fn methods(&self) -> impl Iterator<Item = (&'static str, MethodStats)> + '_ {
        self.methods.iter().map(|(n, s)| (*n, *s))
    }

    /// Total requests across all methods.
    pub fn total_calls(&self) -> u64 {
        self.methods.values().map(|s| s.calls).sum()
    }

    /// Total transport/node errors across all methods.
    pub fn total_errors(&self) -> u64 {
        self.methods.values().map(|s| s.errors).sum()
    }

    /// Total virtual time priced across all methods.
    pub fn total_cost(&self) -> SimDuration {
        self.methods
            .values()
            .fold(SimDuration::ZERO, |acc, s| acc.saturating_add(s.cost))
    }

    fn record(&mut self, method: &'static str, cost: SimDuration, is_error: bool) {
        let stats = self.methods.entry(method).or_default();
        stats.calls += 1;
        stats.errors += is_error as u64;
        stats.cost = stats.cost.saturating_add(cost);
    }

    /// Adds another snapshot's counters into this one — how a
    /// [`ProviderPool`](crate::pool::ProviderPool) rolls per-endpoint
    /// metering up into run-level totals.
    pub fn absorb(&mut self, other: &ProviderMetrics) {
        for (name, stats) in other.methods.iter() {
            let mine = self.methods.entry(name).or_default();
            mine.calls += stats.calls;
            mine.errors += stats.errors;
            mine.cost = mine.cost.saturating_add(stats.cost);
        }
        self.round_trips += other.round_trips;
        self.batched_requests += other.batched_requests;
    }
}

// ----------------------------------------------------------------------
// EndpointStack
// ----------------------------------------------------------------------

/// One endpoint's client-side stack: the backend plus every seeded fault
/// the endpoint's [`EndpointFaults`] switch on, run in the fixed order the
/// [module docs](self) list. Built by [`decorate`](crate::decorate) and
/// [`build_provider`](crate::build_provider).
pub(crate) struct EndpointStack {
    backend: Box<dyn NodeProvider>,
    net: NetworkProfile,
    /// Fixed wire overhead per request (HTTP/JSON framing).
    envelope_bytes: u64,
    metrics: ProviderMetrics,
    rate_limit: Option<RateLimit>,
    flaky: Option<Flaky>,
    stale: Option<Stale>,
    spike: Option<Spike>,
    reorder: Option<Reorder>,
    sub_lag: Option<SubLag>,
}

impl EndpointStack {
    /// Wraps `backend`, pricing against `net` with `envelope_bytes` of
    /// framing per request, and arming the faults `knobs` configures.
    pub(crate) fn new(
        backend: Box<dyn NodeProvider>,
        net: NetworkProfile,
        envelope_bytes: u64,
        knobs: EndpointFaults,
    ) -> EndpointStack {
        EndpointStack {
            backend,
            net,
            envelope_bytes,
            metrics: ProviderMetrics::default(),
            rate_limit: knobs.rate_limit.map(RateLimit::new),
            flaky: knobs.faults.map(Flaky::new),
            stale: knobs.stale.map(|profile| Stale {
                rng: StdRng::seed_from_u64(profile.seed),
                profile,
                served_stale: 0,
            }),
            spike: knobs.spike.map(Spike::new),
            reorder: knobs.reorder.map(|profile| Reorder {
                rng: StdRng::seed_from_u64(profile.seed),
                reordered: 0,
            }),
            sub_lag: knobs.sub_lag.map(|profile| SubLag {
                rng: StdRng::seed_from_u64(profile.seed),
                profile,
                slot: 0,
                lags: BTreeMap::new(),
                held: VecDeque::new(),
                delayed: 0,
            }),
        }
    }

    /// A rate-limit refusal, then a flaky one: the error and priced cost of
    /// an exchange refused before it reaches the backend.
    fn refusal(&mut self) -> Option<(RpcError, SimDuration)> {
        if let Some(limit) = &mut self.rate_limit {
            if limit.throttles_now() {
                return Some((RpcError::RateLimited, limit.profile.backoff));
            }
        }
        if let Some(flaky) = &mut self.flaky {
            if flaky.drops_now() {
                return Some((RpcError::Timeout, flaky.profile.timeout));
            }
        }
        None
    }

    /// One Ethereum wire exchange — a single request, or a whole batch —
    /// through the pipeline. A batch is one HTTP exchange: it is refused,
    /// stalled and priced as a unit, with the cost riding its first
    /// response.
    fn exchange(&mut self, requests: &[RpcRequest], batched: bool) -> Vec<RpcResponse> {
        let mut responses = match self.refusal() {
            Some((error, cost)) => requests
                .iter()
                .enumerate()
                .map(|(i, r)| RpcResponse {
                    id: r.id,
                    result: Err(error.clone()),
                    cost: if i == 0 { cost } else { SimDuration::ZERO },
                })
                .collect(),
            None => {
                let mut responses = if batched {
                    self.backend.batch(requests)
                } else {
                    vec![self.backend.execute(&requests[0])]
                };
                if let Some(stale) = &mut self.stale {
                    // Lag draws happen in request order, so a batch of N
                    // receipt polls consumes N draws whatever the transport.
                    for (request, response) in requests.iter().zip(&mut responses) {
                        stale.lag(self.backend.as_mut(), request, response);
                    }
                }
                responses
            }
        };
        let out: u64 = requests.iter().map(|r| r.method.payload_bytes()).sum();
        let back: u64 = responses.iter().map(response_payload).sum();
        let price = self.price(out, back);
        if let Some(first) = responses.first_mut() {
            if let Some(spike) = &mut self.spike {
                first.cost = spike.stall(first.cost);
            }
            first.cost = first.cost.saturating_add(price);
        }
        self.metrics.round_trips += 1;
        if batched {
            self.metrics.batched_requests += requests.len() as u64;
        }
        for (request, response) in requests.iter().zip(&responses) {
            self.metrics.record(
                request.method.name(),
                response.cost,
                response.result.is_err(),
            );
        }
        // The wire delivers the reply array out of order only after pricing
        // and metering saw it in request order.
        if let Some(reorder) = &mut self.reorder {
            reorder.shuffle(&mut responses);
        }
        responses
    }

    /// One RPC round trip: framing is paid once, payloads sum.
    fn price(&self, request_payload: u64, response_payload: u64) -> SimDuration {
        self.net.rpc.rpc_round_trip(
            self.envelope_bytes + request_payload,
            self.envelope_bytes + response_payload,
        )
    }

    /// Prices one IPFS exchange on the LAN link onto `cost` and meters it.
    fn lan_exchange(
        &mut self,
        method: &'static str,
        cost: SimDuration,
        bytes: u64,
        rounds: usize,
        is_error: bool,
    ) -> SimDuration {
        let cost = cost.saturating_add(self.net.lan.exchange_time(bytes, rounds));
        self.metrics.round_trips += 1;
        self.metrics.record(method, cost, is_error);
        cost
    }
}

fn response_payload(response: &RpcResponse) -> u64 {
    response
        .result
        .as_ref()
        .map(|r| r.payload_bytes())
        .unwrap_or(0)
}

impl EthApi for EndpointStack {
    fn execute(&mut self, request: &RpcRequest) -> RpcResponse {
        self.exchange(std::slice::from_ref(request), false)
            .swap_remove(0)
    }

    fn batch(&mut self, requests: &[RpcRequest]) -> Vec<RpcResponse> {
        self.exchange(requests, true)
    }
}

impl IpfsApi for EndpointStack {
    fn add(&mut self, node: usize, data: &[u8]) -> Billed<AddResult> {
        let mut billed = self.backend.add(node, data);
        let bytes = billed.value.bytes_stored;
        billed.cost = self.lan_exchange("ipfs_add", billed.cost, bytes, 1, false);
        billed
    }

    fn cat(&mut self, node: usize, cid: &Cid) -> Billed<Result<(Vec<u8>, FetchStats), IpfsError>> {
        let mut billed = self.backend.cat(node, cid);
        // A failed fetch still walked the want-list once.
        let (bytes, rounds) = match &billed.value {
            Ok((_, stats)) => (stats.bytes_fetched, stats.rounds.max(1)),
            Err(_) => (0, 1),
        };
        let is_error = billed.value.is_err();
        billed.cost = self.lan_exchange("ipfs_cat", billed.cost, bytes, rounds, is_error);
        billed
    }

    fn pin(&mut self, node: usize, cid: &Cid) -> Billed<Result<(), IpfsError>> {
        let mut billed = self.backend.pin(node, cid);
        let is_error = billed.value.is_err();
        billed.cost = self.lan_exchange("ipfs_pin", billed.cost, 0, 1, is_error);
        billed
    }
}

impl NodeProvider for EndpointStack {
    fn chain(&self) -> &Chain {
        self.backend.chain()
    }
    fn chain_mut(&mut self) -> &mut Chain {
        self.backend.chain_mut()
    }
    fn swarm(&self) -> &Swarm {
        self.backend.swarm()
    }
    fn swarm_mut(&mut self) -> &mut Swarm {
        self.backend.swarm_mut()
    }
    fn metrics(&self) -> Option<ProviderMetrics> {
        Some(self.metrics.clone())
    }
    fn on_slot(&mut self) {
        if let Some(sub_lag) = &mut self.sub_lag {
            sub_lag.slot += 1;
        }
        if let Some(spike) = &mut self.spike {
            spike.advance_slot();
        }
        if let Some(limit) = &mut self.rate_limit {
            limit.renew_window();
        }
        self.backend.on_slot()
    }
    /// Always shipped to the backend — a socket backend answers backstage
    /// ops on the daemon, never from a local chain.
    fn backstage(&mut self, op: &BackstageOp) -> BackstageReply {
        self.backend.backstage(op)
    }
    fn subscribe(&mut self, kind: SubscriptionKind) -> u64 {
        self.backend.subscribe(kind)
    }
    fn unsubscribe(&mut self, sub_id: u64) -> bool {
        // Anything still held for a cancelled subscription is never
        // delivered — the lagging wire dropped it past the cancel.
        if let Some(sub_lag) = &mut self.sub_lag {
            sub_lag.held.retain(|(_, n)| n.sub_id != sub_id);
        }
        self.backend.unsubscribe(sub_id)
    }
    fn drain_notifications(&mut self) -> Vec<Notification> {
        let fresh = self.backend.drain_notifications();
        match &mut self.sub_lag {
            Some(sub_lag) => sub_lag.release(fresh),
            None => fresh,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::SimProvider;
    use ofl_eth::chain::{Chain, ChainConfig};
    use ofl_netsim::link::Link;
    use ofl_primitives::H160;

    /// A backend with one funded account.
    fn sim(swarm: Swarm) -> SimProvider {
        let addr = H160::from_slice(&[1; 20]);
        let chain = Chain::new(
            ChainConfig::default(),
            &[(addr, ofl_primitives::wei_per_eth())],
        );
        SimProvider::new(chain, swarm)
    }

    /// A stack over `backend` on a zero-latency network, so each fault's
    /// own costs show exactly, with nothing priced on top.
    fn over(backend: SimProvider, knobs: EndpointFaults) -> EndpointStack {
        let instant = Link::new(SimDuration::ZERO, f64::INFINITY);
        let net = NetworkProfile {
            lan: instant,
            rpc: instant,
        };
        EndpointStack::new(Box::new(backend), net, 0, knobs)
    }

    fn stack(faults: Option<FaultProfile>) -> EndpointStack {
        let knobs = EndpointFaults {
            faults,
            ..EndpointFaults::default()
        };
        let backend = Box::new(sim(Swarm::spawn("d", 2)));
        EndpointStack::new(backend, NetworkProfile::campus(), 250, knobs)
    }

    fn snapshot(provider: &EndpointStack) -> ProviderMetrics {
        provider.metrics().unwrap()
    }

    fn receipt_poll_batch(n: u64) -> Vec<RpcRequest> {
        (0..n)
            .map(|i| {
                RpcRequest::new(
                    i,
                    RpcMethod::GetTransactionReceipt {
                        hash: ofl_primitives::H256::from_bytes([i as u8; 32]),
                    },
                )
            })
            .collect()
    }

    #[test]
    fn latency_prices_requests_and_caller_keeps_the_bill() {
        let mut provider = stack(None);
        let billed = provider.block_number();
        assert_eq!(billed.value.unwrap(), 0);
        // Campus RPC: two 50 ms legs plus serialization.
        assert!(billed.cost >= SimDuration::from_millis(100));
        assert!(billed.cost < SimDuration::from_millis(200));
    }

    #[test]
    fn batched_polls_cost_one_round_trip() {
        let mut per_call = stack(None);
        let mut batched = stack(None);
        let requests = receipt_poll_batch(16);

        let per_call_cost: SimDuration = requests
            .iter()
            .map(|r| per_call.execute(r).cost)
            .fold(SimDuration::ZERO, SimDuration::saturating_add);
        let batch_cost: SimDuration = batched
            .batch(&requests)
            .iter()
            .map(|r| r.cost)
            .fold(SimDuration::ZERO, SimDuration::saturating_add);

        // 16 polls: ~16 round trips of latency vs 1.
        assert!(batch_cost.as_secs_f64() * 8.0 < per_call_cost.as_secs_f64());
        let per_metrics = snapshot(&per_call);
        let batch_metrics = snapshot(&batched);
        assert_eq!(per_metrics.round_trips, 16);
        assert_eq!(batch_metrics.round_trips, 1);
        assert_eq!(batch_metrics.batched_requests, 16);
        assert_eq!(batch_metrics.method("eth_getTransactionReceipt").calls, 16);
    }

    #[test]
    fn flaky_drops_are_deterministic_by_seed() {
        let outcomes = |seed: u64| -> Vec<bool> {
            let mut provider = stack(Some(FaultProfile::new(seed, 0.4)));
            (0..50)
                .map(|_| provider.block_number().value.is_err())
                .collect()
        };
        let a = outcomes(7);
        assert_eq!(a, outcomes(7), "equal seeds must fault identically");
        assert_ne!(a, outcomes(8), "different seeds should differ");
        assert!(a.iter().any(|e| *e), "40% drop rate must drop something");
        assert!(!a.iter().all(|e| *e), "and must not drop everything");
    }

    #[test]
    fn dropped_requests_cost_the_timeout_and_are_metered_as_errors() {
        // drop_rate 1.0: everything times out.
        let profile = FaultProfile {
            timeout: SimDuration::from_secs(3),
            ..FaultProfile::new(1, 1.0)
        };
        let mut provider = stack(Some(profile));
        let billed = provider.block_number();
        assert_eq!(billed.value, Err(RpcError::Timeout));
        // Timeout plus the latency pricing of the attempt.
        assert!(billed.cost >= SimDuration::from_secs(3));
        // A dropped batch times out as a unit.
        let responses = provider.batch(&receipt_poll_batch(4));
        assert!(responses.iter().all(|r| r.result.is_err()));
        let metrics = snapshot(&provider);
        assert_eq!(metrics.total_errors(), 5);
        assert_eq!(metrics.method("eth_blockNumber").errors, 1);
    }

    #[test]
    fn ipfs_traffic_is_priced_but_never_dropped() {
        let mut provider = stack(Some(FaultProfile::new(3, 1.0)));
        let added = provider.add(0, &vec![7u8; 100_000]);
        assert!(added.cost > SimDuration::ZERO);
        let fetched = provider.cat(1, &added.value.root);
        assert!(fetched.value.is_ok(), "flakiness must not affect the LAN");
        let metrics = snapshot(&provider);
        assert_eq!(metrics.method("ipfs_add").calls, 1);
        assert_eq!(metrics.method("ipfs_cat").calls, 1);
        assert!(metrics.total_cost() > SimDuration::ZERO);
    }

    fn rate_limited(profile: RateLimitProfile) -> EndpointStack {
        let knobs = EndpointFaults {
            rate_limit: Some(profile),
            ..EndpointFaults::default()
        };
        over(sim(Swarm::new()), knobs)
    }

    #[test]
    fn rate_limit_throttles_over_budget_then_renews_behind_backoff() {
        let profile = RateLimitProfile {
            seed: 5,
            requests_per_slot: 3,
            backoff: SimDuration::from_secs(1),
        };
        // No jitter span randomness matters here: allowance ∈ [3, 4).
        let mut provider = rate_limited(profile);
        let mut outcomes = Vec::new();
        for _ in 0..10 {
            outcomes.push(provider.block_number().value.is_err());
        }
        assert!(outcomes.iter().any(|e| *e), "budget of 3 must throttle");
        assert!(!outcomes.iter().all(|e| *e), "renewed windows must pass");
        assert!(provider.rate_limit.as_ref().unwrap().limited > 0);
        // The refusal itself carries the back-off as its priced cost.
        let mut fresh = rate_limited(profile);
        let refused = loop {
            let billed = fresh.block_number();
            if billed.value.is_err() {
                break billed;
            }
        };
        assert_eq!(refused.value, Err(RpcError::RateLimited));
        assert_eq!(refused.cost, SimDuration::from_secs(1));
        // After the refusal the window renewed: the retry goes through.
        assert!(fresh.block_number().value.is_ok());
    }

    #[test]
    fn rate_limit_is_deterministic_by_seed_and_resets_per_slot() {
        let run = |seed: u64, slot_every: usize| -> Vec<bool> {
            let mut provider = rate_limited(RateLimitProfile::new(seed, 4));
            (0..40)
                .map(|i| {
                    if slot_every > 0 && i % slot_every == 0 {
                        provider.on_slot();
                    }
                    provider.block_number().value.is_err()
                })
                .collect()
        };
        let a = run(9, 0);
        assert_eq!(a, run(9, 0), "equal seeds must throttle identically");
        assert_ne!(a, run(10, 0), "different seeds should differ");
        // Frequent slot boundaries renew the budget before it runs out.
        assert!(run(9, 3).iter().all(|e| !e), "renewed windows never 429");
    }

    #[test]
    fn batch_preserves_result_shapes() {
        let mut provider = stack(None);
        let requests = vec![
            RpcRequest::new(0, RpcMethod::BlockNumber),
            RpcRequest::new(
                1,
                RpcMethod::GetBalance {
                    address: H160::from_slice(&[1; 20]),
                },
            ),
        ];
        let responses = provider.batch(&requests);
        assert!(matches!(responses[0].result, Ok(RpcResult::BlockNumber(_))));
        assert!(matches!(responses[1].result, Ok(RpcResult::Balance(_))));
    }

    fn funded_sim() -> (SimProvider, ofl_eth::wallet::Wallet) {
        let wallet = ofl_eth::wallet::Wallet::from_seed("stale", 2);
        let genesis: Vec<_> = wallet
            .addresses()
            .iter()
            .map(|a| (*a, ofl_primitives::wei_per_eth()))
            .collect();
        let chain = Chain::new(ChainConfig::default(), &genesis);
        (SimProvider::new(chain, Swarm::new()), wallet)
    }

    fn stale(sim: SimProvider, profile: StaleProfile) -> EndpointStack {
        let knobs = EndpointFaults {
            stale: Some(profile),
            ..EndpointFaults::default()
        };
        over(sim, knobs)
    }

    #[test]
    fn stale_reads_lag_head_and_hide_fresh_receipts_deterministically() {
        let run = |seed: u64| {
            let (sim, wallet) = funded_sim();
            let [a, b]: [H160; 2] = wallet.addresses().try_into().unwrap();
            let mut provider = stale(sim, StaleProfile::new(seed, 3));
            let raw = wallet
                .sign_raw(
                    provider.chain(),
                    &a,
                    Some(b),
                    ofl_primitives::u256::U256::ONE,
                    vec![],
                )
                .unwrap();
            let hash = provider.send_raw_transaction(&raw).value.unwrap();
            provider.chain_mut().mine_block(12);
            // The canonical head is 1, but the replica may be behind: some
            // of the next reads are lagged / hidden, none ever run ahead.
            let mut outcomes = Vec::new();
            for _ in 0..24 {
                let head = provider.block_number().value.unwrap();
                assert!(head <= 1);
                let receipt = provider.get_transaction_receipt(hash).value.unwrap();
                if let Some(r) = &receipt {
                    assert_eq!(r.block_number, 1);
                }
                outcomes.push((head, receipt.is_some()));
            }
            (outcomes, provider.stale.as_ref().unwrap().served_stale)
        };
        let (a, stale_a) = run(5);
        assert!(stale_a > 0, "a 3-slot lag must degrade something");
        assert!(
            a.iter().any(|(head, seen)| *head == 1 && *seen),
            "fresh reads must also occur"
        );
        // Deterministic by seed; different seeds draw different lags.
        assert_eq!(a, run(5).0);
        assert_ne!(a, run(6).0);
    }

    #[test]
    fn stale_receipts_become_visible_once_the_head_outruns_the_lag() {
        let (sim, wallet) = funded_sim();
        let [a, b]: [H160; 2] = wallet.addresses().try_into().unwrap();
        let mut provider = stale(sim, StaleProfile::new(7, 2));
        let raw = wallet
            .sign_raw(
                provider.chain(),
                &a,
                Some(b),
                ofl_primitives::u256::U256::ONE,
                vec![],
            )
            .unwrap();
        let hash = provider.send_raw_transaction(&raw).value.unwrap();
        provider.chain_mut().mine_block(12);
        // Mine past the maximum lag: even the most stale replica view now
        // includes block 1, so the receipt can never be hidden again.
        for slot in 2..=4 {
            provider.chain_mut().mine_block(12 * slot);
        }
        for _ in 0..8 {
            assert!(provider
                .get_transaction_receipt(hash)
                .value
                .unwrap()
                .is_some());
        }
    }

    fn spiking(profile: SpikeProfile) -> EndpointStack {
        let knobs = EndpointFaults {
            spike: Some(profile),
            ..EndpointFaults::default()
        };
        over(sim(Swarm::new()), knobs)
    }

    fn spike_of(provider: &EndpointStack) -> &Spike {
        provider.spike.as_ref().unwrap()
    }

    #[test]
    fn latency_spikes_stall_whole_slots_deterministically() {
        let run = |seed: u64| -> Vec<SimDuration> {
            let mut provider = spiking(SpikeProfile::new(seed, 0.4));
            // Two requests per slot across 20 slots: both see the same
            // window, because spikes are per-slot, not per-request.
            let mut costs = Vec::new();
            for _ in 0..20 {
                let first = provider.block_number().cost;
                assert_eq!(first, provider.block_number().cost);
                costs.push(first);
                provider.on_slot();
            }
            costs
        };
        let a = run(11);
        assert_eq!(a, run(11), "equal seeds must stall identically");
        assert_ne!(a, run(12), "different seeds should differ");
        let stall = SpikeProfile::new(0, 0.0).stall;
        assert!(
            a.iter().any(|c| *c >= stall),
            "a 40% spike rate must stall something"
        );
        assert!(
            a.iter().any(|c| *c < stall),
            "and must leave healthy slots between spikes"
        );
    }

    #[test]
    fn spiked_batches_pay_the_stall_once() {
        // spike_rate 1.0: every slot stalls, including the first.
        let mut provider = spiking(SpikeProfile::new(3, 1.0));
        assert!(spike_of(&provider).remaining_slots > 0);
        let responses = provider.batch(&receipt_poll_batch(4));
        assert!(responses[0].cost >= spike_of(&provider).profile.stall);
        assert!(responses[1..].iter().all(|r| r.cost == SimDuration::ZERO));
        assert_eq!(
            spike_of(&provider).stalled,
            1,
            "one batch = one stalled exchange"
        );
    }

    fn reordering(seed: u64) -> EndpointStack {
        let knobs = EndpointFaults {
            reorder: Some(ReorderProfile::new(seed)),
            ..EndpointFaults::default()
        };
        over(sim(Swarm::new()), knobs)
    }

    #[test]
    fn reordered_batches_keep_tags_and_shuffle_deterministically() {
        let run = |seed: u64| -> Vec<Vec<u64>> {
            let mut provider = reordering(seed);
            (0..6)
                .map(|_| {
                    provider
                        .batch(&receipt_poll_batch(8))
                        .iter()
                        .map(|r| r.id)
                        .collect()
                })
                .collect()
        };
        let a = run(21);
        assert_eq!(a, run(21), "equal seeds must shuffle identically");
        assert_ne!(a, run(22), "different seeds should differ");
        // Every batch still answers every tag exactly once.
        for ids in &a {
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..8).collect::<Vec<u64>>());
        }
        // And at least one of the six 8-element batches left identity
        // order behind (the odds of six identity draws are ~1 in 10^27).
        assert!(a.iter().any(|ids| *ids != (0..8).collect::<Vec<u64>>()));
    }

    fn sub_lagged(sim: SimProvider, profile: SubLagProfile) -> EndpointStack {
        let knobs = EndpointFaults {
            sub_lag: Some(profile),
            ..EndpointFaults::default()
        };
        over(sim, knobs)
    }

    #[test]
    fn sub_lag_delays_deliveries_deterministically_and_releases_in_order() {
        use crate::sub::{SubEvent, SubscriptionKind};
        let run = |seed: u64| -> Vec<Vec<(u64, u64)>> {
            let (sim, wallet) = funded_sim();
            let [a, b]: [H160; 2] = wallet.addresses().try_into().unwrap();
            let mut provider = sub_lagged(sim, SubLagProfile::new(seed, 3));
            let heads = provider.subscribe(SubscriptionKind::NewHeads);
            let pending = provider.subscribe(SubscriptionKind::PendingTxs);
            assert_eq!((heads, pending), (1, 2));
            // Two slots of traffic (tx + block each), then idle slots so
            // every lagged delivery has time to release; drain each slot.
            let mut per_slot = Vec::new();
            for slot in 0..8u64 {
                if slot < 2 {
                    let raw = wallet
                        .sign_raw(
                            provider.chain(),
                            &a,
                            Some(b),
                            ofl_primitives::u256::U256::from(1u64),
                            vec![],
                        )
                        .unwrap();
                    provider.send_raw_transaction(&raw).value.unwrap();
                    provider.chain_mut().mine_block(12 * (slot + 1));
                }
                provider.on_slot();
                per_slot.push(
                    provider
                        .drain_notifications()
                        .iter()
                        .map(|n| (n.sub_id, n.seq))
                        .collect(),
                );
            }
            per_slot
        };
        let a = run(31);
        assert_eq!(a, run(31), "equal seeds must lag identically");
        // Everything eventually arrives exactly once, and per subscription
        // the seq order is preserved (a fixed per-sub lag cannot reorder
        // within one subscription).
        let all: Vec<(u64, u64)> = a.iter().flatten().copied().collect();
        assert_eq!(all.len(), 4, "2 pending + 2 heads must all arrive");
        for sub in [1u64, 2] {
            let seqs: Vec<u64> = all
                .iter()
                .filter(|(s, _)| *s == sub)
                .map(|(_, q)| *q)
                .collect();
            let mut sorted = seqs.clone();
            sorted.sort_unstable();
            assert_eq!(seqs, sorted);
        }
        // With max lag 0 the sub-lag stage is a transparent pass-through.
        let (sim, wallet) = funded_sim();
        let [a_addr, b_addr]: [H160; 2] = wallet.addresses().try_into().unwrap();
        let mut clear = sub_lagged(sim, SubLagProfile::new(9, 0));
        clear.subscribe(SubscriptionKind::PendingTxs);
        let raw = wallet
            .sign_raw(
                clear.chain(),
                &a_addr,
                Some(b_addr),
                ofl_primitives::u256::U256::ONE,
                vec![],
            )
            .unwrap();
        clear.send_raw_transaction(&raw).value.unwrap();
        let notes = clear.drain_notifications();
        assert_eq!(notes.len(), 1);
        assert!(matches!(notes[0].event, SubEvent::PendingTx(_)));
        let lag = clear.sub_lag.as_ref().unwrap();
        assert_eq!(lag.delayed, 0);
        assert_eq!(lag.held.len(), 0);
    }

    #[test]
    fn tag_matching_undoes_a_reordering_endpoint() {
        let addr = H160::from_slice(&[1; 20]);
        let mut provider = reordering(7);
        let requests = vec![
            RpcRequest::new(0, RpcMethod::BlockNumber),
            RpcRequest::new(1, RpcMethod::GetBalance { address: addr }),
            RpcRequest::new(2, RpcMethod::ChainId),
        ];
        for _ in 0..8 {
            let matched = crate::envelope::match_to_requests(&requests, provider.batch(&requests));
            // Whatever order the wire delivered, tags restore request
            // order and each slot holds its own method's result shape.
            assert!(matches!(matched[0].result, Ok(RpcResult::BlockNumber(_))));
            assert!(matches!(matched[1].result, Ok(RpcResult::Balance(_))));
            assert!(matches!(matched[2].result, Ok(RpcResult::ChainId(_))));
        }
    }
}
