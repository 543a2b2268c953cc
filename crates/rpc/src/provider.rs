//! [`NodeProvider`]: the full node boundary behind one [`EndpointId`] of a
//! [`ProviderPool`] — both API traits plus backend access for the
//! simulation driver itself.
//!
//! The API traits model what a *client* can do over the wire. The
//! simulation additionally owns the infrastructure: it mines slots, checks
//! conservation invariants, and injects failures (garbage-collecting a
//! peer's blocks, say). Those backstage operations go through the
//! `chain`/`swarm` accessors, which the endpoint stack forwards to its
//! backend.
//!
//! [`EndpointId`]: crate::pool::EndpointId
//! [`ProviderPool`]: crate::pool::ProviderPool

use crate::backstage::{BackstageOp, BackstageReply};
use crate::decorators::{
    EndpointStack, FaultProfile, ProviderMetrics, RateLimitProfile, ReorderProfile, SpikeProfile,
    StaleProfile, SubLagProfile,
};
use crate::envelope::RpcError;
use crate::eth::EthApi;
use crate::ipfs::IpfsApi;
use crate::sim::SimProvider;
use crate::sub::{Notification, SubscriptionKind};
use ofl_eth::chain::Chain;
use ofl_ipfs::swarm::Swarm;
use ofl_netsim::link::NetworkProfile;

/// Everything a world needs from one node endpoint: the client-visible API
/// surface plus backstage access to the simulated infrastructure.
///
/// Providers are `Send` so a sharded world can hand each endpoint's whole
/// stack to a per-shard worker thread between slot barriers (see
/// [`ofl_netsim::par`]).
pub trait NodeProvider: EthApi + IpfsApi + Send {
    /// The backing chain (backstage: mining, invariant checks).
    fn chain(&self) -> &Chain;
    /// Mutable backing chain (backstage: slot production).
    fn chain_mut(&mut self) -> &mut Chain;
    /// The backing swarm (backstage: availability checks).
    fn swarm(&self) -> &Swarm;
    /// Mutable backing swarm (backstage: failure injection).
    fn swarm_mut(&mut self) -> &mut Swarm;
    /// Metering snapshot, when the provider is an endpoint stack (see
    /// [`decorate`]).
    fn metrics(&self) -> Option<ProviderMetrics> {
        None
    }
    /// Backstage slot-boundary notification: the world calls this when a
    /// 12-second slot elapses so window-based faults (rate limiting,
    /// spikes, push lag) can advance. The endpoint stack forwards it to its
    /// backend.
    fn on_slot(&mut self) {}
    /// Answers one [`BackstageOp`] — the simulator's side channel (mining,
    /// invariant reads, failure injection) as a value instead of a
    /// reference, so it can cross a process boundary. The default answers
    /// locally via the `chain`/`swarm` accessors; the endpoint stack
    /// forwards it untouched (backstage traffic is never priced, faulted,
    /// or metered), and [`SocketProvider`](crate::SocketProvider) ships it
    /// to the daemon as one frame.
    fn backstage(&mut self, op: &BackstageOp) -> BackstageReply {
        crate::backstage::dispatch_local(self, op)
    }
    /// Opens a push subscription on this endpoint's backend, returning its
    /// id (monotonic per backend, starting at 1). The endpoint stack
    /// forwards the call untouched, so the id is assigned by the backend —
    /// in-process and remote stacks hand out the same ids for the same
    /// subscribe sequence.
    fn subscribe(&mut self, kind: SubscriptionKind) -> u64;
    /// Cancels a subscription; `false` when the id was unknown.
    fn unsubscribe(&mut self, sub_id: u64) -> bool;
    /// Takes every notification published since the last drain, in the
    /// hub's deterministic delivery order (publish order, fan-out within
    /// an event in subscription-id order). The caller — the world's slot
    /// pump — is responsible for draining at slot boundaries.
    fn drain_notifications(&mut self) -> Vec<Notification>;
}

/// The per-endpoint fault knobs shared by the in-process and remote stack
/// builders: seeded fault injection, request quotas, and lagging replica
/// reads (`None` everywhere = a clean, reliable endpoint).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EndpointFaults {
    /// Seeded RPC drop injection.
    pub faults: Option<FaultProfile>,
    /// Seeded per-slot request quota (429s past it).
    pub rate_limit: Option<RateLimitProfile>,
    /// Seeded lagging-replica reads (head and receipts served late).
    pub stale: Option<StaleProfile>,
    /// Seeded slot-long latency spikes (every exchange stalls while live).
    pub spike: Option<SpikeProfile>,
    /// Seeded shuffling of batch reply arrays (tags preserved).
    pub reorder: Option<ReorderProfile>,
    /// Seeded per-subscription push-delivery lag (and optional reorder).
    pub sub_lag: Option<SubLagProfile>,
}

/// Wraps any backend in the endpoint stack: latency pricing and metering,
/// plus the faults `knobs` switch on, in the fixed order the
/// [`decorators`](crate::decorators) module documents.
pub fn decorate(
    backend: Box<dyn NodeProvider>,
    profile: NetworkProfile,
    envelope_bytes: u64,
    knobs: EndpointFaults,
) -> Box<dyn NodeProvider> {
    Box::new(EndpointStack::new(backend, profile, envelope_bytes, knobs))
}

/// Builds the endpoint stack around an in-process backend.
pub fn build_provider(
    chain: Chain,
    swarm: Swarm,
    profile: NetworkProfile,
    envelope_bytes: u64,
    knobs: EndpointFaults,
) -> Box<dyn NodeProvider> {
    decorate(
        Box::new(SimProvider::new(chain, swarm)),
        profile,
        envelope_bytes,
        knobs,
    )
}

/// Errors whose failures are worth retrying at the client layer.
pub trait Retryable {
    /// True when the failure is transient (a timeout, or a 429 whose
    /// priced back-off has elapsed) rather than a hard rejection.
    fn is_transient(&self) -> bool;
}

impl Retryable for RpcError {
    fn is_transient(&self) -> bool {
        matches!(self, RpcError::Timeout | RpcError::RateLimited)
    }
}

impl Retryable for crate::bindings::BindingError {
    fn is_transient(&self) -> bool {
        matches!(
            self,
            crate::bindings::BindingError::Rpc(RpcError::Timeout)
                | crate::bindings::BindingError::Rpc(RpcError::RateLimited)
        )
    }
}
