//! An in-memory service bus substituting for HTTP/SOAP transport.
//!
//! Every message makes a full encode → (simulated network) → decode round
//! trip, so the wire format is exercised on every call and the measured
//! pipeline (experiment E2 / Figure 2) includes real serialisation cost.
//! Latency and message-loss injection model the loosely-coupled transport
//! the paper assumes without changing the isolation semantics under study.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::RwLock;

use promises_faults::{FaultInjector, MessageFate};
use promises_telemetry::{
    push_trace, FaultTag, SpanId, SpanKind, SpanOutcome, Telemetry, TraceContext, TraceId,
};

use crate::codec::{decode, encode, CodecError};
use crate::envelope::Envelope;

/// A wire-level service endpoint.
pub trait Service: Send + Sync {
    /// Handles one message, producing the reply envelope.
    fn handle(&self, envelope: Envelope) -> Envelope;
}

impl<F> Service for F
where
    F: Fn(Envelope) -> Envelope + Send + Sync,
{
    fn handle(&self, envelope: Envelope) -> Envelope {
        self(envelope)
    }
}

/// Bus delivery errors.
///
/// Transport faults ([`BusError::DroppedRequest`], [`BusError::DroppedReply`])
/// are distinguished from service-side problems ([`BusError::UnknownEndpoint`],
/// [`BusError::Codec`]) *and from each other*: a dropped request means the
/// service never ran (plain retry is safe), while a dropped reply means the
/// service **did** run and only the answer was lost — a retry may re-apply
/// the operation, so retried grants carry the same request id and are
/// deduplicated by the promise manager.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusError {
    /// No endpoint registered under this name.
    UnknownEndpoint(String),
    /// The network dropped the request before the service saw it; the
    /// operation did not run.
    DroppedRequest,
    /// The network dropped the reply after the service processed the
    /// request; the operation may have been applied.
    DroppedReply,
    /// Codec failure in either direction.
    Codec(CodecError),
}

impl BusError {
    /// True if resending the same message can succeed: transport drops are
    /// transient, while unknown endpoints and codec failures are
    /// deterministic and would fail identically on every retry.
    pub fn retryable(&self) -> bool {
        matches!(self, BusError::DroppedRequest | BusError::DroppedReply)
    }
}

impl std::fmt::Display for BusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BusError::UnknownEndpoint(n) => write!(f, "unknown endpoint {n:?}"),
            BusError::DroppedRequest => write!(f, "request dropped by network (service never ran)"),
            BusError::DroppedReply => {
                write!(f, "reply dropped by network (service may have run)")
            }
            BusError::Codec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for BusError {}

impl From<CodecError> for BusError {
    fn from(e: CodecError) -> Self {
        BusError::Codec(e)
    }
}

/// Network latency model. Faults (drops, duplicates, delays) come from a
/// [`FaultInjector`], not from here.
#[derive(Debug, Clone, Copy, Default)]
pub struct NetworkProfile {
    /// Sleep applied to each direction of a round trip.
    pub latency: Duration,
}

/// Bus traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Messages successfully delivered (round trips).
    pub delivered: u64,
    /// Messages dropped by fault injection.
    pub dropped: u64,
    /// Total encoded bytes moved (both directions).
    pub bytes: u64,
}

/// The in-memory bus.
pub struct InMemoryBus {
    endpoints: RwLock<HashMap<String, Arc<dyn Service>>>,
    profile: RwLock<NetworkProfile>,
    /// Scenario-driven fault injection (drop/duplicate/delay on each
    /// direction); composes with the [`NetworkProfile`] latency.
    injector: RwLock<Option<Arc<FaultInjector>>>,
    telemetry: RwLock<Option<Arc<Telemetry>>>,
    delivered: AtomicU64,
    dropped: AtomicU64,
    bytes: AtomicU64,
}

/// Severity order for fault tags when one delivery observes several: a
/// drop explains a failed round trip better than a delay that also
/// happened along the way.
fn tag_priority(tag: FaultTag) -> u8 {
    match tag {
        FaultTag::Delay => 0,
        FaultTag::Duplicate => 1,
        _ => 2,
    }
}

/// Keeps the highest-priority fault tag observed so far.
fn upgrade_tag(slot: &mut Option<FaultTag>, tag: FaultTag) {
    if slot.is_none_or(|cur| tag_priority(tag) > tag_priority(cur)) {
        *slot = Some(tag);
    }
}

impl Default for InMemoryBus {
    fn default() -> Self {
        Self::new()
    }
}

impl InMemoryBus {
    /// Creates a bus with no latency or faults.
    pub fn new() -> Self {
        Self {
            endpoints: RwLock::new(HashMap::new()),
            profile: RwLock::new(NetworkProfile::default()),
            injector: RwLock::new(None),
            telemetry: RwLock::new(None),
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// Sets the network profile.
    pub fn set_profile(&self, profile: NetworkProfile) {
        *self.profile.write() = profile;
    }

    /// Installs (or clears) a scenario-driven fault injector. When present,
    /// every send consults it: the request can be dropped or delivered
    /// twice, the reply can be dropped, and each direction can be delayed.
    pub fn set_fault_injector(&self, injector: Option<Arc<FaultInjector>>) {
        *self.injector.write() = injector;
    }

    /// Installs (or clears) the telemetry registry. When present, every
    /// send records a `bus.deliver` histogram sample and a
    /// [`SpanKind::BusDeliver`] span joining the envelope's trace context,
    /// tagged with the injected fault (if any) it observed.
    pub fn set_telemetry(&self, telemetry: Option<Arc<Telemetry>>) {
        *self.telemetry.write() = telemetry;
    }

    /// Registers a service under a name.
    pub fn register(&self, name: &str, service: Arc<dyn Service>) {
        self.endpoints.write().insert(name.to_owned(), service);
    }

    /// Removes an endpoint, modelling a node death: subsequent sends fail
    /// fast with [`BusError::UnknownEndpoint`] (non-retryable) instead of
    /// reaching a ghost of the dead service. Returns whether the endpoint
    /// was registered.
    pub fn unregister(&self, name: &str) -> bool {
        self.endpoints.write().remove(name).is_some()
    }

    /// Sends `envelope` to endpoint `to`, returning the reply. The message
    /// is encoded and decoded in both directions.
    ///
    /// Dispatch under the threaded runtime: delivery is synchronous *in
    /// the caller's thread* — the bus resolves the endpoint (read lock,
    /// no lock held across `handle`) and invokes the service, and it is
    /// the shard server's `handle` that bridges threads by enqueueing the
    /// message on its per-shard inbound queue and blocking this caller
    /// until a shard worker fulfils the reply slot. So N concurrent
    /// senders (pipelined 2PC fan-outs, parallel clients) get N concurrent
    /// deliveries with no bus-global serialization; the bus's own traffic
    /// counters are `Relaxed` atomics, statistics with no happens-before
    /// to carry.
    pub fn send(&self, to: &str, envelope: &Envelope) -> Result<Envelope, BusError> {
        let Some(tel) = self.telemetry.read().clone() else {
            return self.deliver(to, envelope, &mut None);
        };
        // Join the sender's trace so the bus span — and everything the
        // service records while handling the message — shares the
        // envelope's context.
        let _guard = envelope.trace.map(|t| {
            push_trace(TraceContext {
                trace: TraceId(t.trace),
                parent: SpanId(t.span),
            })
        });
        let started = Instant::now();
        let mut fault = None;
        let result = self.deliver(to, envelope, &mut fault);
        tel.record_duration("bus.deliver", started.elapsed());
        let mut draft = tel.span_since(SpanKind::BusDeliver, started);
        if let Some(tag) = fault {
            tel.incr(&format!("bus.fault.{}", tag.as_str()));
            draft = draft.fault(tag);
        }
        if let Err(e) = &result {
            draft = draft.outcome(SpanOutcome::Error).note(e.to_string());
        }
        draft.finish();
        result
    }

    /// The untimed delivery path; reports the highest-priority injected
    /// fault it observed through `fault`.
    fn deliver(
        &self,
        to: &str,
        envelope: &Envelope,
        fault: &mut Option<FaultTag>,
    ) -> Result<Envelope, BusError> {
        let service = self
            .endpoints
            .read()
            .get(to)
            .cloned()
            .ok_or_else(|| BusError::UnknownEndpoint(to.to_owned()))?;
        let profile = *self.profile.read();
        let injector = self.injector.read().clone();
        let request_fate = match &injector {
            Some(inj) => {
                if let Some(d) = inj.delay() {
                    upgrade_tag(fault, FaultTag::Delay);
                    std::thread::sleep(d);
                }
                inj.request_fate()
            }
            None => MessageFate::Deliver,
        };
        if request_fate == MessageFate::Drop {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            upgrade_tag(fault, FaultTag::DropRequest);
            return Err(BusError::DroppedRequest);
        }
        let wire_out = encode(envelope);
        if !profile.latency.is_zero() {
            std::thread::sleep(profile.latency);
        }
        let received = decode(&wire_out)?;
        let reply = service.handle(received);
        if request_fate == MessageFate::Duplicate {
            // The network delivered the request twice: the service handles
            // both copies (exercising server-side request-id dedup); the
            // caller consumes the first reply.
            upgrade_tag(fault, FaultTag::Duplicate);
            let duplicate = decode(&wire_out)?;
            let _ = service.handle(duplicate);
        }
        let wire_back = encode(&reply);
        if !profile.latency.is_zero() {
            std::thread::sleep(profile.latency);
        }
        if let Some(inj) = &injector {
            if let Some(d) = inj.delay() {
                upgrade_tag(fault, FaultTag::Delay);
                std::thread::sleep(d);
            }
            if inj.reply_fate() == MessageFate::Drop {
                // The service already processed the request; only the
                // answer is lost.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                upgrade_tag(fault, FaultTag::DropReply);
                return Err(BusError::DroppedReply);
            }
        }
        let decoded = decode(&wire_back)?;
        self.delivered.fetch_add(1, Ordering::Relaxed);
        self.bytes
            .fetch_add((wire_out.len() + wire_back.len()) as u64, Ordering::Relaxed);
        Ok(decoded)
    }

    /// Traffic counters.
    pub fn stats(&self) -> BusStats {
        BusStats {
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::ActionRequest;

    fn echo_service() -> Arc<dyn Service> {
        Arc::new(|env: Envelope| env)
    }

    #[test]
    fn roundtrip_through_codec() {
        let bus = InMemoryBus::new();
        bus.register("echo", echo_service());
        let env = Envelope::new().with_action(ActionRequest::new("s", "op").param("k", "v"));
        let reply = bus.send("echo", &env).unwrap();
        assert_eq!(reply, env);
        let stats = bus.stats();
        assert_eq!(stats.delivered, 1);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn unknown_endpoint() {
        let bus = InMemoryBus::new();
        assert_eq!(
            bus.send("ghost", &Envelope::new()).unwrap_err(),
            BusError::UnknownEndpoint("ghost".into())
        );
    }

    #[test]
    fn latency_is_applied() {
        let bus = InMemoryBus::new();
        bus.register("echo", echo_service());
        bus.set_profile(NetworkProfile {
            latency: Duration::from_millis(10),
        });
        let start = std::time::Instant::now();
        bus.send("echo", &Envelope::new()).unwrap();
        assert!(
            start.elapsed() >= Duration::from_millis(20),
            "two directions"
        );
    }
}
