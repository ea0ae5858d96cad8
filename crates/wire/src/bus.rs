//! An in-memory service bus substituting for HTTP/SOAP transport.
//!
//! Every message makes a full encode → (simulated network) → decode round
//! trip, so the wire format is exercised on every call and the measured
//! pipeline (experiment E2 / Figure 2) includes real serialisation cost.
//! Latency and message-loss injection model the loosely-coupled transport
//! the paper assumes without changing the isolation semantics under study.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Condvar, Mutex, RwLock};

use promises_faults::{FaultInjector, MessageFate};
use promises_telemetry::{
    push_trace, FaultTag, SpanId, SpanKind, SpanOutcome, Telemetry, TraceContext, TraceGuard,
    TraceId,
};

use crate::codec::{decode, encode, CodecError};
use crate::envelope::{Envelope, TraceHeader};

/// A wire-level service endpoint.
pub trait Service: Send + Sync {
    /// Handles one message, producing the reply envelope.
    fn handle(&self, envelope: Envelope) -> Envelope;

    /// Accepts one message and returns a handle to its reply, so a caller
    /// with several messages for several services can post them all before
    /// waiting on any. The provided body handles inline: the reply is
    /// ready when `submit` returns. A service with a thread of its own
    /// overrides it to enqueue the message and return a [`Pending`] its
    /// worker fulfils. A `Service` that wraps another and implements only
    /// `handle` therefore gets the in-order behaviour even over a queueing
    /// inner service; to keep the overlap it must forward `submit` too.
    fn submit(&self, envelope: Envelope) -> Pending {
        Pending::ready(self.handle(envelope))
    }
}

/// A reply that may not have been produced yet: what [`Service::submit`]
/// hands back. It owns nothing but the right to wait — dropping it unwaited
/// is fine, the service still runs the message and the reply is discarded.
pub struct Pending(PendingState);

// A ready reply is held by value so the provided `submit` allocates nothing.
#[allow(clippy::large_enum_variant)]
enum PendingState {
    Ready(Envelope),
    Slot(Arc<ReplySlot>),
}

/// The producing side of a [`Pending`]: exactly one party owns it and is
/// obliged either to [`Fulfiller::fulfil`] it or to drop it, which tells
/// the waiter no reply will come (the ownership rule of Voss & Sarkar's
/// promises — a waiter can never be left blocked by a forgotten owner).
pub struct Fulfiller(Option<Arc<ReplySlot>>);

#[derive(Default)]
struct ReplyState {
    reply: Option<Envelope>,
    abandoned: bool,
}

#[derive(Default)]
struct ReplySlot {
    state: Mutex<ReplyState>,
    ready: Condvar,
}

impl Pending {
    /// A reply that is already there.
    pub fn ready(reply: Envelope) -> Self {
        Pending(PendingState::Ready(reply))
    }

    /// A reply still owed: the [`Fulfiller`] goes to whoever will produce
    /// it, the `Pending` to whoever waits for it.
    pub fn slot() -> (Fulfiller, Pending) {
        let slot = Arc::new(ReplySlot::default());
        (
            Fulfiller(Some(Arc::clone(&slot))),
            Pending(PendingState::Slot(slot)),
        )
    }

    /// Blocks until the reply is there. Panics if its owner dropped the
    /// [`Fulfiller`] unfulfilled — for a queueing service that means the
    /// worker panicked in the handler, and re-raising here fails the test
    /// that sent the message instead of deadlocking it.
    pub fn wait(self) -> Envelope {
        let slot = match self.0 {
            PendingState::Ready(reply) => return reply,
            PendingState::Slot(slot) => slot,
        };
        let mut state = slot.state.lock();
        loop {
            if let Some(reply) = state.reply.take() {
                return reply;
            }
            if state.abandoned {
                panic!("service abandoned a pending reply (its worker panicked in the handler)");
            }
            slot.ready.wait(&mut state);
        }
    }
}

impl Fulfiller {
    /// Hands the reply to the waiter.
    pub fn fulfil(mut self, reply: Envelope) {
        let slot = self.0.take().expect("a fulfiller is consumed once");
        slot.state.lock().reply = Some(reply);
        slot.ready.notify_one();
    }
}

impl Drop for Fulfiller {
    fn drop(&mut self) {
        if let Some(slot) = self.0.take() {
            slot.state.lock().abandoned = true;
            slot.ready.notify_one();
        }
    }
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

/// The envelope's trace as an ambient context, if it carries one.
fn join_trace(trace: Option<TraceHeader>) -> Option<TraceGuard> {
    trace.map(|t| {
        push_trace(TraceContext {
            trace: TraceId(t.trace),
            parent: SpanId(t.span),
        })
    })
}

/// One leg between the two passes of [`InMemoryBus::send_all`]: posted,
/// not yet collected. `timing` is set when telemetry is installed.
pub(crate) struct Posted {
    timing: Option<(Arc<Telemetry>, Instant)>,
    trace: Option<TraceHeader>,
    /// Highest-priority injected fault observed so far.
    fault: Option<FaultTag>,
    flight: Result<InFlight, BusError>,
}

/// A request the service has accepted, with the latency and injector it
/// was sent under so the reply direction sees the same ones.
struct InFlight {
    reply: Pending,
    duplicate: Option<Pending>,
    bytes_out: usize,
    latency: Duration,
    injector: Option<Arc<FaultInjector>>,
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

    /// Sends `envelope` to endpoint `to`, returning the reply: the
    /// one-element case of [`InMemoryBus::send_all`], with no list built.
    pub fn send(&self, to: &str, envelope: &Envelope) -> Result<Envelope, BusError> {
        self.collect(self.post(to, envelope))
    }

    /// Sends each `(endpoint, envelope)` leg and returns the replies in leg
    /// order. Every message is encoded and decoded in both directions.
    ///
    /// Two passes, both on the caller's thread. Pass one posts every leg
    /// in order — resolve the endpoint (read lock, not held across the
    /// service), draw the request fate and delay, encode → decode, hand
    /// the message to [`Service::submit`]. Pass two collects every leg in
    /// order — wait for the reply, encode, draw the reply fate and delay,
    /// decode, count. So legs are posted in order and collected in order,
    /// and what runs concurrently is decided by the services: a shard
    /// server's `submit` only enqueues, so N shards work on N legs while
    /// the caller waits on the first; a service with the provided `submit`
    /// answers inside pass one, one leg after the other. Fault draws and
    /// sleeps happen in leg order on this one thread, so a seeded run
    /// repeats. A leg that fails (unknown endpoint, drop, codec) fails
    /// alone; the others are delivered. The bus's own traffic counters are
    /// `Relaxed` atomics, statistics with no happens-before to carry.
    pub fn send_all<S: AsRef<str>, E: Borrow<Envelope>>(
        &self,
        legs: &[(S, E)],
    ) -> Vec<Result<Envelope, BusError>> {
        let posted: Vec<Posted> = legs
            .iter()
            .map(|(to, envelope)| self.post(to.as_ref(), envelope.borrow()))
            .collect();
        posted.into_iter().map(|leg| self.collect(leg)).collect()
    }

    /// Pass one for one leg: everything up to and including `submit`.
    pub(crate) fn post(&self, to: &str, envelope: &Envelope) -> Posted {
        let timing = self
            .telemetry
            .read()
            .clone()
            .map(|tel| (tel, Instant::now()));
        // Join the sender's trace so everything a service records while
        // handling the message inline shares the envelope's context.
        let _guard = timing.as_ref().and_then(|_| join_trace(envelope.trace));
        let mut fault = None;
        let flight = self.post_request(to, envelope, &mut fault);
        Posted {
            timing,
            trace: envelope.trace,
            fault,
            flight,
        }
    }

    fn post_request(
        &self,
        to: &str,
        envelope: &Envelope,
        fault: &mut Option<FaultTag>,
    ) -> Result<InFlight, BusError> {
        let service = self
            .endpoints
            .read()
            .get(to)
            .cloned()
            .ok_or_else(|| BusError::UnknownEndpoint(to.to_owned()))?;
        let latency = self.profile.read().latency;
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
        if !latency.is_zero() {
            std::thread::sleep(latency);
        }
        let reply = service.submit(decode(&wire_out)?);
        let duplicate = if request_fate == MessageFate::Duplicate {
            // The network delivered the request twice: the service handles
            // both copies (exercising server-side request-id dedup); the
            // caller consumes the first reply.
            upgrade_tag(fault, FaultTag::Duplicate);
            Some(service.submit(decode(&wire_out)?))
        } else {
            None
        };
        Ok(InFlight {
            reply,
            duplicate,
            bytes_out: wire_out.len(),
            latency,
            injector,
        })
    }

    /// Pass two for one leg: wait for the reply and bring it back, then
    /// record the leg's `bus.deliver` sample and span.
    pub(crate) fn collect(&self, leg: Posted) -> Result<Envelope, BusError> {
        let Posted {
            timing,
            trace,
            mut fault,
            flight,
        } = leg;
        let result = flight.and_then(|flight| self.collect_reply(flight, &mut fault));
        if let Some((tel, started)) = timing {
            let _guard = join_trace(trace);
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
        }
        result
    }

    fn collect_reply(
        &self,
        flight: InFlight,
        fault: &mut Option<FaultTag>,
    ) -> Result<Envelope, BusError> {
        let reply = flight.reply.wait();
        if let Some(duplicate) = flight.duplicate {
            // The copy is handled before this leg returns, as it was when
            // delivery ran the service inline.
            let _ = duplicate.wait();
        }
        let wire_back = encode(&reply);
        if !flight.latency.is_zero() {
            std::thread::sleep(flight.latency);
        }
        if let Some(inj) = &flight.injector {
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
        self.bytes.fetch_add(
            (flight.bytes_out + wire_back.len()) as u64,
            Ordering::Relaxed,
        );
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
    fn send_all_fails_an_unknown_endpoint_alone() {
        let bus = InMemoryBus::new();
        bus.register("echo", echo_service());
        let env = Envelope::new().with_release(7);
        let results = bus.send_all(&[("echo", &env), ("ghost", &env), ("echo", &env)]);
        assert_eq!(results[0].as_ref().unwrap(), &env);
        assert_eq!(
            results[1].as_ref().unwrap_err(),
            &BusError::UnknownEndpoint("ghost".into())
        );
        assert_eq!(results[2].as_ref().unwrap(), &env);
        assert_eq!(bus.stats().delivered, 2);
    }

    #[test]
    fn duplicate_fate_reaches_the_service_twice_before_send_all_returns() {
        use promises_faults::FaultScenario;
        let seen = Arc::new(AtomicU64::new(0));
        let counter = Arc::clone(&seen);
        let bus = InMemoryBus::new();
        // A closure implements only `handle`: the provided `submit` runs it.
        bus.register(
            "count",
            Arc::new(move |env: Envelope| {
                counter.fetch_add(1, Ordering::Relaxed);
                env
            }),
        );
        bus.set_fault_injector(Some(Arc::new(FaultInjector::new(FaultScenario {
            duplicate: 1.0,
            ..FaultScenario::quiet(5)
        }))));
        let env = Envelope::new().with_release(1);
        let results = bus.send_all(&[("count", &env), ("count", &env)]);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(seen.load(Ordering::Relaxed), 4, "two legs, two copies each");
        assert_eq!(
            bus.stats().delivered,
            2,
            "the caller consumes one reply a leg"
        );
    }

    #[test]
    fn a_dropped_fulfiller_panics_the_waiter_and_a_dropped_pending_is_harmless() {
        let (owner, pending) = Pending::slot();
        drop(owner);
        let waited = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pending.wait()));
        assert!(waited.is_err(), "an abandoned reply must not block forever");

        let (owner, pending) = Pending::slot();
        drop(pending);
        owner.fulfil(Envelope::new());

        let (owner, pending) = Pending::slot();
        let worker = std::thread::spawn(move || owner.fulfil(Envelope::new().with_release(3)));
        assert_eq!(pending.wait().releases, vec![3]);
        worker.join().unwrap();
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
