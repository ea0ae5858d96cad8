//! Client-side retry with timeout classification and seeded backoff.
//!
//! The bus distinguishes [`BusError::DroppedRequest`] (service never ran —
//! plain retry is safe) from [`BusError::DroppedReply`] (service ran, answer
//! lost — a blind retry could re-apply the operation). Both are retried
//! here because the protocol makes retries idempotent: a resent envelope
//! carries the *same* request ids, and the promise manager's request-id
//! index answers a duplicate grant with the original promise instead of
//! granting — and charging — twice. Non-retryable errors (unknown endpoint,
//! codec failures) are surfaced immediately.
//!
//! Backoff is capped exponential with full jitter drawn from a seeded PRNG,
//! so a fault run is reproducible end to end from the scenario seed plus
//! the client seed.

use std::borrow::Borrow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};
use rand::{rngs::StdRng, Rng, SeedableRng};

use promises_telemetry::{push_trace, FaultTag, SpanDraft, SpanKind, SpanOutcome, Telemetry};

use crate::bus::{BusError, InMemoryBus, Posted};
use crate::envelope::Envelope;

/// Retry/backoff configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first attempt (so `max_retries + 1` sends total).
    pub max_retries: u32,
    /// Backoff before retry `n` is uniform in `[0, min(base << n, cap)]`.
    pub base_backoff: Duration,
    /// Upper bound on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the jitter PRNG (full jitter, deterministic per seed).
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// A policy suited to the in-memory bus: 8 retries, 50µs base doubling
    /// to a 5ms cap.
    pub fn new(jitter_seed: u64) -> Self {
        Self {
            max_retries: 8,
            base_backoff: Duration::from_micros(50),
            max_backoff: Duration::from_millis(5),
            jitter_seed,
        }
    }

    /// Sets the retry budget.
    pub fn with_max_retries(mut self, n: u32) -> Self {
        self.max_retries = n;
        self
    }

    fn backoff(&self, rng: &mut StdRng, attempt: u32) -> Duration {
        let base = self.base_backoff.as_nanos() as u64;
        if base == 0 {
            return Duration::ZERO;
        }
        let cap = self.max_backoff.as_nanos() as u64;
        let ceiling = base
            .checked_shl(attempt.min(20))
            .unwrap_or(u64::MAX)
            .min(cap.max(base));
        Duration::from_nanos(rng.random_range(0..=ceiling))
    }
}

/// Counters for one client's retry behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Logical sends (each may involve several attempts).
    pub sends: u64,
    /// Individual retry attempts after a retryable failure.
    pub retries: u64,
    /// Sends that exhausted the retry budget and surfaced a transport
    /// error to the caller.
    pub exhausted: u64,
}

/// One leg of a [`RetryingClient::send_all`]: where it goes and how far
/// it has got.
struct Leg<'a> {
    to: &'a str,
    envelope: &'a Envelope,
    started: Instant,
    /// When telemetry is attached: the registry and the leg's send span,
    /// which joins the caller's trace (or roots one) and parents the
    /// attempts. Taken when the leg settles.
    traced: Option<(&'a Telemetry, SpanDraft<'a>)>,
    state: LegState<'a>,
}

// A leg lives on the sender's stack (or in its one `Vec`) for the length of
// a send; boxing the in-flight state would cost an allocation per attempt.
#[allow(clippy::large_enum_variant)]
enum LegState<'a> {
    /// Not answered yet: to be posted in the next round.
    Open,
    /// One attempt in flight, with its span when telemetry is attached.
    Posted(Posted, Option<SpanDraft<'a>>),
    Settled(Result<Envelope, BusError>),
}

impl<'a> Leg<'a> {
    fn new(to: &'a str, envelope: &'a Envelope, tel: Option<&'a Telemetry>) -> Self {
        let started = Instant::now();
        Self {
            to,
            envelope,
            started,
            traced: tel.map(|tel| (tel, tel.span_since(SpanKind::ClientSend, started))),
            state: LegState::Open,
        }
    }

    /// Posts one attempt if the leg is still open. With telemetry the
    /// attempt gets a fresh span under the send span and the envelope
    /// carries its id.
    fn post(&mut self, bus: &InMemoryBus) {
        if !matches!(self.state, LegState::Open) {
            return;
        }
        self.state = match &self.traced {
            Some((tel, send_span)) => {
                let draft = {
                    let _guard = push_trace(send_span.context());
                    tel.span(SpanKind::ClientAttempt)
                };
                let ctx = draft.context();
                let traced = self.envelope.clone().with_trace(ctx.trace.0, ctx.parent.0);
                LegState::Posted(bus.post(self.to, &traced), Some(draft))
            }
            None => LegState::Posted(bus.post(self.to, self.envelope), None),
        };
    }

    /// Collects the attempt in flight, if there is one, closing its span;
    /// the leg is open again until the caller settles it.
    fn collect(&mut self, bus: &InMemoryBus, attempt: u32) -> Option<Result<Envelope, BusError>> {
        let (posted, span) = match std::mem::replace(&mut self.state, LegState::Open) {
            LegState::Posted(posted, span) => (posted, span),
            other => {
                self.state = other;
                return None;
            }
        };
        let result = bus.collect(posted);
        if let Some(draft) = span {
            match &result {
                Ok(_) => draft.note(format!("attempt={attempt}")).finish(),
                Err(e) => {
                    let mut d = draft
                        .outcome(SpanOutcome::Error)
                        .note(format!("attempt={attempt}: {e}"));
                    d = match e {
                        BusError::DroppedRequest => d.fault(FaultTag::DropRequest),
                        BusError::DroppedReply => d.fault(FaultTag::DropReply),
                        _ => d,
                    };
                    d.finish();
                }
            }
        }
        Some(result)
    }

    /// Records the leg's final outcome and closes its send span.
    fn settle(&mut self, result: Result<Envelope, BusError>) {
        if let Some((tel, send_span)) = self.traced.take() {
            tel.record_duration("client.send", self.started.elapsed());
            match &result {
                Ok(_) => send_span.finish(),
                Err(e) => send_span
                    .outcome(SpanOutcome::Error)
                    .note(e.to_string())
                    .finish(),
            }
        }
        self.state = LegState::Settled(result);
    }

    fn into_outcome(self) -> Result<Envelope, BusError> {
        match self.state {
            LegState::Settled(result) => result,
            _ => unreachable!("drive returns only once every leg is settled"),
        }
    }
}

/// A bus client that retries transport faults with seeded backoff.
pub struct RetryingClient {
    bus: Arc<InMemoryBus>,
    policy: RetryPolicy,
    rng: Mutex<StdRng>,
    telemetry: RwLock<Option<Arc<Telemetry>>>,
    sends: AtomicU64,
    retries: AtomicU64,
    exhausted: AtomicU64,
}

impl RetryingClient {
    /// Wraps `bus` with the given policy.
    pub fn new(bus: Arc<InMemoryBus>, policy: RetryPolicy) -> Self {
        Self {
            bus,
            policy,
            rng: Mutex::new(StdRng::seed_from_u64(policy.jitter_seed)),
            telemetry: RwLock::new(None),
            sends: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            exhausted: AtomicU64::new(0),
        }
    }

    /// Builder: attaches a telemetry registry. Each logical send then
    /// roots a [`SpanKind::ClientSend`] trace, each bus attempt records a
    /// child [`SpanKind::ClientAttempt`] span (fresh span per retry, same
    /// trace), and outgoing envelopes carry the `(trace, attempt-span)`
    /// pair so the receiving side joins the same trace.
    pub fn with_telemetry(self, telemetry: Arc<Telemetry>) -> Self {
        *self.telemetry.write() = Some(telemetry);
        self
    }

    /// Installs (or clears) the telemetry registry.
    pub fn set_telemetry(&self, telemetry: Option<Arc<Telemetry>>) {
        *self.telemetry.write() = telemetry;
    }

    /// The underlying bus.
    pub fn bus(&self) -> &Arc<InMemoryBus> {
        &self.bus
    }

    /// Sends `envelope` to `to`, retrying retryable transport faults with
    /// capped exponential backoff: the one-element case of
    /// [`RetryingClient::send_all`], its one leg kept on the stack so the
    /// single-shard path allocates nothing for being a fan-out of one.
    pub fn send(&self, to: &str, envelope: &Envelope) -> Result<Envelope, BusError> {
        let tel = self.telemetry.read().clone();
        let mut leg = [Leg::new(to, envelope, tel.as_deref())];
        self.drive(&mut leg, tel.as_deref());
        let [leg] = leg;
        leg.into_outcome()
    }

    /// Sends each `(endpoint, envelope)` leg, retrying retryable transport
    /// faults, and returns the outcomes in leg order. Envelopes are resent
    /// verbatim — same request ids — so server-side dedup keeps retried
    /// grants single.
    ///
    /// Each round posts every open leg through the bus in order, then
    /// collects them in order (see [`InMemoryBus::send_all`]); legs that
    /// failed retryably sit out one seeded back-off together and are
    /// re-posted in the next round, until every leg has an answer, a
    /// non-retryable error, or has spent its `max_retries`. All of it runs
    /// on the caller's thread, so for one client the jitter draws follow
    /// send order.
    ///
    /// When telemetry is attached, every leg gets its own
    /// [`SpanKind::ClientSend`] span and `client.send` sample, every
    /// attempt its own [`SpanKind::ClientAttempt`] span, and the envelope
    /// is re-stamped with that attempt's span id.
    pub fn send_all<S: AsRef<str>, E: Borrow<Envelope>>(
        &self,
        legs: &[(S, E)],
    ) -> Vec<Result<Envelope, BusError>> {
        let tel = self.telemetry.read().clone();
        let mut legs: Vec<Leg<'_>> = legs
            .iter()
            .map(|(to, envelope)| Leg::new(to.as_ref(), envelope.borrow(), tel.as_deref()))
            .collect();
        self.drive(&mut legs, tel.as_deref());
        legs.into_iter().map(Leg::into_outcome).collect()
    }

    /// The retry rounds: returns once every leg is settled.
    fn drive<'a>(&self, legs: &mut [Leg<'a>], tel: Option<&'a Telemetry>) {
        self.sends.fetch_add(legs.len() as u64, Ordering::Relaxed);
        let mut attempt: u32 = 0;
        loop {
            for leg in legs.iter_mut() {
                leg.post(&self.bus);
            }
            let mut retrying = false;
            for leg in legs.iter_mut() {
                let Some(result) = leg.collect(&self.bus, attempt) else {
                    continue;
                };
                match result {
                    Err(e) if e.retryable() && attempt < self.policy.max_retries => {
                        self.retries.fetch_add(1, Ordering::Relaxed);
                        if let Some(tel) = tel {
                            tel.incr("client.retry");
                        }
                        retrying = true;
                    }
                    result => {
                        if result.as_ref().is_err_and(BusError::retryable) {
                            self.exhausted.fetch_add(1, Ordering::Relaxed);
                            if let Some(tel) = tel {
                                tel.incr("client.exhausted");
                            }
                        }
                        leg.settle(result);
                    }
                }
            }
            if !retrying {
                return;
            }
            let pause = self.policy.backoff(&mut self.rng.lock(), attempt);
            attempt += 1;
            if !pause.is_zero() {
                std::thread::sleep(pause);
            }
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> RetryStats {
        RetryStats {
            sends: self.sends.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            exhausted: self.exhausted.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::Service;
    use crate::envelope::ActionRequest;
    use promises_faults::{FaultInjector, FaultScenario};

    fn echo_bus() -> Arc<InMemoryBus> {
        let bus = Arc::new(InMemoryBus::new());
        bus.register("echo", Arc::new(|env: Envelope| env) as Arc<dyn Service>);
        bus
    }

    #[test]
    fn retries_through_heavy_drop_rates() {
        let bus = echo_bus();
        bus.set_fault_injector(Some(Arc::new(FaultInjector::new(FaultScenario::uniform(
            7, 0.4,
        )))));
        let client = RetryingClient::new(Arc::clone(&bus), RetryPolicy::new(11));
        let env = Envelope::new().with_action(ActionRequest::new("s", "op").param("k", "v"));
        let mut delivered = 0;
        for _ in 0..50 {
            if client.send("echo", &env).is_ok() {
                delivered += 1;
            }
        }
        assert!(
            delivered >= 45,
            "retry should mask most faults: {delivered}/50 ({:?})",
            client.stats()
        );
        assert!(
            client.stats().retries > 0,
            "faults should have forced retries"
        );
    }

    #[test]
    fn non_retryable_errors_surface_immediately() {
        let bus = Arc::new(InMemoryBus::new());
        let client = RetryingClient::new(bus, RetryPolicy::new(1));
        let err = client.send("ghost", &Envelope::new()).unwrap_err();
        assert!(!err.retryable());
        assert_eq!(client.stats().retries, 0);
    }

    #[test]
    fn no_retries_policy_surfaces_first_drop() {
        let bus = echo_bus();
        bus.set_fault_injector(Some(Arc::new(FaultInjector::new(FaultScenario {
            drop_request: 1.0,
            ..FaultScenario::quiet(3)
        }))));
        let client = RetryingClient::new(Arc::clone(&bus), RetryPolicy::new(0).with_max_retries(0));
        assert_eq!(
            client.send("echo", &Envelope::new()).unwrap_err(),
            BusError::DroppedRequest
        );
        assert_eq!(client.stats().exhausted, 1);
    }

    #[test]
    fn send_all_reposts_a_lost_reply_under_the_same_request_id() {
        use crate::envelope::PromiseRequestHeader;
        use parking_lot::Mutex;
        use std::collections::HashMap;

        // A service with request-id dedup, as a shard has: a repeated id
        // is answered with the number it was given the first time.
        let granted: Arc<Mutex<HashMap<String, u64>>> = Arc::default();
        let handled = Arc::new(AtomicU64::new(0));
        let (index, calls) = (Arc::clone(&granted), Arc::clone(&handled));
        let bus = Arc::new(InMemoryBus::new());
        bus.register(
            "dedup",
            Arc::new(move |env: Envelope| {
                calls.fetch_add(1, Ordering::Relaxed);
                let mut index = index.lock();
                let next = index.len() as u64;
                let id = *index
                    .entry(env.promise_requests[0].request_id.clone())
                    .or_insert(next);
                Envelope::new().with_release(id)
            }) as Arc<dyn Service>,
        );
        bus.set_fault_injector(Some(Arc::new(FaultInjector::new(FaultScenario {
            drop_reply: 0.5,
            ..FaultScenario::quiet(2)
        }))));
        let client = RetryingClient::new(Arc::clone(&bus), RetryPolicy::new(3));
        let leg = |rid: &str| {
            let request = PromiseRequestHeader {
                request_id: rid.into(),
                client: "c".into(),
                predicates: vec![],
                duration_ms: 1,
                exchange: vec![],
                negotiate: false,
                prepare: false,
            };
            ("dedup", Envelope::new().with_promise_request(request))
        };
        let legs: Vec<_> = ["a", "b", "c", "d", "e", "f"].map(leg).into();
        let results = client.send_all(&legs);
        let ids: Vec<u64> = results
            .into_iter()
            .map(|r| r.expect("the budget outlasts a 50% reply drop").releases[0])
            .collect();
        let stats = client.stats();
        assert_eq!(stats.sends, 6);
        assert!(stats.retries > 0, "seed 2 drops at least one reply");
        assert_eq!(
            handled.load(Ordering::Relaxed),
            6 + stats.retries,
            "a lost reply means the service ran: every re-post reaches it again"
        );
        assert_eq!(granted.lock().len(), 6, "re-posts carried the same ids");
        let mut distinct = ids.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 6, "each leg got its own answer: {ids:?}");
    }

    #[test]
    fn send_all_settles_each_leg_on_its_own() {
        let bus = echo_bus();
        let client = RetryingClient::new(Arc::clone(&bus), RetryPolicy::new(1));
        let env = Envelope::new().with_release(9);
        let results = client.send_all(&[("echo", &env), ("ghost", &env)]);
        assert_eq!(results[0].as_ref().unwrap(), &env);
        assert!(!results[1].as_ref().unwrap_err().retryable());
        assert_eq!(
            client.stats(),
            RetryStats {
                sends: 2,
                retries: 0,
                exhausted: 0
            }
        );
    }

    #[test]
    fn backoff_is_deterministic_per_seed_and_capped() {
        let policy = RetryPolicy::new(42);
        let mut a = StdRng::seed_from_u64(policy.jitter_seed);
        let mut b = StdRng::seed_from_u64(policy.jitter_seed);
        for attempt in 0..12 {
            let x = policy.backoff(&mut a, attempt);
            let y = policy.backoff(&mut b, attempt);
            assert_eq!(x, y);
            assert!(x <= policy.max_backoff);
        }
    }
}
