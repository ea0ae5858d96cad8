//! The promise gateway: the wire-facing face of a promise manager.
//!
//! This is the intermediary of Figure 2: "The promise manager receives
//! each message as it arrives from the client and breaks it up into its
//! Promise and Action component pieces" (§8). Per envelope the gateway:
//!
//! 1. processes `<release>` headers;
//! 2. processes `<promise-request>` headers, emitting a
//!    `<promise-response>` for each (atomic per request, §4);
//! 3. if the body carries an action, resolves its `<environment>` —
//!    including [`EnvRef::Correlation`] references to promises granted in
//!    step 2, supporting §6's combined request+action messages — and runs
//!    the action through [`PromiseManager::execute`], which performs the
//!    post-action promise check and rolls back violating actions.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

use promises_core::{
    parse_predicate, ActionError, Environment, PromiseDecision, PromiseError, PromiseId,
    PromiseManager, PromiseRequestSpec,
};
use promises_rm::{ResourceManager, Txn};
use promises_telemetry::{push_trace, SpanId, TraceContext, TraceId};

use crate::bus::Service;
use crate::envelope::{
    ActionRequest, ActionResponse, EnvRef, Envelope, PromiseResponseHeader, PromiseResult,
    ResolutionOp, ResolutionResponse, ResolveRef,
};

/// Handler for one application operation: runs inside the promise
/// manager's transaction; returns result fields or an application error.
pub type ActionHandler = Arc<
    dyn Fn(&ResourceManager, &Txn, &ActionRequest) -> Result<Vec<(String, String)>, ActionError>
        + Send
        + Sync,
>;

/// Wire-facing adapter around a [`PromiseManager`].
pub struct PromiseGateway {
    pm: Arc<PromiseManager>,
    handlers: RwLock<HashMap<(String, String), ActionHandler>>,
}

impl PromiseGateway {
    /// Creates a gateway for a manager.
    pub fn new(pm: Arc<PromiseManager>) -> Self {
        Self {
            pm,
            handlers: RwLock::new(HashMap::new()),
        }
    }

    /// The wrapped promise manager.
    pub fn manager(&self) -> &Arc<PromiseManager> {
        &self.pm
    }

    /// Registers the handler for `(service, operation)` action bodies.
    pub fn register_handler(&self, service: &str, operation: &str, handler: ActionHandler) {
        self.handlers
            .write()
            .insert((service.to_owned(), operation.to_owned()), handler);
    }

    fn process_promise_requests(
        &self,
        envelope: &Envelope,
        reply: &mut Envelope,
        granted_by_correlation: &mut HashMap<String, PromiseId>,
    ) {
        for req in &envelope.promise_requests {
            let rejected = |msg: String| PromiseResponseHeader {
                promise_id: None,
                result: PromiseResult::Rejected(msg),
                expires_at: 0,
                correlation: req.request_id.clone(),
                granted_predicates: vec![],
            };
            let mut predicates = Vec::new();
            let mut parse_failure = None;
            for text in &req.predicates {
                match parse_predicate(text) {
                    Ok(p) => predicates.push(p),
                    Err(e) => {
                        parse_failure = Some(format!("bad predicate {text:?}: {e}"));
                        break;
                    }
                }
            }
            if let Some(msg) = parse_failure {
                reply.promise_responses.push(rejected(msg));
                continue;
            }
            let mut spec = PromiseRequestSpec::new(
                promises_core::RequestId(req.request_id.clone()),
                promises_core::ClientId(req.client.clone()),
            )
            .duration_ms(req.duration_ms);
            spec.predicates = predicates;
            spec.exchange = req.exchange.iter().map(|id| PromiseId(*id)).collect();

            // Each kind of request yields the manager's decision plus, for
            // a negotiated grant, its condition and the predicates as
            // actually granted; one mapping turns that into the header.
            let answer = if req.prepare {
                // Cross-shard prepare: grant as a prepared hold (journalled
                // in doubt) awaiting the coordinator's <resolve>. Prepare
                // and negotiate do not compose — a prepared hold must be
                // exactly the predicates the coordinator split, or the
                // cross-shard union would silently weaken.
                if req.negotiate {
                    reply.promise_responses.push(rejected(
                        "prepare and negotiate are mutually exclusive".into(),
                    ));
                    continue;
                }
                (self.pm.request_prepared(spec)).map(|resp| (resp.decision, None, vec![]))
            } else if req.negotiate {
                // The §6 "accepted with the condition XX" possibility:
                // grant the best weakened form (desirable clauses dropped
                // last-first), reporting the condition and the predicates
                // as actually granted.
                self.pm.request_negotiated(spec).map(|out| {
                    let dropped = out.total_dropped();
                    let condition =
                        (dropped > 0).then(|| format!("dropped {dropped} desirable clause(s)"));
                    let granted = out.granted_predicates.iter().map(ToString::to_string);
                    (out.response.decision, condition, granted.collect())
                })
            } else {
                (self.pm.request(spec)).map(|resp| (resp.decision, None, vec![]))
            };
            let header = match answer {
                Ok((
                    PromiseDecision::Granted {
                        promise,
                        expires_at,
                    },
                    condition,
                    granted_predicates,
                )) => {
                    granted_by_correlation.insert(req.request_id.clone(), promise);
                    PromiseResponseHeader {
                        promise_id: Some(promise.0),
                        result: condition.map_or(
                            PromiseResult::Accepted,
                            PromiseResult::AcceptedWithCondition,
                        ),
                        expires_at,
                        correlation: req.request_id.clone(),
                        granted_predicates,
                    }
                }
                Ok((PromiseDecision::Rejected { reason }, ..)) => rejected(reason.to_string()),
                Err(e) => rejected(e.to_string()),
            };
            reply.promise_responses.push(header);
        }
    }

    fn run_action(
        &self,
        envelope: &Envelope,
        granted_by_correlation: &HashMap<String, PromiseId>,
    ) -> ActionResponse {
        let Some(action) = &envelope.action else {
            return ActionResponse::success();
        };
        let handler = self
            .handlers
            .read()
            .get(&(action.service.clone(), action.operation.clone()))
            .cloned();
        let Some(handler) = handler else {
            return ActionResponse::failure(format!(
                "no handler for {}/{}",
                action.service, action.operation
            ));
        };

        // Resolve the environment, including same-message correlations.
        let mut env = Environment::none();
        if let Some(header) = &envelope.environment {
            for entry in &header.entries {
                let id = match &entry.reference {
                    EnvRef::Id(id) => PromiseId(*id),
                    EnvRef::Correlation(c) => match granted_by_correlation.get(c) {
                        Some(id) => *id,
                        None => {
                            return ActionResponse::failure(format!(
                                "environment references ungranted correlation {c:?}"
                            ))
                        }
                    },
                };
                env = if entry.release_after {
                    env.releasing(id)
                } else {
                    env.under(id)
                };
            }
        }

        let result = self.pm.execute(&env, |rm, txn| handler(rm, txn, action));
        match result {
            Ok(fields) => {
                let mut resp = ActionResponse::success();
                resp.fields = fields;
                resp
            }
            Err(PromiseError::ActionFailed(msg)) => ActionResponse::failure(msg),
            Err(e) => ActionResponse::failure(e.to_string()),
        }
    }
}

impl Service for PromiseGateway {
    fn handle(&self, envelope: Envelope) -> Envelope {
        // Adopt the sender's trace context so PM/RM spans recorded while
        // handling this message join the client's trace — effective even
        // when the gateway is invoked without an instrumented bus.
        let _guard = envelope.trace.map(|t| {
            push_trace(TraceContext {
                trace: TraceId(t.trace),
                parent: SpanId(t.span),
            })
        });
        let mut reply = Envelope::new();
        // 1. Standalone releases.
        for id in &envelope.releases {
            let _ = self.pm.release(PromiseId(*id));
        }
        // 1b. Coordinator resolutions of prepared holds. A request-keyed
        // reference that no longer maps to a live promise resolves to
        // `applied: false` rather than an error: the hold either was never
        // granted or already expired, and either way the shard holds
        // nothing for this transaction.
        for r in &envelope.resolutions {
            let id = match &r.reference {
                ResolveRef::Id(id) => Some(PromiseId(*id)),
                ResolveRef::Request { client, request } => self.pm.promise_for_request(
                    &promises_core::ClientId(client.clone()),
                    &promises_core::RequestId(request.clone()),
                ),
            };
            let outcome = match id {
                None => Ok(false),
                Some(id) => match r.op {
                    ResolutionOp::Commit => self.pm.commit_prepared(id),
                    ResolutionOp::Abort => self.pm.abort_prepared(id),
                },
            };
            let (applied, error) = match outcome {
                Ok(applied) => (applied, None),
                Err(e) => (false, Some(e.to_string())),
            };
            reply.resolution_responses.push(ResolutionResponse {
                reference: r.reference.clone(),
                op: r.op,
                applied,
                error,
            });
        }
        // 2. Promise requests (each atomic).
        let mut granted = HashMap::new();
        self.process_promise_requests(&envelope, &mut reply, &mut granted);
        // 3. The action, under its (possibly just-granted) environment.
        if envelope.action.is_some() {
            reply.action_response = Some(self.run_action(&envelope, &granted));
        }
        reply
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envelope::{EnvEntry, EnvironmentHeader, PromiseRequestHeader};
    use promises_core::{Catalog, PoolSchema, SystemClock};

    fn gateway() -> PromiseGateway {
        let rm = Arc::new(ResourceManager::new());
        let pm = Arc::new(PromiseManager::new(rm, Arc::new(SystemClock::new())));
        pm.register_pool(PoolSchema::quantity("widgets"));
        pm.seed_quantity("widgets", 10).unwrap();
        let gw = PromiseGateway::new(pm);
        gw.register_handler(
            "merchant",
            "purchase",
            Arc::new(|rm, txn, action| {
                let qty: i64 = action
                    .get("qty")
                    .and_then(|v| v.parse().ok())
                    .ok_or(ActionError::App("missing qty".into()))?;
                rm.update(txn, Catalog::QTY_TABLE, "widgets", |r| {
                    let q = r.int("qty").unwrap();
                    r.set("qty", q - qty);
                })?;
                Ok(vec![("taken".into(), qty.to_string())])
            }),
        );
        gw
    }

    fn request_header(id: &str, predicate: &str) -> PromiseRequestHeader {
        PromiseRequestHeader {
            request_id: id.into(),
            client: "test".into(),
            predicates: vec![predicate.into()],
            duration_ms: 60_000,
            exchange: vec![],
            negotiate: false,
            prepare: false,
        }
    }

    #[test]
    fn grant_and_reject_over_the_wire() {
        let gw = gateway();
        let reply = gw.handle(
            Envelope::new()
                .with_promise_request(request_header("r1", "qty('widgets') >= 8"))
                .with_promise_request(request_header("r2", "qty('widgets') >= 8")),
        );
        assert_eq!(reply.promise_responses.len(), 2);
        assert!(matches!(
            reply.response_for("r1").unwrap().result,
            PromiseResult::Accepted
        ));
        assert!(matches!(
            reply.response_for("r2").unwrap().result,
            PromiseResult::Rejected(_)
        ));
    }

    #[test]
    fn combined_request_and_action_with_correlation_environment() {
        // §6: a single message requests a promise AND performs the action
        // under it, releasing it afterwards.
        let gw = gateway();
        let envelope = Envelope::new()
            .with_promise_request(request_header("r1", "qty('widgets') >= 5"))
            .with_environment(EnvironmentHeader {
                entries: vec![EnvEntry {
                    reference: EnvRef::Correlation("r1".into()),
                    release_after: true,
                }],
            })
            .with_action(ActionRequest::new("merchant", "purchase").param("qty", 5));
        let reply = gw.handle(envelope);
        assert!(matches!(
            reply.response_for("r1").unwrap().result,
            PromiseResult::Accepted
        ));
        let action = reply.action_response.unwrap();
        assert!(action.ok, "action failed: {:?}", action.error);
        assert_eq!(gw.manager().live_count(), 0, "promise released with action");
    }

    #[test]
    fn bad_predicate_rejected_not_crashing() {
        let gw = gateway();
        let reply =
            gw.handle(Envelope::new().with_promise_request(request_header("r1", "gibberish")));
        assert!(matches!(
            reply.response_for("r1").unwrap().result,
            PromiseResult::Rejected(_)
        ));
    }

    #[test]
    fn unknown_handler_fails_cleanly() {
        let gw = gateway();
        let reply = gw.handle(Envelope::new().with_action(ActionRequest::new("ghost", "noop")));
        let resp = reply.action_response.unwrap();
        assert!(!resp.ok);
        assert!(resp.error.unwrap().contains("no handler"));
    }

    #[test]
    fn environment_with_unknown_correlation_fails() {
        let gw = gateway();
        let reply = gw.handle(
            Envelope::new()
                .with_environment(EnvironmentHeader {
                    entries: vec![EnvEntry {
                        reference: EnvRef::Correlation("never-granted".into()),
                        release_after: false,
                    }],
                })
                .with_action(ActionRequest::new("merchant", "purchase").param("qty", 1)),
        );
        let resp = reply.action_response.unwrap();
        assert!(!resp.ok);
    }

    #[test]
    fn standalone_release_over_the_wire() {
        let gw = gateway();
        let reply = gw.handle(
            Envelope::new().with_promise_request(request_header("r1", "qty('widgets') >= 10")),
        );
        let id = reply.response_for("r1").unwrap().promise_id.unwrap();
        assert_eq!(gw.manager().live_count(), 1);
        gw.handle(Envelope::new().with_release(id));
        assert_eq!(gw.manager().live_count(), 0);
    }

    fn prepare_header(id: &str, predicate: &str) -> PromiseRequestHeader {
        PromiseRequestHeader {
            prepare: true,
            ..request_header(id, predicate)
        }
    }

    fn resolve(gw: &PromiseGateway, reference: ResolveRef, op: ResolutionOp) -> ResolutionResponse {
        let reply = gw.handle(Envelope::new().with_resolution(reference, op));
        reply.resolution_responses.into_iter().next().unwrap()
    }

    #[test]
    fn prepared_hold_reserves_until_committed() {
        let gw = gateway();
        let reply = gw.handle(
            Envelope::new().with_promise_request(prepare_header("p1", "qty('widgets') >= 8")),
        );
        let id = reply.response_for("p1").unwrap().promise_id.unwrap();
        assert!(gw.manager().is_prepared(promises_core::PromiseId(id)));
        // The hold reserves like any grant: a conflicting request rejects.
        let reply = gw.handle(
            Envelope::new().with_promise_request(request_header("r2", "qty('widgets') >= 8")),
        );
        assert!(matches!(
            reply.response_for("r2").unwrap().result,
            PromiseResult::Rejected(_)
        ));
        let resp = resolve(&gw, ResolveRef::Id(id), ResolutionOp::Commit);
        assert!(resp.applied, "first commit applies: {:?}", resp.error);
        assert!(!gw.manager().is_prepared(promises_core::PromiseId(id)));
        // Idempotent: a retried commit is acknowledged without re-applying.
        let again = resolve(&gw, ResolveRef::Id(id), ResolutionOp::Commit);
        assert!(!again.applied);
        assert!(again.error.is_none());
    }

    #[test]
    fn aborted_hold_releases_resources() {
        let gw = gateway();
        let reply = gw.handle(
            Envelope::new().with_promise_request(prepare_header("p1", "qty('widgets') >= 8")),
        );
        let id = reply.response_for("p1").unwrap().promise_id.unwrap();
        let resp = resolve(&gw, ResolveRef::Id(id), ResolutionOp::Abort);
        assert!(resp.applied);
        assert_eq!(gw.manager().live_count(), 0);
        // The freed quantity is grantable again.
        let reply = gw.handle(
            Envelope::new().with_promise_request(request_header("r2", "qty('widgets') >= 8")),
        );
        assert!(matches!(
            reply.response_for("r2").unwrap().result,
            PromiseResult::Accepted
        ));
    }

    #[test]
    fn request_keyed_resolution_finds_hold_and_tolerates_absence() {
        let gw = gateway();
        gw.handle(
            Envelope::new().with_promise_request(prepare_header("p1", "qty('widgets') >= 3")),
        );
        // Abort by (client, request) — the reply-was-lost recovery path.
        let by_request = ResolveRef::Request {
            client: "test".into(),
            request: "p1".into(),
        };
        let resp = resolve(&gw, by_request.clone(), ResolutionOp::Abort);
        assert!(resp.applied);
        assert_eq!(gw.manager().live_count(), 0);
        // A shard that never saw the prepare has nothing to do.
        let resp = resolve(&gw, by_request, ResolutionOp::Abort);
        assert!(!resp.applied);
        assert!(resp.error.is_none());
    }

    #[test]
    fn prepare_and_negotiate_do_not_compose() {
        let gw = gateway();
        let reply = gw.handle(Envelope::new().with_promise_request(PromiseRequestHeader {
            negotiate: true,
            ..prepare_header("p1", "qty('widgets') >= 1")
        }));
        assert!(matches!(
            reply.response_for("p1").unwrap().result,
            PromiseResult::Rejected(_)
        ));
        assert_eq!(gw.manager().live_count(), 0);
    }

    #[test]
    fn violating_action_reported_as_failure() {
        let gw = gateway();
        // Grant 8; then an unprotected purchase of 5 must roll back.
        gw.handle(
            Envelope::new().with_promise_request(request_header("r1", "qty('widgets') >= 8")),
        );
        let reply = gw.handle(
            Envelope::new().with_action(ActionRequest::new("merchant", "purchase").param("qty", 5)),
        );
        let resp = reply.action_response.unwrap();
        assert!(!resp.ok);
        assert!(resp.error.unwrap().contains("rolled back"));
    }
}

#[cfg(test)]
mod negotiate_tests {
    use super::*;
    use crate::envelope::{Envelope, PromiseRequestHeader, PromiseResult};
    use promises_core::{PoolSchema, PropertyDef, SystemClock};
    use promises_rm::Record;

    fn hotel_gateway() -> PromiseGateway {
        let rm = Arc::new(ResourceManager::new());
        let pm = Arc::new(PromiseManager::new(rm, Arc::new(SystemClock::new())));
        pm.register_pool(PoolSchema::instances(
            "rooms",
            vec![PropertyDef::plain("view"), PropertyDef::plain("beds")],
        ));
        pm.seed_instance(
            "rooms",
            "101",
            Record::new().with("view", false).with("beds", 2i64),
        )
        .unwrap();
        PromiseGateway::new(pm)
    }

    fn negotiable(id: &str, predicate: &str) -> PromiseRequestHeader {
        PromiseRequestHeader {
            request_id: id.into(),
            client: "test".into(),
            predicates: vec![predicate.into()],
            duration_ms: 60_000,
            exchange: vec![],
            negotiate: true,
            prepare: false,
        }
    }

    #[test]
    fn negotiated_request_accepted_with_condition() {
        let gw = hotel_gateway();
        let reply = gw.handle(Envelope::new().with_promise_request(negotiable(
            "r1",
            "prop('rooms'): beds == 2 && desirable(view == true)",
        )));
        let resp = reply.response_for("r1").unwrap();
        assert!(matches!(
            &resp.result,
            PromiseResult::AcceptedWithCondition(c) if c.contains("1 desirable")
        ));
        assert!(resp.promise_id.is_some());
        assert_eq!(resp.granted_predicates.len(), 1);
        assert!(
            !resp.granted_predicates[0].contains("desirable(view"),
            "granted form must have the desirable weakened: {}",
            resp.granted_predicates[0]
        );
    }

    #[test]
    fn negotiated_request_plain_accept_when_fully_satisfiable() {
        let gw = hotel_gateway();
        let reply = gw.handle(Envelope::new().with_promise_request(negotiable(
            "r1",
            "prop('rooms'): beds == 2 && desirable(view == false)",
        )));
        let resp = reply.response_for("r1").unwrap();
        assert!(matches!(resp.result, PromiseResult::Accepted));
    }

    #[test]
    fn negotiated_request_rejected_when_essentials_fail() {
        let gw = hotel_gateway();
        let reply = gw.handle(Envelope::new().with_promise_request(negotiable(
            "r1",
            "prop('rooms'): beds == 7 && desirable(view == true)",
        )));
        assert!(matches!(
            reply.response_for("r1").unwrap().result,
            PromiseResult::Rejected(_)
        ));
    }

    #[test]
    fn over_ask_on_an_instance_pool_is_refused_at_once() {
        let gw = hotel_gateway();
        for (id, predicate) in [
            ("q", "qty('rooms') >= 9223372036854775807"),
            ("p", "prop('rooms', 4294967295): beds == 2"),
        ] {
            let mut header = negotiable(id, predicate);
            header.negotiate = false;
            // A refusal leaves nothing behind: the fastest of three is a
            // fair reading on a busy machine.
            let fastest = (0..3)
                .map(|_| {
                    let envelope = Envelope::new().with_promise_request(header.clone());
                    let started = std::time::Instant::now();
                    let reply = gw.handle(envelope);
                    let took = started.elapsed();
                    assert!(
                        matches!(
                            &reply.response_for(id).unwrap().result,
                            PromiseResult::Rejected(why) if why.contains("rooms")
                        ),
                        "{predicate}: {reply:?}"
                    );
                    took
                })
                .min()
                .unwrap();
            assert!(fastest.as_millis() < 10, "{predicate} took {fastest:?}");
        }
    }

    #[test]
    fn negotiated_response_roundtrips_the_codec() {
        let gw = hotel_gateway();
        let reply = gw.handle(Envelope::new().with_promise_request(negotiable(
            "r1",
            "prop('rooms'): beds == 2 && desirable(view == true)",
        )));
        let xml = crate::codec::encode(&reply);
        let back = crate::codec::decode(&xml).unwrap();
        assert_eq!(back, reply);
    }
}
