//! Promise negotiation over desirable properties (paper §3.3).
//!
//! "Users may regard some properties as essential and others as desirable
//! but not required ... The interplay between essential and desirable
//! properties when obtaining a promise may be complicated and could lead
//! to systems where the promise requestor and the promise maker negotiate
//! to find a promise that is both satisfiable and maximally desirable."
//!
//! The negotiation implemented here is the paper's example ladder: start
//! from the full request; while rejected, weaken it by dropping the least
//! important [`PropExpr::Desirable`] clause (last in DFS order) and retry;
//! stop at the first grant or when only essential clauses remain and those
//! are still rejected.

use crate::error::PromiseError;
use crate::manager::{PromiseDecision, PromiseManager, PromiseRequestSpec, PromiseResponse};
use crate::predicate::Predicate;

/// Outcome of a negotiated request.
#[derive(Debug, Clone)]
pub struct NegotiatedResponse {
    /// The final response (granted or the essential-only rejection).
    pub response: PromiseResponse,
    /// How many desirable clauses were dropped, per predicate, to reach
    /// the granted form (all zeros if granted as asked).
    pub dropped_per_predicate: Vec<usize>,
    /// The predicates as actually granted (weakened forms).
    pub granted_predicates: Vec<Predicate>,
}

impl NegotiatedResponse {
    /// Total desirable clauses dropped across all predicates.
    pub fn total_dropped(&self) -> usize {
        self.dropped_per_predicate.iter().sum()
    }
}

impl PromiseManager {
    /// Requests a promise, negotiating away desirable clauses if the full
    /// request cannot be granted. Each retry drops one more desirable
    /// clause (globally, last-first across the predicate list).
    pub fn request_negotiated(
        &self,
        spec: PromiseRequestSpec,
    ) -> Result<NegotiatedResponse, PromiseError> {
        // A replayed request (same client + request id — a duplicated
        // message, or a resend after a lost reply) must report the
        // *original* negotiated outcome. Re-running the ladder would hit
        // grant dedup at rung 0 and come back labelled as an unweakened
        // grant — misreporting the condition the client actually accepted
        // and echoing predicates stronger than the ones held.
        if let Some(existing) = self.promise_for_request(&spec.client, &spec.request) {
            if let Some(rec) = self.promise(existing) {
                let dropped_per_predicate = spec
                    .predicates
                    .iter()
                    .zip(&rec.predicates)
                    .map(|(asked, granted)| desirables(asked).saturating_sub(desirables(granted)))
                    .collect();
                return Ok(NegotiatedResponse {
                    response: PromiseResponse {
                        correlation: spec.request,
                        decision: PromiseDecision::Granted {
                            promise: rec.id,
                            expires_at: rec.expires_at,
                        },
                    },
                    dropped_per_predicate,
                    granted_predicates: rec.predicates,
                });
            }
        }

        for rung in ladder(&spec.predicates) {
            let mut attempt = spec.clone();
            attempt.predicates = rung.predicates.clone();
            let response = self.request(attempt)?;
            if matches!(response.decision, PromiseDecision::Granted { .. }) || rung.last {
                return Ok(NegotiatedResponse {
                    response,
                    dropped_per_predicate: rung.dropped,
                    granted_predicates: rung.predicates,
                });
            }
        }
        unreachable!("the ladder always returns on its last rung")
    }
}

/// One rung of the §3.3 ladder.
#[derive(Debug)]
pub struct Rung {
    /// The predicates as weakened on this rung.
    pub predicates: Vec<Predicate>,
    /// Desirable clauses dropped, per predicate.
    pub dropped: Vec<usize>,
    /// True on the essential-only rung, the last one to try.
    pub last: bool,
}

/// The §3.3 ladder over `preds`: rung `n` drops `n` desirable clauses,
/// the last predicate's first, until only essential clauses remain. The
/// request as asked is rung 0, and a request with no desirable clause is
/// one rung.
///
/// Public so remote negotiators (the cluster coordinator's cross-shard
/// ladder) weaken requests with exactly the same discipline as the local
/// [`PromiseManager::request_negotiated`] loop — rung `n` of any ladder is
/// the same predicate list no matter where it is computed.
pub fn ladder(preds: &[Predicate]) -> impl Iterator<Item = Rung> + '_ {
    let max_drops: usize = preds.iter().map(desirables).sum();
    (0..=max_drops).map(move |n| {
        let (predicates, dropped) = weaken_predicates(preds, n);
        Rung {
            predicates,
            dropped,
            last: n == max_drops,
        }
    })
}

/// Desirable-clause count of one predicate (0 for non-property forms).
fn desirables(p: &Predicate) -> usize {
    match p {
        Predicate::Property { expr, .. } => expr.desirable_count(),
        _ => 0,
    }
}

/// Weakens the predicate list by dropping `total_drop` desirable clauses,
/// taking from the *last* predicate's desirables first. Returns the new
/// predicates and the per-predicate drop counts.
fn weaken_predicates(preds: &[Predicate], mut total_drop: usize) -> (Vec<Predicate>, Vec<usize>) {
    let mut out: Vec<Predicate> = preds.to_vec();
    let mut dropped = vec![0usize; preds.len()];
    for i in (0..out.len()).rev() {
        if total_drop == 0 {
            break;
        }
        if let Predicate::Property { pool, expr, count } = &out[i] {
            let avail = expr.desirable_count();
            let take = avail.min(total_drop);
            if take > 0 {
                out[i] = Predicate::property(pool.clone(), expr.weakened(take), *count);
                dropped[i] = take;
                total_drop -= take;
            }
        }
    }
    (out, dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::PropExpr;

    #[test]
    fn weaken_takes_from_last_predicate_first() {
        let preds = vec![
            Predicate::property("a", PropExpr::all([PropExpr::eq("x", 1i64).desirable()]), 1),
            Predicate::property(
                "b",
                PropExpr::all([
                    PropExpr::eq("y", 1i64).desirable(),
                    PropExpr::eq("z", 1i64).desirable(),
                ]),
                1,
            ),
        ];
        let (_, dropped) = weaken_predicates(&preds, 1);
        assert_eq!(dropped, vec![0, 1]);
        let (_, dropped) = weaken_predicates(&preds, 2);
        assert_eq!(dropped, vec![0, 2]);
        let (_, dropped) = weaken_predicates(&preds, 3);
        assert_eq!(dropped, vec![1, 2]);
        let (out, dropped) = weaken_predicates(&preds, 99);
        assert_eq!(dropped, vec![1, 2]);
        // Fully weakened predicates have no desirables left.
        for p in &out {
            if let Predicate::Property { expr, .. } = p {
                assert_eq!(expr.desirable_count(), 0);
            }
        }
    }

    #[test]
    fn non_property_predicates_are_untouched() {
        let preds = vec![Predicate::qty_at_least("w", 5)];
        let (out, dropped) = weaken_predicates(&preds, 3);
        assert_eq!(out, preds);
        assert_eq!(dropped, vec![0]);
    }
}
