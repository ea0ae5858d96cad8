//! A booking desk: the §5 delegation chain as a front-office service.
//!
//! Where [`crate::TravelAgent`] drives one promise manager that owns every
//! pool, the booking desk models the production topology: an *edge*
//! service with only a small local voucher pool of its own, which
//! delegates every real resource (flight seats, rental cars, …) to the
//! upstream managers that actually own them — in a sharded deployment,
//! the per-shard promise managers. A booking is one atomic multi-predicate
//! request (§4): the desk's manager acquires a backing promise from every
//! upstream first and compensates them all if any leg fails, so the
//! customer sees all-or-nothing even though no upstream knows about the
//! others.
//!
//! When an upstream shard fails over to a promoted warm follower, the
//! desk re-points its delegation by calling [`BookingDesk::delegate`]
//! again. Which upstream promise backs a booking is recorded only in the
//! upstream's request index, which the follower replays from the
//! journal, so live chains keep cascading releases to the promoted node.

use std::sync::Arc;

use promises_core::{
    ClientId, PoolId, PoolSchema, Predicate, PromiseDecision, PromiseError, PromiseId,
    PromiseManager, PromiseRequestSpec, RejectReason, RequestId,
};

/// The desk's own local pool: one voucher is consumed per booking, so
/// even a fully-delegated booking has a local footprint (and a local
/// journal record) at the edge.
pub const VOUCHER_POOL: &str = "desk-vouchers";

/// An edge booking service whose real resources live upstream.
pub struct BookingDesk {
    pm: Arc<PromiseManager>,
}

impl BookingDesk {
    /// Creates a desk with `vouchers` units of local booking capacity on
    /// the given (usually edge-local) promise manager.
    pub fn new(pm: Arc<PromiseManager>, vouchers: u64) -> Result<Self, PromiseError> {
        pm.register_pool(PoolSchema::quantity(VOUCHER_POOL));
        pm.seed_quantity(VOUCHER_POOL, vouchers)?;
        Ok(Self { pm })
    }

    /// Routes bookings touching `pool` to the upstream manager that owns
    /// it (§5 delegation), or re-points it after that upstream failed over
    /// to a promoted replacement; refused if `upstream` delegates the pool
    /// back to this desk.
    pub fn delegate(
        &self,
        pool: impl Into<PoolId>,
        upstream: Arc<PromiseManager>,
    ) -> Result<(), PromiseError> {
        self.pm.delegate_pool(pool, upstream)
    }

    /// The desk's promise manager.
    pub fn manager(&self) -> &Arc<PromiseManager> {
        &self.pm
    }

    /// Books the given `(pool, units)` legs plus one local voucher as a
    /// single atomic promise under an explicit request id — retries with
    /// the same id are deduplicated end to end (desk and upstreams alike),
    /// so a nervous client can resend without double-booking.
    pub fn book(
        &self,
        client: &str,
        request: &str,
        legs: &[(String, u64)],
        duration_ms: u64,
    ) -> Result<Result<PromiseId, RejectReason>, PromiseError> {
        let mut spec =
            PromiseRequestSpec::new(RequestId(request.to_owned()), ClientId(client.to_owned()))
                .predicate(Predicate::qty_at_least(VOUCHER_POOL, 1))
                .duration_ms(duration_ms);
        for (pool, units) in legs {
            spec = spec.predicate(Predicate::qty_at_least(pool.as_str(), *units));
        }
        let resp = self.pm.request(spec)?;
        Ok(match resp.decision {
            PromiseDecision::Granted { promise, .. } => Ok(promise),
            PromiseDecision::Rejected { reason } => Err(reason),
        })
    }

    /// Cancels a booking: releasing the desk promise cascades the release
    /// to every upstream backing promise.
    pub fn cancel(&self, booking: PromiseId) -> Result<(), PromiseError> {
        self.pm.release(booking)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promises_core::{PromiseJournal, SystemClock};
    use promises_rm::ResourceManager;

    fn pm() -> Arc<PromiseManager> {
        Arc::new(PromiseManager::new(
            Arc::new(ResourceManager::new()),
            Arc::new(SystemClock::new()),
        ))
    }

    /// An upstream owning `qty` units of `pool`, journalled so a
    /// fail-over replacement can be recovered from it.
    fn upstream(pool: &str, qty: u64) -> Arc<PromiseManager> {
        let m = Arc::new(
            PromiseManager::new(
                Arc::new(ResourceManager::new()),
                Arc::new(SystemClock::new()),
            )
            .with_journal(Arc::new(PromiseJournal::new())),
        );
        m.register_pool(PoolSchema::quantity(pool));
        m.seed_quantity(pool, qty).unwrap();
        m
    }

    #[test]
    fn booking_spans_all_upstreams_atomically() {
        let flights = upstream("flights", 1);
        let cars = upstream("cars", 10);
        let desk = BookingDesk::new(pm(), 10).unwrap();
        desk.delegate("flights", Arc::clone(&flights)).unwrap();
        desk.delegate("cars", Arc::clone(&cars)).unwrap();

        let legs = vec![("flights".to_owned(), 1), ("cars".to_owned(), 1)];
        let b1 = desk.book("a", "r1", &legs, 60_000).unwrap().unwrap();
        assert_eq!(flights.live_count(), 1);
        assert_eq!(cars.live_count(), 1);

        // Flight exhausted: the whole booking fails and the car promise
        // acquired first is compensated, not leaked.
        let reason = desk.book("b", "r2", &legs, 60_000).unwrap().unwrap_err();
        assert!(matches!(reason, RejectReason::UpstreamRejected { .. }));
        assert_eq!(cars.live_count(), 1, "failed booking compensated the car");

        desk.cancel(b1).unwrap();
        assert_eq!(flights.live_count(), 0, "cancel cascades upstream");
        assert_eq!(cars.live_count(), 0);
    }

    #[test]
    fn retried_booking_is_deduplicated() {
        let flights = upstream("flights", 5);
        let desk = BookingDesk::new(pm(), 10).unwrap();
        desk.delegate("flights", Arc::clone(&flights)).unwrap();
        let legs = vec![("flights".to_owned(), 1)];
        let b1 = desk.book("a", "r1", &legs, 60_000).unwrap().unwrap();
        let b2 = desk.book("a", "r1", &legs, 60_000).unwrap().unwrap();
        assert_eq!(b1, b2, "same request id converges on one booking");
        assert_eq!(flights.live_count(), 1, "no duplicate backing promise");
    }

    #[test]
    fn rebind_keeps_cancel_cascading_after_upstream_swap() {
        let flights = upstream("flights", 5);
        let desk = BookingDesk::new(pm(), 10).unwrap();
        desk.delegate("flights", Arc::clone(&flights)).unwrap();
        let legs = vec![("flights".to_owned(), 1)];
        let booking = desk.book("a", "r1", &legs, 60_000).unwrap().unwrap();

        // Model a fail-over: a replacement manager is rebuilt by `recover`
        // from the original upstream's journal, as a promoted replica is,
        // and takes over the pool.
        let replacement = upstream("flights", 5);
        let shipped = PromiseJournal::from_lines(&flights.journal().unwrap().lines()).unwrap();
        replacement.recover(Arc::new(shipped)).unwrap();
        assert_eq!(replacement.live_count(), 1, "the backing promise replayed");
        desk.delegate("flights", Arc::clone(&replacement)).unwrap();

        desk.cancel(booking).unwrap();
        assert_eq!(
            replacement.live_count(),
            0,
            "cascade reached the replacement"
        );
    }
}
