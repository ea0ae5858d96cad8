//! Hotel booking over property-view promises (§3.3).
//!
//! Rooms expose floor / view / smoking / beds / class properties; clients
//! promise "a 5th-floor room" or "a non-smoking room with a view and twin
//! beds, ideally deluxe" and book whichever instance the manager's
//! tentative allocation settles on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use promises_core::{
    status, Catalog, Environment, InstanceId, PoolId, PoolSchema, Predicate, PromiseDecision,
    PromiseError, PromiseId, PromiseManager, PromiseRequestSpec, PropExpr, PropertyDef,
    RejectReason,
};
use promises_rm::Record;

/// The room pool id.
pub const ROOM_POOL: &str = "rooms";

/// Declarative room description for seeding.
#[derive(Debug, Clone)]
pub struct RoomSpec {
    /// Room number, e.g. "512".
    pub number: String,
    /// Floor.
    pub floor: i64,
    /// Has a view?
    pub view: bool,
    /// Smoking allowed?
    pub smoking: bool,
    /// Number of beds.
    pub beds: i64,
    /// `standard`, `deluxe`, or `suite`.
    pub class: String,
}

impl RoomSpec {
    /// Convenience constructor.
    pub fn new(
        number: &str,
        floor: i64,
        view: bool,
        smoking: bool,
        beds: i64,
        class: &str,
    ) -> Self {
        Self {
            number: number.to_owned(),
            floor,
            view,
            smoking,
            beds,
            class: class.to_owned(),
        }
    }
}

/// A hotel booking service.
pub struct Hotel {
    pm: Arc<PromiseManager>,
    next_req: AtomicU64,
}

impl Hotel {
    /// Creates the hotel and registers its room pool (tentative
    /// allocation, the §5 technique that matches the paper's room-512
    /// example).
    pub fn new(pm: Arc<PromiseManager>) -> Self {
        pm.register_pool(PoolSchema::instances(
            ROOM_POOL,
            vec![
                PropertyDef::plain("floor"),
                PropertyDef::plain("view"),
                PropertyDef::plain("smoking"),
                PropertyDef::plain("beds"),
                PropertyDef::ordered("class", &["standard", "deluxe", "suite"]),
            ],
        ));
        Self {
            pm,
            next_req: AtomicU64::new(1),
        }
    }

    /// The promise manager this hotel uses.
    pub fn manager(&self) -> &Arc<PromiseManager> {
        &self.pm
    }

    /// Adds a room.
    pub fn add_room(&self, spec: RoomSpec) -> Result<(), PromiseError> {
        self.pm.seed_instance(
            ROOM_POOL,
            spec.number.as_str(),
            Record::new()
                .with("floor", spec.floor)
                .with("view", spec.view)
                .with("smoking", spec.smoking)
                .with("beds", spec.beds)
                .with("class", spec.class.as_str()),
        )
    }

    /// Promises a room matching `requirements` (see
    /// [`promises_core::PropExpr`]) for `duration_ms`.
    pub fn promise_room(
        &self,
        client: &str,
        requirements: PropExpr,
        duration_ms: u64,
    ) -> Result<Result<PromiseId, RejectReason>, PromiseError> {
        let n = self.next_req.fetch_add(1, Ordering::Relaxed);
        let resp = self.pm.request(
            PromiseRequestSpec::new(
                promises_core::RequestId(format!("room-{n}")),
                promises_core::ClientId(client.to_owned()),
            )
            .predicate(Predicate::property(ROOM_POOL, requirements, 1))
            .duration_ms(duration_ms),
        )?;
        Ok(match resp.decision {
            PromiseDecision::Granted { promise, .. } => Ok(promise),
            PromiseDecision::Rejected { reason } => Err(reason),
        })
    }

    /// Promises one specific room by number (named view).
    pub fn promise_specific_room(
        &self,
        client: &str,
        number: &str,
        duration_ms: u64,
    ) -> Result<Result<PromiseId, RejectReason>, PromiseError> {
        let n = self.next_req.fetch_add(1, Ordering::Relaxed);
        let resp = self.pm.request(
            PromiseRequestSpec::new(
                promises_core::RequestId(format!("room-named-{n}")),
                promises_core::ClientId(client.to_owned()),
            )
            .predicate(Predicate::named(ROOM_POOL, number))
            .duration_ms(duration_ms),
        )?;
        Ok(match resp.decision {
            PromiseDecision::Granted { promise, .. } => Ok(promise),
            PromiseDecision::Rejected { reason } => Err(reason),
        })
    }

    /// Books the room currently allocated to the promise, marking it
    /// taken and releasing the promise atomically. Returns the room
    /// number booked — which instance fulfils the promise is decided by
    /// the manager, as the paper requires ("a room matching the
    /// requirements will be available, not that the client has been
    /// assigned room 512").
    pub fn book(&self, promise: PromiseId) -> Result<String, PromiseError> {
        let rec = self
            .pm
            .promise(promise)
            .ok_or(PromiseError::UnknownPromise(promise))?;
        let room = rec
            .allocated_in(&PoolId::from(ROOM_POOL))
            .first()
            .map(|i| i.0.clone())
            .ok_or_else(|| PromiseError::ActionFailed("promise holds no room allocation".into()))?;
        let table = Catalog::instance_table(&PoolId::from(ROOM_POOL));
        let booked = room.clone();
        self.pm
            .execute(&Environment::none().releasing(promise), move |rm, txn| {
                rm.update(txn, &table, &room, |r| {
                    r.set(Catalog::STATUS, status::TAKEN);
                })
                .map_err(promises_core::ActionError::from)
            })?;
        Ok(booked)
    }

    /// Cancels a room promise.
    pub fn cancel(&self, promise: PromiseId) -> Result<(), PromiseError> {
        self.pm.release(promise)
    }

    /// Rooms currently available (not promised, not taken).
    pub fn available_rooms(&self) -> Result<Vec<String>, PromiseError> {
        let rooms = self.pm.free_instances(ROOM_POOL)?;
        Ok(rooms.into_iter().map(|room| room.0).collect())
    }
}

/// The room instance a promise is currently (tentatively) assigned.
pub fn allocated_room(pm: &PromiseManager, promise: PromiseId) -> Option<InstanceId> {
    pm.promise(promise)?
        .allocated_in(&PoolId::from(ROOM_POOL))
        .first()
        .map(|i| (*i).clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use promises_core::{PromiseJournal, SystemClock};
    use promises_rm::ResourceManager;

    fn hotel() -> Hotel {
        let rm = Arc::new(ResourceManager::new());
        hotel_over(PromiseManager::new(rm, Arc::new(SystemClock::new())))
    }

    /// The three-room hotel on `pm`.
    fn hotel_over(pm: PromiseManager) -> Hotel {
        let h = Hotel::new(Arc::new(pm));
        h.add_room(RoomSpec::new("101", 1, false, false, 1, "standard"))
            .unwrap();
        h.add_room(RoomSpec::new("512", 5, true, false, 2, "standard"))
            .unwrap();
        h.add_room(RoomSpec::new("610", 6, true, false, 2, "deluxe"))
            .unwrap();
        h
    }

    #[test]
    fn paper_room_512_rearrangement() {
        let h = hotel();
        let view = h
            .promise_room("alice", PropExpr::eq("view", true), 60_000)
            .unwrap()
            .unwrap();
        let fifth = h
            .promise_room("bob", PropExpr::eq("floor", 5i64), 60_000)
            .unwrap()
            .unwrap();
        // Bob must end with 512 (only 5th-floor room); Alice with 610.
        let alice_room = h.book(view).unwrap();
        let bob_room = h.book(fifth).unwrap();
        assert_eq!(bob_room, "512");
        assert_eq!(alice_room, "610");
    }

    #[test]
    fn booking_marks_taken_and_releases() {
        let h = hotel();
        let p = h
            .promise_specific_room("alice", "101", 60_000)
            .unwrap()
            .unwrap();
        let room = h.book(p).unwrap();
        assert_eq!(room, "101");
        assert!(!h.available_rooms().unwrap().contains(&"101".to_owned()));
        assert_eq!(h.manager().live_count(), 0);
    }

    #[test]
    fn negotiation_style_requirements() {
        let h = hotel();
        let p = h
            .promise_room(
                "alice",
                PropExpr::all([
                    PropExpr::eq("smoking", false),
                    PropExpr::eq("beds", 2i64),
                    PropExpr::at_least("class", "deluxe"),
                ]),
                60_000,
            )
            .unwrap()
            .unwrap();
        assert_eq!(h.book(p).unwrap(), "610");
    }

    #[test]
    fn cancel_returns_room_to_pool() {
        let h = hotel();
        let p = h
            .promise_specific_room("a", "512", 60_000)
            .unwrap()
            .unwrap();
        assert!(!h.available_rooms().unwrap().contains(&"512".to_owned()));
        h.cancel(p).unwrap();
        assert!(h.available_rooms().unwrap().contains(&"512".to_owned()));
    }

    /// A hotel restarted over fresh storage still does not offer a room a
    /// recovered promise holds: who holds a room is what the promise
    /// records say, and recovery rebuilds those.
    #[test]
    fn a_recovered_hold_is_not_listed() {
        let journal = Arc::new(PromiseJournal::new());
        let clock: Arc<SystemClock> = Arc::new(SystemClock::new());
        let fresh = || PromiseManager::new(Arc::new(ResourceManager::new()), clock.clone());
        let h = hotel_over(fresh().with_journal(journal.clone()));
        let p = h
            .promise_specific_room("alice", "512", 60_000)
            .unwrap()
            .unwrap();
        assert_eq!(h.available_rooms().unwrap(), ["101", "610"]);

        let restarted = hotel_over(fresh());
        let lines = PromiseJournal::from_lines(&journal.lines()).unwrap();
        restarted.manager().recover(Arc::new(lines)).unwrap();
        assert!(restarted.manager().peek_promise(p).is_some());
        assert_eq!(restarted.available_rooms().unwrap(), ["101", "610"]);
    }

    #[test]
    fn sold_out_rejects() {
        let h = hotel();
        for _ in 0..3 {
            h.promise_room("x", PropExpr::True, 60_000)
                .unwrap()
                .unwrap();
        }
        assert!(h
            .promise_room("y", PropExpr::True, 60_000)
            .unwrap()
            .is_err());
    }
}
