//! Hotel booking over property-view promises (§3.3).
//!
//! Rooms expose floor / view / smoking / beds / class properties; clients
//! promise "a 5th-floor room" or "a non-smoking room with a view and twin
//! beds, ideally deluxe" through [`Hotel::manager`] and book whichever
//! instance the manager's tentative allocation settles on.

use std::sync::Arc;

use promises_core::{
    status, Catalog, Environment, InstanceId, PoolId, PoolSchema, PromiseError, PromiseId,
    PromiseManager, PropertyDef,
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
        Self { pm }
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
}

/// The room instance a promise is currently (tentatively) assigned.
pub fn allocated_room(pm: &PromiseManager, promise: PromiseId) -> Option<InstanceId> {
    pm.promise(promise)?
        .allocated_in(&PoolId::from(ROOM_POOL))
        .first()
        .map(|i| (*i).clone())
}
