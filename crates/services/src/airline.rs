//! Airline seating: named and anonymous views coexisting (§3.2).
//!
//! "Each seat on a flight has a unique name (e.g. seat 24G on QF1
//! departing on 8/10/2007). Some client applications may let customers
//! try to book specific seats ... In many cases though, all economy seats
//! will be regarded as equivalent." A seat promised by name must never be
//! double-counted toward a class-based promise — the matching-based
//! checker guarantees this.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use promises_core::{
    status, Catalog, Environment, PoolId, PoolSchema, Predicate, PromiseDecision, PromiseError,
    PromiseId, PromiseManager, PromiseRequestSpec, PropExpr, PropertyDef, RejectReason,
};
use promises_rm::Record;

fn flight_pool(flight: &str) -> String {
    format!("seats:{flight}")
}

/// An airline selling seats on flights.
pub struct Airline {
    pm: Arc<PromiseManager>,
    next_req: AtomicU64,
}

impl Airline {
    /// Creates an airline over a promise manager.
    pub fn new(pm: Arc<PromiseManager>) -> Self {
        Self {
            pm,
            next_req: AtomicU64::new(1),
        }
    }

    /// The promise manager this airline uses.
    pub fn manager(&self) -> &Arc<PromiseManager> {
        &self.pm
    }

    /// Registers a flight with rows of seats: `(seat, class, window)`.
    pub fn add_flight(
        &self,
        flight: &str,
        seats: &[(&str, &str, bool)],
    ) -> Result<(), PromiseError> {
        self.pm.register_pool(PoolSchema::instances(
            flight_pool(flight).as_str(),
            vec![
                PropertyDef::ordered("class", &["economy", "premium", "business", "first"]),
                PropertyDef::plain("window"),
            ],
        ));
        for (seat, class, window) in seats {
            self.pm.seed_instance(
                flight_pool(flight).as_str(),
                *seat,
                Record::new().with("class", *class).with("window", *window),
            )?;
        }
        Ok(())
    }

    /// Promises a specific seat by name.
    pub fn promise_seat(
        &self,
        client: &str,
        flight: &str,
        seat: &str,
        duration_ms: u64,
    ) -> Result<Result<PromiseId, RejectReason>, PromiseError> {
        let n = self.next_req.fetch_add(1, Ordering::Relaxed);
        let resp = self.pm.request(
            PromiseRequestSpec::new(
                promises_core::RequestId(format!("seat-{n}")),
                promises_core::ClientId(client.to_owned()),
            )
            .predicate(Predicate::named(flight_pool(flight).as_str(), seat))
            .duration_ms(duration_ms),
        )?;
        Ok(match resp.decision {
            PromiseDecision::Granted { promise, .. } => Ok(promise),
            PromiseDecision::Rejected { reason } => Err(reason),
        })
    }

    /// Promises `count` seats of `class` *or better* (§3.3's ordered
    /// acceptability: "a customer who holds a promise for an economy
    /// class airline seat will not normally complain if ... upgraded").
    pub fn promise_class(
        &self,
        client: &str,
        flight: &str,
        class: &str,
        count: u32,
        duration_ms: u64,
    ) -> Result<Result<PromiseId, RejectReason>, PromiseError> {
        let n = self.next_req.fetch_add(1, Ordering::Relaxed);
        let resp = self.pm.request(
            PromiseRequestSpec::new(
                promises_core::RequestId(format!("class-{n}")),
                promises_core::ClientId(client.to_owned()),
            )
            .predicate(Predicate::property(
                flight_pool(flight).as_str(),
                PropExpr::at_least("class", class),
                count,
            ))
            .duration_ms(duration_ms),
        )?;
        Ok(match resp.decision {
            PromiseDecision::Granted { promise, .. } => Ok(promise),
            PromiseDecision::Rejected { reason } => Err(reason),
        })
    }

    /// Issues tickets for the seats allocated to a promise, releasing it.
    /// Returns the seat numbers ticketed.
    pub fn ticket(&self, flight: &str, promise: PromiseId) -> Result<Vec<String>, PromiseError> {
        let pool = PoolId::from(flight_pool(flight).as_str());
        let rec = self
            .pm
            .promise(promise)
            .ok_or(PromiseError::UnknownPromise(promise))?;
        let seats: Vec<String> = rec
            .allocated_in(&pool)
            .into_iter()
            .map(|i| i.0.clone())
            .collect();
        if seats.is_empty() {
            return Err(PromiseError::ActionFailed(
                "promise holds no seat allocations".into(),
            ));
        }
        let table = Catalog::instance_table(&pool);
        let to_take = seats.clone();
        self.pm
            .execute(&Environment::none().releasing(promise), move |rm, txn| {
                for seat in &to_take {
                    rm.update(txn, &table, seat, |r| {
                        r.set(Catalog::STATUS, status::TAKEN);
                    })
                    .map_err(promises_core::ActionError::from)?;
                }
                Ok(())
            })?;
        Ok(seats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use promises_core::SystemClock;
    use promises_rm::ResourceManager;

    fn airline() -> Airline {
        let rm = Arc::new(ResourceManager::new());
        let pm = Arc::new(PromiseManager::new(rm, Arc::new(SystemClock::new())));
        let a = Airline::new(pm);
        a.add_flight(
            "QF1",
            &[
                ("24G", "economy", false),
                ("24A", "economy", true),
                ("12A", "business", true),
            ],
        )
        .unwrap();
        a
    }

    #[test]
    fn named_seat_excluded_from_class_pool() {
        let a = airline();
        let _named = a
            .promise_seat("alice", "QF1", "24G", 60_000)
            .unwrap()
            .unwrap();
        // Only 24A remains in economy.
        let _class = a
            .promise_class("bob", "QF1", "economy", 1, 60_000)
            .unwrap()
            .unwrap();
        assert!(
            a.promise_class("carol", "QF1", "economy", 1, 60_000)
                .unwrap()
                .is_ok(),
            "carol can still be upgraded to business (economy-or-better)"
        );
        // A fourth economy-or-better request must fail: 3 seats, 3 promises.
        assert!(a
            .promise_class("dave", "QF1", "economy", 1, 60_000)
            .unwrap()
            .is_err());
    }

    #[test]
    fn upgrade_fulfils_economy_promise() {
        let a = airline();
        // Take both economy seats by name; an economy-or-better promise
        // must still be satisfiable via the business seat.
        a.promise_seat("x", "QF1", "24G", 60_000).unwrap().unwrap();
        a.promise_seat("y", "QF1", "24A", 60_000).unwrap().unwrap();
        let p = a
            .promise_class("z", "QF1", "economy", 1, 60_000)
            .unwrap()
            .unwrap();
        let seats = a.ticket("QF1", p).unwrap();
        assert_eq!(seats, vec!["12A".to_owned()], "upgraded to business");
    }

    #[test]
    fn business_promise_not_satisfied_by_economy() {
        let a = airline();
        let _b = a
            .promise_class("x", "QF1", "business", 1, 60_000)
            .unwrap()
            .unwrap();
        assert!(a
            .promise_class("y", "QF1", "business", 1, 60_000)
            .unwrap()
            .is_err());
    }

    #[test]
    fn ticketing_multiple_seats() {
        let a = airline();
        let p = a
            .promise_class("group", "QF1", "economy", 3, 60_000)
            .unwrap()
            .unwrap();
        let seats = a.ticket("QF1", p).unwrap();
        assert_eq!(seats.len(), 3);
        assert!(a.pm.free_instances(flight_pool("QF1")).unwrap().is_empty());
    }
}
