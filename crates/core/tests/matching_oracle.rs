//! A property grant is a perfect matching: the manager's decisions over a
//! small instance pool against the exhaustive search of `support::model`,
//! the dumbest executable form (after Bergstra, Bethke & Burgess: say what
//! a promise *means*, then hold the clever code to it).

mod support;

use std::sync::Arc;

use proptest::prelude::*;

use promises_core::{
    status, Catalog, CheckStrategy, ClientId, Environment, InstanceId, ManualClock, PoolSchema,
    Predicate, PromiseId, PromiseManager, PromiseRequestSpec, PropExpr, PropertyDef, RequestId,
};
use promises_rm::{Record, ResourceManager};
use support::model::perfect_matching_exists;

const TABLE: &str = "inst:rooms";
const MAX_LIVE: usize = 6;

/// One instance as the oracle sees it, read back from the resource manager.
#[derive(Debug, Clone, PartialEq)]
struct Room {
    id: String,
    floor: i64,
    view: bool,
    beds: i64,
    status: String,
}

impl Room {
    fn matchable(&self) -> bool {
        self.status != status::TAKEN
    }
}

/// What a promise can want of a room: the expression handed to the
/// manager, and the same thing said in plain Rust for the oracle.
type Want = (fn() -> PropExpr, fn(&Room) -> bool);

const WANTS: [Want; 5] = [
    (|| PropExpr::True, |_| true),
    (|| PropExpr::eq("view", true), |r| r.view),
    (|| PropExpr::eq("floor", 1i64), |r| r.floor == 1),
    (|| PropExpr::eq("beds", 2i64), |r| r.beds == 2),
    (
        || PropExpr::all([PropExpr::eq("view", true), PropExpr::eq("beds", 2i64)]),
        |r| r.view && r.beds == 2,
    ),
];

/// One predicate of a live promise, in the oracle's terms.
#[derive(Debug, Clone)]
enum Asked {
    Named(String),
    Rooms {
        want: usize,
        count: usize,
    },
    /// The anonymous view over an instance pool: any `n` rooms.
    Any(usize),
}

impl Asked {
    fn predicate(&self) -> Predicate {
        match self {
            Asked::Named(id) => Predicate::named("rooms", id.as_str()),
            Asked::Rooms { want, count } => {
                Predicate::property("rooms", WANTS[*want].0(), *count as u32)
            }
            Asked::Any(n) => Predicate::qty_at_least("rooms", *n as u64),
        }
    }

    fn accepts(&self, room: &Room) -> bool {
        match self {
            Asked::Named(id) => room.id == *id,
            Asked::Rooms { want, .. } => WANTS[*want].1(room),
            Asked::Any(_) => true,
        }
    }

    fn slots(&self) -> usize {
        match self {
            Asked::Named(_) => 1,
            Asked::Rooms { count, .. } | Asked::Any(count) => *count,
        }
    }
}

#[derive(Debug, Clone)]
struct Live {
    id: PromiseId,
    asks: Vec<Asked>,
}

/// What the paper says a set of promises over an instance pool means:
/// every unit asked can be given a distinct untaken room it accepts.
fn honourable<'a>(rooms: &[Room], asks: impl Iterator<Item = &'a Asked>) -> bool {
    let slots: Vec<Vec<usize>> = asks
        .flat_map(|ask| {
            let accepted: Vec<usize> = (0..rooms.len())
                .filter(|&i| rooms[i].matchable() && ask.accepts(&rooms[i]))
                .collect();
            std::iter::repeat_n(accepted, ask.slots())
        })
        .collect();
    perfect_matching_exists(&slots, 0)
}

struct World {
    pm: PromiseManager,
    strategy: CheckStrategy,
    live: Vec<Live>,
}

impl World {
    fn new(strategy: CheckStrategy, rooms: &[(i64, bool, i64)]) -> Self {
        let pm = PromiseManager::new(
            Arc::new(ResourceManager::new()),
            Arc::new(ManualClock::new()),
        );
        let properties = ["floor", "view", "beds"].map(PropertyDef::plain);
        pm.register_pool(
            PoolSchema::instances("rooms", properties.to_vec()).with_strategy(strategy),
        );
        for (i, (floor, view, beds)) in rooms.iter().enumerate() {
            let props = Record::new()
                .with("floor", *floor)
                .with("view", *view)
                .with("beds", *beds);
            pm.seed_instance("rooms", format!("r{i}").as_str(), props)
                .unwrap();
        }
        Self {
            pm,
            strategy,
            live: Vec::new(),
        }
    }

    /// Both matching strategies decide exactly; allocated tags may refuse
    /// what re-arranging would allow, never the reverse.
    fn exact(&self) -> bool {
        self.strategy != CheckStrategy::AllocatedTags
    }

    fn rooms(&self) -> Vec<Room> {
        let rm = self.pm.rm();
        let txn = rm.begin();
        let rows = rm.scan(&txn, TABLE).unwrap();
        rm.commit(txn).unwrap();
        rows.into_iter()
            .map(|(id, rec)| Room {
                id,
                floor: rec.int("floor").unwrap(),
                view: rec.bool("view").unwrap(),
                beds: rec.int("beds").unwrap(),
                status: rec.str(Catalog::STATUS).unwrap().to_owned(),
            })
            .collect()
    }

    fn asks(live: &[Live]) -> impl Iterator<Item = &Asked> {
        live.iter().flat_map(|p| &p.asks)
    }

    fn request(&mut self, step: usize, asks: Vec<Asked>) -> Result<(), TestCaseError> {
        let may = honourable(&self.rooms(), Self::asks(&self.live).chain(&asks));
        let mut spec = PromiseRequestSpec::new(RequestId(format!("q{step}")), ClientId::from("c"));
        spec.predicates = asks.iter().map(Asked::predicate).collect();
        let granted = self.pm.request(spec).unwrap().decision.granted_id();
        if self.exact() {
            prop_assert_eq!(granted.is_some(), may, "request {:?}", &asks);
        } else {
            prop_assert!(
                granted.is_none() || may,
                "granted the impossible {:?}",
                &asks
            );
        }
        if let Some(id) = granted {
            self.live.push(Live { id, asks });
        }
        Ok(())
    }

    /// Runs `write` on room `at` as one action, releasing `releasing` with
    /// it: it stands exactly when the promises left can still be honoured
    /// in the pool as written, and is rolled back whole otherwise.
    fn act(
        &mut self,
        at: usize,
        releasing: Option<usize>,
        write: fn(&mut Room),
    ) -> Result<(), TestCaseError> {
        let before = self.rooms();
        let mut after = before.clone();
        write(&mut after[at]);
        let mut staying = self.live.clone();
        let leaving = releasing.map(|i| staying.remove(i));
        let may = honourable(&after, Self::asks(&staying));

        let env = match &leaving {
            Some(p) => Environment::none().releasing(p.id),
            None => Environment::none(),
        };
        let wrote = after[at].clone();
        let done = self.pm.execute(&env, |rm, txn| {
            rm.update(txn, TABLE, &wrote.id, |r| {
                r.set("view", wrote.view);
                r.set(Catalog::STATUS, wrote.status.as_str());
            })?;
            Ok(())
        });
        if self.exact() {
            prop_assert_eq!(done.is_ok(), may, "action on {} -> {:?}", &wrote.id, &done);
        } else {
            prop_assert!(
                done.is_err() || may,
                "action on {} broke a promise",
                &wrote.id
            );
        }
        if done.is_ok() {
            self.live = staying;
        } else {
            prop_assert_eq!(self.rooms(), before, "a refused action left a trace");
        }
        Ok(())
    }

    /// `(kind, pick, count)`: ask for rooms by name, by property, by bare
    /// quantity or two of those at once; release; under no promise, take a
    /// room or change the view of one — any room, or the one a promise
    /// holds, where the strategy says which that is; take the room a
    /// promise holds while releasing it. Ops that need a live promise do
    /// nothing without.
    fn step(&mut self, step: usize, op: (u8, usize, usize)) -> Result<(), TestCaseError> {
        let (kind, pick, count) = op;
        let rooms = self.rooms();
        let room = pick % rooms.len();
        let held = (!self.live.is_empty()).then(|| pick % self.live.len());
        let own = held
            .and_then(|i| self.pm.peek_promise(self.live[i].id))
            .and_then(|rec| rec.allocations.first().map(|a| a.instance.0.clone()))
            .map_or(room, |id| rooms.iter().position(|r| r.id == id).unwrap());
        let full = self.live.len() == MAX_LIVE;
        let named = Asked::Named(rooms[room].id.clone());
        let some = Asked::Rooms {
            want: pick % WANTS.len(),
            count,
        };
        match (if kind < 4 && full { 4 } else { kind }, held) {
            (0, _) => self.request(step, vec![named]),
            (1, _) => self.request(step, vec![some]),
            (2, _) => self.request(step, vec![Asked::Any(count)]),
            (3, _) if pick % 2 == 0 => self.request(step, vec![some, named]),
            (3, _) => self.request(step, vec![Asked::Any(count), some]),
            (4, Some(i)) => {
                let gone = self.live.remove(i);
                prop_assert!(self.pm.release(gone.id).is_ok());
                Ok(())
            }
            (5, _) => self.act(room, None, |r| r.status = status::TAKEN.to_owned()),
            (6, _) => {
                let at = if count == 1 { room } else { own };
                self.act(at, None, |r| r.view = !r.view)
            }
            (7, Some(i)) if rooms[own].matchable() => {
                self.act(own, Some(i), |r| r.status = status::TAKEN.to_owned())
            }
            _ => Ok(()),
        }
    }

    /// What the allocations say agrees with what the table says: every
    /// unit asked holds a distinct untaken room its predicate accepts, and
    /// the manager lists as free exactly the untaken rooms none of them
    /// holds (every untaken room under the satisfiability strategy, which
    /// allocates nothing).
    fn assert_allocations_are_a_matching(&self) -> Result<(), TestCaseError> {
        let rooms = self.rooms();
        let mut held: Vec<InstanceId> = Vec::new();
        for p in &self.live {
            let rec = self.pm.peek_promise(p.id).expect("live in the table");
            if self.strategy == CheckStrategy::Satisfiability {
                prop_assert!(rec.allocations.is_empty());
                continue;
            }
            for (pred_idx, ask) in p.asks.iter().enumerate() {
                let mine: Vec<&InstanceId> = rec
                    .allocations
                    .iter()
                    .filter(|a| a.pred_idx == pred_idx)
                    .map(|a| &a.instance)
                    .collect();
                prop_assert_eq!(mine.len(), ask.slots(), "{:?} holds {:?}", ask, &mine);
                for id in mine {
                    let room = rooms.iter().find(|r| r.id == id.0).expect("a real room");
                    prop_assert!(
                        room.matchable() && ask.accepts(room),
                        "{:?} on {:?}",
                        ask,
                        room
                    );
                    prop_assert!(!held.contains(id), "{} allocated twice", id);
                    held.push(id.clone());
                }
            }
        }
        let free = self.pm.free_instances("rooms").unwrap();
        for room in &rooms {
            let allocated = held.iter().any(|id| id.0 == room.id);
            let listed = free.iter().any(|id| id.0 == room.id);
            prop_assert_eq!(listed, room.matchable() && !allocated, "{:?}", room);
        }
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Over a pool of at most six rooms and at most six live promises —
    /// named, by property with count 1–3, by bare quantity — through
    /// grants, releases and actions that take or re-attribute a room,
    /// under each §5 strategy: the manager says yes exactly when a perfect
    /// matching exists (allocated tags: only when), and what it allocated
    /// is one.
    #[test]
    fn a_grant_means_a_perfect_matching_exists(
        strategy in 0usize..3,
        rooms in proptest::collection::vec((1i64..3, any::<bool>(), 1i64..3), 2..7),
        ops in proptest::collection::vec((0u8..8, 0usize..30, 1usize..4), 1..32),
    ) {
        let strategy = [
            CheckStrategy::TentativeAllocation,
            CheckStrategy::Satisfiability,
            CheckStrategy::AllocatedTags,
        ][strategy];
        let mut world = World::new(strategy, &rooms);
        for (step, op) in ops.into_iter().enumerate() {
            world.step(step, op)?;
            world.assert_allocations_are_a_matching()?;
            prop_assert!(
                honourable(&world.rooms(), World::asks(&world.live)),
                "live promises no pool could honour after step {} {:?}", step, op
            );
        }
    }
}
