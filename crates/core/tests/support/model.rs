//! The promise manager of paper §2–§6, written once as a small, pure,
//! sequential labelled transition system (after Bergstra, Bethke &
//! Burgess, *A process algebra based framework for promise theory*): a
//! state, the labels that move it, and what each label answers.
//!
//! It is brute force where the manager is clever, and shares none of the
//! manager's code. Live demand is summed from the model's own promise list
//! on every decision, never read from an aggregate; a property pool is
//! decided by trying every assignment ([`perfect_matching_exists`]); expiry
//! is a comparison against the reading the decision was taken at.
//!
//! The fixture is the one `footprint_scoping.rs` drives: quantity pools
//! (`w`, `x`), rooms told apart by a `view` and checked by satisfiability
//! alone, and interchangeable suites that are tentatively allocated. The
//! one nondeterminism allowed is *which* suite a promise lands on: the
//! model reads the manager's choice after every step, checks that it is
//! legal ([`Model::adopt`]), and takes it over.
//!
//! What the paper leaves open, the manager decides, and the model states
//! the manager's rule:
//!
//! - **The clock.** An operation reads the clock more than once, and time
//!   may pass between readings. [`Model::step`] is handed every reading the
//!   operation took and judges each decision at the reading the manager's
//!   code took it at, in this order: a request and an action first reap
//!   every promise expired at their first reading (one more reading when
//!   something was reaped, which dates the tombstones); a request then asks
//!   its request index, then decides its grant; an action validates its
//!   environment, runs, validates again and re-checks. An action that
//!   writes a pool outside its environment's scope validates and runs
//!   twice, the first run undone. A release reads once
//!   if the promise is there; a commit and an observation never read.
//! - **Lazy reaping.** An expired promise stays in the table, unusable,
//!   until the next request, action or tick reaps it; a release or an abort
//!   of it in between succeeds.
//! - **Ids.** A request that passes admission draws the next id whether or
//!   not it is granted; recovery resumes after the highest id ever granted.
//! - **One reason.** A request refused on several pools names the first in
//!   name order.
//! - **The request index** answers a resend with the promise still live
//!   under its `(client, request)`; once that promise is released or
//!   expired, a resend is a fresh request.
//! - **Tombstones.** A reaped promise answers "expired" until its grace has
//!   passed at a reap; recovery re-reads every reap in the journal and
//!   starts each grace again at the recovery's reading.
//! - **Pins.** Observing a promise that holds a suite pins it there until
//!   it leaves the table or the manager restarts.

use std::collections::{BTreeMap, BTreeSet};

/// Can every slot have an instance of its own? `slots[k]` lists the
/// instances slot `k` accepts, by position; `used` marks the positions
/// already given out. Tries every assignment.
pub fn perfect_matching_exists(slots: &[Vec<usize>], used: u32) -> bool {
    match slots.split_first() {
        None => true,
        Some((first, rest)) => first
            .iter()
            .any(|&i| used & (1 << i) == 0 && perfect_matching_exists(rest, used | (1 << i))),
    }
}

/// One predicate of a request, in the model's terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ask {
    /// `amount` units of a quantity pool.
    Qty(&'static str, u64),
    /// One room: any, or one whose view is as given.
    Room(Option<bool>),
    /// One suite.
    Suite,
}

impl Ask {
    fn pool(self) -> &'static str {
        match self {
            Ask::Qty(pool, _) => pool,
            Ask::Room(_) => ROOMS,
            Ask::Suite => SUITES,
        }
    }
}

pub const ROOMS: &str = "rooms";
pub const SUITES: &str = "suites";

/// A promise request (§6): its predicates, granted together or not at all
/// (§4), the duration asked, an exchanged promise released iff it is
/// granted, and whether it is a prepared hold.
#[derive(Debug, Clone)]
pub struct Request {
    pub request: String,
    pub asks: Vec<Ask>,
    pub duration: u64,
    pub exchange: Option<u64>,
    pub prepared: bool,
}

/// What a purchase takes inside the action that releases its promise.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Buy {
    /// The units its promise holds.
    Qty(&'static str, u64),
    /// The suite its promise was allocated (observed, and so pinned, first).
    Suite,
    /// The first room still free.
    Room,
}

/// The alphabet.
#[derive(Debug, Clone)]
pub enum Label {
    /// A request: plain, property, suite, mixed, exchange, prepared or a
    /// resend of an earlier one.
    Request(Request),
    Release(u64),
    /// Execute-and-release (§4's action + release unit).
    Purchase(u64, Buy),
    /// An action under no promise that takes this much off `w` (never
    /// below zero).
    RogueDrain(u64),
    Commit(u64),
    Abort(u64),
    /// Observe a promise, then send a request.
    ObserveThenRequest(u64, Request),
    /// Crash, then recover from the journal.
    Crash,
    /// Move the clock this far, then reap.
    Tick(u64),
}

/// Why a request was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reason {
    InsufficientQuantity {
        pool: String,
        on_hand: u64,
        demanded: u64,
    },
    Unsatisfiable {
        pool: String,
    },
    UnknownExchange(u64),
}

/// What a label answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Granted {
        id: u64,
        expires_at: u64,
    },
    Rejected(Reason),
    Ok,
    /// A commit or an abort: whether it changed anything.
    Decided(bool),
    /// The paper's "promise-expired" (§2).
    Expired(u64),
    Unknown(u64),
    /// The action would break a promise it does not release: rolled back.
    Violation,
    /// The action itself failed (no free room): rolled back.
    ActionFailed,
    /// A suite purchase whose promise was no longer in the table.
    Gone,
    Reaped(usize),
    Recovered {
        recovered: usize,
        in_doubt: usize,
    },
    Seen(bool, Box<Outcome>),
    /// Anything the model has no word for.
    Other(String),
}

/// The observable state the model and the manager are compared on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct View {
    /// Every promise in the table, live or awaiting its reap.
    pub table: Vec<u64>,
    pub prepared: Vec<u64>,
    pub tombstones: usize,
    pub stock: Vec<(&'static str, u64)>,
    /// `pool/instance` of every taken instance.
    pub taken: Vec<String>,
}

#[derive(Debug, Clone)]
struct Promise {
    request: String,
    asks: Vec<Ask>,
    expires_at: u64,
    prepared: bool,
    pinned: bool,
    /// The suite it holds, if it asks one: the manager's choice.
    suite: Option<usize>,
}

impl Promise {
    fn live(&self, now: u64) -> bool {
        now < self.expires_at
    }

    fn pools(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.asks.iter().map(|ask| ask.pool())
    }
}

/// The readings one operation took, consumed in the manager's order.
struct Readings<'a> {
    left: &'a [u64],
    last: u64,
    short: bool,
}

impl Readings<'_> {
    fn read(&mut self) -> u64 {
        match self.left.split_first() {
            Some((&now, rest)) => {
                self.left = rest;
                self.last = now;
            }
            None => self.short = true,
        }
        self.last
    }
}

/// The state: stock, instances, promises, the request index, tombstones.
#[derive(Debug, Clone)]
pub struct Model {
    stock: BTreeMap<&'static str, u64>,
    /// Each room's view and whether it is taken, in id order (`r0`, …).
    rooms: Vec<(bool, bool)>,
    /// Whether each suite is taken, in id order (`s0`, …).
    suites: Vec<bool>,
    table: BTreeMap<u64, Promise>,
    by_request: BTreeMap<String, u64>,
    /// Reaped id → the reading at or after which a reap evicts it.
    tombstones: BTreeMap<u64, u64>,
    reaped: BTreeSet<u64>,
    last_id: u64,
    last_granted: u64,
    grace: u64,
    /// The reading the current step's committed check of the suites ran
    /// at: the promises live then may have been re-arranged.
    rearranged_at: Option<u64>,
}

impl Model {
    pub fn new(stock: &[(&'static str, u64)], views: &[bool], suites: usize, grace: u64) -> Self {
        Self {
            stock: stock.iter().copied().collect(),
            rooms: views.iter().map(|&view| (view, false)).collect(),
            suites: vec![false; suites],
            table: BTreeMap::new(),
            by_request: BTreeMap::new(),
            tombstones: BTreeMap::new(),
            reaped: BTreeSet::new(),
            last_id: 0,
            last_granted: 0,
            grace,
            rearranged_at: None,
        }
    }

    /// Runs `label`, judged at the clock `readings` the manager took for
    /// it; an error if the manager read the clock a different number of
    /// times than the label does.
    pub fn step(&mut self, label: &Label, readings: &[u64]) -> Result<Outcome, String> {
        let mut clock = Readings {
            left: readings,
            last: 0,
            short: false,
        };
        self.rearranged_at = None;
        let said = match label {
            Label::Request(req) => self.request(req, &mut clock),
            Label::Release(id) => match self.release(*id, &mut clock) {
                Ok(()) => Outcome::Ok,
                Err(absent) => absent,
            },
            Label::Purchase(id, buy) => self.purchase(*id, *buy, &mut clock),
            Label::RogueDrain(amount) => self.rogue_drain(*amount, &mut clock),
            Label::Commit(id) => match self.table.get_mut(id) {
                Some(p) => Outcome::Decided(std::mem::take(&mut p.prepared)),
                None => self.absent(*id),
            },
            Label::Abort(id) => Outcome::Decided(self.release(*id, &mut clock).is_ok()),
            Label::ObserveThenRequest(id, req) => {
                let seen = self.observe(*id).is_some();
                Outcome::Seen(seen, Box::new(self.request(req, &mut clock)))
            }
            Label::Crash => self.crash(&mut clock),
            Label::Tick(_) => Outcome::Reaped(self.reap(&mut clock)),
        };
        if clock.short || !clock.left.is_empty() {
            return Err(format!(
                "{label:?} read the clock {} times: {readings:?}",
                readings.len()
            ));
        }
        Ok(said)
    }

    /// What the manager should show now.
    pub fn view(&self) -> View {
        let taken = |pool: &'static str, prefix: char, taken: Vec<bool>| {
            (taken.into_iter().enumerate())
                .filter(|(_, taken)| *taken)
                .map(move |(i, _)| format!("{pool}/{prefix}{i}"))
        };
        View {
            table: self.table.keys().copied().collect(),
            prepared: (self.table.iter())
                .filter(|(_, p)| p.prepared)
                .map(|(id, _)| *id)
                .collect(),
            tombstones: self.tombstones.len(),
            stock: self.stock.iter().map(|(pool, qty)| (*pool, *qty)).collect(),
            taken: taken(ROOMS, 'r', self.rooms.iter().map(|r| r.1).collect())
                .chain(taken(SUITES, 's', self.suites.clone()))
                .collect(),
        }
    }

    /// Takes over the manager's suite allocations (`held`: id → suite, for
    /// every promise in the table) after checking they are legal: a
    /// promise holds a suite exactly when it asks for one; only a step
    /// whose check of the suites committed moves any, and then only
    /// promises live at that check and not pinned; the promises live then
    /// hold distinct suites nobody has taken.
    pub fn adopt(&mut self, held: &BTreeMap<u64, Option<usize>>) -> Result<(), String> {
        for (id, p) in &mut self.table {
            let theirs = held.get(id).copied().flatten();
            let asks = p.asks.contains(&Ask::Suite);
            if asks != theirs.is_some() {
                return Err(format!(
                    "promise {id} asks a suite: {asks}, holds {theirs:?}"
                ));
            }
            let movable = self.rearranged_at.is_some_and(|at| p.live(at) && !p.pinned);
            if !movable && p.suite.is_some() && theirs != p.suite {
                return Err(format!("promise {id} moved {:?} -> {theirs:?}", p.suite));
            }
            p.suite = theirs;
        }
        if let Some(at) = self.rearranged_at {
            let mut seen = BTreeSet::new();
            for (id, p) in self.table.iter().filter(|(_, p)| p.live(at)) {
                if let Some(s) = p.suite {
                    if self.suites[s] || !seen.insert(s) {
                        return Err(format!("promise {id} holds suite s{s}, taken or shared"));
                    }
                }
            }
        }
        Ok(())
    }

    /// The suites a new promise could be allocated at `now`, in id order:
    /// untaken, and held by no promise live then.
    pub fn free_suites(&self, now: u64) -> Vec<usize> {
        let held = |s| (self.table.values()).any(|p| p.live(now) && p.suite == Some(s));
        (0..self.suites.len())
            .filter(|&s| !self.suites[s] && !held(s))
            .collect()
    }

    fn request(&mut self, req: &Request, clock: &mut Readings) -> Outcome {
        self.reap(clock);
        let asked = clock.read();
        if let Some(p) = self.for_request(&req.request, asked) {
            return p;
        }
        let now = clock.read();
        if let Some(ex) = req.exchange.filter(|ex| !self.is_live(*ex, now)) {
            return Outcome::Rejected(Reason::UnknownExchange(ex));
        }
        self.last_id += 1;
        let mut pools: Vec<&str> = req.asks.iter().map(|ask| ask.pool()).collect();
        pools.sort();
        pools.dedup();
        if let Some(reason) = self.refusal(&pools, &req.asks, req.exchange, now) {
            return Outcome::Rejected(reason);
        }
        if let Some(ex) = req.exchange {
            self.take(ex);
        }
        if pools.contains(&SUITES) {
            self.rearranged_at = Some(now);
        }
        let id = self.last_id;
        let expires_at = now + req.duration;
        self.table.insert(
            id,
            Promise {
                request: req.request.clone(),
                asks: req.asks.clone(),
                expires_at,
                prepared: req.prepared,
                pinned: false,
                suite: None,
            },
        );
        self.by_request.insert(req.request.clone(), id);
        self.last_granted = id;
        Outcome::Granted { id, expires_at }
    }

    fn release(&mut self, id: u64, clock: &mut Readings) -> Result<(), Outcome> {
        if !self.table.contains_key(&id) {
            return Err(self.absent(id));
        }
        clock.read();
        self.take(id);
        Ok(())
    }

    fn purchase(&mut self, id: u64, buy: Buy, clock: &mut Readings) -> Outcome {
        let suite = match buy {
            Buy::Suite => match self.observe(id) {
                Some(suite) => suite,
                None => return Outcome::Gone,
            },
            _ => None,
        };
        self.reap(clock);
        if let Err(refused) = self.usable(id, clock.read()) {
            return refused;
        }
        let before = (self.stock.clone(), self.rooms.clone(), self.suites.clone());
        let wrote = match buy {
            Buy::Qty(pool, amount) => {
                let left = self.stock[pool].checked_sub(amount);
                *self.stock.get_mut(pool).unwrap() = left.expect("a live promise is covered");
                pool
            }
            Buy::Suite => {
                self.suites[suite.expect("a suite promise holds a suite")] = true;
                SUITES
            }
            Buy::Room => match self.rooms.iter_mut().find(|(_, taken)| !*taken) {
                Some(room) => {
                    room.1 = true;
                    ROOMS
                }
                None => return Outcome::ActionFailed,
            },
        };
        let now = clock.read();
        let mut footprint: Vec<&str> = self.table[&id].pools().chain([wrote]).collect();
        footprint.sort();
        footprint.dedup();
        let verdict = self
            .usable(id, now)
            .and_then(|()| self.post_check(&footprint, Some(id), now));
        match verdict {
            Ok(()) => {
                self.take(id);
                Outcome::Ok
            }
            Err(refused) => {
                (self.stock, self.rooms, self.suites) = before;
                refused
            }
        }
    }

    fn rogue_drain(&mut self, amount: u64, clock: &mut Readings) -> Outcome {
        self.reap(clock);
        // The empty environment's validation, before each run: the first
        // writes `w` outside the empty scope and is undone, the second
        // runs with `w`'s point taken first.
        clock.read();
        clock.read();
        let now = clock.read();
        let before = self.stock["w"];
        *self.stock.get_mut("w").unwrap() = before.saturating_sub(amount);
        match self.post_check(&["w"], None, now) {
            Ok(()) => Outcome::Ok,
            Err(violation) => {
                *self.stock.get_mut("w").unwrap() = before;
                violation
            }
        }
    }

    /// §8 "Executing Actions": every live promise over the written pools
    /// (and the released one's), except the released one, must still be
    /// honourable in the state the action left.
    fn post_check(
        &mut self,
        footprint: &[&str],
        leaving: Option<u64>,
        now: u64,
    ) -> Result<(), Outcome> {
        match self.refusal(footprint, &[], leaving, now) {
            Some(_) => Err(Outcome::Violation),
            None => {
                if footprint.contains(&SUITES) {
                    self.rearranged_at = Some(now);
                }
                Ok(())
            }
        }
    }

    /// The first of `pools` (sorted) on which the promises live at `now`,
    /// less `leaving`, plus the candidate's `asks`, cannot all be honoured.
    fn refusal(
        &self,
        pools: &[&str],
        asks: &[Ask],
        leaving: Option<u64>,
        now: u64,
    ) -> Option<Reason> {
        let live: Vec<&Promise> = (self.table.iter())
            .filter(|(id, p)| p.live(now) && Some(**id) != leaving)
            .map(|(_, p)| p)
            .collect();
        let every = || {
            live.iter()
                .flat_map(|p| p.asks.iter().map(|ask| (*p, *ask)))
        };
        pools.iter().find_map(|&pool| {
            let slots: Vec<Vec<usize>> = match pool {
                ROOMS => (every().map(|(_, ask)| ask).chain(asks.iter().copied()))
                    .filter_map(|ask| match ask {
                        Ask::Room(view) => Some(self.free_rooms(view)),
                        _ => None,
                    })
                    .collect(),
                SUITES => {
                    let free: Vec<usize> = (0..self.suites.len())
                        .filter(|&s| !self.suites[s])
                        .collect();
                    let theirs =
                        every().filter(|(_, ask)| *ask == Ask::Suite).map(|(p, _)| {
                            match (p.pinned, p.suite) {
                                (true, Some(s)) => {
                                    free.iter().copied().filter(|&f| f == s).collect()
                                }
                                _ => free.clone(),
                            }
                        });
                    let mine = asks.iter().filter(|ask| **ask == Ask::Suite);
                    theirs.chain(mine.map(|_| free.clone())).collect()
                }
                _ => {
                    let demanded = (every().map(|(_, ask)| ask).chain(asks.iter().copied()))
                        .map(|ask| match ask {
                            Ask::Qty(p, amount) if p == pool => amount,
                            _ => 0,
                        })
                        .sum();
                    let on_hand = self.stock[pool];
                    return (demanded > on_hand).then(|| Reason::InsufficientQuantity {
                        pool: pool.to_owned(),
                        on_hand,
                        demanded,
                    });
                }
            };
            let unsatisfiable = Reason::Unsatisfiable {
                pool: pool.to_owned(),
            };
            (!perfect_matching_exists(&slots, 0)).then_some(unsatisfiable)
        })
    }

    fn free_rooms(&self, view: Option<bool>) -> Vec<usize> {
        (self.rooms.iter().enumerate())
            .filter(|(_, (v, taken))| !taken && view.is_none_or(|want| want == *v))
            .map(|(i, _)| i)
            .collect()
    }

    /// Reaps every promise expired at the first reading (tombstoned as of
    /// a second reading, taken only when something expired), then evicts
    /// the tombstones whose grace has passed.
    fn reap(&mut self, clock: &mut Readings) -> usize {
        let at = clock.read();
        let expired: Vec<u64> = (self.table.iter())
            .filter(|(_, p)| !p.live(at))
            .map(|(id, _)| *id)
            .collect();
        let now = if expired.is_empty() { at } else { clock.read() };
        for id in &expired {
            self.take(*id);
            self.tombstones.insert(*id, now + self.grace);
            self.reaped.insert(*id);
        }
        self.tombstones.retain(|_, evict_at| *evict_at > now);
        expired.len()
    }

    /// Crash and recover: whatever expired by the crash is reaped, the
    /// durable state (promises, prepared marks, allocations) comes back,
    /// pins do not, and every reap in the journal is a tombstone again.
    fn crash(&mut self, clock: &mut Readings) -> Outcome {
        self.reap(clock);
        let recovered = self.table.len();
        let evict_at = clock.read() + self.grace;
        self.tombstones = self.reaped.iter().map(|id| (*id, evict_at)).collect();
        for p in self.table.values_mut() {
            p.pinned = false;
        }
        self.last_id = self.last_granted;
        self.reap(clock);
        Outcome::Recovered {
            recovered,
            in_doubt: self.table.values().filter(|p| p.prepared).count(),
        }
    }

    /// The suite a promise holds, pinning it there; `None` if the promise
    /// is not in the table.
    fn observe(&mut self, id: u64) -> Option<Option<usize>> {
        let p = self.table.get_mut(&id)?;
        p.pinned |= p.suite.is_some();
        Some(p.suite)
    }

    fn for_request(&self, request: &str, now: u64) -> Option<Outcome> {
        let id = *self.by_request.get(request)?;
        let p = self.table.get(&id).filter(|p| p.live(now))?;
        Some(Outcome::Granted {
            id,
            expires_at: p.expires_at,
        })
    }

    fn is_live(&self, id: u64, now: u64) -> bool {
        self.table.get(&id).is_some_and(|p| p.live(now))
    }

    /// An action may run under `id` at `now`.
    fn usable(&self, id: u64, now: u64) -> Result<(), Outcome> {
        match self.table.get(&id) {
            None => Err(self.absent(id)),
            Some(p) if !p.live(now) => Err(Outcome::Expired(id)),
            Some(_) => Ok(()),
        }
    }

    fn absent(&self, id: u64) -> Outcome {
        match self.tombstones.contains_key(&id) {
            true => Outcome::Expired(id),
            false => Outcome::Unknown(id),
        }
    }

    /// Takes a promise out of the table with every mark it carries, and
    /// its request key unless a newer grant has reused it.
    fn take(&mut self, id: u64) {
        if let Some(p) = self.table.remove(&id) {
            if self.by_request.get(&p.request) == Some(&id) {
                self.by_request.remove(&p.request);
            }
        }
    }
}
