//! §5 delegation keeps one record of which upstream promise backs a
//! delegated one: the upstream's request index, under the key
//! `{request}::delegated::{pool}`, which the upstream journals with its
//! table. Every way a delegating promise leaves the downstream table —
//! release, expiry, exchange, an action's release — gives its backing
//! back through that key, also on a manager recovered from its journal;
//! and a retry racing its original never gives back the hold the granted
//! original relies on.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};
use std::thread;

use promises_core::{
    ClientId, Environment, ManualClock, PoolSchema, Predicate, PromiseId, PromiseJournal,
    PromiseManager, PromiseRequestSpec, RequestId,
};
use promises_rm::ResourceManager;

const LOCAL: &str = "vouchers";
const REMOTE: &str = "carrier";
const CLIENT: &str = "c";
const SHORT_MS: u64 = 1_000;
const LONG_MS: u64 = 1_000_000;

/// The upstream owning `REMOTE`. Its clock never moves, so a backing
/// promise leaves it only when a downstream gives it back.
fn upstream() -> Arc<PromiseManager> {
    let pm = PromiseManager::new(
        Arc::new(ResourceManager::new()),
        Arc::new(ManualClock::new()),
    );
    pm.register_pool(PoolSchema::quantity(REMOTE));
    pm.seed_quantity(REMOTE, 10_000).unwrap();
    Arc::new(pm)
}

/// One incarnation of the downstream over `rm`: `LOCAL` registered,
/// `REMOTE` delegated to `upstream`, appending to `journal`. The storage
/// (and so `LOCAL`'s stock) survives from one incarnation to the next.
fn downstream(
    rm: &Arc<ResourceManager>,
    clock: &Arc<ManualClock>,
    journal: &Arc<PromiseJournal>,
    upstream: &Arc<PromiseManager>,
) -> Arc<PromiseManager> {
    let pm = PromiseManager::new(Arc::clone(rm), Arc::clone(clock) as _)
        .with_journal(Arc::clone(journal));
    pm.register_pool(PoolSchema::quantity(LOCAL));
    pm.delegate_pool(REMOTE, Arc::clone(upstream)).unwrap();
    Arc::new(pm)
}

/// A journalled downstream over fresh storage with 10 000 local units.
fn fresh_downstream(
    clock: &Arc<ManualClock>,
    upstream: &Arc<PromiseManager>,
) -> (
    Arc<ResourceManager>,
    Arc<PromiseJournal>,
    Arc<PromiseManager>,
) {
    let rm = Arc::new(ResourceManager::new());
    let journal = Arc::new(PromiseJournal::new());
    let pm = downstream(&rm, clock, &journal, upstream);
    pm.seed_quantity(LOCAL, 10_000).unwrap();
    (rm, journal, pm)
}

/// A request for one local unit and, when `delegating`, one upstream one.
fn spec(request: &str, delegating: bool, duration_ms: u64) -> PromiseRequestSpec {
    let spec = PromiseRequestSpec::new(request, CLIENT)
        .predicate(Predicate::qty_at_least(LOCAL, 1))
        .duration_ms(duration_ms);
    match delegating {
        true => spec.predicate(Predicate::qty_at_least(REMOTE, 1)),
        false => spec,
    }
}

/// The live upstream promise backing `request`, looked up by its key.
fn backing(upstream: &PromiseManager, request: &str) -> Option<PromiseId> {
    upstream.promise_for_request(
        &ClientId::from(CLIENT),
        &RequestId(format!("{request}::delegated::{REMOTE}")),
    )
}

/// A downstream granted one delegating promise and crashed; a fresh
/// incarnation recovered it from the journal. Returns the clock, the
/// upstream, the recovered manager and the promise.
fn recovered_with_one_delegated_promise() -> (
    Arc<ManualClock>,
    Arc<PromiseManager>,
    Arc<PromiseManager>,
    PromiseId,
) {
    let clock = Arc::new(ManualClock::new());
    let up = upstream();
    let (rm, journal, first) = fresh_downstream(&clock, &up);
    let promise = first
        .request(spec("r1", true, SHORT_MS))
        .unwrap()
        .decision
        .granted_id()
        .expect("delegated grant");
    assert!(backing(&up, "r1").is_some(), "the grant is backed upstream");
    drop(first);

    let recovered = downstream(&rm, &clock, &journal, &up);
    recovered.recover(journal).unwrap();
    assert_eq!(recovered.live_count(), 1, "the promise replayed");
    (clock, up, recovered, promise)
}

#[test]
fn a_recovered_manager_gives_back_the_backing_of_a_released_promise() {
    let (_, up, recovered, promise) = recovered_with_one_delegated_promise();
    recovered.release(promise).unwrap();
    assert_eq!(
        backing(&up, "r1"),
        None,
        "upstream hold leaked: live={}",
        up.live_count()
    );
    assert_eq!(up.live_count(), 0);
}

#[test]
fn a_recovered_manager_gives_back_the_backing_of_an_expired_promise() {
    let (clock, up, recovered, _) = recovered_with_one_delegated_promise();
    clock.advance(SHORT_MS + 1);
    assert_eq!(recovered.prune_expired().unwrap(), 1);
    assert_eq!(
        backing(&up, "r1"),
        None,
        "upstream hold leaked: live={}",
        up.live_count()
    );
    assert_eq!(up.live_count(), 0);
}

/// Two copies of one delegated request race; the upstream answers both
/// from one promise. The copy that loses the downstream race is answered
/// with its twin's grant and must not give that promise back.
#[test]
fn a_racing_duplicate_never_gives_back_its_granted_twin_hold() {
    const ROUNDS: usize = 300;
    let clock = Arc::new(ManualClock::new());
    let up = upstream();
    let (_, _, down) = fresh_downstream(&clock, &up);
    let mut unbacked = Vec::new();
    for round in 0..ROUNDS {
        let request = format!("race-{round}");
        let barrier = Barrier::new(2);
        let answers: Vec<Option<PromiseId>> = thread::scope(|s| {
            let copies: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let resp = down.request(spec(&request, true, LONG_MS)).unwrap();
                        resp.decision.granted_id()
                    })
                })
                .collect();
            copies.into_iter().map(|c| c.join().unwrap()).collect()
        });
        let Some(promise) = answers.iter().flatten().next().copied() else {
            continue;
        };
        assert!(
            answers.iter().flatten().all(|p| *p == promise),
            "round {round}: one request, two promises {answers:?}"
        );
        if backing(&up, &request).is_none() {
            unbacked.push(round);
        }
        down.release(promise).unwrap();
    }
    assert!(
        unbacked.is_empty(),
        "{} of {ROUNDS} granted rounds lost their upstream backing (first: {:?})",
        unbacked.len(),
        unbacked.first()
    );
    assert_eq!(up.live_count(), 0, "every release gave its backing back");
}

/// A small seeded generator: the steps below need no more than uniform
/// choices, and a fixed seed replays a failure exactly.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// After every step, the upstream's live delegated promises are exactly
/// those backing the downstream's live delegating promises: a live
/// downstream promise of a delegating request is backed, and nothing else
/// is held upstream.
fn assert_one_record(
    step: &str,
    up: &PromiseManager,
    down: &PromiseManager,
    requests: &BTreeMap<String, bool>,
) {
    let mut backed = 0;
    for (request, delegating) in requests {
        let live = down
            .promise_for_request(&ClientId::from(CLIENT), &RequestId(request.clone()))
            .is_some();
        let held = backing(up, request).is_some();
        assert_eq!(
            held,
            live && *delegating,
            "after {step}: request {request} live downstream: {live}, delegating: {delegating}, held upstream: {held}"
        );
        backed += usize::from(held);
    }
    assert_eq!(
        up.live_count(),
        backed,
        "after {step}: stray upstream holds"
    );
}

#[test]
fn every_cascade_site_keeps_the_upstream_holds_equal_to_the_delegating_promises() {
    let mut taken: BTreeMap<&str, usize> = BTreeMap::new();
    for seed in 1..=24u64 {
        let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let clock = Arc::new(ManualClock::new());
        let up = upstream();
        let (rm, journal, mut down) = fresh_downstream(&clock, &up);
        // Every request ever sent, and whether it delegates.
        let mut requests: BTreeMap<String, bool> = BTreeMap::new();
        let mut sent = 0;
        let mut new_request = |requests: &mut BTreeMap<String, bool>, rng: &mut Rng| {
            sent += 1;
            let name = format!("s{seed}-r{sent}");
            let delegating = rng.below(4) != 0;
            let duration = [SHORT_MS, LONG_MS][rng.below(2) as usize];
            requests.insert(name.clone(), delegating);
            spec(&name, delegating, duration)
        };
        for _ in 0..60 {
            let live: Vec<(PromiseId, String)> = requests
                .keys()
                .filter_map(|r| {
                    down.promise_for_request(&ClientId::from(CLIENT), &RequestId(r.clone()))
                        .map(|p| (p, r.clone()))
                })
                .collect();
            let pick = |rng: &mut Rng| &live[rng.below(live.len() as u64) as usize];
            let step = match rng.below(8) {
                2 if !live.is_empty() => {
                    let (promise, request) = pick(&mut rng);
                    let resent = spec(request, requests[request], LONG_MS);
                    let resp = down.request(resent).unwrap();
                    assert_eq!(resp.decision.granted_id(), Some(*promise));
                    "duplicate resend"
                }
                3 if !live.is_empty() => {
                    let (promise, _) = pick(&mut rng);
                    down.release(*promise).unwrap();
                    "release"
                }
                4 if !live.is_empty() => {
                    let (promise, _) = pick(&mut rng);
                    let s = new_request(&mut requests, &mut rng);
                    down.modify(&[*promise], s).unwrap();
                    "modify"
                }
                5 if !live.is_empty() => {
                    let (promise, _) = pick(&mut rng);
                    let env = Environment::none().releasing(*promise);
                    down.execute(&env, |_, _| Ok(())).unwrap();
                    "execute"
                }
                6 => {
                    drop(down);
                    down = downstream(&rm, &clock, &journal, &up);
                    down.recover(Arc::clone(&journal)).unwrap();
                    "recover"
                }
                7 => {
                    clock.advance(SHORT_MS + 1);
                    down.prune_expired().unwrap();
                    "expiry"
                }
                _ => {
                    let s = new_request(&mut requests, &mut rng);
                    down.request(s).unwrap();
                    "request"
                }
            };
            assert_one_record(&format!("seed {seed}: {step}"), &up, &down, &requests);
            *taken.entry(step).or_default() += 1;
        }
    }
    let steps = [
        "request",
        "duplicate resend",
        "release",
        "modify",
        "execute",
        "expiry",
        "recover",
    ];
    for site in steps {
        assert!(taken.get(site) > Some(&0), "no step took {site}: {taken:?}");
    }
}
