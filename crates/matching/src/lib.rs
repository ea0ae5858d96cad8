//! `promises-matching` — bipartite matching for promise satisfiability.
//!
//! Section 5 of the CIDR'07 Promises paper observes that when promises use
//! *property-based* resource views, deciding whether a set of promises can
//! all be honoured "might be done by finding a matching in a bipartite
//! graph where edges link the untaken resources to the promise predicates
//! that they can satisfy". Section 8 notes the authors' prototype did not
//! implement this; this crate does.
//!
//! Two entry points:
//!
//! * [`hopcroft_karp`] — batch maximum matching in `O(E sqrt(V))`, the
//!   oracle the property tests hold the checker's matcher to;
//! * [`assign_slots`] — the promise checker's entry point: given the
//!   pre-filtered allowed-instance lists of a set of slots, produce a
//!   full assignment of distinct instances (or report infeasibility).
//!   Each slot is placed by one augmenting-path search, which *is* the
//!   paper's "tentative allocation with re-arrangement": already-promised
//!   resources are shuffled to other slots that also accept them so the
//!   new one can be placed. [`assign_slots_seeded`] is the *stable*
//!   variant: slots keep their current instances unless an augmenting
//!   path must move them, so re-checking never permutes existing holdings
//!   gratuitously.
//!
//! Rights and slots are dense positions, so the matcher keeps its state
//! in a few vectors indexed by them and never copies a slot's list: a
//! check re-runs the whole matching, from its seeds, in about a
//! microsecond.

mod hopcroft_karp;

pub use hopcroft_karp::{hopcroft_karp, MatchingResult};

/// Assigns every slot a distinct right vertex drawn from its allowed
/// list, or returns `None` if no complete assignment exists.
///
/// `rights` enumerates the matchable right vertices; `allowed[i]` lists
/// the rights slot `i` accepts (each must appear in `rights`) — lent, so
/// slots that ask the same thing can share one list. Slots are
/// seeded most-constrained-first — a good heuristic for speed, while
/// feasibility itself is order-independent thanks to augmenting-path
/// re-arrangement. On success, `out[i]` is the right assigned to slot `i`.
pub fn assign_slots(
    rights: impl IntoIterator<Item = usize>,
    allowed: &[impl AsRef<[usize]>],
) -> Option<Vec<usize>> {
    assign_slots_seeded(rights, allowed, &[])
}

/// Like [`assign_slots`], but *stable*: `seeds[i]` (when present) is the
/// right vertex slot `i` currently holds, and the assignment keeps every
/// valid seed in place unless an augmenting path genuinely needs to move
/// it. Feasibility is unchanged — a perfect matching extends any partial
/// matching of valid pairs via augmenting paths — but the result no longer
/// permutes existing holdings gratuitously, so a client that has observed
/// its allocation keeps seeing the same instance across unrelated grants.
///
/// `seeds` may be shorter than `allowed`; missing entries are unseeded.
/// A seed that is stale (not in `rights`, not in the slot's allowed list,
/// or claimed by an earlier seed) is ignored rather than an error. An
/// allowed entry that is not in `rights` is skipped. Rights are positions:
/// the matcher's tables are sized by the largest one.
pub fn assign_slots_seeded(
    rights: impl IntoIterator<Item = usize>,
    allowed: &[impl AsRef<[usize]>],
    seeds: &[Option<usize>],
) -> Option<Vec<usize>> {
    let mut is_right: Vec<bool> = Vec::new();
    for r in rights {
        if r >= is_right.len() {
            is_right.resize(r + 1, false);
        }
        is_right[r] = true;
    }
    let mut m = Dense {
        rights: &is_right,
        allowed,
        holder: vec![FREE; is_right.len()],
        assigned: vec![FREE; allowed.len()],
        visited: vec![0; is_right.len()],
        stamp: 0,
    };

    // Pass 1: keep current holdings. Direct pairing, no augmentation — a
    // seeded slot never displaces another seeded slot.
    let mut remaining: Vec<usize> = Vec::with_capacity(allowed.len());
    for (i, options) in allowed.iter().enumerate() {
        match seeds.get(i).copied().flatten() {
            Some(s) if m.is_free_right(s) && options.as_ref().contains(&s) => m.pair(i, s),
            _ => remaining.push(i),
        }
    }

    // Pass 2: place the rest most-constrained-first; augmenting paths move
    // seeded holdings only when no completion exists without doing so.
    remaining.sort_by_key(|&i| allowed[i].as_ref().len());
    for &i in &remaining {
        m.stamp += 1;
        if !m.augment(i) {
            return None;
        }
    }
    Some(m.assigned)
}

/// `holder` / `assigned` entry of an unmatched right / slot.
const FREE: usize = usize::MAX;

/// The matcher's state, every table indexed by a right's or a slot's
/// position.
struct Dense<'a, A> {
    /// Position → whether it is a matchable right.
    rights: &'a [bool],
    allowed: &'a [A],
    /// Right → the slot holding it, or [`FREE`].
    holder: Vec<usize>,
    /// Slot → the right it holds, or [`FREE`].
    assigned: Vec<usize>,
    /// A right is visited by the current top-level search when its entry
    /// equals `stamp`.
    visited: Vec<u32>,
    stamp: u32,
}

impl<A: AsRef<[usize]>> Dense<'_, A> {
    fn is_right(&self, r: usize) -> bool {
        self.rights.get(r) == Some(&true)
    }

    fn is_free_right(&self, r: usize) -> bool {
        self.is_right(r) && self.holder[r] == FREE
    }

    fn pair(&mut self, slot: usize, r: usize) {
        self.assigned[slot] = r;
        self.holder[r] = slot;
    }

    fn augment(&mut self, slot: usize) -> bool {
        let allowed = self.allowed;
        let options = allowed[slot].as_ref();
        // Prefer a free resource before displacing a matched one: same
        // augmenting-path correctness, but existing assignments move only
        // when no free alternative exists (assignment *stability*).
        for &r in options {
            if self.is_free_right(r) && self.visited[r] != self.stamp {
                self.visited[r] = self.stamp;
                self.pair(slot, r);
                return true;
            }
        }
        for &r in options {
            if !self.is_right(r) || self.visited[r] == self.stamp {
                continue;
            }
            self.visited[r] = self.stamp;
            let other = self.holder[r];
            if other != FREE && self.augment(other) {
                self.pair(slot, r);
                return true;
            }
        }
        false
    }
}

/// A bipartite graph in adjacency-list form: `adj[l]` lists the right
/// vertices that left vertex `l` may be matched to.
#[derive(Debug, Clone, Default)]
pub struct BipartiteGraph {
    adj: Vec<Vec<usize>>,
    right_count: usize,
}

impl BipartiteGraph {
    /// Creates a graph with `left` left vertices and `right` right vertices
    /// and no edges.
    pub fn new(left: usize, right: usize) -> Self {
        Self {
            adj: vec![Vec::new(); left],
            right_count: right,
        }
    }

    /// Adds an edge from left vertex `l` to right vertex `r`.
    ///
    /// # Panics
    /// Panics if either index is out of range.
    pub fn add_edge(&mut self, l: usize, r: usize) {
        assert!(l < self.adj.len(), "left index {l} out of range");
        assert!(r < self.right_count, "right index {r} out of range");
        self.adj[l].push(r);
    }

    /// Number of left vertices.
    pub fn left_len(&self) -> usize {
        self.adj.len()
    }

    /// Number of right vertices.
    pub fn right_len(&self) -> usize {
        self.right_count
    }

    /// Neighbours of left vertex `l`.
    pub fn neighbours(&self, l: usize) -> &[usize] {
        &self.adj[l]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_construction() {
        let mut g = BipartiteGraph::new(2, 3);
        g.add_edge(0, 0);
        g.add_edge(0, 2);
        g.add_edge(1, 1);
        assert_eq!(g.left_len(), 2);
        assert_eq!(g.right_len(), 3);
        assert_eq!(g.neighbours(0), &[0, 2]);
    }

    #[test]
    #[should_panic(expected = "right index")]
    fn out_of_range_edge_panics() {
        let mut g = BipartiteGraph::new(1, 1);
        g.add_edge(0, 5);
    }

    #[test]
    fn assign_slots_finds_assignment_with_rearrangement() {
        // Slot 0 accepts {0, 1}, slot 1 accepts only {0}: a greedy pass
        // seeding slot 0 with 0 must re-arrange to satisfy slot 1.
        let allowed = vec![vec![0, 1], vec![0]];
        let got = assign_slots(0..2, &allowed).expect("feasible");
        assert_eq!(got, vec![1, 0]);
    }

    #[test]
    fn chain_rearrangement_moves_every_holding_on_the_path() {
        // Slot 2 accepts only right 0; placing it displaces slot 0 onto
        // right 1, which displaces slot 1 onto right 2.
        let allowed = vec![vec![0, 1], vec![1, 2], vec![0]];
        let seeds = vec![Some(0), Some(1), None];
        let got = assign_slots_seeded(0..3, &allowed, &seeds).expect("feasible");
        assert_eq!(got, vec![1, 2, 0]);
    }

    #[test]
    fn allowed_entries_outside_rights_are_skipped() {
        // 5 is past the rights, 1 is inside them but not a right: slot 0
        // may only take 2, and slot 1 then has nothing left.
        let allowed = vec![vec![5, 1, 2], vec![1, 2]];
        assert_eq!(assign_slots([0, 2], &allowed[..1]), Some(vec![2]));
        assert_eq!(assign_slots([0, 2], &allowed), None);
    }

    #[test]
    fn assign_slots_reports_infeasibility() {
        let allowed = vec![vec![0], vec![0]];
        assert_eq!(assign_slots(0..2, &allowed), None);
        assert_eq!(assign_slots(std::iter::empty(), &[Vec::new()]), None);
    }

    #[test]
    fn assign_slots_empty_slot_set_is_trivially_satisfied() {
        assert_eq!(assign_slots(0..3, &[] as &[Vec<usize>]), Some(vec![]));
    }

    #[test]
    fn seeded_assignment_is_stable_when_feasible() {
        // Both slots accept both rights; the seeds must survive verbatim
        // even though the unseeded heuristic could permute them.
        let allowed = vec![vec![0, 1], vec![0, 1]];
        let seeds = vec![Some(1), Some(0)];
        let got = assign_slots_seeded(0..2, &allowed, &seeds).expect("feasible");
        assert_eq!(got, vec![1, 0]);
    }

    #[test]
    fn seeded_assignment_moves_only_when_necessary() {
        // The paper's hotel case: slot 0 ("view") is seeded on right 0
        // ("512"), slot 1 ("fifth floor") accepts only right 0 — the seed
        // must yield via an augmenting path.
        let allowed = vec![vec![0, 1], vec![0]];
        let seeds = vec![Some(0), None];
        let got = assign_slots_seeded(0..2, &allowed, &seeds).expect("feasible");
        assert_eq!(got, vec![1, 0]);
    }

    #[test]
    fn stale_seeds_are_ignored() {
        // Seed 7 is not a right; seed 1 is not in slot 1's allowed list;
        // both slots still get assigned.
        let allowed = vec![vec![0, 1], vec![0]];
        let seeds = vec![Some(7), Some(1)];
        let got = assign_slots_seeded(0..2, &allowed, &seeds).expect("feasible");
        assert_eq!(got, vec![1, 0]);
    }

    #[test]
    fn duplicate_seeds_keep_first_and_reroute_second() {
        let allowed = vec![vec![0, 1], vec![0, 1]];
        let seeds = vec![Some(0), Some(0)];
        let got = assign_slots_seeded(0..2, &allowed, &seeds).expect("feasible");
        assert_eq!(got, vec![0, 1]);
    }

    #[test]
    fn seeding_does_not_change_feasibility() {
        // Infeasible stays infeasible no matter the seeds.
        let allowed = vec![vec![0], vec![0]];
        assert_eq!(assign_slots_seeded(0..2, &allowed, &[Some(0), None]), None);
        // Fully seeded feasible case round-trips.
        let allowed: Vec<Vec<usize>> = (0..4).map(|_| (0..4).collect()).collect();
        let seeds: Vec<Option<usize>> = (0..4).map(|i| Some((i + 1) % 4)).collect();
        let got = assign_slots_seeded(0..4, &allowed, &seeds).expect("feasible");
        assert_eq!(got, vec![1, 2, 3, 0]);
    }

    #[test]
    fn assign_slots_assignments_are_distinct() {
        let allowed: Vec<Vec<usize>> = (0..5).map(|_| (0..5).collect()).collect();
        let got = assign_slots(0..5, &allowed).expect("feasible");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 5, "no right vertex used twice: {got:?}");
    }
}
