//! Property tests: the seeded matcher places every slot exactly when a
//! perfect matching exists, places only what each slot accepts, and
//! leaves a complete set of valid seeds where they are.

use proptest::prelude::*;

use promises_matching::{assign_slots_seeded, hopcroft_karp, BipartiteGraph};

type Case = (Vec<bool>, Vec<Vec<usize>>, Vec<Option<usize>>);

/// Rights among `positions` (the last two never are), up to `positions`
/// unsorted slot lists with duplicates and entries that are not rights,
/// and seeds that are missing, stale, out of range or duplicated. A seed
/// drawn at or past `positions` names an entry of its slot's own list
/// instead, so valid seeds — and two slots seeded alike — are common.
fn arb_case(positions: usize) -> impl Strategy<Value = Case> {
    (
        proptest::collection::vec(any::<bool>(), 0..positions - 2),
        proptest::collection::vec(proptest::collection::vec(0..positions, 0..5), 0..positions),
        proptest::collection::vec(proptest::option::of(0..2 * positions), 0..positions + 2),
    )
        .prop_map(move |(is_right, allowed, drawn)| {
            let seeds = (drawn.iter().enumerate())
                .map(|(slot, seed)| match (*seed, allowed.get(slot)) {
                    (Some(at), Some(list)) if at >= positions && !list.is_empty() => {
                        Some(list[(at - positions) % list.len()])
                    }
                    (seed, _) => seed.filter(|&at| at < positions),
                })
                .collect();
            (is_right, allowed, seeds)
        })
}

/// The graph of the edges the matcher may use: list entries that are
/// rights.
fn usable_graph(is_right: &[bool], allowed: &[Vec<usize>]) -> BipartiteGraph {
    let positions = allowed.iter().flatten().max().map_or(0, |&r| r + 1);
    let mut graph = BipartiteGraph::new(allowed.len(), positions);
    for (slot, list) in allowed.iter().enumerate() {
        for &r in list.iter().filter(|&&r| is_right.get(r) == Some(&true)) {
            graph.add_edge(slot, r);
        }
    }
    graph
}

fn rights(is_right: &[bool]) -> impl Iterator<Item = usize> + '_ {
    (0..is_right.len()).filter(|&r| is_right[r])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever the seeds, a complete assignment comes back exactly when
    /// Hopcroft–Karp finds a left-perfect matching, and it is distinct,
    /// inside each slot's list and inside the rights.
    #[test]
    fn seeded_assignment_is_a_matching_iff_one_exists(case in arb_case(8)) {
        let (is_right, allowed, seeds) = case;
        let got = assign_slots_seeded(rights(&is_right), &allowed, &seeds);
        let batch = hopcroft_karp(&usable_graph(&is_right, &allowed));
        prop_assert_eq!(got.is_some(), batch.is_left_perfect());
        if let Some(got) = got {
            prop_assert_eq!(got.len(), allowed.len());
            let mut used = vec![false; is_right.len()];
            for (slot, &r) in got.iter().enumerate() {
                prop_assert!(is_right.get(r) == Some(&true), "slot {} got non-right {}", slot, r);
                prop_assert!(allowed[slot].contains(&r), "slot {} got {} outside its list", slot, r);
                prop_assert!(!std::mem::replace(&mut used[r], true), "right {} placed twice", r);
            }
        }
    }

    /// Seeds that are all valid and all distinct — here the pairs of a
    /// maximum matching Hopcroft–Karp found, over the slots it matched —
    /// come back unchanged.
    #[test]
    fn valid_distinct_seeds_come_back_unchanged(case in arb_case(14)) {
        let (is_right, allowed, _) = case;
        let batch = hopcroft_karp(&usable_graph(&is_right, &allowed));
        let (allowed, seeds): (Vec<Vec<usize>>, Vec<Option<usize>>) = (0..allowed.len())
            .filter_map(|slot| Some((allowed[slot].clone(), Some(batch.partner_of_left(slot)?))))
            .unzip();
        let got = assign_slots_seeded(rights(&is_right), &allowed, &seeds);
        prop_assert_eq!(got.map(|got| got.into_iter().map(Some).collect::<Vec<_>>()), Some(seeds));
    }
}
