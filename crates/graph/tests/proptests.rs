//! Property-based tests for the graph toolkit invariants.

use microblog_graph::components::{connected_components, UnionFind};
use microblog_graph::conductance::{
    conductance_level, conductance_with_intra, cut_conductance, min_conductance_exact,
    sweep_conductance, LevelModel,
};
use microblog_graph::csr::CsrGraph;
use microblog_graph::directed::DirectedGraph;
use microblog_graph::metrics::common_neighbors;
use microblog_graph::sizing::CollisionCounter;
use microblog_graph::walk::{simple_random_walk, srw_average};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

/// Arbitrary small edge list over `n` nodes.
fn edges_strategy(max_n: u32) -> impl Strategy<Value = (usize, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(|n| {
        let edge = (0..n, 0..n);
        (Just(n as usize), proptest::collection::vec(edge, 0..40))
    })
}

proptest! {
    #[test]
    fn csr_is_symmetric_and_sorted((n, edges) in edges_strategy(24)) {
        let g = CsrGraph::from_edges(n, edges);
        for u in 0..n as u32 {
            let nbrs = g.neighbors(u);
            prop_assert!(nbrs.windows(2).all(|w| w[0] < w[1]), "sorted + dedup");
            for &v in nbrs {
                prop_assert!(g.contains_edge(v, u), "symmetry {u}-{v}");
                prop_assert_ne!(v, u, "no self loops");
            }
        }
        prop_assert_eq!(g.total_volume(), 2 * g.edge_count());
    }

    #[test]
    fn csr_edges_round_trip((n, edges) in edges_strategy(24)) {
        let g = CsrGraph::from_edges(n, edges);
        let listed: Vec<_> = g.edges().collect();
        let g2 = CsrGraph::from_edges(n, listed.iter().copied());
        prop_assert_eq!(g, g2);
    }

    #[test]
    fn induced_subgraph_preserves_adjacency((n, edges) in edges_strategy(20), mask_seed in any::<u64>()) {
        let g = CsrGraph::from_edges(n, edges);
        let keep: Vec<bool> = (0..n).map(|i| (mask_seed >> (i % 64)) & 1 == 1).collect();
        let (sub, back) = g.induced_subgraph(&keep);
        prop_assert_eq!(sub.node_count(), back.len());
        for (su, &ou) in back.iter().enumerate() {
            for &sv in sub.neighbors(su as u32) {
                prop_assert!(g.contains_edge(ou, back[sv as usize]));
            }
        }
        // Every kept original edge survives.
        for (u, v) in g.edges() {
            if keep[u as usize] && keep[v as usize] {
                let su = back.iter().position(|&x| x == u).unwrap() as u32;
                let sv = back.iter().position(|&x| x == v).unwrap() as u32;
                prop_assert!(sub.contains_edge(su, sv));
            }
        }
    }

    #[test]
    fn components_partition_nodes((n, edges) in edges_strategy(24)) {
        let g = CsrGraph::from_edges(n, edges);
        let cc = connected_components(&g);
        prop_assert_eq!(cc.label.len(), n);
        let total: usize = cc.size.iter().sum();
        prop_assert_eq!(total, n);
        // Edge endpoints always share a component.
        for (u, v) in g.edges() {
            prop_assert_eq!(cc.label[u as usize], cc.label[v as usize]);
        }
        // Component members lists agree with sizes.
        for c in 0..cc.component_count() as u32 {
            prop_assert_eq!(cc.members(c).len(), cc.size[c as usize]);
        }
    }

    #[test]
    fn union_find_is_transitive(pairs in proptest::collection::vec((0u32..16, 0u32..16), 0..30)) {
        let mut uf = UnionFind::new(16);
        for &(a, b) in &pairs {
            uf.union(a, b);
        }
        for &(a, b) in &pairs {
            prop_assert!(uf.connected(a, b));
        }
    }

    #[test]
    fn directed_to_undirected_is_union((n, arcs) in edges_strategy(20)) {
        let d = DirectedGraph::from_arcs(n, arcs.iter().copied());
        let u = d.to_undirected();
        for &(a, b) in &arcs {
            if a != b {
                prop_assert!(u.contains_edge(a, b));
                prop_assert!(d.followees(a).contains(&b));
                prop_assert!(d.followers(b).contains(&a));
            }
        }
        prop_assert!(u.edge_count() <= d.arc_count());
    }

    #[test]
    fn common_neighbors_is_symmetric((n, edges) in edges_strategy(16), a in 0u32..16, b in 0u32..16) {
        let g = CsrGraph::from_edges(n, edges);
        let (a, b) = (a % n as u32, b % n as u32);
        prop_assert_eq!(common_neighbors(&g, a, b), common_neighbors(&g, b, a));
    }

    #[test]
    fn cut_conductance_in_unit_range((n, edges) in edges_strategy(16), mask in any::<u16>()) {
        let g = CsrGraph::from_edges(n, edges);
        let in_s: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
        if let Some(phi) = cut_conductance(&g, &in_s) {
            prop_assert!((0.0..=1.0 + 1e-9).contains(&phi), "phi = {phi}");
        }
    }

    #[test]
    fn sweep_never_beats_exact_minimum((n, edges) in edges_strategy(10)) {
        let g = CsrGraph::from_edges(n, edges);
        if let (Some(exact), Some(sweep)) = (min_conductance_exact(&g), sweep_conductance(&g, 150)) {
            prop_assert!(sweep >= exact - 1e-9, "sweep {sweep} below exact {exact}");
        }
    }

    #[test]
    fn intra_edges_never_raise_model_conductance(
        h in 3.0f64..40.0, d in 1.0f64..8.0, k in 0.5f64..8.0,
    ) {
        let n = 2000.0;
        let base = conductance_level(n, h, d);
        let with = conductance_with_intra(&LevelModel::new(n, h, d, k));
        if !base.is_nan() && !with.is_nan() {
            prop_assert!(with <= base + 1e-9, "h={h} d={d} k={k}: {with} > {base}");
        }
    }

    #[test]
    fn srw_average_bounded_by_extremes(vals in proptest::collection::vec((0.0f64..100.0, 1usize..20), 1..50)) {
        let est = srw_average(vals.iter().copied()).unwrap();
        let lo = vals.iter().map(|v| v.0).fold(f64::INFINITY, f64::min);
        let hi = vals.iter().map(|v| v.0).fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(est >= lo - 1e-9 && est <= hi + 1e-9);
    }

    #[test]
    fn walk_stays_on_graph((n, edges) in edges_strategy(20), seed in any::<u64>(), start in 0u32..20) {
        let g = CsrGraph::from_edges(n, edges);
        let start = start % n as u32;
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let trace = simple_random_walk(&mut &g, &mut rng, start, 64).unwrap();
        prop_assert_eq!(trace.visits[0].node, start);
        for w in trace.visits.windows(2) {
            let (a, b) = (w[0].node, w[1].node);
            prop_assert!(a == b || g.contains_edge(a, b), "teleport {a}->{b}");
            prop_assert_eq!(w[1].degree, g.degree(b));
        }
    }

    #[test]
    fn collision_counter_pairs_match_formula(ids in proptest::collection::vec(0u32..6, 0..40)) {
        let mut c = CollisionCounter::new();
        for &u in &ids {
            c.push(u, 3);
        }
        // Expected collisions: sum over nodes of C(count, 2).
        let mut counts = [0u64; 6];
        for &u in &ids {
            counts[u as usize] += 1;
        }
        let expected: u64 = counts.iter().map(|&c| c * (c.saturating_sub(1)) / 2).sum();
        prop_assert_eq!(c.collisions(), expected);
    }

    // `steps` are `(node, degree, snap)` pushes; `snap == 0` takes a
    // snapshot after the push, so snapshots interleave with new nodes,
    // repeats and ignored zero-degree samples.
    #[test]
    fn collision_snapshots_list_sorted_counts(
        steps in proptest::collection::vec((0u32..60, 0usize..6, 0u8..5), 0..160)
    ) {
        let mut c = CollisionCounter::new();
        let mut counts: BTreeMap<u32, u64> = BTreeMap::new();
        for &(u, d, snap) in &steps {
            c.push(u, d);
            if d > 0 {
                *counts.entry(u).or_default() += 1;
            }
            if snap == 0 {
                let state = c.snapshot();
                let expected: Vec<(u32, u64)> = counts.iter().map(|(&u, &n)| (u, n)).collect();
                prop_assert_eq!(state.seen, expected);
                prop_assert_eq!(state.samples, counts.values().sum::<u64>());
                prop_assert_eq!(state.collisions, c.collisions());
            }
        }
        let expected: Vec<(u32, u64)> = counts.iter().map(|(&u, &n)| (u, n)).collect();
        prop_assert_eq!(c.snapshot().seen, expected);
    }

    #[test]
    fn collision_restore_then_push_matches_pushing_everything(
        steps in proptest::collection::vec((0u32..60, 0usize..6, 0u8..5), 0..160)
    ) {
        let mut whole = CollisionCounter::new();
        let mut cuts = Vec::new();
        for (i, &(u, d, snap)) in steps.iter().enumerate() {
            whole.push(u, d);
            if snap == 0 {
                cuts.push((i + 1, whole.snapshot()));
            }
        }
        let end = whole.snapshot();
        for (at, state) in cuts {
            let mut resumed = CollisionCounter::restore(&state);
            for &(u, d, snap) in &steps[at..] {
                resumed.push(u, d);
                if snap == 1 {
                    resumed.snapshot();
                }
            }
            prop_assert_eq!(
                resumed.estimate().map(f64::to_bits),
                whole.estimate().map(f64::to_bits)
            );
            prop_assert_eq!(resumed.distinct(), whole.distinct());
            prop_assert_eq!(resumed.snapshot(), end.clone());
        }
    }
}
