//! Property tests: Tarjan SCC against brute-force reachability, the
//! deterministic component order against a brute-force Kahn, and the work
//! bound of a slice decomposition — on whole graphs and on the shape the
//! scheduler uses (a node subset with some edges deleted).
//!
//! Driven by a seeded LCG (no `proptest`): each property replays the same
//! 128 random graphs on every run; a failure names its case index.

use ps_graph::{strongly_connected_components, DiGraph, EdgeId, NodeId, SccScratch, Sccs};
use ps_support::Lcg;

const CASES: usize = 128;

/// Random graph with 2..24 nodes and 0..60 edges (matches the proptest
/// strategy this suite was originally written with).
fn arb_graph(rng: &mut Lcg) -> DiGraph<(), ()> {
    let n = rng.usize(2, 23);
    let n_edges = rng.usize(0, 59);
    let mut g = DiGraph::new();
    let nodes: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
    for _ in 0..n_edges {
        let a = rng.index(n);
        let b = rng.index(n);
        g.add_edge(nodes[a], nodes[b], ());
    }
    g
}

/// A random node subset (in id order) and a random set of deleted edges.
fn arb_slice(rng: &mut Lcg, g: &DiGraph<(), ()>) -> (Vec<NodeId>, Vec<bool>) {
    let slice = g.node_ids().filter(|_| rng.index(4) != 0).collect();
    let deleted = g.edge_ids().map(|_| rng.index(3) == 0).collect();
    (slice, deleted)
}

/// Floyd–Warshall reachability over the subgraph induced by `slice` and
/// the edges `keep` accepts, as the oracle. Indexed by position in `slice`.
fn reach_matrix(
    g: &DiGraph<(), ()>,
    slice: &[NodeId],
    keep: impl Fn(EdgeId) -> bool,
) -> Vec<Vec<bool>> {
    let n = slice.len();
    let mut r = vec![vec![false; n]; n];
    for (i, &v) in slice.iter().enumerate() {
        r[i][i] = true;
        for &e in g.out_edge_list(v).iter().filter(|&&e| keep(e)) {
            if let Some(j) = slice.iter().position(|&t| t == g.edge_target(e)) {
                r[i][j] = true;
            }
        }
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                if r[i][k] && r[k][j] {
                    r[i][j] = true;
                }
            }
        }
    }
    r
}

fn component_of(sccs: &Sccs, n: NodeId) -> Option<usize> {
    sccs.iter().position(|c| c.contains(&n))
}

/// The components are the classes of mutual reachability, every slice node
/// is in exactly one, and they come in *the* topological order that breaks
/// ties by smallest node id — unique, so it is recomputed here by brute
/// force: repeatedly emit, among the classes no unemitted class reaches,
/// the one holding the smallest node id.
fn check_against_oracle(case: usize, sccs: &Sccs, slice: &[NodeId], r: &[Vec<bool>]) {
    let at = |v: NodeId| slice.iter().position(|&s| s == v).expect("slice node");
    let reaches = |a: NodeId, b: NodeId| r[at(a)][at(b)];
    for &a in slice {
        for &b in slice {
            assert_eq!(
                component_of(sccs, a) == component_of(sccs, b),
                reaches(a, b) && reaches(b, a),
                "case {case}: nodes {a:?} {b:?}"
            );
        }
    }
    let total: usize = sccs.iter().map(<[NodeId]>::len).sum();
    assert_eq!(total, slice.len(), "case {case}: a partition of the slice");

    let mut pending: Vec<NodeId> = slice.to_vec(); // ascending ids
    let mut expected: Vec<Vec<NodeId>> = Vec::new();
    while !pending.is_empty() {
        let &first = pending
            .iter()
            .find(|&&v| pending.iter().all(|&u| !reaches(u, v) || reaches(v, u)))
            .expect("the condensation is acyclic");
        let mut class: Vec<NodeId> = pending
            .iter()
            .copied()
            .filter(|&u| reaches(first, u) && reaches(u, first))
            .collect();
        pending.retain(|u| !class.contains(u));
        class.sort();
        expected.push(class);
    }
    let got: Vec<Vec<NodeId>> = sccs
        .iter()
        .map(|c| {
            let mut c = c.to_vec();
            c.sort();
            c
        })
        .collect();
    assert_eq!(got, expected, "case {case}: component order");
}

#[test]
fn scc_matches_mutual_reachability() {
    let mut rng = Lcg::new(0x5cc0);
    for case in 0..CASES {
        let g = arb_graph(&mut rng);
        let sccs = strongly_connected_components(&g);
        let all: Vec<NodeId> = g.node_ids().collect();
        check_against_oracle(case, &sccs, &all, &reach_matrix(&g, &all, |_| true));
    }
}

#[test]
fn component_order_is_topological() {
    let mut rng = Lcg::new(0x5cc1);
    for case in 0..CASES {
        let g = arb_graph(&mut rng);
        let sccs = strongly_connected_components(&g);
        for e in g.edge_ids() {
            let (s, t) = g.edge_endpoints(e);
            let (cs, ct) = (component_of(&sccs, s), component_of(&sccs, t));
            if cs != ct {
                assert!(cs < ct, "case {case}: edge {s:?}->{t:?} violates order");
            }
        }
    }
}

/// The whole-graph entry point and a slice of every node are one routine.
#[test]
fn ordered_and_plain_sccs_agree() {
    let mut rng = Lcg::new(0x5cc2);
    let mut scratch = SccScratch::default();
    for case in 0..CASES {
        let g = arb_graph(&mut rng);
        let all: Vec<NodeId> = g.node_ids().collect();
        let a = strongly_connected_components(&g);
        let b = scratch.components(&g, &all, |_| true);
        assert!(a.iter().eq(b.iter()), "case {case}");
    }
}

/// The shape the scheduler uses: a node subset, some edges deleted through
/// the predicate (the graph's own flags untouched), one scratch reused
/// across graphs of different sizes.
#[test]
fn slices_with_deleted_edges_match_the_oracle() {
    let mut rng = Lcg::new(0x5cc3);
    let mut scratch = SccScratch::default();
    for case in 0..CASES {
        let g = arb_graph(&mut rng);
        let (slice, deleted) = arb_slice(&mut rng, &g);
        let keep = |e: EdgeId| !deleted[e.0 as usize];
        let sccs = scratch.components(&g, &slice, keep);
        check_against_oracle(case, &sccs, &slice, &reach_matrix(&g, &slice, keep));
    }
}

/// No timer: the predicate counts its calls. A slice costs at most two
/// questions per out-edge of its own nodes, whatever the rest of the graph
/// holds — here ten nodes of ten thousand.
#[test]
fn work_is_bounded_by_the_slice() {
    let mut rng = Lcg::new(0x5cc4);
    let n = 10_000;
    let mut g: DiGraph<(), ()> = DiGraph::new();
    let nodes: Vec<_> = (0..n).map(|_| g.add_node(())).collect();
    for _ in 0..4 * n {
        g.add_edge(nodes[rng.index(n)], nodes[rng.index(n)], ());
    }
    let mut scratch = SccScratch::default();
    for case in 0..CASES {
        let mut slice: Vec<NodeId> = (0..10).map(|_| nodes[rng.index(n)]).collect();
        slice.sort();
        slice.dedup();
        // Tie the slice together so that there is something to find.
        for pair in slice.windows(2) {
            let flip = rng.index(2);
            g.add_edge(pair[flip], pair[1 - flip], ());
        }
        let out_degree: usize = slice.iter().map(|&v| g.out_edge_list(v).len()).sum();
        let mut asked = 0;
        let sccs = scratch.components(&g, &slice, |_| {
            asked += 1;
            true
        });
        assert!(
            asked <= 2 * out_degree,
            "case {case}: asked about {asked} edges, the slice has {out_degree}"
        );
        check_against_oracle(case, &sccs, &slice, &reach_matrix(&g, &slice, |_| true));
    }
}
