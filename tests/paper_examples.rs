//! The paper's worked examples, reproduced exactly.

use csj_core::output::OutputItem;
use csj_core::{JoinOutput, ParallelAlgo, ResilientJoin};
use csj_geom::Point;
use csj_index::{rstar::RStarTree, JoinIndex, RTreeConfig};

/// Runs `algo` at range `eps` on the sequential runner.
fn join<T: JoinIndex<D>, const D: usize>(eps: f64, algo: ParallelAlgo, tree: &T) -> JoinOutput {
    ResilientJoin::new(eps, algo).run(tree).expect("in-memory run cannot fail")
}

/// §III, Figure 2: integers 1..5 on the real line with ε = 3. The
/// standard join returns 9 links; an optimal compact representation has
/// 3 groups — a 50% row savings. CSJ must be lossless and no worse than
/// the standard output.
#[test]
fn figure2_integer_line() {
    let pts: Vec<Point<1>> = (1..=5).map(|i| Point::new([i as f64])).collect();
    let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(4));
    let eps = 3.0;

    let ssj = join(eps, ParallelAlgo::Ssj, &tree);
    assert_eq!(ssj.num_links(), 9, "standard join returns 9 pairs");

    let csj = join(eps, ParallelAlgo::Csj(10), &tree);
    assert_eq!(csj.expanded_link_set(), ssj.expanded_link_set());
    assert!(
        csj.items.len() <= 5,
        "compact output should be a handful of groups, got {:?}",
        csj.items
    );
    // Every emitted group's members span at most eps (ids are 0-based
    // here; values are id+1, so spread in ids == spread in values).
    for item in &csj.items {
        if let OutputItem::Group(ids) = item {
            let lo = *ids.iter().min().unwrap();
            let hi = *ids.iter().max().unwrap();
            assert!(hi - lo <= 3, "group {ids:?} violates eps");
        }
    }
}

/// §III, Figure 1's headline claim, generalized: for a group of k
/// co-located points, SSJ reports C(k, 2) links while the compact joins
/// report one k-member group.
#[test]
fn figure1_dense_clique_collapses() {
    let k = 30;
    let pts: Vec<Point<2>> = (0..k)
        .map(|i| Point::new([0.5 + (i % 6) as f64 * 1e-4, 0.5 + (i / 6) as f64 * 1e-4]))
        .collect();
    let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(32));
    let eps = 0.01;
    let ssj = join(eps, ParallelAlgo::Ssj, &tree);
    assert_eq!(ssj.num_links() as u32, k * (k - 1) / 2);
    let csj = join(eps, ParallelAlgo::Csj(10), &tree);
    assert_eq!(csj.items.len(), 1, "one group for the clique");
    match csj.items.get(0) {
        Some(OutputItem::Group(ids)) => assert_eq!(ids.len() as u32, k),
        other => panic!("expected a group, got {other:?}"),
    }
}

/// §V-B's ordering example: 10 points on a line, ε = 7, links inserted
/// in sorted order produce 3 groups with ~30 total members — about 50%
/// more than the optimal 20. We pin the exact greedy outcome.
#[test]
fn section5b_ordering_example() {
    use csj_core::group::{GroupWindow, LinkProbe, MbrShape, OpenGroup};
    use csj_geom::Metric;

    let metric = Metric::Euclidean;
    let eps = 7.0;
    let points: Vec<Point<1>> = (1..=10).map(|i| Point::new([i as f64])).collect();
    let mut window: GroupWindow<MbrShape<1>, 1> = GroupWindow::new(usize::MAX);
    let mut attempts = 0u64;
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            if metric.distance(&points[i], &points[j]) <= eps {
                let (a, b) = (i as u32 + 1, j as u32 + 1);
                let link = LinkProbe::new(a, &points[i], b, &points[j]);
                if !window.try_merge_link(&link, eps, metric, &mut attempts) {
                    let g = OpenGroup::from_link(a, &points[i], b, &points[j], metric);
                    assert!(window.push(g).is_none(), "unbounded window never evicts");
                }
            }
        }
    }
    let groups: Vec<Vec<u32>> = window.drain().map(|g| g.into_sorted_members()).collect();
    // The paper's greedy outcome: {1..8}, {2..9}, {3..10}.
    assert_eq!(
        groups,
        vec![
            (1..=8).collect::<Vec<u32>>(),
            (2..=9).collect::<Vec<u32>>(),
            (3..=10).collect::<Vec<u32>>(),
        ]
    );
    let total: usize = groups.iter().map(Vec::len).sum();
    assert_eq!(total, 24);
    // All 33 qualifying links are covered (lossless despite redundancy).
    let mut covered = std::collections::BTreeSet::new();
    for g in &groups {
        for (x, &a) in g.iter().enumerate() {
            for &b in &g[(x + 1)..] {
                covered.insert((a.min(b), a.max(b)));
            }
        }
    }
    let mut expected = std::collections::BTreeSet::new();
    for a in 1u32..=10 {
        for b in (a + 1)..=10 {
            if b - a <= 7 {
                expected.insert((a, b));
            }
        }
    }
    assert_eq!(covered, expected);
}

/// The paper's Theorem 1 & 2 statement on a targeted adversarial layout:
/// a chain where greedy grouping is maximally tempted to over-extend.
#[test]
fn chain_at_exact_epsilon_boundaries() {
    // Points spaced exactly eps apart: each point links only to its
    // direct neighbours; no 3 points fit in one group (diameter 2*eps).
    let eps = 0.1;
    let pts: Vec<Point<2>> = (0..20).map(|i| Point::new([i as f64 * eps, 0.0])).collect();
    let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(4));
    let out = join(eps, ParallelAlgo::Csj(10), &tree);
    let expanded = out.expanded_link_set();
    // Floating point makes some adjacent gaps land a hair above 0.1, so
    // compare against the exact fp ground truth rather than "all 19" —
    // the point of the test is that nothing two steps apart sneaks in.
    assert_eq!(expanded, csj_core::brute::brute_force_links(&pts, eps));
    for (a, b) in expanded {
        assert_eq!(b - a, 1, "non-adjacent pair ({a}, {b}) grouped");
    }
}
