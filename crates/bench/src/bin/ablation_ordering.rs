//! §V-B ablation: insertion-order sensitivity of the grouping.
//!
//! Two parts:
//!
//! 1. The paper's worked example — 10 points on a line, ε = 7, links
//!    added in sorted order — reproduced exactly, showing the ~50%
//!    redundancy a bad order causes.
//! 2. The same dataset indexed four ways (dynamic R*-tree, STR, Hilbert
//!    and OMT bulk loads). Each ordering changes which links CSJ(g) sees
//!    first, and therefore the output size; the spread measures how much
//!    the grouping depends on the traversal order.

use csj_bench::args::CommonArgs;
use csj_bench::datasets::{DatasetPoints, PaperDataset};
use csj_core::group::{GroupWindow, LinkProbe, MbrShape, OpenGroup};
use csj_core::{ParallelAlgo, ResilientJoin};
use csj_geom::{Metric, Point};
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_storage::{CountingSink, OutputWriter};

fn main() {
    let args = CommonArgs::parse();
    line_example();
    tree_order_comparison(&args);
}

/// Part 1: the §V-B example. Points 1..10 on the real line, ε = 7.
fn line_example() {
    let metric = Metric::Euclidean;
    let eps = 7.0;
    let points: Vec<Point<1>> = (1..=10).map(|i| Point::new([i as f64])).collect();

    // Links in sorted order (1-2, 1-3, …, 9-10), merged greedily into an
    // unbounded window — the paper's "first group in which they fit".
    let mut window: GroupWindow<MbrShape<1>, 1> = GroupWindow::new(usize::MAX);
    let mut attempts = 0u64;
    for i in 0..points.len() {
        for j in (i + 1)..points.len() {
            if metric.distance(&points[i], &points[j]) <= eps {
                let (a, b) = (i as u32 + 1, j as u32 + 1);
                let link = LinkProbe::new(a, &points[i], b, &points[j]);
                if !window.try_merge_link(&link, eps, metric, &mut attempts) {
                    let g = OpenGroup::from_link(a, &points[i], b, &points[j], metric);
                    let _ = window.push(g);
                }
            }
        }
    }
    let groups: Vec<Vec<u32>> = window.drain().map(|g| g.into_sorted_members()).collect();
    println!("# §V-B line example (eps = 7): sorted-order insertion");
    let total: usize = groups.iter().map(Vec::len).sum();
    for g in &groups {
        println!("#   group: {g:?}");
    }
    println!("# groups = {}, total members written = {total}", groups.len());
    println!(
        "# optimal for this instance: 3 groups, 20 members (e.g. {{1..8}}, {{2,9}}, {{3..10}})"
    );
}

/// Part 2: the traversal order induced by each index build.
fn tree_order_comparison(args: &CommonArgs) {
    let ds = PaperDataset::MgCounty;
    let n = args.scaled(ds.paper_size());
    let DatasetPoints::D2(pts) = ds.generate(n) else { unreachable!("MG County is 2-D") };
    let width = OutputWriter::<CountingSink>::id_width_for(n);
    let eps = 0.1;

    println!("build\teps\tbytes\tgroups\tmerges_succeeded");
    let builds: [(&str, RStarTree<2>); 4] = [
        ("dynamic-r*", RStarTree::from_points(&pts, RTreeConfig::default())),
        ("bulk-str", RStarTree::bulk_load_str(&pts, RTreeConfig::default())),
        ("bulk-hilbert", RStarTree::bulk_load_hilbert(&pts, RTreeConfig::default())),
        ("bulk-omt", RStarTree::bulk_load_omt(&pts, RTreeConfig::default())),
    ];
    for (name, tree) in &builds {
        let join = ResilientJoin::new(eps, ParallelAlgo::Csj(10));
        let mut writer = OutputWriter::new(CountingSink::new(), width);
        let stats = join.run_streaming(tree, &mut writer).expect("counting sink cannot fail").stats;
        println!(
            "{name}\t{eps:.3}\t{}\t{}\t{}",
            writer.bytes_written(),
            stats.groups_emitted,
            stats.merges_succeeded
        );
    }
}
