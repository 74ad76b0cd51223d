//! Property test: at any shard count, under any single-fault schedule
//! within the retry budget, the sharded join writes the sequential
//! join's bytes.

use csj_core::parallel::ParallelAlgo;
use csj_core::{Completion, JoinOutput, ResilientJoin};
use csj_geom::Point;
use csj_index::{rstar::RStarTree, RTreeConfig};
use csj_shard::{InProcessTransport, ShardFaultPlan, ShardJoin};
use csj_storage::{OutputWriter, VecSink};
use proptest::prelude::*;

fn arb_points_2d(max: usize) -> impl Strategy<Value = Vec<Point<2>>> {
    prop::collection::vec(prop::array::uniform2(0.0f64..1.0), 0..max)
        .prop_map(|v| v.into_iter().map(Point::new).collect())
}

fn bytes(output: &JoinOutput) -> String {
    let mut writer = OutputWriter::new(VecSink::new(), 3);
    output.write_to(&mut writer).expect("vec sink cannot fail");
    writer.sink().as_str().to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sharded == sequential for random data, shard counts, algorithms
    /// and a random kill/garble fault within the retry budget.
    #[test]
    fn sharded_equals_sequential_under_faults(
        pts in arb_points_2d(80),
        eps in 0.0f64..0.3,
        shards in 1usize..6,
        algo_pick in 0u8..3,
        fault_pick in 0u8..3,
        fault_shard in 0u32..6,
    ) {
        let algo = match algo_pick {
            0 => ParallelAlgo::Ssj,
            1 => ParallelAlgo::Ncsj,
            _ => ParallelAlgo::Csj(6),
        };
        let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::default());
        let want = ResilientJoin::new(eps, algo).run(&tree).expect("sequential");
        // One fault on attempt 1 of a (possibly nonexistent) shard; the
        // budget of 3 attempts always absorbs it.
        let plan = match fault_pick {
            0 => ShardFaultPlan::none(),
            1 => ShardFaultPlan::none().kill(&[fault_shard], 1),
            _ => ShardFaultPlan::none().garble(&[fault_shard], 1),
        };
        let run = ShardJoin::new(eps, algo)
            .with_shards(shards)
            .with_max_attempts(3)
            .with_fault_plan(plan)
            .run(&pts, &InProcessTransport::new())
            .expect("within-budget run");
        prop_assert_eq!(run.output.completion, Completion::Complete);
        prop_assert_eq!(bytes(&run.output), bytes(&want));
    }
}
