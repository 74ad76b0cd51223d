//! The join algorithms and the one place each becomes the engine's
//! switches.

use crate::engine::{DirectEmit, LinkHandler, WindowedEmit};
use crate::group::{BallShape, GroupShapeKind, MbrShape};
use crate::JoinConfig;

/// Which join algorithm to run. Every runner takes it: the sequential
/// task loop ([`crate::ResilientJoin`]),
/// [`crate::parallel::ParallelJoin`], the out-of-core front, the sharded
/// join and [`crate::spatial::SpatialJoin`]. (The name predates the other
/// runners.)
///
/// The three algorithms are one Figure-3 recursion with two switches:
/// N-CSJ is SSJ plus the early-stop rule, CSJ(g) is N-CSJ plus the merge
/// window. A tight cluster shows the difference:
///
/// ```
/// use csj_core::{ParallelAlgo, ResilientJoin};
/// use csj_geom::Point;
/// use csj_index::{rstar::RStarTree, RTreeConfig};
///
/// // N-CSJ emits one group where SSJ emits O(k²) links.
/// let pts: Vec<Point<2>> = (0..20)
///     .map(|i| Point::new([0.5 + (i % 5) as f64 * 1e-4, 0.5 + (i / 5) as f64 * 1e-4]))
///     .collect();
/// let tree = RStarTree::from_points(&pts, RTreeConfig::with_max_fanout(25));
/// let join = |algo| ResilientJoin::new(0.1, algo).run(&tree).expect("in memory");
/// let (compact, standard) = (join(ParallelAlgo::Ncsj), join(ParallelAlgo::Ssj));
/// assert_eq!(compact.num_groups(), 1);
/// assert_eq!(standard.num_links(), 190);
/// assert_eq!(compact.expanded_link_set(), standard.expanded_link_set());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParallelAlgo {
    /// SSJ, the standard similarity join (§IV-A): the paper's baseline.
    /// A recursive tree join that prunes node pairs by MINDIST and
    /// enumerates every qualifying link individually. Output size does
    /// not depend on the tree; runtime does (through the tree's shape).
    Ssj,
    /// N-CSJ, the naive compact similarity join (§IV-B): SSJ plus the
    /// early-stopping rule. Whenever a subtree's (or subtree pair's)
    /// bounding shape has diameter ≤ ε, all its records are emitted as
    /// one group: no distance computations, one subtree scan. Links that
    /// cross node boundaries are still emitted individually.
    Ncsj,
    /// CSJ(g), the compact similarity join with a window of `g` recent
    /// groups (§IV-C): N-CSJ plus `mergeIntoPrevGroup`. Every residual
    /// link is offered to the `g` most recently created groups; a group
    /// accepts when its bounding shape ([`JoinConfig::group_shape`]),
    /// extended to cover the link, still has diameter ≤ ε. Links that fit
    /// nowhere open a new group; `g = 0` makes every link its own
    /// 2-group. Because of the tree's spatial locality, recent groups are
    /// near the current link, so a small window (the paper recommends
    /// `g ≈ 10`) captures most cross-subtree links.
    /// [`crate::parallel::ParallelJoin`] replays every task's links through one window in task order, so
    /// it groups exactly as the sequential join does.
    Csj(usize),
}

/// Receives the link handler an algorithm runs with (see
/// [`ParallelAlgo::with_handler`]).
pub(crate) trait WithHandler<const D: usize> {
    /// What the run returns.
    type Out;
    /// Runs with the engine switches `early_stop` and `handler`.
    fn run<H: LinkHandler<D>>(self, early_stop: bool, handler: H) -> Self::Out;
}

impl ParallelAlgo {
    /// Whether the engine applies the early-stop rule: N-CSJ and CSJ(g).
    pub(crate) fn early_stop(self) -> bool {
        self != ParallelAlgo::Ssj
    }

    /// Runs `f` with this algorithm's link handler under `cfg`: direct
    /// emission for SSJ and N-CSJ, a window of `g` groups of
    /// `cfg.group_shape` for CSJ(g). The one place the self-joins map an
    /// algorithm to the engine's switches. The handler is a concrete
    /// type, so the choice is made once per call, never per link.
    pub(crate) fn with_handler<F: WithHandler<D>, const D: usize>(
        self,
        cfg: &JoinConfig,
        f: F,
    ) -> F::Out {
        let (early_stop, eps, metric) = (self.early_stop(), cfg.epsilon, cfg.metric);
        match (self, cfg.group_shape) {
            (ParallelAlgo::Ssj | ParallelAlgo::Ncsj, _) => f.run(early_stop, DirectEmit),
            (ParallelAlgo::Csj(g), GroupShapeKind::Mbr) => {
                f.run(early_stop, WindowedEmit::<MbrShape<D>, D>::new(g, eps, metric))
            }
            (ParallelAlgo::Csj(g), GroupShapeKind::Ball) => {
                f.run(early_stop, WindowedEmit::<BallShape<D>, D>::new(g, eps, metric))
            }
        }
    }
}
