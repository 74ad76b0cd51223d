//! The paper's four evaluation datasets, scale-aware.

use csj_data::{roads, sierpinski};
use csj_geom::Point;

/// The four datasets of §VI.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PaperDataset {
    /// Montgomery County road endpoints, 27K, 2-D (synthetic profile).
    MgCounty,
    /// Long Beach County road endpoints, 36K, 2-D (synthetic profile).
    LbCounty,
    /// Sierpinski pyramid, 100K, 3-D (exact reproduction).
    Sierpinski3d,
    /// Pacific NW TIGER road endpoints, 1.5M, 2-D (synthetic profile).
    PacificNw,
}

/// Points of either dimensionality.
pub enum DatasetPoints {
    /// 2-D datasets.
    D2(Vec<Point<2>>),
    /// 3-D datasets.
    D3(Vec<Point<3>>),
}

impl DatasetPoints {
    /// Number of points.
    pub fn len(&self) -> usize {
        match self {
            DatasetPoints::D2(v) => v.len(),
            DatasetPoints::D3(v) => v.len(),
        }
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl PaperDataset {
    /// All four datasets in the paper's presentation order.
    pub const ALL: [PaperDataset; 4] = [
        PaperDataset::MgCounty,
        PaperDataset::LbCounty,
        PaperDataset::Sierpinski3d,
        PaperDataset::PacificNw,
    ];

    /// Short display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            PaperDataset::MgCounty => "MG County",
            PaperDataset::LbCounty => "LBeach",
            PaperDataset::Sierpinski3d => "Sierpinski3D",
            PaperDataset::PacificNw => "Pacific NW",
        }
    }

    /// The paper's dataset size.
    pub fn paper_size(&self) -> usize {
        match self {
            PaperDataset::MgCounty => 27_000,
            PaperDataset::LbCounty => 36_000,
            PaperDataset::Sierpinski3d => 100_000,
            PaperDataset::PacificNw => roads::PACIFIC_NW_SIZE,
        }
    }

    /// Generates `n` points of this dataset's distribution.
    pub fn generate(&self, n: usize) -> DatasetPoints {
        match self {
            PaperDataset::MgCounty => DatasetPoints::D2(roads::road_network(&roads::RoadConfig {
                n_points: n,
                cores: 3,
                core_sigma: 0.08,
                rural_fraction: 0.35,
                grid_snap_prob: 0.75,
                step: 0.004,
                mean_road_len: 0.05,
                seed: 0x4D47,
            })),
            PaperDataset::LbCounty => DatasetPoints::D2(roads::road_network(&roads::RoadConfig {
                n_points: n,
                cores: 2,
                core_sigma: 0.12,
                rural_fraction: 0.2,
                grid_snap_prob: 0.9,
                step: 0.003,
                mean_road_len: 0.06,
                seed: 0x4C42,
            })),
            PaperDataset::Sierpinski3d => DatasetPoints::D3(sierpinski::pyramid_3d(n, 0x53)),
            PaperDataset::PacificNw => DatasetPoints::D2(roads::pacific_nw(n)),
        }
    }

    /// The ε sweep the paper uses for this dataset: nine values
    /// log-spaced from 2⁻⁹ to 2⁻¹ — except Pacific NW, whose figure
    /// spans roughly 0.001–0.01 (2⁻¹⁰ … 2⁻⁷).
    pub fn eps_sweep(&self) -> Vec<f64> {
        match self {
            PaperDataset::PacificNw => (0..4).map(|i| (2.0_f64).powi(-10 + i)).collect(),
            _ => (0..9).map(|i| (2.0_f64).powi(-9 + i)).collect(),
        }
    }
}

/// Deterministic multiplicative-congruential stream in `[0, 1)`.
pub struct Lcg(pub u64);

impl Lcg {
    /// The next value.
    pub fn next_f64(&mut self) -> f64 {
        // Numerical Recipes LCG; top 53 bits as a unit float.
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// 80% of the points in one dense cluster, the rest uniform background —
/// the skew shape where a static task split pins one worker.
pub fn skewed_cluster(n: usize, seed: u64) -> Vec<Point<2>> {
    let mut rng = Lcg(seed);
    (0..n)
        .map(|i| {
            if i % 5 != 0 {
                Point::new([0.5 + rng.next_f64() * 0.03, 0.5 + rng.next_f64() * 0.03])
            } else {
                Point::new([rng.next_f64(), rng.next_f64()])
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_and_sizes() {
        assert_eq!(PaperDataset::MgCounty.paper_size(), 27_000);
        assert_eq!(PaperDataset::PacificNw.paper_size(), 1_500_000);
        assert_eq!(PaperDataset::ALL.len(), 4);
    }

    #[test]
    fn generation_respects_n() {
        for ds in PaperDataset::ALL {
            let pts = ds.generate(500);
            assert_eq!(pts.len(), 500, "{}", ds.name());
        }
    }

    #[test]
    fn eps_sweeps_match_paper() {
        let sweep = PaperDataset::MgCounty.eps_sweep();
        assert_eq!(sweep.len(), 9);
        assert_eq!(sweep[0], 2.0_f64.powi(-9));
        assert_eq!(sweep[8], 0.5);
        let pnw = PaperDataset::PacificNw.eps_sweep();
        assert_eq!(pnw.len(), 4);
        assert!(pnw[0] < 0.001 + 1e-9 && pnw[3] <= 0.01);
    }
}
