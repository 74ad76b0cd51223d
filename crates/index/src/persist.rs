//! Index persistence: a compact binary codec for rectangle trees.
//!
//! Building a tree over millions of points costs real time (the paper's
//! §VII: "tree creation is expensive in computation time and memory"), so
//! a production deployment builds once and reloads. The format is a
//! straightforward little-endian layout — header, then one record per
//! node in a DFS order with dense re-numbered ids — independent of arena
//! slot history, so a loaded tree is bit-identical regardless of how the
//! original was built or mutated.
//!
//! ```
//! use csj_index::{persist, rstar::RStarTree, RTreeConfig, JoinIndex};
//! use csj_geom::Point;
//!
//! let pts: Vec<Point<2>> = (0..500)
//!     .map(|i| Point::new([(i % 25) as f64 / 25.0, (i / 25) as f64 / 20.0]))
//!     .collect();
//! let tree = RStarTree::bulk_load_str(&pts, RTreeConfig::default());
//! let bytes = persist::serialize_rect(tree.core());
//! let loaded = RStarTree::<2>::from_bytes(&bytes).unwrap();
//! assert_eq!(loaded.num_records(), 500);
//! ```

use crate::arena::NodeId;
use crate::rect::{RNode, RectCore};
use crate::traits::LeafEntry;
use crate::{RTreeConfig, SplitStrategy};
use csj_geom::{Mbr, Point};
use csj_storage::fnv1a64;

const MAGIC: &[u8; 8] = b"CSJRTREE";
const VERSION: u32 = 1;
const NO_NODE: u32 = u32::MAX;

/// Errors surfaced while decoding a persisted tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The buffer does not start with the expected magic bytes.
    BadMagic,
    /// The format version is unsupported.
    BadVersion(u32),
    /// The file was written for a different dimensionality.
    DimensionMismatch {
        /// Dimension recorded in the file.
        stored: u32,
        /// Dimension requested by the caller.
        requested: u32,
    },
    /// The buffer ended mid-record.
    Truncated,
    /// The payload checksum does not match (bit rot / corruption).
    ChecksumMismatch,
    /// A structural reference (child/root id) is out of range.
    CorruptStructure(String),
    /// An operating-system I/O failure while reading or writing the
    /// index file (path and OS error text).
    Io(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::BadMagic => write!(f, "not a csj index file (bad magic)"),
            PersistError::BadVersion(v) => write!(f, "unsupported format version {v}"),
            PersistError::DimensionMismatch { stored, requested } => {
                write!(f, "index stores {stored}-d points, caller requested {requested}-d")
            }
            PersistError::Truncated => write!(f, "file truncated"),
            PersistError::ChecksumMismatch => write!(f, "payload checksum mismatch"),
            PersistError::CorruptStructure(msg) => write!(f, "corrupt structure: {msg}"),
            PersistError::Io(msg) => write!(f, "index file I/O: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<csj_storage::StorageError> for PersistError {
    fn from(e: csj_storage::StorageError) -> Self {
        PersistError::Io(e.to_string())
    }
}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        if end > self.buf.len() {
            return Err(PersistError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn u32(&mut self) -> Result<u32, PersistError> {
        // csj-lint: allow(panic-safety) — take(4) either returns exactly
        // 4 bytes or errors Truncated; the conversion is infallible.
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }
    fn u64(&mut self) -> Result<u64, PersistError> {
        // csj-lint: allow(panic-safety) — as `u32`: take(8) is exact.
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
    fn f64(&mut self) -> Result<f64, PersistError> {
        // csj-lint: allow(panic-safety) — as `u32`: take(8) is exact.
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }
}

/// Serializes a rectangle-tree core to bytes.
pub fn serialize_rect<const D: usize>(core: &RectCore<D>) -> Vec<u8> {
    // Dense renumbering in DFS preorder.
    let mut order: Vec<NodeId> = Vec::with_capacity(core.node_count());
    let mut remap = std::collections::HashMap::new();
    if let Some(root) = core.root {
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            remap.insert(id, order.len() as u32);
            order.push(id);
            // Reverse so children pop in original order.
            for &c in core.node(id).children.iter().rev() {
                stack.push(c);
            }
        }
    }

    let mut w = Writer { buf: Vec::with_capacity(64 + order.len() * 64) };
    w.buf.extend_from_slice(MAGIC);
    w.u32(VERSION);
    w.u32(D as u32);
    w.u64(core.num_records as u64);
    w.u32(core.config.max_fanout as u32);
    w.u32(core.config.min_fanout as u32);
    w.u32(match core.config.split {
        SplitStrategy::Linear => 0,
        SplitStrategy::Quadratic => 1,
    });
    w.f64(core.config.reinsert_fraction);
    w.u32(order.len() as u32);
    w.u32(if order.is_empty() { NO_NODE } else { 0 }); // root is always record 0

    for &id in &order {
        let node = core.node(id);
        w.u32(node.level);
        for d in 0..D {
            w.f64(node.mbr.lo[d]);
        }
        for d in 0..D {
            w.f64(node.mbr.hi[d]);
        }
        w.u32(node.children.len() as u32);
        for &c in &node.children {
            w.u32(remap[&c]);
        }
        w.u32(node.entries.len() as u32);
        for e in &node.entries {
            w.u32(e.id);
            for d in 0..D {
                w.f64(e.point[d]);
            }
        }
    }
    // Structural validation cannot notice a corrupted *interior* point
    // (leaf MBRs are determined by extreme points only), so the format
    // carries an integrity checksum over the payload.
    let checksum = fnv1a64(&w.buf);
    w.u64(checksum);
    w.buf
}

/// Decodes a rectangle-tree core from bytes written by
/// [`serialize_rect`]. Structural invariants are re-validated.
///
/// # Errors
/// Returns a [`PersistError`] when the bytes are not a valid tree
/// image: wrong magic or version, truncation, checksum mismatch, or
/// a decoded structure that fails invariant validation.
pub fn deserialize_rect<const D: usize>(bytes: &[u8]) -> Result<RectCore<D>, PersistError> {
    if bytes.len() < 16 {
        return Err(if bytes.starts_with(b"CSJRTREE") || b"CSJRTREE".starts_with(bytes) {
            PersistError::Truncated
        } else {
            PersistError::BadMagic
        });
    }
    let (payload, tail) = bytes.split_at(bytes.len() - 8);
    // csj-lint: allow(panic-safety) — split_at(len - 8) makes the tail
    // exactly 8 bytes (the length was bounds-checked above).
    let stored_sum = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv1a64(payload) != stored_sum {
        // Distinguish truncation (prefix of a valid file) heuristically:
        // a wrong-magic buffer reports BadMagic below either way.
        if &payload[..8.min(payload.len())] != MAGIC {
            return Err(PersistError::BadMagic);
        }
        return Err(PersistError::ChecksumMismatch);
    }
    let mut r = Reader { buf: payload, pos: 0 };
    if r.take(8)? != MAGIC {
        return Err(PersistError::BadMagic);
    }
    let version = r.u32()?;
    if version != VERSION {
        return Err(PersistError::BadVersion(version));
    }
    let dim = r.u32()?;
    if dim as usize != D {
        return Err(PersistError::DimensionMismatch { stored: dim, requested: D as u32 });
    }
    let num_records = r.u64()? as usize;
    let max_fanout = r.u32()? as usize;
    let min_fanout = r.u32()? as usize;
    let split = match r.u32()? {
        0 => SplitStrategy::Linear,
        1 => SplitStrategy::Quadratic,
        other => {
            return Err(PersistError::CorruptStructure(format!("unknown split strategy {other}")))
        }
    };
    let reinsert_fraction = r.f64()?;
    let node_count = r.u32()? as usize;
    let root_mark = r.u32()?;
    // Plausibility guards so a corrupt (but checksum-colliding) header
    // cannot trigger huge allocations: every node record occupies at
    // least 12 bytes + the MBR corners.
    let min_node_bytes = 12 + 16 * D;
    if node_count.saturating_mul(min_node_bytes) > r.buf.len() {
        return Err(PersistError::Truncated);
    }
    if num_records.saturating_mul(4 + 8 * D) > r.buf.len() {
        return Err(PersistError::Truncated);
    }

    // Validate config bounds by hand: `RTreeConfig::validate` panics,
    // and a garbage file must produce an error, never a panic.
    if max_fanout < 4
        || min_fanout < 2
        || min_fanout > max_fanout / 2
        || !(0.0..0.5).contains(&reinsert_fraction)
    {
        return Err(PersistError::CorruptStructure(format!(
            "invalid tree config: max_fanout={max_fanout} min_fanout={min_fanout} reinsert={reinsert_fraction}"
        )));
    }
    let config = RTreeConfig { max_fanout, min_fanout, split, reinsert_fraction };
    let mut core = RectCore::new(config);
    core.num_records = num_records;

    // First pass: allocate nodes (ids come out dense and sequential).
    let mut children_of: Vec<Vec<u32>> = Vec::with_capacity(node_count);
    for _ in 0..node_count {
        let level = r.u32()?;
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for v in lo.iter_mut() {
            *v = r.f64()?;
        }
        for v in hi.iter_mut() {
            *v = r.f64()?;
        }
        let n_children = r.u32()? as usize;
        if n_children > node_count {
            return Err(PersistError::CorruptStructure("child count exceeds node count".into()));
        }
        let mut children = Vec::with_capacity(n_children);
        for _ in 0..n_children {
            children.push(r.u32()?);
        }
        let n_entries = r.u32()? as usize;
        if n_entries > num_records {
            return Err(PersistError::CorruptStructure("entry count exceeds record count".into()));
        }
        let mut entries = Vec::with_capacity(n_entries);
        for _ in 0..n_entries {
            let id = r.u32()?;
            let mut coords = [0.0; D];
            for v in coords.iter_mut() {
                *v = r.f64()?;
            }
            entries.push(LeafEntry::new(id, Point::new(coords)));
        }
        let node = RNode {
            mbr: if (0..D).all(|d| lo[d] <= hi[d]) {
                Mbr::new(Point::new(lo), Point::new(hi))
            } else {
                return Err(PersistError::CorruptStructure("inverted MBR".into()));
            },
            parent: None,
            level,
            children: Vec::new(),
            entries: entries.into(),
        };
        core.arena.alloc(node);
        children_of.push(children);
    }

    // Second pass: wire children and parents.
    for (idx, children) in children_of.into_iter().enumerate() {
        let parent_id = NodeId(idx as u32);
        for c in children {
            if c as usize >= node_count {
                return Err(PersistError::CorruptStructure(format!("child id {c} out of range")));
            }
            let child_id = NodeId(c);
            core.arena.get_mut(child_id).parent = Some(parent_id);
            core.arena.get_mut(parent_id).children.push(child_id);
        }
    }

    core.root = if root_mark == NO_NODE {
        None
    } else {
        if node_count == 0 {
            return Err(PersistError::CorruptStructure("root marked but no nodes".into()));
        }
        Some(NodeId(0))
    };

    crate::validate::validate_rect_tree(&core)
        .map_err(|e| PersistError::CorruptStructure(e.to_string()))?;
    Ok(core)
}

/// Writes already-serialized index bytes to `path` atomically (temp
/// file + rename), so readers never observe a half-written index.
///
/// # Errors
/// Returns [`PersistError::Io`] when the temp-file write or rename
/// fails; the destination is left untouched.
pub fn save_bytes(path: impl AsRef<std::path::Path>, bytes: &[u8]) -> Result<(), PersistError> {
    csj_storage::fault::write_file_atomic(path, bytes).map_err(PersistError::from)
}

/// Like [`save_bytes`], but routed through a fault injector — used to
/// drill the recovery path (fail-once, torn writes) from tests.
///
/// # Errors
/// Returns [`PersistError::Io`] for injected write failures; torn
/// writes report success and are caught by the reader's checksum.
pub fn save_bytes_with_faults(
    path: impl AsRef<std::path::Path>,
    bytes: &[u8],
    injector: &mut csj_storage::FaultInjector,
) -> Result<(), PersistError> {
    csj_storage::fault::write_file_with_faults(path, bytes, injector).map_err(PersistError::from)
}

/// Reads raw index bytes from `path` (checksum verification happens in
/// the deserializer).
///
/// # Errors
/// Returns [`PersistError::Io`] when the file cannot be read.
pub fn load_bytes(path: impl AsRef<std::path::Path>) -> Result<Vec<u8>, PersistError> {
    let path = path.as_ref();
    std::fs::read(path).map_err(|e| PersistError::Io(format!("{}: {e}", path.display())))
}

impl<const D: usize> crate::rstar::RStarTree<D> {
    /// Serializes the tree with [`serialize_rect`].
    pub fn to_bytes(&self) -> Vec<u8> {
        serialize_rect(self.core())
    }

    /// Loads a tree persisted by [`RStarTree::to_bytes`] (or
    /// [`crate::rtree::RTree::to_bytes`] — the on-disk layout is shared).
    ///
    /// # Errors
    /// Returns a [`PersistError`] as documented on
    /// [`deserialize_rect`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        Ok(crate::rstar::RStarTree { core: deserialize_rect(bytes)? })
    }

    /// Persists the tree to `path` atomically.
    ///
    /// # Errors
    /// Returns [`PersistError::Io`] when writing or renaming fails.
    pub fn save_to_file(&self, path: impl AsRef<std::path::Path>) -> Result<(), PersistError> {
        save_bytes(path, &self.to_bytes())
    }

    /// Loads a tree persisted by [`RStarTree::save_to_file`]. Corruption
    /// (bit rot, torn writes) surfaces as a typed [`PersistError`] —
    /// typically [`PersistError::ChecksumMismatch`] or
    /// [`PersistError::Truncated`] — never a panic, so callers can
    /// restore the file and retry.
    ///
    /// # Errors
    /// Returns a [`PersistError`] when the file cannot be read or its
    /// contents fail decoding/validation.
    pub fn load_from_file(path: impl AsRef<std::path::Path>) -> Result<Self, PersistError> {
        Self::from_bytes(&load_bytes(path)?)
    }
}

impl<const D: usize> crate::rtree::RTree<D> {
    /// Serializes the tree with [`serialize_rect`].
    pub fn to_bytes(&self) -> Vec<u8> {
        serialize_rect(self.core())
    }

    /// Loads a tree persisted by [`RTree::to_bytes`].
    ///
    /// # Errors
    /// Returns a [`PersistError`] as documented on
    /// [`deserialize_rect`].
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, PersistError> {
        Ok(crate::rtree::RTree { core: deserialize_rect(bytes)? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rstar::RStarTree;
    use crate::traits::JoinIndex;
    use csj_geom::Metric;

    fn sample_tree(n: usize) -> RStarTree<2> {
        let pts: Vec<Point<2>> = (0..n)
            .map(|i| {
                Point::new([
                    ((i * 2654435761) % 10_000) as f64 / 10_000.0,
                    ((i * 40503 + 7) % 10_000) as f64 / 10_000.0,
                ])
            })
            .collect();
        RStarTree::bulk_load_str(&pts, RTreeConfig::with_max_fanout(12))
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let tree = sample_tree(900);
        let bytes = tree.to_bytes();
        let loaded = RStarTree::<2>::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.num_records(), tree.num_records());
        assert_eq!(loaded.height(), tree.height());
        assert_eq!(loaded.core().node_count(), tree.core().node_count());
        // Queries agree exactly.
        let q = Point::new([0.3, 0.7]);
        let mut a = tree.core().range_query_ball(&q, 0.1, Metric::Euclidean);
        let mut b = loaded.core().range_query_ball(&q, 0.1, Metric::Euclidean);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn roundtrip_is_deterministic() {
        let tree = sample_tree(400);
        let bytes = tree.to_bytes();
        let again = RStarTree::<2>::from_bytes(&bytes).unwrap().to_bytes();
        assert_eq!(bytes, again, "serialize ∘ deserialize is the identity on bytes");
    }

    #[test]
    fn empty_tree_roundtrip() {
        let tree = RStarTree::<2>::new(RTreeConfig::default());
        let loaded = RStarTree::<2>::from_bytes(&tree.to_bytes()).unwrap();
        assert_eq!(loaded.num_records(), 0);
        assert!(loaded.root().is_none());
    }

    #[test]
    fn loaded_tree_supports_further_insertion() {
        let mut loaded = RStarTree::<2>::from_bytes(&sample_tree(300).to_bytes()).unwrap();
        for i in 0..100u32 {
            loaded.insert(1000 + i, Point::new([0.001 * i as f64, 0.5]));
        }
        assert_eq!(loaded.num_records(), 400);
        crate::validate::validate_rect_tree(loaded.core()).unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        assert_eq!(RStarTree::<2>::from_bytes(b"NOTATREE").unwrap_err(), PersistError::BadMagic);
        assert_eq!(RStarTree::<2>::from_bytes(b"CS").unwrap_err(), PersistError::Truncated);
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let tree = sample_tree(100);
        let bytes = tree.to_bytes();
        match crate::persist::deserialize_rect::<3>(&bytes) {
            Err(PersistError::DimensionMismatch { stored: 2, requested: 3 }) => {}
            other => panic!("expected dimension mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_rejected() {
        let bytes = sample_tree(200).to_bytes();
        for cut in [9, bytes.len() / 2, bytes.len() - 1] {
            // A truncated file either fails its checksum or runs out of
            // bytes; both refuse the load.
            let err = RStarTree::<2>::from_bytes(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, PersistError::Truncated | PersistError::ChecksumMismatch),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn corruption_caught_by_validation() {
        let mut bytes = sample_tree(300).to_bytes();
        // Flip a coordinate byte deep in the payload. Structural
        // validation alone cannot see an interior-point flip (leaf MBRs
        // are set by extreme points), so the checksum must catch it.
        let idx = bytes.len() - 20;
        bytes[idx] ^= 0xFF;
        assert_eq!(RStarTree::<2>::from_bytes(&bytes).unwrap_err(), PersistError::ChecksumMismatch);
    }

    #[test]
    fn version_rejected() {
        // Rewrite the version field and re-stamp the checksum so the
        // version check itself is exercised.
        let tree = sample_tree(50);
        let bytes = tree.to_bytes();
        let mut payload = bytes[..bytes.len() - 8].to_vec();
        payload[8] = 99;
        let sum = fnv1a64(&payload);
        payload.extend_from_slice(&sum.to_le_bytes());
        assert!(matches!(
            RStarTree::<2>::from_bytes(&payload).unwrap_err(),
            PersistError::BadVersion(_)
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::rstar::RStarTree;
    use crate::traits::JoinIndex;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Round-trip over arbitrary trees (dynamic and bulk-built, both
        /// fanouts) preserves records, structure and query behaviour.
        #[test]
        fn roundtrip_arbitrary_trees(
            pts in prop::collection::vec(prop::array::uniform2(-5.0f64..5.0), 0..250),
            fanout in 4usize..12,
            bulk in any::<bool>(),
        ) {
            let points: Vec<Point<2>> = pts.into_iter().map(Point::new).collect();
            let cfg = RTreeConfig::with_max_fanout(fanout);
            let tree = if bulk {
                RStarTree::bulk_load_str(&points, cfg)
            } else {
                RStarTree::from_points(&points, cfg)
            };
            let loaded = RStarTree::<2>::from_bytes(&tree.to_bytes()).unwrap();
            prop_assert_eq!(loaded.num_records(), tree.num_records());
            prop_assert_eq!(loaded.height(), tree.height());
            let mut a: Vec<u32> = Vec::new();
            let mut b: Vec<u32> = Vec::new();
            if let (Some(ra), Some(rb)) = (tree.root(), loaded.root()) {
                tree.collect_record_ids(ra, &mut a);
                loaded.collect_record_ids(rb, &mut b);
            }
            a.sort_unstable();
            b.sort_unstable();
            prop_assert_eq!(a, b);
        }
    }
}

#[cfg(test)]
mod fuzz {
    use crate::rstar::RStarTree;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The decoder never panics on arbitrary input — it returns an
        /// error for anything that is not a valid index file.
        #[test]
        fn decoder_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
            let _ = RStarTree::<2>::from_bytes(&bytes);
            let _ = crate::persist::deserialize_rect::<3>(&bytes);
        }

        /// Nor on mutations of a valid file (truncation, bit flips,
        /// splices) — every corruption is rejected with an error.
        #[test]
        fn decoder_never_panics_on_mutations(
            flip_at in 0usize..4096,
            cut in 0usize..4096,
        ) {
            let pts: Vec<csj_geom::Point<2>> = (0..100)
                .map(|i| csj_geom::Point::new([i as f64 * 0.01, (i % 7) as f64 * 0.1]))
                .collect();
            let tree = RStarTree::bulk_load_str(&pts, crate::RTreeConfig::with_max_fanout(8));
            let mut bytes = tree.to_bytes();
            if !bytes.is_empty() {
                let i = flip_at % bytes.len();
                bytes[i] ^= 0x5A;
                let end = cut % (bytes.len() + 1);
                let _ = RStarTree::<2>::from_bytes(&bytes[..end]);
                let _ = RStarTree::<2>::from_bytes(&bytes);
            }
        }
    }
}
