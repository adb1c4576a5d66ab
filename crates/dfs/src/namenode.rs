//! The name node: file → block layout bookkeeping.

use crate::block::{BlockId, BlockInfo};
use crate::placement::PlacementPolicy;
use serde::{Deserialize, Serialize};
use simgrid::cluster::{ClusterSpec, NodeId};
use simgrid::rng::SimRng;

/// The block layout of one stored input file.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FileLayout {
    pub blocks: Vec<BlockInfo>,
    pub block_mb: f64,
}

impl FileLayout {
    pub fn total_mb(&self) -> f64 {
        self.blocks.iter().map(|b| b.size_mb).sum()
    }

    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Nodes holding a replica of `block`.
    pub fn replicas(&self, block: BlockId) -> &[NodeId] {
        &self.blocks[block.0].replicas
    }

    /// Whether a map over `block` would be node-local on `node`.
    pub fn is_local(&self, block: BlockId, node: NodeId) -> bool {
        self.blocks[block.0].is_local_to(node)
    }

    /// The namenode view inverted to per-node dense postings: for each of
    /// the cluster's `workers` nodes, the ascending block indices it holds
    /// a replica of. Placement and crash-time replica pruning walk one
    /// node's posting list instead of scanning every block and hashing
    /// membership — the layout stays the source of truth, postings are
    /// derived (and rebuilt, never serialized).
    pub fn node_postings(&self, workers: usize) -> Vec<Vec<u32>> {
        let mut per_node: Vec<Vec<u32>> = vec![Vec::new(); workers];
        for (bi, block) in self.blocks.iter().enumerate() {
            for &n in &block.replicas {
                per_node[n.slot(workers)].push(bi as u32);
            }
        }
        per_node
    }
}

/// Minimal name node: creates layouts. (The real name node also tracks
/// leases, heartbeats from data nodes, etc.; none of that is observable by
/// the slot manager, so it is out of scope.)
#[derive(Debug, Clone)]
pub struct NameNode {
    cluster: ClusterSpec,
    policy: PlacementPolicy,
    block_mb: f64,
    rng: SimRng,
}

impl NameNode {
    /// `block_mb` — HDFS block size; the paper sets 128 MB.
    pub fn new(cluster: ClusterSpec, policy: PlacementPolicy, block_mb: f64, rng: SimRng) -> Self {
        assert!(block_mb > 0.0, "block size must be positive");
        NameNode {
            cluster,
            policy,
            block_mb,
            rng,
        }
    }

    /// Paper defaults: 128 MB blocks, 3× replication.
    pub fn paper_default(cluster: ClusterSpec, rng: SimRng) -> Self {
        NameNode::new(cluster, PlacementPolicy::default(), 128.0, rng)
    }

    pub fn block_mb(&self) -> f64 {
        self.block_mb
    }

    /// Store a file of `size_mb`, returning its layout. The final block may
    /// be partial; a zero-size file yields zero blocks.
    pub fn create_file(&mut self, size_mb: f64) -> FileLayout {
        assert!(size_mb >= 0.0, "file size cannot be negative");
        let mut blocks = Vec::new();
        let mut remaining = size_mb;
        let mut index = 0usize;
        while remaining > 1e-9 {
            let sz = remaining.min(self.block_mb);
            let replicas = self.policy.place(&self.cluster, index, &mut self.rng);
            blocks.push(BlockInfo {
                id: BlockId(index),
                size_mb: sz,
                replicas,
            });
            remaining -= sz;
            index += 1;
        }
        FileLayout {
            blocks,
            block_mb: self.block_mb,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn namenode() -> NameNode {
        NameNode::paper_default(ClusterSpec::small(8), SimRng::new(5))
    }

    #[test]
    fn block_count_matches_ceiling_division() {
        let mut nn = namenode();
        let f = nn.create_file(1000.0);
        assert_eq!(f.num_blocks(), 8); // 7 full + 1 partial (104 MB)
        assert!((f.total_mb() - 1000.0).abs() < 1e-9);
        let last = f.blocks.last().unwrap();
        assert!((last.size_mb - 104.0).abs() < 1e-9);
    }

    #[test]
    fn exact_multiple_has_no_partial_block() {
        let mut nn = namenode();
        let f = nn.create_file(1024.0);
        assert_eq!(f.num_blocks(), 8);
        assert!(f.blocks.iter().all(|b| (b.size_mb - 128.0).abs() < 1e-9));
    }

    #[test]
    fn empty_file_has_no_blocks() {
        let mut nn = namenode();
        let f = nn.create_file(0.0);
        assert_eq!(f.num_blocks(), 0);
        assert_eq!(f.total_mb(), 0.0);
    }

    #[test]
    fn locality_queries() {
        let mut nn = namenode();
        let f = nn.create_file(512.0);
        for b in &f.blocks {
            let holder = b.replicas[0];
            assert!(f.is_local(b.id, holder));
            // find some node that is NOT a holder (cluster of 8, 3 replicas)
            let non = (0..8)
                .map(NodeId)
                .find(|n| !b.replicas.contains(n))
                .unwrap();
            assert!(!f.is_local(b.id, non));
        }
    }

    #[test]
    fn node_postings_invert_the_layout() {
        let mut nn = namenode();
        let f = nn.create_file(2048.0);
        let postings = f.node_postings(8);
        for (n, posts) in postings.iter().enumerate() {
            assert!(posts.windows(2).all(|w| w[0] < w[1]), "postings ascend");
            for &bi in posts {
                assert!(f.is_local(BlockId(bi as usize), NodeId(n)));
            }
        }
        // the inversion is complete: one posting per replica
        let posted: usize = postings.iter().map(|p| p.len()).sum();
        let replicas: usize = f.blocks.iter().map(|b| b.replicas.len()).sum();
        assert_eq!(posted, replicas);
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = NameNode::paper_default(ClusterSpec::small(8), SimRng::new(42));
        let mut b = NameNode::paper_default(ClusterSpec::small(8), SimRng::new(42));
        let fa = a.create_file(2048.0);
        let fb = b.create_file(2048.0);
        for (x, y) in fa.blocks.iter().zip(&fb.blocks) {
            assert_eq!(x.replicas, y.replicas);
        }
    }

    #[test]
    fn wide_layouts_hold_only_their_replicas() {
        // a block's replica list is the k-element pick itself, not a
        // cluster-sized index vector cut down to k: 2,048 blocks on 1,024
        // nodes hold 6,144 replica slots, not 2 million
        let mut nn = NameNode::paper_default(ClusterSpec::small(1024), SimRng::new(11));
        let f = nn.create_file(2048.0 * 128.0);
        assert_eq!(f.num_blocks(), 2048);
        for b in &f.blocks {
            assert_eq!(b.replicas.len(), 3);
            assert_eq!(b.replicas.capacity(), b.replicas.len(), "block {}", b.id.0);
        }
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn zero_block_size_rejected() {
        let _ = NameNode::new(
            ClusterSpec::small(2),
            PlacementPolicy::default(),
            0.0,
            SimRng::new(1),
        );
    }

    proptest::proptest! {
        #[test]
        fn prop_layout_conserves_bytes(size in 0.0f64..10_000.0) {
            let mut nn = namenode();
            let f = nn.create_file(size);
            proptest::prop_assert!((f.total_mb() - size).abs() < 1e-6);
            for b in &f.blocks {
                proptest::prop_assert!(b.size_mb > 0.0 && b.size_mb <= 128.0 + 1e-9);
            }
            // ids are dense 0..n
            for (i, b) in f.blocks.iter().enumerate() {
                proptest::prop_assert_eq!(b.id, BlockId(i));
            }
        }
    }
}
