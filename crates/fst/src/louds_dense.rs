//! The LOUDS-Dense encoding for the upper trie levels, composed with the
//! LOUDS-Sparse encoding for the rest — SuRF's full "LOUDS-DS" layout
//! (paper §2: "The trie uses the LOUDS-Dense encoding for the upper levels
//! and LOUDS-Sparse for the lower levels").
//!
//! Each dense node spends two 256-bit bitmaps — `labels` (which bytes
//! branch) and `has_child` (which branches are internal) — so a branch
//! lookup is a single bit probe instead of a label binary search. Dense
//! pays 512 bits per *node*, sparse 10 bits per *branch*; following SuRF's
//! size-ratio rule, levels stay dense while their bitmap cost is within a
//! constant factor of their sparse cost.
//!
//! Node numbering is global level-order: dense nodes first (the bitmaps are
//! laid out in level order), then the sparse *forest* whose roots are the
//! children of the deepest dense level, built with
//! [`crate::builder::build_forest`] so leaf indices keep a single global
//! level-order numbering across both halves.

use grafite_succinct::io::{DecodeError, WordReader, WordWriter};
use grafite_succinct::{BitVec, RsBitVec};

use crate::builder::{build_forest, BuildResult};
use crate::trie::{Fst, FstIter, Lookup};

/// A trie with LOUDS-Dense upper levels and LOUDS-Sparse lower levels.
#[derive(Clone, Debug)]
pub struct FstDs {
    /// 256 bits per dense node: which labels exist.
    labels: RsBitVec,
    /// 256 bits per dense node: which existing labels have a child.
    has_child: RsBitVec,
    /// Number of dense byte-levels (`0` = pure sparse).
    dense_depth: usize,
    sparse: Fst,
}

/// Build output: trie plus the global level-order leaf → key mapping.
pub struct DsBuildResult {
    /// The encoded trie.
    pub fst: FstDs,
    /// `leaf_to_key[leaf] = key index` (dense leaves first, then sparse).
    pub leaf_to_key: Vec<usize>,
}

impl FstDs {
    /// Builds with an automatically chosen dense depth: a level stays dense
    /// while its bitmap cost is at most `16x` its sparse cost (SuRF's
    /// size-ratio heuristic).
    pub fn build_auto(keys: &[&[u8]]) -> DsBuildResult {
        let mut depth = 0usize;
        // Nodes at level d = distinct d-byte prefixes that are internal;
        // approximate both costs from distinct prefix counts.
        loop {
            let nodes = distinct_prefixes(keys, depth);
            let branches = distinct_prefixes(keys, depth + 1);
            if nodes == 0 || branches == 0 {
                break;
            }
            let dense_bits = nodes * 512;
            let sparse_bits = branches * 10;
            if dense_bits > 16 * sparse_bits {
                break;
            }
            depth += 1;
            if depth >= 8 {
                break;
            }
        }
        Self::build_with_depth(keys, depth)
    }

    /// Builds with exactly `dense_depth` dense byte-levels (`0` = pure
    /// sparse). Key contract as in [`crate::builder::build`].
    pub fn build_with_depth(keys: &[&[u8]], dense_depth: usize) -> DsBuildResult {
        let mut labels = BitVec::new();
        let mut has_child = BitVec::new();
        let mut dense_leaf_keys: Vec<usize> = Vec::new();
        let mut sparse_roots: Vec<(usize, usize, usize)> = Vec::new();
        let mut dense_nodes = 0usize;

        if dense_depth == 0 || keys.is_empty() {
            if !keys.is_empty() {
                sparse_roots.push((0, keys.len(), 0));
            }
        } else {
            // Level-order walk over the dense levels.
            let mut queue: std::collections::VecDeque<(usize, usize, usize)> =
                std::collections::VecDeque::new();
            queue.push_back((0, keys.len(), 0));
            while let Some((lo, hi, depth)) = queue.pop_front() {
                let base = dense_nodes * 256;
                dense_nodes += 1;
                labels.push_bits(0, 0); // no-op, keeps symmetry readable
                while labels.len() < base + 256 {
                    labels.push(false);
                }
                while has_child.len() < base + 256 {
                    has_child.push(false);
                }
                let mut i = lo;
                while i < hi {
                    let byte = keys[i][depth];
                    let mut j = i + 1;
                    while j < hi && keys[j][depth] == byte {
                        j += 1;
                    }
                    labels.set(base + byte as usize, true);
                    if j - i == 1 && keys[i].len() == depth + 1 {
                        dense_leaf_keys.push(i); // leaf branch: has_child stays 0
                    } else {
                        has_child.set(base + byte as usize, true);
                        if depth + 1 == dense_depth {
                            sparse_roots.push((i, j, depth + 1));
                        } else {
                            queue.push_back((i, j, depth + 1));
                        }
                    }
                    i = j;
                }
            }
        }

        let BuildResult {
            fst: sparse,
            leaf_to_key: sparse_leaf_keys,
        } = build_forest(keys, sparse_roots);

        // Dense leaf emission above is queue order = level order, but the
        // bitmap-derived leaf index is *bitmap order* — identical, because
        // nodes are appended in level order and bytes scanned ascending.
        let mut leaf_to_key = dense_leaf_keys;
        leaf_to_key.extend(sparse_leaf_keys);

        DsBuildResult {
            fst: FstDs {
                labels: RsBitVec::new(labels),
                has_child: RsBitVec::new(has_child),
                dense_depth: if dense_nodes == 0 { 0 } else { dense_depth },
                sparse,
            },
            leaf_to_key,
        }
    }

    /// Number of stored keys.
    pub fn num_leaves(&self) -> usize {
        self.dense_leaves() + self.sparse.num_leaves()
    }

    /// Number of dense nodes (256 bitmap bits each).
    #[inline]
    fn dense_nodes(&self) -> usize {
        self.labels.len() / 256
    }

    /// Number of dense leaves: the existing labels without a child.
    #[inline]
    fn dense_leaves(&self) -> usize {
        self.labels.count_ones() - self.has_child.count_ones()
    }

    /// The number of dense byte-levels in use.
    pub fn dense_depth(&self) -> usize {
        self.dense_depth
    }

    /// Heap size in bits (dense bitmaps + sparse arrays + directories).
    pub fn size_in_bits(&self) -> usize {
        self.labels.size_in_bits() + self.has_child.size_in_bits() + self.sparse.size_in_bits()
    }

    /// Leaf index of a dense leaf branch at bitmap position `pos`
    /// (global numbering: dense leaves come first).
    #[inline]
    fn dense_leaf_index(&self, pos: usize) -> usize {
        self.labels.rank1(pos) - self.has_child.rank1(pos)
    }

    /// Child node number of the internal dense branch at `pos`; values
    /// `>= dense_nodes` denote sparse roots (`child − dense_nodes`).
    #[inline]
    fn dense_child(&self, pos: usize) -> usize {
        self.has_child.rank1(pos + 1)
    }

    /// The sparse root a dense child number denotes, or `None` for a dense
    /// node. In a built trie exactly the children of the last dense level
    /// are sparse roots; deciding by the number rather than by the stored
    /// depth keeps a forged depth from walking past the dense nodes.
    #[inline]
    fn sparse_root(&self, child: usize) -> Option<usize> {
        child.checked_sub(self.dense_nodes())
    }

    /// Walks the trie along `key` (cf. [`Fst::lookup`]).
    pub fn lookup(&self, key: &[u8]) -> Lookup {
        if self.dense_depth == 0 {
            return self.sparse.lookup(key);
        }
        let mut node = 0usize;
        for depth in 0..key.len() {
            let pos = node * 256 + key[depth] as usize;
            if !self.labels.get(pos) {
                return Lookup::NotFound;
            }
            if !self.has_child.get(pos) {
                return Lookup::Leaf {
                    leaf: self.dense_leaf_index(pos),
                    depth: depth + 1,
                };
            }
            let child = self.dense_child(pos);
            if let Some(root) = self.sparse_root(child) {
                // Continue in the sparse forest.
                return match self.sparse.lookup_in(root, &key[depth + 1..]) {
                    Lookup::NotFound => Lookup::NotFound,
                    Lookup::ExhaustedAtInternal => Lookup::ExhaustedAtInternal,
                    Lookup::Leaf { leaf, depth: d } => Lookup::Leaf {
                        leaf: self.dense_leaves() + leaf,
                        depth: depth + 1 + d,
                    },
                };
            }
            node = child;
        }
        Lookup::ExhaustedAtInternal
    }

    /// Positions an iterator at the first stored key not decidedly smaller
    /// than `probe` (same contract as [`Fst::seek`]).
    pub fn seek(&self, probe: &[u8]) -> Option<DsIter<'_>> {
        if self.num_leaves() == 0 {
            return None;
        }
        if self.dense_depth == 0 {
            let inner = self.sparse.seek(probe)?;
            return Some(DsIter {
                fst: self,
                dense_stack: Vec::new(),
                dense_key: Vec::new(),
                dense_leaf_pos: None,
                sparse_iter: Some(inner),
            });
        }
        // The stored depth sizes nothing: a loaded blob may claim any
        // depth, while the walk descends only through nodes that exist.
        let hint = probe.len().min(self.dense_depth);
        let mut it = DsIter {
            fst: self,
            dense_stack: Vec::with_capacity(hint),
            dense_key: Vec::with_capacity(hint),
            dense_leaf_pos: None,
            sparse_iter: None,
        };
        let mut node = 0usize;
        let mut depth = 0usize;
        loop {
            if depth >= probe.len() {
                // Probe exhausted: leftmost leaf of this dense subtree.
                let pos = self
                    .labels
                    .bits()
                    .next_one(node * 256)
                    .expect("non-empty node");
                it.push_dense(pos);
                return if it.settle_leftmost() { Some(it) } else { None };
            }
            let target = probe[depth];
            let base = node * 256;
            match self
                .labels
                .bits()
                .next_one(base + target as usize)
                .filter(|&p| p < base + 256)
            {
                None => {
                    return if it.advance_dense() { Some(it) } else { None };
                }
                Some(pos) if pos > base + target as usize => {
                    it.push_dense(pos);
                    return if it.settle_leftmost() { Some(it) } else { None };
                }
                Some(pos) => {
                    // Exact label match.
                    it.push_dense(pos);
                    if !self.has_child.get(pos) {
                        it.dense_leaf_pos = Some(pos);
                        return Some(it);
                    }
                    let child = self.dense_child(pos);
                    if let Some(root) = self.sparse_root(child) {
                        match self.sparse.seek_in(root, &probe[depth + 1..]) {
                            Some(inner) => {
                                it.sparse_iter = Some(inner);
                                return Some(it);
                            }
                            None => {
                                // Subtree exhausted below: next dense branch.
                                return if it.advance_dense() { Some(it) } else { None };
                            }
                        }
                    }
                    node = child;
                    depth += 1;
                }
            }
        }
    }

    /// Access to the sparse half (diagnostics).
    pub fn sparse(&self) -> &Fst {
        &self.sparse
    }

    /// Serializes the full LOUDS-DS layout: the dense `labels`/`has_child`
    /// bit planes as bare bits, followed by the sparse half. Loading
    /// derives the directories and the dense node and leaf counts from the
    /// bits. Layout: `[dense_depth] + labels + has_child + sparse`. Returns
    /// the word count.
    pub fn write_to(&self, w: &mut WordWriter<'_>) -> std::io::Result<usize> {
        let before = w.words_written();
        w.word(self.dense_depth as u64)?;
        self.labels.write_to(w)?;
        self.has_child.write_to(w)?;
        self.sparse.write_to(w)?;
        Ok(w.words_written() - before)
    }

    /// Reads back what [`FstDs::write_to`] wrote.
    pub fn read_from(src: &mut WordReader<'_>) -> Result<Self, DecodeError> {
        let dense_depth = src.length()?;
        let labels = RsBitVec::read_from(src)?;
        let has_child = RsBitVec::read_from(src)?;
        let sparse = Fst::read_from(src)?;
        if labels.len() % 256 != 0 || has_child.len() != labels.len() {
            return Err(DecodeError::Invalid("dense bitmap sizes inconsistent"));
        }
        // The shape of a built head: every child bit sits on a label (so
        // the dense leaf count cannot go negative), every node has a label,
        // the internal branches parent dense nodes `1..` and then each
        // sparse root once, and a dense child comes after its parent.
        let dense_nodes = labels.len() / 256;
        let (label_words, child_words) = (labels.bits().words(), has_child.bits().words());
        let shape_ok = child_words
            .iter()
            .zip(label_words)
            .all(|(c, l)| c & !l == 0)
            && (label_words.chunks(4).take(dense_nodes)).all(|node| node.iter().any(|&w| w != 0))
            && (dense_nodes == 0 || has_child.count_ones() + 1 == dense_nodes + sparse.num_roots())
            && (has_child.bits().iter_ones().enumerate()).all(|(j, pos)| j + 1 > pos / 256);
        if !shape_ok {
            return Err(DecodeError::Invalid("dense trie shape inconsistent"));
        }
        if labels.is_empty() && dense_depth != 0 {
            return Err(DecodeError::Invalid("dense depth without dense nodes"));
        }
        Ok(Self {
            labels,
            has_child,
            dense_depth,
            sparse,
        })
    }
}

fn distinct_prefixes(keys: &[&[u8]], depth: usize) -> usize {
    let mut count = 0usize;
    let mut prev: Option<&[u8]> = None;
    for k in keys {
        if k.len() < depth {
            continue;
        }
        let p = &k[..depth];
        if prev != Some(p) {
            count += 1;
            prev = Some(p);
        }
    }
    count
}

/// A cursor over the leaves of an [`FstDs`] in lexicographic order.
#[derive(Clone, Debug)]
pub struct DsIter<'a> {
    fst: &'a FstDs,
    /// Bitmap positions of the chosen branch per dense level.
    dense_stack: Vec<usize>,
    dense_key: Vec<u8>,
    /// Set when the cursor rests on a dense leaf.
    dense_leaf_pos: Option<usize>,
    /// Set when the cursor rests inside the sparse forest.
    sparse_iter: Option<FstIter<'a>>,
}

impl<'a> DsIter<'a> {
    fn push_dense(&mut self, pos: usize) {
        self.dense_stack.push(pos);
        self.dense_key.push((pos % 256) as u8);
    }

    /// Descends from the dense branch on top of the stack to the leftmost
    /// leaf of its subtree (crossing into the sparse forest if needed).
    fn settle_leftmost(&mut self) -> bool {
        loop {
            let pos = *self
                .dense_stack
                .last()
                .expect("settle on empty dense stack");
            if !self.fst.has_child.get(pos) {
                self.dense_leaf_pos = Some(pos);
                return true;
            }
            let child = self.fst.dense_child(pos);
            if let Some(root) = self.fst.sparse_root(child) {
                // A built trie has no empty subtree; a forged one may, and
                // then the walk ends instead of panicking.
                self.sparse_iter = self.fst.sparse.seek_in(root, &[]);
                return self.sparse_iter.is_some();
            }
            let Some(next) = self
                .fst
                .labels
                .bits()
                .next_one(child * 256)
                .filter(|&p| p < (child + 1) * 256)
            else {
                return false;
            };
            self.push_dense(next);
        }
    }

    /// Moves to the next dense branch in DFS order and settles leftmost.
    fn advance_dense(&mut self) -> bool {
        self.dense_leaf_pos = None;
        self.sparse_iter = None;
        loop {
            let pos = match self.dense_stack.pop() {
                None => return false,
                Some(p) => p,
            };
            self.dense_key.pop();
            let node_end = (pos / 256 + 1) * 256;
            if let Some(next) = self
                .fst
                .labels
                .bits()
                .next_one(pos + 1)
                .filter(|&p| p < node_end)
            {
                self.push_dense(next);
                return self.settle_leftmost();
            }
        }
    }

    /// The current key (dense prefix + sparse suffix).
    pub fn key(&self) -> Vec<u8> {
        let mut k = self.dense_key.clone();
        if let Some(inner) = &self.sparse_iter {
            k.extend_from_slice(inner.key());
        }
        k
    }

    /// Global leaf index (dense leaves first, then sparse).
    pub fn leaf_index(&self) -> usize {
        match (&self.dense_leaf_pos, &self.sparse_iter) {
            (Some(pos), _) => self.fst.dense_leaf_index(*pos),
            (None, Some(inner)) => self.fst.dense_leaves() + inner.leaf_index(),
            _ => panic!("iterator not positioned on a leaf"),
        }
    }

    /// Steps to the next leaf in key order; `false` past the end.
    pub fn advance(&mut self) -> bool {
        if let Some(inner) = &mut self.sparse_iter {
            if inner.advance() {
                return true;
            }
        }
        if self.dense_stack.is_empty() {
            // Pure-sparse configuration: the inner iterator is the walk.
            return false;
        }
        self.advance_dense()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::build;

    fn random_byte_keys(n: usize, seed: u64) -> Vec<Vec<u8>> {
        let mut state = seed;
        let mut keys: Vec<Vec<u8>> = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state.to_be_bytes().to_vec()
            })
            .collect();
        keys.sort();
        keys.dedup();
        keys
    }

    /// The definitive check: on identical key sets, LOUDS-DS must agree
    /// with pure LOUDS-Sparse on every lookup and every seek.
    #[test]
    fn agrees_with_pure_sparse() {
        let keys = random_byte_keys(3000, 5);
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let sparse = build(&refs);
        for depth in [0usize, 1, 2, 3] {
            let ds = FstDs::build_with_depth(&refs, depth);
            assert_eq!(
                ds.fst.num_leaves(),
                sparse.fst.num_leaves(),
                "depth {depth}"
            );
            let mut state = 99u64;
            for _ in 0..2000 {
                state = state
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                let probe = state.to_be_bytes();
                // Lookup agreement (including mapped key identity).
                let via_sparse = match sparse.fst.lookup(&probe) {
                    Lookup::Leaf { leaf, depth } => Some((sparse.leaf_to_key[leaf], depth)),
                    _ => None,
                };
                let via_ds = match ds.fst.lookup(&probe) {
                    Lookup::Leaf { leaf, depth } => Some((ds.leaf_to_key[leaf], depth)),
                    _ => None,
                };
                assert_eq!(via_ds, via_sparse, "lookup {state} depth {depth}");
                // Seek agreement.
                let s = sparse
                    .fst
                    .seek(&probe)
                    .map(|it| (it.key().to_vec(), sparse.leaf_to_key[it.leaf_index()]));
                let d = ds
                    .fst
                    .seek(&probe)
                    .map(|it| (it.key(), ds.leaf_to_key[it.leaf_index()]));
                assert_eq!(d, s, "seek {state} depth {depth}");
            }
        }
    }

    #[test]
    fn iteration_visits_all_keys_in_order() {
        let keys = random_byte_keys(500, 3);
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        for depth in [0usize, 1, 2] {
            let ds = FstDs::build_with_depth(&refs, depth);
            let mut it = ds.fst.seek(&[]).unwrap();
            let mut seen = vec![it.key()];
            while it.advance() {
                seen.push(it.key());
            }
            assert_eq!(seen.len(), keys.len(), "depth {depth}");
            assert_eq!(seen, keys, "depth {depth}");
        }
    }

    #[test]
    fn dense_leaves_in_upper_levels() {
        // Mixed-length prefix-free keys produce leaves in the dense levels.
        let keys: Vec<&[u8]> = vec![b"a", b"ba", b"bb", b"c", b"dddd"];
        let ds = FstDs::build_with_depth(&keys, 2);
        assert_eq!(ds.fst.num_leaves(), 5);
        for (i, k) in keys.iter().enumerate() {
            match ds.fst.lookup(k) {
                Lookup::Leaf { leaf, depth } => {
                    assert_eq!(depth, k.len());
                    assert_eq!(ds.leaf_to_key[leaf], i, "{k:?}");
                }
                other => panic!("lookup({k:?}) = {other:?}"),
            }
        }
        // "a" is a proper prefix of the probe: the undecided case the seek
        // contract returns (the caller refines with suffix bits).
        assert_eq!(ds.fst.seek(b"ab").unwrap().key(), b"a".to_vec());
        assert_eq!(ds.fst.seek(b"b0").unwrap().key(), b"ba".to_vec());
        assert_eq!(ds.fst.seek(b"cz").unwrap().key(), b"c".to_vec()); // prefix case again
        assert_eq!(ds.fst.seek(b"d0").unwrap().key(), b"dddd".to_vec());
        assert!(ds.fst.seek(b"e").is_none());
    }

    #[test]
    fn auto_depth_reasonable() {
        let keys = random_byte_keys(20_000, 11);
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let ds = FstDs::build_auto(&refs);
        assert!(
            ds.fst.dense_depth() >= 1,
            "random 64-bit keys should go dense at the top"
        );
        assert!(ds.fst.dense_depth() <= 3);
        // Space stays in the LOUDS-Sparse ballpark (dense is bounded by the
        // 16x per-level rule).
        let sparse = build(&refs);
        assert!(
            ds.fst.size_in_bits() < 3 * sparse.fst.size_in_bits(),
            "dense head blew up the space"
        );
    }

    #[test]
    fn empty_and_tiny() {
        let ds = FstDs::build_with_depth(&[], 2);
        assert_eq!(ds.fst.num_leaves(), 0);
        assert!(ds.fst.seek(b"x").is_none());
        assert_eq!(ds.fst.lookup(b"x"), Lookup::NotFound);

        let keys: Vec<&[u8]> = vec![b"zz"];
        let ds = FstDs::build_with_depth(&keys, 1);
        assert!(matches!(
            ds.fst.lookup(b"zz"),
            Lookup::Leaf { depth: 2, .. }
        ));
        assert_eq!(ds.fst.seek(b"a").unwrap().key(), b"zz".to_vec());
    }
}
