//! The immutable LOUDS-Sparse trie: point lookups, order-preserving leaf
//! iteration, and the `seek` (lower-bound) operation SuRF's range queries
//! are built on.

use grafite_succinct::io::{DecodeError, WordReader, WordWriter};
use grafite_succinct::RsBitVec;

/// A LOUDS-Sparse encoded trie over a prefix-free byte-string set.
///
/// Construct via [`crate::builder::build`].
#[derive(Clone, Debug)]
pub struct Fst {
    labels: Vec<u8>,
    has_child: RsBitVec,
    louds: RsBitVec,
    /// Nodes `0..num_roots` are forest roots; the `j`-th internal branch's
    /// child is node `num_roots + j` in level order.
    num_roots: usize,
}

/// Result of a point lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Lookup {
    /// No stored key is a prefix of the probe along the walked path.
    NotFound,
    /// A stored key of length `depth` is a prefix of (or equal to) the probe.
    Leaf {
        /// Index of the leaf in level-order emission (use with
        /// `leaf_to_key` from the builder to reach per-key payload).
        leaf: usize,
        /// Length of the stored (truncated) key.
        depth: usize,
    },
    /// The probe was exhausted at an internal node: stored keys strictly
    /// extend the probe.
    ExhaustedAtInternal,
}

impl Fst {
    pub(crate) fn from_parts(
        labels: Vec<u8>,
        has_child: RsBitVec,
        louds: RsBitVec,
        num_roots: usize,
    ) -> Self {
        Self {
            labels,
            has_child,
            louds,
            num_roots,
        }
    }

    /// Number of stored keys (= leaves, the branches without a child).
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.has_child.count_zeros()
    }

    /// Number of trie nodes (one LOUDS start bit each).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.louds.count_ones()
    }

    /// Number of forest roots (nodes `0..num_roots`).
    #[inline]
    pub(crate) fn num_roots(&self) -> usize {
        self.num_roots
    }

    /// Number of branches (entries of the parallel arrays).
    #[inline]
    pub fn num_branches(&self) -> usize {
        self.labels.len()
    }

    /// Heap size in bits: 8 (label) + 1 (has-child) + 1 (louds) per branch
    /// plus rank/select directories — the "10 bits per node" of the paper's
    /// §5 SuRF analysis.
    pub fn size_in_bits(&self) -> usize {
        self.labels.len() * 8 + self.has_child.size_in_bits() + self.louds.size_in_bits()
    }

    /// Serializes the trie: the two bit planes travel as bare bits, and
    /// loading derives their rank/select directories and the node and leaf
    /// counts from them. Layout: `[n_labels, num_roots] + labels
    /// (word-padded bytes) + has_child + louds`. Returns the word count.
    pub fn write_to(&self, w: &mut WordWriter<'_>) -> std::io::Result<usize> {
        let before = w.words_written();
        w.word(self.labels.len() as u64)?;
        w.word(self.num_roots as u64)?;
        w.bytes_padded(&self.labels)?;
        self.has_child.write_to(w)?;
        self.louds.write_to(w)?;
        Ok(w.words_written() - before)
    }

    /// Reads back what [`Fst::write_to`] wrote.
    pub fn read_from(src: &mut WordReader<'_>) -> Result<Self, DecodeError> {
        let n_labels = src.length()?;
        let num_roots = src.length()?;
        let labels = src.take_bytes(n_labels)?;
        let has_child = RsBitVec::read_from(src)?;
        let louds = RsBitVec::read_from(src)?;
        if has_child.len() != n_labels || louds.len() != n_labels {
            return Err(DecodeError::Invalid("trie parallel array lengths differ"));
        }
        // Every node but a root is the child of exactly one internal
        // branch, and the `j`-th child, node `num_roots + j`, comes after
        // the node holding its branch: every walk descends to higher node
        // numbers, so it ends inside the trie.
        let shape_ok = has_child.count_ones().checked_add(num_roots) == Some(louds.count_ones())
            && (has_child.bits().iter_ones().enumerate())
                .all(|(j, pos)| louds.rank1(pos + 1) <= num_roots.saturating_add(j));
        if !shape_ok {
            return Err(DecodeError::Invalid("trie shape inconsistent"));
        }
        Ok(Self {
            labels,
            has_child,
            louds,
            num_roots,
        })
    }

    /// The half-open branch-position range of node `k`.
    #[inline]
    fn node_range(&self, k: usize) -> (usize, usize) {
        let start = self.louds.select1(k);
        let end = if k + 1 < self.num_nodes() {
            self.louds.select1(k + 1)
        } else {
            self.labels.len()
        };
        (start, end)
    }

    /// The node a child branch leads to: the `j`-th internal branch (in
    /// level order) parents node `num_roots + j`.
    #[inline]
    fn child_node(&self, pos: usize) -> usize {
        self.num_roots + self.has_child.rank1(pos)
    }

    /// The leaf index of a non-child branch.
    #[inline]
    fn leaf_index(&self, pos: usize) -> usize {
        self.has_child.rank0(pos)
    }

    /// Binary search for `byte` within the (sorted) labels of `[s, e)`.
    #[inline]
    fn find_label(&self, s: usize, e: usize, byte: u8) -> Option<usize> {
        let slice = &self.labels[s..e];
        match slice.binary_search(&byte) {
            Ok(i) => Some(s + i),
            Err(_) => None,
        }
    }

    /// First position in `[s, e)` whose label is `>= byte`.
    #[inline]
    fn find_label_geq(&self, s: usize, e: usize, byte: u8) -> Option<usize> {
        let slice = &self.labels[s..e];
        let i = slice.partition_point(|&l| l < byte);
        if i < slice.len() {
            Some(s + i)
        } else {
            None
        }
    }

    /// Walks the trie along `key`.
    pub fn lookup(&self, key: &[u8]) -> Lookup {
        self.lookup_in(0, key)
    }

    /// Walks the subtree rooted at node `root` along `key` (which must be
    /// the key *suffix* from that node's depth on). Used by the LOUDS-Dense
    /// head to continue a walk in its sparse forest.
    pub fn lookup_in(&self, root: usize, key: &[u8]) -> Lookup {
        if self.num_nodes() == 0 {
            return Lookup::NotFound;
        }
        let mut node = root;
        for (depth, &byte) in key.iter().enumerate() {
            let (s, e) = self.node_range(node);
            match self.find_label(s, e, byte) {
                None => return Lookup::NotFound,
                Some(pos) => {
                    if !self.has_child.get(pos) {
                        return Lookup::Leaf {
                            leaf: self.leaf_index(pos),
                            depth: depth + 1,
                        };
                    }
                    node = self.child_node(pos);
                }
            }
        }
        Lookup::ExhaustedAtInternal
    }

    /// Iterator over the leftmost leaf (smallest stored key), if any.
    pub fn iter_first(&self) -> Option<FstIter<'_>> {
        self.seek(&[])
    }

    /// Positions an iterator at the first stored key `t` (in lexicographic
    /// order) that is **not decidedly smaller** than `probe` — i.e. either
    /// `t >= probe` as byte strings or `t` is a proper prefix of `probe`
    /// (the undecided case that SuRF resolves with suffix bits, which the
    /// caller may refine via [`FstIter::advance`]).
    ///
    /// Returns `None` when every stored key is decidedly smaller.
    pub fn seek(&self, probe: &[u8]) -> Option<FstIter<'_>> {
        self.seek_in(0, probe)
    }

    /// [`Fst::seek`] within the subtree rooted at node `root`; `probe` is
    /// the probe suffix from that node's depth on, and the returned
    /// iterator's `key()` is likewise a suffix. The iterator never escapes
    /// the subtree.
    pub fn seek_in(&self, root: usize, probe: &[u8]) -> Option<FstIter<'_>> {
        if self.num_nodes() == 0 {
            return None;
        }
        let mut it = FstIter {
            fst: self,
            stack: Vec::with_capacity(16),
            key: Vec::with_capacity(16),
            leaf_pos: usize::MAX,
        };
        let mut node = root;
        let mut depth = 0usize;
        loop {
            let (s, e) = self.node_range(node);
            if depth >= probe.len() {
                // Probe exhausted: every key in this subtree extends it.
                it.push_branch(s, e, s);
                return if it.settle_leftmost() { Some(it) } else { None };
            }
            let target = probe[depth];
            match self.find_label_geq(s, e, target) {
                None => {
                    // All labels smaller: the answer lies after this subtree.
                    return if it.advance_from_stack() {
                        Some(it)
                    } else {
                        None
                    };
                }
                Some(pos) if self.labels[pos] > target => {
                    it.push_branch(s, e, pos);
                    return if it.settle_leftmost() { Some(it) } else { None };
                }
                Some(pos) => {
                    it.push_branch(s, e, pos);
                    if !self.has_child.get(pos) {
                        // Stored key is a prefix of (or equals) the probe —
                        // the undecided case.
                        it.leaf_pos = pos;
                        return Some(it);
                    }
                    node = self.child_node(pos);
                    depth += 1;
                }
            }
        }
    }
}

/// A cursor over the leaves of an [`Fst`] in lexicographic key order.
#[derive(Clone, Debug)]
pub struct FstIter<'a> {
    fst: &'a Fst,
    /// Per-level `(node_start, node_end, chosen_pos)`.
    stack: Vec<(usize, usize, usize)>,
    /// Labels along the chosen path (the current truncated key).
    key: Vec<u8>,
    leaf_pos: usize,
}

impl<'a> FstIter<'a> {
    #[inline]
    fn push_branch(&mut self, s: usize, e: usize, pos: usize) {
        self.stack.push((s, e, pos));
        self.key.push(self.fst.labels[pos]);
    }

    /// Descends from the branch on top of the stack to the leftmost leaf of
    /// its subtree. Returns `true` on success (always, on a well-formed
    /// trie).
    fn settle_leftmost(&mut self) -> bool {
        loop {
            let &(_, _, pos) = self.stack.last().expect("settle on empty stack");
            if !self.fst.has_child.get(pos) {
                self.leaf_pos = pos;
                return true;
            }
            let child = self.fst.child_node(pos);
            let (s, e) = self.fst.node_range(child);
            self.push_branch(s, e, s);
        }
    }

    /// Moves to the next subtree in DFS order (skipping the current top
    /// branch's subtree) and settles on its leftmost leaf.
    fn advance_from_stack(&mut self) -> bool {
        loop {
            match self.stack.pop() {
                None => return false,
                Some((s, e, pos)) => {
                    self.key.pop();
                    if pos + 1 < e {
                        self.push_branch(s, e, pos + 1);
                        return self.settle_leftmost();
                    }
                }
            }
        }
    }

    /// The current (truncated) key.
    #[inline]
    pub fn key(&self) -> &[u8] {
        &self.key
    }

    /// The current leaf's index in level-order emission.
    #[inline]
    pub fn leaf_index(&self) -> usize {
        self.fst.leaf_index(self.leaf_pos)
    }

    /// Steps to the next leaf in key order; returns `false` past the end.
    pub fn advance(&mut self) -> bool {
        self.advance_from_stack()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::build;

    fn keys_set() -> Vec<Vec<u8>> {
        let mut keys: Vec<Vec<u8>> = vec![
            b"ab".to_vec(),
            b"ad".to_vec(),
            b"ba".to_vec(),
            b"bcd".to_vec(),
            b"bce".to_vec(),
            b"ca".to_vec(),
            b"zz".to_vec(),
        ];
        keys.sort();
        keys
    }

    #[test]
    fn lookup_present_and_absent() {
        let keys = keys_set();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let r = build(&refs);
        for (i, k) in keys.iter().enumerate() {
            match r.fst.lookup(k) {
                crate::Lookup::Leaf { leaf, depth } => {
                    assert_eq!(depth, k.len());
                    assert_eq!(r.leaf_to_key[leaf], i, "leaf mapping for {k:?}");
                }
                other => panic!("lookup({k:?}) = {other:?}"),
            }
        }
        assert_eq!(r.fst.lookup(b"aa"), crate::Lookup::NotFound);
        assert_eq!(r.fst.lookup(b"b"), crate::Lookup::ExhaustedAtInternal);
        assert_eq!(r.fst.lookup(b"bcf"), crate::Lookup::NotFound);
        // A probe extending a stored key reports the stored key as prefix.
        assert!(matches!(
            r.fst.lookup(b"abX"),
            crate::Lookup::Leaf { depth: 2, .. }
        ));
    }

    #[test]
    fn iteration_visits_keys_in_order() {
        let keys = keys_set();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let r = build(&refs);
        let mut it = r.fst.iter_first().unwrap();
        let mut seen = vec![it.key().to_vec()];
        while it.advance() {
            seen.push(it.key().to_vec());
        }
        assert_eq!(seen, keys);
    }

    #[test]
    fn seek_matches_reference() {
        let keys = keys_set();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
        let r = build(&refs);
        // Reference: first key t with t >= probe OR t a proper prefix of
        // probe (the conservative contract).
        let reference = |probe: &[u8]| {
            keys.iter()
                .find(|t| t.as_slice() >= probe || probe.starts_with(t))
                .cloned()
        };
        let probes: Vec<&[u8]> = vec![
            b"", b"a", b"ab", b"abc", b"ac", b"ad", b"ae", b"b", b"bb", b"bcd", b"bcdX", b"bcf",
            b"c", b"cb", b"y", b"zz", b"zzz", b"~~~",
        ];
        for probe in probes {
            let got = r.fst.seek(probe).map(|it| it.key().to_vec());
            assert_eq!(got, reference(probe), "seek({probe:?})");
        }
    }

    #[test]
    fn seek_on_u64_keys_matches_btree() {
        use std::collections::BTreeSet;
        let mut state = 321u64;
        let mut set = BTreeSet::new();
        for _ in 0..800 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            set.insert(state);
        }
        let byte_keys: Vec<[u8; 8]> = set.iter().map(|k| k.to_be_bytes()).collect();
        let refs: Vec<&[u8]> = byte_keys.iter().map(|k| k.as_slice()).collect();
        let r = build(&refs);
        assert_eq!(r.fst.num_leaves(), set.len());
        let mut probe_state = 9u64;
        for _ in 0..2000 {
            probe_state = probe_state
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let probe = probe_state.to_be_bytes();
            let expect = set.range(probe_state..).next().map(|k| k.to_be_bytes());
            let got = r.fst.seek(&probe).map(|it| {
                // Fixed-length keys: reconstructed key is full.
                let mut buf = [0u8; 8];
                buf.copy_from_slice(it.key());
                buf
            });
            assert_eq!(got, expect, "probe {probe_state}");
        }
    }

    #[test]
    fn empty_trie() {
        let r = build(&[]);
        assert_eq!(r.fst.num_leaves(), 0);
        assert_eq!(r.fst.lookup(b"x"), crate::Lookup::NotFound);
        assert!(r.fst.seek(b"x").is_none());
        assert!(r.fst.iter_first().is_none());
    }

    #[test]
    fn single_chain_key() {
        let keys: Vec<&[u8]> = vec![b"abcdef"];
        let r = build(&keys);
        assert_eq!(r.fst.num_leaves(), 1);
        assert!(matches!(
            r.fst.lookup(b"abcdef"),
            crate::Lookup::Leaf { depth: 6, .. }
        ));
        assert_eq!(r.fst.seek(b"abc").unwrap().key(), b"abcdef");
        assert!(r.fst.seek(b"abd").is_none());
        assert_eq!(r.fst.seek(b"aaa").unwrap().key(), b"abcdef");
    }

    #[test]
    fn space_near_ten_bits_per_branch() {
        let byte_keys: Vec<[u8; 8]> = (0..10_000u64)
            .map(|i| i.wrapping_mul(0x9E3779B97F4A7C15).to_be_bytes())
            .collect();
        let mut refs: Vec<&[u8]> = byte_keys.iter().map(|k| k.as_slice()).collect();
        refs.sort();
        let r = build(&refs);
        let per_branch = r.fst.size_in_bits() as f64 / r.fst.num_branches() as f64;
        assert!(
            per_branch < 13.0,
            "LOUDS-Sparse at {per_branch} bits/branch"
        );
    }
}
