//! Suffix tree with hash-table children (paper §5; Table 5).
//!
//! The skeleton (node depths, parents, representative suffixes) is
//! built sequentially from the suffix array + LCP with the classic
//! stack construction; the **child edges are then inserted in parallel
//! into a phase-concurrent hash table** — this is the portion the paper
//! times in Table 5(a). Searches (Table 5(b)) are hash finds walking
//! down from the root.
//!
//! The child key packs `(node id + 1, first edge byte)` into a `u32`
//! ([`KvPair`] key); the value is the child node id. One child per
//! (node, byte), so the combining policy never fires.

use phc_core::entry::{KeepMin, KvPair};
use phc_core::phase::{ConcurrentInsert, ConcurrentRead, PhaseHashTable};
use rayon::prelude::*;

use crate::suffix_array::{lcp_kasai, suffix_array};

/// Sentinel parent for the root.
const NO_PARENT: u32 = u32::MAX;

/// One suffix-tree node.
#[derive(Clone, Copy, Debug)]
pub struct Node {
    /// Parent node id (`u32::MAX` for the root).
    pub parent: u32,
    /// String depth: length of the path label from the root.
    pub depth: u32,
    /// A suffix starting position whose path passes through this node
    /// (used to read edge labels out of the text).
    pub repr: u32,
}

/// A suffix tree over `text`, children in a phase-concurrent table `T`.
pub struct SuffixTree<'a, T> {
    /// The indexed text.
    pub text: &'a [u8],
    /// Node arena; node 0 is the root.
    pub nodes: Vec<Node>,
    /// Edge list as `(parent, first byte, child)`.
    edges: Vec<(u32, u8, u32)>,
    children: T,
}

impl<'a, T: PhaseHashTable<KvPair<KeepMin>>> SuffixTree<'a, T> {
    /// Builds the suffix tree of `text`. `make_table(log2)` supplies
    /// the child table (sized to twice the node count, rounded up —
    /// the paper's Table 5 setup).
    pub fn build(text: &'a [u8], make_table: impl FnOnce(u32) -> T) -> Self {
        let (nodes, edges) = Self::skeleton(text);
        assert!(
            nodes.len() < (1usize << 23),
            "text too large: node ids must fit 23 bits for the packed child key"
        );
        let log2 = (2 * edges.len().max(2))
            .next_power_of_two()
            .trailing_zeros();
        let mut children = make_table(log2);
        Self::insert_edges(&mut children, &edges);
        SuffixTree {
            text,
            nodes,
            edges,
            children,
        }
    }

    /// The parallel insert phase, separated out so benchmarks can time
    /// it alone (Table 5(a)).
    pub fn insert_edges(table: &mut T, edges: &[(u32, u8, u32)]) {
        let ins = table.begin_insert();
        edges
            .par_iter()
            .with_min_len(512)
            .for_each(|&(parent, byte, child)| {
                ins.insert(KvPair::new(Self::child_key(parent, byte), child));
            });
    }

    /// The edge list (for rebuilding tables in benchmarks).
    pub fn edges(&self) -> &[(u32, u8, u32)] {
        &self.edges
    }

    #[inline]
    fn child_key(node: u32, byte: u8) -> u32 {
        ((node + 1) << 8) | byte as u32
    }

    /// Builds (nodes, edges) from SA + LCP with the stack algorithm.
    fn skeleton(text: &[u8]) -> (Vec<Node>, Vec<(u32, u8, u32)>) {
        let n = text.len();
        let mut nodes = vec![Node {
            parent: NO_PARENT,
            depth: 0,
            repr: 0,
        }];
        let mut edges: Vec<(u32, u8, u32)> = Vec::with_capacity(2 * n);
        if n == 0 {
            return (nodes, edges);
        }
        let sa = suffix_array(text);
        let lcp = lcp_kasai(text, &sa);

        // Stack of node ids with strictly increasing depth (rightmost
        // path of the partially built tree). Edges to parents are
        // emitted when a node's parent becomes final (i.e. when it is
        // popped, or at the end).
        let mut stack: Vec<u32> = vec![0];
        let mut pending_parent: Vec<u32> = vec![NO_PARENT]; // parallel to `nodes`

        for j in 0..n {
            let l = if j == 0 { 0 } else { lcp[j] };
            let mut last_popped: Option<u32> = None;
            while nodes[*stack.last().unwrap() as usize].depth > l {
                let popped = stack.pop().unwrap();
                // Its parent is now the top (possibly adjusted below).
                last_popped = Some(popped);
            }
            let top = *stack.last().unwrap();
            let attach_to = if nodes[top as usize].depth == l {
                if let Some(mid) = last_popped {
                    pending_parent[mid as usize] = top;
                }
                top
            } else {
                // Create an internal node at depth l between top and
                // the popped subtree.
                let mid = last_popped.expect("internal node creation requires a popped child");
                let v = nodes.len() as u32;
                nodes.push(Node {
                    parent: NO_PARENT,
                    depth: l,
                    repr: nodes[mid as usize].repr,
                });
                pending_parent.push(top);
                pending_parent[mid as usize] = v;
                stack.push(v);
                v
            };
            // Add the leaf for suffix sa[j].
            let leaf = nodes.len() as u32;
            nodes.push(Node {
                parent: NO_PARENT,
                depth: (n - sa[j] as usize) as u32,
                repr: sa[j],
            });
            pending_parent.push(attach_to);
            stack.push(leaf);
        }
        // Finalize parents and emit edges.
        for id in 1..nodes.len() as u32 {
            let p = pending_parent[id as usize];
            debug_assert_ne!(p, NO_PARENT, "orphan node {id}");
            nodes[id as usize].parent = p;
            let first = text[(nodes[id as usize].repr + nodes[p as usize].depth) as usize];
            edges.push((p, first, id));
        }
        (nodes, edges)
    }

    /// Searches for `pattern`; returns the starting position of one
    /// occurrence in the text, or `None`.
    pub fn search(&mut self, pattern: &[u8]) -> Option<u32> {
        let reader = self.children.begin_read();
        Self::search_with(self.text, &self.nodes, &reader, pattern)
    }

    /// Number of occurrences of `pattern` in the text: locate the node
    /// whose subtree covers the pattern, then return its leaf count
    /// (precomputed, so counting is as cheap as a search).
    pub fn count_occurrences(&mut self, pattern: &[u8]) -> usize {
        if pattern.is_empty() {
            return self.text.len();
        }
        let leaf_counts = self.leaf_counts();
        let reader = self.children.begin_read();
        let Some(node) = Self::locate_node(self.text, &self.nodes, &reader, pattern) else {
            return 0;
        };
        leaf_counts[node as usize]
    }

    /// Subtree leaf counts (computed once, cached).
    fn leaf_counts(&mut self) -> Vec<usize> {
        // Leaves are nodes that never appear as a parent. Suffixes that
        // are prefixes of other suffixes yield "leaves with children";
        // those still represent exactly one occurrence each, so count a
        // node as a leaf occurrence iff its depth reaches the end of
        // its suffix.
        let n_text = self.text.len() as u32;
        let mut counts = vec![0usize; self.nodes.len()];
        for (id, node) in self.nodes.iter().enumerate() {
            if node.repr + node.depth == n_text && node.depth > 0 {
                counts[id] = 1;
            }
        }
        // Accumulate towards the root in decreasing-depth order
        // (parents are strictly shallower than children).
        let mut order: Vec<u32> = (1..self.nodes.len() as u32).collect();
        order.sort_unstable_by_key(|&id| std::cmp::Reverse(self.nodes[id as usize].depth));
        for id in order {
            let p = self.nodes[id as usize].parent;
            counts[p as usize] += counts[id as usize];
        }
        counts
    }

    /// Walks to the node whose path covers `pattern` (the locus node).
    fn locate_node<R: ConcurrentRead<KvPair<KeepMin>>>(
        text: &[u8],
        nodes: &[Node],
        reader: &R,
        pattern: &[u8],
    ) -> Option<u32> {
        let mut node = 0u32;
        let mut matched = 0usize;
        loop {
            let next = reader.find(KvPair::new(Self::child_key(node, pattern[matched]), 0))?;
            let child = next.value;
            let c = &nodes[child as usize];
            let start = c.repr as usize + matched;
            let edge_len = (c.depth - nodes[node as usize].depth) as usize;
            let take = edge_len.min(pattern.len() - matched);
            if text[start..start + take] != pattern[matched..matched + take] {
                return None;
            }
            matched += take;
            if matched == pattern.len() {
                return Some(child);
            }
            node = child;
        }
    }

    /// Search through an explicit read handle, so callers can run many
    /// searches concurrently within one find phase (Table 5(b)).
    pub fn search_with<R: ConcurrentRead<KvPair<KeepMin>>>(
        text: &[u8],
        nodes: &[Node],
        reader: &R,
        pattern: &[u8],
    ) -> Option<u32> {
        if pattern.is_empty() {
            return Some(0);
        }
        let mut node = 0u32; // root
        let mut matched = 0usize;
        loop {
            let next = reader.find(KvPair::new(Self::child_key(node, pattern[matched]), 0))?;
            let child = next.value;
            let c = &nodes[child as usize];
            let start = c.repr as usize + matched;
            let edge_len = (c.depth - nodes[node as usize].depth) as usize;
            let take = edge_len.min(pattern.len() - matched);
            if text[start..start + take] != pattern[matched..matched + take] {
                return None;
            }
            matched += take;
            if matched == pattern.len() {
                return Some(c.repr);
            }
            node = child;
        }
    }

    /// Number of tree nodes (including the root and leaves).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phc_core::DetHashTable;

    type Det = DetHashTable<KvPair<KeepMin>>;

    fn build(text: &[u8]) -> SuffixTree<'_, Det> {
        SuffixTree::build(text, Det::new_pow2)
    }

    #[test]
    fn finds_all_substrings_banana() {
        let t = b"banana";
        let mut st = build(t);
        for i in 0..t.len() {
            for j in i + 1..=t.len() {
                let pat = &t[i..j];
                let hit = st.search(pat);
                assert!(hit.is_some(), "missing {:?}", std::str::from_utf8(pat));
                let pos = hit.unwrap() as usize;
                assert_eq!(&t[pos..pos + pat.len()], pat);
            }
        }
    }

    #[test]
    fn rejects_non_substrings() {
        let mut st = build(b"banana");
        for pat in [&b"x"[..], b"bananaa", b"nanaz", b"ab"] {
            assert_eq!(st.search(pat), None, "{:?}", std::str::from_utf8(pat));
        }
    }

    #[test]
    fn works_on_synthetic_corpora() {
        for text in [
            phc_workloads::text::english_like(2000, 1),
            phc_workloads::text::retail_like(2000, 2),
            phc_workloads::text::protein_like(2000, 3),
        ] {
            let mut st = build(&text);
            // Every real substring of moderate length is found…
            let rng = phc_parutil::IndexRng::new(9);
            for q in 0..200u64 {
                let len = 1 + (rng.gen(q * 2) % 20) as usize;
                let start = (rng.gen(q * 2 + 1) % (text.len() as u64 - len as u64)) as usize;
                let pat = &text[start..start + len];
                let pos = st.search(pat).expect("substring not found") as usize;
                assert_eq!(&text[pos..pos + len], pat);
            }
            // …and a pattern with a byte outside the alphabet is not.
            assert_eq!(st.search(b"\x01\x02"), None);
        }
    }

    #[test]
    fn node_count_is_linear() {
        let text = phc_workloads::text::protein_like(5000, 4);
        let st = build(&text);
        // ≤ 2n nodes for a suffix tree (n leaves, < n internal).
        assert!(
            st.num_nodes() <= 2 * text.len() + 1,
            "nodes = {}",
            st.num_nodes()
        );
        assert!(st.num_nodes() > text.len());
    }

    #[test]
    fn count_occurrences_matches_naive() {
        let t = b"banana";
        let mut st = build(t);
        let naive = |pat: &[u8]| t.windows(pat.len()).filter(|w| *w == pat).count();
        for pat in [&b"a"[..], b"an", b"ana", b"na", b"banana", b"b", b"nan"] {
            assert_eq!(
                st.count_occurrences(pat),
                naive(pat),
                "{:?}",
                std::str::from_utf8(pat)
            );
        }
        assert_eq!(st.count_occurrences(b"xyz"), 0);
        assert_eq!(st.count_occurrences(b""), t.len());
    }

    #[test]
    fn count_occurrences_on_synthetic_text() {
        let text = phc_workloads::text::protein_like(4000, 8);
        let mut st = build(&text);
        for start in [0usize, 500, 2000] {
            for len in [2usize, 4, 7] {
                let pat = &text[start..start + len];
                let naive = text.windows(len).filter(|w| *w == pat).count();
                assert_eq!(st.count_occurrences(pat), naive);
            }
        }
    }

    #[test]
    fn empty_text() {
        let mut st = build(b"");
        assert_eq!(st.num_nodes(), 1);
        assert_eq!(st.search(b"a"), None);
        assert_eq!(st.search(b""), Some(0));
    }

    #[test]
    fn parallel_searches_share_a_read_phase() {
        let text = phc_workloads::text::english_like(3000, 5);
        let mut st = build(&text);
        let reader = st.children.begin_read();
        let hits: Vec<Option<u32>> = (0..100usize)
            .into_par_iter()
            .map(|q| {
                let start = (q * 13) % (text.len() - 8);
                SuffixTree::<Det>::search_with(st.text, &st.nodes, &reader, &text[start..start + 8])
            })
            .collect();
        assert!(hits.iter().all(|h| h.is_some()));
    }
}
