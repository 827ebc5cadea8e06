//! Mutable graph overlay: batched edge/vertex mutations merged into a
//! fresh CSR at run barriers.
//!
//! The engine's CSR stays immutable — every invariant the parallel
//! superstep relies on (sorted adjacency, dense ids, prefix-sum offsets)
//! would be violated by in-place edits. Instead, mutations accumulate in
//! a [`GraphDelta`] and are merged by [`MutableGraph::apply`] at a
//! *barrier* (between runs, never mid-superstep): the batch is
//! normalized into one sorted patch, each patched edge is classified
//! against the old graph by binary search for the [`MutationReport`],
//! and the old sorted edge run merged with the patch is laid out by the
//! same constructor [`crate::GraphBuilder`] uses. So the new CSR is
//! **bit-identical** to a cold build of the mutated edge list by
//! construction — inserting an existing edge overwrites its weight (last
//! write wins), exactly matching the builder's dedup rule — which is
//! what makes "incremental equals cold re-run" testable at the array
//! level.
//!
//! Vertex ids are dense and stable: *removing* a vertex strips its
//! incident edges and leaves it isolated (ids never shift, so previous
//! runs' value vectors and provenance stay addressable); *adding* a
//! vertex grows the id space. See `docs/MUTATIONS.md` for the full
//! semantics and the barrier-merge protocol.

#![warn(missing_docs)]
use crate::csr::Csr;
use crate::types::VertexId;
use std::collections::{BTreeMap, BTreeSet};

/// A batch of graph mutations, applied atomically at a run barrier.
///
/// Order within a batch is normalized at [`MutableGraph::apply`] time:
/// vertex removals strip *pre-existing* incident edges first, then edge
/// removals apply, then edge insertions (so a batch may remove a vertex
/// and immediately re-attach it). Duplicate inserts of the same `(src,
/// dst)` keep the last weight, matching [`crate::GraphBuilder`].
#[derive(Clone, Debug, Default)]
pub struct GraphDelta {
    add_edges: Vec<(VertexId, VertexId, f64)>,
    remove_edges: Vec<(VertexId, VertexId)>,
    add_vertices: Vec<VertexId>,
    remove_vertices: Vec<VertexId>,
}

impl GraphDelta {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queue a directed edge insert (or weight overwrite if present).
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, weight: f64) -> &mut Self {
        self.add_edges.push((src, dst, weight));
        self
    }

    /// Queue a directed edge removal. Removing an absent edge is a no-op.
    pub fn remove_edge(&mut self, src: VertexId, dst: VertexId) -> &mut Self {
        self.remove_edges.push((src, dst));
        self
    }

    /// Queue a vertex addition (grows the dense id space to cover `v`).
    pub fn add_vertex(&mut self, v: VertexId) -> &mut Self {
        self.add_vertices.push(v);
        self
    }

    /// Queue a vertex removal: strips all pre-existing incident edges and
    /// leaves the id isolated (ids are stable, the id space never
    /// shrinks). Removing an absent vertex is a no-op.
    pub fn remove_vertex(&mut self, v: VertexId) -> &mut Self {
        self.remove_vertices.push(v);
        self
    }

    /// Whether the batch contains no mutations at all.
    pub fn is_empty(&self) -> bool {
        self.add_edges.is_empty()
            && self.remove_edges.is_empty()
            && self.add_vertices.is_empty()
            && self.remove_vertices.is_empty()
    }

    /// Total queued operations (pre-normalization).
    pub fn len(&self) -> usize {
        self.add_edges.len()
            + self.remove_edges.len()
            + self.add_vertices.len()
            + self.remove_vertices.len()
    }

    /// Fold `other` into this batch, preserving arrival order per
    /// operation kind (the barrier-merge protocol queues batches in
    /// arrival order and applies them as one).
    pub fn merge(&mut self, other: GraphDelta) {
        self.add_edges.extend(other.add_edges);
        self.remove_edges.extend(other.remove_edges);
        self.add_vertices.extend(other.add_vertices);
        self.remove_vertices.extend(other.remove_vertices);
    }
}

/// What one [`MutableGraph::apply`] actually changed — the frontier
/// seeds the incremental re-execution path plans from.
#[derive(Clone, Debug, Default)]
pub struct MutationReport {
    /// The graph epoch *after* this batch (epoch 0 is the initial load).
    pub epoch: u64,
    /// Edges inserted that did not exist before.
    pub inserted_edges: usize,
    /// Existing edges whose weight actually changed (an insert of an
    /// identical `(src, dst, weight)` triple is dropped as a no-op).
    pub reweighted_edges: usize,
    /// Edges removed (including those stripped by vertex removals).
    pub removed_edges: usize,
    /// Vertices added beyond the old id space.
    pub added_vertices: usize,
    /// Pre-existing vertices isolated by removal.
    pub removed_vertices: Vec<VertexId>,
    /// Sources that must re-offer state: sources of inserted and
    /// reweighted edges. Sorted, deduplicated.
    pub insertion_sources: Vec<VertexId>,
    /// Destinations of inserted and reweighted edges. Programs that
    /// propagate against edge direction (WCC label floods) need both
    /// endpoints in the reseed frontier. Sorted, deduplicated.
    pub insertion_targets: Vec<VertexId>,
    /// Seeds whose downstream values may be invalidated: destinations of
    /// removed/reweighted edges, old out-neighbors of removed vertices,
    /// and the removed vertices themselves. Sorted, deduplicated.
    pub invalidation_seeds: Vec<VertexId>,
}

impl MutationReport {
    /// Whether the batch deleted or reweighted anything — the condition
    /// under which non-deletion-safe analytics must restart from scratch.
    pub fn has_removals(&self) -> bool {
        self.removed_edges > 0 || !self.removed_vertices.is_empty()
    }

    /// Whether the batch changed the graph at all.
    pub fn changed(&self) -> bool {
        self.inserted_edges > 0
            || self.reweighted_edges > 0
            || self.removed_edges > 0
            || self.added_vertices > 0
            || !self.removed_vertices.is_empty()
    }
}

/// An epoch-versioned graph: the current immutable [`Csr`] plus the
/// barrier-merge entry point.
#[derive(Clone, Debug)]
pub struct MutableGraph {
    csr: Csr,
    epoch: u64,
}

impl MutableGraph {
    /// Wrap an initial graph as epoch 0.
    pub fn new(csr: Csr) -> Self {
        MutableGraph { csr, epoch: 0 }
    }

    /// The current graph snapshot.
    pub fn csr(&self) -> &Csr {
        &self.csr
    }

    /// The current mutation epoch (0 = initial load, +1 per applied
    /// batch that is allowed to bump it — empty batches still bump, so
    /// epoch counts barriers, not changes).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Merge one mutation batch at a barrier, producing the next epoch's
    /// CSR and a [`MutationReport`] of what changed.
    pub fn apply(&mut self, delta: &GraphDelta) -> MutationReport {
        self.apply_returning_old(delta).0
    }

    /// [`MutableGraph::apply`], handing back the replaced snapshot by
    /// move (incremental re-execution taints over the old graph).
    pub fn apply_returning_old(&mut self, delta: &GraphDelta) -> (MutationReport, Csr) {
        let old = &self.csr;
        let old_n = old.num_vertices();

        // Normalize the batch.
        let removed_vs: BTreeSet<VertexId> = delta
            .remove_vertices
            .iter()
            .copied()
            .filter(|v| v.index() < old_n)
            .collect();
        // (src, dst) -> Some(weight) = insert/overwrite, None = remove.
        // Removals fold in first, then inserts, so an insert of an edge
        // the batch also removes survives, and the last insert wins.
        let mut patch: BTreeMap<(VertexId, VertexId), Option<f64>> = BTreeMap::new();
        for &v in &removed_vs {
            let outs = old.out_neighbors(v).iter().map(|&d| (v, d));
            let ins = old.in_neighbors(v).iter().map(|&s| (s, v));
            patch.extend(outs.chain(ins).map(|e| (e, None)));
        }
        patch.extend(delta.remove_edges.iter().map(|&e| (e, None)));
        patch.extend(delta.add_edges.iter().map(|&(s, d, w)| ((s, d), Some(w))));

        // New id space: grows to cover added vertices and edge endpoints.
        let inserted = patch.iter().filter(|(_, w)| w.is_some());
        let n = (delta.add_vertices.iter().copied())
            .chain(inserted.flat_map(|(&(s, d), _)| [s, d]))
            .fold(old_n, |n, v| n.max(v.index() + 1));

        let mut report = MutationReport {
            epoch: self.epoch + 1,
            added_vertices: n - old_n,
            removed_vertices: removed_vs.iter().copied().collect(),
            ..MutationReport::default()
        };
        let (mut insertion_sources, mut insertion_targets) = (BTreeSet::new(), BTreeSet::new());
        let mut invalidation_seeds = removed_vs.clone();

        // Classify each patched edge against the old graph.
        for (&(s, d), &w) in &patch {
            let was = (s.index() < old_n).then(|| old.edge_weight(s, d)).flatten();
            match (was, w) {
                (None, Some(_)) => report.inserted_edges += 1,
                (Some(was), Some(w)) if was != w => {
                    report.reweighted_edges += 1;
                    invalidation_seeds.insert(d);
                }
                (Some(_), None) => {
                    report.removed_edges += 1;
                    invalidation_seeds.insert(d);
                    continue;
                }
                _ => continue,
            }
            insertion_sources.insert(s);
            insertion_targets.insert(d);
        }
        // A removed vertex's old out-neighbors lose an incoming edge.
        for v in &removed_vs {
            invalidation_seeds.extend(old.out_neighbors(*v));
        }

        // Merge the old sorted edge run with the sorted patch; a patched
        // edge replaces (or, removed, drops) the old one.
        let mut edges = Vec::with_capacity(old.num_edges() + delta.add_edges.len());
        let mut patches = patch.into_iter().peekable();
        for (s, d, w) in old.edges() {
            while let Some(((ps, pd), pw)) = patches.next_if(|&(key, _)| key < (s, d)) {
                edges.extend(pw.map(|pw| (ps, pd, pw)));
            }
            match patches.next_if(|&(key, _)| key == (s, d)) {
                Some((_, pw)) => edges.extend(pw.map(|pw| (s, d, pw))),
                None => edges.push((s, d, w)),
            }
        }
        edges.extend(patches.filter_map(|((s, d), w)| w.map(|w| (s, d, w))));

        self.epoch += 1;
        report.insertion_sources = insertion_sources.into_iter().collect();
        report.insertion_targets = insertion_targets.into_iter().collect();
        report.invalidation_seeds = invalidation_seeds.into_iter().collect();
        let old = std::mem::replace(&mut self.csr, Csr::from_sorted_edges(n, &edges));
        (report, old)
    }
}

/// Forward closure: every vertex reachable from `seeds` along out-edges
/// (seeds included), as a dense membership bitmap over `graph`'s id
/// space. Seeds outside the id space are ignored.
pub fn forward_closure(graph: &Csr, seeds: impl IntoIterator<Item = VertexId>) -> Vec<bool> {
    let n = graph.num_vertices();
    let mut seen = vec![false; n];
    let mut queue: Vec<VertexId> = Vec::new();
    for s in seeds {
        if s.index() < n && !seen[s.index()] {
            seen[s.index()] = true;
            queue.push(s);
        }
    }
    while let Some(v) = queue.pop() {
        for &t in graph.out_neighbors(v) {
            if !seen[t.index()] {
                seen[t.index()] = true;
                queue.push(t);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    /// Oracle: the merged CSR must equal a cold GraphBuilder build of the
    /// mutated edge list, array for array.
    fn assert_matches_cold(mg: &MutableGraph, edges: &[(u64, u64, f64)], n_min: usize) {
        let mut b = GraphBuilder::new();
        for &(s, d, w) in edges {
            b.add_edge(VertexId(s), VertexId(d), w);
        }
        if n_min > 0 {
            b.ensure_vertex(VertexId(n_min as u64 - 1));
        }
        let cold = b.build();
        assert_eq!(mg.csr().num_vertices(), cold.num_vertices());
        assert_eq!(mg.csr().num_edges(), cold.num_edges());
        let got: Vec<_> = mg.csr().edges().collect();
        let want: Vec<_> = cold.edges().collect();
        assert_eq!(got, want);
        for v in cold.vertices() {
            assert_eq!(mg.csr().in_neighbors(v), cold.in_neighbors(v));
            let gi: Vec<_> = mg.csr().in_edges(v).collect();
            let wi: Vec<_> = cold.in_edges(v).collect();
            assert_eq!(gi, wi);
        }
    }

    fn seed_graph() -> MutableGraph {
        let mut b = GraphBuilder::new();
        b.add_edge(VertexId(0), VertexId(1), 1.0);
        b.add_edge(VertexId(0), VertexId(2), 2.0);
        b.add_edge(VertexId(1), VertexId(3), 1.0);
        b.add_edge(VertexId(2), VertexId(3), 5.0);
        b.add_edge(VertexId(3), VertexId(4), 1.0);
        MutableGraph::new(b.build())
    }

    #[test]
    fn insert_matches_cold_rebuild() {
        let mut g = seed_graph();
        let mut d = GraphDelta::new();
        d.add_edge(VertexId(4), VertexId(0), 0.5);
        d.add_edge(VertexId(1), VertexId(4), 3.0);
        let r = g.apply(&d);
        assert_eq!(r.inserted_edges, 2);
        assert_eq!(r.epoch, 1);
        assert_eq!(g.epoch(), 1);
        assert_matches_cold(
            &g,
            &[
                (0, 1, 1.0),
                (0, 2, 2.0),
                (1, 3, 1.0),
                (2, 3, 5.0),
                (3, 4, 1.0),
                (4, 0, 0.5),
                (1, 4, 3.0),
            ],
            5,
        );
        assert_eq!(r.insertion_sources, vec![VertexId(1), VertexId(4)]);
        assert!(r.invalidation_seeds.is_empty());
    }

    #[test]
    fn remove_and_reweight_match_cold_rebuild() {
        let mut g = seed_graph();
        let mut d = GraphDelta::new();
        d.remove_edge(VertexId(2), VertexId(3));
        d.add_edge(VertexId(0), VertexId(1), 9.0); // reweight
        d.add_edge(VertexId(0), VertexId(2), 2.0); // identical, no-op
        let r = g.apply(&d);
        assert_eq!(r.removed_edges, 1);
        assert_eq!(r.reweighted_edges, 1);
        assert_eq!(r.inserted_edges, 0);
        assert_matches_cold(&g, &[(0, 1, 9.0), (0, 2, 2.0), (1, 3, 1.0), (3, 4, 1.0)], 5);
        // Seeds: dst of removed edge and of the reweighted edge.
        assert_eq!(r.invalidation_seeds, vec![VertexId(1), VertexId(3)]);
        assert_eq!(r.insertion_sources, vec![VertexId(0)]);
    }

    #[test]
    fn vertex_removal_isolates_and_seeds() {
        let mut g = seed_graph();
        let mut d = GraphDelta::new();
        d.remove_vertex(VertexId(3));
        let r = g.apply(&d);
        assert!(r.has_removals());
        assert_eq!(r.removed_vertices, vec![VertexId(3)]);
        // 1->3, 2->3, 3->4 all stripped.
        assert_eq!(r.removed_edges, 3);
        assert_matches_cold(&g, &[(0, 1, 1.0), (0, 2, 2.0)], 5);
        assert_eq!(g.csr().num_vertices(), 5, "ids are stable");
        // Seeds: the vertex itself and its old out-neighbor 4.
        assert_eq!(r.invalidation_seeds, vec![VertexId(3), VertexId(4)]);
    }

    #[test]
    fn identical_readd_after_a_vertex_strip_still_seeds() {
        let mut g = seed_graph();
        let mut d = GraphDelta::new();
        d.remove_vertex(VertexId(3));
        d.add_edge(VertexId(3), VertexId(4), 1.0); // as before the strip
        let r = g.apply(&d);
        // 1->3 and 2->3 go; 3->4 stays, but 3's value may change.
        assert_eq!(
            (r.removed_edges, r.inserted_edges, r.reweighted_edges),
            (2, 0, 0)
        );
        assert_matches_cold(&g, &[(0, 1, 1.0), (0, 2, 2.0), (3, 4, 1.0)], 5);
        assert_eq!(r.invalidation_seeds, vec![VertexId(3), VertexId(4)]);
        assert!(r.insertion_sources.is_empty());
    }

    #[test]
    fn vertex_addition_grows_id_space() {
        let mut g = seed_graph();
        let mut d = GraphDelta::new();
        d.add_vertex(VertexId(7));
        let r = g.apply(&d);
        assert_eq!(r.added_vertices, 3);
        assert_eq!(g.csr().num_vertices(), 8);
        assert_eq!(g.csr().out_degree(VertexId(7)), 0);
    }

    #[test]
    fn remove_then_readd_in_one_batch_keeps_edge() {
        let mut g = seed_graph();
        let mut d = GraphDelta::new();
        d.remove_edge(VertexId(0), VertexId(1));
        d.add_edge(VertexId(0), VertexId(1), 4.0);
        g.apply(&d);
        assert_eq!(g.csr().edge_weight(VertexId(0), VertexId(1)), Some(4.0));
    }

    #[test]
    fn removing_absent_things_is_noop() {
        let mut g = seed_graph();
        let before: Vec<_> = g.csr().edges().collect();
        let mut d = GraphDelta::new();
        d.remove_edge(VertexId(0), VertexId(4));
        d.remove_vertex(VertexId(99));
        let r = g.apply(&d);
        assert!(!r.changed());
        assert_eq!(g.csr().edges().collect::<Vec<_>>(), before);
    }

    #[test]
    fn merged_batches_apply_in_order() {
        let mut g = seed_graph();
        let mut d1 = GraphDelta::new();
        d1.add_edge(VertexId(0), VertexId(3), 1.0);
        let mut d2 = GraphDelta::new();
        d2.add_edge(VertexId(0), VertexId(3), 8.0);
        let mut merged = d1;
        merged.merge(d2);
        g.apply(&merged);
        assert_eq!(g.csr().edge_weight(VertexId(0), VertexId(3)), Some(8.0));
    }

    #[test]
    fn random_batches_match_cold_rebuild() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        fn ids(vs: impl IntoIterator<Item = u64>) -> Vec<VertexId> {
            let set: BTreeSet<u64> = vs.into_iter().collect();
            set.into_iter().map(VertexId).collect()
        }
        let mut rng = StdRng::seed_from_u64(42);
        let n = 40u64;
        let mut edges: BTreeMap<(u64, u64), f64> = BTreeMap::new();
        let mut b = GraphBuilder::new();
        b.ensure_vertex(VertexId(n - 1));
        for _ in 0..160 {
            let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let w = (rng.gen_range(1..100) as f64) / 10.0;
            edges.insert((s, d), w);
            b.add_edge(VertexId(s), VertexId(d), w);
        }
        // The builder dedups keep-last; the map mirrors it.
        let mut g = MutableGraph::new(b.build());
        let mut space = n;
        // How many batches changed each report field: every field is
        // exercised, not only compared while empty.
        let mut seen = [0usize; 8];
        for round in 0..40 {
            let mut delta = GraphDelta::new();
            // Mirror the batch normalization: vertex strips and edge
            // removals apply against the pre-batch state, then inserts.
            let mut adds: BTreeMap<(u64, u64), f64> = BTreeMap::new();
            let mut removed_edges: Vec<(u64, u64)> = Vec::new();
            let mut removed_vs: Vec<u64> = Vec::new();
            let old_space = space;
            for _ in 0..12 {
                let op = rng.gen_range(0..8);
                let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
                let w = (rng.gen_range(1..100) as f64) / 10.0;
                // Ops 3 and 4 reweight and remove an edge of the
                // pre-batch graph; the others mostly miss one.
                let (s, d) = match edges.keys().nth(rng.gen_range(0..edges.len().max(1))) {
                    Some(&e) if op == 3 || op == 4 => e,
                    _ => (s, d),
                };
                match op {
                    0..=3 => {
                        delta.add_edge(VertexId(s), VertexId(d), w);
                        adds.insert((s, d), w);
                    }
                    4 | 5 => {
                        delta.remove_edge(VertexId(s), VertexId(d));
                        removed_edges.push((s, d));
                    }
                    6 => {
                        delta.remove_vertex(VertexId(s));
                        removed_vs.push(s);
                    }
                    _ => {
                        let v = rng.gen_range(0..n + 20);
                        delta.add_vertex(VertexId(v));
                        space = space.max(v + 1);
                    }
                }
            }
            let before = edges.clone();
            let stripped = |v| removed_vs.contains(&v);
            edges.retain(|&e, _| !stripped(e.0) && !stripped(e.1) && !removed_edges.contains(&e));
            edges.extend(adds);
            let r = g.apply(&delta);
            assert_eq!(r.epoch, round + 1);
            let flat: Vec<(u64, u64, f64)> = edges.iter().map(|(&(s, d), &w)| (s, d, w)).collect();
            assert_matches_cold(&g, &flat, space as usize);

            // The report against a brute-force diff of the edge map.
            let (mut inserted, mut reweighted, mut removed) = (vec![], vec![], vec![]);
            for &e in before.keys().chain(edges.keys()).collect::<BTreeSet<_>>() {
                match (before.get(&e), edges.get(&e)) {
                    (None, Some(_)) => inserted.push(e),
                    (Some(was), Some(w)) if was != w => reweighted.push(e),
                    (Some(_), None) => removed.push(e),
                    _ => {}
                }
            }
            let changed = || inserted.iter().chain(&reweighted);
            let lost = || removed.iter().chain(&reweighted);
            assert_eq!(r.inserted_edges, inserted.len(), "round {round}");
            assert_eq!(r.reweighted_edges, reweighted.len(), "round {round}");
            assert_eq!(r.removed_edges, removed.len(), "round {round}");
            assert_eq!(r.added_vertices, (space - old_space) as usize);
            assert_eq!(r.removed_vertices, ids(removed_vs.iter().copied()));
            assert_eq!(r.insertion_sources, ids(changed().map(|e| e.0)));
            assert_eq!(r.insertion_targets, ids(changed().map(|e| e.1)));
            let old_outs = before.keys().filter(|e| stripped(e.0)).map(|e| e.1);
            let seeds = lost()
                .map(|e| e.1)
                .chain(removed_vs.iter().copied())
                .chain(old_outs);
            assert_eq!(r.invalidation_seeds, ids(seeds), "round {round}");
            let fields = [
                r.inserted_edges,
                r.reweighted_edges,
                r.removed_edges,
                r.added_vertices,
                r.removed_vertices.len(),
                r.insertion_sources.len(),
                r.insertion_targets.len(),
                r.invalidation_seeds.len(),
            ];
            for (count, field) in seen.iter_mut().zip(fields) {
                *count += usize::from(field > 0);
            }
        }
        assert!(seen.iter().all(|&c| c > 0), "batches per field: {seen:?}");
    }

    #[test]
    fn closures_cover_reachable_sets() {
        let g = seed_graph();
        let fwd = forward_closure(g.csr(), [VertexId(1)]);
        assert_eq!(fwd, vec![false, true, false, true, true]);
        // Out-of-range seeds are ignored.
        let none = forward_closure(g.csr(), [VertexId(99)]);
        assert!(none.iter().all(|&x| !x));
    }
}
