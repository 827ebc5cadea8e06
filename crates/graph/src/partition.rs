//! Vertex chunking for the parallel engine and layered replay.
//!
//! Giraph hash-partitions vertices across workers; here each worker owns
//! a contiguous, degree-weighted range of vertex ids instead, so delivery
//! in chunk order is delivery in global sender order at any thread count.

use crate::csr::Csr;

/// A table of contiguous vertex-id chunk boundaries for the parallel
/// engine's two-phase superstep.
///
/// `starts` has `num_chunks + 1` entries: chunk `c` owns vertex indices
/// `starts[c] .. starts[c + 1]`. Boundaries are strictly increasing (no
/// empty chunks) except for the degenerate `n == 0` table, which keeps a
/// single empty chunk so the engine loop stays uniform.
///
/// [`ChunkTable::degree_weighted`] cuts ~equal *edge* work using the CSR
/// out-degree prefix sums, so one hub-heavy chunk of a power-law graph
/// doesn't serialize the superstep.
///
/// Boundaries can be snapped to multiples of an `align` quantum; the
/// engine aligns chunks to its sender-block size so floating-point
/// combining stays bit-identical at every thread count.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkTable {
    starts: Vec<usize>,
}

impl ChunkTable {
    /// Build a table of up to `chunks` chunks over the vertices of `csr`
    /// such that each chunk owns roughly equal work, where the work of
    /// vertex `v` is `1 + out_degree(v)` (the unit term keeps huge chunks
    /// of isolated vertices from forming). Boundaries are snapped to
    /// multiples of `align`.
    pub fn degree_weighted(csr: &Csr, chunks: usize, align: usize) -> Self {
        assert!(chunks > 0, "need at least one chunk");
        let align = align.max(1);
        let n = csr.num_vertices();
        if n == 0 {
            return ChunkTable { starts: vec![0, 0] };
        }
        let offsets = csr.out_offsets();
        // Prefix weight of vertices 0..v is v + offsets[v].
        let total = n + offsets[n];
        let mut starts = vec![0usize];
        for k in 1..chunks {
            let target = (total as u128 * k as u128 / chunks as u128) as usize;
            // Smallest cut with prefix(cut) >= target.
            let ideal = partition_point_idx(n + 1, |v| v + offsets[v] < target);
            let prev = *starts.last().unwrap();
            let snapped = Self::snap(ideal, align, prev, n);
            if snapped > prev && snapped < n {
                starts.push(snapped);
            }
        }
        starts.push(n);
        ChunkTable { starts }
    }

    /// Snap `cut` to the nearest multiple of `align` within `(prev, n)`,
    /// preferring rounding to the closer multiple.
    fn snap(cut: usize, align: usize, prev: usize, n: usize) -> usize {
        if align <= 1 {
            return cut;
        }
        let down = cut / align * align;
        let up = down + align;
        let snapped = if cut - down <= up - cut { down } else { up };
        snapped.clamp(prev, n)
    }

    /// Number of chunks.
    #[inline]
    pub fn num_chunks(&self) -> usize {
        self.starts.len() - 1
    }

    /// Total number of vertices covered.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        *self.starts.last().unwrap()
    }

    /// Half-open vertex-index range `[start, end)` of chunk `c`.
    #[inline]
    pub fn bounds(&self, c: usize) -> (usize, usize) {
        (self.starts[c], self.starts[c + 1])
    }

    /// The chunk owning vertex index `v`. Binary search over the boundary
    /// table; panics (via debug assertions) if `v` is out of range.
    #[inline]
    pub fn chunk_of(&self, v: usize) -> usize {
        debug_assert!(
            v < self.num_vertices(),
            "vertex index {v} outside partition table (n = {})",
            self.num_vertices()
        );
        // partition_point over starts[1..]: count boundaries <= v.
        let c = self.starts[1..].partition_point(|&s| s <= v);
        debug_assert!(self.starts[c] <= v && v < self.starts[c + 1]);
        c
    }
}

/// `partition_point` over the virtual slice `0..len`: the smallest `i`
/// in `0..=len` with `!pred(i)` (assuming `pred` is monotone).
fn partition_point_idx(len: usize, pred: impl Fn(usize) -> bool) -> usize {
    let mut lo = 0usize;
    let mut hi = len;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, VertexId};

    #[test]
    fn single_partition() {
        let t = ChunkTable::degree_weighted(&Csr::empty(124), 1, 8);
        assert_eq!(t.num_chunks(), 1);
        assert_eq!(t.bounds(0), (0, 124));
        assert_eq!(t.chunk_of(123), 0);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_partitions_rejected() {
        let _ = ChunkTable::degree_weighted(&Csr::empty(4), 0, 1);
    }

    #[test]
    fn degree_weighted_balances_edges() {
        // A power-law-ish graph: vertex 0 is a hub with most of the edges.
        let mut b = GraphBuilder::new();
        let n = 64u64;
        for i in 1..n {
            b.add_edge(VertexId(0), VertexId(i), 1.0); // hub fan-out
        }
        for i in 1..n {
            b.add_edge(VertexId(i), VertexId((i + 1) % n), 1.0);
        }
        let g = b.build();
        let t = ChunkTable::degree_weighted(&g, 4, 1);
        assert_eq!(t.num_vertices(), 64);
        // The hub chunk should be much smaller (fewer vertices) than a
        // uniform cut would make it.
        let (s0, e0) = t.bounds(0);
        assert_eq!(s0, 0);
        assert!(
            e0 - s0 < 64 / t.num_chunks(),
            "hub chunk owns {} vertices, expected < {}",
            e0 - s0,
            64 / t.num_chunks()
        );
        // Edge work per chunk is within 2x of the mean.
        let m = g.num_edges();
        let mean = (m + 64) / t.num_chunks();
        for c in 0..t.num_chunks() {
            let (s, e) = t.bounds(c);
            let work: usize = (s..e).map(|v| 1 + g.out_degree(VertexId(v as u64))).sum();
            assert!(work <= 2 * mean + 1, "chunk {c} work {work} >> mean {mean}");
        }
    }

    #[test]
    fn degree_weighted_empty_and_tiny() {
        let g = Csr::empty(0);
        let t = ChunkTable::degree_weighted(&g, 4, 16);
        assert_eq!(t.num_chunks(), 1);
        assert_eq!(t.num_vertices(), 0);

        let g = Csr::empty(3);
        let t = ChunkTable::degree_weighted(&g, 8, 1);
        assert_eq!(t.num_vertices(), 3);
        let covered: usize = (0..t.num_chunks())
            .map(|c| {
                let (s, e) = t.bounds(c);
                e - s
            })
            .sum();
        assert_eq!(covered, 3);
    }

    #[test]
    fn chunk_of_matches_linear_scan() {
        let mut b = GraphBuilder::new();
        for i in 0..200u64 {
            for j in 0..(i % 11) {
                b.add_edge(VertexId(i), VertexId((i + j + 1) % 200), 1.0);
            }
        }
        b.ensure_vertex(VertexId(199));
        let g = b.build();
        let t = ChunkTable::degree_weighted(&g, 5, 8);
        for c in 1..t.num_chunks() {
            let (s, _) = t.bounds(c);
            assert_eq!(s % 8, 0, "interior boundary {s} not 8-aligned");
        }
        for v in 0..200usize {
            let linear = (0..t.num_chunks())
                .find(|&c| {
                    let (s, e) = t.bounds(c);
                    s <= v && v < e
                })
                .unwrap();
            assert_eq!(t.chunk_of(v), linear);
        }
    }
}
