//! Link-fault modeling and fault-aware routing for the mesh NoC.
//!
//! The baseline [`MeshConfig`] routing is pure geometry (Manhattan hops,
//! XY paths). Under injected link faults the minimal path may be longer —
//! or may not exist at all — so the fault-aware queries return `Option`:
//! `None` means the endpoints are disconnected and the caller must surface
//! a typed error instead of silently shipping data over a dead wire.

use std::collections::BTreeSet;
use std::collections::VecDeque;

use crate::mesh::MeshConfig;

/// The set of failed bidirectional mesh links, keyed by the (unordered)
/// pair of adjacent engine indices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LinkFaults {
    dead: BTreeSet<(usize, usize)>,
}

impl LinkFaults {
    /// No dead links.
    pub fn new() -> Self {
        Self::default()
    }

    fn key(a: usize, b: usize) -> (usize, usize) {
        (a.min(b), a.max(b))
    }

    /// Marks the link between engines `a` and `b` as dead (direction-less).
    pub fn kill(&mut self, a: usize, b: usize) {
        self.dead.insert(Self::key(a, b));
    }

    /// Whether the link between `a` and `b` is dead.
    pub fn is_dead(&self, a: usize, b: usize) -> bool {
        self.dead.contains(&Self::key(a, b))
    }

    /// Number of dead links.
    pub fn len(&self) -> usize {
        self.dead.len()
    }

    /// `true` when no link is dead.
    pub fn is_empty(&self) -> bool {
        self.dead.is_empty()
    }
}

impl MeshConfig {
    /// Mesh neighbours of engine `idx` (2–4 of them).
    pub fn neighbors(&self, idx: usize) -> Vec<usize> {
        let c = self.coord(idx);
        let mut out = Vec::with_capacity(4);
        if c.x > 0 {
            out.push(idx - 1);
        }
        if c.x + 1 < self.cols {
            out.push(idx + 1);
        }
        if c.y > 0 {
            out.push(idx - self.cols);
        }
        if c.y + 1 < self.rows {
            out.push(idx + self.cols);
        }
        out
    }

    /// Shortest hop count from `a` to `b` avoiding dead links (BFS), or
    /// `None` if the fault set disconnects the endpoints.
    pub fn hops_avoiding(&self, a: usize, b: usize, faults: &LinkFaults) -> Option<u64> {
        if faults.is_empty() {
            return Some(self.hops(a, b));
        }
        if a == b {
            return Some(0);
        }
        let mut dist = vec![u64::MAX; self.engines()];
        let mut queue = VecDeque::new();
        dist[a] = 0;
        queue.push_back(a);
        while let Some(cur) = queue.pop_front() {
            for next in self.neighbors(cur) {
                if faults.is_dead(cur, next) || dist[next] != u64::MAX {
                    continue;
                }
                dist[next] = dist[cur] + 1;
                if next == b {
                    return Some(dist[next]);
                }
                queue.push_back(next);
            }
        }
        None
    }

    /// Fault-aware transfer cost: cycles to move `bytes` from `a` to `b`
    /// along the shortest surviving path, or `None` when disconnected.
    pub fn transfer_cycles_avoiding(
        &self,
        bytes: u64,
        a: usize,
        b: usize,
        faults: &LinkFaults,
    ) -> Option<u64> {
        let hops = self.hops_avoiding(a, b, faults)?;
        Some(self.transfer_cycles(bytes, hops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_matches_manhattan() {
        let m = MeshConfig::grid(4, 4);
        let f = LinkFaults::new();
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(m.hops_avoiding(a, b, &f), Some(m.hops(a, b)));
            }
        }
    }

    #[test]
    fn hop_table_matches_fault_free_routing() {
        let f = LinkFaults::new();
        for m in [MeshConfig::grid(3, 5), MeshConfig::grid(8, 8)] {
            let n = m.engines();
            let table = m.hop_table();
            assert_eq!(table.len(), n * n);
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(Some(table[a * n + b]), m.hops_avoiding(a, b, &f));
                }
            }
        }
    }

    #[test]
    fn routes_around_a_dead_link() {
        let m = MeshConfig::grid(4, 1); // a line: 0-1-2-3
        let mut f = LinkFaults::new();
        f.kill(1, 2);
        // A 1-D mesh has no detour: the cut disconnects the halves.
        assert_eq!(m.hops_avoiding(0, 3, &f), None);

        let m2 = MeshConfig::grid(3, 3);
        let mut f2 = LinkFaults::new();
        f2.kill(0, 1); // 0's east link dies; go south first instead.
        assert_eq!(m2.hops_avoiding(0, 1, &f2), Some(3));
        assert_eq!(m2.hops_avoiding(0, 2, &f2), Some(4));
        // Unaffected pairs keep their Manhattan distance.
        assert_eq!(m2.hops_avoiding(3, 5, &f2), Some(2));
    }

    #[test]
    fn isolated_engine_is_unroutable() {
        let m = MeshConfig::grid(3, 3);
        let mut f = LinkFaults::new();
        // Engine 4 (center) has neighbours 1, 3, 5, 7.
        for n in m.neighbors(4) {
            f.kill(4, n);
        }
        assert_eq!(f.len(), 4);
        for other in [0, 1, 8] {
            assert_eq!(m.hops_avoiding(4, other, &f), None);
            assert_eq!(m.hops_avoiding(other, 4, &f), None);
        }
        // The rest of the mesh still routes (around the center).
        assert_eq!(m.hops_avoiding(1, 7, &f), Some(4));
        assert_eq!(m.hops_avoiding(0, 8, &f), Some(4));
    }

    #[test]
    fn transfer_cycles_use_detour_length() {
        let m = MeshConfig::grid(3, 3);
        let mut f = LinkFaults::new();
        f.kill(0, 1);
        let free = m
            .transfer_cycles_avoiding(128, 0, 1, &LinkFaults::new())
            .unwrap();
        let detour = m.transfer_cycles_avoiding(128, 0, 1, &f).unwrap();
        assert_eq!(free, m.transfer_cycles(128, 1));
        assert_eq!(detour, m.transfer_cycles(128, 3));
        assert!(detour > free);
    }

    #[test]
    fn link_faults_are_undirected() {
        let mut f = LinkFaults::new();
        f.kill(5, 4);
        assert!(f.is_dead(4, 5));
        assert!(f.is_dead(5, 4));
        f.kill(4, 5); // idempotent
        assert_eq!(f.len(), 1);
        assert!(!f.is_empty());
    }

    #[test]
    fn neighbors_are_adjacent_and_complete() {
        let m = MeshConfig::grid(4, 3);
        for i in 0..m.engines() {
            let ns = m.neighbors(i);
            for &n in &ns {
                assert_eq!(m.hops(i, n), 1);
            }
            let expected = (0..m.engines()).filter(|&j| m.hops(i, j) == 1).count();
            assert_eq!(ns.len(), expected);
        }
    }
}
