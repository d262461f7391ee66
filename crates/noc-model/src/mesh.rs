/// Position of an engine on the 2-D mesh: `x` is the column, `y` the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineCoord {
    /// Column index.
    pub x: usize,
    /// Row index.
    pub y: usize,
}

/// Geometry and cost coefficients of the 2-D mesh NoC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeshConfig {
    /// Mesh columns.
    pub cols: usize,
    /// Mesh rows.
    pub rows: usize,
    /// Link bandwidth in bytes per cycle (512-bit links → 64 B/cycle,
    /// sized so the mesh can feed a 256-MAC/cycle engine; Simba-class).
    pub link_bytes_per_cycle: u64,
    /// Latency per hop in cycles (1 in the TILE64 static network).
    pub hop_latency: u64,
    /// Energy per byte per hop (paper: 0.61 pJ/bit → 4.88 pJ/byte).
    pub energy_pj_per_byte_hop: f64,
}

impl MeshConfig {
    /// The paper's 8×8-engine mesh with 64-bit single-cycle links.
    pub fn paper_default() -> Self {
        Self::grid(8, 8)
    }

    /// A `cols × rows` mesh with the paper's link parameters.
    pub fn grid(cols: usize, rows: usize) -> Self {
        assert!(cols > 0 && rows > 0, "mesh dimensions must be non-zero");
        Self {
            cols,
            rows,
            link_bytes_per_cycle: 64,
            hop_latency: 1,
            energy_pj_per_byte_hop: 0.61 * 8.0,
        }
    }

    /// Number of engines on the mesh.
    pub fn engines(&self) -> usize {
        self.cols * self.rows
    }

    /// Coordinate of engine `idx` (row-major numbering).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn coord(&self, idx: usize) -> EngineCoord {
        assert!(idx < self.engines(), "engine {idx} out of range");
        EngineCoord {
            x: idx % self.cols,
            y: idx / self.cols,
        }
    }

    /// Engine index of a coordinate.
    pub fn index(&self, c: EngineCoord) -> usize {
        assert!(
            c.x < self.cols && c.y < self.rows,
            "coordinate out of range"
        );
        c.y * self.cols + c.x
    }

    /// Shortest-path (Manhattan) hop count `D(i, j)` between two engines.
    pub fn hops(&self, a: usize, b: usize) -> u64 {
        let (ca, cb) = (self.coord(a), self.coord(b));
        (ca.x.abs_diff(cb.x) + ca.y.abs_diff(cb.y)) as u64
    }

    /// Every pairwise [`MeshConfig::hops`] value, row-major: entry
    /// `a * engines() + b` is `hops(a, b)`. Hot loops index it instead of
    /// re-deriving both coordinates per query.
    pub fn hop_table(&self) -> Vec<u64> {
        let n = self.engines();
        (0..n * n).map(|i| self.hops(i / n, i % n)).collect()
    }

    /// For every engine, every engine ordered nearest first, row-major:
    /// row `a` (entries `a * engines() .. (a + 1) * engines()`) lists all
    /// engines sorted by `(hops(a, b), b)`, starting with `a` itself.
    /// Probing a row in order finds the closest member of any engine set,
    /// ties to the lowest index, at the first hit.
    pub fn nearest_first_table(&self) -> Vec<usize> {
        let n = self.engines();
        let mut table = Vec::with_capacity(n * n);
        for a in 0..n {
            let start = table.len();
            table.extend(0..n);
            table[start..].sort_by_cached_key(|&b| (self.hops(a, b), b));
        }
        table
    }

    /// The XY (dimension-ordered) route from `a` to `b`, inclusive of both
    /// endpoints: data travels along X first, then Y, matching the paper's
    /// deadlock-free routing policy.
    pub fn route(&self, a: usize, b: usize) -> Vec<usize> {
        let (ca, cb) = (self.coord(a), self.coord(b));
        let manhattan = ca.x.abs_diff(cb.x) + ca.y.abs_diff(cb.y);
        let mut path = Vec::with_capacity(manhattan + 1);
        let mut cur = ca;
        path.push(self.index(cur));
        while cur.x != cb.x {
            cur.x = if cb.x > cur.x { cur.x + 1 } else { cur.x - 1 };
            path.push(self.index(cur));
        }
        while cur.y != cb.y {
            cur.y = if cb.y > cur.y { cur.y + 1 } else { cur.y - 1 };
            path.push(self.index(cur));
        }
        path
    }

    /// Cycles to move `bytes` across `hops` mesh hops: head latency plus
    /// link serialization (wormhole pipelining overlaps the body flits).
    pub fn transfer_cycles(&self, bytes: u64, hops: u64) -> u64 {
        if hops == 0 || bytes == 0 {
            return 0;
        }
        hops * self.hop_latency + bytes.div_ceil(self.link_bytes_per_cycle)
    }

    /// Energy in picojoules for moving `bytes` across `hops` hops.
    pub fn transfer_energy_pj(&self, bytes: u64, hops: u64) -> f64 {
        bytes as f64 * hops as f64 * self.energy_pj_per_byte_hop
    }

    /// The zig-zag (boustrophedon) enumeration of engine indices used by the
    /// baseline task-allocation order in Fig. 7: row 0 left→right, row 1
    /// right→left, and so on, so consecutive positions are always mesh
    /// neighbours.
    pub fn zigzag_order(&self) -> Vec<usize> {
        let mut order = Vec::with_capacity(self.engines());
        for y in 0..self.rows {
            if y % 2 == 0 {
                for x in 0..self.cols {
                    order.push(self.index(EngineCoord { x, y }));
                }
            } else {
                for x in (0..self.cols).rev() {
                    order.push(self.index(EngineCoord { x, y }));
                }
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coord_index_roundtrip() {
        let m = MeshConfig::paper_default();
        for i in 0..m.engines() {
            assert_eq!(m.index(m.coord(i)), i);
        }
    }

    #[test]
    fn hops_are_manhattan() {
        let m = MeshConfig::paper_default();
        assert_eq!(m.hops(0, 0), 0);
        assert_eq!(m.hops(0, 1), 1);
        assert_eq!(m.hops(0, 8), 1); // one row down
        assert_eq!(m.hops(0, 9), 2);
        assert_eq!(m.hops(7, 56), 14);
    }

    #[test]
    fn hops_symmetric() {
        let m = MeshConfig::grid(5, 3);
        for a in 0..m.engines() {
            for b in 0..m.engines() {
                assert_eq!(m.hops(a, b), m.hops(b, a));
            }
        }
    }

    #[test]
    fn route_is_x_then_y() {
        let m = MeshConfig::paper_default();
        // From (1,0)=1 to (3,2)=19: x first 1->2->3, then y 0->1->2.
        let r = m.route(1, 19);
        assert_eq!(r, vec![1, 2, 3, 11, 19]);
        assert_eq!(r.len() as u64, m.hops(1, 19) + 1);
    }

    #[test]
    fn route_length_matches_hops() {
        let m = MeshConfig::grid(4, 4);
        for a in 0..16 {
            for b in 0..16 {
                assert_eq!(m.route(a, b).len() as u64, m.hops(a, b) + 1);
            }
        }
    }

    #[test]
    fn transfer_cost_model() {
        let m = MeshConfig::paper_default();
        assert_eq!(m.transfer_cycles(0, 5), 0);
        assert_eq!(m.transfer_cycles(100, 0), 0); // local reuse is free
                                                  // 2 hops + ceil(100/64)=2 serialization cycles.
        assert_eq!(m.transfer_cycles(100, 2), 4);
        let e = m.transfer_energy_pj(100, 2);
        assert!((e - 100.0 * 2.0 * 4.88).abs() < 1e-9);
    }

    #[test]
    fn zigzag_neighbours_are_adjacent() {
        let m = MeshConfig::paper_default();
        let order = m.zigzag_order();
        assert_eq!(order.len(), 64);
        for pair in order.windows(2) {
            assert_eq!(m.hops(pair[0], pair[1]), 1, "{pair:?} not adjacent");
        }
        // Every engine appears exactly once.
        let mut seen = [false; 64];
        for &e in &order {
            assert!(!seen[e]);
            seen[e] = true;
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coord_out_of_range_panics() {
        MeshConfig::grid(2, 2).coord(4);
    }
}
