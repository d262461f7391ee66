use crate::mesh::MeshConfig;

/// Accumulates inter-engine traffic totals: payload bytes, byte-hops along
/// XY routes (the NoC energy term) and transfer count.
#[derive(Debug, Clone)]
pub struct TrafficTracker {
    mesh: MeshConfig,
    total_bytes: u64,
    total_byte_hops: u64,
    transfers: u64,
}

impl TrafficTracker {
    /// Creates an empty tracker for the given mesh.
    pub fn new(mesh: MeshConfig) -> Self {
        Self {
            mesh,
            total_bytes: 0,
            total_byte_hops: 0,
            transfers: 0,
        }
    }

    /// Records a `bytes`-sized transfer over a route of `hops` links, the
    /// distance the caller already looked up (e.g. a
    /// [`MeshConfig::hop_table`] entry). Local (0-hop) and empty transfers
    /// are not traffic.
    pub fn record(&mut self, bytes: u64, hops: u64) {
        if hops == 0 || bytes == 0 {
            return;
        }
        self.total_bytes += bytes;
        self.total_byte_hops += bytes * hops;
        self.transfers += 1;
    }

    /// Total payload bytes injected (each transfer counted once).
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Σ bytes × hops — proportional to NoC energy.
    pub fn total_byte_hops(&self) -> u64 {
        self.total_byte_hops
    }

    /// Number of recorded transfers.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Average hops per transferred byte (0 when idle).
    pub fn mean_hops_per_byte(&self) -> f64 {
        if self.total_bytes == 0 {
            0.0
        } else {
            self.total_byte_hops as f64 / self.total_bytes as f64
        }
    }

    /// Total NoC energy in picojoules for the recorded traffic.
    pub fn energy_pj(&self) -> f64 {
        self.total_byte_hops as f64 * self.mesh.energy_pj_per_byte_hop
    }

    /// Resets all counters.
    pub fn clear(&mut self) {
        self.total_bytes = 0;
        self.total_byte_hops = 0;
        self.transfers = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_attribute_links() {
        let m = MeshConfig::grid(4, 4);
        let mut t = TrafficTracker::new(m);
        t.record(120, m.hops(0, 3)); // 3 hops along row 0
        assert_eq!(t.total_bytes(), 120);
        assert_eq!(t.total_byte_hops(), 360);
        assert_eq!(t.transfers(), 1);

        t.record(80, m.hops(1, 2)); // 1 hop
        assert_eq!(t.total_bytes(), 200);
        assert_eq!(t.total_byte_hops(), 440);
        assert_eq!(t.transfers(), 2);
    }

    #[test]
    fn in_place_walk_matches_route_for_every_pair() {
        for m in [MeshConfig::grid(3, 5), MeshConfig::grid(8, 8)] {
            let n = m.engines();
            let table = m.hop_table();
            for src in 0..n {
                for dst in 0..n {
                    let mut t = TrafficTracker::new(m);
                    t.record(7, table[src * n + dst]);
                    let links = m.route(src, dst).len() as u64 - 1;
                    assert_eq!(m.hops(src, dst), links, "{src} -> {dst} on {m:?}");
                    assert_eq!(t.total_byte_hops(), 7 * links, "{src} -> {dst} on {m:?}");
                    assert_eq!(t.transfers(), u64::from(src != dst));
                }
            }
        }
    }

    #[test]
    fn local_and_empty_transfers_ignored() {
        let mut t = TrafficTracker::new(MeshConfig::grid(2, 2));
        t.record(999, 0);
        t.record(0, 1);
        assert_eq!(t.total_bytes(), 0);
        assert_eq!(t.transfers(), 0);
    }

    #[test]
    fn energy_matches_byte_hops() {
        let m = MeshConfig::paper_default();
        let mut t = TrafficTracker::new(m);
        t.record(1000, m.hops(0, 9)); // 2 hops
        let expect = 1000.0 * 2.0 * m.energy_pj_per_byte_hop;
        assert!((t.energy_pj() - expect).abs() < 1e-6);
    }

    #[test]
    fn clear_resets() {
        let m = MeshConfig::grid(2, 2);
        let mut t = TrafficTracker::new(m);
        t.record(64, m.hops(0, 3));
        t.clear();
        assert_eq!(t.total_bytes(), 0);
        assert_eq!(t.total_byte_hops(), 0);
        assert_eq!(t.mean_hops_per_byte(), 0.0);
    }
}
