//! Which engines hold an on-chip copy of each datum.
//!
//! The simulator keeps one engine bitset per datum slot — `ceil(engines /
//! 64)` words, so an 81-engine mesh uses two — as the *only* record of
//! residency outside the buffers themselves. A membership test is one bit
//! test, and the nearest copy is found by probing engines in a
//! precomputed nearest-first order ([`noc_model::MeshConfig::nearest_first_table`])
//! until a set bit turns up, instead of scanning every copy.

/// One engine bitset per datum slot, stored flat: slot `s` owns words
/// `s * words .. (s + 1) * words`, engine `e` is bit `e % 64` of word
/// `e / 64`.
#[derive(Debug, Clone)]
pub(crate) struct CopySets {
    words: usize,
    bits: Vec<u64>,
}

impl CopySets {
    /// Empty copy sets for `slots` data on an `engines`-engine mesh.
    pub(crate) fn new(slots: usize, engines: usize) -> Self {
        let words = engines.div_ceil(64).max(1);
        Self {
            words,
            bits: vec![0; slots * words],
        }
    }

    fn row(&self, slot: u32) -> &[u64] {
        let at = slot as usize * self.words;
        &self.bits[at..at + self.words]
    }

    fn row_mut(&mut self, slot: u32) -> &mut [u64] {
        let at = slot as usize * self.words;
        &mut self.bits[at..at + self.words]
    }

    /// Whether `engine` holds a copy of `slot`.
    pub(crate) fn contains(&self, slot: u32, engine: usize) -> bool {
        self.row(slot)[engine / 64] & (1 << (engine % 64)) != 0
    }

    /// Records a copy of `slot` on `engine` (idempotent).
    pub(crate) fn insert(&mut self, slot: u32, engine: usize) {
        self.row_mut(slot)[engine / 64] |= 1 << (engine % 64);
    }

    /// Forgets `engine`'s copy of `slot` (idempotent).
    pub(crate) fn remove(&mut self, slot: u32, engine: usize) {
        self.row_mut(slot)[engine / 64] &= !(1 << (engine % 64));
    }

    /// Forgets every copy of `slot`.
    pub(crate) fn clear(&mut self, slot: u32) {
        self.row_mut(slot).fill(0);
    }

    /// `true` when no engine holds `slot`.
    pub(crate) fn is_empty(&self, slot: u32) -> bool {
        self.row(slot).iter().all(|&w| w == 0)
    }

    /// Engines holding `slot`, ascending.
    pub(crate) fn iter(&self, slot: u32) -> impl Iterator<Item = usize> + '_ {
        self.row(slot).iter().enumerate().flat_map(|(i, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros() as usize;
                w &= w - 1;
                Some(i * 64 + bit)
            })
        })
    }

    /// The first engine of `order` that holds `slot`. With `order` one row
    /// of the nearest-first table, this is the copy minimizing
    /// `(hops, engine index)`.
    pub(crate) fn nearest(&self, slot: u32, order: &[usize]) -> Option<usize> {
        let row = self.row(slot);
        order
            .iter()
            .copied()
            .find(|&e| row[e / 64] & (1 << (e % 64)) != 0)
    }

    /// Total copies across all slots.
    pub(crate) fn count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ad_util::Rng64;
    use noc_model::MeshConfig;

    #[test]
    fn insert_remove_and_iterate_across_words() {
        let mut c = CopySets::new(3, 81);
        assert!(c.is_empty(1));
        for e in [80, 3, 64, 63] {
            c.insert(1, e);
        }
        c.insert(1, 3);
        assert_eq!(c.iter(1).collect::<Vec<_>>(), vec![3, 63, 64, 80]);
        assert!(c.contains(1, 64) && !c.contains(0, 64) && !c.contains(2, 64));
        c.remove(1, 63);
        assert_eq!(c.iter(1).next(), Some(3));
        assert_eq!(c.count(), 3);
        c.clear(1);
        assert!(c.is_empty(1));
        assert_eq!(c.count(), 0);
    }

    /// The nearest-first probe equals the brute-force minimum over
    /// `(hops, index)` of the copy set, from every requesting engine.
    #[test]
    fn nearest_first_probe_matches_brute_force_min() {
        let mut rng = Rng64::new(0x5eed);
        for mesh in [
            MeshConfig::grid(3, 5),
            MeshConfig::grid(8, 8),
            MeshConfig::grid(9, 9),
        ] {
            let n = mesh.engines();
            let table = mesh.nearest_first_table();
            for trial in 0..200 {
                let mut c = CopySets::new(1, n);
                // Sparse to dense copy sets, including the empty one.
                let density = trial % 10;
                for e in 0..n {
                    if rng.below(10) < density {
                        c.insert(0, e);
                    }
                }
                for engine in 0..n {
                    let brute = c.iter(0).min_by_key(|&src| (mesh.hops(src, engine), src));
                    let probe = c.nearest(0, &table[engine * n..(engine + 1) * n]);
                    assert_eq!(probe, brute, "{n} engines, requester {engine}");
                }
            }
        }
    }
}
