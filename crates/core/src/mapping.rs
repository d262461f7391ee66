//! Atom–engine mapping (paper Sec. IV-C, Fig. 7).
//!
//! Within one round, atoms are placed onto the engine mesh in zig-zag
//! order, with atoms of the same layer kept adjacent. The free variable is
//! the *order of the involved layers* (`P`, a permutation): the paper's
//! `TransferCost(P) = Σ_i Σ_j D(i,j) × Size(Atom)` is evaluated for every
//! permutation (all `M!` for small `M`, a deterministic subset beyond) and
//! the cheapest is committed. Producer residency is tracked across rounds
//! (the engine where each atom's output was produced), as is the engine that
//! last held each weight slice, so weight multicast distance is part of the
//! cost as well.
//!
//! Both cross-round tables are flat `Vec`s — residency indexed by the dense
//! [`AtomId`], weight homes by the DAG's dense weight slots (see
//! [`AtomicDag::weight_exts`]) — and every per-round buffer is reused
//! scratch. Mesh hops are `|dx| + |dy|`, so an atom's transfer cost on
//! engine `e` splits into a per-column and a per-row term: the affinity
//! scan buckets an atom's operand bytes per column and per row, folds each
//! histogram into distance sums (O(sources + cols + rows)) and then prices
//! every engine with two array reads, instead of one hop evaluation per
//! (source, engine) pair (DESIGN.md §11).

use noc_model::MeshConfig;

use crate::atomic_dag::{AtomId, AtomicDag};

/// Sentinel for "not resident on any engine" in the dense tables.
const NO_ENGINE: usize = usize::MAX;

/// Errors surfaced by [`Mapper::map_round`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingError {
    /// A round holds more atoms than the mesh has engines, so no injective
    /// atom→engine assignment exists.
    RoundTooLarge {
        /// Atoms in the offending round.
        round_len: usize,
        /// Engines available on the mesh.
        engines: usize,
    },
}

impl std::fmt::Display for MappingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingError::RoundTooLarge { round_len, engines } => write!(
                f,
                "round of {round_len} atoms exceeds the {engines}-engine mesh"
            ),
        }
    }
}

impl std::error::Error for MappingError {}

/// Which placement algorithm the mapper runs per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MappingAlgo {
    /// Atoms placed along the zig-zag in round order, no search — the
    /// commonly-used allocation the paper improves on (Fig. 7, and the
    /// "w/o mapping" ablation of Fig. 10).
    ZigzagIdentity,
    /// The paper's Sec. IV-C formulation verbatim: zig-zag placement with
    /// an exhaustive search over the permutation `P` of involved layers.
    LayerPermutation,
    /// Per-atom affinity assignment: each atom goes to the free engine
    /// minimizing its hop-weighted operand distance (largest consumers
    /// first). Strictly generalizes the permutation search — the paper's
    /// `TransferCost` objective is minimized atom-by-atom instead of
    /// group-by-group — and is the default.
    Affinity,
}

/// Mapping-stage configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappingConfig {
    /// Placement algorithm.
    pub algo: MappingAlgo,
    /// Maximum number of layer groups for exhaustive permutation search
    /// (`M! ≤ 120` at the default of 5); larger rounds use a deterministic
    /// rotation/reversal subset.
    pub max_permutation_layers: usize,
}

impl Default for MappingConfig {
    fn default() -> Self {
        Self {
            algo: MappingAlgo::Affinity,
            max_permutation_layers: 5,
        }
    }
}

/// Per-round working buffers, reused across [`Mapper::map_round`] calls so
/// steady-state mapping allocates nothing. Taken out of the mapper for the
/// duration of a round (`std::mem::take`) and put back afterwards. Reuse
/// is capacity-only — every field is cleared or fully overwritten before
/// it is read (pinned by the golden placement-hash tests).
#[derive(Debug, Clone, Default)]
struct MapScratch {
    /// Round position of each atom (indexed by atom id; only the entries
    /// of the current round's atoms are meaningful).
    pos: Vec<u32>,
    /// `(resident input bytes, atom)` sort keys for affinity placement.
    items: Vec<(u64, AtomId)>,
    /// `(source engine, bytes)` operand contributions of one atom.
    contribs: Vec<(usize, u64)>,
    /// Per-column and per-row transfer-cost sums of `contribs` (see
    /// [`axis_costs`]).
    xs: Vec<u64>,
    ys: Vec<u64>,
    /// Engines already taken within the current round.
    used: Vec<bool>,
    /// Atoms with no resident inputs, placed after the affinity pass.
    deferred: Vec<AtomId>,
    /// First-appearance `(batch, layer)` group keys of the current round.
    group_order: Vec<(u16, u32)>,
    /// Atoms of each group, parallel to `group_order` (pooled: inner
    /// vectors keep their capacity between rounds).
    group_atoms: Vec<Vec<AtomId>>,
}

/// Stateful per-workload mapper: remembers where each atom's output and
/// each weight slice last lived.
#[derive(Debug, Clone)]
pub struct Mapper {
    mesh: MeshConfig,
    cfg: MappingConfig,
    zigzag: Vec<usize>,
    /// Zig-zag rank of each engine (inverse of `zigzag`), the deterministic
    /// tie-break of the affinity engine scan.
    zig_rank: Vec<usize>,
    /// Engine where each atom's output was produced, indexed by atom id
    /// ([`NO_ENGINE`] = not produced yet). Sized on first use per DAG.
    residency: Vec<usize>,
    /// Engine that most recently used each weight slice, indexed by the
    /// DAG's dense weight slot.
    weight_home: Vec<usize>,
    /// Engines still operational; dead engines receive no atoms (fault
    /// recovery maps rounds onto the survivors).
    alive: Vec<bool>,
    /// Reused per-round buffers.
    scratch: MapScratch,
    /// Routes the engine choice through the O(sources · engines) hop scan
    /// the per-axis sums replaced, so tests can compare the two.
    #[cfg(test)]
    reference_scan: bool,
}

impl Mapper {
    /// Creates a mapper for `mesh`.
    pub fn new(mesh: MeshConfig, cfg: MappingConfig) -> Self {
        let zigzag = mesh.zigzag_order();
        let mut zig_rank = vec![0usize; mesh.engines()];
        for (r, &e) in zigzag.iter().enumerate() {
            zig_rank[e] = r;
        }
        let alive = vec![true; mesh.engines()];
        Self {
            mesh,
            cfg,
            zigzag,
            zig_rank,
            residency: Vec::new(),
            weight_home: Vec::new(),
            alive,
            scratch: MapScratch::default(),
            #[cfg(test)]
            reference_scan: false,
        }
    }

    /// Engine an atom's output resides on (if it was mapped before).
    pub fn residency(&self, atom: AtomId) -> Option<usize> {
        self.residency
            .get(atom.index())
            .copied()
            .filter(|e| *e != NO_ENGINE)
    }

    /// Marks `engine` as failed: it receives no further atoms, and any
    /// residency/weight-home hints pointing at it are dropped (its buffer
    /// contents are gone).
    pub fn kill_engine(&mut self, engine: usize) {
        if let Some(a) = self.alive.get_mut(engine) {
            *a = false;
        }
        for e in self.residency.iter_mut().chain(self.weight_home.iter_mut()) {
            if *e == engine {
                *e = NO_ENGINE;
            }
        }
    }

    /// Number of engines still accepting atoms.
    pub fn alive_engines(&self) -> usize {
        self.alive.iter().filter(|a| **a).count()
    }

    /// Sizes the dense tables for `dag` (no-op once sized).
    fn ensure_tables(&mut self, dag: &AtomicDag) {
        if self.residency.len() < dag.atom_count() {
            self.residency.resize(dag.atom_count(), NO_ENGINE);
            self.scratch.pos.resize(dag.atom_count(), 0);
        }
        if self.weight_home.len() < dag.weight_slot_count() {
            self.weight_home.resize(dag.weight_slot_count(), NO_ENGINE);
        }
    }

    /// Maps one round of atoms to engines, committing residency updates.
    ///
    /// # Errors
    ///
    /// [`MappingError::RoundTooLarge`] if the round holds more atoms than
    /// the mesh has engines.
    pub fn map_round(
        &mut self,
        dag: &AtomicDag,
        round: &[AtomId],
    ) -> Result<Vec<(AtomId, usize)>, MappingError> {
        if round.len() > self.alive_engines() {
            return Err(MappingError::RoundTooLarge {
                round_len: round.len(),
                engines: self.alive_engines(),
            });
        }
        if round.is_empty() {
            return Ok(Vec::new());
        }
        self.ensure_tables(dag);
        let assignment = match self.cfg.algo {
            MappingAlgo::Affinity => self.place_affinity(dag, round)?,
            MappingAlgo::ZigzagIdentity | MappingAlgo::LayerPermutation => {
                self.place_permutation(dag, round)?
            }
        };

        // Commit residency.
        for (a, e) in &assignment {
            self.residency[a.index()] = *e;
            for (slot, _) in dag.weight_exts(*a) {
                self.weight_home[*slot as usize] = *e;
            }
        }
        Ok(assignment)
    }

    /// Re-commits a previously mapped round after a failure: every atom
    /// whose prior engine is still alive (and unclaimed) stays put, and the
    /// rest — atoms orphaned by a dead engine or carrying an out-of-range
    /// sentinel engine — take the free alive engine minimizing their hop-weighted
    /// operand cost, zig-zag rank breaking ties (the affinity scan).
    /// Residency and weight-home hints are committed exactly as
    /// [`Mapper::map_round`] would, so patched and freshly mapped rounds
    /// interleave on one mapper.
    ///
    /// This is the placement engine of the reuse-suffix recovery rung: the
    /// prior plan's geometry survives wherever it can, and the patch costs
    /// O(orphans · (sources + cols + rows + engines)) instead of a full
    /// placement pass.
    ///
    /// # Errors
    ///
    /// [`MappingError::RoundTooLarge`] if the round holds more atoms than
    /// the mesh has alive engines.
    pub fn patch_round(
        &mut self,
        dag: &AtomicDag,
        prior: &[(AtomId, usize)],
    ) -> Result<Vec<(AtomId, usize)>, MappingError> {
        let oversize = MappingError::RoundTooLarge {
            round_len: prior.len(),
            engines: self.alive_engines(),
        };
        if prior.len() > self.alive_engines() {
            return Err(oversize);
        }
        if prior.is_empty() {
            return Ok(Vec::new());
        }
        self.ensure_tables(dag);
        let n = self.mesh.engines();
        let mut s = std::mem::take(&mut self.scratch);
        s.used.clear();
        s.used.resize(n, false);
        s.deferred.clear();
        let mut placed: Vec<(AtomId, usize)> = Vec::with_capacity(prior.len());
        for &(a, e) in prior {
            if e < n && self.alive[e] && !s.used[e] {
                s.used[e] = true;
                placed.push((a, e));
            } else {
                s.deferred.push(a);
            }
        }
        let mut ok = true;
        for di in 0..s.deferred.len() {
            let a = s.deferred[di];
            self.gather_sources(dag, a, &mut s.contribs);
            let Some(e) = self.cheapest_free_engine(&mut s) else {
                // Unreachable given the size check above; degrade to the
                // oversize error rather than panicking (ad-lint P1).
                ok = false;
                break;
            };
            s.used[e] = true;
            placed.push((a, e));
        }
        if ok {
            // Restore the prior round's atom order.
            for (i, &(a, _)) in prior.iter().enumerate() {
                s.pos[a.index()] = ad_util::cast::u32_from_usize(i);
            }
            placed.sort_by_key(|(a, _)| s.pos[a.index()]);
        }
        self.scratch = s;
        if !ok {
            return Err(oversize);
        }
        for (a, e) in &placed {
            self.residency[a.index()] = *e;
            for (slot, _) in dag.weight_exts(*a) {
                self.weight_home[*slot as usize] = *e;
            }
        }
        Ok(placed)
    }

    /// Collects `atom`'s resident operand sources as `(engine, bytes)`:
    /// producers with a known residency and weight slices with a known
    /// home.
    fn gather_sources(&self, dag: &AtomicDag, atom: AtomId, out: &mut Vec<(usize, u64)>) {
        out.clear();
        for (p, b) in dag.preds(atom) {
            let src = self.residency[p.index()];
            if src != NO_ENGINE {
                out.push((src, b));
            }
        }
        for (slot, b) in dag.weight_exts(atom) {
            let src = self.weight_home[*slot as usize];
            if src != NO_ENGINE {
                out.push((src, *b));
            }
        }
    }

    /// The free alive engine minimizing the hop-weighted cost of pulling
    /// `s.contribs` to it, zig-zag rank breaking ties; `None` when every
    /// alive engine is taken.
    fn cheapest_free_engine(&self, s: &mut MapScratch) -> Option<usize> {
        #[cfg(test)]
        if self.reference_scan {
            return tests::reference_cheapest_free_engine(self, s);
        }
        axis_costs(&self.mesh, &s.contribs, &mut s.xs, &mut s.ys);
        let cols = self.mesh.cols;
        (0..self.mesh.engines())
            .filter(|&e| !s.used[e] && self.alive[e])
            .min_by_key(|&e| (s.xs[e % cols] + s.ys[e / cols], self.zig_rank[e]))
    }

    /// Hop-weighted cost of running `atom` on `engine` given current
    /// residency (one term of `TransferCost`).
    fn atom_cost_at(&self, dag: &AtomicDag, atom: AtomId, engine: usize) -> u64 {
        let mut cost = 0u64;
        for (p, bytes) in dag.preds(atom) {
            let src = self.residency[p.index()];
            if src != NO_ENGINE {
                cost += self.mesh.hops(src, engine) * bytes;
            }
        }
        for (slot, bytes) in dag.weight_exts(atom) {
            let src = self.weight_home[*slot as usize];
            if src != NO_ENGINE {
                cost += self.mesh.hops(src, engine) * bytes;
            }
        }
        cost
    }

    /// Greedy affinity placement: atoms with the most resident input bytes
    /// choose first; each takes the free engine minimizing its transfer
    /// cost, with zig-zag order breaking ties.
    fn place_affinity(
        &mut self,
        dag: &AtomicDag,
        round: &[AtomId],
    ) -> Result<Vec<(AtomId, usize)>, MappingError> {
        let oversize = MappingError::RoundTooLarge {
            round_len: round.len(),
            engines: self.alive_engines(),
        };
        let n = self.mesh.engines();
        let mut s = std::mem::take(&mut self.scratch);

        s.items.clear();
        for &a in round {
            let bytes: u64 = dag
                .preds(a)
                .iter()
                .filter(|(p, _)| self.residency[p.index()] != NO_ENGINE)
                .map(|(_, b)| b)
                .sum::<u64>()
                + dag
                    .weight_exts(a)
                    .iter()
                    .filter(|(slot, _)| self.weight_home[*slot as usize] != NO_ENGINE)
                    .map(|(_, b)| *b)
                    .sum::<u64>();
            s.items.push((bytes, a));
        }
        s.items.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));

        s.used.clear();
        s.used.resize(n, false);
        s.deferred.clear();
        let mut placed: Vec<(AtomId, usize)> = Vec::with_capacity(round.len());
        let mut ok = true;
        for i in 0..s.items.len() {
            let (bytes, a) = s.items[i];
            if bytes == 0 {
                s.deferred.push(a);
                continue;
            }
            self.gather_sources(dag, a, &mut s.contribs);
            let Some(e) = self.cheapest_free_engine(&mut s) else {
                ok = false;
                break;
            };
            s.used[e] = true;
            placed.push((a, e));
        }
        if ok {
            // Atoms with no resident inputs fill the remaining zig-zag slots.
            let mut free = self
                .zigzag
                .iter()
                .copied()
                .filter(|e| !s.used[*e] && self.alive[*e]);
            for &a in &s.deferred {
                match free.next() {
                    Some(e) => placed.push((a, e)),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
        }
        if ok {
            // Restore round order for readability of the schedule.
            for (i, &a) in round.iter().enumerate() {
                s.pos[a.index()] = ad_util::cast::u32_from_usize(i);
            }
            placed.sort_by_key(|(a, _)| s.pos[a.index()]);
        }
        self.scratch = s;
        if ok {
            Ok(placed)
        } else {
            Err(oversize)
        }
    }

    /// Zig-zag placement with the Sec. IV-C layer-permutation search (or
    /// the identity order for [`MappingAlgo::ZigzagIdentity`]).
    fn place_permutation(
        &mut self,
        dag: &AtomicDag,
        round: &[AtomId],
    ) -> Result<Vec<(AtomId, usize)>, MappingError> {
        // Group atoms by (batch, layer) in first-appearance order. Rounds
        // involve a handful of groups, so the key lookup is a linear scan.
        let mut s = std::mem::take(&mut self.scratch);
        s.group_order.clear();
        for &a in round {
            let atom = dag.atom(a);
            let key = (atom.batch, atom.layer.0);
            let gi = match s.group_order.iter().position(|k| *k == key) {
                Some(gi) => gi,
                None => {
                    let gi = s.group_order.len();
                    s.group_order.push(key);
                    if s.group_atoms.len() <= gi {
                        s.group_atoms.push(Vec::new());
                    }
                    s.group_atoms[gi].clear();
                    gi
                }
            };
            s.group_atoms[gi].push(a);
        }
        let groups = &s.group_atoms[..s.group_order.len()];

        let candidate_orders = self.candidate_orders(s.group_order.len());
        let mut best: Option<(u64, Vec<(AtomId, usize)>)> = None;
        for perm in &candidate_orders {
            let assignment = self.place(groups, perm)?;
            let cost = self.transfer_cost(dag, &assignment);
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, assignment));
            }
        }
        self.scratch = s;
        // `candidate_orders` always contains at least the identity, so a
        // non-empty round always produces a candidate.
        Ok(best.map(|(_, a)| a).unwrap_or_default())
    }

    /// Permutations of `0..m` to evaluate.
    fn candidate_orders(&self, m: usize) -> Vec<Vec<usize>> {
        let identity: Vec<usize> = (0..m).collect();
        if self.cfg.algo != MappingAlgo::LayerPermutation || m <= 1 {
            return vec![identity];
        }
        if m <= self.cfg.max_permutation_layers {
            return permutations(m);
        }
        // Deterministic subset: identity, reversal, rotations.
        let mut out = vec![identity.clone()];
        let mut rev = identity.clone();
        rev.reverse();
        out.push(rev);
        for k in 1..m.min(8) {
            let mut rot = identity.clone();
            rot.rotate_left(k);
            out.push(rot);
        }
        out
    }

    /// Places the atom groups in permuted order along the zig-zag engine
    /// enumeration.
    fn place(
        &self,
        groups: &[Vec<AtomId>],
        perm: &[usize],
    ) -> Result<Vec<(AtomId, usize)>, MappingError> {
        let mut out = Vec::new();
        let mut slots = self.zigzag.iter().copied().filter(|e| self.alive[*e]);
        for &gi in perm {
            for &a in &groups[gi] {
                let e = slots.next().ok_or(MappingError::RoundTooLarge {
                    round_len: groups.iter().map(Vec::len).sum(),
                    engines: self.alive_engines(),
                })?;
                out.push((a, e));
            }
        }
        Ok(out)
    }

    /// `TransferCost(P)`: hop-weighted bytes pulled from resident producers
    /// and weight homes.
    fn transfer_cost(&self, dag: &AtomicDag, assignment: &[(AtomId, usize)]) -> u64 {
        assignment
            .iter()
            .map(|&(a, e)| self.atom_cost_at(dag, a, e))
            .sum()
    }
}

/// Splits the hop-weighted transfer cost of `contribs` by mesh axis: on
/// return `xs[c] = Σ bytes · |col(src) − c|` and
/// `ys[r] = Σ bytes · |row(src) − r|`. Hops are `|dx| + |dy|`, so the cost
/// of pulling every contribution to engine `e` is exactly
/// `xs[col(e)] + ys[row(e)]`. The bytes are first bucketed per column and
/// per row, then each histogram is folded into its distance sums in place:
/// O(sources + cols + rows) instead of one pass over both axes per source.
fn axis_costs(mesh: &MeshConfig, contribs: &[(usize, u64)], xs: &mut Vec<u64>, ys: &mut Vec<u64>) {
    xs.clear();
    xs.resize(mesh.cols, 0);
    ys.clear();
    ys.resize(mesh.rows, 0);
    for &(src, bytes) in contribs {
        let at = mesh.coord(src);
        xs[at.x] += bytes;
        ys[at.y] += bytes;
    }
    fold_distances(xs);
    fold_distances(ys);
}

/// Turns a byte histogram over one mesh axis into distance sums in place:
/// on return `h[c] = Σ_k h_in[k] · |k − c|`. Stepping from `c` to `c + 1`
/// moves every byte at or before `c` one hop farther and every byte after
/// it one hop nearer, so `X[c + 1] = X[c] + 2 · W(≤ c) − W` with `W` the
/// total. Every term is an exact integer, so the sums equal the per-source
/// products summed directly.
fn fold_distances(h: &mut [u64]) {
    let total: u64 = h.iter().sum();
    let mut x: u64 = h.iter().enumerate().map(|(k, &b)| k as u64 * b).sum();
    let mut upto = 0u64;
    for slot in h.iter_mut() {
        let bytes = *slot;
        *slot = x;
        upto += bytes;
        x = x + 2 * upto - total;
    }
}

/// All permutations of `0..m` in lexicographic order (Heap's algorithm not
/// needed at `m ≤ 5`).
fn permutations(m: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = Vec::with_capacity(m);
    let mut used = vec![false; m];
    fn rec(m: usize, cur: &mut Vec<usize>, used: &mut [bool], out: &mut Vec<Vec<usize>>) {
        if cur.len() == m {
            out.push(cur.clone());
            return;
        }
        for i in 0..m {
            if !used[i] {
                used[i] = true;
                cur.push(i);
                rec(m, cur, used, out);
                cur.pop();
                used[i] = false;
            }
        }
    }
    rec(m, &mut cur, &mut used, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomSpec;
    use dnn_graph::models;
    use engine_model::{Dataflow, EngineConfig};

    /// The per-axis loop `axis_costs` replaced: one pass over every column
    /// and every row per source.
    fn reference_axis_costs(
        mesh: &MeshConfig,
        contribs: &[(usize, u64)],
        xs: &mut Vec<u64>,
        ys: &mut Vec<u64>,
    ) {
        xs.clear();
        xs.resize(mesh.cols, 0);
        ys.clear();
        ys.resize(mesh.rows, 0);
        for &(src, bytes) in contribs {
            let at = mesh.coord(src);
            for (c, x) in xs.iter_mut().enumerate() {
                *x += at.x.abs_diff(c) as u64 * bytes;
            }
            for (r, y) in ys.iter_mut().enumerate() {
                *y += at.y.abs_diff(r) as u64 * bytes;
            }
        }
    }

    /// The engine scan `cheapest_free_engine` replaced: one
    /// `MeshConfig::hops` evaluation per (source, engine) pair.
    pub(super) fn reference_cheapest_free_engine(m: &Mapper, s: &MapScratch) -> Option<usize> {
        (0..m.mesh.engines())
            .filter(|&e| !s.used[e] && m.alive[e])
            .min_by_key(|&e| {
                let cost: u64 = s
                    .contribs
                    .iter()
                    .map(|&(src, b)| m.mesh.hops(src, e) * b)
                    .sum();
                (cost, m.zig_rank[e])
            })
    }

    fn dag() -> AtomicDag {
        let g = models::tiny_branchy();
        let specs: Vec<AtomSpec> = g
            .layers()
            .map(|l| {
                AtomSpec {
                    th: 8,
                    tw: 8,
                    tc: 1 << 20,
                }
                .clamped(l.out_shape())
            })
            .collect();
        AtomicDag::build(
            &g,
            &specs,
            1,
            &EngineConfig::paper_default(),
            Dataflow::KcPartition,
        )
    }

    #[test]
    fn permutation_count() {
        assert_eq!(permutations(1).len(), 1);
        assert_eq!(permutations(3).len(), 6);
        assert_eq!(permutations(5).len(), 120);
        // Lexicographically first and last.
        assert_eq!(permutations(3)[0], vec![0, 1, 2]);
        assert_eq!(permutations(3)[5], vec![2, 1, 0]);
    }

    #[test]
    fn assignments_are_unique_engines() {
        let d = dag();
        let mesh = MeshConfig::grid(4, 4);
        let mut m = Mapper::new(mesh, MappingConfig::default());
        // Take the first 8 roots as a synthetic round.
        let round: Vec<AtomId> = (0..ad_util::cast::u32_from_usize(d.atom_count()))
            .map(AtomId)
            .filter(|a| d.preds(*a).is_empty())
            .take(8)
            .collect();
        let asg = m.map_round(&d, &round).unwrap();
        assert_eq!(asg.len(), round.len());
        let engines: std::collections::BTreeSet<usize> = asg.iter().map(|(_, e)| *e).collect();
        assert_eq!(engines.len(), asg.len(), "engines must be distinct");
    }

    #[test]
    fn optimized_choice_no_worse_than_identity_per_round() {
        let d = dag();
        let mesh = MeshConfig::grid(4, 4);
        let sched =
            crate::scheduler::Scheduler::new(&d, crate::scheduler::SchedulerConfig::greedy(8))
                .schedule()
                .unwrap();

        let mut mapper = Mapper::new(
            mesh,
            MappingConfig {
                algo: MappingAlgo::LayerPermutation,
                max_permutation_layers: 5,
            },
        );
        mapper.ensure_tables(&d);
        for round in &sched.rounds {
            // Identity cost with the *same* pre-round state.
            let mut order: Vec<(u16, u32)> = Vec::new();
            let mut groups: Vec<Vec<AtomId>> = Vec::new();
            for &a in round.iter() {
                let atom = d.atom(a);
                let key = (atom.batch, atom.layer.0);
                let gi = match order.iter().position(|k| *k == key) {
                    Some(gi) => gi,
                    None => {
                        order.push(key);
                        groups.push(Vec::new());
                        order.len() - 1
                    }
                };
                groups[gi].push(a);
            }
            let identity: Vec<usize> = (0..order.len()).collect();
            let id_cost = mapper.transfer_cost(&d, &mapper.place(&groups, &identity).unwrap());

            // The committed (optimized) choice, evaluated pre-commit.
            let mut probe = mapper.clone();
            let chosen = probe.map_round(&d, round).unwrap();
            let chosen_cost = mapper.transfer_cost(&d, &chosen);
            assert!(
                chosen_cost <= id_cost,
                "round cost {chosen_cost} > identity {id_cost}"
            );
            mapper.map_round(&d, round).unwrap(); // commit for the next iteration
        }
    }

    #[test]
    fn placements_are_pinned_for_all_algorithms() {
        // Golden regression guard for the scratch-reusing mapper: the exact
        // placements of a fixed greedy schedule are pinned per algorithm, so
        // any refactor that perturbs tie-breaks, iteration order, or scratch
        // reset between rounds shows up as a hash diff here.
        let d = dag();
        let sched =
            crate::scheduler::Scheduler::new(&d, crate::scheduler::SchedulerConfig::greedy(8))
                .schedule()
                .unwrap();
        let fnv = |pairs: &[(AtomId, usize)], h: &mut u64| {
            for (a, e) in pairs {
                for v in [u64::from(a.0), u64::from(ad_util::cast::u32_from_usize(*e))] {
                    *h = (*h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        };
        let mut got = Vec::new();
        for algo in [
            MappingAlgo::ZigzagIdentity,
            MappingAlgo::Affinity,
            MappingAlgo::LayerPermutation,
        ] {
            let mut m = Mapper::new(
                MeshConfig::grid(4, 4),
                MappingConfig {
                    algo,
                    max_permutation_layers: 5,
                },
            );
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for round in &sched.rounds {
                fnv(&m.map_round(&d, round).unwrap(), &mut h);
            }
            got.push(h);
        }
        // Zigzag and permutation coincide here: on this DAG the permutation
        // search settles on the identity group order every round.
        assert_eq!(
            got,
            [
                0x0249_235e_2833_7324,
                0xf78b_7845_5fca_6538,
                0x0249_235e_2833_7324
            ],
            "placements changed (zigzag, affinity, permutation)"
        );
    }

    #[test]
    fn residency_tracks_mapped_engine() {
        let d = dag();
        let mut m = Mapper::new(MeshConfig::grid(4, 4), MappingConfig::default());
        let roots: Vec<AtomId> = (0..ad_util::cast::u32_from_usize(d.atom_count()))
            .map(AtomId)
            .filter(|a| d.preds(*a).is_empty())
            .take(3)
            .collect();
        let asg = m.map_round(&d, &roots).unwrap();
        for (a, e) in asg {
            assert_eq!(m.residency(a), Some(e));
        }
    }

    #[test]
    fn non_optimizing_mapper_uses_identity_order() {
        let d = dag();
        let mesh = MeshConfig::grid(4, 4);
        let round: Vec<AtomId> = (0..ad_util::cast::u32_from_usize(d.atom_count()))
            .map(AtomId)
            .filter(|a| d.preds(*a).is_empty())
            .take(6)
            .collect();
        let mut base = Mapper::new(
            mesh,
            MappingConfig {
                algo: MappingAlgo::ZigzagIdentity,
                max_permutation_layers: 5,
            },
        );
        let asg = base.map_round(&d, &round).unwrap();
        // Identity order = atoms placed along the zig-zag in round order.
        let zig = mesh.zigzag_order();
        for (i, (a, e)) in asg.iter().enumerate() {
            assert_eq!(*a, round[i]);
            assert_eq!(*e, zig[i]);
        }
    }

    #[test]
    fn affinity_places_consumer_on_producer_engine() {
        let d = dag();
        let mesh = MeshConfig::grid(4, 4);
        let mut m = Mapper::new(mesh, MappingConfig::default());
        // Find a producer/consumer pair where the consumer has a dominant
        // producer, map the producer alone, then the consumer alone.
        let consumer = (0..ad_util::cast::u32_from_usize(d.atom_count()))
            .map(AtomId)
            .find(|a| d.preds(*a).len() == 1)
            .expect("some single-pred atom exists");
        let (producer, _) = d.preds(consumer).iter().next().expect("one producer");
        // Producer itself must be a root for this synthetic two-round map.
        if d.preds(producer).is_empty() {
            let pa = m.map_round(&d, &[producer]).unwrap();
            let ca = m.map_round(&d, &[consumer]).unwrap();
            assert_eq!(
                pa[0].1, ca[0].1,
                "consumer should co-locate with its producer"
            );
        }
    }

    #[test]
    fn dead_engines_receive_no_atoms() {
        let d = dag();
        let mesh = MeshConfig::grid(2, 2);
        for algo in [MappingAlgo::Affinity, MappingAlgo::LayerPermutation] {
            let mut m = Mapper::new(
                mesh,
                MappingConfig {
                    algo,
                    max_permutation_layers: 5,
                },
            );
            m.kill_engine(0);
            m.kill_engine(3);
            assert_eq!(m.alive_engines(), 2);
            let round: Vec<AtomId> = (0..ad_util::cast::u32_from_usize(d.atom_count()))
                .map(AtomId)
                .filter(|a| d.preds(*a).is_empty())
                .take(2)
                .collect();
            let asg = m.map_round(&d, &round).unwrap();
            assert_eq!(asg.len(), 2);
            for (_, e) in &asg {
                assert!(
                    *e == 1 || *e == 2,
                    "atom mapped to dead engine {e} ({algo:?})"
                );
            }
            // A 3-atom round no longer fits the 2 survivors.
            let big: Vec<AtomId> = (0..3).map(AtomId).collect();
            assert_eq!(
                m.map_round(&d, &big),
                Err(MappingError::RoundTooLarge {
                    round_len: 3,
                    engines: 2
                })
            );
        }
    }

    #[test]
    fn kill_engine_drops_residency_hints() {
        let d = dag();
        let mut m = Mapper::new(MeshConfig::grid(2, 2), MappingConfig::default());
        let root = (0..ad_util::cast::u32_from_usize(d.atom_count()))
            .map(AtomId)
            .find(|a| d.preds(*a).is_empty())
            .unwrap();
        let asg = m.map_round(&d, &[root]).unwrap();
        let engine = asg[0].1;
        assert_eq!(m.residency(root), Some(engine));
        m.kill_engine(engine);
        assert_eq!(m.residency(root), None);
    }

    #[test]
    fn oversize_round_is_a_typed_error() {
        let d = dag();
        let mesh = MeshConfig::grid(2, 2);
        let mut m = Mapper::new(mesh, MappingConfig::default());
        let round: Vec<AtomId> = (0..5).map(AtomId).collect();
        assert_eq!(
            m.map_round(&d, &round),
            Err(MappingError::RoundTooLarge {
                round_len: 5,
                engines: 4
            })
        );
        let msg = MappingError::RoundTooLarge {
            round_len: 5,
            engines: 4,
        }
        .to_string();
        assert!(msg.contains('5') && msg.contains('4'), "{msg}");
    }

    #[test]
    fn axis_sums_equal_hop_weighted_sums_on_every_engine() {
        let mut rng = ad_util::Rng64::new(0x00A1_5C05);
        let (mut xs, mut ys) = (Vec::new(), Vec::new());
        for (cols, rows) in [(1, 1), (1, 9), (9, 1), (3, 5), (8, 8), (16, 16)] {
            let mesh = MeshConfig::grid(cols, rows);
            for _ in 0..40 {
                let contribs: Vec<(usize, u64)> = (0..rng.below(12))
                    .map(|_| (rng.below(mesh.engines()), rng.below_u64(1 << 32)))
                    .collect();
                axis_costs(&mesh, &contribs, &mut xs, &mut ys);
                for e in 0..mesh.engines() {
                    let want: u64 = contribs.iter().map(|&(src, b)| mesh.hops(src, e) * b).sum();
                    assert_eq!(
                        xs[e % cols] + ys[e / cols],
                        want,
                        "{cols}x{rows} mesh, engine {e}, sources {contribs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn histogram_axis_sums_equal_the_per_source_loop() {
        let mut rng = ad_util::Rng64::new(0x0415_7061);
        let (mut xs, mut ys, mut want_xs, mut want_ys) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        let meshes = (1..=16)
            .map(|k| MeshConfig::grid(k, k))
            .chain([MeshConfig::grid(3, 5), MeshConfig::grid(5, 3)]);
        for mesh in meshes {
            for case in 0..60 {
                // Every fourth case draws its sources from two engines, so
                // one bucket collects several contributions.
                let span = if case % 4 == 0 {
                    2.min(mesh.engines())
                } else {
                    mesh.engines()
                };
                let contribs: Vec<(usize, u64)> = (0..rng.below(48))
                    .map(|_| (rng.below(span), rng.below_u64(1 << 32)))
                    .collect();
                axis_costs(&mesh, &contribs, &mut xs, &mut ys);
                reference_axis_costs(&mesh, &contribs, &mut want_xs, &mut want_ys);
                assert_eq!(
                    (&xs, &ys),
                    (&want_xs, &want_ys),
                    "{mesh:?}, sources {contribs:?}"
                );
            }
        }
    }

    /// Maps `rounds` with the per-axis mapper and with the reference hop
    /// scan, then patches the mapped rounds onto a mesh with `dead` engines
    /// retired the same two ways, demanding identical placements
    /// round by round.
    fn assert_matches_reference_scan(
        d: &AtomicDag,
        rounds: &[Vec<AtomId>],
        mesh: MeshConfig,
        dead: &[usize],
    ) {
        let mapper = |reference_scan: bool| {
            let mut m = Mapper::new(mesh, MappingConfig::default());
            m.reference_scan = reference_scan;
            for &e in dead {
                m.kill_engine(e);
            }
            m
        };
        let (mut fast, mut slow) = (mapper(false), mapper(true));
        let mut mapped = Vec::with_capacity(rounds.len());
        for (r, round) in rounds.iter().enumerate() {
            let got = fast.map_round(d, round).unwrap();
            assert_eq!(got, slow.map_round(d, round).unwrap(), "map_round {r}");
            mapped.push(got);
        }
        // Patch the healthy-mesh placement onto the survivors: atoms on a
        // dead engine are orphans the affinity scan re-places.
        let (mut fast, mut slow) = (mapper(false), mapper(true));
        for (r, round) in mapped.iter().enumerate() {
            let got = fast.patch_round(d, round).unwrap();
            assert_eq!(got, slow.patch_round(d, round).unwrap(), "patch_round {r}");
        }
    }

    #[test]
    fn per_axis_mapper_places_exactly_what_the_hop_scan_places() {
        let d = dag();
        let sched =
            crate::scheduler::Scheduler::new(&d, crate::scheduler::SchedulerConfig::greedy(12))
                .schedule()
                .unwrap();
        for mesh in [MeshConfig::grid(4, 4), MeshConfig::grid(5, 3)] {
            assert_matches_reference_scan(&d, &sched.rounds, mesh, &[]);
            assert_matches_reference_scan(&d, &sched.rounds, mesh, &[0, 6]);
        }

        let g = models::resnet50();
        let specs: Vec<AtomSpec> = g
            .layers()
            .map(|l| {
                AtomSpec {
                    th: 7,
                    tw: 7,
                    tc: 64,
                }
                .clamped(l.out_shape())
            })
            .collect();
        let engine = EngineConfig::paper_default();
        let d = AtomicDag::build(&g, &specs, 1, &engine, Dataflow::KcPartition);
        let sched =
            crate::scheduler::Scheduler::new(&d, crate::scheduler::SchedulerConfig::greedy(60))
                .schedule()
                .unwrap();
        let mesh = MeshConfig::paper_default();
        assert_matches_reference_scan(&d, &sched.rounds, mesh, &[]);
        assert_matches_reference_scan(&d, &sched.rounds, mesh, &[9, 27, 63]);
    }
}
