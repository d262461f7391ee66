//! Atomic DAG construction (paper Sec. III, eq. `G = (Vertex, Edge)`).
//!
//! Given a layer graph, a per-layer [`AtomSpec`] and a batch size, this
//! module materializes every atom (`Atom_{l,x,(b)}`), derives the exact
//! atom-level data dependencies from receptive-field overlap, and attaches
//! external operands (weight slices and network-input regions, which
//! originate in DRAM). All samples of a batch are gathered in one unified
//! DAG — `#Batch` identical sub-DAGs sharing weight data — exactly as the
//! paper's framework does.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use accel_sim::{DataId, Task, TaskId, TaskTable};
use ad_util::cast::{u16_from_usize, u32_from_usize};
use dnn_graph::{Graph, LayerId, OpKind, BYTES_PER_ELEM};
use engine_model::{Dataflow, EngineConfig};

use crate::atom::{atom_cost, input_window, AtomCoords, AtomCost, AtomSpec, Range};

/// Shared cost-oracle cache: [`atom_cost`] is a pure function of
/// `(layer, extent, engine, dataflow)`, so candidate pipelines evaluating
/// the same workload at different granularity scales can intern each
/// extent's cost once instead of recomputing it per candidate. Keys are
/// `(layer, h_len, w_len, c_len)`; the engine/dataflow pair is fixed by the
/// optimization run that owns the interner. Safe to share across the
/// candidate-search worker threads: a hit returns exactly what a
/// recomputation would, so the fill order cannot influence any result.
#[derive(Debug, Default)]
pub struct CostInterner {
    cache: Mutex<BTreeMap<(u32, usize, usize, usize), AtomCost>>,
}

impl CostInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up `key`, computing and interning it via `compute` on a miss.
    fn get_or_insert(
        &self,
        key: (u32, usize, usize, usize),
        compute: impl FnOnce() -> AtomCost,
    ) -> AtomCost {
        // A poisoned mutex means a candidate thread panicked mid-insert;
        // the map holds only fully-inserted pure values, so it stays usable.
        let mut cache = match self.cache.lock() {
            Ok(c) => c,
            Err(poisoned) => poisoned.into_inner(),
        };
        *cache.entry(key).or_insert_with(compute)
    }
}

/// Identifier of an atom within its [`AtomicDag`] (dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomId(pub u32);

impl AtomId {
    /// The id as an index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One atom: a partition of one layer's output for one batch sample.
#[derive(Debug, Clone)]
pub struct Atom {
    /// Source layer.
    pub layer: LayerId,
    /// Batch sample this atom belongs to.
    pub batch: u16,
    /// Output-space coordinates.
    pub coords: AtomCoords,
    /// Cost-oracle result for this atom.
    pub cost: AtomCost,
}

/// Encodes the DRAM-resident datum holding a layer's weight slice for one
/// output-channel tile. Shared across batch samples and spatial tiles.
pub fn weight_data_id(layer: LayerId, c_tile: usize) -> DataId {
    DataId((layer.0 as u64) << 32 | c_tile as u64)
}

/// Encodes the DRAM-resident datum holding a region of a network input.
pub fn input_data_id(batch: u16, layer: LayerId, h_start: usize, w_start: usize) -> DataId {
    DataId(
        (1u64 << 62)
            | (batch as u64) << 48
            | (layer.0 as u64) << 28
            | (h_start as u64) << 14
            | w_start as u64,
    )
}

/// Per-atom lists stored as compressed sparse rows: atom `i`'s list is
/// `items[offsets[i]..offsets[i + 1]]`, all lists in one flat array.
#[derive(Debug, Clone)]
struct Csr<T> {
    offsets: Vec<u32>,
    items: Vec<T>,
}

impl<T> Csr<T> {
    /// An empty table with room for exactly `rows` rows of `items` items
    /// in total.
    fn with_capacity(rows: usize, items: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Self {
            offsets,
            items: Vec::with_capacity(items),
        }
    }

    /// Appends `item` to the row being filled.
    fn push(&mut self, item: T) {
        self.items.push(item);
    }

    /// Closes the row being filled; the next `push` starts the next row.
    fn end_row(&mut self) {
        self.offsets.push(u32_from_usize(self.items.len()));
    }

    fn row(&self, i: usize) -> &[T] {
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// The producers of one atom with the bytes read of each: the producer
/// prefix of the atom's operand row in its DAG's [`TaskTable`].
#[derive(Debug, Clone, Copy)]
pub struct Preds<'a> {
    ids: &'a [u32],
    bytes: &'a [u64],
}

/// Iterator over a [`Preds`] view.
pub type PredsIter<'a> = std::iter::Zip<
    std::iter::Map<std::slice::Iter<'a, u32>, fn(&u32) -> AtomId>,
    std::iter::Copied<std::slice::Iter<'a, u64>>,
>;

impl<'a> Preds<'a> {
    /// Number of producer edges.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the atom reads no other atom.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// `(producer, bytes)` pairs in edge order.
    pub fn iter(&self) -> PredsIter<'a> {
        let id: fn(&u32) -> AtomId = |&p| AtomId(p);
        self.ids.iter().map(id).zip(self.bytes.iter().copied())
    }
}

impl<'a> IntoIterator for Preds<'a> {
    type Item = (AtomId, u64);
    type IntoIter = PredsIter<'a>;

    fn into_iter(self) -> PredsIter<'a> {
        self.iter()
    }
}

/// Largest batch an [`AtomicDag`] can hold: an atom's batch sample is a
/// `u16`.
pub const MAX_BATCH: usize = u16::MAX as usize;

/// The atomic computation DAG of one workload at one batch size.
#[derive(Debug, Clone)]
pub struct AtomicDag {
    atoms: Vec<Atom>,
    /// Consumers of each atom in ascending id order.
    succs: Csr<AtomId>,
    /// Weight externals of each atom in *dense slot space*: weight slices
    /// are interned at build time into slots `0..weight_slot_count`, so
    /// per-slot state (e.g. the mapper's weight-home table) can live in a
    /// flat `Vec` instead of a map keyed by the sparse [`DataId`] encoding.
    weight_exts: Csr<(u32, u64)>,
    weight_slot_count: usize,
    /// Atom ids per `(batch, layer)`, indexed `batch * layers + layer`.
    layer_atoms: Vec<Vec<AtomId>>,
    layer_count: usize,
    batch: usize,
    /// Longest-path depth of each layer (from the layer graph).
    layer_depths: Vec<usize>,
    /// The simulator tasks of every atom (task id = atom id), built once
    /// with the DAG and shared by its clones and every lowered plan. Its
    /// operand rows are the only stored copy of the DAG's producer edges
    /// and external operands: each atom's row lists its producers (slot =
    /// atom id), then its externals (slot = atom count + rank of the
    /// [`DataId`] among the table's sorted external ids).
    tasks: Arc<TaskTable>,
}

impl AtomicDag {
    /// Builds the atomic DAG for `graph` under per-layer tiling `specs`
    /// (indexed by layer id; specs for `Input` layers are ignored) with
    /// `batch` samples, using the cost oracle at (`engine`, `dataflow`).
    ///
    /// # Panics
    ///
    /// Panics if `specs.len() != graph.layer_count()` or `batch` is outside
    /// `1..=`[`MAX_BATCH`].
    pub fn build(
        graph: &Graph,
        specs: &[AtomSpec],
        batch: usize,
        engine: &EngineConfig,
        dataflow: Dataflow,
    ) -> Self {
        Self::build_interned(graph, specs, batch, engine, dataflow, &CostInterner::new())
    }

    /// [`AtomicDag::build`] with a shared [`CostInterner`]: candidate
    /// pipelines exploring different granularity scales of the same
    /// workload reuse each other's per-extent cost-oracle results.
    ///
    /// # Panics
    ///
    /// Panics if `specs.len() != graph.layer_count()` or `batch` is outside
    /// `1..=`[`MAX_BATCH`].
    pub fn build_interned(
        graph: &Graph,
        specs: &[AtomSpec],
        batch: usize,
        engine: &EngineConfig,
        dataflow: Dataflow,
        interner: &CostInterner,
    ) -> Self {
        assert_eq!(
            specs.len(),
            graph.layer_count(),
            "one AtomSpec per layer required"
        );
        assert!(batch > 0, "batch must be at least 1");
        let nl = graph.layer_count();

        let mut dag = AtomicDag {
            atoms: Vec::new(),
            succs: Csr::with_capacity(0, 0),
            weight_exts: Csr::with_capacity(0, 0),
            weight_slot_count: 0,
            layer_atoms: vec![Vec::new(); nl * batch],
            layer_count: nl,
            batch,
            layer_depths: graph.depths(),
            tasks: Arc::default(),
        };

        // Per-layer tile grids (shared across batch samples).
        let mut grids: Vec<Vec<AtomCoords>> = Vec::with_capacity(nl);
        let mut grid_dims: Vec<(usize, usize, usize)> = Vec::with_capacity(nl);
        for layer in graph.layers() {
            if layer.op().is_input() {
                grids.push(Vec::new());
                grid_dims.push((0, 0, 0));
                continue;
            }
            let out = layer.out_shape();
            let spec = specs[layer.id().index()].clamped(out);
            grids.push(spec.tiles(out));
            grid_dims.push((
                out.h.div_ceil(spec.th),
                out.w.div_ceil(spec.tw),
                out.c.div_ceil(spec.tc),
            ));
        }

        // Dense weight slots: layer `l`'s output-channel tile `t` is slot
        // `weight_slot_base[l] + t`. Derived from the (batch-independent)
        // tile grids, so the slot space is fixed before any atom exists.
        let mut weight_slot_base: Vec<usize> = Vec::with_capacity(nl);
        let mut next_slot = 0usize;
        for (_, _, nc) in &grid_dims {
            weight_slot_base.push(next_slot);
            next_slot += nc;
        }
        dag.weight_slot_count = next_slot;

        // Cost cache: tiles of equal extent share a cost. Keys are dense in
        // the layer id, so the cache is a per-layer `Vec` of the few edge
        // extents each grid produces (interior tiles all share one entry);
        // genuinely new extents fall through to the shared interner.
        type CachedTileCost = ((usize, usize, usize), AtomCost);
        let mut cost_cache: Vec<Vec<CachedTileCost>> = vec![Vec::new(); nl];

        for b in 0..u16_from_usize(batch) {
            for layer in graph.layers() {
                if layer.op().is_input() {
                    continue;
                }
                let lid = layer.id();
                let grid = &grids[lid.index()];
                let layer_cache = &mut cost_cache[lid.index()];
                for coords in grid {
                    let extent = (coords.h.len(), coords.w.len(), coords.c.len());
                    let cost = match layer_cache.iter().find(|(e, _)| *e == extent) {
                        Some((_, c)) => *c,
                        None => {
                            let c = interner
                                .get_or_insert((lid.0, extent.0, extent.1, extent.2), || {
                                    atom_cost(layer, coords, engine, dataflow)
                                });
                            layer_cache.push((extent, c));
                            c
                        }
                    };
                    let id = AtomId(u32_from_usize(dag.atoms.len()));
                    dag.atoms.push(Atom {
                        layer: lid,
                        batch: b,
                        coords: *coords,
                        cost,
                    });
                    dag.layer_atoms[b as usize * nl + lid.index()].push(id);
                }
            }
        }

        // Size the operand rows exactly before filling them: one weight
        // slice per atom with weights, one external per network-input
        // region read, and one edge per overlapping producer tile (a tile in
        // the overlap ranges always shares at least one element). The same
        // pass collects every external id, so each external's slot is known
        // before any row is written.
        let (mut n_preds, mut n_externals, mut n_weights) = (0, 0, 0);
        let mut ext_ids: Vec<DataId> = Vec::new();
        for atom in &dag.atoms {
            let layer = graph.layer(atom.layer);
            if atom.cost.weight_bytes > 0 {
                let tc = specs[atom.layer.index()].clamped(layer.out_shape()).tc;
                ext_ids.push(weight_data_id(atom.layer, atom.coords.c.start / tc));
                n_externals += 1;
                n_weights += 1;
            }
            for (pi, pid) in graph.preds(atom.layer).iter().enumerate() {
                let Some(needed) = needed_region(graph, atom.layer, pi, &atom.coords) else {
                    continue;
                };
                let producer = graph.layer(*pid);
                if producer.op().is_input() {
                    ext_ids.push(input_data_id(
                        atom.batch,
                        *pid,
                        needed.h.start,
                        needed.w.start,
                    ));
                    n_externals += 1;
                    continue;
                }
                let spec = specs[pid.index()].clamped(producer.out_shape());
                let tiles = overlapping_tiles(&needed, spec, grid_dims[pid.index()]);
                n_preds += tiles.iter().map(ExactSizeIterator::len).product::<usize>();
            }
        }
        ext_ids.sort_unstable();
        ext_ids.dedup();
        ext_ids.shrink_to_fit();

        // Operand rows. Atoms are visited in the order their ids were
        // assigned above, so each atom's row appends in place: its
        // producers in edge order, then its externals (weight slice first,
        // then input regions in producer order).
        let n_atoms = dag.atoms.len();
        let ext_slot =
            |id: DataId| u32_from_usize(n_atoms + ext_ids.binary_search(&id).unwrap_or(0));
        // `fan_out[p + 1]`: edges naming producer `p`, for `consumers`.
        let mut fan_out = vec![0u32; n_atoms + 1];
        let n_operands = n_preds + n_externals;
        let mut in_off = Vec::with_capacity(n_atoms + 1);
        in_off.push(0);
        let mut in_slot = Vec::with_capacity(n_operands);
        let mut in_bytes = Vec::with_capacity(n_operands);
        let mut weight_exts = Csr::with_capacity(n_atoms, n_weights);
        let mut row_externals: Vec<(u32, u64)> = Vec::new();
        for b in 0..u16_from_usize(batch) {
            for layer in graph.layers() {
                if layer.op().is_input() {
                    continue;
                }
                let lid = layer.id();
                for &aid in &dag.layer_atoms[b as usize * nl + lid.index()] {
                    debug_assert_eq!(in_off.len(), aid.index() + 1);
                    let coords = dag.atoms[aid.index()].coords;
                    row_externals.clear();

                    // Weights: one external slice per output-channel tile.
                    let wb = dag.atoms[aid.index()].cost.weight_bytes;
                    if wb > 0 {
                        let tc = specs[lid.index()].clamped(layer.out_shape()).tc;
                        let c_tile = coords.c.start / tc;
                        row_externals.push((ext_slot(weight_data_id(lid, c_tile)), wb));
                        let slot = weight_slot_base[lid.index()] + c_tile;
                        weight_exts.push((u32_from_usize(slot), wb));
                    }

                    // Data dependencies on each producer.
                    for (pi, pid) in graph.preds(lid).iter().enumerate() {
                        let producer = graph.layer(*pid);
                        let needed = needed_region(graph, lid, pi, &coords);
                        let Some(needed) = needed else { continue };

                        if producer.op().is_input() {
                            let bytes = needed.elements() * BYTES_PER_ELEM;
                            let id = input_data_id(b, *pid, needed.h.start, needed.w.start);
                            row_externals.push((ext_slot(id), bytes));
                            continue;
                        }

                        // Overlapping producer tiles via grid arithmetic.
                        let (_, nw, nc) = grid_dims[pid.index()];
                        let spec = specs[pid.index()].clamped(producer.out_shape());
                        let p_atoms = &dag.layer_atoms[b as usize * nl + pid.index()];
                        let [hs, ws, cs] = overlapping_tiles(&needed, spec, grid_dims[pid.index()]);
                        for ih in hs {
                            for iw in ws.clone() {
                                for ic in cs.clone() {
                                    let idx = ih * nw * nc + iw * nc + ic;
                                    let paid = p_atoms[idx];
                                    let pcoords = dag.atoms[paid.index()].coords;
                                    let bytes = needed.overlap_elements(&pcoords) * BYTES_PER_ELEM;
                                    if bytes > 0 {
                                        in_slot.push(paid.0);
                                        in_bytes.push(bytes);
                                        fan_out[paid.index() + 1] += 1;
                                    }
                                }
                            }
                        }
                    }
                    for &(slot, bytes) in &row_externals {
                        in_slot.push(slot);
                        in_bytes.push(bytes);
                    }
                    in_off.push(in_slot.len());
                    weight_exts.end_row();
                }
            }
        }
        debug_assert_eq!(
            (in_slot.len(), weight_exts.items.len()),
            (n_operands, n_weights)
        );
        dag.succs = consumers(&in_off, &in_slot, fan_out);
        dag.weight_exts = weight_exts;

        let tasks = dag
            .atoms
            .iter()
            .map(|atom| {
                Task::compute(atom.cost.cycles, atom.cost.macs, atom.cost.output_bytes)
                    .with_tag(atom.layer.0)
                    .with_energy_pj(atom.cost.energy_pj)
            })
            .collect();
        dag.tasks = Arc::new(TaskTable::from_rows(
            tasks, in_off, in_slot, in_bytes, ext_ids,
        ));
        dag
    }

    /// The simulator tasks of every atom, indexed by atom id (see
    /// [`crate::lower_remaining`]).
    pub fn task_table(&self) -> &Arc<TaskTable> {
        &self.tasks
    }

    /// All atoms, indexed by [`AtomId`].
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The atom with the given id.
    pub fn atom(&self, id: AtomId) -> &Atom {
        &self.atoms[id.index()]
    }

    /// Number of atoms.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Batch size the DAG was built for.
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// Number of layers in the source graph.
    pub fn layer_count(&self) -> usize {
        self.layer_count
    }

    /// An atom's operand row (slots and bytes) and the length of its
    /// producer prefix: producer slots are atom ids, below the atom count.
    fn row(&self, id: AtomId) -> (usize, &[u32], &[u64]) {
        let slots = self.tasks.operand_slots(TaskId(id.0));
        let split = slots.partition_point(|&s| (s as usize) < self.atoms.len());
        (split, slots, self.tasks.operand_bytes(TaskId(id.0)))
    }

    /// Producers of an atom, with the bytes consumed from each.
    pub fn preds(&self, id: AtomId) -> Preds<'_> {
        let (split, slots, bytes) = self.row(id);
        Preds {
            ids: &slots[..split],
            bytes: &bytes[..split],
        }
    }

    /// Consumers of an atom, in ascending id order.
    pub fn succs(&self, id: AtomId) -> &[AtomId] {
        self.succs.row(id.index())
    }

    /// External operands (weights / network input) of an atom: the
    /// weight slice first, then the input regions in producer order.
    pub fn externals(&self, id: AtomId) -> impl ExactSizeIterator<Item = (DataId, u64)> + '_ {
        let (split, slots, bytes) = self.row(id);
        let ids = self.tasks.external_ids();
        let n = self.atoms.len();
        slots[split..]
            .iter()
            .zip(&bytes[split..])
            .map(move |(&s, &b)| (ids[s as usize - n], b))
    }

    /// Weight externals of an atom as dense `(slot, bytes)` pairs, in the
    /// order the weight operands appear in [`AtomicDag::externals`]. Slots
    /// index `0..self.weight_slot_count()`.
    pub fn weight_exts(&self, id: AtomId) -> &[(u32, u64)] {
        self.weight_exts.row(id.index())
    }

    /// Size of the dense weight-slot space (one slot per
    /// `(layer, output-channel tile)` pair of the build-time tile grids).
    pub fn weight_slot_count(&self) -> usize {
        self.weight_slot_count
    }

    /// Atoms of `layer` for batch sample `batch`.
    pub fn layer_atoms(&self, batch: usize, layer: LayerId) -> &[AtomId] {
        &self.layer_atoms[batch * self.layer_count + layer.index()]
    }

    /// Longest-path depth of an atom's layer.
    pub fn depth(&self, id: AtomId) -> usize {
        self.layer_depths[self.atom(id).layer.index()]
    }

    /// Longest-path depth of a layer.
    pub fn layer_depth(&self, layer: LayerId) -> usize {
        self.layer_depths[layer.index()]
    }

    /// Total MACs across all atoms.
    pub fn total_macs(&self) -> u64 {
        self.atoms.iter().map(|a| a.cost.macs).sum()
    }

    /// Total compute cycles across all atoms (serial sum).
    pub fn total_compute_cycles(&self) -> u64 {
        self.atoms.iter().map(|a| a.cost.cycles).sum()
    }

    /// Execution cycles of every *array* (CONV/FC) atom — the population the
    /// paper's Fig. 5(a) histograms and Alg. 1's variance objective use.
    pub fn array_atom_cycles(&self) -> Vec<u64> {
        self.atoms
            .iter()
            .filter(|a| a.cost.macs > 0)
            .map(|a| a.cost.cycles)
            .collect()
    }
}

/// The consumer lists of the operand rows `in_off`/`in_slot` (slots below
/// the atom count are producers), built by a stable counting sort of the
/// edges by producer: consumers are visited in ascending id order, so each
/// producer lists its consumers in ascending id order (a consumer reading
/// one producer twice appears twice). `offsets[p + 1]` holds the number of
/// edges naming producer `p` on entry (counted while the rows were
/// filled). Both arrays are sized exactly.
fn consumers(in_off: &[usize], in_slot: &[u32], mut offsets: Vec<u32>) -> Csr<AtomId> {
    let n = in_off.len() - 1;
    for i in 0..n {
        offsets[i + 1] += offsets[i];
    }
    let mut next: Vec<u32> = offsets[..n].to_vec();
    let mut items = vec![AtomId(0); offsets[n] as usize];
    for consumer in 0..n {
        for &p in &in_slot[in_off[consumer]..in_off[consumer + 1]] {
            // Slots past the atoms are externals.
            let Some(at) = next.get_mut(p as usize) else {
                continue;
            };
            items[*at as usize] = AtomId(u32_from_usize(consumer));
            *at += 1;
        }
    }
    Csr { offsets, items }
}

/// The tiles of a producer grid of `dims` tiles shaped `spec` that overlap
/// `needed`, as tile-index ranges along h, w and c.
fn overlapping_tiles(
    needed: &AtomCoords,
    spec: AtomSpec,
    dims: (usize, usize, usize),
) -> [std::ops::Range<usize>; 3] {
    let (nh, nw, nc) = dims;
    [
        needed.h.start / spec.th..((needed.h.end - 1) / spec.th).min(nh - 1) + 1,
        needed.w.start / spec.tw..((needed.w.end - 1) / spec.tw).min(nw - 1) + 1,
        needed.c.start / spec.tc..((needed.c.end - 1) / spec.tc).min(nc - 1) + 1,
    ]
}

/// The region of producer `pi`'s output that an atom of layer `lid` with
/// output `coords` must read, in the producer's coordinate space.
/// `None` when the consumer does not read this producer at all (possible for
/// concat tiles that fall entirely inside another producer's segment).
fn needed_region(
    graph: &Graph,
    lid: LayerId,
    pi: usize,
    coords: &AtomCoords,
) -> Option<AtomCoords> {
    let layer = graph.layer(lid);
    let producer = graph.layer(graph.preds(lid)[pi]);
    let pc = producer.out_shape().c;
    let (h, w) = input_window(layer, coords.h, coords.w);

    let c = match layer.op() {
        // Dense conv / FC / GAP read every input channel.
        OpKind::Conv(p) if p.groups == 1 => Range::new(0, pc),
        OpKind::Fc { .. } | OpKind::GlobalAvgPool => Range::new(0, pc),
        // Depthwise conv, pooling, activations, BN: channel-aligned.
        OpKind::Conv(_) | OpKind::Pool(_) | OpKind::Act(_) | OpKind::BatchNorm => coords.c,
        OpKind::Add => coords.c,
        OpKind::Concat => {
            // Producer pi owns channel segment [off, off + pc).
            let off: usize = graph.preds(lid)[..pi]
                .iter()
                .map(|p| graph.layer(*p).out_shape().c)
                .sum();
            let seg = Range::new(off, off + pc);
            let inter = coords.c.intersect(&seg)?;
            inter.shifted_down(off)
        }
        OpKind::ChannelScale => {
            if pi == 0 {
                coords.c // feature map, channel-aligned
            } else {
                // Gate vector: 1x1xC — the needed channels of the gate.
                return Some(AtomCoords {
                    h: Range::new(0, 1),
                    w: Range::new(0, 1),
                    c: coords.c,
                });
            }
        }
        OpKind::Input => return None,
    };
    Some(AtomCoords { h, w, c })
}

#[cfg(test)]
mod tests {
    use super::*;
    use accel_sim::Operand;
    use dnn_graph::{models, ConvParams, TensorShape};

    fn build(g: &Graph, spec: AtomSpec, batch: usize) -> AtomicDag {
        let specs: Vec<AtomSpec> = g
            .layers()
            .map(|l| {
                if l.op().is_input() {
                    spec
                } else {
                    spec.clamped(l.out_shape())
                }
            })
            .collect();
        AtomicDag::build(
            g,
            &specs,
            batch,
            &EngineConfig::paper_default(),
            Dataflow::KcPartition,
        )
    }

    /// Per-atom edge lists in the `Vec<Vec<_>>` layout the flat tables
    /// replaced: `(preds, succs, externals, weight_exts)`.
    type NestedEdges = (
        Vec<Vec<(AtomId, u64)>>,
        Vec<Vec<AtomId>>,
        Vec<Vec<(DataId, u64)>>,
        Vec<Vec<(u32, u64)>>,
    );

    /// The edge build the flat tables replaced, run over `dag`'s atoms:
    /// one vector per atom per table, consumers pushed as each edge is
    /// found.
    fn reference_edges(graph: &Graph, specs: &[AtomSpec], dag: &AtomicDag) -> NestedEdges {
        let nl = graph.layer_count();
        let n = dag.atom_count();
        let mut grid_dims = vec![(0, 0, 0); nl];
        let mut weight_slot_base = vec![0; nl];
        let mut next_slot = 0;
        for layer in graph.layers() {
            weight_slot_base[layer.id().index()] = next_slot;
            if layer.op().is_input() {
                continue;
            }
            let out = layer.out_shape();
            let spec = specs[layer.id().index()].clamped(out);
            let dims = (
                out.h.div_ceil(spec.th),
                out.w.div_ceil(spec.tw),
                out.c.div_ceil(spec.tc),
            );
            grid_dims[layer.id().index()] = dims;
            next_slot += dims.2;
        }
        let (mut preds, mut succs, mut externals, mut weight_exts): NestedEdges = (
            vec![Vec::new(); n],
            vec![Vec::new(); n],
            vec![Vec::new(); n],
            vec![Vec::new(); n],
        );
        for b in 0..u16_from_usize(dag.batch()) {
            for layer in graph.layers() {
                if layer.op().is_input() {
                    continue;
                }
                let lid = layer.id();
                for &aid in dag.layer_atoms(b as usize, lid) {
                    let coords = dag.atom(aid).coords;
                    let wb = dag.atom(aid).cost.weight_bytes;
                    if wb > 0 {
                        let tc = specs[lid.index()].clamped(layer.out_shape()).tc;
                        let c_tile = coords.c.start / tc;
                        externals[aid.index()].push((weight_data_id(lid, c_tile), wb));
                        let slot = weight_slot_base[lid.index()] + c_tile;
                        weight_exts[aid.index()].push((u32_from_usize(slot), wb));
                    }
                    for (pi, pid) in graph.preds(lid).iter().enumerate() {
                        let producer = graph.layer(*pid);
                        let Some(needed) = needed_region(graph, lid, pi, &coords) else {
                            continue;
                        };
                        if producer.op().is_input() {
                            let bytes = needed.elements() * BYTES_PER_ELEM;
                            externals[aid.index()].push((
                                input_data_id(b, *pid, needed.h.start, needed.w.start),
                                bytes,
                            ));
                            continue;
                        }
                        let (nh, nw, nc) = grid_dims[pid.index()];
                        let spec = specs[pid.index()].clamped(producer.out_shape());
                        let p_atoms = dag.layer_atoms(b as usize, *pid);
                        let ih1 = ((needed.h.end - 1) / spec.th).min(nh - 1);
                        let iw1 = ((needed.w.end - 1) / spec.tw).min(nw - 1);
                        let ic1 = ((needed.c.end - 1) / spec.tc).min(nc - 1);
                        for ih in needed.h.start / spec.th..=ih1 {
                            for iw in needed.w.start / spec.tw..=iw1 {
                                for ic in needed.c.start / spec.tc..=ic1 {
                                    let paid = p_atoms[ih * nw * nc + iw * nc + ic];
                                    let bytes = needed.overlap_elements(&dag.atom(paid).coords)
                                        * BYTES_PER_ELEM;
                                    if bytes > 0 {
                                        preds[aid.index()].push((paid, bytes));
                                        succs[paid.index()].push(aid);
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        (preds, succs, externals, weight_exts)
    }

    /// Runs `check` on `tiny_branchy` at two tilings and ResNet-50, each
    /// at batch 1 and 3, with the nested reference build of each DAG.
    fn for_each_reference_case(mut check: impl FnMut(&str, &AtomicDag, NestedEdges)) {
        let tiny = models::tiny_branchy();
        let resnet = models::resnet50();
        let tile = |th, tw, tc| AtomSpec { th, tw, tc };
        for (g, spec) in [
            (&tiny, tile(8, 8, 8)),
            (&tiny, tile(4, 8, 16)),
            (&resnet, tile(7, 7, 64)),
        ] {
            for batch in [1, 3] {
                let specs: Vec<AtomSpec> =
                    g.layers().map(|l| spec.clamped(l.out_shape())).collect();
                let dag = AtomicDag::build(
                    g,
                    &specs,
                    batch,
                    &EngineConfig::paper_default(),
                    Dataflow::KcPartition,
                );
                let reference = reference_edges(g, &specs, &dag);
                check(
                    &format!("{} batch {batch} {spec:?}", g.name()),
                    &dag,
                    reference,
                );
            }
        }
    }

    #[test]
    fn flat_edge_tables_equal_the_nested_reference_build() {
        for_each_reference_case(|case, dag, (preds, succs, externals, weight_exts)| {
            let mut edges = 0;
            for i in 0..dag.atom_count() {
                let id = AtomId(u32_from_usize(i));
                assert_eq!(
                    dag.preds(id).iter().collect::<Vec<_>>(),
                    preds[i],
                    "{case}: preds of {i}"
                );
                assert_eq!(dag.preds(id).len(), preds[i].len(), "{case}: {i}");
                assert_eq!(dag.succs(id), succs[i], "{case}: succs of {i}");
                assert_eq!(
                    dag.externals(id).collect::<Vec<_>>(),
                    externals[i],
                    "{case}: externals of {i}"
                );
                assert_eq!(dag.externals(id).len(), externals[i].len(), "{case}: {i}");
                assert_eq!(
                    dag.weight_exts(id),
                    weight_exts[i],
                    "{case}: weights of {i}"
                );
                // `succs(p)` lists exactly the atoms whose preds name
                // `p`, once per edge, in ascending id order.
                assert!(dag.succs(id).is_sorted(), "{case}: succs of {i} unsorted");
                for &s in dag.succs(id) {
                    let uses = dag.preds(s).iter().filter(|(p, _)| *p == id).count();
                    let listed = dag.succs(id).iter().filter(|&&x| x == s).count();
                    assert_eq!(uses, listed, "{case}: edge {i} -> {}", s.0);
                }
                edges += dag.preds(id).len();
            }
            let listed: usize = (0..dag.atom_count())
                .map(|i| dag.succs(AtomId(u32_from_usize(i))).len())
                .sum();
            assert_eq!(listed, edges, "{case}: consumer lists cover every edge");
            assert!(edges > 0, "{case}");
        });
    }

    /// The task table the DAG used to derive from its edge lists: one
    /// pushed task per atom reading its producers, then its externals,
    /// with the slots resolved from those operand lists.
    fn pushed_task_table(
        dag: &AtomicDag,
        preds: &[Vec<(AtomId, u64)>],
        externals: &[Vec<(DataId, u64)>],
    ) -> Arc<TaskTable> {
        let mut p = accel_sim::Program::new();
        for (i, atom) in dag.atoms().iter().enumerate() {
            let inputs: Vec<Operand> = preds[i]
                .iter()
                .map(|&(a, b)| Operand::task(TaskId(a.0), b))
                .chain(externals[i].iter().map(|&(d, b)| Operand::external(d, b)))
                .collect();
            p.push_task(
                Task::compute(atom.cost.cycles, atom.cost.macs, atom.cost.output_bytes)
                    .with_tag(atom.layer.0)
                    .with_energy_pj(atom.cost.energy_pj),
                &inputs,
            );
        }
        Arc::clone(p.table())
    }

    #[test]
    fn operand_rows_equal_the_pushed_reference_table() {
        for_each_reference_case(|case, dag, (preds, _, externals, _)| {
            let reference = pushed_task_table(dag, &preds, &externals);
            let rows = dag.task_table();
            assert_eq!(rows.external_ids(), reference.external_ids(), "{case}");
            assert_eq!(rows.operand_count(), reference.operand_count(), "{case}");
            for (i, (got, want)) in rows.tasks().iter().zip(reference.tasks()).enumerate() {
                let t = TaskId(u32_from_usize(i));
                assert_eq!(
                    rows.operand_slots(t),
                    reference.operand_slots(t),
                    "{case}: slots of {i}"
                );
                assert_eq!(
                    rows.operand_bytes(t),
                    reference.operand_bytes(t),
                    "{case}: bytes of {i}"
                );
                assert_eq!(format!("{got:?}"), format!("{want:?}"), "{case}: task {i}");
            }
            assert_eq!(rows.tasks().len(), reference.tasks().len(), "{case}");
        });
    }

    #[test]
    fn whole_layer_atoms_chain() {
        let g = models::tiny_cnn();
        let dag = build(
            &g,
            AtomSpec {
                th: 1 << 20,
                tw: 1 << 20,
                tc: 1 << 20,
            },
            1,
        );
        // One atom per non-input layer.
        assert_eq!(dag.atom_count(), g.layer_count() - 1);
        // conv1 has no task preds (input is external) but has weights+input.
        let conv1 = dag.layer_atoms(0, g.layer_by_name("conv1").unwrap().id())[0];
        assert!(dag.preds(conv1).is_empty());
        assert_eq!(dag.externals(conv1).len(), 2); // weights + input region
                                                   // conv2 depends on conv1's single atom.
        let conv2 = dag.layer_atoms(0, g.layer_by_name("conv2").unwrap().id())[0];
        assert_eq!(dag.preds(conv2).len(), 1);
        assert_eq!(dag.preds(conv2).iter().next(), Some((conv1, 32 * 32 * 16)));
    }

    #[test]
    fn spatial_tiles_depend_on_overlapping_producers() {
        let mut g = Graph::new("t");
        let x = g.add_input(TensorShape::new(32, 32, 16));
        let a = g.add_conv("a", x, ConvParams::new(3, 1, 1, 16));
        let bld = g.add_conv("b", a, ConvParams::new(3, 1, 1, 16));
        let _ = bld;
        let dag = build(
            &g,
            AtomSpec {
                th: 16,
                tw: 32,
                tc: 16,
            },
            1,
        );
        // Each layer split into 2 atoms along h.
        let a_atoms = dag.layer_atoms(0, g.layer_by_name("a").unwrap().id());
        let b_atoms = dag.layer_atoms(0, g.layer_by_name("b").unwrap().id());
        assert_eq!(a_atoms.len(), 2);
        assert_eq!(b_atoms.len(), 2);
        // b's top tile needs rows [0,17) of a: overlaps both a atoms.
        assert_eq!(dag.preds(b_atoms[0]).len(), 2);
        let bytes: Vec<u64> = dag.preds(b_atoms[0]).iter().map(|(_, b)| b).collect();
        // 16 rows from tile 0, 1 row from tile 1, each 32x16 wide.
        assert_eq!(bytes, vec![16 * 32 * 16, 32 * 16]);
    }

    #[test]
    fn channel_tiles_share_weights_within_tile() {
        let mut g = Graph::new("t");
        let x = g.add_input(TensorShape::new(8, 8, 16));
        g.add_conv("a", x, ConvParams::new(1, 1, 0, 64));
        let dag = build(
            &g,
            AtomSpec {
                th: 4,
                tw: 8,
                tc: 32,
            },
            1,
        );
        let a = g.layer_by_name("a").unwrap().id();
        let atoms = dag.layer_atoms(0, a);
        assert_eq!(atoms.len(), 4); // 2 h-tiles x 2 c-tiles
                                    // Atoms with the same channel tile share a weight DataId.
        let wid = |aid: AtomId| dag.externals(aid).next().map(|(d, _)| d);
        let c_of = |aid: AtomId| dag.atom(aid).coords.c.start;
        for &x1 in atoms {
            for &x2 in atoms {
                assert_eq!(c_of(x1) == c_of(x2), wid(x1) == wid(x2));
            }
        }
    }

    #[test]
    fn batch_replicates_structure_and_shares_weights() {
        let g = models::tiny_cnn();
        let d1 = build(
            &g,
            AtomSpec {
                th: 16,
                tw: 16,
                tc: 64,
            },
            1,
        );
        let d2 = build(
            &g,
            AtomSpec {
                th: 16,
                tw: 16,
                tc: 64,
            },
            2,
        );
        assert_eq!(d2.atom_count(), 2 * d1.atom_count());
        let conv1 = g.layer_by_name("conv1").unwrap().id();
        let a0 = d2.layer_atoms(0, conv1)[0];
        let a1 = d2.layer_atoms(1, conv1)[0];
        // Same weight datum across samples; different input datum.
        let w0: Vec<_> = d2.externals(a0).filter(|(d, _)| d.0 >> 62 == 0).collect();
        let w1: Vec<_> = d2.externals(a1).filter(|(d, _)| d.0 >> 62 == 0).collect();
        assert_eq!(w0, w1);
        let i0: Vec<_> = d2.externals(a0).filter(|(d, _)| d.0 >> 62 == 1).collect();
        let i1: Vec<_> = d2.externals(a1).filter(|(d, _)| d.0 >> 62 == 1).collect();
        assert_ne!(i0, i1);
    }

    #[test]
    fn concat_routes_channels_to_the_right_producer() {
        let mut g = Graph::new("t");
        let x = g.add_input(TensorShape::new(8, 8, 8));
        let a = g.add_conv("a", x, ConvParams::new(1, 1, 0, 16));
        let b = g.add_conv("b", x, ConvParams::new(1, 1, 0, 16));
        let cat = g.add_concat("cat", &[a, b]);
        // Split concat output (32 ch) into two 16-ch atoms.
        let dag = build(
            &g,
            AtomSpec {
                th: 8,
                tw: 8,
                tc: 16,
            },
            1,
        );
        let cat_atoms = dag.layer_atoms(0, cat);
        assert_eq!(cat_atoms.len(), 2);
        let a0 = dag.layer_atoms(0, a)[0];
        let b0 = dag.layer_atoms(0, b)[0];
        // First concat atom only reads a, second only reads b.
        assert_eq!(
            dag.preds(cat_atoms[0]).iter().collect::<Vec<_>>(),
            [(a0, 8 * 8 * 16)]
        );
        assert_eq!(
            dag.preds(cat_atoms[1]).iter().collect::<Vec<_>>(),
            [(b0, 8 * 8 * 16)]
        );
    }

    #[test]
    fn residual_add_reads_both_branches() {
        let g = models::tiny_branchy();
        let dag = build(
            &g,
            AtomSpec {
                th: 1 << 20,
                tw: 1 << 20,
                tc: 1 << 20,
            },
            1,
        );
        let add = g.layer_by_name("b1_add").unwrap().id();
        let a = dag.layer_atoms(0, add)[0];
        assert_eq!(dag.preds(a).len(), 2);
    }

    #[test]
    fn dag_is_acyclic_and_consistent() {
        let g = models::tiny_branchy();
        let dag = build(
            &g,
            AtomSpec {
                th: 8,
                tw: 8,
                tc: 8,
            },
            2,
        );
        for (i, _) in dag.atoms().iter().enumerate() {
            let id = AtomId(u32_from_usize(i));
            for (p, bytes) in dag.preds(id) {
                assert!(p.index() < dag.atom_count());
                assert!(bytes > 0);
                assert!(dag.succs(p).contains(&id));
                // Producer layer must be shallower.
                assert!(dag.depth(p) < dag.depth(id));
            }
        }
    }

    #[test]
    fn total_macs_match_graph() {
        let g = models::tiny_cnn();
        let dag = build(
            &g,
            AtomSpec {
                th: 8,
                tw: 8,
                tc: 16,
            },
            1,
        );
        let graph_macs: u64 = g.layers().map(|l| l.macs()).sum();
        assert_eq!(dag.total_macs(), graph_macs);
    }
}
