//! Atomic tensor generation (paper Sec. IV-A, Algorithm 1).
//!
//! The goal is a per-layer tile size `[h_p, w_p, c_p^o]` such that (1) each
//! atom keeps the PE array of one engine highly utilized and (2) atoms from
//! *different* layers have near-equal execution cycles, so parallel rounds
//! are load-balanced. The paper frames (2) as minimizing the variance of
//! atom execution cycles around a scalar *unified cycle* state `S`, searched
//! with simulated annealing; a genetic-algorithm alternative is evaluated in
//! Fig. 5(b) and reproduced here, plus a uniform (non-balanced) generator
//! used by baselines and ablations.
//!
//! Per-layer candidate tiles are pre-enumerated with dataflow-aware
//! snapping: the spatially-unrolled dimensions are kept divisible by the PE
//! array where the layer allows it, and candidates whose working set
//! exceeds the engine buffer are discarded.

use ad_util::Rng64;

use dnn_graph::{Graph, Layer, TensorShape};
use engine_model::{Dataflow, EngineConfig};

use crate::atom::{atom_cost, AtomCoords, AtomSpec, Range};
use crate::exec::Exec;

/// Simulated-annealing hyper-parameters (Alg. 1's `ite_max`, `Len`, `ε`,
/// `Temp`, `λ`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SaParams {
    /// Iteration upper bound `ite_max`.
    pub max_iters: usize,
    /// Maximum relative movement length `Len` (fraction of current `S`).
    pub move_len: f64,
    /// Convergence threshold `ε` on the normalized variance.
    pub epsilon: f64,
    /// Initial annealing temperature `Temp`.
    pub temp: f64,
    /// Temperature decay factor `λ` per iteration.
    pub lambda: f64,
    /// RNG seed (searches are deterministic given the seed).
    pub seed: u64,
    /// Independently seeded annealing chains. Chain `i` runs with seed
    /// [`chain_seed`]`(seed, i)` (chain 0 = the base seed, so `chains = 1`
    /// reproduces the single-chain search exactly); the minimum-variance
    /// chain wins, earliest chain index breaking ties. The chain *set* is
    /// part of the search configuration — the request's worker pool only
    /// controls how many threads evaluate it.
    pub chains: usize,
}

impl Default for SaParams {
    fn default() -> Self {
        Self {
            max_iters: 400,
            move_len: 0.3,
            epsilon: 0.02,
            temp: 0.5,
            lambda: 0.97,
            seed: 7,
            chains: 1,
        }
    }
}

/// Genetic-algorithm hyper-parameters (the Fig. 5(b) comparator).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaParams {
    /// Generations to evolve.
    pub generations: usize,
    /// Population size.
    pub population: usize,
    /// Per-gene mutation probability.
    pub mutation: f64,
    /// Individuals copied unchanged each generation.
    pub elites: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GaParams {
    fn default() -> Self {
        Self {
            generations: 400,
            population: 24,
            mutation: 0.08,
            elites: 2,
            seed: 7,
        }
    }
}

/// Which generator to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AtomGenMode {
    /// Algorithm 1: simulated annealing on the unified-cycle state.
    Sa(SaParams),
    /// Genetic algorithm over per-layer tile choices (Fig. 5(b) comparison).
    Ga(GaParams),
    /// Uniform splitting into ≈ `parts` atoms per layer with no cycle
    /// balancing (ablation baseline; also what a Rammer-style rTask
    /// generator produces).
    Uniform {
        /// Target atoms per layer.
        parts: usize,
    },
}

/// Configuration of the generation stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomGenConfig {
    /// Search mode.
    pub mode: AtomGenMode,
    /// Initialization target: the unified-cycle state starts at the cycle
    /// level where large layers split into about this many atoms, i.e.
    /// enough intra-layer parallelism to fill the engine array (≈ 2·N).
    /// The annealing then moves `S` freely to minimize the variance.
    pub target_atoms_per_layer: usize,
    /// Engines on the accelerator (`N`): used by the wall-time term of the
    /// candidate selection — a layer's atoms execute in `ceil(count / N)`
    /// waves, so both PE utilization *and* intra-layer parallelism shape
    /// the preferred tile.
    pub engines: usize,
}

impl Default for AtomGenConfig {
    fn default() -> Self {
        Self {
            mode: AtomGenMode::Sa(SaParams::default()),
            target_atoms_per_layer: 128,
            engines: 64,
        }
    }
}

/// Result of atom generation.
#[derive(Debug, Clone)]
pub struct GenReport {
    /// Chosen tile per layer (indexed by layer id; `Input` layers get a
    /// degenerate whole-tensor spec).
    pub specs: Vec<AtomSpec>,
    /// Final unified-cycle state `S`.
    pub unified_cycle: f64,
    /// Final normalized variance `E = Var(cycles) / S²` over array atoms.
    pub variance: f64,
    /// `E` after every iteration/generation — the Fig. 5(b) convergence
    /// trace.
    pub history: Vec<f64>,
    /// Per-array-layer `(cycles, atom_count)` under the chosen specs — the
    /// population of the Fig. 5(a) histogram.
    pub layer_cycles: Vec<(u64, usize)>,
    /// `true` when a [`crate::PlanBudget`] iteration cap stopped the search
    /// before it converged (the report still holds the best-so-far specs).
    pub truncated: bool,
}

/// One pre-enumerated tiling candidate of a layer.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    cycles: u64,
    count: usize,
    spec: AtomSpec,
    /// `ceil(count / N) × max(cycles, gather estimate)`: the layer's
    /// wall-clock if executed alone in full rounds — the tile-quality term
    /// of the selection score.
    est_wall: u64,
}

/// Every layer's tiling candidates, sorted by cycles.
///
/// The table depends on the graph, the engine, the dataflow and
/// [`AtomGenConfig::engines`], never on the granularity target or the
/// search mode. A planning request therefore builds it once and every
/// [`generate`] run of the request (one per granularity target, every SA
/// chain) reads it.
#[derive(Debug)]
pub struct CandidateTable {
    /// `layers[layer_id]` — empty for `Input` layers.
    layers: Vec<Vec<Candidate>>,
    /// Whether the layer's atoms run on the PE array (participate in `Var`).
    is_array: Vec<bool>,
    /// Best (smallest) achievable estimated wall per layer — the reference
    /// point for the selection-time quality penalty.
    min_wall: Vec<u64>,
    /// The SA hot loop's view of the same candidates.
    soa: SaSoa,
    /// The engine count the table was enumerated under.
    built_for: usize,
}

impl CandidateTable {
    /// Enumerates every layer's candidates. Layers fan out through `exec`
    /// and the results are kept in layer order, so the table is the same
    /// for every pool and thread count.
    pub fn build(
        graph: &Graph,
        cfg: &AtomGenConfig,
        engine: &EngineConfig,
        dataflow: Dataflow,
        exec: &Exec,
    ) -> Self {
        let layers: Vec<&Layer> = graph.layers().collect();
        let cands = exec.map(layers.len(), |li| {
            layer_candidates(layers[li], cfg, engine, dataflow)
        });
        let mut table = Self {
            is_array: layers.iter().map(|l| l.is_array_op()).collect(),
            min_wall: cands
                .iter()
                .map(|c| c.iter().map(|c| c.est_wall).min().unwrap_or(0))
                .collect(),
            layers: cands,
            soa: SaSoa::default(),
            built_for: cfg.engines,
        };
        table.soa = SaSoa::build(&table);
        table
    }
}

/// Runs the configured generator over `graph`, reading its candidates from
/// `table` (built by [`CandidateTable::build`] under the same `cfg`).
///
/// * `iter_budget` is a deterministic iteration cap
///   ([`crate::PlanBudget::sa_iters`]). It bounds each SA chain's
///   iteration count; the chain returns its best-so-far choice vector and
///   the report is flagged [`GenReport::truncated`] when the cap fired
///   before convergence.
/// * `exec` carries the request's worker pool for the SA chain fan-out;
///   every pool size gives byte-identical output.
///
/// GA and uniform generation have a fixed iteration structure and ignore
/// the cap.
pub fn generate(
    graph: &Graph,
    table: &CandidateTable,
    cfg: &AtomGenConfig,
    iter_budget: Option<usize>,
    exec: &Exec,
) -> GenReport {
    debug_assert_eq!(
        table.built_for, cfg.engines,
        "candidate table built for a different engine count"
    );
    match cfg.mode {
        AtomGenMode::Sa(p) => run_sa(
            graph,
            table,
            p,
            cfg.target_atoms_per_layer,
            iter_budget,
            exec,
        ),
        AtomGenMode::Ga(p) => run_ga(graph, table, p),
        AtomGenMode::Uniform { parts } => run_uniform(graph, table, parts),
    }
}

/// Seed of SA chain `chain` under base seed `seed`: splitmix64's golden
/// gamma keeps the chain streams decorrelated while chain 0 stays exactly
/// the base seed (so `chains = 1` is byte-identical to the single-chain
/// generator).
pub fn chain_seed(seed: u64, chain: usize) -> u64 {
    seed.wrapping_add((chain as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Upper bound on a layer's atom count (keeps the DAG tractable).
const MAX_ATOMS_PER_LAYER: usize = 4096;

/// Split-factor menu used for candidate enumeration.
const SPLITS: [usize; 17] = [
    1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384,
];

fn round_up_multiple(v: usize, m: usize, cap: usize) -> usize {
    (v.div_ceil(m) * m).min(cap).max(1)
}

/// One layer's candidates, sorted by cycles (stably, so equal-cycles
/// candidates keep their enumeration order); empty for `Input` layers.
fn layer_candidates(
    layer: &Layer,
    cfg: &AtomGenConfig,
    engine: &EngineConfig,
    dataflow: Dataflow,
) -> Vec<Candidate> {
    if layer.op().is_input() {
        return Vec::new();
    }
    let budget = engine.buffer_bytes;
    let out = layer.out_shape();
    let mut cands: Vec<Candidate> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();

    for &fh in &SPLITS {
        if fh > out.h && fh != 1 {
            break;
        }
        for &fw in &SPLITS {
            if fw > out.w && fw != 1 {
                break;
            }
            for &fc in &SPLITS {
                if fc > out.c && fc != 1 {
                    break;
                }
                let spec = snapped_spec(layer, out, fh, fw, fc, engine, dataflow);
                if !seen.insert((spec.th, spec.tw, spec.tc)) {
                    continue;
                }
                let count = spec.count(out);
                if count > MAX_ATOMS_PER_LAYER {
                    continue;
                }
                let coords = AtomCoords {
                    h: Range::new(0, spec.th),
                    w: Range::new(0, spec.tw),
                    c: Range::new(0, spec.tc),
                };
                let cost = atom_cost(layer, &coords, engine, dataflow);
                // No hard working-set filter: operands larger than the
                // buffer are streamed (the simulator models exactly
                // that), and the resulting traffic is visible to the
                // outer Fig. 4(b) loop through full simulation. The
                // buffer size only softens selection via the wall-time
                // term below.
                let oversize_penalty = cost.working_set_bytes.saturating_sub(budget) / 64;
                let cycles = cost.cycles.max(1);
                // Effective per-atom time: compute, or the operand
                // gathering when the double buffer cannot hide it
                // (input bytes over a ~64 B/cycle link plus one DRAM
                // access latency). Tiny atoms with large halos are
                // gather-bound and make poor scheduling units.
                let gather_est = (cost.working_set_bytes - cost.output_bytes) / 64 + 150;
                let eff = cycles.max(gather_est);
                cands.push(Candidate {
                    cycles,
                    count,
                    spec,
                    est_wall: count.div_ceil(cfg.engines) as u64 * eff + oversize_penalty,
                });
            }
        }
    }
    if cands.is_empty() {
        // Fall back to the whole layer even if it busts the budget.
        let cost = atom_cost(layer, &AtomCoords::full(out), engine, dataflow);
        let cycles = cost.cycles.max(1);
        cands.push(Candidate {
            cycles,
            count: 1,
            spec: AtomSpec::whole(out),
            est_wall: cycles,
        });
    }
    cands.sort_by_key(|c| c.cycles);
    cands
}

/// Builds a tile spec for split factors, snapping the spatially-unrolled
/// dimensions to PE-array multiples where the layer permits.
fn snapped_spec(
    layer: &Layer,
    out: TensorShape,
    fh: usize,
    fw: usize,
    fc: usize,
    engine: &EngineConfig,
    dataflow: Dataflow,
) -> AtomSpec {
    let th = out.h.div_ceil(fh);
    let tw = out.w.div_ceil(fw);
    let tc = out.c.div_ceil(fc);
    if !layer.is_array_op() {
        return AtomSpec { th, tw, tc }.clamped(out);
    }
    let spec = match dataflow {
        // KC-P unrolls channels: keep the output-channel tile divisible by
        // PE_y (Sec. IV-A: `c_3 × PE_y`).
        Dataflow::KcPartition => AtomSpec {
            th,
            tw,
            tc: round_up_multiple(tc, engine.pe_y, out.c),
        },
        // YX-P unrolls the output plane: snap h/w to the array dims.
        Dataflow::YxPartition => AtomSpec {
            th: round_up_multiple(th, engine.pe_x, out.h),
            tw: round_up_multiple(tw, engine.pe_y, out.w),
            tc,
        },
    };
    spec.clamped(out)
}

/// Weighted (by atom count) mean and normalized variance of per-layer
/// cycles; `None` entries are non-array layers excluded from the objective.
fn weighted_stats(choices: &[(u64, usize, bool)]) -> (f64, f64) {
    let mut n = 0.0;
    let mut sum = 0.0;
    let mut sum2 = 0.0;
    for &(cycles, count, array) in choices {
        if !array {
            continue;
        }
        let w = count as f64;
        let c = cycles as f64;
        n += w;
        sum += w * c;
        sum2 += w * c * c;
    }
    if n == 0.0 {
        return (0.0, 0.0);
    }
    let mean = sum / n;
    let var = (sum2 / n - mean * mean).max(0.0);
    (mean, if mean > 0.0 { var / (mean * mean) } else { 0.0 })
}

/// Largest `6·max_cycles + max_quality` for which collapsing equal-cycles
/// runs keeps [`SaSoa::closest`] exact: below 2^52 every f64 has an ulp of
/// at most 1/2, so `fl(dist + q)` is strictly increasing in integer `q`.
const EXACT_SUM_LIMIT: u64 = 1 << 52;

/// Structure-of-arrays view of a [`CandidateTable`], built once with the
/// table and shared read-only by every SA run. All floats are the *same
/// bits* the scalar path would produce (`cycles as f64`,
/// `(est_wall - min_wall) as f64`, `count as f64` and its products with the
/// same association), and the variance fold visits layers in the same
/// ascending order.
///
/// The per-layer argmin of Alg. 1 line 13 minimizes
/// `|cycles - S| + (est_wall - min_wall)`: the distance to the unified
/// cycle `S`, penalized by the wall-time loss of the tile relative to the
/// layer's best tile (Sec. IV-A's target (1): a term that captures both PE
/// utilization and intra-layer parallelism, so balancing never trades
/// them away). Ties go to the lowest candidate index. [`SaSoa::closest`]
/// returns exactly that argmin, visiting a few candidates instead of all;
/// DESIGN.md §11 gives the rules.
#[derive(Debug, Default)]
struct SaSoa {
    /// `cycles_f[layer][k]` — cycles of the layer's `k`-th argmin
    /// representative, pre-cast to f64 (ascending).
    cycles_f: Vec<Vec<f64>>,
    /// `quality[layer][k]` — the representative's wall-time penalty
    /// `(est_wall - min_wall) as f64` (always ≥ 0).
    quality: Vec<Vec<f64>>,
    /// `index[layer][k]` — the representative's index in the layer's
    /// candidate list.
    index: Vec<Vec<usize>>,
    /// Layers contributing to the variance objective (non-empty candidate
    /// list and array op), ascending.
    active: Vec<usize>,
    /// Non-array layers with candidates: outside the objective, so SA
    /// resolves them once, from the final `S`.
    passive: Vec<usize>,
    /// `(w, w·c, (w·c)·c)` per candidate of each active layer, indexed like
    /// the candidate list (empty for other layers).
    weights: Vec<Vec<(f64, f64, f64)>>,
}

impl SaSoa {
    fn build(table: &CandidateTable) -> Self {
        let max_cycles = table
            .layers
            .iter()
            .filter_map(|c| c.last())
            .map(|c| c.cycles)
            .max()
            .unwrap_or(0);
        let max_quality = table
            .layers
            .iter()
            .zip(&table.min_wall)
            .flat_map(|(cands, &min)| cands.iter().map(move |c| c.est_wall - min))
            .max()
            .unwrap_or(0);
        // SA targets never exceed 6·max_cycles (`S` is clamped to 6·s0 and
        // s0 is a mean of chosen cycles, at least 1), so no distance does.
        let collapse = max_cycles.saturating_mul(6).saturating_add(max_quality) < EXACT_SUM_LIMIT;
        let mut soa = Self::default();
        for (li, cands) in table.layers.iter().enumerate() {
            let (mut cycles_f, mut quality, mut index) = (Vec::new(), Vec::new(), Vec::new());
            for (i, c) in cands.iter().enumerate() {
                let q = (c.est_wall - table.min_wall[li]) as f64;
                let cf = c.cycles as f64;
                // Equal cycles give bit-identical distances, so within a run
                // the first minimum-quality member scores strictly best.
                if collapse && cycles_f.last() == Some(&cf) {
                    let k = cycles_f.len() - 1;
                    if q < quality[k] {
                        quality[k] = q;
                        index[k] = i;
                    }
                    continue;
                }
                cycles_f.push(cf);
                quality.push(q);
                index.push(i);
            }
            soa.cycles_f.push(cycles_f);
            soa.quality.push(quality);
            soa.index.push(index);
            if cands.is_empty() {
                soa.weights.push(Vec::new());
            } else if table.is_array[li] {
                soa.active.push(li);
                soa.weights.push(
                    cands
                        .iter()
                        .map(|c| {
                            let w = c.count as f64;
                            let cf = c.cycles as f64;
                            let wc = w * cf;
                            (w, wc, wc * cf)
                        })
                        .collect(),
                );
            } else {
                soa.passive.push(li);
                soa.weights.push(Vec::new());
            }
        }
        soa
    }

    /// Weighted mean and normalized variance of `choice` — the same
    /// arithmetic as [`weighted_stats`] over the full table, fold order and
    /// association included, without building the intermediate stats `Vec`.
    fn eval(&self, choice: &[usize]) -> (f64, f64) {
        let mut n = 0.0;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for &li in &self.active {
            let (w, wc, wcc) = self.weights[li][choice[li]];
            n += w;
            sum += wc;
            sum2 += wcc;
        }
        if n == 0.0 {
            return (0.0, 0.0);
        }
        let mean = sum / n;
        let var = (sum2 / n - mean * mean).max(0.0);
        (mean, if mean > 0.0 { var / (mean * mean) } else { 0.0 })
    }

    /// The argmin candidate index of layer `li` (which must have
    /// candidates) at unified cycle `target`, exact for every target up to
    /// 6× the table's largest cycles.
    ///
    /// The scan starts at the first representative with `cycles ≥ target`
    /// and walks outward, always taking the nearer of the two frontier
    /// representatives. Distances only grow outward on each side, and
    /// `score = dist + quality ≥ dist` (quality ≥ 0, IEEE addition of
    /// non-negatives is monotone), so once the nearer frontier's distance
    /// alone strictly exceeds the best score nothing further out can win
    /// or tie. Ties go to the lower index, as in a left-to-right scan.
    fn closest(&self, li: usize, target: f64) -> usize {
        let cycles = &self.cycles_f[li];
        let quality = &self.quality[li];
        let start = cycles.partition_point(|&c| c < target);
        // The next representative on the left is `lo - 1`, on the right `hi`.
        let (mut lo, mut hi) = (start, start);
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        loop {
            let left = lo.checked_sub(1).map(|i| (i, (cycles[i] - target).abs()));
            let right = cycles.get(hi).map(|&c| (hi, (c - target).abs()));
            let (i, dist) = match (left, right) {
                (Some(l), Some(r)) if l.1 <= r.1 => l,
                (_, Some(r)) => r,
                (Some(l), None) => l,
                (None, None) => break,
            };
            if dist > best_score {
                break;
            }
            if i < start {
                lo = i;
            } else {
                hi = i + 1;
            }
            let score = dist + quality[i];
            if score < best_score || (score == best_score && i < best) {
                best_score = score;
                best = i;
            }
        }
        self.index[li][best]
    }
}

fn report_from_choices(
    graph: &Graph,
    table: &CandidateTable,
    choice: &[usize],
    history: Vec<f64>,
) -> GenReport {
    let mut specs = Vec::with_capacity(graph.layer_count());
    let mut layer_cycles = Vec::new();
    let mut stats_in = Vec::new();
    for layer in graph.layers() {
        let li = layer.id().index();
        if table.layers[li].is_empty() {
            specs.push(AtomSpec {
                th: 1,
                tw: 1,
                tc: 1,
            });
            continue;
        }
        let c = table.layers[li][choice[li]];
        specs.push(c.spec);
        stats_in.push((c.cycles, c.count, table.is_array[li]));
        if table.is_array[li] {
            layer_cycles.push((c.cycles, c.count));
        }
    }
    let (mean, var) = weighted_stats(&stats_in);
    GenReport {
        specs,
        unified_cycle: mean,
        variance: var,
        history,
        layer_cycles,
        truncated: false,
    }
}

// ---------------------------------------------------------------------------
// Simulated annealing (Algorithm 1)
// ---------------------------------------------------------------------------

/// Runs [`SaParams::chains`] independently seeded annealing chains on the
/// request's worker pool and keeps the minimum-variance chain, the
/// earliest chain index breaking ties. The reduction visits chains in
/// fixed index order, so the result is a pure function of the search
/// configuration, never of the thread count.
fn run_sa(
    graph: &Graph,
    table: &CandidateTable,
    p: SaParams,
    target_count: usize,
    iter_budget: Option<usize>,
    exec: &Exec,
) -> GenReport {
    let chains = p.chains.max(1);
    if chains == 1 {
        return run_sa_chain(graph, table, p, target_count, iter_budget);
    }
    let reports = exec.map(chains, |i| {
        let mut pi = p;
        pi.seed = chain_seed(p.seed, i);
        run_sa_chain(graph, table, pi, target_count, iter_budget)
    });
    let mut best: Option<GenReport> = None;
    for r in reports {
        if best.as_ref().is_none_or(|b| r.variance < b.variance) {
            best = Some(r);
        }
    }
    // `chains >= 1`, so at least one report exists.
    best.unwrap_or_else(|| run_sa_chain(graph, table, p, target_count, iter_budget))
}

/// One annealing chain (Algorithm 1), deterministic given `p.seed`. An
/// `iter_budget` below `p.max_iters` truncates the chain (flagged in the
/// report unless the chain converged first); the budget check is a pure
/// iteration count, so a fixed budget yields byte-identical results.
fn run_sa_chain(
    graph: &Graph,
    table: &CandidateTable,
    p: SaParams,
    target_count: usize,
    iter_budget: Option<usize>,
) -> GenReport {
    let soa = &table.soa;
    let mut rng = Rng64::new(p.seed);
    let nl = graph.layer_count();

    // Initialization (Alg. 1 lines 1-3): tile sizes such that large layers
    // split into about `target_count` atoms — the cycle level with enough
    // intra-layer parallelism to fill the rounds. The annealing below is
    // free to move `S` anywhere from here.
    let mut choice: Vec<usize> = (0..nl)
        .map(|li| {
            table.layers[li]
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| (c.count.abs_diff(target_count), c.cycles))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect();

    let (mut s, mut e) = soa.eval(&choice);
    let s0 = s.max(1.0);
    let mut temp = p.temp;
    let mut history = vec![e];
    // Reusable neighbor buffer, refreshed from `choice` every iteration.
    let mut cand_choice = choice.clone();

    let cap = p.max_iters.min(iter_budget.unwrap_or(usize::MAX));
    let mut converged = false;
    let mut accepted = false;
    for _ in 0..cap {
        if e <= p.epsilon {
            converged = true;
            break;
        }
        // Neighboring state (line 10) and per-layer argmin (lines 11-14)
        // over the layers in the objective; non-array layers are resolved
        // once after the loop. `S` is kept within a band around the
        // initialization scale; the optimizer's outer loop (Fig. 4(b))
        // explores different scales and picks the cheapest by full
        // simulation.
        let s_move = (s + rng.range_f64(-1.0, 1.0) * p.move_len * s).clamp(s0 / 3.0, s0 * 6.0);
        cand_choice.copy_from_slice(&choice);
        let mut changed = false;
        for &li in &soa.active {
            let next = soa.closest(li, s_move);
            if next != cand_choice[li] {
                cand_choice[li] = next;
                changed = true;
            }
        }
        // The objective is a pure function of the active layers' choices,
        // so a move that lands on the current vector re-uses the current
        // energy instead of re-folding every layer (common once `S`
        // settles).
        let e_move = if changed { soa.eval(&cand_choice).1 } else { e };

        // Temperature update and transition probability (lines 16-22).
        temp = (temp * p.lambda).max(1e-6);
        let prob = ((e - e_move) / (p.lambda * temp)).exp();
        if rng.next_f64() <= prob {
            std::mem::swap(&mut choice, &mut cand_choice);
            s = s_move;
            e = e_move;
            accepted = true;
        }
        history.push(e);
    }
    converged = converged || e <= p.epsilon;
    // Every accepted move re-chose every layer at its `S`, so the
    // non-array layers end at their argmin for the last accepted `S` (or
    // keep their initialization when no move was accepted).
    if accepted {
        for &li in &soa.passive {
            choice[li] = soa.closest(li, s);
        }
    }

    let mut report = report_from_choices(graph, table, &choice, history);
    report.truncated = iter_budget.is_some_and(|b| b < p.max_iters) && !converged;
    report
}

// ---------------------------------------------------------------------------
// Genetic algorithm (Fig. 5(b) comparator)
// ---------------------------------------------------------------------------

fn run_ga(graph: &Graph, table: &CandidateTable, p: GaParams) -> GenReport {
    let mut rng = Rng64::new(p.seed);
    let nl = graph.layer_count();
    let gene_space: Vec<usize> = (0..nl).map(|li| table.layers[li].len()).collect();

    let eval = |ind: &[usize]| -> f64 {
        let stats: Vec<(u64, usize, bool)> = (0..nl)
            .filter(|li| gene_space[*li] > 0)
            .map(|li| {
                let c = table.layers[li][ind[li]];
                (c.cycles, c.count, table.is_array[li])
            })
            .collect();
        weighted_stats(&stats).1
    };

    let random_ind = |rng: &mut Rng64| -> Vec<usize> {
        (0..nl)
            .map(|li| {
                if gene_space[li] == 0 {
                    0
                } else {
                    rng.below(gene_space[li])
                }
            })
            .collect()
    };

    let mut pop: Vec<(f64, Vec<usize>)> = (0..p.population)
        .map(|_| {
            let ind = random_ind(&mut rng);
            (eval(&ind), ind)
        })
        .collect();
    pop.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut history = vec![pop[0].0];
    for _ in 0..p.generations {
        let mut next: Vec<(f64, Vec<usize>)> = pop.iter().take(p.elites).cloned().collect();
        while next.len() < p.population {
            // Tournament selection of two parents.
            let pick = |rng: &mut Rng64| {
                let a = rng.below(pop.len());
                let b = rng.below(pop.len());
                if pop[a].0 < pop[b].0 {
                    a
                } else {
                    b
                }
            };
            let (pa, pb) = (pick(&mut rng), pick(&mut rng));
            // Single-point crossover.
            let cut = rng.below(nl.max(1));
            let mut child: Vec<usize> = pop[pa].1[..cut]
                .iter()
                .chain(pop[pb].1[cut..].iter())
                .copied()
                .collect();
            // Mutation.
            for (li, g) in child.iter_mut().enumerate() {
                if gene_space[li] > 0 && rng.next_f64() < p.mutation {
                    *g = rng.below(gene_space[li]);
                }
            }
            let f = eval(&child);
            next.push((f, child));
        }
        next.sort_by(|a, b| a.0.total_cmp(&b.0));
        next.truncate(p.population);
        pop = next;
        history.push(pop[0].0);
    }

    let best = pop.remove(0).1;
    report_from_choices(graph, table, &best, history)
}

// ---------------------------------------------------------------------------
// Uniform splitting (baselines / ablation)
// ---------------------------------------------------------------------------

fn run_uniform(graph: &Graph, table: &CandidateTable, parts: usize) -> GenReport {
    let nl = graph.layer_count();
    let choice: Vec<usize> = (0..nl)
        .map(|li| {
            let cands = &table.layers[li];
            if cands.is_empty() {
                return 0;
            }
            // Candidate with atom count closest to `parts`; ties resolved
            // by tile quality (est. wall), so the ablation isolates the
            // *balancing* contribution of SA rather than tile sanity.
            cands
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| (c.count.abs_diff(parts), c.est_wall))
                .map(|(i, _)| i)
                .unwrap_or(0)
        })
        .collect();
    report_from_choices(graph, table, &choice, Vec::new())
}

/// The naive even partitioning of Layer-Sequential scheduling (Sec. II-B):
/// each layer is split into `parts` tiles by repeatedly halving whichever
/// output dimension currently has the largest extent — "partitioned along
/// certain directions (H_o, W_o, C_o, …) to utilize all engines" with no
/// awareness of the engine micro-architecture. Late layers with small
/// feature maps end up with channel slices far below the PE-array width,
/// which is precisely the task-engine mismatch the paper's Fig. 2 shows.
pub fn naive_split(out: TensorShape, parts: usize) -> AtomSpec {
    let mut fh = 1usize;
    let mut fw = 1usize;
    let mut fc = 1usize;
    let mut produced = 1usize;
    while produced < parts {
        let eh = out.h.div_ceil(fh);
        let ew = out.w.div_ceil(fw);
        let ec = out.c.div_ceil(fc);
        // Split the largest remaining extent; stop when nothing is divisible.
        if ec >= eh && ec >= ew && ec > 1 {
            fc *= 2;
        } else if eh >= ew && eh > 1 {
            fh *= 2;
        } else if ew > 1 {
            fw *= 2;
        } else if ec > 1 {
            fc *= 2;
        } else {
            break;
        }
        produced = out.h.div_ceil(out.h.div_ceil(fh))
            * out.w.div_ceil(out.w.div_ceil(fw))
            * out.c.div_ceil(out.c.div_ceil(fc));
        produced = produced.max(fh.min(out.h) * fw.min(out.w) * fc.min(out.c));
    }
    AtomSpec {
        th: out.h.div_ceil(fh),
        tw: out.w.div_ceil(fw),
        tc: out.c.div_ceil(fc),
    }
    .clamped(out)
}

/// Uniformly splits one layer into a grid of ≈ `parts` tiles; used by the
/// LS / CNN-P / IL-Pipe baselines to partition a layer across a set of
/// engines.
///
/// Among grids with the count closest to `parts`, the one with the smallest
/// per-part operand footprint (ifmap window + weight slice) is chosen —
/// this is the standard practice the baselines embody: spatial splits for
/// large-fmap layers, output-channel splits for weight-heavy layers (so
/// engines do not all replicate the full weight tensor).
pub fn grid_split(
    layer: &Layer,
    parts: usize,
    engine: &EngineConfig,
    dataflow: Dataflow,
) -> AtomSpec {
    let out = layer.out_shape();
    let parts = parts.max(1);
    let mut best: Option<((usize, u64), AtomSpec)> = None;
    let mut seen = std::collections::BTreeSet::new();
    for &fh in &SPLITS {
        if fh > out.h && fh != 1 {
            break;
        }
        for &fw in &SPLITS {
            if fw > out.w && fw != 1 {
                break;
            }
            for &fc in &SPLITS {
                if fc > out.c && fc != 1 {
                    break;
                }
                let spec = AtomSpec {
                    th: out.h.div_ceil(fh),
                    tw: out.w.div_ceil(fw),
                    tc: out.c.div_ceil(fc),
                }
                .clamped(out);
                if !seen.insert((spec.th, spec.tw, spec.tc)) {
                    continue;
                }
                let count = spec.count(out);
                let coords = AtomCoords {
                    h: Range::new(0, spec.th),
                    w: Range::new(0, spec.tw),
                    c: Range::new(0, spec.tc),
                };
                let cost = atom_cost(layer, &coords, engine, dataflow);
                let input_bytes = cost.working_set_bytes - cost.output_bytes;
                let key = (count.abs_diff(parts), input_bytes);
                match &best {
                    Some((bk, _)) if key >= *bk => {}
                    _ => best = Some((key, spec)),
                }
            }
        }
    }
    best.map(|(_, s)| s).unwrap_or(AtomSpec::whole(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnn_graph::models;

    fn setup() -> (Graph, EngineConfig) {
        (models::tiny_branchy(), EngineConfig::paper_default())
    }

    fn table(g: &Graph, cfg: &AtomGenConfig, e: &EngineConfig) -> CandidateTable {
        CandidateTable::build(g, cfg, e, Dataflow::KcPartition, &Exec::default())
    }

    /// One serial generation run over a freshly built table.
    fn run(
        g: &Graph,
        cfg: &AtomGenConfig,
        e: &EngineConfig,
        iter_budget: Option<usize>,
    ) -> GenReport {
        generate(g, &table(g, cfg, e), cfg, iter_budget, &Exec::default())
    }

    /// The per-layer argmin spelled out as a left-to-right scan over every
    /// candidate: strictly smaller scores win, so the first minimum does.
    fn closest_candidate(cands: &[Candidate], target: f64, min_wall: u64) -> usize {
        let mut best = 0usize;
        let mut best_score = f64::INFINITY;
        for (i, c) in cands.iter().enumerate() {
            let dist = (c.cycles as f64 - target).abs();
            let quality = (c.est_wall - min_wall) as f64;
            let score = dist + quality;
            if score < best_score {
                best_score = score;
                best = i;
            }
        }
        best
    }

    #[test]
    fn sa_reduces_variance() {
        let (g, e) = setup();
        let cfg = AtomGenConfig::default();
        let rep = run(&g, &cfg, &e, None);
        assert!(!rep.history.is_empty());
        let first = rep.history[0];
        let last = *rep.history.last().unwrap();
        assert!(
            last <= first,
            "variance should not increase: {first} -> {last}"
        );
        assert_eq!(rep.specs.len(), g.layer_count());
    }

    #[test]
    fn sa_deterministic_given_seed() {
        let (g, e) = setup();
        let cfg = AtomGenConfig::default();
        let r1 = run(&g, &cfg, &e, None);
        let r2 = run(&g, &cfg, &e, None);
        assert_eq!(r1.specs, r2.specs);
        assert_eq!(r1.history, r2.history);
    }

    #[test]
    fn sa_budget_truncates_deterministically() {
        let (g, e) = setup();
        let cfg = AtomGenConfig::default();
        // Tight cap: far below max_iters, and (for this graph/seed) below
        // the convergence point, so the truncated flag must be set.
        let r1 = run(&g, &cfg, &e, Some(3));
        let r2 = run(&g, &cfg, &e, Some(3));
        assert_eq!(r1.specs, r2.specs);
        assert_eq!(r1.history, r2.history);
        assert!(r1.history.len() <= 4); // initial E + ≤3 iterations
                                        // A budget at/above max_iters never truncates.
        let full = run(&g, &cfg, &e, Some(10_000));
        assert!(!full.truncated);
        // An unlimited run is identical to budget=None.
        let unb = run(&g, &cfg, &e, None);
        assert_eq!(full.specs, unb.specs);
    }

    #[test]
    fn kc_candidates_snap_channels_to_pe_multiple() {
        let (g, e) = setup();
        let cfg = AtomGenConfig::default();
        let rep = run(&g, &cfg, &e, None);
        for layer in g.layers() {
            if !layer.is_array_op() {
                continue;
            }
            let spec = rep.specs[layer.id().index()];
            let out = layer.out_shape();
            // Either a PE_y multiple or capped at the layer's channel count.
            assert!(
                spec.tc % e.pe_y == 0 || spec.tc == out.c,
                "layer {} tc={} not snapped",
                layer.name(),
                spec.tc
            );
        }
    }

    #[test]
    fn ga_also_converges_but_history_differs() {
        let (g, e) = setup();
        let cfg = AtomGenConfig {
            mode: AtomGenMode::Ga(GaParams {
                generations: 60,
                ..GaParams::default()
            }),
            ..AtomGenConfig::default()
        };
        let rep = run(&g, &cfg, &e, None);
        assert!(rep.history.len() > 10);
        assert!(*rep.history.last().unwrap() <= rep.history[0]);
    }

    #[test]
    fn uniform_hits_target_parts() {
        let (g, e) = setup();
        let cfg = AtomGenConfig {
            mode: AtomGenMode::Uniform { parts: 8 },
            ..AtomGenConfig::default()
        };
        let rep = run(&g, &cfg, &e, None);
        // Large layers should land near 8 atoms.
        let stem = g.layer_by_name("stem").unwrap();
        let n = rep.specs[stem.id().index()].count(stem.out_shape());
        assert!((2..=16).contains(&n), "stem atoms = {n}");
    }

    #[test]
    fn balanced_variance_on_a_real_network() {
        // VGG's layer spectrum spans 0.1M-8M cycles; the generator must
        // still converge to a low normalized variance (the failure mode
        // before streaming-aware candidates was Var > 40).
        let g = models::vgg19();
        let e = EngineConfig::paper_default();
        let rep = run(&g, &AtomGenConfig::default(), &e, None);
        assert!(rep.variance < 0.2, "variance = {}", rep.variance);
        // And the resulting specs split large conv layers into many atoms.
        let c12 = g.layer_by_name("conv1_2").unwrap();
        assert!(rep.specs[c12.id().index()].count(c12.out_shape()) > 32);
    }

    #[test]
    fn closest_candidate_picks_nearest() {
        // Equal wall quality: pure distance decides.
        let c = |cycles: u64| Candidate {
            cycles,
            count: 1,
            spec: AtomSpec {
                th: 1,
                tw: 1,
                tc: 1,
            },
            est_wall: 10,
        };
        let cands = vec![c(10), c(100), c(1000)];
        assert_eq!(closest_candidate(&cands, 1.0, 10), 0);
        assert_eq!(closest_candidate(&cands, 54.0, 10), 0);
        assert_eq!(closest_candidate(&cands, 80.0, 10), 1);
        assert_eq!(closest_candidate(&cands, 999.0, 10), 2);
        assert_eq!(closest_candidate(&cands, 1e9, 10), 2);

        // The wall-time term steers away from tiles that serialize badly.
        let mut fat = c(100);
        fat.est_wall = 400;
        let cands = vec![c(90), fat];
        assert_eq!(closest_candidate(&cands, 100.0, 10), 0);
    }

    /// Targets probing one layer's candidate list: below the smallest and
    /// above the largest cycles, on a sample of candidate cycles (exact
    /// distance ties) and between neighbors (equal left/right distances).
    fn probe_targets(cands: &[Candidate]) -> Vec<f64> {
        let (min, max) = (cands[0].cycles as f64, cands[cands.len() - 1].cycles as f64);
        let mut targets = vec![0.0, min / 3.0, min - 0.5, min, max, max + 0.5, 2.0 * max];
        targets.push(6.0 * max);
        let stride = (cands.len() / 24).max(1);
        for w in cands.windows(2).step_by(stride) {
            let (a, b) = (w[0].cycles as f64, w[1].cycles as f64);
            targets.extend([a, (a + b) / 2.0, a + 0.25]);
        }
        targets
    }

    #[test]
    fn soa_matches_reference_argmin_and_eval() {
        // The SA hot loop runs on the SoA fast path; pin it bit-for-bit to
        // the reference scan/fold it replaces, on every zoo table, across
        // targets spanning each layer's candidate cycle range (including
        // outside it). Layers with an already-checked candidate list are
        // skipped, which keeps the deep networks cheap.
        let e = EngineConfig::paper_default();
        let cfg = AtomGenConfig::default();
        let mut names = models::PAPER_WORKLOADS.to_vec();
        names.extend(["tiny_cnn", "tiny_branchy"]);
        let mut collapsed_runs = 0;
        for name in names {
            let g = models::by_name(name).unwrap();
            let table = table(&g, &cfg, &e);
            let soa = &table.soa;
            let mut seen = std::collections::BTreeSet::new();
            for (li, cands) in table.layers.iter().enumerate() {
                let key: Vec<(u64, u64)> = cands
                    .iter()
                    .map(|c| (c.cycles, c.est_wall - table.min_wall[li]))
                    .collect();
                if cands.is_empty() || !seen.insert(key) {
                    continue;
                }
                collapsed_runs += cands.len() - soa.cycles_f[li].len();
                for target in probe_targets(cands) {
                    assert_eq!(
                        soa.closest(li, target),
                        closest_candidate(cands, target, table.min_wall[li]),
                        "{name} layer {li} target {target}"
                    );
                }
            }
            let nl = g.layer_count();
            let choice: Vec<usize> = (0..nl).map(|li| table.layers[li].len() / 2).collect();
            let stats: Vec<(u64, usize, bool)> = (0..nl)
                .filter(|li| !table.layers[*li].is_empty())
                .map(|li| {
                    let c = table.layers[li][choice[li]];
                    (c.cycles, c.count, table.is_array[li])
                })
                .collect();
            assert_eq!(soa.eval(&choice), weighted_stats(&stats), "{name}");
        }
        // The collapsed path is the one under test.
        assert!(collapsed_runs > 0);
    }

    #[test]
    fn huge_cycles_keep_equal_cycles_runs_uncollapsed() {
        // At 2^54 cycles a distance of ≈ 2^54 absorbs a quality of 1, so
        // the two members of this equal-cycles run tie and the scan keeps
        // the first; collapsing to the minimum-quality member would pick
        // the second. The 2^52 guard must keep every member.
        let c = |cycles: u64, est_wall: u64| Candidate {
            cycles,
            count: 1,
            spec: AtomSpec {
                th: 1,
                tw: 1,
                tc: 1,
            },
            est_wall,
        };
        let big = 1u64 << 54;
        let mut table = CandidateTable {
            layers: vec![vec![c(big, 11), c(big, 10), c(big + 8, 10)]],
            is_array: vec![true],
            min_wall: vec![10],
            soa: SaSoa::default(),
            built_for: AtomGenConfig::default().engines,
        };
        table.soa = SaSoa::build(&table);
        assert_eq!(table.soa.cycles_f[0].len(), 3, "runs must stay uncollapsed");
        for target in [1.0, 1e9, big as f64, (big + 8) as f64, 6.0 * big as f64] {
            assert_eq!(
                table.soa.closest(0, target),
                closest_candidate(&table.layers[0], target, 10),
                "target {target}"
            );
        }
        assert_eq!(table.soa.closest(0, 1.0), 0);

        // Below the guard the same run collapses to its cheaper member.
        let small = 1u64 << 40;
        table.layers[0] = vec![c(small, 11), c(small, 10), c(small + 8, 10)];
        table.soa = SaSoa::build(&table);
        assert_eq!(table.soa.cycles_f[0].len(), 2);
        assert_eq!(table.soa.closest(0, small as f64), 1);
    }

    /// Alg. 1 spelled out the long way: every layer with candidates is
    /// re-chosen by the reference scan on every iteration, and the energy
    /// is folded from scratch.
    fn reference_chain(
        g: &Graph,
        table: &CandidateTable,
        p: SaParams,
        target_count: usize,
        iter_budget: Option<usize>,
    ) -> GenReport {
        let mut rng = Rng64::new(p.seed);
        let nl = g.layer_count();
        let energy = |choice: &[usize]| {
            let stats: Vec<(u64, usize, bool)> = (0..nl)
                .filter(|li| !table.layers[*li].is_empty())
                .map(|li| {
                    let c = table.layers[li][choice[li]];
                    (c.cycles, c.count, table.is_array[li])
                })
                .collect();
            weighted_stats(&stats)
        };
        let mut choice: Vec<usize> = (0..nl)
            .map(|li| {
                table.layers[li]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, c)| (c.count.abs_diff(target_count), c.cycles))
                    .map_or(0, |(i, _)| i)
            })
            .collect();
        let (mut s, mut e) = energy(&choice);
        let s0 = s.max(1.0);
        let mut temp = p.temp;
        let mut history = vec![e];
        let cap = p.max_iters.min(iter_budget.unwrap_or(usize::MAX));
        let mut converged = false;
        for _ in 0..cap {
            if e <= p.epsilon {
                converged = true;
                break;
            }
            let s_move = (s + rng.range_f64(-1.0, 1.0) * p.move_len * s).clamp(s0 / 3.0, s0 * 6.0);
            let mut cand = choice.clone();
            for (li, slot) in cand.iter_mut().enumerate() {
                if !table.layers[li].is_empty() {
                    *slot = closest_candidate(&table.layers[li], s_move, table.min_wall[li]);
                }
            }
            let e_move = energy(&cand).1;
            temp = (temp * p.lambda).max(1e-6);
            let prob = ((e - e_move) / (p.lambda * temp)).exp();
            if rng.next_f64() <= prob {
                choice = cand;
                s = s_move;
                e = e_move;
            }
            history.push(e);
        }
        converged = converged || e <= p.epsilon;
        let mut report = report_from_choices(g, table, &choice, history);
        report.truncated = iter_budget.is_some_and(|b| b < p.max_iters) && !converged;
        report
    }

    #[test]
    fn sa_chain_matches_the_reference_loop() {
        // Covers what the golden pins cannot enumerate: random graphs (with
        // pooling, element-wise and concat layers outside the objective),
        // budgets that stop before any move is accepted, and an epsilon
        // that converges at once.
        let e = EngineConfig::paper_default();
        let mut graphs = vec![models::tiny_branchy(), models::tiny_cnn()];
        graphs.extend((0..8).map(|seed| models::random(&models::RandomGraphConfig::seeded(seed))));
        for (gi, g) in graphs.iter().enumerate() {
            for (epsilon, target) in [(0.02, 128), (0.0, 16), (10.0, 64)] {
                let p = SaParams {
                    max_iters: 120,
                    epsilon,
                    seed: 11 + gi as u64,
                    ..SaParams::default()
                };
                let cfg = AtomGenConfig {
                    mode: AtomGenMode::Sa(p),
                    target_atoms_per_layer: target,
                    ..AtomGenConfig::default()
                };
                let table = table(g, &cfg, &e);
                for budget in [None, Some(0), Some(1), Some(7)] {
                    let fast = generate(g, &table, &cfg, budget, &Exec::default());
                    let slow = reference_chain(g, &table, p, target, budget);
                    let case = format!("graph {gi}, epsilon {epsilon}, budget {budget:?}");
                    assert_eq!(fast.specs, slow.specs, "{case}");
                    assert_eq!(fast.history, slow.history, "{case}");
                    assert_eq!(
                        fast.unified_cycle.to_bits(),
                        slow.unified_cycle.to_bits(),
                        "{case}"
                    );
                    assert_eq!(fast.variance.to_bits(), slow.variance.to_bits(), "{case}");
                    assert_eq!(fast.truncated, slow.truncated, "{case}");
                }
            }
        }
    }

    #[test]
    fn table_is_the_same_for_every_thread_count() {
        let g = models::resnet50();
        let e = EngineConfig::paper_default();
        let cfg = AtomGenConfig::default();
        let serial = table(&g, &cfg, &e);
        let exec = Exec::with_threads(3);
        let pooled = CandidateTable::build(&g, &cfg, &e, Dataflow::KcPartition, &exec);
        let flat = |t: &CandidateTable| -> Vec<(u64, usize, AtomSpec, u64)> {
            t.layers
                .iter()
                .flatten()
                .map(|c| (c.cycles, c.count, c.spec, c.est_wall))
                .collect()
        };
        assert_eq!(flat(&serial), flat(&pooled));
        assert_eq!(serial.min_wall, pooled.min_wall);
        assert_eq!(serial.soa.index, pooled.soa.index);
    }

    #[test]
    fn grid_split_splits_channels_for_weight_heavy_layers() {
        // 3x3 conv at 7x7 with 512->512 channels: weights dominate; an
        // even partition must split output channels so engines don't all
        // replicate 2.4 MB of weights.
        let mut g = Graph::new("t");
        let x = g.add_input(TensorShape::new(7, 7, 512));
        let c = g.add_conv("c", x, dnn_graph::ConvParams::new(3, 1, 1, 512));
        let e = EngineConfig::paper_default();
        let s = grid_split(g.layer(c), 64, &e, Dataflow::KcPartition);
        assert!(s.tc < 512, "expected channel split, got {s:?}");
    }

    #[test]
    fn grid_split_prefers_spatial_for_fmap_heavy_layers() {
        // 3x3 conv at 56x56 with 64->64 channels: fmaps dominate; spatial
        // splits minimize the per-part window + weight footprint.
        let mut g = Graph::new("t");
        let x = g.add_input(TensorShape::new(56, 56, 64));
        let c = g.add_conv("c", x, dnn_graph::ConvParams::new(3, 1, 1, 64));
        let e = EngineConfig::paper_default();
        let s = grid_split(g.layer(c), 16, &e, Dataflow::KcPartition);
        let out = g.layer(c).out_shape();
        assert!(
            (12..=24).contains(&s.count(out)),
            "count = {}",
            s.count(out)
        );
        assert!(s.th < 56 || s.tw < 56, "expected spatial split, got {s:?}");
    }

    #[test]
    fn grid_split_small_layer_caps_parts() {
        let mut g = Graph::new("t");
        let x = g.add_input(TensorShape::new(4, 4, 10));
        let fc = g.add_fc("fc", x, 10);
        let e = EngineConfig::paper_default();
        let s = grid_split(g.layer(fc), 64, &e, Dataflow::KcPartition);
        assert!(s.count(g.layer(fc).out_shape()) <= 10);
    }

    #[test]
    fn weighted_stats_balanced_is_zero() {
        let (mean, var) = weighted_stats(&[(100, 4, true), (100, 2, true), (5, 3, false)]);
        assert_eq!(mean, 100.0);
        assert_eq!(var, 0.0);
    }
}
