use ad_util::cast::u32_from_usize;
use engine_model::EngineConfig;
use mem_model::{HbmConfig, HbmModel};
use noc_model::{LinkFaults, MeshConfig, TrafficTracker};

use crate::buffer::{BufferState, EvictionKind};
use crate::copyset::CopySets;
use crate::fault::{FaultEvent, FaultKind, FaultPlan};
use crate::program::{Program, ProgramError, TaskId, TaskTable};
use crate::stats::{DegradationStats, EnergyBreakdown, SimStats};

/// Full system configuration: engine micro-architecture, mesh, HBM and the
/// buffering policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Per-engine micro-architecture.
    pub engine: EngineConfig,
    /// NoC geometry and link parameters.
    pub mesh: MeshConfig,
    /// Off-chip memory parameters.
    pub hbm: HbmConfig,
    /// Buffer-overflow eviction policy.
    pub eviction: EvictionKind,
}

impl SimConfig {
    /// The paper's evaluation platform (Sec. V-A): 8×8 engines of 16×16 PEs
    /// with 128 KB buffers at 500 MHz, 2D-mesh NoC, 128 GB/s HBM, Alg. 3
    /// buffering.
    pub fn paper_default() -> Self {
        Self {
            engine: EngineConfig::paper_default(),
            mesh: MeshConfig::paper_default(),
            hbm: HbmConfig::paper_default(),
            eviction: EvictionKind::InvalidOccupation,
        }
    }

    /// Number of engines on the mesh.
    pub fn engines(&self) -> usize {
        self.mesh.engines()
    }
}

impl Default for SimConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Errors surfaced by [`Simulator::run`] and [`Simulator::run_faulted`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The program failed schedule validation before execution started.
    Program(ProgramError),
    /// A fault plan targets hardware that does not exist: an engine index
    /// out of range, or a link between non-adjacent engines.
    InvalidFaultTarget {
        /// The offending event.
        event: FaultEvent,
        /// Number of engines on the configured mesh.
        engines: usize,
    },
    /// An engine failed and the program could not continue on the survivors
    /// (raised by callers that run without a recovery path; the simulator
    /// itself reports failures as [`FaultedOutcome::Failed`]).
    EngineFailed {
        /// The failed engine.
        engine: usize,
        /// Cycle at which the failure took effect.
        cycle: u64,
        /// Round index that could not execute.
        round: usize,
    },
    /// Link faults disconnected a transfer's endpoints and the data has no
    /// DRAM copy to fall back to.
    Unroutable {
        /// The lowest-index engine among those holding the stranded copies.
        from: usize,
        /// Engine that needed the data.
        to: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Program(e) => write!(f, "invalid program: {e}"),
            SimError::InvalidFaultTarget { event, engines } => write!(
                f,
                "fault plan targets nonexistent hardware ({event:?} on a {engines}-engine mesh)"
            ),
            SimError::EngineFailed {
                engine,
                cycle,
                round,
            } => write!(
                f,
                "engine {engine} failed at cycle {cycle} (round {round}) with no recovery path"
            ),
            SimError::Unroutable { from, to } => write!(
                f,
                "link faults disconnected engines {from} -> {to} and no DRAM copy exists"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Program(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ProgramError> for SimError {
    fn from(e: ProgramError) -> Self {
        SimError::Program(e)
    }
}

/// Why a faulted run stopped early. Produced by [`Simulator::run_faulted`]
/// when the injected faults make the program unfinishable as scheduled;
/// carries everything a recovery layer needs to re-plan the remainder.
#[derive(Debug, Clone, PartialEq)]
pub struct FailureReport {
    /// The engine whose failure stopped the run.
    pub engine: usize,
    /// Cycle at which the run stopped (the failing round's start barrier).
    pub cycle: u64,
    /// Index of the round that could not execute.
    pub round: usize,
    /// Tasks that finished in earlier rounds. Their outputs survive —
    /// except those listed in `lost` — and can seed a re-planned remainder.
    pub completed: Vec<TaskId>,
    /// Completed tasks whose only output copy died with the failed engine;
    /// they must re-execute even though they already ran.
    pub lost: Vec<TaskId>,
    /// Statistics for the partial execution up to the failure, so recovery
    /// can account the wasted work without re-simulating it.
    pub partial: SimStats,
}

/// Result of a fault-injected run: either the program finished (possibly
/// degraded — rerouted transfers, derated HBM, engines lost *after* their
/// last task), or it hit a failure it could not absorb.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultedOutcome {
    /// The program ran to completion; degradation counters are in
    /// [`SimStats::degradation`].
    Completed(SimStats),
    /// An engine failure stopped the run; see the report for recovery state.
    Failed(FailureReport),
}

/// Executes [`Program`]s against the system model. See the crate docs for
/// the execution semantics.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: SimConfig,
}

impl Simulator {
    /// Creates a simulator for the given system configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Self { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Runs `program` to completion and returns aggregate statistics.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Program`] wrapping the first [`ProgramError`] if
    /// the program's schedule is malformed (see [`Program::validate`]).
    pub fn run(&self, program: &Program) -> Result<SimStats, SimError> {
        match self.run_faulted(program, &FaultPlan::none())? {
            FaultedOutcome::Completed(stats) => Ok(stats),
            // An empty plan kills no engine, so no round can fail; surfaced
            // as a typed error rather than a panic should that ever change.
            FaultedOutcome::Failed(r) => Err(SimError::EngineFailed {
                engine: r.engine,
                cycle: r.cycle,
                round: r.round,
            }),
        }
    }

    /// Runs `program` under the injected faults of `plan`.
    ///
    /// Fault events take effect at the first round barrier at or after
    /// their cycle (rounds are the model's only synchronization points).
    /// The run keeps going through link failures (transfers reroute), HBM
    /// derates (reads/writes serialize slower) and even engine failures —
    /// as long as the dead engine has no remaining tasks and held no datum's
    /// only live copy. Otherwise the run stops and reports a
    /// [`FailureReport`] for an external recovery layer to re-plan from.
    ///
    /// # Errors
    ///
    /// [`SimError::Program`] for malformed programs,
    /// [`SimError::InvalidFaultTarget`] for plans naming nonexistent
    /// hardware, and [`SimError::Unroutable`] when link faults disconnect a
    /// transfer with no DRAM fallback.
    pub fn run_faulted(
        &self,
        program: &Program,
        plan: &FaultPlan,
    ) -> Result<FaultedOutcome, SimError> {
        let engines = self.cfg.engines();
        program.validate(engines)?;
        for event in plan.events() {
            let ok = match event.kind {
                FaultKind::EngineFail { engine } => engine < engines,
                FaultKind::LinkFail { a, b } => {
                    a < engines && b < engines && self.cfg.mesh.hops(a, b) == 1
                }
                FaultKind::HbmDerate { factor } => factor.is_finite() && factor > 0.0,
            };
            if !ok {
                return Err(SimError::InvalidFaultTarget {
                    event: *event,
                    engines,
                });
            }
        }
        let rows = OperandRows::new(program);
        let mut rt = Runtime::new(&self.cfg, program, &rows, plan);
        match rt.execute()? {
            Some(report) => Ok(FaultedOutcome::Failed(report)),
            None => Ok(FaultedOutcome::Completed(rt.into_stats())),
        }
    }
}

/// Every task's operand slots and sizes, as the table lays them out: task
/// `t` owns `in_slot[in_off[t]..in_off[t + 1]]` and the same range of
/// `in_bytes`.
///
/// A done task's output moves to the recovered range after the externals,
/// so the rows of pending tasks that read one are rewritten once into
/// `moved`; every other row is the table's own. Without done tasks
/// `row_at` and `moved` are empty and a row lookup is one bounds check.
struct OperandRows<'p> {
    table: &'p TaskTable,
    /// Per task, the start of its rewritten row in `moved`, or
    /// [`NOT_MOVED`]. Empty when no task is done.
    row_at: Vec<usize>,
    moved: Vec<u32>,
    /// Slot count: task outputs, externals, then one per done task.
    slots: usize,
}

/// `row_at` marker of a row read straight from the table.
const NOT_MOVED: usize = usize::MAX;

impl<'p> OperandRows<'p> {
    fn new(program: &'p Program) -> Self {
        let table = &**program.table();
        let n_tasks = program.tasks().len();
        let mut rows = Self {
            table,
            row_at: Vec::new(),
            moved: Vec::new(),
            slots: n_tasks + table.ext_ids.len(),
        };
        if program.pending_tasks() == n_tasks {
            return rows;
        }
        // A done task's consumers read its output as recovered data,
        // slotted after the externals in task order.
        let done = |t: usize| program.is_done(TaskId(u32_from_usize(t)));
        let mut recovered: Vec<Option<u32>> = vec![None; n_tasks];
        for (t, r) in recovered.iter_mut().enumerate() {
            if done(t) {
                *r = Some(u32_from_usize(rows.slots));
                rows.slots += 1;
            }
        }
        let moved_to = |s: u32| recovered.get(s as usize).copied().flatten();
        rows.row_at = vec![NOT_MOVED; n_tasks];
        // Done tasks never run, so their rows are never read.
        for t in (0..n_tasks).filter(|&t| !done(t)) {
            let row = &table.in_slot[table.in_off[t]..table.in_off[t + 1]];
            if row.iter().any(|&s| moved_to(s).is_some()) {
                rows.row_at[t] = rows.moved.len();
                rows.moved
                    .extend(row.iter().map(|&s| moved_to(s).unwrap_or(s)));
            }
        }
        rows
    }

    /// Operand slots of `tid`, in operand order.
    fn slots(&'p self, tid: TaskId) -> &'p [u32] {
        let (t, table) = (tid.index(), self.table);
        let row = &table.in_slot[table.in_off[t]..table.in_off[t + 1]];
        match self.row_at.get(t) {
            Some(&at) if at != NOT_MOVED => &self.moved[at..at + row.len()],
            _ => row,
        }
    }

    /// Operand sizes of `tid`, parallel to [`OperandRows::slots`].
    fn bytes(&self, tid: TaskId) -> &'p [u64] {
        let (t, table) = (tid.index(), self.table);
        &table.in_bytes[table.in_off[t]..table.in_off[t + 1]]
    }
}

/// Mutable simulation state for one run.
///
/// Every datum the program touches has a dense *slot*: task outputs first
/// (slot = task index), then external data in ascending `DataId` order
/// (both laid out once per [`crate::TaskTable`]), then the outputs of done
/// tasks in task order — recovered data that starts in DRAM, ordered as if
/// it were external data with ids above every other. Slot order therefore
/// matches [`crate::buffer::Datum`]'s derived `Ord`, so the flat tables
/// below iterate in exactly the order the former ordered maps did —
/// determinism is preserved by construction while lookups become O(1)
/// indexing.
struct Runtime<'p> {
    cfg: &'p SimConfig,
    program: &'p Program,
    buffers: Vec<BufferState>,
    /// Number of tasks = first external slot.
    n_tasks: usize,
    /// Which engines hold each slot: the only copy record besides the
    /// buffers themselves, and always their exact mirror (slot `s` is
    /// resident in `buffers[e]` iff `copies.contains(s, e)`; checked after
    /// every round in debug builds).
    copies: CopySets,
    /// Whether the slot's datum is tracked at all: once produced (task
    /// outputs) or from the start (external data), until released.
    loc_present: Vec<bool>,
    /// Whether a valid copy of the slot exists in DRAM.
    in_dram: Vec<bool>,
    /// Remaining consumer references per slot.
    remaining_uses: Vec<u32>,
    /// Rounds in which each slot is consumed, flat and ascending per slot:
    /// slot `s` owns `use_rounds[use_off[s]..use_off[s + 1]]`. `u32`
    /// rounds halve the largest per-operand table, offsetting the memory of
    /// the buffers' slot index.
    use_rounds: Vec<u32>,
    use_off: Vec<usize>,
    /// Per-slot cursor into `use_rounds`: the first use not yet behind the
    /// current round. Rounds only advance, so the cursor only moves right.
    use_cursor: Vec<usize>,
    /// Eviction pins: slot `s` is pinned in the current [`Runtime::make_room`]
    /// call iff `pin_stamp[s] == pin_gen`. Each call bumps the generation
    /// and stamps its task's output and operands, so testing a buffer entry
    /// is one load instead of a scan of the operand list.
    pin_stamp: Vec<u32>,
    pin_gen: u32,
    /// Operand slots and sizes of every task (see [`OperandRows`]).
    rows: &'p OperandRows<'p>,
    /// [`MeshConfig::hop_table`]: Manhattan hops per engine pair, the
    /// transfer distance while no link is dead.
    hop_table: Vec<u64>,
    /// [`MeshConfig::nearest_first_table`]: per requesting engine, every
    /// engine by `(hops, index)`; the first copy holder in a row is the
    /// nearest copy while no link is dead.
    nearest_first: Vec<usize>,
    hbm: HbmModel,
    traffic: TrafficTracker,
    now: u64,
    round_idx: u64,
    engine_busy: Vec<u64>,
    engine_blocked: Vec<u64>,
    noc_blocked: u64,
    dram_blocked: u64,
    onchip_served: u64,
    dram_served: u64,
    compute_energy_pj: f64,
    /// NoC / DRAM gather cycles of the task currently being issued.
    task_noc_cycles: u64,
    task_dram_cycles: u64,
    /// Injected fault events still waiting to take effect (sorted by cycle;
    /// `next_fault` is the cursor).
    faults: Vec<FaultEvent>,
    next_fault: usize,
    /// Which engines are still operational.
    alive: Vec<bool>,
    /// Dead mesh links (transfers route around them).
    link_faults: LinkFaults,
    /// Tasks that finished in completed rounds, in execution order.
    completed: Vec<TaskId>,
    /// Rounds fully executed (≤ the program's round count on failure).
    rounds_done: usize,
    /// MACs actually executed (≤ the program total on failure).
    macs_done: u64,
    degradation: DegradationStats,
}

impl<'p> Runtime<'p> {
    fn new(
        cfg: &'p SimConfig,
        program: &'p Program,
        rows: &'p OperandRows<'p>,
        plan: &FaultPlan,
    ) -> Self {
        let engines = cfg.engines();
        let n_tasks = program.tasks().len();
        let slots = rows.slots;

        // Only scheduled tasks read anything; count their uses per slot,
        // then lay the per-slot use lists out back to back and fill them in
        // round order, so each list comes out sorted.
        let mut remaining_uses = vec![0u32; slots];
        for &(tid, _) in program.rounds().iter().flatten() {
            for &slot in rows.slots(tid) {
                remaining_uses[slot as usize] += 1;
            }
        }
        let mut use_off = Vec::with_capacity(slots + 1);
        use_off.push(0);
        for &uses in &remaining_uses {
            use_off.push(use_off[use_off.len() - 1] + uses as usize);
        }
        let mut use_rounds = vec![0u32; use_off[slots]];
        let mut use_cursor = use_off[..slots].to_vec();
        for (r, round) in program.rounds().iter().enumerate() {
            for (tid, _) in round {
                for &slot in rows.slots(*tid) {
                    let at = &mut use_cursor[slot as usize];
                    use_rounds[*at] = u32_from_usize(r);
                    *at += 1;
                }
            }
        }
        use_cursor.copy_from_slice(&use_off[..slots]);

        // External and recovered data start in DRAM.
        let mut loc_present = vec![false; slots];
        let mut in_dram = vec![false; slots];
        for slot in n_tasks..slots {
            if remaining_uses[slot] > 0 {
                loc_present[slot] = true;
                in_dram[slot] = true;
            }
        }

        Self {
            cfg,
            program,
            buffers: (0..engines)
                .map(|_| BufferState::with_slots(cfg.engine.buffer_bytes, slots))
                .collect(),
            n_tasks,
            copies: CopySets::new(slots, engines),
            loc_present,
            in_dram,
            remaining_uses,
            use_rounds,
            use_off,
            use_cursor,
            pin_stamp: vec![0; slots],
            pin_gen: 0,
            rows,
            hop_table: cfg.mesh.hop_table(),
            nearest_first: cfg.mesh.nearest_first_table(),
            hbm: HbmModel::new(cfg.hbm),
            traffic: TrafficTracker::new(cfg.mesh),
            now: 0,
            round_idx: 0,
            engine_busy: vec![0; engines],
            engine_blocked: vec![0; engines],
            noc_blocked: 0,
            dram_blocked: 0,
            onchip_served: 0,
            dram_served: 0,
            compute_energy_pj: 0.0,
            task_noc_cycles: 0,
            task_dram_cycles: 0,
            faults: plan.events().to_vec(),
            next_fault: 0,
            alive: vec![true; engines],
            link_faults: LinkFaults::new(),
            completed: Vec::new(),
            rounds_done: 0,
            macs_done: 0,
            degradation: DegradationStats::default(),
        }
    }

    /// Applies every pending fault event due at or before the current
    /// cycle. Returns the completed tasks whose only live output copy died
    /// with a failed engine (they would have to re-execute).
    fn apply_due_faults(&mut self) -> Vec<TaskId> {
        let mut lost = Vec::new();
        while let Some(event) = self.faults.get(self.next_fault) {
            if event.cycle > self.now {
                break;
            }
            match event.kind {
                FaultKind::EngineFail { engine } => {
                    if self.alive[engine] {
                        self.alive[engine] = false;
                        self.degradation.engine_failures += 1;
                        lost.extend(self.kill_engine_copies(engine));
                    }
                }
                FaultKind::LinkFail { a, b } => {
                    if !self.link_faults.is_dead(a, b) {
                        self.link_faults.kill(a, b);
                        self.degradation.dead_links += 1;
                    }
                }
                FaultKind::HbmDerate { factor } => {
                    self.hbm.set_bandwidth_derate(factor);
                    self.degradation.hbm_derate =
                        self.degradation.hbm_derate.min(self.hbm.bandwidth_derate());
                }
            }
            self.next_fault += 1;
        }
        lost.sort_unstable();
        lost.dedup();
        lost
    }

    /// Invalidates every buffer entry on a failed engine. Data with another
    /// live copy (peer engine or DRAM) survives; still-needed task outputs
    /// whose only copy lived here are returned as lost.
    fn kill_engine_copies(&mut self, engine: usize) -> Vec<TaskId> {
        let mut lost = Vec::new();
        let capacity = self.buffers[engine].capacity();
        let dead = std::mem::replace(&mut self.buffers[engine], BufferState::new(capacity));
        for (slot, _) in dead.data() {
            self.copies.remove(slot, engine);
            let s = slot as usize;
            if self.loc_present[s] {
                let gone = self.copies.is_empty(slot) && !self.in_dram[s];
                let needed = self.remaining_uses[s] > 0;
                if gone && needed {
                    if s < self.n_tasks {
                        lost.push(TaskId(slot));
                    }
                    self.clear_location(slot);
                }
            }
        }
        lost
    }

    /// Stops tracking slot `slot` (it holds no on-chip copy any more).
    fn clear_location(&mut self, slot: u32) {
        let s = slot as usize;
        self.loc_present[s] = false;
        self.in_dram[s] = false;
    }

    fn failure_report(&self, engine: usize, round: usize, lost: Vec<TaskId>) -> FailureReport {
        FailureReport {
            engine,
            cycle: self.now,
            round,
            completed: self.completed.clone(),
            lost,
            partial: self.stats(),
        }
    }

    fn execute(&mut self) -> Result<Option<FailureReport>, SimError> {
        // Copy of the shared reference so round iteration does not hold a
        // borrow of `self`.
        let program = self.program;
        for (r, assignments) in program.rounds().iter().enumerate() {
            self.round_idx = r as u64;
            let round_start = self.now;
            let mut round_end = round_start;

            // Faults land on round barriers. An engine failure stops the
            // run when it destroyed a needed datum's last copy, or when the
            // dead engine still has work scheduled in this round (later
            // rounds fail when reached, keeping the completed set maximal).
            let lost = self.apply_due_faults();
            let dead_assignee = assignments
                .iter()
                .find(|(_, e)| !self.alive[*e])
                .map(|(_, e)| *e);
            let culprit = dead_assignee.or_else(|| {
                if lost.is_empty() {
                    None
                } else {
                    (0..self.alive.len()).rev().find(|&e| !self.alive[e])
                }
            });
            if let Some(engine) = culprit {
                // This round's tasks never started; count them and the
                // destroyed outputs as lost work.
                self.degradation.lost_tasks += assignments.len() as u64 + lost.len() as u64;
                return Ok(Some(self.failure_report(engine, r, lost)));
            }

            for &(tid, engine) in assignments {
                let end = self.run_task(tid, engine, round_start)?;
                round_end = round_end.max(end);
            }
            debug_assert!(
                self.copies_mirror_buffers(),
                "round {r}: copy sets and buffer contents diverged"
            );

            // Consume references and release dead data (Alg. 3 lines 8-12:
            // atoms no longer needed leave the buffers without write-back).
            // A slot at zero has already been released (the maps used to
            // drop the key entirely), so it is skipped, never re-released.
            for &(tid, _) in assignments {
                for &slot in self.rows.slots(tid) {
                    let uses = &mut self.remaining_uses[slot as usize];
                    if *uses > 0 {
                        *uses -= 1;
                        if *uses == 0 {
                            self.release(slot);
                        }
                    }
                }
            }

            self.completed
                .extend(assignments.iter().map(|(tid, _)| *tid));
            self.rounds_done += 1;
            self.now = round_end;
        }
        Ok(None)
    }

    /// Debug check: slot `s` is resident in `buffers[e]` exactly when its
    /// copy set holds `e`.
    fn copies_mirror_buffers(&self) -> bool {
        let resident: usize = self.buffers.iter().map(BufferState::len).sum();
        resident == self.copies.count()
            && self
                .buffers
                .iter()
                .enumerate()
                .all(|(e, b)| b.data().all(|(slot, _)| self.copies.contains(slot, e)))
    }

    /// Round of slot `slot`'s next consumption strictly after the current
    /// round (`u64::MAX` when never used again). Advances the slot's
    /// cursor past every use at or before the current round; the round
    /// index never decreases, so no use is skipped twice or revisited.
    fn next_use(&mut self, slot: u32) -> u64 {
        let s = slot as usize;
        let end = self.use_off[s + 1];
        let mut at = self.use_cursor[s];
        while at < end && u64::from(self.use_rounds[at]) <= self.round_idx {
            at += 1;
        }
        self.use_cursor[s] = at;
        if at < end {
            u64::from(self.use_rounds[at])
        } else {
            u64::MAX
        }
    }

    /// Releases every copy of a dead datum (no write-back). All of its uses
    /// lie at or before the current round, so `next_use` already answers
    /// "never" for it.
    fn release(&mut self, slot: u32) {
        let s = slot as usize;
        if self.loc_present[s] {
            self.loc_present[s] = false;
            self.in_dram[s] = false;
            for e in self.copies.iter(slot) {
                self.buffers[e].remove(slot);
            }
            self.copies.clear(slot);
        }
        self.remaining_uses[s] = 0;
    }

    /// Gathers operands and computes one task; returns its completion time.
    ///
    /// Operand staging is double-buffered, as on the engines the paper
    /// models: gathering overlaps the array pipeline, so the task takes
    /// `max(gather, compute)`. Loads that outlast compute still block —
    /// the effect the paper notes for CNN-P's DRAM traffic, which "cannot
    /// be completely overlapped by double buffering".
    fn run_task(&mut self, tid: TaskId, engine: usize, round_start: u64) -> Result<u64, SimError> {
        let task = self.program.task(tid);
        let compute_cycles = task.compute_cycles;
        let output_bytes = task.output_bytes;
        self.compute_energy_pj += task.compute_energy_pj;
        self.macs_done += task.macs;

        self.task_noc_cycles = 0;
        self.task_dram_cycles = 0;
        // NoC pulls serialize on the engine's port; DRAM requests are
        // pipelined by the DMA engine (memory-level parallelism), so their
        // latencies overlap: the task is ready at
        // `max(last DRAM completion, end of NoC streaming)`.
        let mut noc_t = round_start;
        let mut dram_ready = round_start;
        let (slots, sizes) = (self.rows.slots(tid), self.rows.bytes(tid));
        for (&slot, &bytes) in slots.iter().zip(sizes) {
            if bytes == 0 {
                continue;
            }
            (noc_t, dram_ready) =
                self.gather(slot, bytes, engine, round_start, noc_t, dram_ready, tid)?;
        }

        let gather_cycles = noc_t.max(dram_ready) - round_start;
        let compute_end = round_start + gather_cycles.max(compute_cycles);
        self.engine_busy[engine] += compute_cycles;
        // The part of gathering the double buffer could not hide blocks the
        // engine; attribute it to NoC vs DRAM proportionally.
        let blocked = gather_cycles.saturating_sub(compute_cycles);
        self.engine_blocked[engine] += blocked;
        let gathered = (self.task_noc_cycles + self.task_dram_cycles).max(1);
        self.noc_blocked += blocked * self.task_noc_cycles / gathered;
        self.dram_blocked += blocked * self.task_dram_cycles / gathered;

        // Produce the output.
        if output_bytes > 0 {
            let slot = tid.0;
            let s = slot as usize;
            let has_consumers = self.remaining_uses[s] > 0;
            if self.program.dram_outputs() || !has_consumers {
                // Straight to DRAM: CNN-P semantics, or a network output.
                self.hbm.write(compute_end, output_bytes);
                self.set_location_dram(slot);
            } else if self.make_room(engine, output_bytes, compute_end, tid) {
                let nu = self.next_use(slot);
                self.buffers[engine].insert(slot, output_bytes, self.round_idx, nu);
                self.loc_present[s] = true;
                self.copies.insert(slot, engine);
                self.in_dram[s] = false;
            } else {
                // Does not fit even after eviction: spill to DRAM.
                self.hbm.write(compute_end, output_bytes);
                self.set_location_dram(slot);
            }
        }
        Ok(compute_end)
    }

    /// Marks the freshly produced output `slot` as living only in DRAM.
    fn set_location_dram(&mut self, slot: u32) {
        let s = slot as usize;
        self.loc_present[s] = true;
        self.in_dram[s] = true;
    }

    /// Fetches slot `slot` to `engine` for task `tid`. `noc_t` is the
    /// engine port's streaming frontier, `dram_ready` the latest DRAM
    /// completion; returns both updated.
    #[allow(clippy::too_many_arguments)]
    fn gather(
        &mut self,
        slot: u32,
        bytes: u64,
        engine: usize,
        round_start: u64,
        noc_t: u64,
        dram_ready: u64,
        tid: TaskId,
    ) -> Result<(u64, u64), SimError> {
        // Local hit: free.
        if self.copies.contains(slot, engine) {
            let nu = self.next_use(slot);
            self.buffers[engine].touch(slot, nu);
            self.onchip_served += bytes;
            return Ok((noc_t, dram_ready));
        }

        // Nearest *reachable* on-chip copy by surviving-path hop count
        // (untracked data is assumed DRAM-resident). While every link is up
        // that is the first holder in the requester's nearest-first row;
        // once one dies, copies behind dead links are skipped, and if every
        // copy is unreachable and there is no DRAM fallback, the transfer
        // is impossible.
        let s = slot as usize;
        let n = self.cfg.engines();
        let src = if self.copies.is_empty(slot) {
            None
        } else if self.link_faults.is_empty() {
            let order = &self.nearest_first[engine * n..(engine + 1) * n];
            self.copies
                .nearest(slot, order)
                .map(|src| (self.hop_table[src * n + engine], src))
        } else {
            self.copies
                .iter(slot)
                .filter_map(|src| {
                    self.cfg
                        .mesh
                        .hops_avoiding(src, engine, &self.link_faults)
                        .map(|h| (h, src))
                })
                .min()
        };
        if src.is_none() && !self.in_dram[s] {
            if let Some(from) = self.copies.iter(slot).next() {
                return Err(SimError::Unroutable { from, to: engine });
            }
        }

        let (noc_t, dram_ready, ready) = if let Some((hops, src)) = src {
            // Byte-hops are charged at the fault-free distance; a detour's
            // extra links cost time and count as a rerouted transfer.
            let direct = self.hop_table[src * n + engine];
            if hops > direct {
                self.degradation.rerouted_transfers += 1;
            }
            let cycles = self.cfg.mesh.transfer_cycles(bytes, hops);
            self.traffic.record(bytes, direct);
            let nu = self.next_use(slot);
            self.buffers[src].touch(slot, nu);
            self.onchip_served += bytes;
            self.task_noc_cycles += cycles;
            (noc_t + cycles, dram_ready, noc_t + cycles)
        } else {
            let done = self.hbm.read(round_start, bytes);
            self.dram_served += bytes;
            self.task_dram_cycles += done - round_start;
            (noc_t, dram_ready.max(done), done)
        };

        // Cache the copy locally only when the datum has uses beyond this
        // task (on this engine or as a NoC source for peers); last-use data
        // is streamed so it cannot evict reusable tensors.
        let reused_later = self.remaining_uses[s] > 1;
        if reused_later && self.make_room(engine, bytes, ready, tid) {
            let nu = self.next_use(slot);
            self.buffers[engine].insert(slot, bytes, self.round_idx, nu);
            if !self.loc_present[s] {
                self.loc_present[s] = true;
                self.in_dram[s] = false;
            }
            self.copies.insert(slot, engine);
        }
        Ok((noc_t, dram_ready))
    }

    /// Evicts until `bytes` fit in `engine`'s buffer while task `tid` runs
    /// there: its operands and its output are pinned. Returns `false` when
    /// the data cannot fit (streamed instead of cached).
    fn make_room(&mut self, engine: usize, bytes: u64, t: u64, tid: TaskId) -> bool {
        if bytes > self.buffers[engine].capacity() {
            return false;
        }
        let free = self.buffers[engine].free();
        if free >= bytes {
            return true;
        }
        self.pin_gen = self.pin_gen.wrapping_add(1);
        if self.pin_gen == 0 {
            // The generation wrapped: clear stale stamps before reuse.
            self.pin_stamp.fill(0);
            self.pin_gen = 1;
        }
        let gen = self.pin_gen;
        self.pin_stamp[tid.index()] = gen;
        for &op in self.rows.slots(tid) {
            self.pin_stamp[op as usize] = gen;
        }
        let stamps = &self.pin_stamp;
        let victims = self.buffers[engine].pick_victims(
            self.cfg.eviction,
            self.round_idx,
            bytes - free,
            &|s: u32| stamps[s as usize] == gen,
        );
        for victim in victims {
            self.evict(victim, engine, t);
        }
        self.buffers[engine].free() >= bytes
    }

    /// Removes `victim` from `engine`, writing it back to DRAM when it is
    /// the last copy of dirty, still-needed data.
    fn evict(&mut self, victim: u32, engine: usize, t: u64) {
        let bytes = self.buffers[engine].remove(victim).unwrap_or(0);
        self.copies.remove(victim, engine);
        let v = victim as usize;
        if !self.loc_present[v] {
            return;
        }
        let still_needed = self.remaining_uses[v] > 0;
        if self.copies.is_empty(victim) && !self.in_dram[v] {
            if still_needed {
                // Dirty write-back (does not block the engine: write-behind,
                // but occupies the shared channel).
                self.hbm.write(t, bytes);
            }
            self.in_dram[v] = true;
        }
    }

    fn into_stats(self) -> SimStats {
        self.stats()
    }

    /// Snapshot of the statistics so far (also used for the partial stats
    /// of a failure report).
    fn stats(&self) -> SimStats {
        let engines = self.cfg.engines();
        let pes = self.cfg.engine.pe_count();
        let total_macs = self.macs_done;
        let total_cycles = self.now.max(1);
        let busy_total: u64 = self.engine_busy.iter().sum();

        let pe_utilization =
            total_macs as f64 / (total_cycles as f64 * engines as f64 * pes as f64);
        let compute_utilization = if busy_total == 0 {
            0.0
        } else {
            total_macs as f64 / (busy_total as f64 * pes as f64)
        };
        let noc_overhead = self.noc_blocked as f64 / (total_cycles as f64 * engines as f64);
        let served = self.onchip_served + self.dram_served;
        let onchip_reuse_ratio = if served == 0 {
            0.0
        } else {
            self.onchip_served as f64 / served as f64
        };

        let energy = EnergyBreakdown {
            compute_pj: self.compute_energy_pj,
            noc_pj: self.traffic.energy_pj(),
            dram_pj: self.hbm.energy_pj(),
            static_pj: engines as f64
                * self
                    .cfg
                    .engine
                    .energy
                    .static_pj(total_cycles, self.cfg.engine.freq_mhz),
        };

        SimStats {
            total_cycles,
            rounds: self.rounds_done,
            tasks: self.completed.len(),
            engine_busy_cycles: self.engine_busy.clone(),
            engine_blocked_cycles: self.engine_blocked.clone(),
            total_macs,
            pe_utilization,
            compute_utilization,
            noc_blocked_cycles: self.noc_blocked,
            dram_blocked_cycles: self.dram_blocked,
            noc_overhead,
            dram_read_bytes: self.hbm.read_bytes(),
            dram_write_bytes: self.hbm.write_bytes(),
            onchip_served_bytes: self.onchip_served,
            dram_served_bytes: self.dram_served,
            onchip_reuse_ratio,
            noc_bytes: self.traffic.total_bytes(),
            noc_byte_hops: self.traffic.total_byte_hops(),
            energy,
            degradation: self.degradation,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{DataId, Operand, Task, TaskTableBuilder};

    fn sim() -> Simulator {
        Simulator::new(SimConfig::paper_default())
    }

    #[test]
    fn empty_program_runs() {
        let p = Program::default();
        let s = sim().run(&p).unwrap();
        assert_eq!(s.rounds, 0);
        assert_eq!(s.tasks, 0);
    }

    #[test]
    fn single_task_reads_weights_from_dram() {
        let mut t = TaskTableBuilder::default();
        let a = t.push(
            Task::compute(1000, 256_000, 4096),
            &[Operand::external(DataId(1), 2048)],
        );
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        let s = sim().run(&p).unwrap();
        // Load (100 latency + ceil(2048/256)=8 -> 108) hides behind the
        // 1000-cycle compute (double buffering).
        assert_eq!(s.total_cycles, 1000);
        assert_eq!(s.dram_read_bytes, 2048);
        assert_eq!(s.dram_served_bytes, 2048);
        assert_eq!(s.onchip_reuse_ratio, 0.0);
    }

    #[test]
    fn local_reuse_is_free() {
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(100, 0, 4096), &[]);
        let b = t.push(Task::compute(100, 0, 64), &[Operand::task(a, 4096)]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 3)]);
        p.push_round(vec![(b, 3)]); // same engine: operand already local
        let s = sim().run(&p).unwrap();
        assert_eq!(s.total_cycles, 200);
        assert_eq!(s.dram_read_bytes, 0);
        assert_eq!(s.noc_bytes, 0);
        assert!(s.onchip_reuse_ratio > 0.99);
    }

    #[test]
    fn cross_engine_reuse_uses_noc() {
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(100, 0, 4096), &[]);
        let b = t.push(Task::compute(100, 0, 64), &[Operand::task(a, 4096)]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(b, 1)]); // adjacent engine
        let s = sim().run(&p).unwrap();
        // Transfer: 1 hop + 4096/64 = 65 cycles, hidden behind compute.
        assert_eq!(s.total_cycles, 100 + 100);
        assert_eq!(s.noc_bytes, 4096);
        assert_eq!(s.noc_byte_hops, 4096);
        assert_eq!(s.dram_read_bytes, 0);
    }

    #[test]
    fn weights_cached_across_rounds() {
        let w = Operand::external(DataId(9), 1024);
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(10, 0, 0), &[w]);
        let b = t.push(Task::compute(10, 0, 0), &[w]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 2)]);
        p.push_round(vec![(b, 2)]); // same engine: second use hits the buffer
        let s = sim().run(&p).unwrap();
        assert_eq!(s.dram_read_bytes, 1024);
        assert_eq!(s.onchip_served_bytes, 1024);
        assert!((s.onchip_reuse_ratio - 0.5).abs() < 1e-9);
    }

    #[test]
    fn weight_multicast_from_peer_engine() {
        let w = Operand::external(DataId(9), 1024);
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(10, 0, 0), &[w]);
        let b = t.push(Task::compute(10, 0, 0), &[w]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(b, 1)]); // fetches from engine 0, not DRAM
        let s = sim().run(&p).unwrap();
        assert_eq!(s.dram_read_bytes, 1024);
        assert_eq!(s.noc_bytes, 1024);
    }

    #[test]
    fn dram_output_flag_forces_offchip_roundtrip() {
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(10, 0, 2048), &[]);
        let b = t.push(Task::compute(10, 0, 64), &[Operand::task(a, 2048)]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(b, 0)]); // same engine, but data went to DRAM
        p.set_dram_outputs(true);
        let s = sim().run(&p).unwrap();
        assert_eq!(s.dram_write_bytes, 2048 + 64); // a's output + final output b
        assert_eq!(s.dram_read_bytes, 2048);
    }

    #[test]
    fn final_outputs_written_back() {
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(10, 0, 512), &[]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        let s = sim().run(&p).unwrap();
        // No consumers -> network output -> DRAM.
        assert_eq!(s.dram_write_bytes, 512);
    }

    #[test]
    fn buffer_overflow_spills_dirty_data() {
        // Engine buffer is 128 KB; produce three 60 KB tensors on the same
        // engine, all consumed much later: the third insert must evict one.
        let mut t = TaskTableBuilder::default();
        let k60 = 60 * 1024;
        let a = t.push(Task::compute(10, 0, k60), &[]);
        let b = t.push(Task::compute(10, 0, k60), &[]);
        let c = t.push(Task::compute(10, 0, k60), &[]);
        let [ca, cb, cc] =
            [a, b, c].map(|x| t.push(Task::compute(10, 0, 0), &[Operand::task(x, k60)]));
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(b, 0)]);
        p.push_round(vec![(c, 0)]);
        p.push_round(vec![(ca, 0)]);
        p.push_round(vec![(cb, 0)]);
        p.push_round(vec![(cc, 0)]);
        let s = sim().run(&p).unwrap();
        // At least one tensor was written back and re-read.
        assert!(s.dram_write_bytes >= k60, "write {}", s.dram_write_bytes);
        assert!(s.dram_read_bytes >= k60, "read {}", s.dram_read_bytes);
    }

    #[test]
    fn tensor_larger_than_buffer_streams_through_dram() {
        // A 64 KB tensor can never sit in a 4 KB buffer: the producer must
        // spill it to DRAM and the consumer must stream it back, with the
        // buffer never overflowing (debug asserts would fire) and the run
        // completing normally.
        let mut cfg = SimConfig::paper_default();
        cfg.engine = cfg.engine.with_buffer_bytes(4 * 1024);
        let big = 64 * 1024;
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(10, 0, big), &[]);
        let b = t.push(Task::compute(10, 0, 0), &[Operand::task(a, big)]);
        let c = t.push(Task::compute(10, 0, 0), &[Operand::task(a, big)]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(b, 0)]);
        p.push_round(vec![(c, 1)]);
        let s = Simulator::new(cfg).run(&p).unwrap();
        assert_eq!(s.dram_write_bytes, big, "oversized output must spill");
        // Both consumers re-read from DRAM — nothing could be cached.
        assert_eq!(s.dram_read_bytes, 2 * big);
        assert_eq!(s.onchip_served_bytes, 0);
    }

    #[test]
    fn evicting_the_only_onchip_copy_writes_back() {
        // `a`'s output lives only in engine 0's buffer and is still needed
        // in the final round. Filling the buffer with `b`'s output must
        // write `a` back to DRAM (not drop it), and the late consumer then
        // reads it from DRAM.
        let mut cfg = SimConfig::paper_default();
        cfg.engine = cfg.engine.with_buffer_bytes(100 * 1024);
        let k60 = 60 * 1024;
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(10, 0, k60), &[]);
        let b = t.push(Task::compute(10, 0, k60), &[]);
        let cb = t.push(Task::compute(10, 0, 0), &[Operand::task(b, k60)]);
        let ca = t.push(Task::compute(10, 0, 0), &[Operand::task(a, k60)]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(b, 0)]); // evicts a (b is pinned, a waits longest)
        p.push_round(vec![(cb, 0)]);
        p.push_round(vec![(ca, 0)]);
        let s = Simulator::new(cfg).run(&p).unwrap();
        assert_eq!(
            s.dram_write_bytes, k60,
            "the displaced only-copy must be written back"
        );
        assert_eq!(s.dram_read_bytes, k60, "its consumer re-reads it from DRAM");
    }

    #[test]
    fn zero_capacity_buffers_force_full_dram_traffic() {
        // A pathological configuration — no on-chip buffering at all — must
        // degrade to pure DRAM streaming, never panic or overflow.
        let mut cfg = SimConfig::paper_default();
        cfg.engine = cfg.engine.with_buffer_bytes(0);
        let w = Operand::external(DataId(9), 1024);
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(10, 0, 512), &[w]);
        let b = t.push(Task::compute(10, 0, 0), &[Operand::task(a, 512), w]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(b, 0)]);
        let s = Simulator::new(cfg).run(&p).unwrap();
        // The weight is fetched twice (no cache), a's output round-trips.
        assert_eq!(s.dram_read_bytes, 2 * 1024 + 512);
        assert_eq!(s.dram_write_bytes, 512);
        assert_eq!(s.onchip_served_bytes, 0);
    }

    #[test]
    fn dead_data_released_without_writeback() {
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(10, 0, 1024), &[]);
        let b = t.push(Task::compute(10, 0, 0), &[Operand::task(a, 1024)]);
        // After b, a is dead; produce lots more data on the same engine and
        // verify no write-back of a happens.
        let c = t.push(Task::compute(10, 0, 120 * 1024), &[]);
        let d = t.push(Task::compute(10, 0, 0), &[Operand::task(c, 120 * 1024)]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(b, 0)]);
        p.push_round(vec![(c, 0)]);
        p.push_round(vec![(d, 0)]);
        let s = sim().run(&p).unwrap();
        assert_eq!(s.dram_write_bytes, 0);
    }

    #[test]
    fn done_producer_output_is_read_from_dram() {
        // `a` ran in an earlier execution: `b` finds its output in DRAM,
        // then engine 1 serves the second read from its cached copy.
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(10, 0, 2048), &[]);
        let b = t.push(Task::compute(10, 0, 0), &[Operand::task(a, 2048)]);
        let c = t.push(Task::compute(10, 0, 0), &[Operand::task(a, 2048)]);
        let mut rest = Program::with_table(std::sync::Arc::new(t.build().unwrap()), vec![true]);
        rest.push_round(vec![(b, 1)]);
        rest.push_round(vec![(c, 1)]);
        let s = sim().run(&rest).unwrap();
        assert_eq!(s.tasks, 2);
        assert_eq!(s.dram_read_bytes, 2048);
        assert_eq!(s.onchip_served_bytes, 2048);
        assert_eq!(s.dram_write_bytes, 0, "a's output is not written again");
    }

    #[test]
    fn recovered_data_ranks_after_external_data_in_eviction_ties() {
        // `b` caches the recovered output of done task `p` (30 KiB) and
        // weight `w` (40 KiB) in one round, so FIFO ranks them equal. `c`'s
        // 50 KiB output then evicts one of them: the lower slot. Recovered
        // data slots after every external, so `w` goes, and `d` re-reads
        // its 40 KiB from DRAM.
        let k = 1024;
        let w = Operand::external(DataId(9), 40 * k);
        let mut t = TaskTableBuilder::default();
        let done = t.push(Task::compute(10, 0, 30 * k), &[]);
        let b = t.push(Task::compute(10, 0, 0), &[Operand::task(done, 30 * k), w]);
        let c = t.push(Task::compute(10, 0, 50 * k), &[]);
        let d = t.push(
            Task::compute(10, 0, 0),
            &[Operand::task(done, 30 * k), w, Operand::task(c, 50 * k)],
        );
        let mut rest = Program::with_table(std::sync::Arc::new(t.build().unwrap()), vec![true]);
        rest.push_round(vec![(b, 0)]);
        rest.push_round(vec![(c, 0)]);
        rest.push_round(vec![(d, 0)]);
        let mut cfg = SimConfig::paper_default();
        cfg.engine = cfg.engine.with_buffer_bytes(100 * k);
        cfg.eviction = EvictionKind::Fifo;
        let s = Simulator::new(cfg).run(&rest).unwrap();
        assert_eq!(s.dram_read_bytes, (30 + 40 + 40) * k);
    }

    #[test]
    fn utilization_accounts_wallclock() {
        let cfg = SimConfig::paper_default();
        let pes = cfg.engine.pe_count();
        let mut t = TaskTableBuilder::default();
        // One task, 1000 cycles, perfectly utilized on one engine.
        let a = t.push(Task::compute(1000, 1000 * pes, 0), &[]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        let s = Simulator::new(cfg).run(&p).unwrap();
        // 1 of 64 engines busy -> chip utilization 1/64.
        assert!((s.pe_utilization - 1.0 / 64.0).abs() < 1e-9);
        assert!((s.compute_utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_program_rejected() {
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(1, 0, 0), &[]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(a, 0)]);
        assert!(sim().run(&p).is_err());
    }

    #[test]
    fn over_reading_program_rejected() {
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(10, 0, 64), &[]);
        let b = t.push(Task::compute(10, 0, 0), &[Operand::task(a, 4096)]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(b, 1)]);
        assert_eq!(
            sim().run(&p),
            Err(SimError::Program(ProgramError::OverRead {
                instr: 1,
                task: b,
                producer: a,
                bytes: 4096,
                available: 64
            }))
        );
    }

    #[test]
    fn faulted_run_with_empty_plan_matches_run() {
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(100, 0, 4096), &[]);
        let b = t.push(Task::compute(100, 0, 64), &[Operand::task(a, 4096)]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(b, 1)]);
        let healthy = sim().run(&p).unwrap();
        match sim().run_faulted(&p, &FaultPlan::none()).unwrap() {
            FaultedOutcome::Completed(s) => {
                assert_eq!(s, healthy);
                assert!(s.degradation.is_healthy());
            }
            FaultedOutcome::Failed(r) => panic!("healthy plan failed: {r:?}"),
        }
    }

    #[test]
    fn engine_failure_with_pending_work_reports_failure() {
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(10, 0, 0), &[]);
        let b = t.push(Task::compute(10, 0, 0), &[]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(b, 0)]);
        let plan = FaultPlan::engine_fail(0, 5);
        match sim().run_faulted(&p, &plan).unwrap() {
            FaultedOutcome::Failed(r) => {
                assert_eq!(r.engine, 0);
                assert_eq!(r.round, 1, "round 0 completed before the fault landed");
                assert_eq!(r.cycle, 10);
                assert_eq!(r.completed, vec![a]);
                assert!(r.lost.is_empty(), "a had no output to lose");
                assert_eq!(r.partial.degradation.engine_failures, 1);
                assert_eq!(r.partial.degradation.lost_tasks, 1); // b never ran
                assert_eq!(r.partial.rounds, 1);
                assert_eq!(r.partial.tasks, 1);
            }
            FaultedOutcome::Completed(_) => panic!("dead engine 0 still had work"),
        }
    }

    #[test]
    fn engine_failure_after_last_task_completes_gracefully() {
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(10, 0, 0), &[]);
        let b = t.push(Task::compute(10, 0, 0), &[]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(b, 1)]); // engine 0 is never needed again
        let plan = FaultPlan::engine_fail(0, 5);
        match sim().run_faulted(&p, &plan).unwrap() {
            FaultedOutcome::Completed(s) => {
                assert_eq!(s.degradation.engine_failures, 1);
                assert_eq!(s.degradation.lost_tasks, 0);
                assert_eq!(s.tasks, 2);
            }
            FaultedOutcome::Failed(r) => panic!("should absorb the failure: {r:?}"),
        }
    }

    #[test]
    fn losing_the_only_output_copy_fails_the_run() {
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(10, 0, 1024), &[]);
        let filler = t.push(Task::compute(10, 0, 0), &[]);
        let b = t.push(Task::compute(10, 0, 0), &[Operand::task(a, 1024)]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(filler, 1)]);
        p.push_round(vec![(b, 1)]);
        // a's output lives only in engine 0's buffer when engine 0 dies.
        let plan = FaultPlan::engine_fail(0, 5);
        match sim().run_faulted(&p, &plan).unwrap() {
            FaultedOutcome::Failed(r) => {
                assert_eq!(r.round, 1);
                assert_eq!(r.lost, vec![a]);
                assert_eq!(r.completed, vec![a]);
            }
            FaultedOutcome::Completed(_) => panic!("a's output was destroyed"),
        }
    }

    #[test]
    fn link_failure_reroutes_and_counts() {
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(100, 0, 4096), &[]);
        let b = t.push(Task::compute(1, 0, 64), &[Operand::task(a, 4096)]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(b, 1)]);
        let healthy = sim().run(&p).unwrap();
        let plan = FaultPlan::none().with_event(FaultEvent {
            cycle: 0,
            kind: FaultKind::LinkFail { a: 0, b: 1 },
        });
        match sim().run_faulted(&p, &plan).unwrap() {
            FaultedOutcome::Completed(s) => {
                assert_eq!(s.degradation.dead_links, 1);
                assert_eq!(s.degradation.rerouted_transfers, 1);
                assert!(
                    s.total_cycles > healthy.total_cycles,
                    "detour ({}) should cost cycles over the direct path ({})",
                    s.total_cycles,
                    healthy.total_cycles
                );
            }
            FaultedOutcome::Failed(r) => panic!("link fault is survivable: {r:?}"),
        }
    }

    #[test]
    fn link_dying_mid_run_switches_from_hop_table_to_detours() {
        // Round 1 pulls `a` 0 -> 1 over healthy links (hop table). Link
        // 1-2 dies at the round-2 barrier, so round 2's pull from the
        // nearest copy (engine 1) detours 1 -> 9 -> 10 -> 2.
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(100, 0, 4096), &[]);
        let b = t.push(Task::compute(100, 0, 0), &[Operand::task(a, 4096)]);
        let c = t.push(Task::compute(100, 0, 0), &[Operand::task(a, 4096)]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(b, 1)]);
        p.push_round(vec![(c, 2)]);
        let healthy = sim().run(&p).unwrap();
        assert_eq!(healthy.degradation.rerouted_transfers, 0);
        let plan = FaultPlan::none().with_event(FaultEvent {
            cycle: 150,
            kind: FaultKind::LinkFail { a: 1, b: 2 },
        });
        match sim().run_faulted(&p, &plan).unwrap() {
            FaultedOutcome::Completed(s) => {
                assert_eq!(s.degradation.dead_links, 1);
                assert_eq!(s.degradation.rerouted_transfers, 1);
                assert_eq!(s.noc_bytes, healthy.noc_bytes);
            }
            FaultedOutcome::Failed(r) => panic!("link fault is survivable: {r:?}"),
        }
    }

    #[test]
    fn disconnected_transfer_without_dram_copy_is_unroutable() {
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(10, 0, 1024), &[]);
        let b = t.push(Task::compute(10, 0, 0), &[Operand::task(a, 1024)]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(b, 1)]);
        // Engine 0's only mesh links on the 8x8 grid are to 1 (east) and 8
        // (south); killing both isolates it with a's output inside.
        let plan = FaultPlan::none()
            .with_event(FaultEvent {
                cycle: 5,
                kind: FaultKind::LinkFail { a: 0, b: 1 },
            })
            .with_event(FaultEvent {
                cycle: 5,
                kind: FaultKind::LinkFail { a: 0, b: 8 },
            });
        let err = sim().run_faulted(&p, &plan).unwrap_err();
        assert_eq!(err, SimError::Unroutable { from: 0, to: 1 });
    }

    #[test]
    fn hbm_derate_slows_external_reads() {
        let mut t = TaskTableBuilder::default();
        let a = t.push(
            Task::compute(0, 0, 0),
            &[Operand::external(DataId(1), 64 * 1024)],
        );
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        let healthy = sim().run(&p).unwrap();
        let plan = FaultPlan::none().with_event(FaultEvent {
            cycle: 0,
            kind: FaultKind::HbmDerate { factor: 0.1 },
        });
        match sim().run_faulted(&p, &plan).unwrap() {
            FaultedOutcome::Completed(s) => {
                assert_eq!(s.degradation.hbm_derate, 0.1);
                assert!(s.total_cycles > 2 * healthy.total_cycles);
            }
            FaultedOutcome::Failed(r) => panic!("derate is survivable: {r:?}"),
        }
    }

    #[test]
    fn invalid_fault_targets_are_rejected() {
        let p = Program::default();
        let bad_engine = FaultPlan::engine_fail(999, 0);
        assert!(matches!(
            sim().run_faulted(&p, &bad_engine),
            Err(SimError::InvalidFaultTarget { .. })
        ));
        let bad_link = FaultPlan::none().with_event(FaultEvent {
            cycle: 0,
            kind: FaultKind::LinkFail { a: 0, b: 5 },
        });
        assert!(matches!(
            sim().run_faulted(&p, &bad_link),
            Err(SimError::InvalidFaultTarget { .. })
        ));
        let bad_derate = FaultPlan::none().with_event(FaultEvent {
            cycle: 0,
            kind: FaultKind::HbmDerate { factor: 0.0 },
        });
        assert!(matches!(
            sim().run_faulted(&p, &bad_derate),
            Err(SimError::InvalidFaultTarget { .. })
        ));
    }

    #[test]
    fn faulted_runs_are_deterministic() {
        let mut t = TaskTableBuilder::default();
        let a = t.push(Task::compute(10, 0, 1024), &[]);
        let b = t.push(Task::compute(10, 0, 0), &[Operand::task(a, 1024)]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(b, 0)]);
        let plan = FaultPlan::engine_fail(0, 5);
        let x = sim().run_faulted(&p, &plan).unwrap();
        let y = sim().run_faulted(&p, &plan).unwrap();
        assert_eq!(x, y);
    }

    #[test]
    fn round_barrier_synchronizes() {
        let mut t = TaskTableBuilder::default();
        let fast = t.push(Task::compute(10, 0, 0), &[]);
        let slow = t.push(Task::compute(500, 0, 0), &[]);
        let next = t.push(Task::compute(10, 0, 0), &[]);
        let mut p = Program::new(t.build().unwrap());
        p.push_round(vec![(fast, 0), (slow, 1)]);
        p.push_round(vec![(next, 0)]);
        let s = sim().run(&p).unwrap();
        // Round 1 ends at 500 (slowest atom), round 2 adds 10.
        assert_eq!(s.total_cycles, 510);
    }
}
