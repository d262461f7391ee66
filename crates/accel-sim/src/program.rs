use std::fmt;
use std::sync::{Arc, OnceLock};

use ad_util::cast::u32_from_usize;

/// Identifier of a task within a [`TaskTable`] (dense, insertion-ordered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u32);

impl TaskId {
    /// The id as an index into [`Program::tasks`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Identifier of an *external* datum: data that originates in DRAM rather
/// than being produced by a task — weight slices and network-input regions.
/// The encoding is up to the program builder (e.g. `layer_id << 20 | slice`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DataId(pub u64);

/// One input of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// The output of another task (`bytes` of it).
    Task {
        /// Producing task.
        producer: TaskId,
        /// Bytes consumed.
        bytes: u64,
    },
    /// An external datum, initially resident in DRAM and cacheable on-chip
    /// (weights, network inputs).
    External {
        /// Datum identity (for on-chip reuse across tasks).
        id: DataId,
        /// Bytes consumed.
        bytes: u64,
    },
}

impl Operand {
    /// Convenience constructor for a task-output operand.
    pub fn task(producer: TaskId, bytes: u64) -> Self {
        Operand::Task { producer, bytes }
    }

    /// Convenience constructor for an external operand.
    pub fn external(id: DataId, bytes: u64) -> Self {
        Operand::External { id, bytes }
    }

    /// Bytes this operand contributes.
    pub fn bytes(&self) -> u64 {
        match self {
            Operand::Task { bytes, .. } | Operand::External { bytes, .. } => *bytes,
        }
    }
}

/// One schedulable unit of work: an atom, a layer partition, or a pipeline
/// chunk, depending on the strategy that produced the program. A task
/// holds only its compute facts; its operands live in the rows of the
/// [`TaskTable`] it belongs to.
#[derive(Debug, Clone)]
pub struct Task {
    /// Compute cycles on the engine (from `engine-model`).
    pub compute_cycles: u64,
    /// MAC operations (for PE-utilization statistics; 0 for vector work).
    pub macs: u64,
    /// Bytes of output produced.
    pub output_bytes: u64,
    /// On-engine energy (MAC + SRAM) in picojoules.
    pub compute_energy_pj: f64,
    /// Grouping tag for statistics (typically the source layer id).
    pub tag: u32,
    /// When `true`, the output bypasses the on-chip buffer and is written
    /// straight to DRAM; consumers will read it from DRAM. Used by the
    /// CNN-Partition baseline, whose CLPs always communicate through
    /// off-chip memory (Sec. II-B).
    pub dram_output: bool,
}

impl Task {
    /// A compute task with sensible defaults (`tag = 0`, buffered output,
    /// zero explicit energy).
    pub fn compute(compute_cycles: u64, macs: u64, output_bytes: u64) -> Self {
        Self {
            compute_cycles,
            macs,
            output_bytes,
            compute_energy_pj: 0.0,
            tag: 0,
            dram_output: false,
        }
    }

    /// Sets the statistics tag (builder style).
    pub fn with_tag(mut self, tag: u32) -> Self {
        self.tag = tag;
        self
    }

    /// Sets the on-engine energy (builder style).
    pub fn with_energy_pj(mut self, pj: f64) -> Self {
        self.compute_energy_pj = pj;
        self
    }

    /// Forces the output to DRAM (builder style).
    pub fn with_dram_output(mut self) -> Self {
        self.dram_output = true;
        self
    }
}

/// Structural problems detected by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProgramError {
    /// A round references a task id that does not exist.
    UnknownTask {
        /// Offending round.
        round: usize,
        /// Offending id.
        task: TaskId,
    },
    /// A task is scheduled more than once.
    DoubleScheduled(TaskId),
    /// A task is never scheduled.
    Unscheduled(TaskId),
    /// A task consumes a producer scheduled in the same or a later round.
    DependencyViolation {
        /// Consuming task.
        consumer: TaskId,
        /// Producing task.
        producer: TaskId,
    },
    /// Two tasks in one round are assigned to the same engine.
    EngineConflict {
        /// Offending round.
        round: usize,
        /// Offending engine.
        engine: usize,
    },
    /// An assignment targets an engine outside the mesh.
    EngineOutOfRange {
        /// Offending round.
        round: usize,
        /// Offending engine.
        engine: usize,
    },
    /// A task reads more bytes of a producer's output than the producer
    /// wrote (detected by [`Program::validate_with`]).
    OverRead {
        /// Round-major instruction index of the consuming assignment.
        instr: usize,
        /// Consuming task.
        task: TaskId,
        /// Producing task.
        producer: TaskId,
        /// Bytes requested.
        bytes: u64,
        /// Bytes the producer actually outputs.
        available: u64,
    },
    /// A buffered task output exceeds the per-engine buffer capacity
    /// (detected by [`Program::validate_with`] when a capacity is given).
    BufferOverflow {
        /// Round-major instruction index of the offending assignment.
        instr: usize,
        /// Offending task.
        task: TaskId,
        /// Engine the task runs on.
        engine: usize,
        /// Bytes the task writes to its local buffer.
        bytes: u64,
        /// Buffer capacity in bytes.
        capacity: u64,
    },
}

impl fmt::Display for ProgramError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProgramError::UnknownTask { round, task } => {
                write!(f, "round {round} references unknown task {task}")
            }
            ProgramError::DoubleScheduled(t) => write!(f, "task {t} scheduled more than once"),
            ProgramError::Unscheduled(t) => write!(f, "task {t} never scheduled"),
            ProgramError::DependencyViolation { consumer, producer } => {
                write!(
                    f,
                    "task {consumer} runs no later than its producer {producer}"
                )
            }
            ProgramError::EngineConflict { round, engine } => {
                write!(f, "round {round} assigns engine {engine} twice")
            }
            ProgramError::EngineOutOfRange { round, engine } => {
                write!(f, "round {round} targets engine {engine} outside the mesh")
            }
            ProgramError::OverRead {
                instr,
                task,
                producer,
                bytes,
                available,
            } => {
                write!(
                    f,
                    "instruction {instr}: task {task} reads {bytes} bytes of {producer}, \
                     which outputs only {available}"
                )
            }
            ProgramError::BufferOverflow {
                instr,
                task,
                engine,
                bytes,
                capacity,
            } => {
                write!(
                    f,
                    "instruction {instr}: task {task} on engine {engine} writes {bytes} \
                     bytes into a {capacity}-byte buffer"
                )
            }
        }
    }
}

impl std::error::Error for ProgramError {}

/// The schedule-independent half of a [`Program`]: every task, indexed by
/// [`TaskId`], and one operand table the simulator executes from.
///
/// Every datum has a slot: task outputs first (slot = task index), then
/// the external data in ascending [`DataId`] order. Task `t` reads the
/// operand rows `in_off[t]..in_off[t + 1]`: `in_slot` names each datum
/// and `in_bytes` the bytes read of it.
///
/// A table is built once and shared (`Arc`) by every program scheduled
/// over it: the planner builds one per atomic DAG ([`TaskTable::from_rows`])
/// and every plan of that DAG — candidate judgments, refinements, recovery
/// replans — only adds its own rounds and done mask. Tasks added one at a
/// time ([`Program::push_task`]) append their bytes to the same rows; their
/// slots are resolved once, on first use, because an external's slot
/// depends on every task and external id in the table.
#[derive(Debug, Clone)]
pub struct TaskTable {
    tasks: Vec<Task>,
    in_off: Vec<usize>,
    in_bytes: Vec<u64>,
    /// What each operand added by [`TaskTable::push`] reads, in row order;
    /// empty for tables built from rows.
    pushed: Vec<Source>,
    slots: OnceLock<Slots>,
}

/// The datum an operand added by [`TaskTable::push`] reads.
#[derive(Debug, Clone, Copy)]
enum Source {
    Task(TaskId),
    External(DataId),
}

/// The slot half of a [`TaskTable`]'s rows and the task-only integrity
/// facts read off them.
#[derive(Debug, Clone)]
struct Slots {
    in_slot: Vec<u32>,
    /// Distinct external data, ascending (slots `tasks..tasks + len`).
    ext_ids: Vec<DataId>,
    /// The first `(consumer, producer)` operand naming a task outside the
    /// table, in task order.
    unknown_producer: Option<(TaskId, TaskId)>,
    /// Whether some task reads more bytes of a producer than it writes.
    over_read: bool,
}

/// A borrowed view of a [`TaskTable`]'s operand rows.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Operands<'a> {
    /// Distinct external data (slots `tasks..tasks + externals`).
    pub(crate) externals: usize,
    pub(crate) in_slot: &'a [u32],
    pub(crate) in_bytes: &'a [u64],
    pub(crate) in_off: &'a [usize],
    pub(crate) unknown_producer: Option<(TaskId, TaskId)>,
    pub(crate) over_read: bool,
}

impl Default for TaskTable {
    fn default() -> Self {
        Self::from_rows(Vec::new(), vec![0], Vec::new(), Vec::new(), Vec::new())
    }
}

impl TaskTable {
    /// A table over `tasks` whose operand rows are already laid out: task
    /// `t` reads `in_slot[k]`, `in_bytes[k]` for `k` in
    /// `in_off[t]..in_off[t + 1]`, and slot `tasks.len() + i` is the
    /// external datum `ext_ids[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not cover exactly `tasks.len()` tasks, if
    /// `ext_ids` is not strictly ascending, or if a slot names no datum.
    pub fn from_rows(
        tasks: Vec<Task>,
        in_off: Vec<usize>,
        in_slot: Vec<u32>,
        in_bytes: Vec<u64>,
        ext_ids: Vec<DataId>,
    ) -> Self {
        let n = tasks.len();
        assert!(
            in_off.len() == n + 1
                && in_off[0] == 0
                && in_off.is_sorted()
                && in_off[n] == in_slot.len()
                && in_slot.len() == in_bytes.len(),
            "operand rows must cover every task"
        );
        assert!(
            ext_ids.windows(2).all(|w| w[0] < w[1]),
            "external ids must be strictly ascending"
        );
        let mut over_read = false;
        for (&slot, &bytes) in in_slot.iter().zip(&in_bytes) {
            let slot = slot as usize;
            match tasks.get(slot) {
                Some(p) => over_read |= bytes > p.output_bytes,
                None => assert!(slot < n + ext_ids.len(), "slot {slot} names no datum"),
            }
        }
        Self {
            tasks,
            in_off,
            in_bytes,
            pushed: Vec::new(),
            slots: OnceLock::from(Slots {
                in_slot,
                ext_ids,
                unknown_producer: None,
                over_read,
            }),
        }
    }

    /// All tasks, indexed by [`TaskId`].
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The slots task `t` reads, in operand order (see [`TaskTable`]).
    pub fn operand_slots(&self, t: TaskId) -> &[u32] {
        &self.slots().in_slot[self.in_off[t.index()]..self.in_off[t.index() + 1]]
    }

    /// The bytes task `t` reads of each operand, in operand order.
    pub fn operand_bytes(&self, t: TaskId) -> &[u64] {
        &self.in_bytes[self.in_off[t.index()]..self.in_off[t.index() + 1]]
    }

    /// Number of operand rows: every operand of every task, counted once.
    pub fn operand_count(&self) -> usize {
        self.in_bytes.len()
    }

    /// The distinct external data, ascending: slot `tasks().len() + i`
    /// holds `external_ids()[i]`.
    pub fn external_ids(&self) -> &[DataId] {
        &self.slots().ext_ids
    }

    /// A copy whose tasks write straight to DRAM wherever `dram(id)` holds
    /// (the CNN-Partition lowering rule). The operand rows do not depend on
    /// the flag, so they are copied as they are.
    pub fn with_dram_outputs(&self, mut dram: impl FnMut(TaskId) -> bool) -> Self {
        let mut table = self.clone();
        for (i, t) in table.tasks.iter_mut().enumerate() {
            if dram(TaskId(u32_from_usize(i))) {
                t.dram_output = true;
            }
        }
        table
    }

    /// Appends `task` reading `inputs`; the slots are resolved again on
    /// the next use.
    fn push(&mut self, task: Task, inputs: &[Operand]) -> TaskId {
        if self.pushed.len() < self.in_bytes.len() {
            // Built from rows: recover what each operand reads.
            let n = self.tasks.len();
            let slots = self.slots();
            self.pushed = slots
                .in_slot
                .iter()
                .map(|&s| match (s as usize).checked_sub(n) {
                    Some(i) => Source::External(slots.ext_ids[i]),
                    None => Source::Task(TaskId(s)),
                })
                .collect();
        }
        let id = TaskId(u32_from_usize(self.tasks.len()));
        self.tasks.push(task);
        for op in inputs {
            self.pushed.push(match *op {
                Operand::Task { producer, .. } => Source::Task(producer),
                Operand::External { id, .. } => Source::External(id),
            });
            self.in_bytes.push(op.bytes());
        }
        self.in_off.push(self.in_bytes.len());
        self.slots = OnceLock::new();
        id
    }

    fn slots(&self) -> &Slots {
        self.slots.get_or_init(|| self.resolve())
    }

    /// Slots of the operands added by [`TaskTable::push`].
    fn resolve(&self) -> Slots {
        let n = self.tasks.len();
        let mut ext_ids: Vec<DataId> = self
            .pushed
            .iter()
            .filter_map(|s| match s {
                Source::External(id) => Some(*id),
                Source::Task(_) => None,
            })
            .collect();
        ext_ids.sort_unstable();
        ext_ids.dedup();

        let mut in_slot = Vec::with_capacity(self.pushed.len());
        let mut unknown_producer = None;
        let mut over_read = false;
        for t in 0..n {
            for k in self.in_off[t]..self.in_off[t + 1] {
                in_slot.push(match self.pushed[k] {
                    Source::Task(producer) => {
                        match self.tasks.get(producer.index()) {
                            Some(p) => over_read |= self.in_bytes[k] > p.output_bytes,
                            None => {
                                unknown_producer
                                    .get_or_insert((TaskId(u32_from_usize(t)), producer));
                            }
                        }
                        producer.0
                    }
                    // Present by construction: every external id was
                    // collected into `ext_ids` above.
                    Source::External(id) => {
                        u32_from_usize(n + ext_ids.binary_search(&id).unwrap_or(0))
                    }
                });
            }
        }
        Slots {
            in_slot,
            ext_ids,
            unknown_producer,
            over_read,
        }
    }

    pub(crate) fn operands(&self) -> Operands<'_> {
        let slots = self.slots();
        Operands {
            externals: slots.ext_ids.len(),
            in_slot: &slots.in_slot,
            in_bytes: &self.in_bytes,
            in_off: &self.in_off,
            unknown_producer: slots.unknown_producer,
            over_read: slots.over_read,
        }
    }
}

/// A fully scheduled workload, ready for simulation: a shared
/// [`TaskTable`], the rounds of `(task, engine)` assignments, and the
/// tasks already done.
///
/// A *done* task ran in an earlier, interrupted execution (fault
/// recovery): it is not scheduled again, and its consumers read its output
/// as recovered data that starts in DRAM. Every other (*pending*) task is
/// scheduled exactly once.
#[derive(Debug, Clone, Default)]
pub struct Program {
    table: Arc<TaskTable>,
    rounds: Vec<Vec<(TaskId, usize)>>,
    /// Indexed by task; missing entries are `false`.
    done: Vec<bool>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// A program over a shared task table with no rounds yet; `done` marks
    /// the tasks that already ran (empty = none).
    pub fn with_table(table: Arc<TaskTable>, done: Vec<bool>) -> Self {
        Self {
            table,
            rounds: Vec::new(),
            done,
        }
    }

    /// Adds a task reading `inputs` and returns its id. Tasks may be added
    /// in any order; only rounds define execution order. A table shared
    /// with other programs is copied first.
    pub fn push_task(&mut self, task: Task, inputs: &[Operand]) -> TaskId {
        Arc::make_mut(&mut self.table).push(task, inputs)
    }

    /// Appends a round of `(task, engine)` assignments.
    pub fn push_round(&mut self, assignments: Vec<(TaskId, usize)>) {
        self.rounds.push(assignments);
    }

    /// The shared task table.
    pub fn table(&self) -> &Arc<TaskTable> {
        &self.table
    }

    /// All tasks, indexed by [`TaskId`] — done ones included.
    pub fn tasks(&self) -> &[Task] {
        self.table.tasks()
    }

    /// The task with the given id.
    pub fn task(&self, id: TaskId) -> &Task {
        &self.table.tasks()[id.index()]
    }

    /// Whether the task already ran before this program starts.
    pub fn is_done(&self, id: TaskId) -> bool {
        self.done.get(id.index()).copied().unwrap_or(false)
    }

    /// Tasks this program has to run (the table minus the done tasks).
    pub fn pending_tasks(&self) -> usize {
        self.tasks().len()
            - self
                .done
                .iter()
                .take(self.tasks().len())
                .filter(|d| **d)
                .count()
    }

    fn pending(&self) -> impl Iterator<Item = &Task> {
        self.tasks()
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.done.get(*i).copied().unwrap_or(false))
            .map(|(_, t)| t)
    }

    /// The schedule: one entry per round.
    pub fn rounds(&self) -> &[Vec<(TaskId, usize)>] {
        &self.rounds
    }

    /// Total compute cycles of the pending tasks (Σ task cycles — a serial
    /// lower-bound proxy, not wall-clock).
    pub fn total_compute_cycles(&self) -> u64 {
        self.pending().map(|t| t.compute_cycles).sum()
    }

    /// Total MACs of the pending tasks.
    pub fn total_macs(&self) -> u64 {
        self.pending().map(|t| t.macs).sum()
    }

    pub(crate) fn operands(&self) -> Operands<'_> {
        self.table.operands()
    }

    /// Checks schedule integrity against a mesh of `engines` engines.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found (see its variants). A done
    /// task that is scheduled again counts as
    /// [`ProgramError::DoubleScheduled`]; a consumer of a done task needs
    /// no earlier round for it.
    pub fn validate(&self, engines: usize) -> Result<(), ProgramError> {
        let ops = self.operands();
        if let Some((consumer, producer)) = ops.unknown_producer {
            return Err(ProgramError::DependencyViolation { consumer, producer });
        }
        let n = self.tasks().len();
        let mut scheduled_round = vec![usize::MAX; n];
        for (r, round) in self.rounds.iter().enumerate() {
            let mut used = vec![false; engines];
            for (tid, engine) in round {
                if tid.index() >= n {
                    return Err(ProgramError::UnknownTask {
                        round: r,
                        task: *tid,
                    });
                }
                if *engine >= engines {
                    return Err(ProgramError::EngineOutOfRange {
                        round: r,
                        engine: *engine,
                    });
                }
                if scheduled_round[tid.index()] != usize::MAX || self.is_done(*tid) {
                    return Err(ProgramError::DoubleScheduled(*tid));
                }
                scheduled_round[tid.index()] = r;
                if used[*engine] {
                    return Err(ProgramError::EngineConflict {
                        round: r,
                        engine: *engine,
                    });
                }
                used[*engine] = true;
            }
        }
        for i in 0..n {
            let tid = TaskId(u32_from_usize(i));
            if self.is_done(tid) {
                continue;
            }
            let me = scheduled_round[i];
            if me == usize::MAX {
                return Err(ProgramError::Unscheduled(tid));
            }
            // Slots below `n` are task outputs, i.e. producers.
            for &p in self
                .table
                .operand_slots(tid)
                .iter()
                .filter(|&&s| (s as usize) < n)
            {
                let producer = TaskId(p);
                let pr = scheduled_round[producer.index()];
                if !self.is_done(producer) && (pr == usize::MAX || pr >= me) {
                    return Err(ProgramError::DependencyViolation {
                        consumer: tid,
                        producer,
                    });
                }
            }
        }
        Ok(())
    }

    /// Extended integrity check: everything [`Program::validate`] checks,
    /// plus a round-major instruction pass that rejects operand over-reads
    /// and — when `buffer_capacity` is given — buffered outputs that cannot
    /// fit an engine's local buffer at all.
    ///
    /// Errors from the instruction pass carry the index of the first
    /// offending instruction, counted round-major across
    /// [`Program::rounds`]. The capacity pass intentionally skips
    /// `dram_output` tasks (they bypass the buffer) and is opt-in because
    /// the simulator can legally spill over-capacity outputs to DRAM; pass
    /// `None` to audit structure only.
    ///
    /// # Errors
    ///
    /// Returns the first [`ProgramError`] found.
    pub fn validate_with(
        &self,
        engines: usize,
        buffer_capacity: Option<u64>,
    ) -> Result<(), ProgramError> {
        self.validate(engines)?;
        // Both passes below hunt task-only faults: skip the walk when the
        // table has none.
        let tasks = self.tasks();
        let ops = self.operands();
        if !ops.over_read && buffer_capacity.is_none() {
            return Ok(());
        }
        let mut instr = 0usize;
        for round in &self.rounds {
            for (tid, engine) in round {
                let task = &tasks[tid.index()];
                let (slots, bytes) = (
                    self.table.operand_slots(*tid),
                    self.table.operand_bytes(*tid),
                );
                for (&slot, &bytes) in slots.iter().zip(bytes) {
                    // Slots past the tasks are externals: `validate` has
                    // rejected producers outside the table.
                    let Some(p) = tasks.get(slot as usize) else {
                        continue;
                    };
                    let producer = TaskId(slot);
                    if bytes > p.output_bytes && !self.is_done(producer) {
                        return Err(ProgramError::OverRead {
                            instr,
                            task: *tid,
                            producer,
                            bytes,
                            available: p.output_bytes,
                        });
                    }
                }
                if let Some(capacity) = buffer_capacity {
                    if !task.dram_output && task.output_bytes > capacity {
                        return Err(ProgramError::BufferOverflow {
                            instr,
                            task: *tid,
                            engine: *engine,
                            bytes: task.output_bytes,
                            capacity,
                        });
                    }
                }
                instr += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_task_program() -> (Program, TaskId, TaskId) {
        let mut p = Program::new();
        let a = p.push_task(Task::compute(10, 100, 64), &[]);
        let b = p.push_task(Task::compute(20, 200, 32), &[Operand::task(a, 64)]);
        (p, a, b)
    }

    #[test]
    fn valid_program_passes() {
        let (mut p, a, b) = two_task_program();
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(b, 1)]);
        assert!(p.validate(4).is_ok());
        assert_eq!(p.total_compute_cycles(), 30);
        assert_eq!(p.total_macs(), 300);
    }

    #[test]
    fn same_round_dependency_rejected() {
        let (mut p, a, b) = two_task_program();
        p.push_round(vec![(a, 0), (b, 1)]);
        assert!(matches!(
            p.validate(4),
            Err(ProgramError::DependencyViolation { .. })
        ));
    }

    #[test]
    fn unscheduled_task_rejected() {
        let (mut p, a, _) = two_task_program();
        p.push_round(vec![(a, 0)]);
        assert!(matches!(p.validate(4), Err(ProgramError::Unscheduled(_))));
    }

    #[test]
    fn engine_conflict_rejected() {
        let mut p = Program::new();
        let a = p.push_task(Task::compute(1, 0, 0), &[]);
        let b = p.push_task(Task::compute(1, 0, 0), &[]);
        p.push_round(vec![(a, 2), (b, 2)]);
        assert!(matches!(
            p.validate(4),
            Err(ProgramError::EngineConflict { .. })
        ));
    }

    #[test]
    fn engine_range_checked() {
        let mut p = Program::new();
        let a = p.push_task(Task::compute(1, 0, 0), &[]);
        p.push_round(vec![(a, 64)]);
        assert!(matches!(
            p.validate(64),
            Err(ProgramError::EngineOutOfRange { .. })
        ));
    }

    #[test]
    fn double_schedule_rejected() {
        let mut p = Program::new();
        let a = p.push_task(Task::compute(1, 0, 0), &[]);
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(a, 1)]);
        assert!(matches!(
            p.validate(4),
            Err(ProgramError::DoubleScheduled(_))
        ));
    }

    #[test]
    fn over_read_reports_first_offending_instruction() {
        let mut p = Program::new();
        let a = p.push_task(Task::compute(10, 0, 64), &[]);
        // b reads 100 bytes of a, which only wrote 64.
        let b = p.push_task(Task::compute(10, 0, 32), &[Operand::task(a, 100)]);
        p.push_round(vec![(a, 0)]);
        p.push_round(vec![(b, 1)]);
        assert!(p.validate(4).is_ok()); // structural pass is blind to bytes
        match p.validate_with(4, None) {
            Err(ProgramError::OverRead {
                instr,
                task,
                producer,
                bytes,
                available,
            }) => {
                assert_eq!(instr, 1); // round-major: a is instr 0, b is 1
                assert_eq!(task, b);
                assert_eq!(producer, a);
                assert_eq!(bytes, 100);
                assert_eq!(available, 64);
            }
            other => panic!("expected OverRead, got {other:?}"),
        }
    }

    #[test]
    fn buffer_capacity_checked_when_requested() {
        let mut p = Program::new();
        let a = p.push_task(Task::compute(10, 0, 4096), &[]);
        p.push_round(vec![(a, 3)]);
        assert!(p.validate_with(4, None).is_ok());
        assert!(p.validate_with(4, Some(8192)).is_ok());
        match p.validate_with(4, Some(1024)) {
            Err(ProgramError::BufferOverflow {
                instr,
                task,
                engine,
                bytes,
                capacity,
            }) => {
                assert_eq!(instr, 0);
                assert_eq!(task, a);
                assert_eq!(engine, 3);
                assert_eq!(bytes, 4096);
                assert_eq!(capacity, 1024);
            }
            other => panic!("expected BufferOverflow, got {other:?}"),
        }
    }

    #[test]
    fn dram_output_exempt_from_capacity() {
        let mut p = Program::new();
        let a = p.push_task(Task::compute(10, 0, 4096).with_dram_output(), &[]);
        p.push_round(vec![(a, 0)]);
        assert!(p.validate_with(4, Some(1024)).is_ok());
    }

    #[test]
    fn done_tasks_satisfy_consumers_and_must_not_run_again() {
        let (p, a, b) = two_task_program();
        let table = Arc::clone(p.table());
        let mut rest = Program::with_table(Arc::clone(&table), vec![true]);
        rest.push_round(vec![(b, 1)]);
        assert!(rest.validate(4).is_ok(), "a is done, so b may run first");
        assert_eq!(rest.pending_tasks(), 1);
        assert_eq!(rest.total_macs(), 200);
        assert!(
            Arc::ptr_eq(rest.table(), &table),
            "programs share one table"
        );

        let mut again = Program::with_table(table, vec![true]);
        again.push_round(vec![(a, 0)]);
        again.push_round(vec![(b, 1)]);
        assert_eq!(again.validate(4), Err(ProgramError::DoubleScheduled(a)));
    }

    #[test]
    fn pushing_onto_a_shared_table_copies_it() {
        let (p, _, _) = two_task_program();
        let mut grown = p.clone();
        let c = grown.push_task(Task::compute(1, 0, 0), &[Operand::task(TaskId(1), 32)]);
        assert_eq!((p.tasks().len(), grown.tasks().len()), (2, 3));
        grown.push_round(vec![(TaskId(0), 0)]);
        grown.push_round(vec![(TaskId(1), 0)]);
        grown.push_round(vec![(c, 0)]);
        assert!(
            grown.validate(1).is_ok(),
            "the grown table re-derives its layout"
        );
    }

    #[test]
    fn producer_outside_the_table_is_a_dependency_violation() {
        let mut p = Program::new();
        let a = p.push_task(Task::compute(1, 0, 0), &[Operand::task(TaskId(7), 8)]);
        p.push_round(vec![(a, 0)]);
        assert_eq!(
            p.validate(1),
            Err(ProgramError::DependencyViolation {
                consumer: a,
                producer: TaskId(7)
            })
        );
    }

    #[test]
    fn operand_bytes_sum() {
        let mut p = Program::new();
        let t = p.push_task(
            Task::compute(1, 0, 0),
            &[
                Operand::external(DataId(1), 100),
                Operand::task(TaskId(0), 28),
            ],
        );
        assert_eq!(p.table().operand_bytes(t).iter().sum::<u64>(), 128);
    }

    /// Three tasks reading externals 9, 2, 9, 5, 2, 5 out of order: the
    /// externals take slots 3, 4, 5 in ascending id order, and each task
    /// output keeps slot = task index.
    fn out_of_order_externals() -> (Program, [TaskId; 3]) {
        let mut p = Program::new();
        let ext = |id, bytes| Operand::external(DataId(id), bytes);
        let a = p.push_task(Task::compute(10, 0, 64), &[ext(9, 10), ext(2, 20)]);
        let b = p.push_task(
            Task::compute(10, 0, 32),
            &[Operand::task(a, 100), ext(9, 10), ext(5, 30), ext(2, 5)],
        );
        let c = p.push_task(Task::compute(10, 0, 8), &[ext(5, 30), Operand::task(b, 40)]);
        (p, [a, b, c])
    }

    #[test]
    fn hand_built_external_slots_follow_id_order() {
        let (p, [a, b, c]) = out_of_order_externals();
        let table = p.table();
        assert_eq!(table.external_ids(), &[DataId(2), DataId(5), DataId(9)]);
        assert_eq!(table.operand_slots(a), &[5, 3]);
        assert_eq!(table.operand_slots(b), &[0, 5, 4, 3]);
        assert_eq!(table.operand_slots(c), &[4, 1]);
        assert_eq!(table.operand_bytes(b), &[100, 10, 30, 5]);

        let mut run = p.clone();
        run.push_round(vec![(a, 0)]);
        run.push_round(vec![(b, 1)]);
        run.push_round(vec![(c, 0)]);
        assert!(run.validate(2).is_ok());
        assert_eq!(
            run.validate_with(2, None),
            Err(ProgramError::OverRead {
                instr: 1,
                task: b,
                producer: a,
                bytes: 100,
                available: 64
            })
        );
        // With `a` done its over-read no longer counts; `c` is now the
        // second instruction and over-reads `b`.
        let mut rest = Program::with_table(Arc::clone(table), vec![true]);
        rest.push_round(vec![(b, 1)]);
        rest.push_round(vec![(c, 0)]);
        assert_eq!(
            rest.validate_with(2, None),
            Err(ProgramError::OverRead {
                instr: 1,
                task: c,
                producer: b,
                bytes: 40,
                available: 32
            })
        );
    }

    #[test]
    fn rows_built_tables_equal_pushed_ones_and_grow_alike() {
        let (p, _) = out_of_order_externals();
        let pushed = p.table();
        let n = pushed.tasks().len();
        let ids = || (0..n).map(|t| TaskId(u32_from_usize(t)));
        let rows = TaskTable::from_rows(
            pushed.tasks().to_vec(),
            std::iter::once(0)
                .chain(ids().scan(0, |end, t| {
                    *end += pushed.operand_slots(t).len();
                    Some(*end)
                }))
                .collect(),
            ids()
                .flat_map(|t| pushed.operand_slots(t).to_vec())
                .collect(),
            ids()
                .flat_map(|t| pushed.operand_bytes(t).to_vec())
                .collect(),
            pushed.external_ids().to_vec(),
        );
        let mut grown = [p.clone(), Program::with_table(Arc::new(rows), Vec::new())];
        for g in &mut grown {
            for t in ids() {
                assert_eq!(g.table().operand_slots(t), pushed.operand_slots(t));
                assert_eq!(g.table().operand_bytes(t), pushed.operand_bytes(t));
            }
            let mut run = g.clone();
            for (t, engine) in ids().zip([0, 1, 0]) {
                run.push_round(vec![(t, engine)]);
            }
            assert!(
                matches!(
                    run.validate_with(2, None),
                    Err(ProgramError::OverRead { instr: 1, .. })
                ),
                "both tables see the same over-read"
            );
            // One more task shifts every external slot up by one, and a
            // new smallest id shifts them once more.
            g.push_task(
                Task::compute(1, 0, 0),
                &[Operand::external(DataId(1), 4), Operand::task(TaskId(2), 8)],
            );
            assert_eq!(g.table().operand_slots(TaskId(1)), &[0, 7, 6, 5]);
            assert_eq!(g.table().operand_slots(TaskId(3)), &[4, 2]);
        }
        assert_eq!(
            grown[0].table().operand_slots(TaskId(0)),
            grown[1].table().operand_slots(TaskId(0))
        );
    }
}
