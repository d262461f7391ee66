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
/// chunk, depending on the strategy that produced the program.
#[derive(Debug, Clone)]
pub struct Task {
    /// Compute cycles on the engine (from `engine-model`).
    pub compute_cycles: u64,
    /// MAC operations (for PE-utilization statistics; 0 for vector work).
    pub macs: u64,
    /// Bytes of output produced.
    pub output_bytes: u64,
    /// Inputs gathered before compute starts.
    pub inputs: Vec<Operand>,
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
    pub fn compute(
        compute_cycles: u64,
        macs: u64,
        output_bytes: u64,
        inputs: Vec<Operand>,
    ) -> Self {
        Self {
            compute_cycles,
            macs,
            output_bytes,
            inputs,
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

    /// Total operand bytes.
    pub fn input_bytes(&self) -> u64 {
        self.inputs.iter().map(Operand::bytes).sum()
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
/// [`TaskId`], plus the operand layout the simulator executes from.
///
/// A table is built once and shared (`Arc`) by every program scheduled
/// over it: the planner builds one per atomic DAG, and every plan of that
/// DAG — candidate judgments, refinements, recovery replans — only adds
/// its own rounds and done mask. The operand layout and the task-only
/// integrity facts are derived with the table ([`TaskTable::new`]), or on
/// first use after [`Program::push_task`] grew it.
#[derive(Debug, Clone, Default)]
pub struct TaskTable {
    tasks: Vec<Task>,
    operands: OnceLock<Operands>,
}

/// Dense operand layout of a [`TaskTable`], derived once per table.
///
/// Every datum gets a slot: task outputs first (slot = task index), then
/// the external data in ascending [`DataId`] order. Task `t` reads
/// `in_slot[in_off[t]..in_off[t + 1]]`, with the same range of `in_bytes`
/// giving the bytes of each operand.
#[derive(Debug, Clone)]
pub(crate) struct Operands {
    /// Distinct external data (slots `tasks..tasks + externals`).
    pub(crate) externals: usize,
    pub(crate) in_slot: Vec<u32>,
    pub(crate) in_bytes: Vec<u64>,
    pub(crate) in_off: Vec<usize>,
    /// The first `(consumer, producer)` operand naming a task outside the
    /// table, in task order.
    pub(crate) unknown_producer: Option<(TaskId, TaskId)>,
    /// Whether some task reads more bytes of a producer than it writes.
    pub(crate) over_read: bool,
}

impl Operands {
    fn derive(tasks: &[Task]) -> Self {
        let n = tasks.len();
        let mut ext_ids: Vec<u64> = tasks
            .iter()
            .flat_map(|t| &t.inputs)
            .filter_map(|op| match op {
                Operand::External { id, .. } => Some(id.0),
                Operand::Task { .. } => None,
            })
            .collect();
        ext_ids.sort_unstable();
        ext_ids.dedup();

        let operands = tasks.iter().map(|t| t.inputs.len()).sum();
        let mut in_slot = Vec::with_capacity(operands);
        let mut in_bytes = Vec::with_capacity(operands);
        let mut in_off = Vec::with_capacity(n + 1);
        in_off.push(0);
        let mut unknown_producer = None;
        let mut over_read = false;
        for (i, t) in tasks.iter().enumerate() {
            for op in &t.inputs {
                let slot = match op {
                    Operand::Task { producer, bytes } => {
                        match tasks.get(producer.index()) {
                            Some(p) => over_read |= *bytes > p.output_bytes,
                            None => {
                                unknown_producer
                                    .get_or_insert((TaskId(u32_from_usize(i)), *producer));
                            }
                        }
                        producer.0
                    }
                    // Present by construction: every external id was
                    // collected into `ext_ids` above.
                    Operand::External { id, .. } => {
                        u32_from_usize(n + ext_ids.binary_search(&id.0).unwrap_or(0))
                    }
                };
                in_slot.push(slot);
                in_bytes.push(op.bytes());
            }
            in_off.push(in_slot.len());
        }
        Self {
            externals: ext_ids.len(),
            in_slot,
            in_bytes,
            in_off,
            unknown_producer,
            over_read,
        }
    }

    /// Slots read by task `t`, in operand order.
    pub(crate) fn slots(&self, t: TaskId) -> &[u32] {
        &self.in_slot[self.in_off[t.index()]..self.in_off[t.index() + 1]]
    }
}

impl TaskTable {
    /// A table over `tasks`, indexed by position, with its operand layout
    /// derived up front.
    pub fn new(tasks: Vec<Task>) -> Self {
        let table = Self {
            tasks,
            operands: OnceLock::new(),
        };
        table.operands();
        table
    }

    /// All tasks, indexed by [`TaskId`].
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// A copy whose tasks write straight to DRAM wherever `dram(id)` holds
    /// (the CNN-Partition lowering rule). The operand layout does not
    /// depend on the flag, so the derived one is kept.
    pub fn with_dram_outputs(&self, mut dram: impl FnMut(TaskId) -> bool) -> Self {
        let mut table = self.clone();
        for (i, t) in table.tasks.iter_mut().enumerate() {
            if dram(TaskId(u32_from_usize(i))) {
                t.dram_output = true;
            }
        }
        table
    }

    fn push(&mut self, task: Task) -> TaskId {
        let id = TaskId(u32_from_usize(self.tasks.len()));
        self.tasks.push(task);
        self.operands = OnceLock::new();
        id
    }

    pub(crate) fn operands(&self) -> &Operands {
        self.operands.get_or_init(|| Operands::derive(&self.tasks))
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

    /// Adds a task and returns its id. Tasks may be added in any order; only
    /// rounds define execution order. A table shared with other programs is
    /// copied first.
    pub fn push_task(&mut self, task: Task) -> TaskId {
        Arc::make_mut(&mut self.table).push(task)
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

    pub(crate) fn operands(&self) -> &Operands {
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
            for &p in ops.slots(tid).iter().filter(|&&s| (s as usize) < n) {
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
        if !self.operands().over_read && buffer_capacity.is_none() {
            return Ok(());
        }
        let mut instr = 0usize;
        for round in &self.rounds {
            for (tid, engine) in round {
                let task = &tasks[tid.index()];
                for op in &task.inputs {
                    if let Operand::Task { producer, bytes } = op {
                        let available = tasks[producer.index()].output_bytes;
                        if *bytes > available && !self.is_done(*producer) {
                            return Err(ProgramError::OverRead {
                                instr,
                                task: *tid,
                                producer: *producer,
                                bytes: *bytes,
                                available,
                            });
                        }
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
        let a = p.push_task(Task::compute(10, 100, 64, vec![]));
        let b = p.push_task(Task::compute(20, 200, 32, vec![Operand::task(a, 64)]));
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
        let a = p.push_task(Task::compute(1, 0, 0, vec![]));
        let b = p.push_task(Task::compute(1, 0, 0, vec![]));
        p.push_round(vec![(a, 2), (b, 2)]);
        assert!(matches!(
            p.validate(4),
            Err(ProgramError::EngineConflict { .. })
        ));
    }

    #[test]
    fn engine_range_checked() {
        let mut p = Program::new();
        let a = p.push_task(Task::compute(1, 0, 0, vec![]));
        p.push_round(vec![(a, 64)]);
        assert!(matches!(
            p.validate(64),
            Err(ProgramError::EngineOutOfRange { .. })
        ));
    }

    #[test]
    fn double_schedule_rejected() {
        let mut p = Program::new();
        let a = p.push_task(Task::compute(1, 0, 0, vec![]));
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
        let a = p.push_task(Task::compute(10, 0, 64, vec![]));
        // b reads 100 bytes of a, which only wrote 64.
        let b = p.push_task(Task::compute(10, 0, 32, vec![Operand::task(a, 100)]));
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
        let a = p.push_task(Task::compute(10, 0, 4096, vec![]));
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
        let a = p.push_task(Task::compute(10, 0, 4096, vec![]).with_dram_output());
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
        let c = grown.push_task(Task::compute(1, 0, 0, vec![Operand::task(TaskId(1), 32)]));
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
        let a = p.push_task(Task::compute(1, 0, 0, vec![Operand::task(TaskId(7), 8)]));
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
        let t = Task::compute(
            1,
            0,
            0,
            vec![
                Operand::external(DataId(1), 100),
                Operand::task(TaskId(0), 28),
            ],
        );
        assert_eq!(t.input_bytes(), 128);
    }
}
