//! Event-driven system simulator for multi-engine scalable DNN accelerators.
//!
//! The paper builds "an event-driven simulator to evaluate total execution
//! cost of scalable DNN accelerators" on top of MAESTRO (engine cycles),
//! Ramulator (HBM timing) and a 2D-mesh NoC model (Sec. V-A). This crate is
//! that simulator: it executes a *scheduled program* — rounds of tasks
//! assigned to engines (Sec. III's `Round` abstraction) — against
//! [`engine_model`], [`noc_model`] and [`mem_model`], tracking distributed
//! buffer contents, inter-engine transfers, off-chip traffic, energy and
//! utilization.
//!
//! The input IR ([`Program`]) is strategy-agnostic: the atomic-dataflow
//! optimizer and every baseline (LS, CNN-P, IL-Pipe, Rammer) lower to the
//! same representation, so all strategies are measured by identical
//! machinery. A program's tasks live in a [`TaskTable`] that many programs
//! can share; each program adds only its rounds, the tasks already done
//! and one flag that sends every output to DRAM (the CNN-Partition rule,
//! [`Program::set_dram_outputs`]). The table keeps every task's operands
//! in one flat operand table (slot and bytes per operand), laid out once
//! by [`TaskTable::from_rows`]; a hand-built table passes each task's
//! [`Operand`]s to a [`TaskTableBuilder`]. [`Program::validate`] is the
//! one integrity check, and every simulation runs it first.
//!
//! # Execution semantics
//!
//! - Rounds are barrier-synchronized: a round ends when its slowest engine
//!   finishes (Sec. III "synchronized by the last finished one").
//! - Each task first gathers operands: free if resident in the local buffer,
//!   a NoC transfer if resident on a peer engine (nearest copy by hops,
//!   ties to the lowest engine index; XY routing),
//!   a DRAM read otherwise (shared-bandwidth HBM channel). Staging is
//!   double-buffered: gathering overlaps compute, so a task takes
//!   `max(gather, compute)` cycles.
//! - Task outputs are written to the producing engine's buffer; overflow
//!   triggers the configured [`EvictionKind`] (the paper's Alg. 3
//!   *invalid-occupation* policy, or baseline policies), with dirty victims
//!   written back to DRAM. Network outputs, and every output of a program
//!   whose outputs go to DRAM, are written straight to DRAM.
//! - Data whose consumers have all executed is released without write-back
//!   (Alg. 3 lines 8–12).
//!
//! ```rust
//! use accel_sim::{Operand, Program, SimConfig, Simulator, Task, TaskTableBuilder};
//!
//! let mut t = TaskTableBuilder::default();
//! let a = t.push(Task::compute(1000, 0, 4096), &[]);
//! let b = t.push(Task::compute(800, 0, 2048), &[Operand::task(a, 4096)]);
//! let mut p = Program::new(t.build().unwrap());
//! p.push_round(vec![(a, 0)]);
//! p.push_round(vec![(b, 1)]); // consumes a's output over the NoC
//! let stats = Simulator::new(SimConfig::paper_default()).run(&p).unwrap();
//! assert!(stats.total_cycles >= 1800);
//! ```

mod buffer;
mod copyset;
mod fault;
mod program;
mod sim;
mod stats;

pub use buffer::{BufferState, Datum, EvictionKind};
pub use fault::{ChaosProfile, FaultConfigError, FaultEvent, FaultKind, FaultPlan, FaultRates};
pub use program::{
    DataId, Operand, Program, ProgramError, Task, TaskId, TaskTable, TaskTableBuilder,
};
pub use sim::{FailureReport, FaultedOutcome, SimConfig, SimError, Simulator};
pub use stats::{DegradationStats, EnergyBreakdown, SimStats};
