//! Atomic dataflow: graph-level workload orchestration for scalable DNN
//! accelerators — a reproduction of the HPCA 2022 paper by Zheng et al.
//!
//! Instead of binding whole DNN layers to fixed hardware regions, atomic
//! dataflow partitions every layer into *atoms* sized to the engine
//! micro-architecture, schedules the resulting atomic DAG in discrete
//! rounds of up to `N` parallel atoms, and maps each round's atoms onto the
//! 2-D engine mesh to maximize on-chip data reuse. The pipeline has three
//! cooperating stages (Fig. 4):
//!
//! 1. **Atomic tensor generation** ([`atomgen`], Alg. 1) — simulated
//!    annealing over a *unified cycle* target so atoms from different layers
//!    have near-equal execution time (genetic-algorithm and uniform
//!    generators included for the paper's comparisons and ablations).
//! 2. **Atomic DAG scheduling** ([`scheduler`], Alg. 2) — candidate-set
//!    maintenance with the paper's four priority rules, plus a bounded
//!    dynamic-programming lookahead over round combinations.
//! 3. **Atom–engine mapping** ([`mapping`], Sec. IV-C) — per-round
//!    placement minimizing NoC-hop-weighted `TransferCost` atom by atom;
//!    the buffering strategy (Alg. 3) is the `accel-sim` crate's
//!    `EvictionKind::InvalidOccupation` policy, configured from here.
//!
//! The stages are composed by the [`pipeline`] module: a [`PlanContext`]
//! IR accumulates the artifacts (graph → DAG → schedule → mapping →
//! program → stats) and each stage is a [`pipeline::Stage`] that records a
//! wall-time + summary [`StageReport`]. [`Optimizer`] generates atoms at
//! every candidate granularity, judges each distinct atomization once
//! through the rest of the pipeline and refines the winner — fanning out
//! on one persistent [`ad_util::WorkerPool`], with reductions in fixed
//! candidate order so results are byte-identical for every thread count —
//! and [`baselines`] expresses the paper's
//! comparison points (LS, CNN-P, IL-Pipe, Rammer, Ideal) as different
//! stage lists over the same machinery, so every strategy is measured
//! identically.
//!
//! Two robustness layers sit on top: the [`validate`] module independently
//! re-checks every plan against the paper's invariants before it is handed
//! out, in every build ([`admit`]; a violation is a bug, returned as
//! [`PipelineError::Validation`]), and [`PlanBudget`] bounds the DP
//! scheduling search so planning is *anytime* — on exhaustion the best
//! plan so far is returned ([`BudgetOutcome`]).
//!
//! ```rust
//! use atomic_dataflow::{Optimizer, OptimizerConfig};
//! use dnn_graph::models;
//!
//! let net = models::tiny_branchy();
//! let opt = Optimizer::new(OptimizerConfig::fast_test());
//! let result = opt.optimize(&net).unwrap();
//! assert!(result.stats.pe_utilization > 0.0);
//! ```

pub mod atom;
pub mod atomgen;
mod atomic_dag;
pub mod baselines;
mod error;
mod exec;
mod lower;
pub mod mapping;
mod optimizer;
pub mod pipeline;
mod recovery;
pub mod request;
pub mod scheduler;
pub mod validate;

pub use atom::{AtomCoords, AtomCost, AtomSpec, Range};
pub use atomgen::{AtomGenConfig, AtomGenMode, GenReport, SaParams};
pub use atomic_dag::{Atom, AtomId, AtomicDag, CostInterner, Preds, PredsIter, MAX_BATCH};
pub use error::PipelineError;
pub use exec::Exec;
pub use lower::{lower_remaining, lower_to_program};
pub use mapping::{Mapper, MappingAlgo, MappingError};
pub use optimizer::{OptimizeResult, Optimizer, OptimizerConfig, Strategy};
pub use pipeline::{Pipeline, PlanContext, PlanOutcome, Stage, StageReport};
pub use recovery::{
    replan_attempt, run_with_recovery, run_with_recovery_traced, LadderRung, RecoveryConfig,
    RecoveryOutcome, RecoveryTrace,
};
pub use request::{
    config_fingerprint, plan, AdmissionRefusal, PlanDetail, PlanRequest, PlanResponse,
};
pub use scheduler::{
    Schedule, ScheduleError, ScheduleMode, Scheduler, SchedulerConfig, SearchWork,
};
pub use validate::{admit, Artifact, BudgetOutcome, Invariant, PlanBudget, ValidationError};
