//! Umbrella crate for the Atomic Dataflow reproduction workspace.
//!
//! Re-exports every sub-crate so examples and integration tests can use a
//! single dependency:
//!
//! ```rust
//! use ad_repro::prelude::*;
//!
//! let net = models::resnet50();
//! assert!(net.layer_count() > 50);
//! ```

pub use accel_sim;
pub use atomic_dataflow;
pub use dnn_graph;
pub use engine_model;
pub use mem_model;
pub use noc_model;

/// Commonly used items from across the workspace.
pub mod prelude {
    pub use accel_sim::{
        DegradationStats, EvictionKind, FaultKind, FaultPlan, FaultRates, Program, SimConfig,
        SimError, SimStats, Simulator,
    };
    pub use atomic_dataflow::{
        baselines, run_with_recovery, AtomGenConfig, AtomGenMode, BudgetOutcome, MappingAlgo,
        Optimizer, OptimizerConfig, Pipeline, PipelineError, PlanBudget, PlanContext, PlanOutcome,
        RecoveryConfig, RecoveryOutcome, ScheduleMode, SchedulerConfig, Stage, StageReport,
        Strategy, ValidationError,
    };
    pub use dnn_graph::{models, Graph, Layer, LayerId, OpKind};
    pub use engine_model::{ConvTask, CostEstimate, Dataflow, EngineConfig};
    pub use mem_model::HbmConfig;
    pub use noc_model::{EngineCoord, MeshConfig};
}
