//! The unified error type of the optimization pipeline.
//!
//! Every stage reports a typed error — [`ScheduleError`] from the DAG
//! scheduler, [`MappingError`] from the atom–engine mapper and
//! [`SimError`] from the system simulator — and [`PipelineError`] threads
//! them through [`crate::Optimizer::optimize`] and
//! [`crate::Strategy::run`] so callers can distinguish configuration
//! mistakes (zero engines, oversized rounds) from schedule-integrity bugs
//! without catching panics.

use accel_sim::{ProgramError, SimError};

use crate::mapping::MappingError;
use crate::scheduler::ScheduleError;
use crate::validate::ValidationError;

/// Any error raised while scheduling, mapping, lowering or simulating a
/// workload.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineError {
    /// The scheduling stage failed.
    Schedule(ScheduleError),
    /// The mapping stage failed.
    Mapping(MappingError),
    /// The simulator rejected or aborted the lowered program.
    Sim(SimError),
    /// A [`crate::pipeline::Stage`] ran before a prerequisite stage
    /// deposited the artifact it consumes (e.g. mapping before scheduling):
    /// the composed stage list itself is malformed.
    StageOrder {
        /// The stage that could not run.
        stage: &'static str,
        /// The missing [`crate::pipeline::PlanContext`] artifact.
        missing: &'static str,
    },
    /// Plan admission ([`crate::validate::admit`]) rejected an artifact of
    /// a plan about to be handed out: a planner bug, naming the invariant.
    Validation(ValidationError),
    /// The requested batch size is outside `1..=`[`crate::MAX_BATCH`].
    BatchOutOfRange {
        /// The requested batch size.
        batch: usize,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Schedule(e) => write!(f, "scheduling failed: {e}"),
            PipelineError::Mapping(e) => write!(f, "mapping failed: {e}"),
            PipelineError::Sim(e) => write!(f, "simulation failed: {e}"),
            PipelineError::StageOrder { stage, missing } => write!(
                f,
                "stage `{stage}` ran before the stage that produces `{missing}`"
            ),
            PipelineError::Validation(e) => write!(f, "validation failed: {e}"),
            PipelineError::BatchOutOfRange { batch } => {
                write!(f, "batch {batch} is outside 1..={}", crate::MAX_BATCH)
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Schedule(e) => Some(e),
            PipelineError::Mapping(e) => Some(e),
            PipelineError::Sim(e) => Some(e),
            PipelineError::StageOrder { .. } | PipelineError::BatchOutOfRange { .. } => None,
            PipelineError::Validation(e) => Some(e),
        }
    }
}

impl From<ValidationError> for PipelineError {
    fn from(e: ValidationError) -> Self {
        PipelineError::Validation(e)
    }
}

impl From<ScheduleError> for PipelineError {
    fn from(e: ScheduleError) -> Self {
        PipelineError::Schedule(e)
    }
}

impl From<MappingError> for PipelineError {
    fn from(e: MappingError) -> Self {
        PipelineError::Mapping(e)
    }
}

impl From<SimError> for PipelineError {
    fn from(e: SimError) -> Self {
        PipelineError::Sim(e)
    }
}

impl From<ProgramError> for PipelineError {
    fn from(e: ProgramError) -> Self {
        PipelineError::Sim(SimError::Program(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let s: PipelineError = ScheduleError::NoEngines.into();
        assert!(matches!(
            s,
            PipelineError::Schedule(ScheduleError::NoEngines)
        ));
        assert!(s.to_string().contains("scheduling failed"));

        let m: PipelineError = MappingError::RoundTooLarge {
            round_len: 9,
            engines: 4,
        }
        .into();
        assert!(m.to_string().contains("mapping failed"));

        let p: PipelineError = ProgramError::DoubleScheduled(accel_sim::TaskId(3)).into();
        assert!(matches!(p, PipelineError::Sim(SimError::Program(_))));
        assert!(p.to_string().contains("simulation failed"));

        use std::error::Error;
        assert!(p.source().is_some());
    }
}
