//! Lowers a mapped atomic schedule to the strategy-agnostic simulator IR
//! ([`accel_sim::Program`]). Every strategy — atomic dataflow and all
//! baselines — goes through this same function, so the event-driven
//! simulator measures them identically.
//!
//! Lowering is split by what it depends on. The tasks depend only on the
//! DAG, so [`AtomicDag::build`] lays out their table once, while it derives
//! the edges (task id = atom id), and every plan of that DAG shares it; a
//! plan adds only its rounds, its done mask and whether its outputs go to
//! DRAM.

use std::sync::Arc;

use accel_sim::{Program, TaskId};

use crate::atomic_dag::{AtomId, AtomicDag};

/// Converts atoms + `(atom, engine)` rounds into a buffered [`Program`].
///
/// Task ids equal atom ids (`TaskId(a.0)`), so simulator statistics can be
/// joined back to atoms.
pub fn lower_to_program(dag: &AtomicDag, rounds: &[Vec<(AtomId, usize)>]) -> Program {
    lower_remaining(dag, rounds, false, &[])
}

/// Lowers only the atoms *not* marked `done` — the re-planned remainder of a
/// partially executed DAG after a hardware failure.
///
/// The program shares the DAG's task table, so task ids stay atom ids and
/// lowering costs O(scheduled atoms). Done atoms are the program's done
/// tasks: the simulator reads their outputs as recovered data in DRAM,
/// written back by the recovery layer. An empty `done` slice means
/// "nothing finished". `dram_outputs` sends every output straight to DRAM
/// (the CNN-Partition rule, [`Program::set_dram_outputs`]).
pub fn lower_remaining(
    dag: &AtomicDag,
    rounds: &[Vec<(AtomId, usize)>],
    dram_outputs: bool,
    done: &[bool],
) -> Program {
    let mut p = Program::with_table(Arc::clone(dag.task_table()), done.to_vec());
    p.set_dram_outputs(dram_outputs);
    for round in rounds {
        p.push_round(round.iter().map(|&(a, e)| (TaskId(a.0), e)).collect());
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomSpec;
    use crate::mapping::{Mapper, MappingAlgo};
    use crate::scheduler::{Scheduler, SchedulerConfig};
    use accel_sim::{Operand, Task};
    use dnn_graph::models;
    use engine_model::{Dataflow, EngineConfig};
    use noc_model::MeshConfig;

    fn build() -> (dnn_graph::Graph, AtomicDag) {
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
        let d = AtomicDag::build(
            &g,
            &specs,
            1,
            &EngineConfig::paper_default(),
            Dataflow::KcPartition,
        );
        (g, d)
    }

    fn mapped_rounds(d: &AtomicDag, engines: usize) -> Vec<Vec<(AtomId, usize)>> {
        let sched = Scheduler::new(d, SchedulerConfig::greedy(engines))
            .schedule()
            .unwrap();
        let mesh = MeshConfig::grid(4, 4);
        let mut mapper = Mapper::new(mesh, MappingAlgo::default());
        sched
            .rounds
            .iter()
            .map(|r| mapper.map_round(d, r).unwrap())
            .collect()
    }

    #[test]
    fn lowered_program_validates_and_simulates() {
        let (_, d) = build();
        let rounds = mapped_rounds(&d, 16);
        let p = lower_to_program(&d, &rounds);
        assert_eq!(p.tasks().len(), d.atom_count());
        assert_eq!(p.total_macs(), d.total_macs());
        let mut cfg = accel_sim::SimConfig::paper_default();
        cfg.mesh = MeshConfig::grid(4, 4);
        let stats = accel_sim::Simulator::new(cfg).run(&p).unwrap();
        assert!(stats.total_cycles > 0);
        assert!(stats.pe_utilization > 0.0);
    }

    #[test]
    fn dram_outputs_share_the_dags_task_table() {
        let (_, d) = build();
        let rounds = mapped_rounds(&d, 16);
        for dram_outputs in [false, true] {
            let p = lower_remaining(&d, &rounds, dram_outputs, &[]);
            assert_eq!(p.dram_outputs(), dram_outputs);
            assert!(
                Arc::ptr_eq(p.table(), d.task_table()),
                "lowering must not copy the task table"
            );
        }
    }

    /// The lowering this module did before task tables existed: pending
    /// atoms renumbered densely in atom order, edges from done producers
    /// turned into external reads of `3 << 62 | atom` (above every weight
    /// and input id).
    fn dense_renumbered_reference(
        d: &AtomicDag,
        rounds: &[Vec<(AtomId, usize)>],
        done: &[bool],
    ) -> Program {
        let mut tid_of = vec![u32::MAX; d.atom_count()];
        let mut next = 0u32;
        for (i, tid) in tid_of.iter_mut().enumerate() {
            if !done[i] {
                *tid = next;
                next += 1;
            }
        }
        let mut t = accel_sim::TaskTableBuilder::default();
        for (i, atom) in d.atoms().iter().enumerate() {
            if done[i] {
                continue;
            }
            let id = AtomId(ad_util::cast::u32_from_usize(i));
            let mut inputs: Vec<Operand> = d
                .preds(id)
                .iter()
                .map(|(a, b)| match tid_of[a.index()] {
                    u32::MAX => {
                        Operand::external(accel_sim::DataId(3u64 << 62 | u64::from(a.0)), b)
                    }
                    tid => Operand::task(TaskId(tid), b),
                })
                .collect();
            inputs.extend(d.externals(id).map(|(x, b)| Operand::external(x, b)));
            t.push(
                Task::compute(atom.cost.cycles, atom.cost.macs, atom.cost.output_bytes)
                    .with_tag(atom.layer.0)
                    .with_energy_pj(atom.cost.energy_pj),
                &inputs,
            );
        }
        let mut p = Program::new(t.build().unwrap());
        for round in rounds {
            p.push_round(
                round
                    .iter()
                    .map(|(a, e)| (TaskId(tid_of[a.index()]), *e))
                    .collect(),
            );
        }
        p
    }

    /// Marks the first `k` greedy rounds of `d` done, maps the rest on a
    /// `mesh` and demands that the shared-table program simulates exactly
    /// like the dense-renumbered one, at the default buffer and at
    /// `small_buffer` under every eviction policy.
    fn assert_remainder_matches_reference(
        d: &AtomicDag,
        mesh: MeshConfig,
        k: usize,
        small_buffer: u64,
    ) {
        let sched = Scheduler::new(d, SchedulerConfig::greedy(mesh.engines()))
            .schedule()
            .unwrap();
        let mut done = vec![false; d.atom_count()];
        for a in sched.rounds[..k].iter().flatten() {
            done[a.index()] = true;
        }
        let mut mapper = Mapper::new(mesh, MappingAlgo::default());
        let rounds: Vec<_> = sched.rounds[k..]
            .iter()
            .map(|r| mapper.map_round(d, r).unwrap())
            .collect();
        let p = lower_remaining(d, &rounds, false, &done);
        let reference = dense_renumbered_reference(d, &rounds, &done);

        assert_eq!(p.tasks().len(), d.atom_count(), "one task per atom");
        assert_eq!(p.pending_tasks(), reference.tasks().len());
        assert_eq!(p.total_macs(), reference.total_macs());
        for (round, mapped) in p.rounds().iter().zip(&rounds) {
            let atoms: Vec<_> = mapped.iter().map(|&(a, e)| (TaskId(a.0), e)).collect();
            assert_eq!(*round, atoms, "task ids are atom ids");
        }
        assert!(p.validate(mesh.engines()).is_ok());

        let mut cfg = accel_sim::SimConfig::paper_default();
        cfg.mesh = mesh;
        let mut configs = vec![cfg];
        for kind in [
            accel_sim::EvictionKind::InvalidOccupation,
            accel_sim::EvictionKind::Fifo,
        ] {
            let mut small = cfg;
            small.engine = small.engine.with_buffer_bytes(small_buffer);
            small.eviction = kind;
            configs.push(small);
        }
        for cfg in configs {
            let sim = accel_sim::Simulator::new(cfg);
            let got = sim.run(&p).unwrap();
            assert_eq!(
                got.to_json().to_compact(),
                sim.run(&reference).unwrap().to_json().to_compact(),
                "{k} rounds done, {} B buffers, {:?}",
                cfg.engine.buffer_bytes,
                cfg.eviction
            );
            assert_eq!(got.tasks, p.pending_tasks());
        }
    }

    #[test]
    fn lower_remaining_simulates_like_the_dense_renumbered_lowering() {
        let (_, d) = build();
        let mesh = MeshConfig::grid(4, 4);
        for k in [0, 1, 3] {
            assert_remainder_matches_reference(&d, mesh, k, 16 * 1024);
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
        let d = AtomicDag::build(
            &g,
            &specs,
            1,
            &EngineConfig::paper_default(),
            Dataflow::KcPartition,
        );
        assert_remainder_matches_reference(&d, MeshConfig::grid(8, 8), 40, 64 * 1024);
    }

    #[test]
    fn scheduling_a_done_atom_is_rejected() {
        let (_, d) = build();
        let mut done = vec![false; d.atom_count()];
        done[0] = true;
        let rounds = mapped_rounds(&d, 16);
        let p = lower_remaining(&d, &rounds, false, &done);
        assert_eq!(
            p.validate(16),
            Err(accel_sim::ProgramError::DoubleScheduled(TaskId(0)))
        );
    }

    #[test]
    fn all_outputs_to_dram_increases_offchip_traffic() {
        let (_, d) = build();
        let rounds = mapped_rounds(&d, 16);
        let mut cfg = accel_sim::SimConfig::paper_default();
        cfg.mesh = MeshConfig::grid(4, 4);
        let sim = accel_sim::Simulator::new(cfg);

        let buffered = sim.run(&lower_to_program(&d, &rounds)).unwrap();
        let spilled = sim.run(&lower_remaining(&d, &rounds, true, &[])).unwrap();
        assert!(spilled.dram_write_bytes > buffered.dram_write_bytes);
        assert!(spilled.total_cycles >= buffered.total_cycles);
    }
}
