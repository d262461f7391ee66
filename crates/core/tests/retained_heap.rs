//! Heap an atomic DAG keeps alive, per operand row.
//!
//! Every producer edge and external read of a DAG is stored once, as one
//! row of its task table's operand columns (`in_slot` 4 B + `in_bytes`
//! 8 B), plus the DP scheduler's consumer list (4 B per producer edge) and
//! per-atom facts that amortize over the atom's rows. A second copy of the
//! edges (per-atom operand vectors, a producer CSR next to the rows) adds
//! 12–40 B per row and fails the bound below.
//!
//! The counting allocator is process-wide, so this binary holds a single
//! test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use atomic_dataflow::atomgen::{self, CandidateTable};
use atomic_dataflow::{AtomicDag, Exec, OptimizerConfig};
use dnn_graph::models;

/// Counts live heap bytes.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` unchanged; the counter only
// observes the sizes.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Retained heap allowed per operand row: the measured 21.6 B (ResNet-50,
/// granularity target 24, batch 1) with ≈ 16 % headroom.
const MAX_BYTES_PER_ROW: f64 = 25.0;

#[test]
fn resnet50_dag_retains_one_copy_of_each_edge() {
    let cfg = OptimizerConfig::paper_default();
    let graph = models::resnet50();
    let gen = cfg.atomgen_config(Some(24));
    let exec = Exec::with_threads(1);
    let table = CandidateTable::build(&graph, &gen, &cfg.sim.engine, cfg.dataflow, &exec);
    let specs = atomgen::generate(&graph, &table, &gen, None, &exec).specs;
    drop(table);

    let before = LIVE.load(Ordering::Relaxed);
    let dag = AtomicDag::build(&graph, &specs, cfg.batch, &cfg.sim.engine, cfg.dataflow);
    let retained = LIVE.load(Ordering::Relaxed).saturating_sub(before);
    let rows = dag.task_table().operand_count();
    let per_row = retained as f64 / rows as f64;
    println!(
        "{} atoms, {rows} operand rows, {retained} B retained, {per_row:.1} B per row",
        dag.atom_count()
    );
    assert!(
        rows > 100_000,
        "ResNet-50 at target 24 has ≈ 231k rows, got {rows}"
    );
    assert!(
        per_row <= MAX_BYTES_PER_ROW,
        "the DAG retains {per_row:.1} B per operand row (bound {MAX_BYTES_PER_ROW})"
    );
}
