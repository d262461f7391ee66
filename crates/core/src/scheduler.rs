//! Atomic DAG scheduling (paper Sec. IV-B, Algorithm 2).
//!
//! Orders the atomic DAG into discrete *Rounds* of at most `N` atoms (one
//! per engine). The candidate set of executable atoms is maintained
//! incrementally; combinations are pruned with the paper's four priority
//! rules, which mirror the four parallelism sources of Fig. 6:
//!
//! 1. remaining atoms of *traversed* (started but unfinished) layers — their
//!    ifmaps/weights are already on-chip;
//! 2. atoms of untraversed layers at the shallowest ready depth — same-depth
//!    layers share inputs, freeing buffer capacity early;
//! 3. atoms of deeper, *dependent* layers whose own dependencies happen to
//!    be satisfied (implicit layer fusion);
//! 4. atoms of the next batch sample, only once the current sample cannot
//!    fill all engines.
//!
//! On top of the priority-greedy order, [`ScheduleMode::Dp`] explores a
//! bounded tree of alternative round combinations (Alg. 2's recursive
//! `DP(G')` with the combination space pruned to `branch` variants and the
//! recursion truncated at `lookahead` rounds, the tail estimated by the
//! remaining-work lower bound). The paper's own search is feasible only
//! because of the same pruning — exhaustive `C(P, N)` enumeration explodes.

use ad_util::cast::u32_from_usize;

use crate::atomic_dag::{AtomId, AtomicDag};

/// The scheduling result: atoms to launch at each round (`Schedule[t]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// `rounds[t]` — the atoms chosen at round `t` (≤ `N` of them).
    pub rounds: Vec<Vec<AtomId>>,
}

impl Schedule {
    /// Total number of rounds.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// `true` when no rounds were produced (empty DAG).
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Mean engine occupancy: scheduled atom slots / (rounds × N).
    pub fn occupancy(&self, engines: usize) -> f64 {
        if self.rounds.is_empty() {
            return 0.0;
        }
        let filled: usize = self.rounds.iter().map(Vec::len).sum();
        filled as f64 / (self.rounds.len() * engines) as f64
    }
}

/// Errors surfaced by [`Scheduler::schedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleError {
    /// The configuration requests zero engines, so no round can hold an
    /// atom.
    NoEngines,
    /// No atom is ready although `remaining` atoms are unscheduled — a
    /// dependency cycle. A well-formed [`AtomicDag`] cannot produce one;
    /// surfaced as an error (not a panic) so callers can diagnose corrupted
    /// or hand-built DAGs.
    LiveLock {
        /// Atoms still unscheduled when progress stopped.
        remaining: usize,
    },
    /// The completed-atom mask passed to
    /// [`Scheduler::schedule_remaining`] does not cover the DAG.
    MaskMismatch {
        /// Atoms in the DAG.
        expected: usize,
        /// Length of the mask supplied.
        got: usize,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::NoEngines => write!(f, "scheduler configured with zero engines"),
            ScheduleError::LiveLock { remaining } => write!(
                f,
                "live-lock: no ready atoms but {remaining} atoms remain unscheduled"
            ),
            ScheduleError::MaskMismatch { expected, got } => write!(
                f,
                "completed-atom mask covers {got} atoms but the DAG has {expected}"
            ),
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Search strategy for choosing each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleMode {
    /// Strict layer-topological order: each layer's atoms run in waves
    /// before the next layer starts (no cross-layer mixing). This is the
    /// "without graph-level scheduling" ablation of Fig. 10 — atoms, mapping
    /// and buffering still apply, but none of the Sec. IV-B parallelism.
    LayerOrder,
    /// Pure priority-rule list scheduling (Alg. 2's candidate rules without
    /// the DP lookahead).
    PriorityGreedy,
    /// Bounded dynamic-programming search over round combinations.
    Dp {
        /// Rounds of lookahead before falling back to the lower-bound
        /// estimate.
        lookahead: usize,
        /// Alternative combinations considered per round.
        branch: usize,
    },
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Number of engines `N` (atoms per round).
    pub engines: usize,
    /// Search mode.
    pub mode: ScheduleMode,
}

impl SchedulerConfig {
    /// Paper-style DP scheduling on `engines` engines.
    pub fn dp(engines: usize) -> Self {
        Self {
            engines,
            mode: ScheduleMode::Dp {
                lookahead: 2,
                branch: 3,
            },
        }
    }

    /// Greedy priority scheduling on `engines` engines.
    pub fn greedy(engines: usize) -> Self {
        Self {
            engines,
            mode: ScheduleMode::PriorityGreedy,
        }
    }
}

/// Schedules an [`AtomicDag`]. See the module docs.
#[derive(Debug)]
pub struct Scheduler<'a> {
    dag: &'a AtomicDag,
    cfg: SchedulerConfig,
    /// Optional cap on DP expansions ([`Scheduler::with_budget`]).
    budget: Option<u64>,
    /// Whether the DP lookahead may memoize `estimate` results in a
    /// transposition table (on unless a test turns it off to compare).
    #[cfg(test)]
    memo: bool,
    /// Routes the DP through the apply → estimate → undo leaf path and the
    /// full-sort variant selection that leaf pricing and partial selection
    /// replaced, so tests can compare the two.
    #[cfg(test)]
    reference: bool,
}

/// Deterministic work counts of one scheduling pass, for reporting only:
/// they never enter plan bytes or fingerprints.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchWork {
    /// Whether the expansion budget ([`Scheduler::with_budget`]) ran out.
    pub truncated: bool,
    /// DP lookahead nodes entered (`estimate` calls with lookahead left),
    /// memo hits included.
    pub nodes: u64,
    /// Nodes answered by the transposition table.
    pub memo_hits: u64,
    /// Rounds applied to the search state: one per committed round plus
    /// one per lookahead node entered.
    pub applies: u64,
}

/// Instance = one layer of one batch sample.
type Inst = usize;

/// SplitMix64 finalizer: the deterministic per-atom keys of the scheduled-
/// set hash and the probe mixing of [`MemoTable`].
fn mix64(x: u64) -> u64 {
    let mut x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Transposition-table key: (full state fingerprint, commutative hash of
/// the scheduled set, remaining lookahead).
type MemoKey = (u64, u64, u32);

/// Transposition table for the DP lookahead: open addressing with linear
/// probing. The workspace bans hash containers in planning crates (ad-lint
/// D1) because their iteration order is nondeterministic — this table is
/// never iterated, only probed with full-width keys, so determinism holds
/// while lookups stay O(1).
///
/// One table lives for exactly one scheduling pass, so the engine count,
/// the branching factor and the done-at-entry mask are constant over every
/// key it holds. A hit returns exactly what the recursion would recompute.
struct MemoTable {
    enabled: bool,
    /// Power-of-two slot array; `None` = empty.
    slots: Vec<Option<(MemoKey, u64)>>,
    len: usize,
}

impl MemoTable {
    fn new(enabled: bool) -> Self {
        Self {
            enabled,
            slots: if enabled {
                vec![None; 1024]
            } else {
                Vec::new()
            },
            len: 0,
        }
    }

    fn slot_of(&self, key: &MemoKey) -> usize {
        let h = key.0 ^ mix64(key.1 ^ u64::from(key.2));
        // Masking by the power-of-two slot count first keeps the value in
        // range on any pointer width.
        ad_util::cast::usize_from_u64(h & (self.slots.len() as u64 - 1))
    }

    fn get(&self, key: &MemoKey) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let mut i = self.slot_of(key);
        loop {
            match &self.slots[i] {
                Some((k, v)) if k == key => return Some(*v),
                Some(_) => i = (i + 1) & (self.slots.len() - 1),
                None => return None,
            }
        }
    }

    fn insert(&mut self, key: MemoKey, val: u64) {
        if !self.enabled {
            return;
        }
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow();
        }
        let mut i = self.slot_of(&key);
        loop {
            match &self.slots[i] {
                Some((k, _)) if *k == key => break,
                Some(_) => i = (i + 1) & (self.slots.len() - 1),
                None => {
                    self.len += 1;
                    break;
                }
            }
        }
        self.slots[i] = Some((key, val));
    }

    fn grow(&mut self) {
        let doubled = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![None; doubled]);
        for entry in old.into_iter().flatten() {
            let mut i = self.slot_of(&entry.0);
            while self.slots[i].is_some() {
                i = (i + 1) & (self.slots.len() - 1);
            }
            self.slots[i] = Some(entry);
        }
    }
}

/// One scheduling pass's DP search context: its transposition table,
/// expansion budget and work counts.
struct Search {
    memo: MemoTable,
    budget: SearchBudget,
    work: SearchWork,
}

/// Deterministic expansion budget for the DP lookahead ([`crate::PlanBudget`]'s
/// `dp_expansions`). One unit is charged per variant evaluated in
/// [`Scheduler::best_combo`] and per [`Scheduler::estimate`] entry; when the
/// pool runs dry the search degrades to the strict priority-order variant
/// (the greedy Alg. 2 answer) instead of aborting, and the truncation is
/// reported to the caller. Counting expansions — not wall-clock — keeps
/// budgeted runs byte-identical across machines and reruns.
struct SearchBudget {
    /// Units left; `u64::MAX` when unlimited.
    left: u64,
    /// Whether any `take` was ever refused.
    truncated: bool,
}

impl SearchBudget {
    fn new(limit: Option<u64>) -> Self {
        Self {
            left: limit.unwrap_or(u64::MAX),
            truncated: false,
        }
    }

    /// Charges `n` units; `false` (and latches `truncated`) once exhausted.
    fn take(&mut self, n: u64) -> bool {
        if self.left >= n {
            self.left -= n;
            true
        } else {
            self.truncated = true;
            false
        }
    }
}

/// Mutable scheduling state with journal-based undo (for DP rollouts).
///
/// Ready-instance bookkeeping is fully dense: membership in the former
/// ordered sets (`ready_started` / `ready_unstarted`) is derivable from
/// `ready[inst].is_empty()` and `started[inst]`, and their `(batch, depth,
/// layer)` iteration order is the static `layer_order` scan below — so the
/// sets themselves are gone and `apply`/`undo` touch no tree structures.
struct State<'a> {
    dag: &'a AtomicDag,
    nl: usize,
    indegree: Vec<u32>,
    /// Ready atoms per instance (FIFO in tile order for producer locality).
    ready: Vec<std::collections::VecDeque<AtomId>>,
    /// Instances with ≥ 1 scheduled atom.
    started: Vec<bool>,
    /// Layers sorted by `(depth, layer)` — the per-batch iteration order
    /// the ready-instance sets used to impose.
    layer_order: Vec<u32>,
    /// Atoms left per batch sample (rule 4).
    remaining_per_batch: Vec<usize>,
    /// Total atoms left.
    remaining: usize,
    /// Sum of compute cycles of remaining atoms (lower-bound heuristic).
    remaining_cycles: u64,
    /// Commutative (XOR) hash of the atoms scheduled in this pass,
    /// maintained incrementally by `apply`/`undo` for the transposition
    /// table.
    scheduled_hash: u64,
    /// Atoms already executed before this scheduling pass (recovery:
    /// re-scheduling the remainder of a partially run DAG). Never entered
    /// into ready queues.
    done: Vec<bool>,
    /// `apply` calls so far ([`SearchWork::applies`]).
    applies: u64,
}

/// Journal entry for undoing one applied round.
struct Applied {
    combo: Vec<AtomId>,
    /// `(instance, queue position, atom)` removals, in application order.
    removed: Vec<(Inst, usize, AtomId)>,
    /// Instances that flipped to started by this round.
    newly_started: Vec<Inst>,
    /// Atoms that became ready (pushed to the back of their queue).
    pushed: Vec<(Inst, AtomId)>,
}

impl<'a> State<'a> {
    /// State over the not-yet-executed remainder of `dag`. `done[i]` marks
    /// atoms that already ran (an empty slice marks none); their edges are
    /// treated as satisfied and they are never scheduled again.
    fn new(dag: &'a AtomicDag, done: &[bool]) -> Self {
        let is_done = |i: usize| done.get(i).copied().unwrap_or(false);
        let nl = dag.layer_count();
        let n_inst = nl * dag.batch();
        let indegree = (0..dag.atom_count())
            .map(|i| {
                let live_preds = dag
                    .preds(AtomId(u32_from_usize(i)))
                    .iter()
                    .filter(|(p, _)| !is_done(p.index()))
                    .count();
                u32_from_usize(live_preds)
            })
            .collect();
        let mut layer_order: Vec<u32> = (0..u32_from_usize(nl)).collect();
        layer_order.sort_by_key(|&l| (dag.layer_depth(dnn_graph::LayerId(l)), l));
        let mut st = State {
            dag,
            nl,
            indegree,
            ready: vec![std::collections::VecDeque::new(); n_inst],
            started: vec![false; n_inst],
            layer_order,
            remaining_per_batch: vec![0; dag.batch()],
            remaining: 0,
            remaining_cycles: 0,
            scheduled_hash: 0,
            done: (0..dag.atom_count()).map(is_done).collect(),
            applies: 0,
        };
        for (i, atom) in dag.atoms().iter().enumerate() {
            if st.done[i] {
                continue;
            }
            st.remaining += 1;
            st.remaining_cycles += atom.cost.cycles;
            st.remaining_per_batch[atom.batch as usize] += 1;
            if st.indegree[i] == 0 {
                let id = AtomId(u32_from_usize(i));
                let inst = st.inst_of(id);
                st.ready[inst].push_back(id);
            }
        }
        st
    }

    fn inst_of(&self, a: AtomId) -> Inst {
        let atom = self.dag.atom(a);
        atom.batch as usize * self.nl + atom.layer.index()
    }

    /// Order-sensitive hash of everything `estimate` depends on: the ready
    /// queues (contents *and* order — they are FIFO) and the started flags.
    /// Together with the commutative `scheduled_hash` this forms the
    /// transposition-table key.
    fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let fold = |h: &mut u64, v: u64| {
            *h = (*h ^ v).wrapping_mul(0x0000_0100_0000_01b3);
        };
        for (inst, q) in self.ready.iter().enumerate() {
            if q.is_empty() && !self.started[inst] {
                continue;
            }
            fold(
                &mut h,
                u64::from(u32_from_usize(inst)) << 1 | u64::from(self.started[inst]),
            );
            for a in q {
                fold(&mut h, u64::from(a.0).wrapping_add(1));
            }
        }
        h
    }

    /// Greedy priority-rule selection of up to `n` atoms (Alg. 2's pruned
    /// `Options`, first variant).
    ///
    /// Beyond the paper's four rules, the number of layer instances opened
    /// in one round is bounded: every open layer pins live tensors in the
    /// distributed buffers, and un-throttled mixing thrashes them (this is
    /// rule 2's stated rationale — "release the buffer capacity as early as
    /// possible" — applied as a hard cap).
    fn select_priority(&self, n: usize) -> Vec<AtomId> {
        const MAX_NEW_INSTANCES: usize = 8;
        let mut out = Vec::with_capacity(n);
        let batch = self.dag.batch();
        let mut opened = 0usize;
        for b in 0..batch {
            if out.len() == n {
                break;
            }
            if self.remaining_per_batch[b] == 0 {
                continue;
            }
            // Rule 1: started layers of this sample, then rules 2-3 by
            // depth. `layer_order` scans instances in exactly the `(depth,
            // layer)` order the ready sets used to be keyed by; instances
            // outside the (derived) set are skipped.
            for &layer in &self.layer_order {
                let inst = b * self.nl + layer as usize;
                if self.ready[inst].is_empty() || !self.started[inst] {
                    continue;
                }
                for a in &self.ready[inst] {
                    if out.len() == n {
                        return out;
                    }
                    out.push(*a);
                }
            }
            for &layer in &self.layer_order {
                let inst = b * self.nl + layer as usize;
                if self.ready[inst].is_empty() || self.started[inst] {
                    continue;
                }
                if opened >= MAX_NEW_INSTANCES {
                    break;
                }
                opened += 1;
                for a in &self.ready[inst] {
                    if out.len() == n {
                        return out;
                    }
                    out.push(*a);
                }
            }
            // Rule 4: continue to the next sample only because this one
            // could not fill all engines (loop continues naturally).
        }
        out
    }

    /// A wider pool (up to `cap` atoms) in priority order, for combination
    /// variants.
    fn select_pool(&self, cap: usize) -> Vec<AtomId> {
        self.select_priority(cap)
    }

    /// Applies a round, returning an undo journal.
    fn apply(&mut self, combo: &[AtomId]) -> Applied {
        self.applies += 1;
        let mut journal = Applied {
            combo: combo.to_vec(),
            removed: Vec::new(),
            newly_started: Vec::new(),
            pushed: Vec::new(),
        };
        // Remove the chosen atoms from their ready queues.
        for &a in combo {
            let inst = self.inst_of(a);
            let Some(pos) = self.ready[inst].iter().position(|x| *x == a) else {
                // Combos are always drawn from the ready queues; if that
                // contract is ever broken, skipping the atom keeps the
                // journal consistent instead of aborting the search.
                debug_assert!(false, "scheduled atom {a:?} must be in its ready queue");
                continue;
            };
            self.ready[inst].remove(pos);
            journal.removed.push((inst, pos, a));
            if !self.started[inst] {
                self.started[inst] = true;
                journal.newly_started.push(inst);
            }
            let atom = self.dag.atom(a);
            self.remaining -= 1;
            self.remaining_per_batch[atom.batch as usize] -= 1;
            self.remaining_cycles -= atom.cost.cycles;
            self.scheduled_hash ^= mix64(u64::from(a.0));
        }
        // Release successors (already-done successors never re-enter the
        // ready queues — only possible when resuming a partial run).
        for &a in combo {
            for &s in self.dag.succs(a) {
                let si = s.index();
                self.indegree[si] -= 1;
                if self.indegree[si] == 0 && !self.done[si] {
                    let inst = self.inst_of(s);
                    self.ready[inst].push_back(s);
                    journal.pushed.push((inst, s));
                }
            }
        }
        journal
    }

    /// Reverts the most recent [`State::apply`] (strict LIFO discipline).
    fn undo(&mut self, journal: Applied) {
        for (inst, a) in journal.pushed.iter().rev() {
            let back = self.ready[*inst].pop_back();
            debug_assert_eq!(back, Some(*a));
        }
        for &a in journal.combo.iter().rev() {
            for &s in self.dag.succs(a) {
                self.indegree[s.index()] += 1;
            }
        }
        for &(inst, pos, a) in journal.removed.iter().rev() {
            self.ready[inst].insert(pos, a);
            let atom = self.dag.atom(a);
            self.remaining += 1;
            self.remaining_per_batch[atom.batch as usize] += 1;
            self.remaining_cycles += atom.cost.cycles;
            self.scheduled_hash ^= mix64(u64::from(a.0));
        }
        for inst in journal.newly_started {
            self.started[inst] = false;
        }
    }

    /// Estimated cost of running `combo` as one round: the barrier is the
    /// slowest atom, plus a weight-opening penalty for layers whose weights
    /// are not yet on-chip (≈ DRAM fetch cycles at peak bandwidth).
    fn round_cost(&self, combo: &[AtomId]) -> u64 {
        let mut maxc = 0u64;
        let mut open_bytes = 0u64;
        for &a in combo {
            let atom = self.dag.atom(a);
            maxc = maxc.max(atom.cost.cycles);
            let inst = self.inst_of(a);
            if !self.started[inst] {
                open_bytes += atom.cost.weight_bytes;
            }
        }
        maxc + open_bytes / 256
    }

    /// Lower bound on the cycles needed for all remaining atoms.
    fn remaining_bound(&self, engines: usize) -> u64 {
        self.remaining_cycles / engines as u64
    }

    /// What a depth-0 estimate reads after `combo` runs, the remaining-work
    /// bound (0 once the combo empties the DAG), computed from the combo
    /// instead of applying and undoing it.
    fn bound_after(&self, combo: &[AtomId], engines: usize) -> u64 {
        let cycles: u64 = combo.iter().map(|a| self.dag.atom(*a).cost.cycles).sum();
        (self.remaining_cycles - cycles) / engines as u64
    }
}

impl<'a> Scheduler<'a> {
    /// Creates a scheduler over `dag`.
    pub fn new(dag: &'a AtomicDag, cfg: SchedulerConfig) -> Self {
        Self {
            dag,
            cfg,
            budget: None,
            #[cfg(test)]
            memo: true,
            #[cfg(test)]
            reference: false,
        }
    }

    /// Enables or disables the DP transposition table (on by default),
    /// so tests can pin that memoization is a pure speedup: `estimate` is
    /// a deterministic function of the search state, so a cached value
    /// equals what the recursion would recompute.
    #[cfg(test)]
    fn with_memo(mut self, enabled: bool) -> Self {
        self.memo = enabled;
        self
    }

    /// Caps the number of DP expansions (`None` = unlimited). One unit is
    /// charged per combination variant evaluated and per lookahead-estimate
    /// entry. When the budget runs out mid-search, every subsequent round
    /// degrades to the strict priority-order (greedy) variant, so the
    /// result is always a complete, valid schedule — the anytime property
    /// of [`crate::PlanBudget`]. A cap of `Some(0)` reproduces
    /// [`ScheduleMode::PriorityGreedy`] exactly. Budgeted runs stay
    /// deterministic: the cap counts expansions, never wall-clock.
    pub fn with_budget(mut self, budget: Option<u64>) -> Self {
        self.budget = budget;
        self
    }

    /// Runs the search and returns the round schedule.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::NoEngines`] if the configuration has zero engines;
    /// [`ScheduleError::LiveLock`] if no atom is ready while work remains
    /// (only possible on a cyclic, hand-built DAG).
    pub fn schedule(&self) -> Result<Schedule, ScheduleError> {
        self.schedule_remaining(&[])
    }

    /// Schedules only the atoms not marked in `done` (an empty slice marks
    /// none): the recovery path after an engine failure re-rounds the
    /// unfinished remainder of the DAG, treating completed atoms' outputs
    /// as satisfied dependencies.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::MaskMismatch`] when `done` is non-empty but does not
    /// have exactly one flag per atom, plus everything
    /// [`Scheduler::schedule`] can return.
    pub fn schedule_remaining(&self, done: &[bool]) -> Result<Schedule, ScheduleError> {
        self.schedule_remaining_budgeted(done).map(|(s, _)| s)
    }

    /// Like [`Scheduler::schedule_remaining`], additionally reporting the
    /// pass's [`SearchWork`]: its exact DP work counts and whether the
    /// expansion budget ([`Scheduler::with_budget`]) was exhausted.
    /// [`SearchWork::truncated`] means the DP search degraded to greedy
    /// selection for at least one round; the schedule itself is still
    /// complete and valid (best-so-far, anytime semantics).
    ///
    /// # Errors
    ///
    /// Identical to [`Scheduler::schedule_remaining`] — budget exhaustion
    /// is never an error.
    pub fn schedule_remaining_budgeted(
        &self,
        done: &[bool],
    ) -> Result<(Schedule, SearchWork), ScheduleError> {
        if self.cfg.engines == 0 {
            return Err(ScheduleError::NoEngines);
        }
        if !done.is_empty() && done.len() != self.dag.atom_count() {
            return Err(ScheduleError::MaskMismatch {
                expected: self.dag.atom_count(),
                got: done.len(),
            });
        }
        if self.cfg.mode == ScheduleMode::LayerOrder {
            return Ok((self.schedule_layer_order(done), SearchWork::default()));
        }
        let mut state = State::new(self.dag, done);
        let n = self.cfg.engines;
        // The transposition table lives for this pass only, and only a
        // lookahead reads it.
        let memo = matches!(self.cfg.mode, ScheduleMode::Dp { lookahead, .. } if lookahead > 0);
        #[cfg(test)]
        let memo = memo && self.memo;
        let mut search = Search {
            memo: MemoTable::new(memo),
            budget: SearchBudget::new(self.budget),
            work: SearchWork::default(),
        };
        let mut rounds = Vec::new();
        while state.remaining > 0 {
            let combo = match self.cfg.mode {
                ScheduleMode::Dp { lookahead, branch } => {
                    self.best_combo(&mut state, &mut search, n, lookahead, branch)
                }
                // `LayerOrder` returned above; greedy selection covers it
                // and `PriorityGreedy` alike.
                _ => state.select_priority(n),
            };
            if combo.is_empty() {
                return Err(ScheduleError::LiveLock {
                    remaining: state.remaining,
                });
            }
            state.apply(&combo);
            rounds.push(combo);
        }
        let work = SearchWork {
            truncated: search.budget.truncated,
            applies: state.applies,
            ..search.work
        };
        Ok((Schedule { rounds }, work))
    }

    /// Layer-topological wave schedule (no cross-layer mixing); atoms of a
    /// layer are pooled across batch samples, as in the LS baseline.
    fn schedule_layer_order(&self, done: &[bool]) -> Schedule {
        let is_done = |a: &AtomId| done.get(a.index()).copied().unwrap_or(false);
        let n = self.cfg.engines;
        let mut rounds = Vec::new();
        for layer in 0..self.dag.layer_count() {
            let mut pool: Vec<AtomId> = Vec::new();
            for b in 0..self.dag.batch() {
                pool.extend(
                    self.dag
                        .layer_atoms(b, dnn_graph::LayerId(u32_from_usize(layer)))
                        .iter()
                        .copied()
                        .filter(|a| !is_done(a)),
                );
            }
            for wave in pool.chunks(n) {
                rounds.push(wave.to_vec());
            }
        }
        Schedule { rounds }
    }

    /// Generates up to `branch` combination variants from the current
    /// candidate pool (Alg. 2's pruned `Options`).
    fn variants(&self, state: &State<'_>, n: usize, branch: usize) -> Vec<Vec<AtomId>> {
        let pool = state.select_pool(4 * n);
        let mut out: Vec<Vec<AtomId>> = Vec::with_capacity(branch);
        let cycles = |a: AtomId| self.dag.atom(a).cost.cycles;

        // Variant 1: strict priority order.
        let first: Vec<AtomId> = pool.iter().take(n).copied().collect();
        out.push(first);

        if branch >= 2 && pool.len() > n {
            // Variant 2: clear the longest poles first — the n largest-cycle
            // atoms of the pool (helps the barrier).
            let v = self.smallest_n(&pool, n, |a| std::cmp::Reverse(cycles(a)));
            if !out.contains(&v) {
                out.push(v);
            }
        }
        if branch >= 3 && pool.len() > n {
            // Variant 3: balance the barrier — the n *smallest*-cycle atoms,
            // grouping short atoms into one round instead of padding long
            // rounds with them.
            let v = self.smallest_n(&pool, n, cycles);
            if !out.contains(&v) {
                out.push(v);
            }
        }
        if branch >= 4 && pool.len() > n {
            // Variant 4: fewest distinct layers (maximum weight reuse).
            let mut by_layer: std::collections::BTreeMap<(u16, u32), Vec<AtomId>> =
                Default::default();
            for &a in &pool {
                let atom = self.dag.atom(a);
                by_layer
                    .entry((atom.batch, atom.layer.0))
                    .or_default()
                    .push(a);
            }
            let mut groups: Vec<Vec<AtomId>> = by_layer.into_values().collect();
            groups.sort_by_key(|g| std::cmp::Reverse(g.len()));
            let mut v = Vec::with_capacity(n);
            'outer: for g in groups {
                for a in g {
                    if v.len() == n {
                        break 'outer;
                    }
                    v.push(a);
                }
            }
            v.sort();
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out.truncate(branch.max(1));
        out
    }

    /// The `n` atoms of `pool` (`n < pool.len()`) with the smallest `key`,
    /// ties going to the earlier pool position, in ascending id order:
    /// the set a stable sort by `key` followed by `take(n)` picks, found by
    /// a linear-time selection on `(key, pool position)`.
    fn smallest_n<K: Ord>(
        &self,
        pool: &[AtomId],
        n: usize,
        key: impl Fn(AtomId) -> K,
    ) -> Vec<AtomId> {
        #[cfg(test)]
        if self.reference {
            return tests::reference_smallest_n(pool, n, key);
        }
        let mut keyed: Vec<(K, usize)> =
            pool.iter().enumerate().map(|(i, &a)| (key(a), i)).collect();
        keyed.select_nth_unstable(n);
        let mut v: Vec<AtomId> = keyed[..n].iter().map(|&(_, i)| pool[i]).collect();
        v.sort();
        v
    }

    /// Bounded-depth DP: pick the variant minimizing round cost plus the
    /// recursively estimated cost of the remaining sub-DAG.
    fn best_combo(
        &self,
        state: &mut State<'_>,
        search: &mut Search,
        n: usize,
        lookahead: usize,
        branch: usize,
    ) -> Vec<AtomId> {
        let variants = self.variants(state, n, branch);
        if variants.len() == 1 {
            // A forced move: no choice to spend budget on.
            return variants.into_iter().next().unwrap_or_default();
        }
        let Some(first) = variants.first().cloned() else {
            // Impossible (`variants` always emits the priority variant);
            // degrades to the caller's live-lock error path.
            return Vec::new();
        };
        let mut best: Option<(u64, Vec<AtomId>)> = None;
        for combo in variants {
            // Each variant evaluation costs one budget unit; unaffordable
            // variants are skipped, and if none were evaluated the strict
            // priority-order variant (the greedy answer) wins by default.
            if !search.budget.take(1) {
                continue;
            }
            let cost = state.round_cost(&combo)
                + self.estimate_after(state, search, &combo, n, lookahead, branch);
            if best.as_ref().is_none_or(|(b, _)| cost < *b) {
                best = Some((cost, combo));
            }
        }
        best.map_or(first, |(_, combo)| combo)
    }

    /// `estimate` of the state after `combo` runs, with `lookahead` rounds
    /// left. A depth-0 child charges no budget and its estimate is the
    /// remaining-work bound, which [`State::bound_after`] prices from the
    /// combo alone; deeper children apply the combo, recurse and undo.
    fn estimate_after(
        &self,
        state: &mut State<'_>,
        search: &mut Search,
        combo: &[AtomId],
        n: usize,
        lookahead: usize,
        branch: usize,
    ) -> u64 {
        let leaf = lookahead == 0;
        #[cfg(test)]
        let leaf = leaf && !self.reference;
        if leaf {
            return state.bound_after(combo, n);
        }
        let journal = state.apply(combo);
        let future = self.estimate(state, search, n, lookahead, branch);
        state.undo(journal);
        future
    }

    /// Cost-to-go estimate: recurse while lookahead remains, then fall back
    /// to the remaining-work lower bound. Results are memoized in the
    /// transposition table — search paths that permute the same rounds
    /// reconverge on one state and reuse its estimate instead of
    /// re-expanding the subtree.
    fn estimate(
        &self,
        state: &mut State<'_>,
        search: &mut Search,
        n: usize,
        lookahead: usize,
        branch: usize,
    ) -> u64 {
        if lookahead == 0 {
            // Reached only through the reference leaf path: production
            // callers price depth-0 children with `State::bound_after`.
            return state.remaining_bound(n);
        }
        search.work.nodes += 1;
        if state.remaining == 0 {
            return 0;
        }
        // Each lookahead expansion costs one budget unit; once exhausted the
        // tail collapses to the remaining-work lower bound (the same value
        // `lookahead == 0` would use), so truncation degrades the estimate
        // quality, never its validity.
        if !search.budget.take(1) {
            return state.remaining_bound(n);
        }
        let key = if search.memo.enabled {
            let key = (
                state.fingerprint(),
                state.scheduled_hash,
                u32_from_usize(lookahead),
            );
            if let Some(v) = search.memo.get(&key) {
                search.work.memo_hits += 1;
                return v;
            }
            Some(key)
        } else {
            None
        };
        let variants = self.variants(state, n, branch);
        let mut best = u64::MAX;
        for combo in variants {
            if combo.is_empty() {
                continue;
            }
            let cost = state.round_cost(&combo)
                + self.estimate_after(state, search, &combo, n, lookahead - 1, branch);
            best = best.min(cost);
        }
        let result = if best == u64::MAX {
            state.remaining_bound(n)
        } else {
            best
        };
        if let Some(key) = key {
            search.memo.insert(key, result);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::AtomSpec;
    use dnn_graph::models;
    use engine_model::{Dataflow, EngineConfig};
    use std::collections::BTreeSet;

    /// The variant selection `smallest_n` replaced: a stable sort of the
    /// whole pool by `key`, then the first `n` in ascending id order.
    pub(super) fn reference_smallest_n<K: Ord>(
        pool: &[AtomId],
        n: usize,
        key: impl Fn(AtomId) -> K,
    ) -> Vec<AtomId> {
        let mut sorted = pool.to_vec();
        sorted.sort_by_key(|a| key(*a));
        let mut v: Vec<AtomId> = sorted.into_iter().take(n).collect();
        v.sort();
        v
    }

    fn dag(batch: usize, tile: usize) -> (dnn_graph::Graph, AtomicDag) {
        let g = models::tiny_branchy();
        let specs: Vec<AtomSpec> = g
            .layers()
            .map(|l| {
                AtomSpec {
                    th: tile,
                    tw: tile,
                    tc: 1 << 20,
                }
                .clamped(l.out_shape())
            })
            .collect();
        let d = AtomicDag::build(
            &g,
            &specs,
            batch,
            &EngineConfig::paper_default(),
            Dataflow::KcPartition,
        );
        (g, d)
    }

    fn check_valid(dag: &AtomicDag, s: &Schedule, engines: usize) {
        let mut done: BTreeSet<AtomId> = BTreeSet::new();
        for round in &s.rounds {
            assert!(round.len() <= engines, "round exceeds engine count");
            for a in round {
                for (p, _) in dag.preds(*a) {
                    assert!(done.contains(&p), "dependency violated for {a:?}");
                }
            }
            for a in round {
                assert!(done.insert(*a), "atom {a:?} scheduled twice");
            }
        }
        assert_eq!(done.len(), dag.atom_count(), "not all atoms scheduled");
    }

    #[test]
    fn greedy_schedule_is_valid() {
        let (_, d) = dag(1, 8);
        let s = Scheduler::new(&d, SchedulerConfig::greedy(4))
            .schedule()
            .unwrap();
        check_valid(&d, &s, 4);
    }

    #[test]
    fn dp_schedule_is_valid() {
        let (_, d) = dag(2, 8);
        let s = Scheduler::new(&d, SchedulerConfig::dp(4))
            .schedule()
            .unwrap();
        check_valid(&d, &s, 4);
    }

    #[test]
    fn transposition_table_is_a_pure_speedup() {
        // The DP transposition table must never change the search outcome:
        // with memoization on (default) and off, the emitted schedules are
        // identical round for round — on a single-sample DAG and on a
        // batch-2 DAG where instances interleave and `estimate` revisits
        // many transposed states.
        for (batch, tile) in [(1, 8), (2, 8)] {
            let (_, d) = dag(batch, tile);
            let cfg = SchedulerConfig::dp(4); // Dp { lookahead: 2, branch: 3 }
            let on = Scheduler::new(&d, cfg).schedule().unwrap();
            let off = Scheduler::new(&d, cfg).with_memo(false).schedule().unwrap();
            assert_eq!(on.rounds, off.rounds, "batch {batch} diverged");
            check_valid(&d, &on, 4);
        }
    }

    /// Differential memoization check on adversarial graphs: the DP
    /// transposition table must be a pure speedup — identical rounds with
    /// the table on and off — for every seeded graph, not just the
    /// hand-written test networks.
    #[test]
    fn memo_is_pure_speedup_on_adversarial_graphs() {
        for seed in 0..50u64 {
            let g = models::random(&models::RandomGraphConfig::seeded(seed));
            let cfg = crate::OptimizerConfig::fast_test();
            let (_, dag) = crate::Optimizer::new(cfg).build_dag(&g);
            let scfg = SchedulerConfig::dp(cfg.sim.mesh.engines());
            let on = Scheduler::new(&dag, scfg).schedule().expect("dp on");
            let off = Scheduler::new(&dag, scfg)
                .with_memo(false)
                .schedule()
                .expect("dp off");
            assert_eq!(
                on.rounds, off.rounds,
                "seed {seed}: memo changed the schedule"
            );
        }
    }

    #[test]
    fn dp_no_worse_than_greedy_on_barrier_sum() {
        let (_, d) = dag(2, 8);
        let barrier_sum = |s: &Schedule| -> u64 {
            s.rounds
                .iter()
                .map(|r| r.iter().map(|a| d.atom(*a).cost.cycles).max().unwrap_or(0))
                .sum()
        };
        let greedy = Scheduler::new(&d, SchedulerConfig::greedy(4))
            .schedule()
            .unwrap();
        let dp = Scheduler::new(&d, SchedulerConfig::dp(4))
            .schedule()
            .unwrap();
        assert!(
            barrier_sum(&dp) <= barrier_sum(&greedy),
            "dp {} > greedy {}",
            barrier_sum(&dp),
            barrier_sum(&greedy)
        );
    }

    #[test]
    fn rounds_prefer_current_sample() {
        let (_, d) = dag(3, 4);
        let s = Scheduler::new(&d, SchedulerConfig::greedy(2))
            .schedule()
            .unwrap();
        // The first time a sample-1 atom appears, sample 0 must be unable to
        // fill the round on its own (rule 4).
        let mut first_b1 = None;
        for (t, round) in s.rounds.iter().enumerate() {
            if round.iter().any(|a| d.atom(*a).batch == 1) {
                first_b1 = Some(t);
                break;
            }
        }
        let t = first_b1.expect("batch 1 must eventually run");
        // In that round, count sample-0 atoms: engines not filled by b0 alone.
        let b0 = s.rounds[t]
            .iter()
            .filter(|a| d.atom(**a).batch == 0)
            .count();
        assert!(b0 < 2, "sample 0 still filled the round but sample 1 ran");
    }

    #[test]
    fn occupancy_high_for_parallel_dag() {
        let (_, d) = dag(2, 8);
        let s = Scheduler::new(&d, SchedulerConfig::greedy(4))
            .schedule()
            .unwrap();
        assert!(s.occupancy(4) > 0.5, "occupancy = {}", s.occupancy(4));
    }

    #[test]
    fn single_engine_schedules_serially() {
        let (_, d) = dag(1, 32);
        let s = Scheduler::new(&d, SchedulerConfig::greedy(1))
            .schedule()
            .unwrap();
        check_valid(&d, &s, 1);
        assert_eq!(s.len(), d.atom_count());
    }

    #[test]
    fn apply_undo_roundtrip() {
        let (_, d) = dag(1, 8);
        let mut st = State::new(&d, &[]);
        let before_remaining = st.remaining;
        let before_ready: Vec<usize> = st.ready.iter().map(|q| q.len()).collect();
        let combo = st.select_priority(4);
        assert!(!combo.is_empty());
        let j = st.apply(&combo);
        assert_eq!(st.remaining, before_remaining - combo.len());
        st.undo(j);
        assert_eq!(st.remaining, before_remaining);
        let after_ready: Vec<usize> = st.ready.iter().map(|q| q.len()).collect();
        assert_eq!(before_ready, after_ready);
        // Selection after undo matches the original selection.
        assert_eq!(st.select_priority(4), combo);
    }

    #[test]
    fn dependent_layer_atoms_run_before_producer_finishes() {
        // With spatial tiling, a consumer tile becomes ready as soon as its
        // producer tiles are done (rule 3 / Fig. 6 type 3): some round must
        // mix two different layers of the same chain.
        let g = models::tiny_cnn();
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
        // 6 engines so 16-atom layers leave a 4-atom tail that must be
        // topped up with ready atoms of the next layer.
        let s = Scheduler::new(&d, SchedulerConfig::greedy(6))
            .schedule()
            .unwrap();
        check_valid(&d, &s, 6);
        let mixed = s.rounds.iter().any(|r| {
            let layers: BTreeSet<u32> = r.iter().map(|a| d.atom(*a).layer.0).collect();
            layers.len() > 1
        });
        assert!(mixed, "expected layer-fused rounds in a cascaded network");
    }

    #[test]
    fn layer_order_mode_is_valid_and_unmixed() {
        let (_, d) = dag(2, 8);
        let s = Scheduler::new(
            &d,
            SchedulerConfig {
                engines: 4,
                mode: ScheduleMode::LayerOrder,
            },
        )
        .schedule()
        .unwrap();
        check_valid(&d, &s, 4);
        // No round mixes layers.
        for round in &s.rounds {
            let layers: BTreeSet<u32> = round.iter().map(|a| d.atom(*a).layer.0).collect();
            assert_eq!(layers.len(), 1);
        }
    }

    #[test]
    fn priority_rule_one_prefers_started_layers() {
        // With engines=3 on 4-atom layers, the leftover atom of the started
        // layer must be scheduled before a fresh layer is opened.
        let g = models::tiny_cnn();
        let specs: Vec<crate::atom::AtomSpec> = g
            .layers()
            .map(|l| {
                crate::atom::AtomSpec {
                    th: 16,
                    tw: 16,
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
        let s = Scheduler::new(&d, SchedulerConfig::greedy(3))
            .schedule()
            .unwrap();
        check_valid(&d, &s, 3);
        // Find the first round that contains conv1 atoms but not all of them:
        // the following round must start with the remaining conv1 atom(s).
        let conv1 = g.layer_by_name("conv1").unwrap().id();
        let first = &s.rounds[0];
        assert!(first.iter().all(|a| d.atom(*a).layer == conv1));
        assert_eq!(first.len(), 3);
        assert_eq!(
            d.atom(s.rounds[1][0]).layer,
            conv1,
            "leftover conv1 atom first"
        );
    }

    #[test]
    fn zero_engines_is_a_typed_error() {
        let (_, d) = dag(1, 8);
        for mode in [
            ScheduleMode::PriorityGreedy,
            ScheduleMode::LayerOrder,
            ScheduleMode::Dp {
                lookahead: 1,
                branch: 2,
            },
        ] {
            let r = Scheduler::new(&d, SchedulerConfig { engines: 0, mode }).schedule();
            assert_eq!(r, Err(ScheduleError::NoEngines), "{mode:?}");
        }
    }

    #[test]
    fn schedule_errors_display() {
        assert!(ScheduleError::NoEngines
            .to_string()
            .contains("zero engines"));
        let e = ScheduleError::LiveLock { remaining: 7 };
        assert!(e.to_string().contains("7 atoms remain"));
        let e = ScheduleError::MaskMismatch {
            expected: 10,
            got: 3,
        };
        assert!(e.to_string().contains("covers 3 atoms"));
    }

    #[test]
    fn schedule_remaining_covers_exactly_the_unfinished_atoms() {
        let (_, d) = dag(1, 8);
        let full = Scheduler::new(&d, SchedulerConfig::greedy(4))
            .schedule()
            .unwrap();
        // Mark everything in the first two rounds as done.
        let mut done = vec![false; d.atom_count()];
        for round in full.rounds.iter().take(2) {
            for a in round {
                done[a.index()] = true;
            }
        }
        let done_count = done.iter().filter(|d| **d).count();
        for cfg in [
            SchedulerConfig::greedy(4),
            SchedulerConfig::dp(4),
            SchedulerConfig {
                engines: 4,
                mode: ScheduleMode::LayerOrder,
            },
        ] {
            let rest = Scheduler::new(&d, cfg).schedule_remaining(&done).unwrap();
            let mut seen: BTreeSet<AtomId> = BTreeSet::new();
            for round in &rest.rounds {
                assert!(round.len() <= 4);
                for a in round {
                    assert!(!done[a.index()], "done atom {a:?} rescheduled");
                    // Every dependency is either pre-completed or scheduled
                    // in an earlier round of the remainder.
                    for (p, _) in d.preds(*a) {
                        assert!(
                            done[p.index()] || seen.contains(&p),
                            "dependency violated for {a:?} under {cfg:?}"
                        );
                    }
                }
                for a in round {
                    assert!(seen.insert(*a));
                }
            }
            assert_eq!(seen.len(), d.atom_count() - done_count, "{cfg:?}");
        }
    }

    #[test]
    fn zero_budget_dp_degrades_to_greedy() {
        // With no expansions affordable, every round falls back to the
        // strict priority-order variant — exactly the greedy schedule —
        // and the truncation is reported.
        let (_, d) = dag(2, 8);
        let (s, work) = Scheduler::new(&d, SchedulerConfig::dp(4))
            .with_budget(Some(0))
            .schedule_remaining_budgeted(&[])
            .unwrap();
        assert!(
            work.truncated,
            "zero budget on a branching DAG must truncate"
        );
        let greedy = Scheduler::new(&d, SchedulerConfig::greedy(4))
            .schedule()
            .unwrap();
        assert_eq!(s, greedy);
        check_valid(&d, &s, 4);
    }

    #[test]
    fn unlimited_budget_matches_unbudgeted_search() {
        let (_, d) = dag(2, 8);
        let (s, work) = Scheduler::new(&d, SchedulerConfig::dp(4))
            .with_budget(None)
            .schedule_remaining_budgeted(&[])
            .unwrap();
        assert!(!work.truncated);
        let full = Scheduler::new(&d, SchedulerConfig::dp(4))
            .schedule()
            .unwrap();
        assert_eq!(s, full);
    }

    #[test]
    fn budgeted_search_is_deterministic_and_valid() {
        let (_, d) = dag(2, 8);
        for budget in [1u64, 7, 50, 1000] {
            let run = || {
                Scheduler::new(&d, SchedulerConfig::dp(4))
                    .with_budget(Some(budget))
                    .schedule_remaining_budgeted(&[])
                    .unwrap()
            };
            let (a, ta) = run();
            let (b, tb) = run();
            assert_eq!(a, b, "budget {budget} rerun diverged");
            assert_eq!(ta, tb);
            check_valid(&d, &a, 4);
        }
    }

    #[test]
    fn schedule_remaining_rejects_bad_mask_and_accepts_empty() {
        let (_, d) = dag(1, 8);
        let s = Scheduler::new(&d, SchedulerConfig::greedy(4));
        assert_eq!(
            s.schedule_remaining(&[true; 3]),
            Err(ScheduleError::MaskMismatch {
                expected: d.atom_count(),
                got: 3
            })
        );
        assert_eq!(s.schedule_remaining(&[]).unwrap(), s.schedule().unwrap());
        // An all-done mask yields an empty schedule.
        let all = vec![true; d.atom_count()];
        assert!(s.schedule_remaining(&all).unwrap().is_empty());
    }

    #[test]
    fn schedule_remaining_edge_masks_hold_in_every_mode() {
        // Regression: the recovery pipeline calls `schedule_remaining` with
        // whatever mask the previous attempt left behind; the empty and
        // all-done extremes must stay well-formed in every search mode.
        let (_, d) = dag(1, 8);
        let all = vec![true; d.atom_count()];
        for cfg in [
            SchedulerConfig::greedy(4),
            SchedulerConfig::dp(4),
            SchedulerConfig {
                engines: 4,
                mode: ScheduleMode::LayerOrder,
            },
        ] {
            let s = Scheduler::new(&d, cfg);
            // Empty mask ≡ a fresh full schedule.
            let fresh = s.schedule_remaining(&[]).unwrap();
            assert_eq!(fresh, s.schedule().unwrap(), "{cfg:?}");
            check_valid(&d, &fresh, 4);
            // All-done mask: a valid empty schedule, not an error.
            let none = s.schedule_remaining(&all).unwrap();
            assert!(none.is_empty(), "{cfg:?}");
            assert_eq!(none.len(), 0);
            assert_eq!(none.occupancy(4), 0.0, "empty occupancy must be finite");
        }
        // Zero engines is still a typed error regardless of the mask.
        let zero = Scheduler::new(
            &d,
            SchedulerConfig {
                engines: 0,
                mode: ScheduleMode::PriorityGreedy,
            },
        );
        assert_eq!(zero.schedule_remaining(&all), Err(ScheduleError::NoEngines));
    }

    /// The DAG the optimizer judges for `g` at granularity `target` on the
    /// paper machine: one candidate table, the SA run, then the build.
    fn planned_dag(g: &dnn_graph::Graph, target: usize) -> AtomicDag {
        let cfg = crate::OptimizerConfig::paper_default();
        let gen_cfg = cfg.atomgen_config(Some(target));
        let table = crate::atomgen::CandidateTable::build(
            g,
            &gen_cfg,
            &cfg.sim.engine,
            cfg.dataflow,
            &crate::Exec::default(),
        );
        let report = crate::atomgen::generate(g, &table, &gen_cfg);
        AtomicDag::build(g, &report.specs, 1, &cfg.sim.engine, cfg.dataflow)
    }

    /// Schedules `d` on `engines` engines with the leaf-pricing,
    /// partial-selection DP and with the reference DP (apply → estimate(0)
    /// → undo at every leaf, full-sort variants) for every `Dp` mode in
    /// `lookaheads × branches`, every budget in `budgets` and two masks —
    /// none done, and a seeded random non-empty done set — demanding
    /// identical schedules, truncation flags, node and memo-hit counts.
    fn assert_matches_reference_dp(
        d: &AtomicDag,
        engines: usize,
        lookaheads: std::ops::RangeInclusive<usize>,
        branches: std::ops::RangeInclusive<usize>,
        budgets: &[Option<u64>],
        seed: u64,
    ) {
        let mut rng = ad_util::Rng64::new(seed);
        let mut random_mask: Vec<bool> = (0..d.atom_count()).map(|_| rng.below(4) == 0).collect();
        if let Some(first) = random_mask.first_mut() {
            *first = true;
        }
        for done in [Vec::new(), random_mask] {
            for lookahead in lookaheads.clone() {
                for branch in branches.clone() {
                    let cfg = SchedulerConfig {
                        engines,
                        mode: ScheduleMode::Dp { lookahead, branch },
                    };
                    for &budget in budgets {
                        let run = |reference: bool| {
                            let mut s = Scheduler::new(d, cfg).with_budget(budget);
                            s.reference = reference;
                            s.schedule_remaining_budgeted(&done).unwrap()
                        };
                        let (fast, fast_work) = run(false);
                        let (slow, slow_work) = run(true);
                        let case = format!(
                            "{cfg:?}, budget {budget:?}, {} done",
                            done.iter().filter(|x| **x).count()
                        );
                        assert_eq!(fast, slow, "{case}");
                        assert_eq!(
                            (fast_work.truncated, fast_work.nodes, fast_work.memo_hits),
                            (slow_work.truncated, slow_work.nodes, slow_work.memo_hits),
                            "{case}"
                        );
                        assert!(fast_work.applies <= slow_work.applies, "{case}");
                        assert_eq!(
                            fast_work.applies,
                            fast.len() as u64 + fast_work.nodes,
                            "{case}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn leaf_pricing_and_partial_selection_schedule_exactly_what_the_reference_dp_schedules() {
        let budgets = [None, Some(0), Some(40)];
        for batch in [1, 2] {
            let (_, d) = dag(batch, 8);
            assert_matches_reference_dp(&d, 4, 0..=3, 1..=4, &budgets, 0x5C4E_D000 + batch as u64);
        }
        let small = (0..64u64)
            .map(|seed| {
                let g = models::random(&models::RandomGraphConfig {
                    blocks: 2,
                    ..models::RandomGraphConfig::seeded(seed)
                });
                (seed, g)
            })
            .filter(|(_, g)| g.layer_count() <= 12)
            .take(4);
        for (seed, g) in small {
            let specs: Vec<AtomSpec> = g
                .layers()
                .map(|l| {
                    AtomSpec {
                        th: 4,
                        tw: 4,
                        tc: 32,
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
            assert_matches_reference_dp(&d, 6, 0..=3, 1..=4, &budgets, seed);
        }
        let d = planned_dag(&models::inception_v3(), 24);
        assert_matches_reference_dp(&d, 64, 1..=2, 3..=3, &[None, Some(200)], 0x1CE9);
    }

    #[test]
    #[ignore = "wide DP oracle sweep; run in release with --ignored"]
    fn leaf_pricing_matches_the_reference_dp_on_every_zoo_dag() {
        for g in models::all_paper_workloads() {
            for target in [24, 64] {
                let d = planned_dag(&g, target);
                assert_matches_reference_dp(&d, 64, 0..=3, 1..=4, &[None, Some(0), Some(500)], 7);
            }
        }
    }
}
