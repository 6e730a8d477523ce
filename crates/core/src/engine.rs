//! The incremental serving facade: own the problem, absorb deltas, re-solve
//! warm.
//!
//! [`crate::optimizer::DiversityOptimizer`] is the batch API: network in,
//! assignment out, all state discarded. [`DiversityEngine`] is its
//! long-lived counterpart for dynamic deployments. It owns the network,
//! catalog, similarity matrix, constraint set, the [`EnergyCache`] built
//! over them, and the last MAP assignment; [`DiversityEngine::apply`]
//! pushes one [`NetworkDelta`] — and [`DiversityEngine::apply_batch`] a
//! whole burst of them — through the whole pipeline:
//!
//! 1. the deltas are validated and applied to a *staged* copy of the
//!    network (all-or-nothing: a failing delta leaves the engine exactly
//!    as it was),
//! 2. the energy cache refilters only the touched hosts' domains (the
//!    merged `touched` set steers the revision scan) and edits the MRF in
//!    place — **once per batch**, not per delta; only then is the staged
//!    network committed,
//! 3. the previous MAP assignment is *projected* onto the new model
//!    (product identity per slot; vanished products fall back
//!    per-variable) and the re-solve warm-starts from it — one
//!    [`MapSolver::refine_local`] call restricted to the
//!    [`DEFAULT_LOCALITY_HOPS`]-hop ball around the touched hosts,
//!    expanding only while labels keep flipping (see [`mrf::local`]). A
//!    warm [`DiversityEngine::solve`] that touched nothing hands the same
//!    call every live variable, and the hosts the sharded engine pins are
//!    sealed in every warm call,
//! 4. the result is decoded, checked against the constraints, and returned
//!    as a [`ReassignmentReport`]: which hosts changed products, the
//!    objective before/after the re-solve, locality telemetry
//!    (`frontier_hosts`, `swept_vars`), and solver/rebuild telemetry.
//!
//! **Carried state.** Steps 3 and 4 cost `O(touched)` rather than `O(V)`
//! because the engine also carries the labeling its last assignment
//! decodes from, with that labeling's energy. After an in-place edit the
//! projection only has to seed the variables of the slots the edit
//! rebound, the carried energy moves by the edit's delta ([`crate::cache`]
//! prices the factors it rewrites), and only the rows of hosts owning a
//! rebound slot — then the rows of hosts owning a flipped variable — are
//! decoded. The same step derives everything from the last assignment
//! instead wherever the carried state is not known to match the model:
//! after a reassembling refresh (which renumbers every variable), after
//! the shard coordinator writes an assignment back or overlays multipliers
//! on the model, after [`DiversityEngine::with_constraints`], and after
//! [`Error::UnsatisfiableConstraints`]. Debug builds check every step
//! against that full derivation.
//!
//! **The problem is fixed once a journal is attached.** The journal's
//! preamble records the catalog, similarity matrix and constraint set at
//! attach, and recovery solves exactly that problem, so nothing changes
//! them afterwards: the catalog and similarity matrix have no mutator, and
//! [`DiversityEngine::with_constraints`] panics on a journaled engine.
//!
//! [`NetworkDelta`]: netmodel::delta::NetworkDelta

use std::collections::HashSet;
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mrf::icm::Icm;
use mrf::local::Start;
use mrf::model::VarId;
use mrf::order::SolveScratch;
use mrf::projection::{project_label, project_labels};
use mrf::solution::Solution;
use mrf::solver::{MapSolver, SolveControl};
use mrf::trws::Trws;

use netmodel::assignment::Assignment;
use netmodel::catalog::{Catalog, ProductSimilarity};
use netmodel::constraints::ConstraintSet;
use netmodel::delta::{BatchEffect, NetworkDelta};
use netmodel::network::Network;
use netmodel::{HostId, ProductId};

use crate::cache::{Edit, EnergyCache, RebuildStats};
use crate::energy::{EnergyModel, SlotBinding};
use crate::journal::{Journal, DEFAULT_SNAPSHOT_EVERY};
use crate::optimizer::SolverKind;
use crate::{Error, Result};

/// What one engine step (a delta application, a batch absorption, or an
/// explicit solve) did.
#[derive(Debug, Clone)]
pub struct ReassignmentReport {
    /// The network revision this report corresponds to.
    pub revision: u64,
    /// Kind label of the applied delta (`None` for an explicit solve,
    /// `"batch"` for a multi-delta batch).
    pub delta_kind: Option<&'static str>,
    /// Number of deltas this step absorbed (0 for an explicit solve).
    pub deltas_applied: usize,
    /// Hosts the delta(s) touched structurally (deduplicated union for a
    /// batch; empty for an explicit solve).
    pub touched: Vec<HostId>,
    /// Hosts whose product assignment differs from before the step
    /// (includes hosts added by the delta, excludes removed ones).
    pub changed_hosts: Vec<HostId>,
    /// Objective of the carried-forward (projected, pre-re-solve)
    /// assignment on the *new* model; `None` on a cold solve.
    pub objective_before: Option<f64>,
    /// Objective after the re-solve.
    pub objective_after: f64,
    /// The carried-forward assignment itself (what the deployment would run
    /// if it did not re-optimize); `None` on a cold solve.
    pub carried: Option<Assignment>,
    /// Whether the solve warm-started from the previous MAP assignment.
    pub warm_started: bool,
    /// Name of the solver that ran (refiner when warm, solver when cold).
    pub solver: String,
    /// Energy-cache rebuild telemetry.
    pub rebuild: RebuildStats,
    /// Wall-clock time of the cache refresh.
    pub rebuild_wall: Duration,
    /// Wall-clock time of the (re-)solve.
    pub solve_wall: Duration,
    /// Solver iterations.
    pub iterations: usize,
    /// Whether the solver converged (vs. its iteration cap).
    pub converged: bool,
    /// Certified lower bound on the objective, when the solver provides one.
    pub lower_bound: Option<f64>,
    /// Hosts in the k-hop frontier ball the warm re-solve was restricted to
    /// (the active host count for a cold or deliberately full solve).
    pub frontier_hosts: usize,
    /// Variables the re-solve actually swept: the final active-region size
    /// of a localized refinement, or the full variable count otherwise.
    pub swept_vars: usize,
    /// Whether the re-solve stayed frontier-restricted (false for cold
    /// solves, warm solves that touched nothing, and localized refinements
    /// that fell back to a full sweep).
    pub localized: bool,
}

impl ReassignmentReport {
    /// How much the re-solve improved on carrying the old assignment
    /// forward (`None` on a cold solve). Non-negative: refinement never
    /// returns something worse than its start.
    pub fn improvement(&self) -> Option<f64> {
        self.objective_before.map(|b| b - self.objective_after)
    }
}

impl fmt::Display for ReassignmentReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rev {:>4} {:<17} objective {:>9.4}",
            self.revision,
            self.delta_kind.unwrap_or("solve"),
            self.objective_after,
        )?;
        if let Some(before) = self.objective_before {
            write!(f, " (carried {before:.4})")?;
        }
        write!(
            f,
            " | {} hosts changed | {:?} rebuild + {:?} solve",
            self.changed_hosts.len(),
            self.rebuild_wall,
            self.solve_wall
        )?;
        if self.deltas_applied > 1 {
            write!(f, " | {} deltas", self.deltas_applied)?;
        }
        if self.localized {
            write!(
                f,
                " | local: {} frontier hosts, {} vars swept",
                self.frontier_hosts, self.swept_vars
            )?;
        }
        Ok(())
    }
}

/// The k-hop radius of the frontier ball localized re-solves start from.
/// Deliberately tight: the refinement *expands* the ball on its own
/// while labels keep flipping, so a 1-hop seed loses nothing on quality —
/// a generous seed only makes dense networks trip the half-the-model
/// full-sweep fallback immediately.
pub const DEFAULT_LOCALITY_HOPS: usize = 1;

/// A long-lived diversity service over one evolving network (module docs).
pub struct DiversityEngine {
    network: Network,
    catalog: Catalog,
    similarity: ProductSimilarity,
    cache: EnergyCache,
    solver: Arc<dyn MapSolver>,
    refiner: Arc<dyn MapSolver>,
    /// Hosts whose variables warm re-solves must not move (crate-internal:
    /// the sharded engine pins its boundary hosts — see
    /// [`DiversityEngine::set_pinned_hosts`]).
    pinned: Vec<HostId>,
    last: Option<Assignment>,
    /// The labeling `last` decodes from, with its energy, carried across
    /// warm steps; `None` wherever it is not known to match the model
    /// (module docs), and the next warm step derives its start instead.
    carried: Option<Carried>,
    /// Reusable solver structure/workspace (see [`mrf::order`]): prepared
    /// anew on each solve, but its allocations persist across steps, so a
    /// warm re-solve on a stable topology allocates nothing.
    scratch: SolveScratch,
    /// Write-ahead delta journal, when attached
    /// ([`DiversityEngine::with_journal`]). Appends happen post-commit, on
    /// whichever thread drives the engine (the serving writer), never on
    /// the read path.
    journal: Option<Journal>,
}

/// A validated-but-uncommitted delta batch: the mutated network copy plus
/// the merged effect, handed from `apply_batch` to `step`, which commits it
/// only once the model refresh has succeeded.
struct StagedDeltas {
    network: Network,
    kind: &'static str,
    effect: BatchEffect,
}

impl fmt::Debug for DiversityEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DiversityEngine")
            .field("revision", &self.network.revision())
            .field("hosts", &self.network.host_count())
            .field("solver", &self.solver.name())
            .field("refiner", &self.refiner.name())
            .field("solved", &self.last.is_some())
            .field("journaled", &self.journal.is_some())
            .finish()
    }
}

impl DiversityEngine {
    /// Creates an engine over `network` (unconstrained, TRW-S cold solver,
    /// ICM warm-start refiner). Construction is lazy:
    /// the energy model is built — under whatever constraints the
    /// `with_*` builders set — at the first [`DiversityEngine::solve`] or
    /// [`DiversityEngine::apply`], which is also where infeasibility
    /// surfaces ([`Error::Infeasible`]).
    pub fn new(
        network: Network,
        catalog: Catalog,
        similarity: ProductSimilarity,
    ) -> DiversityEngine {
        DiversityEngine {
            network,
            catalog,
            similarity,
            cache: EnergyCache::deferred(&ConstraintSet::new()),
            solver: Arc::new(Trws::default()),
            refiner: Arc::new(Icm::default()),
            pinned: Vec::new(),
            last: None,
            carried: None,
            scratch: SolveScratch::new(),
            journal: None,
        }
    }

    /// Replaces the constraint set; the next step refilters every domain
    /// and solves cold (cached assignments may be infeasible under the new
    /// constraints).
    ///
    /// # Panics
    ///
    /// Panics if a journal is attached: its preamble already recorded the
    /// constraint set, and recovery would solve under that one. Attach the
    /// journal last ([`DiversityEngine::with_journal`]).
    ///
    /// A journaled engine therefore keeps its constraint set for life,
    /// even where that set can no longer hold: once the host a
    /// [`Constraint::fix`] mandates is removed, the missing slot violates
    /// the mandate and every later step fails with
    /// [`Error::UnsatisfiableConstraints`]. The way out is a new engine
    /// over [`DiversityEngine::network`], with its own constraint set and
    /// journal.
    ///
    /// [`Constraint::fix`]: netmodel::constraints::Constraint::fix
    pub fn with_constraints(mut self, constraints: ConstraintSet) -> DiversityEngine {
        assert!(
            self.journal.is_none(),
            "with_constraints after with_journal: the journal's preamble already recorded the constraint set"
        );
        self.cache.set_constraints(&constraints);
        self.last = None;
        self.carried = None;
        self
    }

    /// Replaces the cold-start solver.
    pub fn with_solver(self, kind: SolverKind) -> DiversityEngine {
        self.with_map_solver(kind.build())
    }

    /// Replaces the cold-start solver with any [`MapSolver`].
    pub fn with_map_solver(mut self, solver: Box<dyn MapSolver>) -> DiversityEngine {
        self.solver = Arc::from(solver);
        self
    }

    /// Replaces the warm-start refiner (the solver whose
    /// [`MapSolver::refine`] runs after each delta).
    pub fn with_refiner(mut self, refiner: Box<dyn MapSolver>) -> DiversityEngine {
        self.refiner = Arc::from(refiner);
        self
    }

    /// Attaches a write-ahead journal at `path` with the default snapshot
    /// cadence ([`DEFAULT_SNAPSHOT_EVERY`] batches between periodic
    /// snapshots/compactions). The file is created (truncating any previous
    /// content) with a preamble — catalog, similarity, constraints — and a
    /// genesis snapshot of the current network; every committed batch then
    /// appends one record, and [`crate::journal::recover`] rebuilds an
    /// equivalent engine from the file. Attach *after* the other `with_*`
    /// builders: the preamble captures the constraint set as configured.
    ///
    /// # Errors
    ///
    /// [`Error::Model`] wrapping [`netmodel::Error::Journal`] on I/O
    /// failure.
    pub fn with_journal(self, path: impl AsRef<Path>) -> Result<DiversityEngine> {
        self.with_journal_cadence(path, Some(DEFAULT_SNAPSHOT_EVERY))
    }

    /// [`DiversityEngine::with_journal`] with an explicit snapshot cadence:
    /// `Some(n)` writes a full snapshot (and compacts the journal down to
    /// preamble + that snapshot) every `n` committed batches; `None`
    /// disables periodic snapshots and compaction entirely, keeping the
    /// full delta history — what the churn harness's record mode uses so a
    /// whole window stays replayable.
    ///
    /// # Errors
    ///
    /// See [`DiversityEngine::with_journal`].
    pub fn with_journal_cadence(
        mut self,
        path: impl AsRef<Path>,
        snapshot_every: Option<usize>,
    ) -> Result<DiversityEngine> {
        self.journal = Some(Journal::attach(
            path,
            &self.catalog,
            &self.similarity,
            self.cache.constraints(),
            &self.network,
            self.last.as_ref(),
            snapshot_every,
        )?);
        Ok(self)
    }

    /// Appends an application-defined mark record to the journal, if one is
    /// attached (no-op otherwise). Marks are opaque to engine recovery —
    /// the churn harness uses them to embed per-step MTTC measurements in a
    /// recorded window so a replay can diff trajectories.
    ///
    /// # Errors
    ///
    /// [`Error::Model`] wrapping [`netmodel::Error::Journal`] on I/O
    /// failure.
    pub fn journal_mark(&mut self, label: &str, fields: &[(&str, f64)]) -> Result<()> {
        self.journal
            .as_mut()
            .map_or(Ok(()), |j| j.mark(label, fields))
    }

    /// The attached journal, if any: its path, sequence number and
    /// compaction failures ([`Journal::compaction_failures`]).
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Waits for the journal's in-flight periodic compaction, if any
    /// ([`Journal::wait_for_compaction`]).
    pub fn wait_for_compaction(&mut self) {
        if let Some(journal) = self.journal.as_mut() {
            journal.wait_for_compaction();
        }
    }

    #[cfg(test)]
    pub(crate) fn journal_mut(&mut self) -> Option<&mut Journal> {
        self.journal.as_mut()
    }

    /// The current network (with revision counters).
    pub fn network(&self) -> &Network {
        &self.network
    }

    /// The catalog backing delta validation.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The similarity matrix in use.
    pub fn similarity(&self) -> &ProductSimilarity {
        &self.similarity
    }

    /// The current network revision.
    pub fn revision(&self) -> u64 {
        self.network.revision()
    }

    /// The last computed MAP assignment, if any step has run.
    pub fn assignment(&self) -> Option<&Assignment> {
        self.last.as_ref()
    }

    /// The energy model backing the current revision (meaningful once a
    /// step has run — before that it is the empty deferred model). The
    /// shard coordinator conditions cross-shard costs onto it.
    pub(crate) fn energy(&self) -> &EnergyModel {
        self.cache.model()
    }

    /// Mutable access to the energy model (crate-internal): the sharded
    /// coordinator's dual-decomposition loop applies and reverts
    /// multiplier overlays on boundary unaries in place instead of
    /// cloning the shard model per subgradient iteration.
    pub(crate) fn energy_mut(&mut self) -> &mut EnergyModel {
        self.carried = None;
        self.cache.model_mut()
    }

    /// The engine's memory-footprint drivers, delegated from
    /// [`EnergyCache::footprint`]: `(interned domains, cached cost
    /// matrices)`. The sharded engine rolls these up across shards to
    /// assert that retired zones release their model state.
    pub fn footprint(&self) -> (usize, usize) {
        self.cache.footprint()
    }

    /// Drops the built model, caches and last assignment, resetting the
    /// cache to its deferred (unbuilt) state under the same constraints
    /// (crate-internal: how a retired shard releases its interned domains
    /// and cost matrices while staying revivable — the next step performs a
    /// full cold build).
    pub(crate) fn release_model(&mut self) {
        self.cache = EnergyCache::deferred(self.cache.constraints());
        self.last = None;
        self.carried = None;
        self.scratch = SolveScratch::new();
    }

    /// A fresh, unsolved engine over `network` inheriting this engine's
    /// configuration — solvers, refiner and constraints (crate-internal:
    /// how the sharded engine spins up a shard for a zone created
    /// mid-stream by an `AddHost` delta).
    pub(crate) fn configured_like(
        &self,
        network: Network,
        catalog: Catalog,
        similarity: ProductSimilarity,
    ) -> DiversityEngine {
        DiversityEngine {
            network,
            catalog,
            similarity,
            cache: EnergyCache::deferred(self.cache.constraints()),
            solver: Arc::clone(&self.solver),
            refiner: Arc::clone(&self.refiner),
            pinned: Vec::new(),
            last: None,
            carried: None,
            scratch: SolveScratch::new(),
            journal: None,
        }
    }

    /// Overwrites the cached MAP assignment — the write-back path of the
    /// shard coordinator, which improves a shard's labeling against
    /// cross-shard costs the shard model cannot see. The caller guarantees
    /// `assignment` decodes from the engine's current model (coordinated
    /// labelings do: they are decoded via [`EnergyModel::decode`] on this
    /// engine's own model).
    pub(crate) fn set_assignment(&mut self, assignment: Assignment) {
        self.last = Some(assignment);
        self.carried = None;
    }

    /// Pins hosts against warm re-solves: their variables are conditioned
    /// out of every warm refinement (crate-internal — the sharded engine
    /// pins its boundary hosts so that only the boundary-coordination
    /// loop, which sees the cross-shard costs, moves them; a plain local
    /// re-solve would otherwise undo coordinated labels it cannot value).
    /// Cold solves ignore pins — something must produce the first labels.
    pub(crate) fn set_pinned_hosts(&mut self, pinned: Vec<HostId>) {
        self.pinned = pinned;
    }

    /// Applies one delta end to end: staged network mutation, incremental
    /// model rebuild, warm-started (localized) re-solve, report. Equivalent
    /// to a one-delta [`DiversityEngine::apply_batch`], except that errors
    /// surface unwrapped (no [`netmodel::Error::BatchRejected`] envelope).
    ///
    /// # Errors
    ///
    /// * Delta validation errors (see
    ///   [`netmodel::network::Network::apply_delta`]) — the engine is
    ///   untouched.
    /// * [`Error::Infeasible`] — the delta made a slot's domain empty under
    ///   the constraints; the engine is untouched: network, cached model
    ///   and assignment all remain at the previous revision.
    /// * [`Error::UnsatisfiableConstraints`] — the re-solved assignment
    ///   violates a hard constraint. The delta *is* committed (the network
    ///   and model advance), but the engine holds no valid assignment until
    ///   a later step succeeds (which then solves cold). An attached journal
    ///   records the committed batch with no assignment, so recovery lands
    ///   on the same state. A serving writer counts such a burst in
    ///   `ServingStats::bursts_rejected` and publishes nothing until a
    ///   later burst solves. No later step solves while the violation
    ///   cannot be undone — a `Fix` on a removed host — and a journaled
    ///   engine cannot drop the constraint (see
    ///   [`DiversityEngine::with_constraints`]).
    pub fn apply(&mut self, delta: &NetworkDelta) -> Result<ReassignmentReport> {
        self.apply_batch(std::slice::from_ref(delta)).map_err(|e| {
            match e {
                // A one-delta batch can only be rejected by that delta;
                // surface the underlying cause, as `apply` always has.
                Error::Model(m) => Error::Model(m.into_batch_cause()),
                other => other,
            }
        })
    }

    /// Absorbs a whole batch of deltas with **one** model rebuild and
    /// **one** warm re-solve, instead of paying both per delta:
    ///
    /// * the batch is validated transactionally against a staged copy of
    ///   the network (each delta against the state after its predecessors);
    ///   a failing delta leaves network, cache and assignment untouched,
    /// * the per-delta effects are merged and their `touched` union steers
    ///   one [`EnergyCache::refresh_hinted`],
    /// * the staged network is committed and the re-solve warm-starts from
    ///   the projected previous assignment, restricted to the
    ///   [`DEFAULT_LOCALITY_HOPS`]-hop frontier ball around the merged
    ///   touched set.
    ///
    /// An empty batch degenerates to [`DiversityEngine::solve`].
    ///
    /// # Errors
    ///
    /// * [`Error::Model`] wrapping [`netmodel::Error::BatchRejected`] (the
    ///   failing delta's index and cause) — the engine is untouched.
    /// * [`Error::Infeasible`] — the batched domains empty a slot under the
    ///   constraints; the engine is untouched.
    /// * [`Error::UnsatisfiableConstraints`] — see
    ///   [`DiversityEngine::apply`].
    pub fn apply_batch(&mut self, deltas: &[NetworkDelta]) -> Result<ReassignmentReport> {
        if deltas.is_empty() {
            return self.solve();
        }
        let mut staged = self.network.clone();
        let effect = staged
            .apply_all(deltas, &self.catalog)
            .map_err(Error::Model)?;
        let kind = match deltas {
            [single] => single.kind(),
            _ => "batch",
        };
        let stepped = self.step(Some(StagedDeltas {
            network: staged,
            kind,
            effect,
        }));
        // A post-check failure comes after the commit: journal the batch
        // (with no assignment) like a success, or recovery lands behind.
        if let (true, Some(journal)) = (committed(&stepped), self.journal.as_mut()) {
            journal.commit_batch(deltas, &self.network, self.last.as_ref())?;
        }
        stepped
    }

    /// Solves (or re-solves) the current revision without a delta: cold the
    /// first time, warm-started afterwards.
    ///
    /// # Errors
    ///
    /// See [`DiversityEngine::apply`]. A re-solve that fails the
    /// constraint post-check drops the assignment; an attached journal
    /// records that in a snapshot with no assignment.
    pub fn solve(&mut self) -> Result<ReassignmentReport> {
        let stepped = self.step(None);
        if let (true, Some(journal)) = (committed(&stepped), self.journal.as_mut()) {
            journal.commit_snapshot(&self.network, self.last.as_ref())?;
        }
        stepped
    }

    /// Shared pipeline behind [`DiversityEngine::apply`],
    /// [`DiversityEngine::apply_batch`] and [`DiversityEngine::solve`].
    ///
    /// Ordering is what makes the error paths transactional: the cache
    /// refreshes against the *staged* network first, and only a successful
    /// refresh commits the staged network — so validation errors and
    /// [`Error::Infeasible`] leave every piece of engine state (network
    /// revision, cached model, last assignment, carried labeling) at the
    /// previous revision.
    ///
    /// A warm step starts from the carried labeling when one is valid for
    /// the refreshed model, and otherwise derives its start from the last
    /// assignment (module docs); the two differ only in how they obtain the
    /// start labels, the carried objective and the committed rows.
    fn step(&mut self, staged: Option<StagedDeltas>) -> Result<ReassignmentReport> {
        let rebuild_start = Instant::now();
        let target = staged.as_ref().map_or(&self.network, |s| &s.network);
        let hint = staged.as_ref().map(|s| s.effect.touched.as_slice());
        let carried_labels = self.carried.as_ref().map(|c| c.labels.as_slice());
        let (rebuild, edit) =
            self.cache
                .refresh_carrying(target, &self.similarity, hint, carried_labels)?;
        let rebuild_wall = rebuild_start.elapsed();
        // The model matches the staged revision: commit the network.
        let (delta_kind, touched, deltas_applied) = match staged {
            Some(s) => {
                self.network = s.network;
                (Some(s.kind), s.effect.touched, s.effect.applied)
            }
            None => (None, Vec::new(), 0),
        };
        // The carried labeling survives a refresh that left the variables
        // alone or edited them in place; a reassembly renumbers them all.
        let carried = self
            .carried
            .take()
            .filter(|_| !rebuild.rebuilt || edit.is_some());
        let energy = self.cache.model();
        let ctl = SolveControl::new();
        let previous = cfg!(debug_assertions).then(|| self.last.clone()).flatten();

        let solve_start = Instant::now();
        let warm = self.last.as_ref().map(|prev| match carried {
            Some(carried) => WarmStart::carried(energy, prev, carried, edit.as_ref()),
            None => WarmStart::derived(energy, prev),
        });
        let (solution, locality) = match &warm {
            Some(warm) => {
                // The one warm re-solve: the frontier ball around the
                // touched hosts (every live variable when nothing was
                // touched), with the pinned hosts' variables sealed — the
                // shard coordinator, which owns the pins, moves them with
                // cross-shard knowledge this engine does not have.
                let model = energy.model();
                let (ball, frontier) = if touched.is_empty() {
                    (Vec::new(), model.live_vars().collect())
                } else {
                    let ball = frontier_ball(&self.network, &touched, DEFAULT_LOCALITY_HOPS);
                    let frontier = frontier_vars(energy.slots(), &ball);
                    (ball, frontier)
                };
                let sealed = frontier_vars(energy.slots(), &self.pinned);
                let start = Start {
                    labels: warm.labels.clone(),
                    energy: warm.energy,
                };
                let local = self.refiner.refine_local(
                    model,
                    start,
                    &frontier,
                    &sealed,
                    &ctl,
                    &mut self.scratch,
                );
                let locality = if local.full_sweep || touched.is_empty() {
                    Locality::Full(local.swept_vars)
                } else {
                    Locality::Local(ball.len(), local.swept_vars)
                };
                (local.solution, locality)
            }
            None => (
                self.solver
                    .solve_with(energy.model(), &ctl, &mut self.scratch),
                Locality::Full(energy.model().live_var_count()),
            ),
        };
        let solve_wall = solve_start.elapsed();
        let (frontier_hosts, swept_vars, localized) = match locality {
            Locality::Local(hosts, vars) => (hosts, vars, true),
            Locality::Full(vars) => (self.network.active_host_count(), vars, false),
        };

        let (assignment, changed_hosts) = match (self.last.take(), &warm) {
            (Some(prev), Some(warm)) if warm.carried => {
                let rebound = edit.as_ref().map_or(&[][..], |e| e.hosts.as_slice());
                commit_rows(
                    energy,
                    &self.network,
                    prev,
                    rebound,
                    &warm.labels,
                    solution.labels(),
                )
            }
            (prev, _) => {
                let assignment = energy.decode(solution.labels());
                let changed = changed_hosts(&self.network, prev.as_ref(), &assignment);
                (assignment, changed)
            }
        };
        if cfg!(debug_assertions) {
            check_step(
                energy,
                &self.network,
                previous.as_ref(),
                warm.as_ref(),
                &solution,
                &assignment,
                &changed_hosts,
            );
        }
        debug_assert!(assignment.validate(&self.network).is_ok());
        let violations = self
            .cache
            .constraints()
            .violations(&self.network, &assignment);
        if !violations.is_empty() {
            // The model and network moved on; the stale assignment must not
            // seed future warm starts (`last` and the carried labeling were
            // both taken above).
            return Err(Error::UnsatisfiableConstraints {
                violations: violations.len(),
            });
        }

        let solver_name = if warm.is_some() {
            self.refiner.name()
        } else {
            self.solver.name()
        };
        let base = energy.base_energy();
        let report = ReassignmentReport {
            revision: self.network.revision(),
            delta_kind,
            deltas_applied,
            touched,
            changed_hosts,
            objective_before: warm.as_ref().map(|w| w.energy + base),
            objective_after: solution.energy() + base,
            warm_started: warm.is_some(),
            carried: warm.map(|w| w.assignment),
            solver: solver_name,
            rebuild,
            rebuild_wall,
            solve_wall,
            iterations: solution.iterations(),
            converged: solution.converged(),
            lower_bound: solution.lower_bound().map(|lb| lb + base),
            frontier_hosts,
            swept_vars,
            localized,
        };
        self.last = Some(assignment);
        self.carried = Some(Carried {
            energy: solution.energy(),
            labels: solution.into_labels(),
        });
        Ok(report)
    }
}

/// The committed MRF labeling of the current model — one entry per
/// variable slot, 0 at tombstoned slots as
/// [`mrf::projection::project_labels`] leaves them — and its MRF energy
/// (the objective minus the model's base energy). The engine's last
/// assignment is its decoding.
struct Carried {
    labels: Vec<usize>,
    energy: f64,
}

/// Where a warm step starts: the start labels, their MRF energy, and their
/// decoding (the carried-forward assignment the report shows).
struct WarmStart {
    labels: Vec<usize>,
    energy: f64,
    assignment: Assignment,
    /// Whether the start was carried across the refresh rather than
    /// derived: only then do the committed rows re-decode just what moved.
    carried: bool,
}

impl WarmStart {
    /// The carried labeling moved across the refresh: after an in-place
    /// edit, the removed variables' slots are zeroed, the rebound slots'
    /// new variables seeded from their previous products, the energy moved
    /// by the edit's delta, and only the rows of hosts owning a rebound
    /// slot re-decoded into a clone of `prev`, which shares every other
    /// chunk. `O(rebound slots)` apart from the clone's chunk pointers.
    fn carried(
        energy: &EnergyModel,
        prev: &Assignment,
        carried: Carried,
        edit: Option<&Edit>,
    ) -> WarmStart {
        let Carried {
            mut labels,
            energy: mut start_energy,
        } = carried;
        let mut assignment = prev.clone();
        if let Some(edit) = edit {
            let model = energy.model();
            for v in &edit.removed {
                labels[v.0] = 0;
            }
            labels.resize(model.var_count(), 0);
            assignment.resize(energy.slots().len());
            for &(host, slot) in &edit.rebound {
                if let Some(SlotBinding::Variable { var, candidates }) =
                    energy.slots()[host.index()].get(slot)
                {
                    let old = prev.products_at(host).get(slot);
                    labels[var.0] = project_label(model, *var, seed(candidates, old));
                }
            }
            for &host in &edit.hosts {
                assignment.set_row(host, &energy.decode_host(&labels, host));
            }
            start_energy += edit.scope_energy(energy, &labels) - edit.retracted;
        }
        WarmStart {
            labels,
            energy: start_energy,
            assignment,
            carried: true,
        }
    }

    /// The full derivation from the previous assignment alone: seed every
    /// variable from its host's previous row, project, evaluate and decode
    /// the whole model.
    fn derived(energy: &EnergyModel, prev: &Assignment) -> WarmStart {
        let seeds = seed_labels(energy.slots(), energy.model().var_count(), prev);
        let labels = project_labels(energy.model(), &seeds);
        WarmStart {
            energy: energy.model().energy(&labels),
            assignment: energy.decode(&labels),
            labels,
            carried: false,
        }
    }
}

/// How far a (re-)solve reached: a frontier ball of `.0` hosts with `.1`
/// variables swept, or the whole model with `.0` variables swept.
enum Locality {
    Local(usize, usize),
    Full(usize),
}

/// Whether a step's outcome changed the engine: a success, or a
/// post-check failure, which commits the network and drops the
/// assignment. What a journal must record.
fn committed(stepped: &Result<ReassignmentReport>) -> bool {
    matches!(stepped, Ok(_) | Err(Error::UnsatisfiableConstraints { .. }))
}

/// The committed rows after a carried step: `prev`'s rows with the rows
/// of the hosts owning a rebound slot and of every host owning a flipped
/// variable re-decoded from `labels` and written in place, plus the live
/// hosts among them whose row changed — `O(rebound hosts + flips)` rows
/// instead of the whole table.
fn commit_rows(
    energy: &EnergyModel,
    network: &Network,
    mut assignment: Assignment,
    rebound: &[HostId],
    start: &[usize],
    labels: &[usize],
) -> (Assignment, Vec<HostId>) {
    let mut hosts = rebound.to_vec();
    hosts.extend(
        start
            .iter()
            .zip(labels)
            .enumerate()
            .filter(|(_, (before, after))| before != after)
            .map(|(v, _)| energy.owner(VarId(v))),
    );
    hosts.sort_unstable();
    hosts.dedup();
    assignment.resize(energy.slots().len());
    let mut changed = Vec::new();
    for host in hosts {
        let row = energy.decode_host(labels, host);
        if row != assignment.products_at(host) && network.host(host).is_ok_and(|h| !h.is_removed())
        {
            changed.push(host);
        }
        assignment.set_row(host, &row);
    }
    (assignment, changed)
}

/// Debug-build audit of one step against the full derivation: the start
/// labels are the projected seeds of the previous assignment, both
/// objectives match a whole-model evaluation, both assignments match a
/// whole-model decode, and `changed` is the full row diff.
fn check_step(
    energy: &EnergyModel,
    network: &Network,
    previous: Option<&Assignment>,
    warm: Option<&WarmStart>,
    solution: &Solution,
    assignment: &Assignment,
    changed: &[HostId],
) {
    let model = energy.model();
    let close = |carried: f64, labels: &[usize]| {
        let exact = model.energy(labels);
        assert!(
            (carried - exact).abs() <= 1e-9 * exact.abs().max(1.0),
            "carried energy {carried} drifted from the model's {exact}"
        );
    };
    if let (Some(warm), Some(prev)) = (warm, previous) {
        let seeds = seed_labels(energy.slots(), model.var_count(), prev);
        assert_eq!(warm.labels, project_labels(model, &seeds), "start labels");
        close(warm.energy, &warm.labels);
        assert_eq!(warm.assignment, energy.decode(&warm.labels), "carried rows");
    }
    close(solution.energy(), solution.labels());
    assert_eq!(
        *assignment,
        energy.decode(solution.labels()),
        "committed rows"
    );
    assert_eq!(
        changed,
        changed_hosts(network, previous, assignment),
        "changed hosts"
    );
}

/// The live hosts within `k` hops of any host in `touched` (including the
/// touched hosts themselves), by BFS over the committed network. Removed
/// hosts have no links and no variables left, so a tombstone in `touched`
/// is excluded from the ball — its former neighbors are already in the
/// touched set (the delta layer records them).
fn frontier_ball(network: &Network, touched: &[HostId], k: usize) -> Vec<HostId> {
    // Dedupe over the ball alone, not a host-indexed table: O(ball), not
    // O(V), per burst. Sized for the first hop, so it rarely rehashes.
    let first_hop = touched
        .iter()
        .filter(|h| h.index() < network.host_count())
        .map(|&h| 1 + network.degree(h))
        .sum();
    let mut seen = HashSet::with_capacity(first_hop);
    let mut queue = std::collections::VecDeque::new();
    let mut ball = Vec::new();
    for &h in touched {
        if h.index() < network.host_count() && seen.insert(h) {
            if network.host(h).is_ok_and(|host| !host.is_removed()) {
                ball.push(h);
            }
            queue.push_back((h, 0));
        }
    }
    while let Some((h, d)) = queue.pop_front() {
        if d == k {
            continue;
        }
        for &n in network.neighbors(h) {
            if seen.insert(n) {
                ball.push(n);
                queue.push_back((n, d + 1));
            }
        }
    }
    ball
}

/// The free variables of every slot on the given hosts — the frontier, or
/// the seal, handed to [`MapSolver::refine_local`].
fn frontier_vars(slots: &[Vec<SlotBinding>], hosts: &[HostId]) -> Vec<VarId> {
    let mut vars = Vec::new();
    for &h in hosts {
        let Some(host_slots) = slots.get(h.index()) else {
            continue;
        };
        for binding in host_slots {
            if let SlotBinding::Variable { var, .. } = binding {
                vars.push(*var);
            }
        }
    }
    vars
}

/// Per-variable seed labels encoding "the product this slot ran before".
/// Indexed by variable *slot* (`var_count` is the model's slot count, which
/// under the mutable model exceeds the live-variable count when tombstones
/// are present); seeds at dead slots stay `None`.
fn seed_labels(
    slots: &[Vec<SlotBinding>],
    var_count: usize,
    previous: &Assignment,
) -> Vec<Option<usize>> {
    let mut seeds = vec![None; var_count];
    for (host, host_slots) in slots.iter().enumerate() {
        let old_row = previous.products_at(HostId(host as u32));
        for (slot, binding) in host_slots.iter().enumerate() {
            if let SlotBinding::Variable { var, candidates } = binding {
                seeds[var.0] = seed(candidates, old_row.get(slot));
            }
        }
    }
    seeds
}

/// One slot's seed: the label of the product it ran before, if that is
/// still a candidate.
fn seed(candidates: &[ProductId], old: Option<&ProductId>) -> Option<usize> {
    old.and_then(|old| candidates.iter().position(|p| p == old))
}

/// Hosts whose product row differs between `previous` and `current`
/// (removed hosts excluded; hosts new since `previous` included).
fn changed_hosts(
    network: &Network,
    previous: Option<&Assignment>,
    current: &Assignment,
) -> Vec<HostId> {
    network
        .iter_hosts()
        .filter(|(_, host)| !host.is_removed())
        .filter(|(id, _)| match previous {
            Some(prev) => prev.products_at(*id) != current.products_at(*id),
            None => true,
        })
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::constraints::Constraint;
    use netmodel::delta::random_delta;
    use netmodel::topology::{generate, RandomNetworkConfig, TopologyKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use crate::optimizer::DiversityOptimizer;

    fn engine(hosts: usize, seed: u64) -> DiversityEngine {
        let g = generate(
            &RandomNetworkConfig {
                hosts,
                mean_degree: 4,
                services: 2,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            seed,
        );
        DiversityEngine::new(g.network, g.catalog, g.similarity)
    }

    #[test]
    fn cold_solve_matches_batch_optimizer() {
        let g = generate(
            &RandomNetworkConfig {
                hosts: 30,
                mean_degree: 4,
                services: 2,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            3,
        );
        let batch = DiversityOptimizer::new()
            .with_refinement(None)
            .optimize(&g.network, &g.similarity)
            .unwrap();
        let mut eng = DiversityEngine::new(g.network.clone(), g.catalog, g.similarity.clone());
        let report = eng.solve().unwrap();
        assert!(!report.warm_started);
        assert_eq!(report.solver, "trws");
        assert!((report.objective_after - batch.objective()).abs() < 1e-9);
        assert_eq!(
            report.changed_hosts.len(),
            g.network.host_count(),
            "a cold solve reports every host as changed"
        );
        eng.assignment().unwrap().validate(&g.network).unwrap();
    }

    #[test]
    fn warm_resolve_improves_on_carrying_the_old_assignment() {
        let mut eng = engine(40, 5);
        eng.solve().unwrap();
        let os = eng.catalog().service_by_name("service0").unwrap();
        // Mandate a product on one host and re-solve.
        let host = HostId(7);
        let p = eng
            .network()
            .host(host)
            .unwrap()
            .candidates_for(os)
            .unwrap()[1];
        let report = eng.apply(&NetworkDelta::fix_slot(host, os, p)).unwrap();
        assert!(report.warm_started);
        assert_eq!(report.delta_kind, Some("fix-slot"));
        assert_eq!(report.touched, vec![host]);
        assert_eq!(report.rebuild.hosts_refiltered, 1);
        assert!(report.improvement().unwrap() >= -1e-9);
        assert!(report.objective_after <= report.objective_before.unwrap() + 1e-9);
        let carried = report.carried.as_ref().unwrap();
        carried.validate(eng.network()).unwrap();
        // The mandated product holds in both the carried and the re-solved
        // assignment (service0 is slot 0 on generated hosts).
        assert_eq!(carried.products_at(host)[0], p);
        assert_eq!(eng.assignment().unwrap().products_at(host)[0], p);
    }

    #[test]
    fn apply_survives_a_long_random_delta_stream() {
        let mut eng = engine(20, 11);
        eng.solve().unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        for step in 0..60 {
            let delta = random_delta(eng.network(), eng.catalog(), &mut rng, &[HostId(0)]);
            let report = eng
                .apply(&delta)
                .unwrap_or_else(|e| panic!("step {step} ({delta}): {e}"));
            assert!(report.warm_started);
            assert!(report.improvement().unwrap() >= -1e-9);
            eng.assignment().unwrap().validate(eng.network()).unwrap();
        }
        assert_eq!(eng.revision(), 60);
    }

    #[test]
    fn constraints_are_enforced_across_deltas() {
        let g = generate(
            &RandomNetworkConfig {
                hosts: 12,
                mean_degree: 3,
                services: 2,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            9,
        );
        let os = g.catalog.service_by_name("service0").unwrap();
        let p = g.catalog.products_of(os)[0];
        let mut constraints = ConstraintSet::new();
        constraints.push(Constraint::fix(HostId(2), os, p));
        let mut eng = DiversityEngine::new(g.network, g.catalog, g.similarity)
            .with_constraints(constraints.clone());
        eng.solve().unwrap();
        assert!(constraints.is_satisfied(eng.network(), eng.assignment().unwrap()));
        // Drop an existing link and re-solve; the fix must keep holding.
        let (a, b) = eng.network().links()[0];
        eng.apply(&NetworkDelta::remove_link(a, b)).unwrap();
        assert!(constraints.is_satisfied(eng.network(), eng.assignment().unwrap()));
    }

    #[test]
    fn infeasible_delta_surfaces_and_engine_recovers() {
        let g = generate(
            &RandomNetworkConfig {
                hosts: 8,
                mean_degree: 3,
                services: 1,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Ring,
            },
            1,
        );
        let os = g.catalog.service_by_name("service0").unwrap();
        let ps = g.catalog.products_of(os).to_vec();
        let mut constraints = ConstraintSet::new();
        constraints.push(Constraint::fix(HostId(1), os, ps[0]));
        let mut eng =
            DiversityEngine::new(g.network, g.catalog, g.similarity).with_constraints(constraints);
        eng.solve().unwrap();
        // Narrowing host 1 to a different product contradicts the fix.
        let err = eng
            .apply(&NetworkDelta::unfix_slot(HostId(1), os, vec![ps[1]]))
            .unwrap_err();
        assert!(matches!(err, Error::Infeasible { .. }));
        // A corrective delta restores service.
        let report = eng
            .apply(&NetworkDelta::unfix_slot(HostId(1), os, ps.clone()))
            .unwrap();
        assert!(report.objective_after.is_finite());
    }

    #[test]
    fn failed_apply_is_fully_transactional() {
        // Regression: `apply` used to commit the delta to the network even
        // when the cache refresh then failed with Infeasible, leaving the
        // network one revision ahead of the model and the assignment.
        let g = generate(
            &RandomNetworkConfig {
                hosts: 8,
                mean_degree: 3,
                services: 1,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Ring,
            },
            1,
        );
        let os = g.catalog.service_by_name("service0").unwrap();
        let ps = g.catalog.products_of(os).to_vec();
        let mut constraints = ConstraintSet::new();
        constraints.push(Constraint::fix(HostId(1), os, ps[0]));
        let mut eng =
            DiversityEngine::new(g.network, g.catalog, g.similarity).with_constraints(constraints);
        let baseline = eng.solve().unwrap();
        let revision_before = eng.revision();
        let assignment_before = eng.assignment().unwrap().clone();

        // Narrowing host 1 to a different product contradicts the fix.
        let err = eng
            .apply(&NetworkDelta::unfix_slot(HostId(1), os, vec![ps[1]]))
            .unwrap_err();
        assert!(matches!(err, Error::Infeasible { .. }));
        assert_eq!(
            eng.network().revision(),
            revision_before,
            "the failed delta must not reach the network"
        );
        assert_eq!(eng.assignment(), Some(&assignment_before));

        // A subsequent no-delta solve sees a current cache (no rebuild) and
        // the unchanged objective.
        let after = eng.solve().unwrap();
        assert!(!after.rebuild.rebuilt, "cache must still be synced");
        assert!((after.objective_after - baseline.objective_after).abs() < 1e-9);
        assert_eq!(
            after.objective_before,
            Some(baseline.objective_after),
            "the carried objective continues from the pre-failure assignment"
        );

        // And a valid delta still applies cleanly afterwards.
        let report = eng
            .apply(&NetworkDelta::unfix_slot(HostId(2), os, vec![ps[0], ps[1]]))
            .unwrap();
        assert_eq!(report.revision, revision_before + 1);
        assert!(report.improvement().unwrap() >= -1e-9);
    }

    #[test]
    fn batch_absorbs_many_deltas_with_one_rebuild_and_resolve() {
        let mut eng = engine(40, 5);
        eng.solve().unwrap();
        let os = eng.catalog().service_by_name("service0").unwrap();
        let mut deltas = Vec::new();
        let mut expected_touched = Vec::new();
        for h in [3u32, 11, 27, 33] {
            let host = HostId(h);
            let p = eng
                .network()
                .host(host)
                .unwrap()
                .candidates_for(os)
                .unwrap()[0];
            deltas.push(NetworkDelta::fix_slot(host, os, p));
            expected_touched.push(host);
        }
        let revision_before = eng.revision();
        let report = eng.apply_batch(&deltas).unwrap();
        assert_eq!(report.delta_kind, Some("batch"));
        assert_eq!(report.deltas_applied, 4);
        assert_eq!(report.revision, revision_before + 4);
        assert_eq!(report.touched, expected_touched);
        assert_eq!(
            report.rebuild.hosts_refiltered, 4,
            "one refresh refilters exactly the touched hosts"
        );
        assert!(report.warm_started);
        assert!(report.improvement().unwrap() >= -1e-9);
        eng.assignment().unwrap().validate(eng.network()).unwrap();
        // The mandated products hold.
        for (host, delta) in expected_touched.iter().zip(&deltas) {
            let NetworkDelta::FixSlot { product, .. } = delta else {
                unreachable!()
            };
            assert_eq!(eng.assignment().unwrap().products_at(*host)[0], *product);
        }
    }

    #[test]
    fn rejected_batch_leaves_the_engine_untouched() {
        let mut eng = engine(20, 7);
        eng.solve().unwrap();
        let os = eng.catalog().service_by_name("service0").unwrap();
        let p = eng
            .network()
            .host(HostId(2))
            .unwrap()
            .candidates_for(os)
            .unwrap()[0];
        let revision_before = eng.revision();
        let assignment_before = eng.assignment().unwrap().clone();
        let candidates_before = eng
            .network()
            .host(HostId(2))
            .unwrap()
            .candidates_for(os)
            .unwrap()
            .to_vec();
        let err = eng
            .apply_batch(&[
                NetworkDelta::fix_slot(HostId(2), os, p),
                NetworkDelta::add_link(HostId(4), HostId(4)), // self-loop
            ])
            .unwrap_err();
        let Error::Model(netmodel::Error::BatchRejected { index, .. }) = err else {
            panic!("expected a wrapped BatchRejected, got {err}");
        };
        assert_eq!(index, 1);
        assert_eq!(eng.revision(), revision_before);
        assert_eq!(eng.assignment(), Some(&assignment_before));
        assert_eq!(
            eng.network().host(HostId(2)).unwrap().candidates_for(os),
            Some(&candidates_before[..]),
            "the valid prefix (the fix) must have rolled back too"
        );
    }

    #[test]
    fn single_host_delta_resolves_locally() {
        let mut eng = engine(120, 13);
        eng.solve().unwrap();
        let os = eng.catalog().service_by_name("service0").unwrap();
        let host = HostId(60);
        let p = eng
            .network()
            .host(host)
            .unwrap()
            .candidates_for(os)
            .unwrap()[1];
        let report = eng.apply(&NetworkDelta::fix_slot(host, os, p)).unwrap();
        assert!(report.localized, "a one-host mandate must stay local");
        assert!(
            report.frontier_hosts < eng.network().active_host_count() / 2,
            "{} frontier hosts on a {}-host network",
            report.frontier_hosts,
            eng.network().active_host_count()
        );
        assert!(report.swept_vars < report.rebuild.variables);
        assert!(report.improvement().unwrap() >= -1e-9);
        eng.assignment().unwrap().validate(eng.network()).unwrap();
        // A warm solve that touches nothing sweeps everything and reports it.
        let report = eng.solve().unwrap();
        assert!(report.warm_started);
        assert!(!report.localized);
        assert_eq!(report.frontier_hosts, eng.network().active_host_count());
    }
}
