//! Sharded serving: one [`DiversityEngine`] per zone, coordinated at the
//! boundary by dual decomposition.
//!
//! [`crate::engine::DiversityEngine`] owns one network. Real deployments —
//! the paper's case study included — are *zoned*: a Corporate sub-network
//! and a Control sub-network joined by a handful of firewall-mediated
//! links. [`ShardedEngine`] exploits that shape:
//!
//! * the network is partitioned by zone
//!   ([`netmodel::partition::partition_by_zone`]) into N shards, each a
//!   full [`DiversityEngine`] over the zone's induced sub-network, plus an
//!   explicit **boundary set** — the hosts with cross-shard links,
//! * delta bursts are routed to the owning shard(s): a burst confined to
//!   one zone pays that shard's rebuild and localized re-solve only, on a
//!   network a fraction of the full size — and bursts spanning shards are
//!   absorbed by the owners *in parallel* (`std::thread::scope`),
//! * cross-shard links live in **no** shard's model. Steady-state bursts
//!   account for them with a cheap greedy boundary sweep (the *Light*
//!   pass); cold solves and cross-topology changes run **dual
//!   decomposition** (the *Strong* pass, below) and report a primal−dual
//!   gap, which is **not** a certificate (see below).
//!
//! # Zone lifecycle and the incremental partition
//!
//! The partition is a *maintained* structure, not a per-burst recompute:
//! topology deltas replay onto [`netmodel::partition::ZonePartition`]'s
//! incremental mutators (boundary promotion/demotion on link deltas,
//! membership in O(touched)), so a burst at 10k hosts never pays an
//! O(V+E) re-partition ([`ShardedEngine::partition_recomputes`] stays 0
//! after construction). Zones are dynamic: an `AddHost` naming an unknown
//! zone *creates* a shard for it on the spot (inheriting the engine
//! configuration), and a zone that drains to tombstones *retires* its
//! shard — the engine releases its interned model state
//! ([`ShardedEngine::footprint`] shrinks) while the slot remains, ready to
//! revive on the next `AddHost` naming the zone.
//!
//! # Dual decomposition and the reported gap
//!
//! For every cross-shard link and shared service whose two endpoint slots
//! are both free variables, the Strong pass maintains per-label Lagrange
//! multipliers `λ` on each endpoint. Each subgradient round it
//!
//! 1. folds the multipliers into the owning shards' boundary unaries (an
//!    in-place [`mrf::model::UnaryOverlay`] — no model clone), and
//!    minimizes every shard's λ-augmented model in parallel (TRW-S decode,
//!    floored by the current primal labeling's augmented energy so the
//!    subproblem value never exceeds the primal's share),
//! 2. solves each relaxed cross-link term `min_{x̂a,x̂b} sim(x̂a,x̂b) −
//!    λ_a(x̂a) − λ_b(x̂b)` by enumeration,
//! 3. recovers a primal candidate by splicing the shard labelings through
//!    the accept-only-if-better splice, and
//! 4. takes the subgradient step `λ += α_t (𝟙[x] − 𝟙[x̂])` with the
//!    diminishing rule `α_t = α₀ / (1 + t)`.
//!
//! Cross terms with one fixed endpoint fold into the variable side's
//! unaries as constants; fixed–fixed terms are a constant `C`. The sum of
//! shard subproblem values, relaxed cross terms and `C` is the dual value
//! `D(λ)` of the cross-link decomposition. It would be a lower bound on
//! the full objective for any `λ` if the shard subproblems were solved to
//! optimality. They are not: each subproblem value is a *decoded* energy,
//! which bounds the shard's minimum from above, so `D` is no lower bound.
//! After the loop, `D` is re-evaluated at the final `λ` on the final
//! primal labeling, where per cross term
//! `λ_a(x*) + λ_b(x*) + min(cost − λ_a − λ_b) ≤ cost(x*)` holds
//! identically. That keeps the reported [`ShardReport::dual_bound`] (the
//! best such `D` seen) ≤ this engine's own primal, and so keeps
//! [`ShardReport::certified_gap`] `= (P − D)/|P|` nonnegative, but it does
//! not bound the optimum:
//!
//! * On `perfbench`'s 10k instance (`zoned_instance(8, 1250, 777)`), a
//!   cold [`ShardedEngine::solve`] reports `D` = 61,398.9 and `P` =
//!   61,412.4, a gap of 0.022%, while
//!   `DiversityOptimizer::new().optimize` on the same network finds a
//!   feasible 60,319.8, below `D`.
//! * On the enterprise scenario family (bench size, seed 2026), `D` is
//!   1.038× the exact optimum from [`mrf::elimination::Elimination`].
//!
//! The gap measures how far the engine's primal sits from its own dual
//! value, not from the optimum. The names `dual_bound` and
//! `certified_gap` are kept for API stability; the ROADMAP item "Retire
//! the sharded engine" plans the engine's removal (a sound `D` could be
//! no higher than the LP relaxation's bound, about 10× below the primal at
//! 10k hosts). The loop stops at [`DUAL_GAP_TOLERANCE`], on a stalled
//! `D`, or at [`ShardedEngine::with_max_rounds`]; a final polish round
//! refines each shard's full cross-augmented model with a bounded ILS,
//! closing the primal gap the message-passing decodes leave.
//!
//! The accept-only-if-better splice keeps every pass *monotone*: the
//! global objective (shard model energies + cross-link similarity
//! residual) never increases during coordination. Coordination is
//! *skipped* entirely when it cannot matter: no cross-shard links, or a
//! burst that neither changed any boundary host's label nor touched a
//! boundary host nor rewired a cross link. That skip is what keeps an
//! interior-confined burst as cheap as its owning shard.
//!
//! # Constraints
//!
//! [`ShardedEngine::with_constraints`] accepts the same global
//! [`ConstraintSet`] as the single engine and splits it exactly: every
//! constraint form is intra-host, so host-scoped constraints remap to the
//! owning shard's local ids and `ALL`-scoped constraints replicate to
//! every shard (including ones created later for new zones). The split
//! realizes the same feasible set as the unsharded encoding; validation is
//! all-or-nothing with [`Error::ShardRejected`] attribution.
//!
//! # Objective decomposition
//!
//! For any assignment `α`, the full-network objective decomposes exactly:
//!
//! ```text
//! E_full(α) = Σ_shards (E_shard(α|shard) + base_shard) + Σ_cross-links sim(α)
//! ```
//!
//! because every unary, every intra-shard edge and every folded fixed-slot
//! cost appears in exactly one shard model, and every cross-shard link
//! appears in exactly one residual term. [`ShardReport::objective`] is that
//! quantity — directly comparable to
//! [`crate::engine::ReassignmentReport::objective_after`] on the unsharded
//! engine.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mrf::ils::{Ils, IlsOptions};
use mrf::model::{MrfModel, UnaryOverlay, VarId};
use mrf::solver::{MapSolver, SolveControl};
use mrf::trws::{Trws, TrwsOptions};

use netmodel::assignment::Assignment;
use netmodel::catalog::{Catalog, ProductSimilarity};
use netmodel::constraints::{Constraint, ConstraintSet, Scope};
use netmodel::delta::NetworkDelta;
use netmodel::network::Network;
use netmodel::partition::{extract_shard, partition_by_zone, ZonePartition};
use netmodel::HostId;

use crate::energy::SlotBinding;
use crate::engine::{DiversityEngine, ReassignmentReport};
use crate::journal::{Journal, DEFAULT_SNAPSHOT_EVERY};
use crate::optimizer::SolverKind;
use crate::{Error, Result};

/// Default cap on boundary-coordination rounds per step. Coordination
/// normally converges in one or two rounds (a boundary label flips, the
/// neighbor re-responds, done); the cap bounds pathological ping-pong on
/// frustrated boundaries.
pub const DEFAULT_COORDINATION_ROUNDS: usize = 8;

/// Kick budget of the Strong-pass coordinator (a bounded ILS).
/// The Strong pass's final polish round doubles as the post-TRW-S primal
/// repair stage: per-shard message-passing decodes leave a primal gap that
/// iterated local search closes, so the sharded fixpoint typically lands
/// *below* a plain single-engine solve, at a bounded one-time cost per
/// cold solve or cross-topology change.
pub const DEFAULT_COORDINATOR_KICKS: usize = 20;

/// Relative primal−dual gap at which the Strong pass's subgradient loop
/// stops: once `(P − D)/|P|` falls within 1%, further dual rounds rarely
/// move the primal. `D` is not a lower bound (module docs), so this is a
/// stopping rule, not an optimality certificate.
pub const DUAL_GAP_TOLERANCE: f64 = 0.01;

/// Initial subgradient step size `α₀` of the diminishing rule
/// `α_t = α₀ / (1 + t)`. Similarities live in `[0, 1]` and the per-term
/// slack the multipliers must close is a fraction of that, so a
/// quarter-unit first step tracks it without the overshoot a unit step
/// produces (a distorted λ wrecks every shard decode for several rounds).
const DUAL_STEP: f64 = 0.25;

/// Cap on the Strong pass's subgradient rounds. The loop's real stops are
/// the gap tolerance and the patience rule — this cap only bounds
/// pathological oscillation, so it is deliberately larger than
/// [`DEFAULT_COORDINATION_ROUNDS`] (which governs the Light pass;
/// `with_max_rounds(0)` still disables coordination entirely, and a larger
/// explicit `max_rounds` raises this cap too).
const DUAL_SUBGRADIENT_ROUNDS: usize = 48;

/// Subgradient rounds without a dual-bound improvement before the Strong
/// pass stops early — the subproblem solves are deterministic per `λ`, so
/// a long-stalled bound means the multipliers are cycling, not converging.
const DUAL_PATIENCE: usize = 6;

/// Per-round TRW-S iteration cap for the dual subproblem solves. Each
/// round only needs a good decode of the λ-augmented model (the dual value
/// floors it with the warm primal labeling anyway), so capping trades
/// per-round decode quality for round throughput; the cold solve that
/// precedes coordination already did the expensive full pass.
const DUAL_TRWS_ITERATIONS: usize = 40;

/// What one sharded step (a delta burst, or an explicit solve) did.
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The master-network revision this report corresponds to.
    pub revision: u64,
    /// Number of deltas the step absorbed (0 for an explicit solve).
    pub deltas_applied: usize,
    /// Indices of the shards whose sub-network the burst mutated, in shard
    /// order (empty for an explicit solve and for cross-link-only bursts).
    pub shards_touched: Vec<usize>,
    /// Per-shard engine reports for this step (`None` for shards the step
    /// did not re-solve locally).
    pub shard_reports: Vec<Option<ReassignmentReport>>,
    /// Wall-clock time each shard spent in its local step (`ZERO` for
    /// shards that did no local work). Shards run in parallel: the step's
    /// local-solve latency is the *maximum*, not the sum.
    pub per_shard_solve: Vec<Duration>,
    /// Boundary-coordination rounds run (0: coordination was skipped or
    /// unnecessary).
    pub rounds: usize,
    /// Boundary hosts whose product assignment changed during coordination,
    /// summed over rounds.
    pub boundary_flips: usize,
    /// Size of the boundary set after the step.
    pub boundary_hosts: usize,
    /// Number of cross-shard links after the step.
    pub cross_links: usize,
    /// Global objective of the carried-forward assignment (the old products
    /// projected onto the new network; what a non-reoptimizing deployment
    /// would run). `None` on the first solve.
    pub objective_before: Option<f64>,
    /// Global objective after local re-solves and coordination (see module
    /// docs for the decomposition).
    pub objective: f64,
    /// The carried-forward global assignment itself (`None` on the first
    /// solve).
    pub carried: Option<Assignment>,
    /// Dual value of the cross-link decomposition (module docs): the best
    /// dual value any subgradient round achieved, guarded by the closing
    /// re-evaluation at the final `λ` (which is ≤ the primal by
    /// construction). Not a lower bound on the full-network objective:
    /// the shard subproblems are decoded, not solved to optimality.
    /// `None` when the step ran no Strong pass (skipped or Light
    /// coordination).
    pub dual_bound: Option<f64>,
    /// Wall-clock time of the coordination loop (zero when skipped).
    pub coordination_wall: Duration,
    /// Wall-clock time of the whole step.
    pub total_wall: Duration,
}

impl ShardReport {
    /// How much the step improved on carrying the old assignment forward
    /// (`None` on the first solve). Non-negative: local refinement and
    /// coordination both only ever accept improvements.
    pub fn improvement(&self) -> Option<f64> {
        self.objective_before.map(|b| b - self.objective)
    }

    /// The relative gap `(P − D) / |P|` between the reported objective and
    /// [`ShardReport::dual_bound`], clamped at 0 (the closing re-evaluation
    /// keeps `D` ≤ the primal; the clamp absorbs floating-point dust when
    /// they coincide). `None` when no Strong pass ran this step.
    ///
    /// Despite the name this certifies nothing: `D` is not a lower bound
    /// on the optimum (module docs), so a small gap does not mean the
    /// objective is near-optimal. At 10k hosts it reads 0.022% while a
    /// feasible labeling 1.8% below the primal exists.
    pub fn certified_gap(&self) -> Option<f64> {
        self.dual_bound
            .map(|d| ((self.objective - d) / self.objective.abs().max(1e-9)).max(0.0))
    }
}

impl fmt::Display for ShardReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rev {:>4} objective {:>9.4} | {} deltas -> shards {:?} | {} rounds, {} boundary flips | {:?}",
            self.revision,
            self.objective,
            self.deltas_applied,
            self.shards_touched,
            self.rounds,
            self.boundary_flips,
            self.total_wall,
        )?;
        if let Some(gap) = self.certified_gap() {
            write!(f, " | gap {:.2}%", 100.0 * gap)?;
        }
        Ok(())
    }
}

/// One shard: a per-zone engine plus the local→global host-id mapping.
struct Shard {
    engine: DiversityEngine,
    /// Local host id → master host id (index = local id).
    to_global: Vec<HostId>,
    /// Whether the shard's zone has drained to tombstones: the engine
    /// released its model state ([`DiversityEngine::release_model`]) and
    /// solves/compositions skip it. The slot itself stays — ids remain
    /// resolvable and the next `AddHost` naming the zone revives it (cold
    /// rebuild).
    retired: bool,
}

/// How hard a step's boundary coordination works.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoordinationMode {
    /// Nothing the step did can have leaked across shards: evaluate the
    /// objective, run no rounds.
    Skip,
    /// Boundary labels moved but the cross structure did not: proposals
    /// re-solve only the conditioned boundary region (cheap, the
    /// steady-state serving path).
    Light,
    /// The cross structure changed or the engine is solving from cold: the
    /// dual-decomposition subgradient loop runs (module docs), reporting
    /// a primal−dual gap, followed by one full-model polish round
    /// (expensive, the quality path).
    Strong,
}

/// What one coordination pass reports back to the step.
struct CoordTelemetry {
    rounds: usize,
    flips: usize,
    wall: Duration,
    objective: f64,
    /// Best dual value after the closing re-evaluation (Strong pass only).
    dual_bound: Option<f64>,
}

/// The running primal state both coordination passes splice into: the
/// composed global assignment plus the cached pieces of its objective
/// (per-shard model energies, cross residual, total), kept consistent by
/// [`ShardedEngine::try_splice`] so accepting a proposal costs one shard
/// re-encode and one residual scan, not a full re-evaluation.
struct SpliceState {
    global: Assignment,
    /// Per shard: its slice of `global` encoded into shard-model labels
    /// (lazily filled — most shards never propose).
    labels: Vec<Option<Vec<usize>>>,
    shard_energies: Vec<f64>,
    residual: f64,
    total: f64,
}

/// One relaxed cross-shard term of the Strong pass: a (cross link, shared
/// service) pair whose two endpoint slots are both free variables, carrying
/// per-label Lagrange multipliers for each endpoint and the enumerated
/// similarity table over the two candidate lists.
struct DualEdge {
    /// Owning shard and shard-model variable of endpoint `a`.
    sa: usize,
    va: VarId,
    /// Per-label multipliers `λ_a` (len = `a`'s candidate count).
    lambda_a: Vec<f64>,
    sb: usize,
    vb: VarId,
    lambda_b: Vec<f64>,
    /// Row-major `sim(candidate_a[xa], candidate_b[xb])`.
    cost: Vec<f64>,
}

impl DualEdge {
    /// The relaxed term's minimizer: `min_{x̂a,x̂b} cost − λ_a − λ_b` by
    /// enumeration, with the argmin for the subgradient step.
    fn minimize(&self) -> (f64, usize, usize) {
        let lb = self.lambda_b.len();
        let mut best = f64::INFINITY;
        let (mut bxa, mut bxb) = (0, 0);
        for xa in 0..self.lambda_a.len() {
            for xb in 0..lb {
                let v = self.cost[xa * lb + xb] - self.lambda_a[xa] - self.lambda_b[xb];
                if v < best {
                    best = v;
                    bxa = xa;
                    bxb = xb;
                }
            }
        }
        (best, bxa, bxb)
    }
}

/// A zone-sharded diversity service over one evolving network (module
/// docs). Constraint sets split exactly across shards — see
/// [`ShardedEngine::with_constraints`].
pub struct ShardedEngine {
    master: Network,
    catalog: Catalog,
    similarity: ProductSimilarity,
    partition: ZonePartition,
    shards: Vec<Shard>,
    /// Master host id → (shard index, local host id). Total: every master
    /// host is owned by exactly one shard.
    locator: Vec<(usize, HostId)>,
    /// Refines each boundary shard's cross-augmented model in the Strong
    /// pass's closing polish round.
    coordinator: Ils,
    max_rounds: usize,
    /// The full, unsplit constraint set — the `ALL`-scoped subset seeds
    /// shards created later for new zones.
    constraints: ConstraintSet,
    /// From-scratch `partition_by_zone` recomputes since construction.
    /// Stays 0: topology deltas replay incrementally onto the partition
    /// (the field exists so tests and benches can assert exactly that).
    partition_recomputes: u64,
    /// The composed global assignment of the last step.
    last: Option<Assignment>,
    /// Cached per-shard objective (model energy + base) of the current
    /// labeling — kept in sync by every step so the global objective is a
    /// sum plus the cross residual, not an O(model) re-encode per burst.
    shard_objectives: Vec<f64>,
    /// Write-ahead delta journal over the *master* network, when attached
    /// ([`ShardedEngine::with_journal`]). Batches are journaled globally
    /// (pre-routing), so [`crate::journal::recover`] rebuilds the whole
    /// deployment as one [`DiversityEngine`] regardless of sharding.
    journal: Option<Journal>,
}

impl fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("revision", &self.master.revision())
            .field("hosts", &self.master.host_count())
            .field("shards", &self.shards.len())
            .field("boundary_hosts", &self.partition.boundary().len())
            .field("cross_links", &self.partition.cross_links().len())
            .field("solved", &self.last.is_some())
            .field("journaled", &self.journal.is_some())
            .finish()
    }
}

/// What routing one delta burst produced: the per-shard local sub-batches
/// plus the shard/local-id assignments of hosts the burst adds.
struct RoutePlan {
    per_shard: Vec<Vec<NetworkDelta>>,
    /// For each shard, the position in the *original* batch of each routed
    /// delta — how a shard-local rejection maps back to the caller's
    /// indices.
    per_shard_indices: Vec<Vec<usize>>,
    /// `(shard, local id)` per added host, in global-id order starting at
    /// the pre-batch master host count.
    new_hosts: Vec<(usize, HostId)>,
    /// Zone labels (first-appearance order) for which the burst plans a
    /// brand-new shard: planned shard index `shards.len() + i`. The shards
    /// are created only after the whole burst validates.
    new_zones: Vec<Option<String>>,
}

impl ShardedEngine {
    /// Creates a sharded engine over `network`, one shard per distinct zone
    /// label (hosts without a label form one implicit shard). Construction
    /// is lazy like [`DiversityEngine::new`]: shard models are built at the
    /// first [`ShardedEngine::solve`] or [`ShardedEngine::apply_batch`].
    ///
    /// A single-zone network degenerates to one shard with an empty
    /// boundary — the coordination loop never runs and results match the
    /// unsharded engine exactly.
    pub fn new(network: Network, catalog: Catalog, similarity: ProductSimilarity) -> ShardedEngine {
        let partition = partition_by_zone(&network);
        let mut locator = vec![(usize::MAX, HostId(0)); network.host_count()];
        let mut shards = Vec::with_capacity(partition.shard_count());
        for (idx, zone_shard) in partition.shards().iter().enumerate() {
            let view = extract_shard(&network, &zone_shard.members);
            for (local, &global) in view.to_global.iter().enumerate() {
                locator[global.index()] = (idx, HostId(local as u32));
            }
            shards.push(Shard {
                engine: DiversityEngine::new(view.network, catalog.clone(), similarity.clone()),
                to_global: view.to_global,
                retired: false,
            });
        }
        let shard_count = shards.len();
        let mut engine = ShardedEngine {
            master: network,
            catalog,
            similarity,
            partition,
            shards,
            locator,
            coordinator: Ils::new(IlsOptions {
                kicks: DEFAULT_COORDINATOR_KICKS,
                ..IlsOptions::default()
            }),
            max_rounds: DEFAULT_COORDINATION_ROUNDS,
            constraints: ConstraintSet::new(),
            partition_recomputes: 0,
            last: None,
            shard_objectives: vec![0.0; shard_count],
            journal: None,
        };
        engine.refresh_pinned();
        engine
    }

    /// Re-pins every shard's boundary hosts against local warm re-solves:
    /// a shard engine cannot value the cross-shard edges its boundary
    /// hosts sit on, so only the coordination loop may move them (see
    /// [`DiversityEngine::set_pinned_hosts`]). Called whenever the
    /// partition changes.
    fn refresh_pinned(&mut self) {
        for s in 0..self.shards.len() {
            let pinned: Vec<HostId> = self
                .partition
                .boundary_of_shard(s)
                .map(|g| self.locator[g.index()].1)
                .collect();
            self.shards[s].engine.set_pinned_hosts(pinned);
        }
    }

    /// Caps the boundary-coordination rounds per step (default
    /// [`DEFAULT_COORDINATION_ROUNDS`]). `0` disables coordination
    /// entirely — shards then ignore cross-shard links, trading objective
    /// quality for latency.
    pub fn with_max_rounds(mut self, rounds: usize) -> ShardedEngine {
        self.max_rounds = rounds;
        self
    }

    /// Replaces every shard's cold-start solver (see
    /// [`DiversityEngine::with_solver`]).
    pub fn with_solver(self, kind: SolverKind) -> ShardedEngine {
        self.map_engines(|e| e.with_solver(kind.clone()))
    }

    /// Splits a global constraint set exactly across the shards (module
    /// docs): host-scoped constraints remap to the owning shard's local
    /// host ids, `ALL`-scoped constraints replicate to every shard —
    /// including shards created later for new zones, which inherit the
    /// `ALL` subset. The union realizes the same feasible set as handing
    /// the whole set to one unsharded engine. Every shard re-solves cold
    /// on the next step.
    ///
    /// # Errors
    ///
    /// All-or-nothing: [`Error::ShardRejected`] with `shard: None`, the
    /// offending constraint's index, and an
    /// [`netmodel::Error::UnknownHost`] cause when a host-scoped
    /// constraint names a host outside the master network; no engine is
    /// modified. (Constraints that *validate* but are unsatisfiable
    /// surface at solve time as [`Error::Infeasible`], with the host id
    /// remapped back to the master network.)
    ///
    /// # Panics
    ///
    /// Panics if a journal is attached, as
    /// [`DiversityEngine::with_constraints`] does.
    pub fn with_constraints(mut self, constraints: ConstraintSet) -> Result<ShardedEngine> {
        assert!(
            self.journal.is_none(),
            "with_constraints after with_journal: the journal's preamble already recorded the constraint set"
        );
        for (index, c) in constraints.iter().enumerate() {
            if let Some(h) = constraint_host(c) {
                if h.index() >= self.locator.len() {
                    return Err(Error::ShardRejected {
                        shard: None,
                        index,
                        cause: netmodel::Error::UnknownHost(h),
                    });
                }
            }
        }
        let mut per_shard: Vec<ConstraintSet> = vec![ConstraintSet::new(); self.shards.len()];
        for c in constraints.iter() {
            match constraint_host(c) {
                Some(h) => {
                    let (s, local) = self.locator[h.index()];
                    per_shard[s].push(remap_constraint(c.clone(), local));
                }
                None => {
                    for set in per_shard.iter_mut() {
                        set.push(c.clone());
                    }
                }
            }
        }
        let mut sets = per_shard.into_iter();
        self = self.map_engines(|e| {
            e.with_constraints(sets.next().expect("one constraint set per shard"))
        });
        self.constraints = constraints;
        self.last = None;
        self.shard_objectives.iter_mut().for_each(|o| *o = 0.0);
        Ok(self)
    }

    /// Attaches a write-ahead journal at `path` with the default snapshot
    /// cadence, exactly like [`DiversityEngine::with_journal`] — but over
    /// the **master** network: delta bursts are journaled globally before
    /// routing, and snapshots capture the composed assignment, so
    /// [`crate::journal::recover`] rebuilds the deployment as one
    /// [`DiversityEngine`] regardless of how it was sharded when recorded.
    /// Attach after [`ShardedEngine::with_constraints`]: the preamble
    /// captures the full (unsplit) constraint set as configured.
    ///
    /// # Errors
    ///
    /// [`Error::Model`] wrapping [`netmodel::Error::Journal`] on I/O
    /// failure.
    pub fn with_journal(self, path: impl AsRef<Path>) -> Result<ShardedEngine> {
        self.with_journal_cadence(path, Some(DEFAULT_SNAPSHOT_EVERY))
    }

    /// [`ShardedEngine::with_journal`] with an explicit snapshot cadence
    /// (see [`DiversityEngine::with_journal_cadence`]).
    ///
    /// # Errors
    ///
    /// See [`ShardedEngine::with_journal`].
    pub fn with_journal_cadence(
        mut self,
        path: impl AsRef<Path>,
        snapshot_every: Option<usize>,
    ) -> Result<ShardedEngine> {
        self.journal = Some(Journal::attach(
            path,
            &self.catalog,
            &self.similarity,
            &self.constraints,
            &self.master,
            self.last.as_ref(),
            snapshot_every,
        )?);
        Ok(self)
    }

    /// Appends an application-defined mark record to the journal, if one
    /// is attached (no-op otherwise) — see
    /// [`DiversityEngine::journal_mark`].
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

    /// The attached journal, if any — see [`DiversityEngine::journal`].
    pub fn journal(&self) -> Option<&Journal> {
        self.journal.as_ref()
    }

    /// Waits for the journal's in-flight periodic compaction, if any —
    /// see [`DiversityEngine::wait_for_compaction`].
    pub fn wait_for_compaction(&mut self) {
        if let Some(journal) = self.journal.as_mut() {
            journal.wait_for_compaction();
        }
    }

    /// The `ALL`-scoped subset of the stored constraint set — what a shard
    /// created for a new zone starts under.
    fn all_scoped_constraints(&self) -> ConstraintSet {
        self.constraints
            .iter()
            .filter(|c| constraint_host(c).is_none())
            .cloned()
            .collect()
    }

    fn map_engines(mut self, f: impl FnMut(DiversityEngine) -> DiversityEngine) -> ShardedEngine {
        let mut f = f;
        self.shards = self
            .shards
            .into_iter()
            .map(|s| Shard {
                engine: f(s.engine),
                to_global: s.to_global,
                retired: s.retired,
            })
            .collect();
        self
    }

    /// The master network (all zones, cross-shard links included).
    pub fn network(&self) -> &Network {
        &self.master
    }

    /// The catalog backing delta validation.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The similarity matrix in use.
    pub fn similarity(&self) -> &ProductSimilarity {
        &self.similarity
    }

    /// The current zone partition (boundary set, cross links, ownership).
    pub fn partition(&self) -> &ZonePartition {
        &self.partition
    }

    /// Number of shards, retired ones included (shard indices are stable
    /// for the engine's lifetime).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Whether a shard's zone has drained to tombstones and its engine
    /// released its model state (module docs: zone lifecycle).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_retired(&self, shard: usize) -> bool {
        self.shards[shard].retired
    }

    /// From-scratch partition recomputes since construction. Always 0:
    /// topology bursts replay incrementally onto the maintained
    /// [`ZonePartition`] — the accessor exists so tests and benches can
    /// pin that down rather than trust the docs.
    pub fn partition_recomputes(&self) -> u64 {
        self.partition_recomputes
    }

    /// Roll-up of every shard engine's memory-footprint drivers
    /// ([`DiversityEngine::footprint`]): `(interned domains, cached cost
    /// matrices)`, summed. Retired shards contribute 0 — retiring a zone
    /// releases its interned model state — so the roll-up tracks the
    /// *live* deployment even under zone churn.
    pub fn footprint(&self) -> (usize, usize) {
        self.shards.iter().fold((0, 0), |(d, c), s| {
            let (sd, sc) = s.engine.footprint();
            (d + sd, c + sc)
        })
    }

    /// The master-network revision.
    pub fn revision(&self) -> u64 {
        self.master.revision()
    }

    /// The sub-network one shard serves (for inspection and tests).
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn shard_network(&self, shard: usize) -> &Network {
        self.shards[shard].engine.network()
    }

    /// The composed global MAP assignment, if any step has run. Indexed by
    /// master host ids.
    pub fn assignment(&self) -> Option<&Assignment> {
        self.last.as_ref()
    }

    /// Solves every shard (cold the first time, warm afterwards) — in
    /// parallel — and coordinates the boundary.
    ///
    /// # Errors
    ///
    /// Shard model construction errors (see [`DiversityEngine::solve`];
    /// with no constraints, none arise for validated networks).
    pub fn solve(&mut self) -> Result<ShardReport> {
        let start = Instant::now();
        let carried = self.last.clone();
        let cached_previous = self.shard_objectives.clone();
        let (reports, walls) = self
            .run_shards(None)
            .map_err(|(s, e)| self.remap_local_error(s, e))?;
        self.refresh_cached_objectives(&reports);
        let current = self.compose(self.last.as_ref());
        let (coordinated, coordination_changed, telemetry) =
            self.coordinate(current, CoordinationMode::Strong, None);
        self.commit_assignment(coordinated, coordination_changed);
        let objective_before = carried
            .as_ref()
            .map(|c| self.carried_objective(&cached_previous, &reports, c));
        let report = self.report(
            0,
            Vec::new(),
            reports,
            walls,
            telemetry,
            objective_before,
            carried,
            start,
        );
        if let Some(journal) = self.journal.as_mut() {
            journal.commit_snapshot(&self.master, self.last.as_ref())?;
        }
        Ok(report)
    }

    /// Applies one delta end to end (routing, local re-solve, boundary
    /// coordination). Equivalent to a one-delta
    /// [`ShardedEngine::apply_batch`], except that validation errors
    /// surface unwrapped (no [`Error::ShardRejected`] envelope).
    ///
    /// # Errors
    ///
    /// See [`ShardedEngine::apply_batch`].
    pub fn apply(&mut self, delta: &NetworkDelta) -> Result<ShardReport> {
        self.apply_batch(std::slice::from_ref(delta))
            .map_err(|e| match e {
                Error::ShardRejected { cause, .. } => Error::Model(cause),
                Error::Model(m) => Error::Model(m.into_batch_cause()),
                other => other,
            })
    }

    /// Absorbs a delta burst: validates it against the master network
    /// (all-or-nothing), routes each delta to its owning shard (cross-shard
    /// link deltas update the master and the partition only), lets the
    /// touched shards absorb their sub-batches in parallel, replays the
    /// burst's topology changes onto the maintained partition (no
    /// from-scratch recompute), and runs the boundary-coordination loop
    /// when the burst could have affected other shards (module docs).
    ///
    /// Zone lifecycle: an `AddHost` naming a zone no shard owns creates a
    /// new shard for it (inheriting the engine configuration and the
    /// `ALL`-scoped constraints); a `RemoveHost` draining a zone's last
    /// live host retires its shard, releasing the engine's model state.
    ///
    /// An empty batch degenerates to [`ShardedEngine::solve`].
    ///
    /// # Errors
    ///
    /// [`Error::ShardRejected`] — a delta failed validation, reported with
    /// its position in the caller's burst and the id of the shard that
    /// owns it (`None` for cross-shard link deltas); the engine is
    /// untouched.
    pub fn apply_batch(&mut self, deltas: &[NetworkDelta]) -> Result<ShardReport> {
        if deltas.is_empty() {
            return self.solve();
        }
        if self.last.is_none() {
            // Establish per-shard models and a carried baseline first, so
            // the burst itself is measured as a warm absorption.
            self.solve()?;
        }
        let start = Instant::now();
        let plan = self.route(deltas)?;
        let base_global = self.master.host_count();
        let pre_shards = self.shards.len();
        let cached_previous = self.shard_objectives.clone();
        let old_cross = self.partition.cross_links().to_vec();
        let old_boundary_rows = self.boundary_rows();

        let shards_touched: Vec<usize> = plan
            .per_shard
            .iter()
            .enumerate()
            .filter(|(_, d)| !d.is_empty())
            .map(|(s, _)| s)
            .collect();
        let mut staged = self.master.clone();
        let effect = staged
            .apply_all(deltas, &self.catalog)
            .map_err(|e| attribute_master_error(&plan, e))?;
        // The burst validated against the full network: create the shards
        // its new zones need (empty sub-networks inheriting this engine's
        // configuration — the routed `AddHost` deltas populate them next).
        // On the never-expected late shard failure the fresh shards are
        // dropped again, restoring the engine-untouched contract.
        for _ in &plan.new_zones {
            self.push_new_shard();
        }
        let (reports, walls) = match self
            .run_shards(Some(&plan.per_shard))
            .map_err(|(s, e)| remap_shard_error(&plan, s, self.remap_local_error(s, e)))
        {
            Ok(done) => done,
            Err(e) => {
                self.shards.truncate(pre_shards);
                return Err(e);
            }
        };
        self.master = staged;
        // Every fallible step is behind us: from here on the burst commits.
        // Move the previous assignment out instead of cloning it — it
        // becomes the base of the carried composition, and `self.last` is
        // rewritten by `commit_assignment` at the end of the step. (Taking
        // it any earlier would leak it on a rejected burst, breaking the
        // engine-is-untouched error contract.)
        let carried_previous = self.last.take();
        self.shard_objectives.resize(self.shards.len(), 0.0);
        self.refresh_cached_objectives(&reports);
        // A retired shard that absorbed part of the burst (an `AddHost`
        // naming its drained zone) is live again.
        for &s in &shards_touched {
            self.shards[s].retired = false;
        }

        // Commit id mappings and the partition. Topology deltas replay
        // incrementally onto the maintained partition — never a
        // from-scratch recompute (slot-only bursts reuse it untouched).
        for (i, &(shard, local)) in plan.new_hosts.iter().enumerate() {
            debug_assert_eq!(self.shards[shard].to_global.len(), local.index());
            let global = HostId(self.locator.len() as u32);
            debug_assert_eq!(
                global.index(),
                self.master.host_count() - plan.new_hosts.len() + i
            );
            self.locator.push((shard, local));
            self.shards[shard].to_global.push(global);
        }
        if effect.topology_changed {
            self.replay_partition(deltas, base_global);
            self.refresh_pinned();
        }

        // The carried composition — built *before* coordination, while the
        // shard engines still hold their pre-coordination solves: touched
        // shards contribute their projected old assignment, untouched
        // shards their (unchanged) previous one. A shard born (or revived
        // from empty) this very burst has nothing to carry — its own cold
        // solve is the baseline, so the carry includes the new hosts'
        // energy and cross links and `improvement()` measures only what
        // re-solving and coordination bought on top.
        let carried = carried_previous.map(|mut carried| {
            carried.resize(self.master.host_count());
            for (s, report) in reports.iter().enumerate() {
                let Some(report) = report else { continue };
                let fresh = self.shards[s].engine.assignment();
                let shard_carried = match (&report.carried, fresh) {
                    (Some(carried), _) => carried,
                    (None, Some(cold)) => cold,
                    (None, None) => continue,
                };
                for (local, &global) in self.shards[s].to_global.iter().enumerate() {
                    carried.set_row(global, shard_carried.products_at(HostId(local as u32)));
                }
            }
            carried
        });
        let objective_before = carried
            .as_ref()
            .map(|c| self.carried_objective(&cached_previous, &reports, c));

        // Coordinate only when the burst could have leaked across shards —
        // and only as hard as the leak warrants: a rewired cross structure
        // gets the full-model Strong pass, while a mere boundary-label
        // wobble (a local re-solve moving a boundary host) gets the cheap
        // conditioned-region Light pass.
        let current = self.compose(carried.as_ref());
        let cross_changed = old_cross != self.partition.cross_links();
        let touched_boundary = effect
            .touched
            .iter()
            .any(|&h| self.partition.is_boundary(h));
        let boundary_label_changed = {
            let new_rows = self.boundary_rows_of(&current);
            new_rows != old_boundary_rows
        };
        // Boundary hosts are pinned against local re-solves, so their own
        // labels only move here — but a re-solve changing their *interior
        // neighbors* (or a structural touch at the boundary itself) shifts
        // what that shard's boundary best response is. `stale` flags
        // exactly those shards, per shard.
        let stale: Vec<bool> = {
            let mut changed = std::collections::HashSet::new();
            for (s, report) in reports.iter().enumerate() {
                let Some(report) = report else { continue };
                for &local in &report.changed_hosts {
                    changed.insert(self.shards[s].to_global[local.index()]);
                }
            }
            (0..self.shards.len())
                .map(|s| {
                    self.partition.boundary_of_shard(s).any(|b| {
                        effect.touched.contains(&b)
                            || self.master.neighbors(b).iter().any(|n| changed.contains(n))
                    })
                })
                .collect()
        };
        let mode = if cross_changed {
            CoordinationMode::Strong
        } else if touched_boundary || boundary_label_changed || stale.iter().any(|&s| s) {
            CoordinationMode::Light
        } else {
            CoordinationMode::Skip
        };
        // A trigger outside the per-shard stale flags (a boundary row that
        // moved structurally) re-opens every shard.
        let stale_filter = (!(touched_boundary || boundary_label_changed)
            && mode == CoordinationMode::Light)
            .then_some(stale.as_slice());
        // A rewired cross structure can strand the local solves above the
        // carried composition: a fresh boundary host is labeled blind to
        // its cross links, and the Strong pass is allowed to stop within
        // its gap tolerance without clawing that back. Seed coordination
        // with the better of the two states, so a step never ends worse
        // than carrying forward. (Strong-only: the extra full-network
        // evaluation is noise next to the dual pass, and without a cross
        // rewire the pinned boundaries make local solves monotone against
        // the carry already.)
        let (current, seeded_carry) = match (&carried, objective_before) {
            (Some(carry), Some(before))
                if mode == CoordinationMode::Strong
                    && before < self.global_objective(&current) - 1e-12 =>
            {
                (carry.clone(), true)
            }
            _ => (current, false),
        };
        let (coordinated, coordination_changed, telemetry) =
            self.coordinate(current, mode, stale_filter);
        // A carry seed means the committed assignment differs from the
        // shard engines' own re-solves even when coordination spliced
        // nothing — force the write-back sync.
        self.commit_assignment(coordinated, coordination_changed || seeded_carry);

        let report = self.report(
            effect.applied,
            shards_touched,
            reports,
            walls,
            telemetry,
            objective_before,
            carried,
            start,
        );
        if let Some(journal) = self.journal.as_mut() {
            journal.commit_batch(deltas, &self.master, self.last.as_ref())?;
        }
        Ok(report)
    }

    /// The global objective of any assignment over the master network:
    /// shard model energies plus the cross-link similarity residual
    /// (module docs). Meaningful once every shard has a model (i.e. after
    /// any step).
    pub fn global_objective(&self, assignment: &Assignment) -> f64 {
        let mut total = self.cross_residual(assignment);
        for (s, shard) in self.shards.iter().enumerate() {
            if shard.retired {
                continue;
            }
            let energy = shard.engine.energy();
            let labels = self.encode_shard(s, assignment);
            total += energy.model().energy(&labels) + energy.base_energy();
        }
        total
    }

    /// Syncs the cached per-shard objectives with the shards that just
    /// re-solved.
    fn refresh_cached_objectives(&mut self, reports: &[Option<ReassignmentReport>]) {
        for (s, report) in reports.iter().enumerate() {
            if let Some(report) = report {
                self.shard_objectives[s] = report.objective_after;
            }
        }
    }

    /// The global objective of the carried composition, from cached parts:
    /// shards that re-solved contribute the carried objective their own
    /// report measured; untouched shards contribute their pre-step cached
    /// objective (their model and labels did not move). A shard whose
    /// report has no carry cold-solved this burst (it was just created or
    /// revived): its own solve is its baseline, matching the carried
    /// assignment's fallback above.
    fn carried_objective(
        &self,
        cached_previous: &[f64],
        reports: &[Option<ReassignmentReport>],
        carried: &Assignment,
    ) -> f64 {
        let mut total = self.cross_residual(carried);
        for (s, report) in reports.iter().enumerate() {
            let cached = cached_previous.get(s).copied().unwrap_or(0.0);
            total += match report {
                Some(report) => report.objective_before.unwrap_or(report.objective_after),
                None => cached,
            };
        }
        total
    }

    /// Runs the shards' local steps in parallel: `solve()` on every shard
    /// when `batches` is `None`, `apply_batch(batch)` on shards with a
    /// non-empty sub-batch otherwise. An error is tagged with the shard it
    /// came from so the caller can map sub-batch indices back to the
    /// original burst.
    #[allow(clippy::type_complexity)]
    fn run_shards(
        &mut self,
        batches: Option<&[Vec<NetworkDelta>]>,
    ) -> std::result::Result<(Vec<Option<ReassignmentReport>>, Vec<Duration>), (usize, Error)> {
        // A burst confined to one shard needs no threads — spawn/join would
        // cost more than they buy on the serving path.
        if let Some(per_shard) = batches {
            let working: Vec<usize> = per_shard
                .iter()
                .enumerate()
                .filter(|(_, b)| !b.is_empty())
                .map(|(s, _)| s)
                .collect();
            if let [only] = working[..] {
                let mut reports = vec![None; self.shards.len()];
                let mut walls = vec![Duration::ZERO; self.shards.len()];
                let t = Instant::now();
                let report = self.shards[only]
                    .engine
                    .apply_batch(&per_shard[only])
                    .map_err(|e| (only, e))?;
                walls[only] = t.elapsed();
                reports[only] = Some(report);
                return Ok((reports, walls));
            }
        }
        let mut outcomes: Vec<Option<(Result<ReassignmentReport>, Duration)>> = Vec::new();
        std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(s, shard)| {
                    let work: Option<Option<&[NetworkDelta]>> = match batches {
                        // A retired shard has no live hosts and no model —
                        // a full solve skips it (a non-empty sub-batch,
                        // the revival path, still runs below).
                        None if shard.retired => None,
                        None => Some(None),
                        Some(per_shard) if !per_shard[s].is_empty() => {
                            Some(Some(per_shard[s].as_slice()))
                        }
                        Some(_) => None,
                    };
                    work.map(|batch| {
                        scope.spawn(move || {
                            let t = Instant::now();
                            let result = match batch {
                                None => shard.engine.solve(),
                                Some(deltas) => shard.engine.apply_batch(deltas),
                            };
                            (result, t.elapsed())
                        })
                    })
                })
                .collect();
            outcomes = handles
                .into_iter()
                .map(|h| h.map(|h| h.join().expect("shard step does not panic")))
                .collect();
        });
        let mut reports = Vec::with_capacity(outcomes.len());
        let mut walls = Vec::with_capacity(outcomes.len());
        for (s, outcome) in outcomes.into_iter().enumerate() {
            match outcome {
                Some((result, wall)) => {
                    reports.push(Some(result.map_err(|e| (s, e))?));
                    walls.push(wall);
                }
                None => {
                    reports.push(None);
                    walls.push(Duration::ZERO);
                }
            }
        }
        Ok((reports, walls))
    }

    /// Splits a burst into per-shard local sub-batches (host ids
    /// remapped), leaving cross-shard link deltas to the master. An
    /// `AddHost` naming a zone no shard owns plans a brand-new shard
    /// (`new_zones`); the shard is created only once the burst validates.
    /// Rejects out-of-range host references; everything else is validated
    /// by the shard (and, for structural bursts, master) apply.
    fn route(&self, deltas: &[NetworkDelta]) -> Result<RoutePlan> {
        let mut per_shard: Vec<Vec<NetworkDelta>> = vec![Vec::new(); self.shards.len()];
        let mut per_shard_indices: Vec<Vec<usize>> = vec![Vec::new(); self.shards.len()];
        let mut new_hosts: Vec<(usize, HostId)> = Vec::new();
        let mut new_zones: Vec<Option<String>> = Vec::new();
        let mut next_local: Vec<u32> = self
            .shards
            .iter()
            .map(|s| s.engine.network().host_count() as u32)
            .collect();
        let base_global = self.master.host_count();
        let lookup = |h: HostId, new_hosts: &[(usize, HostId)]| -> Result<(usize, HostId)> {
            if h.index() < self.locator.len() {
                Ok(self.locator[h.index()])
            } else {
                // Hosts this very burst added, or a bogus reference.
                new_hosts
                    .get(h.index() - base_global)
                    .copied()
                    .ok_or(Error::Model(netmodel::Error::UnknownHost(h)))
            }
        };
        for (index, delta) in deltas.iter().enumerate() {
            let routed: Option<(usize, NetworkDelta)> = match delta {
                NetworkDelta::AddHost {
                    name,
                    zone,
                    services,
                    links,
                } => {
                    let shard = match self.partition.shard_of_zone(zone.as_deref()) {
                        Some(s) => s,
                        // Zone lifecycle (module docs): an unknown zone
                        // plans a new shard at the next free index.
                        None => match new_zones.iter().position(|z| z == zone) {
                            Some(i) => self.shards.len() + i,
                            None => {
                                new_zones.push(zone.clone());
                                per_shard.push(Vec::new());
                                per_shard_indices.push(Vec::new());
                                next_local.push(0);
                                self.shards.len() + new_zones.len() - 1
                            }
                        },
                    };
                    // Same-shard links join the shard sub-network; links to
                    // other shards exist only in the master and surface as
                    // cross links (boundary promotion) after the commit.
                    let mut local_links = Vec::new();
                    for &peer in links {
                        let (s, local) = lookup(peer, &new_hosts)?;
                        if s == shard {
                            local_links.push(local);
                        }
                    }
                    new_hosts.push((shard, HostId(next_local[shard])));
                    next_local[shard] += 1;
                    Some((
                        shard,
                        NetworkDelta::AddHost {
                            name: name.clone(),
                            zone: zone.clone(),
                            services: services.clone(),
                            links: local_links,
                        },
                    ))
                }
                NetworkDelta::RemoveHost { host } => {
                    let (s, local) = lookup(*host, &new_hosts)?;
                    Some((s, NetworkDelta::remove_host(local)))
                }
                NetworkDelta::AddLink { a, b } | NetworkDelta::RemoveLink { a, b } => {
                    let (sa, la) = lookup(*a, &new_hosts)?;
                    let (sb, lb) = lookup(*b, &new_hosts)?;
                    if sa == sb {
                        Some((
                            sa,
                            match delta {
                                NetworkDelta::AddLink { .. } => NetworkDelta::add_link(la, lb),
                                _ => NetworkDelta::remove_link(la, lb),
                            },
                        ))
                    } else {
                        None
                    }
                }
                NetworkDelta::FixSlot {
                    host,
                    service,
                    product,
                } => {
                    let (s, local) = lookup(*host, &new_hosts)?;
                    Some((s, NetworkDelta::fix_slot(local, *service, *product)))
                }
                NetworkDelta::UnfixSlot {
                    host,
                    service,
                    candidates,
                } => {
                    let (s, local) = lookup(*host, &new_hosts)?;
                    Some((
                        s,
                        NetworkDelta::unfix_slot(local, *service, candidates.clone()),
                    ))
                }
                NetworkDelta::ExtendCandidates {
                    host,
                    service,
                    products,
                } => {
                    let (s, local) = lookup(*host, &new_hosts)?;
                    Some((
                        s,
                        NetworkDelta::extend_candidates(local, *service, products.clone()),
                    ))
                }
            };
            if let Some((s, local_delta)) = routed {
                per_shard[s].push(local_delta);
                per_shard_indices[s].push(index);
            }
        }
        Ok(RoutePlan {
            per_shard,
            per_shard_indices,
            new_hosts,
            new_zones,
        })
    }

    /// Appends a brand-new shard for a zone the current burst introduces:
    /// an engine over the empty sub-network, inheriting this engine's
    /// solver and refiner and the `ALL`-scoped constraints. The burst's routed `AddHost` deltas populate it in the
    /// same step.
    fn push_new_shard(&mut self) {
        let view = extract_shard(&self.master, &[]);
        let engine = match self.shards.first() {
            Some(template) => template.engine.configured_like(
                view.network,
                self.catalog.clone(),
                self.similarity.clone(),
            ),
            None => {
                DiversityEngine::new(view.network, self.catalog.clone(), self.similarity.clone())
            }
        };
        self.shards.push(Shard {
            // `configured_like` copies the template's constraint set, which
            // includes host-scoped locals of the *template's* zone; a new
            // zone starts under the `ALL`-scoped subset only.
            engine: engine.with_constraints(self.all_scoped_constraints()),
            to_global: view.to_global,
            retired: false,
        });
    }

    /// Retires a drained shard (module docs: zone lifecycle): the engine
    /// releases its interned model state, and solves/compositions skip the
    /// slot until an `AddHost` naming the zone revives it.
    fn retire_shard(&mut self, s: usize) {
        self.shards[s].retired = true;
        self.shards[s].engine.release_model();
        self.shard_objectives[s] = 0.0;
    }

    /// Replays a committed burst's topology deltas onto the maintained
    /// partition, in burst order — incremental boundary promotion and
    /// demotion, O(touched · degree), never a from-scratch recompute. A
    /// shard whose zone the burst leaves drained (a `RemoveHost` took its
    /// last live host and no later `AddHost` of the burst joined it)
    /// retires. `next_global` is the master host count *before* the burst:
    /// the k-th `AddHost` owns global id `next_global + k`, matching the
    /// locator commit.
    fn replay_partition(&mut self, deltas: &[NetworkDelta], mut next_global: usize) {
        let mut drained = Vec::new();
        for delta in deltas {
            match delta {
                NetworkDelta::AddHost { zone, links, .. } => {
                    let host = HostId(next_global as u32);
                    next_global += 1;
                    let (shard, _) = self.partition.add_host(host, zone.as_deref());
                    debug_assert!(
                        shard < self.shards.len(),
                        "partition zone creation tracks the routed shard creation"
                    );
                    drained.retain(|&s| s != shard);
                    for &peer in links {
                        self.partition.add_link(host, peer);
                    }
                }
                NetworkDelta::RemoveHost { host } => {
                    let shard = self.partition.shard_of(*host);
                    if self.partition.remove_host(*host) == 0 {
                        drained.push(shard.expect("removed host was live in the partition"));
                    }
                }
                NetworkDelta::AddLink { a, b } => self.partition.add_link(*a, *b),
                NetworkDelta::RemoveLink { a, b } => self.partition.remove_link(*a, *b),
                _ => {}
            }
        }
        for shard in drained {
            self.retire_shard(shard);
        }
    }

    /// Maps a shard-local solve error's host ids back to master ids —
    /// [`Error::Infeasible`] is the one solve-time error naming a host.
    fn remap_local_error(&self, s: usize, e: Error) -> Error {
        match e {
            Error::Infeasible { host, service } => Error::Infeasible {
                host: self.shards[s]
                    .to_global
                    .get(host.index())
                    .copied()
                    .unwrap_or(host),
                service,
            },
            other => other,
        }
    }

    /// Composes the global assignment from the shards' current ones,
    /// writing every host's row into a clone of `base` (an earlier global
    /// assignment, if any): the chunks whose rows did not move stay shared
    /// with `base`.
    fn compose(&self, base: Option<&Assignment>) -> Assignment {
        let mut global = base.cloned().unwrap_or_default();
        global.resize(self.master.host_count());
        for shard in &self.shards {
            // A drained zone's hosts are tombstones in the master: their
            // rows are empty, same as the unsharded engine's.
            let assignment = (!shard.retired).then(|| {
                shard
                    .engine
                    .assignment()
                    .expect("compose runs only after every live shard has solved")
            });
            for (local, &g) in shard.to_global.iter().enumerate() {
                let row = assignment.map_or(&[][..], |a| a.products_at(HostId(local as u32)));
                global.set_row(g, row);
            }
        }
        global
    }

    /// Writes the step's global assignment back: the whole into
    /// `self.last`, and — only when coordination actually changed labels —
    /// each shard's slice into its engine so the next warm start continues
    /// from the coordinated labeling (when nothing changed, the engines
    /// already hold exactly these labels).
    fn commit_assignment(&mut self, global: Assignment, coordination_changed: bool) {
        if coordination_changed {
            for shard in &mut self.shards {
                let mut local = shard.engine.assignment().cloned().unwrap_or_default();
                local.resize(shard.to_global.len());
                for (l, &g) in shard.to_global.iter().enumerate() {
                    local.set_row(HostId(l as u32), global.products_at(g));
                }
                shard.engine.set_assignment(local);
            }
        }
        self.last = Some(global);
    }

    /// The boundary hosts' current product rows (the state compared across
    /// a step to decide whether coordination is needed).
    fn boundary_rows(&self) -> Vec<(HostId, Vec<netmodel::ProductId>)> {
        match &self.last {
            Some(assignment) => self.boundary_rows_of(assignment),
            None => Vec::new(),
        }
    }

    fn boundary_rows_of(&self, assignment: &Assignment) -> Vec<(HostId, Vec<netmodel::ProductId>)> {
        self.partition
            .boundary()
            .iter()
            .map(|&h| (h, assignment.products_at(h).to_vec()))
            .collect()
    }

    /// Encodes `assignment`'s products at shard `s`'s hosts into that
    /// shard's model labels.
    fn encode_shard(&self, s: usize, assignment: &Assignment) -> Vec<usize> {
        let shard = &self.shards[s];
        let energy = shard.engine.energy();
        let mut labels = vec![0usize; energy.model().var_count()];
        for (local, host_slots) in energy.slots().iter().enumerate() {
            let global = shard.to_global[local];
            let row = assignment.products_at(global);
            for (slot, binding) in host_slots.iter().enumerate() {
                if let SlotBinding::Variable { var, candidates } = binding {
                    labels[var.0] = candidates
                        .iter()
                        .position(|p| Some(p) == row.get(slot))
                        .expect("assignment product is a current candidate");
                }
            }
        }
        labels
    }

    /// Σ over cross-shard links of the assignment-level similarity — the
    /// part of the objective no shard model sees.
    fn cross_residual(&self, assignment: &Assignment) -> f64 {
        self.partition
            .cross_links()
            .iter()
            .map(|&(a, b)| assignment.edge_similarity(&self.master, &self.similarity, a, b))
            .sum()
    }

    /// The shard's boundary slot variables with what the cross-cost fold
    /// needs to know about each: the owning (global) host, the slot's
    /// service, and its candidate list.
    #[allow(clippy::type_complexity)]
    fn boundary_entries(
        &self,
        s: usize,
    ) -> Vec<(
        VarId,
        HostId,
        netmodel::ServiceId,
        Arc<Vec<netmodel::ProductId>>,
    )> {
        let shard = &self.shards[s];
        let energy = shard.engine.energy();
        let mut entries = Vec::new();
        for global in self.partition.boundary_of_shard(s) {
            let (_, local) = self.locator[global.index()];
            let Ok(host) = shard.engine.network().host(local) else {
                continue;
            };
            let Some(host_slots) = energy.slots().get(local.index()) else {
                continue;
            };
            for (slot, binding) in host_slots.iter().enumerate() {
                if let SlotBinding::Variable { var, candidates } = binding {
                    entries.push((
                        *var,
                        global,
                        host.services()[slot].service(),
                        Arc::clone(candidates),
                    ));
                }
            }
        }
        entries
    }

    /// A Light coordination proposal: a greedy masked sweep *in place* on
    /// the shard model, seeded at the boundary variables, with the
    /// cross-shard edge costs against the neighbors' frozen labels added
    /// as per-variable cost addons. Flips activate intra-shard neighbors
    /// (which carry no addon — their cross cost is zero by definition of
    /// the boundary), so the sweep expands exactly as far as the response
    /// wave carries. No submodel, no allocation beyond the label vector:
    /// cheap enough to run on every burst.
    fn light_proposal(
        &self,
        s: usize,
        start: &[usize],
        global: &Assignment,
        boundary: &[(
            VarId,
            HostId,
            netmodel::ServiceId,
            Arc<Vec<netmodel::ProductId>>,
        )],
    ) -> Vec<usize> {
        let shard = &self.shards[s];
        let model = shard.engine.energy().model();
        let n = model.var_count();
        let addon = self.cross_addons(n, global, boundary);
        let mut labels = start.to_vec();
        let mut active = vec![false; n];
        for (var, ..) in boundary {
            if var.0 < n {
                active[var.0] = true;
            }
        }
        let mut cost = vec![0.0f64; model.max_labels()];
        const LIGHT_SWEEPS: usize = 8;
        for _ in 0..LIGHT_SWEEPS {
            let mut changed = false;
            for i in 0..n {
                if !active[i] {
                    continue;
                }
                let l = model.labels(VarId(i));
                cost[..l].copy_from_slice(model.unary(VarId(i)));
                for &eidx in model.incident_edges(VarId(i)) {
                    let edge = model.edges()[eidx as usize];
                    if edge.a().0 == i {
                        let xb = labels[edge.b().0];
                        for (xa, c) in cost[..l].iter_mut().enumerate() {
                            *c += model.edge_cost(&edge, xa, xb);
                        }
                    } else {
                        let xa = labels[edge.a().0];
                        for (xb, c) in cost[..l].iter_mut().enumerate() {
                            *c += model.edge_cost(&edge, xa, xb);
                        }
                    }
                }
                if let Some(extra) = &addon[i] {
                    for (x, c) in cost[..l].iter_mut().enumerate() {
                        *c += extra[x];
                    }
                }
                let best = cost[..l]
                    .iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(x, _)| x)
                    .unwrap_or(0);
                if best != labels[i] && cost[best] < cost[labels[i]] {
                    labels[i] = best;
                    changed = true;
                    for &eidx in model.incident_edges(VarId(i)) {
                        let edge = model.edges()[eidx as usize];
                        let other = if edge.a().0 == i {
                            edge.b().0
                        } else {
                            edge.a().0
                        };
                        active[other] = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
        labels
    }

    /// The cross-shard cost addon per variable of a shard, against the
    /// neighbors' current (frozen) labels in `global`: for each boundary
    /// variable, the extra unary cost each candidate pays over that host's
    /// cross links. The single source of truth for the residual fold — the
    /// Strong augmentation and the Light sweep must optimize the same
    /// objective or the accept-only-if-better invariant silently breaks.
    #[allow(clippy::type_complexity)]
    fn cross_addons(
        &self,
        var_count: usize,
        global: &Assignment,
        boundary: &[(
            VarId,
            HostId,
            netmodel::ServiceId,
            Arc<Vec<netmodel::ProductId>>,
        )],
    ) -> Vec<Option<Vec<f64>>> {
        let mut addon: Vec<Option<Vec<f64>>> = vec![None; var_count];
        for (var, ghost, service, candidates) in boundary {
            let mut extra = vec![0.0; candidates.len()];
            let mut any = false;
            for &(a, b) in self.partition.cross_links() {
                let peer = if a == *ghost {
                    b
                } else if b == *ghost {
                    a
                } else {
                    continue;
                };
                let Some(pb) = global.product_for(&self.master, peer, *service) else {
                    continue;
                };
                for (label, &candidate) in candidates.iter().enumerate() {
                    extra[label] += self.similarity.get(candidate, pb);
                }
                any = true;
            }
            if any {
                addon[var.0] = Some(extra);
            }
        }
        addon
    }

    /// Builds shard `s`'s *full* model with the cross-shard edge costs
    /// against the neighbors' current labels folded into the boundary
    /// variables' unaries — the model the Strong pass's polish round
    /// refines in full.
    fn augmented_full_model(&self, s: usize, global: &Assignment) -> MrfModel {
        let shard = &self.shards[s];
        let energy = shard.engine.energy();
        let model = energy.model();
        let addons = self.cross_addons(model.var_count(), global, &self.boundary_entries(s));
        let mut augmented = MrfModel::new();
        // Mirror the shard model's slot layout so labelings transfer
        // verbatim; tombstoned slots become inert 1-label placeholders
        // (their label in any transferred labeling is ignored either way).
        for v in 0..model.var_count() {
            augmented
                .add_var(model.labels(VarId(v)).max(1))
                .expect("every slot gets at least one label");
        }
        for (v, addon) in addons.iter().enumerate() {
            if !model.is_live(VarId(v)) {
                continue;
            }
            let mut unary = model.unary(VarId(v)).to_vec();
            if let Some(extra) = addon {
                for (label, u) in unary.iter_mut().enumerate() {
                    *u += extra[label];
                }
            }
            augmented
                .set_unary(VarId(v), unary)
                .expect("arity is copied from the shard model");
        }
        for (_, edge) in model.live_edges() {
            let (la, lb) = (model.labels(edge.a()), model.labels(edge.b()));
            let mut costs = Vec::with_capacity(la * lb);
            for xa in 0..la {
                for xb in 0..lb {
                    costs.push(model.edge_cost(edge, xa, xb));
                }
            }
            augmented
                .add_pairwise_dense(edge.a(), edge.b(), costs)
                .expect("edges are copied from the shard model");
        }
        augmented
    }

    /// The boundary-coordination dispatcher (module docs). Returns the
    /// (possibly improved) global assignment, whether any proposal was
    /// accepted, and the pass telemetry; syncs the cached per-shard
    /// objectives. With mode `Skip` (or no cross links, or a zero round
    /// cap) it only evaluates the objective from the cached parts.
    /// `stale`, when given, restricts the Light pass's first-round
    /// proposals to the flagged shards — the only ones whose boundary
    /// best-response can have changed; an accepted proposal re-opens every
    /// shard for the following rounds.
    fn coordinate(
        &mut self,
        current: Assignment,
        mode: CoordinationMode,
        stale: Option<&[bool]>,
    ) -> (Assignment, bool, CoordTelemetry) {
        let wall = Instant::now();
        if mode == CoordinationMode::Skip
            || self.partition.cross_links().is_empty()
            || self.max_rounds == 0
        {
            let objective =
                self.shard_objectives.iter().sum::<f64>() + self.cross_residual(&current);
            return (
                current,
                false,
                CoordTelemetry {
                    rounds: 0,
                    flips: 0,
                    wall: wall.elapsed(),
                    objective,
                    dual_bound: None,
                },
            );
        }
        let residual = self.cross_residual(&current);
        let shard_energies = self.shard_objectives.clone();
        let total = shard_energies.iter().sum::<f64>() + residual;
        let mut st = SpliceState {
            global: current,
            labels: vec![None; self.shards.len()],
            shard_energies,
            residual,
            total,
        };
        let (any_accepted, rounds, flips, dual_bound) = match mode {
            CoordinationMode::Strong => self.coordinate_dual(&mut st),
            _ => self.coordinate_light(&mut st, stale),
        };
        self.shard_objectives = st.shard_energies;
        (
            st.global,
            any_accepted,
            CoordTelemetry {
                rounds,
                flips,
                wall: wall.elapsed(),
                objective: st.total,
                dual_bound,
            },
        )
    }

    /// Splices one shard's proposed labeling into the running primal
    /// state, accepted only on strict global improvement — the
    /// monotonicity guarantee every pass shares. Returns the number of
    /// boundary hosts the accepted proposal moved (`None`: rejected, or a
    /// no-op proposal).
    fn try_splice(&self, st: &mut SpliceState, s: usize, proposal: Vec<usize>) -> Option<usize> {
        if st.labels[s].is_none() {
            st.labels[s] = Some(self.encode_shard(s, &st.global));
        }
        if Some(&proposal) == st.labels[s].as_ref() {
            return None;
        }
        let energy = self.shards[s].engine.energy();
        let candidate_shard_energy = energy.model().energy(&proposal) + energy.base_energy();
        let local_rows = energy.decode(&proposal);
        let mut candidate = st.global.clone();
        candidate.resize(self.master.host_count());
        for (local, &g) in self.shards[s].to_global.iter().enumerate() {
            candidate.set_row(g, local_rows.products_at(HostId(local as u32)));
        }
        let candidate_residual = self.cross_residual(&candidate);
        let candidate_total = st.total - st.shard_energies[s] - st.residual
            + candidate_shard_energy
            + candidate_residual;
        if candidate_total >= st.total - 1e-12 {
            return None;
        }
        let flips = self
            .partition
            .boundary_of_shard(s)
            .filter(|&h| st.global.products_at(h) != candidate.products_at(h))
            .count();
        st.labels[s] = Some(proposal);
        st.shard_energies[s] = candidate_shard_energy;
        st.residual = candidate_residual;
        st.total = candidate_total;
        st.global = candidate;
        Some(flips)
    }

    /// The Light pass: rounds of greedy in-place boundary sweeps, run
    /// inline — this sits on every burst's serving path, where thread
    /// spawns would cost more than the work. Each shard re-responds to its
    /// neighbors' frozen labels; the pass stops on the first round with no
    /// accepted proposal.
    fn coordinate_light(
        &self,
        st: &mut SpliceState,
        stale: Option<&[bool]>,
    ) -> (bool, usize, usize, Option<f64>) {
        let shard_count = self.shards.len();
        let boundary_entries: Vec<_> = (0..shard_count).map(|s| self.boundary_entries(s)).collect();
        let mut rounds = 0usize;
        let mut flips = 0usize;
        let mut any_accepted = false;
        for round in 0..self.max_rounds {
            rounds += 1;
            let mut accepted = 0usize;
            for s in 0..shard_count {
                let skip_fresh = round == 0 && !stale.is_none_or(|f| f[s]);
                if boundary_entries[s].is_empty() || skip_fresh {
                    continue;
                }
                if st.labels[s].is_none() {
                    st.labels[s] = Some(self.encode_shard(s, &st.global));
                }
                let proposal = self.light_proposal(
                    s,
                    st.labels[s].as_ref().expect("encoded above"),
                    &st.global,
                    &boundary_entries[s],
                );
                if let Some(f) = self.try_splice(st, s, proposal) {
                    flips += f;
                    accepted += 1;
                }
            }
            if accepted == 0 {
                break;
            }
            any_accepted = true;
        }
        (any_accepted, rounds, flips, None)
    }

    /// The Strong pass: dual decomposition over the cross-shard links
    /// (module docs), then one full-model polish round. Each subgradient
    /// round solves every λ-touched shard in parallel with a capped TRW-S
    /// on its multiplier-augmented model (an in-place [`UnaryOverlay`] —
    /// no clone), sums the shards' decoded energies with the relaxed
    /// cross-term minima into the dual value `D`, recovers a primal
    /// candidate through the improve-only splice, and steps the
    /// multipliers along the subgradient. Returns the best `D` after the
    /// closing re-evaluation; it is no lower bound on the optimum
    /// (module docs).
    fn coordinate_dual(&mut self, st: &mut SpliceState) -> (bool, usize, usize, Option<f64>) {
        let shard_count = self.shards.len();
        let boundary_entries: Vec<_> = (0..shard_count).map(|s| self.boundary_entries(s)).collect();
        // Boundary slot variables by (host, service) — the endpoints a
        // relaxed cross term duplicates.
        #[allow(clippy::type_complexity)]
        let slot_index: BTreeMap<
            (HostId, netmodel::ServiceId),
            (usize, VarId, Arc<Vec<netmodel::ProductId>>),
        > = boundary_entries
            .iter()
            .enumerate()
            .flat_map(|(s, entries)| {
                entries.iter().map(move |(var, host, service, candidates)| {
                    ((*host, *service), (s, *var, Arc::clone(candidates)))
                })
            })
            .collect();
        // Decompose the cross residual term by term, mirroring
        // `Assignment::edge_similarity`: per cross link (a, b) and service
        // of `a` that `b` also runs, one similarity term. Both endpoints
        // free → a relaxed dual edge; one free → an exact constant fold
        // into the free side's unaries (the fixed side cannot move); none
        // free → a constant.
        let mut edges: Vec<DualEdge> = Vec::new();
        let mut fixed_addons: Vec<BTreeMap<usize, Vec<f64>>> = vec![BTreeMap::new(); shard_count];
        let mut constant = 0.0f64;
        for &(a, b) in self.partition.cross_links() {
            let Ok(host_a) = self.master.host(a) else {
                continue;
            };
            for (slot, inst) in host_a.services().iter().enumerate() {
                let service = inst.service();
                let pb_now = st.global.product_for(&self.master, b, service);
                if pb_now.is_none() {
                    continue; // `b` does not run the service: no term.
                }
                let pa_now = st.global.products_at(a).get(slot).copied();
                match (slot_index.get(&(a, service)), slot_index.get(&(b, service))) {
                    (Some((sa, va, ca)), Some((sb, vb, cb))) => {
                        let mut cost = Vec::with_capacity(ca.len() * cb.len());
                        for &pa in ca.iter() {
                            for &pb in cb.iter() {
                                cost.push(self.similarity.get(pa, pb));
                            }
                        }
                        edges.push(DualEdge {
                            sa: *sa,
                            va: *va,
                            lambda_a: vec![0.0; ca.len()],
                            sb: *sb,
                            vb: *vb,
                            lambda_b: vec![0.0; cb.len()],
                            cost,
                        });
                    }
                    (Some((sa, va, ca)), None) => {
                        let pb = pb_now.expect("checked above");
                        let row = fixed_addons[*sa]
                            .entry(va.0)
                            .or_insert_with(|| vec![0.0; ca.len()]);
                        for (x, &pa) in ca.iter().enumerate() {
                            row[x] += self.similarity.get(pa, pb);
                        }
                    }
                    (None, Some((sb, vb, cb))) => {
                        let Some(pa) = pa_now else { continue };
                        let row = fixed_addons[*sb]
                            .entry(vb.0)
                            .or_insert_with(|| vec![0.0; cb.len()]);
                        for (x, &pb) in cb.iter().enumerate() {
                            row[x] += self.similarity.get(pa, pb);
                        }
                    }
                    (None, None) => {
                        if let (Some(pa), Some(pb)) = (pa_now, pb_now) {
                            constant += self.similarity.get(pa, pb);
                        }
                    }
                }
            }
        }
        // Only shards a multiplier reaches need re-solving after round 0 —
        // every other subproblem is λ-invariant, so its round-0 bound is
        // cached and reused.
        let mut touched = vec![false; shard_count];
        for e in &edges {
            touched[e.sa] = true;
            touched[e.sb] = true;
        }
        let ctl = SolveControl::new();
        // Per shard: its latest (oracle subproblem value, base energy)
        // contribution to the dual value. The oracle value is the best
        // λ-augmented energy the shard's solver found — an upper bound on
        // the true subproblem minimum that is guaranteed ≤ the current
        // primal labeling's augmented energy (the solve is seeded with it),
        // which is what keeps `D ≤ P` (module docs).
        let mut contrib: Vec<Option<(f64, f64)>> = vec![None; shard_count];
        let mut prev_dual = f64::NEG_INFINITY;
        let mut rounds = 0usize;
        let mut flips = 0usize;
        let mut any_accepted = false;
        let mut stall = 0usize;
        for t in 0..DUAL_SUBGRADIENT_ROUNDS.max(self.max_rounds) {
            rounds += 1;
            // Addon rows per shard: the λ-independent fixed-peer folds,
            // then one row per dual-edge endpoint (the overlay stacks
            // repeated variables).
            let mut addons: Vec<Vec<(VarId, Vec<f64>)>> = fixed_addons
                .iter()
                .map(|rows| {
                    rows.iter()
                        .map(|(&v, row)| (VarId(v), row.clone()))
                        .collect()
                })
                .collect();
            for e in &edges {
                addons[e.sa].push((e.va, e.lambda_a.clone()));
                addons[e.sb].push((e.vb, e.lambda_b.clone()));
            }
            let solve_now: Vec<bool> = (0..shard_count)
                .map(|s| !self.shards[s].retired && (t == 0 || touched[s]))
                .collect();
            for s in (0..shard_count).filter(|&s| solve_now[s]) {
                if st.labels[s].is_none() {
                    st.labels[s] = Some(self.encode_shard(s, &st.global));
                }
            }
            let warm: Vec<Option<&Vec<usize>>> = st.labels.iter().map(Option::as_ref).collect();
            #[allow(clippy::type_complexity)]
            let mut results: Vec<Option<(Vec<usize>, f64, bool, f64)>> = vec![None; shard_count];
            std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .shards
                    .iter_mut()
                    .zip(addons)
                    .enumerate()
                    .map(|(s, (shard, addon))| {
                        if !solve_now[s] {
                            return None;
                        }
                        let ctl = ctl.clone();
                        let warm = warm[s];
                        Some(scope.spawn(move || {
                            let energy = shard.engine.energy_mut();
                            let base = energy.base_energy();
                            let model = energy.model_mut();
                            let mut overlay = UnaryOverlay::new();
                            overlay
                                .apply(model, addon.iter().map(|(v, row)| (*v, row.as_slice())))
                                .expect("boundary addons mirror the shard model's arity");
                            let solution = Trws::new(TrwsOptions {
                                max_iterations: DUAL_TRWS_ITERATIONS,
                                ..TrwsOptions::default()
                            })
                            .solve(model, &ctl);
                            // Oracle value: the TRW-S decode vs the current
                            // primal labeling, both under the λ-augmented
                            // model — the seed guarantees the subproblem
                            // value never exceeds the primal's share.
                            let decode_value = solution.energy();
                            let warm_value = warm.map_or(f64::INFINITY, |seed| model.energy(seed));
                            overlay.revert(model);
                            (
                                solution.labels().to_vec(),
                                decode_value.min(warm_value),
                                warm_value < decode_value,
                                base,
                            )
                        }))
                    })
                    .collect();
                for (s, handle) in handles.into_iter().enumerate() {
                    if let Some(handle) = handle {
                        results[s] = Some(handle.join().expect("dual subproblem does not panic"));
                    }
                }
            });
            for s in 0..shard_count {
                if let Some((_, value, _, base)) = &results[s] {
                    contrib[s] = Some((*value, *base));
                }
            }
            // The dual value: shard subproblem values + relaxed cross
            // minima + the constant (module docs; exact subproblem solves
            // would make this the true Lagrangian dual).
            let mut d = constant;
            for (s, entry) in contrib.iter().enumerate() {
                if self.shards[s].retired {
                    continue;
                }
                if let Some((value, base)) = entry {
                    d += value + base;
                }
            }
            let argmins: Vec<(usize, usize)> = edges
                .iter()
                .map(|e| {
                    let (m, xa, xb) = e.minimize();
                    d += m;
                    (xa, xb)
                })
                .collect();
            if d > prev_dual + 1e-12 {
                stall = 0;
            } else {
                stall += 1;
            }
            prev_dual = d;
            // The subproblem argmin's endpoint label per dual edge at this
            // λ — the warm labeling when it beat the decode — captured
            // before the splice mutates the primal state.
            let shard_label = |s: usize, v: VarId| -> Option<usize> {
                let (labels, _, warm_won, _) = results[s].as_ref()?;
                if *warm_won {
                    st.labels[s].as_ref().map(|l| l[v.0])
                } else {
                    Some(labels[v.0])
                }
            };
            let endpoints: Vec<Option<(usize, usize)>> = edges
                .iter()
                .map(|e| Some((shard_label(e.sa, e.va)?, shard_label(e.sb, e.vb)?)))
                .collect();
            // Primal recovery: each re-solved shard's labeling is a
            // candidate (the splice evaluates it under the *true* model).
            for s in (0..shard_count).filter(|&s| solve_now[s]) {
                let Some((labels, _, _, _)) = &results[s] else {
                    continue;
                };
                if let Some(f) = self.try_splice(st, s, labels.clone()) {
                    flips += f;
                    any_accepted = true;
                }
            }
            // `d ≤ P` holds within a round (the oracle is floored by the
            // current primal), so a small in-round slack is a sound stop.
            let gap = (st.total - d) / st.total.abs().max(1e-9);
            if gap <= DUAL_GAP_TOLERANCE || stall >= DUAL_PATIENCE || edges.is_empty() {
                break;
            }
            let step = DUAL_STEP / (1.0 + t as f64);
            for ((e, &(xa_hat, xb_hat)), endpoint) in edges.iter_mut().zip(&argmins).zip(&endpoints)
            {
                let Some((xa, xb)) = *endpoint else { continue };
                if xa != xa_hat {
                    e.lambda_a[xa] += step;
                    e.lambda_a[xa_hat] -= step;
                }
                if xb != xb_hat {
                    e.lambda_b[xb] += step;
                    e.lambda_b[xb_hat] -= step;
                }
            }
        }
        // One full-model polish round: the subgradient loop's primal
        // recovery is improve-only splicing of subproblem labelings; a
        // bounded ILS pass over each boundary shard's cross-augmented full
        // model closes the primal gap the message-passing decodes leave.
        rounds += 1;
        let polish: Vec<usize> = (0..shard_count)
            .filter(|&s| !boundary_entries[s].is_empty())
            .collect();
        for &s in &polish {
            if st.labels[s].is_none() {
                st.labels[s] = Some(self.encode_shard(s, &st.global));
            }
        }
        let mut proposals: Vec<Option<Vec<usize>>> = vec![None; shard_count];
        std::thread::scope(|scope| {
            let this = &*self;
            let global_ref = &st.global;
            let handles: Vec<_> = polish
                .iter()
                .map(|&s| {
                    let start_labels = st.labels[s].clone().expect("encoded above");
                    let coordinator = &this.coordinator;
                    let ctl = ctl.clone();
                    (
                        s,
                        scope.spawn(move || {
                            let augmented = this.augmented_full_model(s, global_ref);
                            coordinator
                                .refine(&augmented, start_labels, &ctl)
                                .into_labels()
                        }),
                    )
                })
                .collect();
            for (s, handle) in handles {
                proposals[s] = Some(handle.join().expect("proposal does not panic"));
            }
        });
        for (s, proposal) in proposals.into_iter().enumerate() {
            let Some(proposal) = proposal else { continue };
            if let Some(f) = self.try_splice(st, s, proposal) {
                flips += f;
                any_accepted = true;
            }
        }
        // The reported certificate: the dual evaluated at the last λ on the
        // *final* primal labeling (mid-loop dual values compare against
        // their own round's primal, which the polish may since have beaten,
        // so none of them certify the final answer). Per shard the
        // λ-augmented energy of its final labeling, plus each relaxed cross
        // term's minimum. Every edge term satisfies
        // `λ_a(x*) + λ_b(x*) + min(cost − λ_a − λ_b) ≤ cost(x*)`, so this
        // value is ≤ the final primal by construction.
        let mut final_dual = constant;
        for (s, addons) in fixed_addons.iter().enumerate() {
            if self.shards[s].retired {
                continue;
            }
            if st.labels[s].is_none() {
                st.labels[s] = Some(self.encode_shard(s, &st.global));
            }
            let labels = st.labels[s].as_ref().expect("encoded above");
            let energy = self.shards[s].engine.energy();
            let mut aug = energy.model().energy(labels) + energy.base_energy();
            for (&v, row) in addons {
                aug += row[labels[v]];
            }
            final_dual += aug;
        }
        for e in &edges {
            let la = st.labels[e.sa].as_ref().expect("dual-edge shard is live");
            let lb = st.labels[e.sb].as_ref().expect("dual-edge shard is live");
            final_dual += e.lambda_a[la[e.va.0]] + e.lambda_b[lb[e.vb.0]];
            final_dual += e.minimize().0;
        }
        (any_accepted, rounds, flips, Some(final_dual))
    }

    #[allow(clippy::too_many_arguments)]
    fn report(
        &self,
        deltas_applied: usize,
        shards_touched: Vec<usize>,
        shard_reports: Vec<Option<ReassignmentReport>>,
        per_shard_solve: Vec<Duration>,
        telemetry: CoordTelemetry,
        objective_before: Option<f64>,
        carried: Option<Assignment>,
        start: Instant,
    ) -> ShardReport {
        ShardReport {
            revision: self.master.revision(),
            deltas_applied,
            shards_touched,
            shard_reports,
            per_shard_solve,
            rounds: telemetry.rounds,
            boundary_flips: telemetry.flips,
            boundary_hosts: self.partition.boundary().len(),
            cross_links: self.partition.cross_links().len(),
            objective_before,
            objective: telemetry.objective,
            carried,
            dual_bound: telemetry.dual_bound,
            coordination_wall: telemetry.wall,
            total_wall: start.elapsed(),
        }
    }
}

/// The single host a constraint is scoped to, `None` for `ALL`-scoped
/// conditional combinations (which replicate to every shard unchanged).
fn constraint_host(c: &Constraint) -> Option<HostId> {
    match *c {
        Constraint::Fix { host, .. } => Some(host),
        Constraint::ForbidCombination { scope, .. }
        | Constraint::RequireCombination { scope, .. } => match scope {
            Scope::Host(h) => Some(h),
            Scope::All => None,
        },
    }
}

/// Rewrites a host-scoped constraint onto the owning shard's local host
/// id. Exact: every constraint form is intra-host, so no residual cross
/// term arises from the split.
fn remap_constraint(c: Constraint, local: HostId) -> Constraint {
    match c {
        Constraint::Fix {
            service, product, ..
        } => Constraint::Fix {
            host: local,
            service,
            product,
        },
        Constraint::ForbidCombination {
            if_service,
            if_product,
            then_service,
            forbidden,
            ..
        } => Constraint::ForbidCombination {
            scope: Scope::Host(local),
            if_service,
            if_product,
            then_service,
            forbidden,
        },
        Constraint::RequireCombination {
            if_service,
            if_product,
            then_service,
            required,
            ..
        } => Constraint::RequireCombination {
            scope: Scope::Host(local),
            if_service,
            if_product,
            then_service,
            required,
        },
    }
}

/// Maps a shard-local [`netmodel::Error::BatchRejected`] index back to the
/// caller's position in the original burst and attributes it to the
/// rejecting shard ([`Error::ShardRejected`]), so a serving queue can tell
/// *which* shard bounced a burst without replaying it.
fn remap_shard_error(plan: &RoutePlan, shard: usize, error: Error) -> Error {
    match error {
        Error::Model(netmodel::Error::BatchRejected { index, cause }) => Error::ShardRejected {
            shard: Some(shard),
            index: plan.per_shard_indices[shard]
                .get(index)
                .copied()
                .unwrap_or(index),
            cause: *cause,
        },
        other => other,
    }
}

/// Attributes a master-network staging rejection (already indexed by the
/// caller's burst positions) to the shard owning the failing delta —
/// `None` for cross-shard link deltas, which only the master applies.
fn attribute_master_error(plan: &RoutePlan, error: netmodel::Error) -> Error {
    match error {
        netmodel::Error::BatchRejected { index, cause } => Error::ShardRejected {
            shard: plan
                .per_shard_indices
                .iter()
                .position(|indices| indices.contains(&index)),
            index,
            cause: *cause,
        },
        other => Error::Model(other),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmodel::catalog::Catalog;
    use netmodel::network::NetworkBuilder;
    use netmodel::topology::{generate_zoned, TopologyKind, ZonedNetworkConfig};

    fn zoned(zones: usize, hosts_per_zone: usize, seed: u64) -> ShardedEngine {
        let g = generate_zoned(
            &ZonedNetworkConfig {
                zones,
                hosts_per_zone,
                gateway_links: 2,
                mean_degree: 4,
                services: 2,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            seed,
        );
        ShardedEngine::new(g.network, g.catalog, g.similarity)
    }

    /// Two single-host zones joined by one cross link; one service with two
    /// products whose similarity strongly punishes agreement. Local solves
    /// cannot see the cross link, so both shards pick the (identical)
    /// unary-argmin product — only coordination can break the tie.
    fn two_host_gateway() -> ShardedEngine {
        let mut c = Catalog::new();
        let os = c.add_service("os");
        let p0 = c.add_product("p0", os).unwrap();
        let p1 = c.add_product("p1", os).unwrap();
        let mut b = NetworkBuilder::new();
        let a = b.add_host_in_zone("a", "A");
        let z = b.add_host_in_zone("z", "B");
        b.add_service(a, os, vec![p0, p1]).unwrap();
        b.add_service(z, os, vec![p0, p1]).unwrap();
        b.add_link(a, z).unwrap();
        let net = b.build(&c).unwrap();
        // sim(p,p) = 1, sim(p0,p1) = 0.1.
        let sim = netmodel::catalog::ProductSimilarity::from_dense(2, vec![1.0, 0.1, 0.1, 1.0]);
        ShardedEngine::new(net, c, sim)
    }

    fn single_engine_of(sharded: &ShardedEngine) -> DiversityEngine {
        DiversityEngine::new(
            sharded.network().clone(),
            sharded.catalog().clone(),
            sharded.similarity().clone(),
        )
    }

    /// The objective identity of the module docs: the sharded
    /// decomposition evaluated on the sharded assignment equals the full
    /// single-network model's energy on the same assignment.
    fn full_model_objective(sharded: &ShardedEngine, assignment: &Assignment) -> f64 {
        use crate::energy::build_energy;
        use netmodel::constraints::ConstraintSet;
        let energy = build_energy(
            sharded.network(),
            sharded.similarity(),
            &ConstraintSet::new(),
        )
        .unwrap();
        let mut labels = vec![0usize; energy.model().var_count()];
        for (host, host_slots) in energy.slots().iter().enumerate() {
            let row = assignment.products_at(HostId(host as u32));
            for (slot, binding) in host_slots.iter().enumerate() {
                if let SlotBinding::Variable { var, candidates } = binding {
                    labels[var.0] = candidates
                        .iter()
                        .position(|p| Some(p) == row.get(slot))
                        .expect("assignment product is a candidate");
                }
            }
        }
        energy.model().energy(&labels) + energy.base_energy()
    }

    #[test]
    fn coordination_breaks_the_gateway_tie() {
        let mut engine = two_host_gateway();
        let report = engine.solve().unwrap();
        assert_eq!(engine.shard_count(), 2);
        assert_eq!(report.cross_links, 1);
        assert_eq!(report.boundary_hosts, 2);
        assert!(report.rounds >= 1, "cross links must trigger coordination");
        assert!(
            report.boundary_flips >= 1,
            "one endpoint must flip away from the shared argmin"
        );
        let assignment = engine.assignment().unwrap();
        assert_ne!(
            assignment.products_at(HostId(0)),
            assignment.products_at(HostId(1)),
            "coordinated endpoints must diversify"
        );
        // Prconst × 2 + sim(p0, p1).
        assert!((report.objective - (0.02 + 0.1)).abs() < 1e-9);
        // And the decomposition matches the full single-network model.
        let full = full_model_objective(&engine, assignment);
        assert!((full - report.objective).abs() < 1e-9);
    }

    #[test]
    fn gateway_dual_bound_certifies_the_optimum() {
        let mut engine = two_host_gateway();
        let report = engine.solve().unwrap();
        // The 2-host gateway is solved exactly, so the subgradient loop
        // must certify it: D = P = 0.12 after one multiplier step.
        let dual = report.dual_bound.expect("Strong pass certifies a bound");
        assert!(
            dual <= report.objective + 1e-9,
            "a dual bound can never exceed the primal ({dual} vs {})",
            report.objective
        );
        let gap = report.certified_gap().unwrap();
        assert!(gap >= 0.0);
        assert!(
            gap <= DUAL_GAP_TOLERANCE,
            "the exactly-solvable gateway must certify within tolerance, got {:.4}",
            gap
        );
        assert!((report.objective - 0.12).abs() < 1e-9);
        // The Display line carries the certificate.
        assert!(format!("{report}").contains("gap"));
    }

    #[test]
    fn dual_bound_is_valid_on_zoned_networks() {
        for seed in [3u64, 11, 29] {
            let mut engine = zoned(3, 12, seed);
            let report = engine.solve().unwrap();
            let dual = report.dual_bound.expect("cold zoned solve runs Strong");
            assert!(
                dual <= report.objective + 1e-9,
                "seed {seed}: dual {dual} above primal {}",
                report.objective
            );
            let gap = report.certified_gap().unwrap();
            assert!(gap >= 0.0, "seed {seed}: negative gap {gap}");
            // Skip/Light steps never pretend to certify.
            let os = engine.catalog().service_by_name("service0").unwrap();
            let interior = (0..36u32)
                .map(HostId)
                .find(|&h| !engine.partition().is_boundary(h))
                .unwrap();
            let current = engine.assignment().unwrap().products_at(interior)[0];
            let light = engine
                .apply(&NetworkDelta::fix_slot(interior, os, current))
                .unwrap();
            assert!(light.dual_bound.is_none());
            assert!(light.certified_gap().is_none());
        }
    }

    #[test]
    fn constraints_split_matches_the_single_engine() {
        let mut c = Catalog::new();
        let os = c.add_service("os");
        let db = c.add_service("db");
        let p0 = c.add_product("p0", os).unwrap();
        let p1 = c.add_product("p1", os).unwrap();
        let d0 = c.add_product("d0", db).unwrap();
        let d1 = c.add_product("d1", db).unwrap();
        let mut b = NetworkBuilder::new();
        let a = b.add_host_in_zone("a", "A");
        let m = b.add_host_in_zone("m", "A");
        let z = b.add_host_in_zone("z", "B");
        for h in [a, m, z] {
            b.add_service(h, os, vec![p0, p1]).unwrap();
            b.add_service(h, db, vec![d0, d1]).unwrap();
        }
        b.add_link(a, m).unwrap();
        b.add_link(m, z).unwrap();
        let net = b.build(&c).unwrap();
        let sim = netmodel::catalog::ProductSimilarity::from_dense(
            4,
            vec![
                1.0, 0.1, 0.0, 0.0, //
                0.1, 1.0, 0.0, 0.0, //
                0.0, 0.0, 1.0, 0.3, //
                0.0, 0.0, 0.3, 1.0,
            ],
        );
        let constraints: ConstraintSet = vec![
            // Host-scoped, on the *second* shard: exercises the local-id
            // remap (global z is local 0 of shard 1).
            Constraint::Fix {
                host: z,
                service: os,
                product: p1,
            },
            // ALL-scoped: replicated to every shard.
            Constraint::ForbidCombination {
                scope: Scope::All,
                if_service: os,
                if_product: p0,
                then_service: db,
                forbidden: d0,
            },
        ]
        .into_iter()
        .collect();
        let mut sharded = ShardedEngine::new(net.clone(), c.clone(), sim.clone())
            .with_constraints(constraints.clone())
            .unwrap();
        let mut single = DiversityEngine::new(net, c, sim).with_constraints(constraints);
        let sharded_report = sharded.solve().unwrap();
        let single_report = single.solve().unwrap();
        assert!(
            (sharded_report.objective - single_report.objective_after).abs() < 1e-9,
            "remapped constraints must realize the single-engine feasible set: {} vs {}",
            sharded_report.objective,
            single_report.objective_after
        );
        let assignment = sharded.assignment().unwrap();
        assert_eq!(
            assignment.product_for(sharded.network(), z, os),
            Some(p1),
            "the remapped Fix must hold"
        );
        for h in [a, m, z] {
            if assignment.product_for(sharded.network(), h, os) == Some(p0) {
                assert_ne!(
                    assignment.product_for(sharded.network(), h, db),
                    Some(d0),
                    "the replicated ALL-scoped forbid must hold at {h}"
                );
            }
        }
    }

    #[test]
    fn constraint_validation_is_all_or_nothing() {
        let engine = zoned(2, 6, 13);
        let os = engine.catalog().service_by_name("service0").unwrap();
        let p = engine.catalog().products_of(os)[0];
        let constraints: ConstraintSet = vec![
            Constraint::Fix {
                host: HostId(0),
                service: os,
                product: p,
            },
            Constraint::Fix {
                host: HostId(99),
                service: os,
                product: p,
            },
        ]
        .into_iter()
        .collect();
        let err = engine.with_constraints(constraints).unwrap_err();
        match err {
            Error::ShardRejected {
                shard,
                index,
                cause,
            } => {
                assert_eq!(shard, None, "validation rejects before any shard is picked");
                assert_eq!(index, 1, "the offending constraint's position");
                assert!(matches!(cause, netmodel::Error::UnknownHost(h) if h == HostId(99)));
            }
            other => panic!("expected ShardRejected, got {other:?}"),
        }
    }

    #[test]
    fn infeasible_constraint_reports_the_master_host_id() {
        let engine = zoned(2, 6, 13);
        let os = engine.catalog().service_by_name("service0").unwrap();
        let db = engine.catalog().service_by_name("service1").unwrap();
        // A product of the wrong service can never be a candidate: the
        // slot drains at build time. Host 7 lives in shard 1 (local id 1);
        // the error must surface the *master* id.
        let bogus = engine.catalog().products_of(db)[0];
        let mut engine = engine
            .with_constraints(
                vec![Constraint::Fix {
                    host: HostId(7),
                    service: os,
                    product: bogus,
                }]
                .into_iter()
                .collect(),
            )
            .unwrap();
        let err = engine.solve().unwrap_err();
        match err {
            Error::Infeasible { host, service } => {
                assert_eq!(host, HostId(7), "host id must be remapped to master");
                assert_eq!(service, os);
            }
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn new_zone_shards_inherit_all_scoped_constraints() {
        let engine = zoned(2, 6, 13);
        let os = engine.catalog().service_by_name("service0").unwrap();
        let db = engine.catalog().service_by_name("service1").unwrap();
        let trigger = engine.catalog().products_of(os)[0];
        let forbidden = engine.catalog().products_of(db)[0];
        let os_products = engine.catalog().products_of(os).to_vec();
        let db_products = engine.catalog().products_of(db).to_vec();
        let mut engine = engine
            .with_constraints(
                vec![Constraint::ForbidCombination {
                    scope: Scope::All,
                    if_service: os,
                    if_product: trigger,
                    then_service: db,
                    forbidden,
                }]
                .into_iter()
                .collect(),
            )
            .unwrap();
        engine.solve().unwrap();
        // Force the trigger on a brand-new zone's host: the inherited
        // ALL-scoped forbid must bind in the freshly created shard.
        engine
            .apply_batch(&[
                NetworkDelta::AddHost {
                    name: "fresh".into(),
                    zone: Some("zone-new".into()),
                    services: vec![(os, os_products), (db, db_products)],
                    links: vec![HostId(0)],
                },
                NetworkDelta::fix_slot(HostId(12), os, trigger),
            ])
            .unwrap();
        assert_eq!(engine.shard_count(), 3);
        let assignment = engine.assignment().unwrap();
        assert_eq!(
            assignment.product_for(engine.network(), HostId(12), os),
            Some(trigger)
        );
        assert_ne!(
            assignment.product_for(engine.network(), HostId(12), db),
            Some(forbidden),
            "the new shard must enforce the inherited ALL-scoped constraint"
        );
    }

    #[test]
    fn sharded_objective_matches_single_engine_within_tolerance() {
        for seed in [3u64, 7, 21] {
            let mut sharded = zoned(2, 20, seed);
            let mut single = single_engine_of(&sharded);
            let sharded_report = sharded.solve().unwrap();
            let single_report = single.solve().unwrap();
            // Identity: the reported objective is the true full-model
            // objective of the composed assignment.
            let full = full_model_objective(&sharded, sharded.assignment().unwrap());
            assert!(
                (full - sharded_report.objective).abs() < 1e-9,
                "decomposition identity broke: {} vs {}",
                full,
                sharded_report.objective
            );
            // Quality: close to the single-engine solve. At these tiny
            // 20-host zones the gap is dominated by decode variance, so
            // the bound is loose; the binding 1% acceptance check runs at
            // §VIII scale in `tests/tests/sharded.rs`, where the ILS
            // Strong pass typically lands *below* the single engine.
            let gap = (sharded_report.objective - single_report.objective_after)
                / single_report.objective_after.abs().max(1e-9);
            assert!(
                gap < 0.05,
                "seed {seed}: sharded {:.4} vs single {:.4} (gap {:.2}%)",
                sharded_report.objective,
                single_report.objective_after,
                100.0 * gap
            );
        }
    }

    #[test]
    fn interior_burst_routes_to_one_shard_and_leaves_the_other_untouched() {
        let mut engine = zoned(2, 20, 5);
        engine.solve().unwrap();
        let os = engine.catalog().service_by_name("service0").unwrap();
        // Interior hosts of zone 0 (not boundary).
        let targets: Vec<HostId> = (0..20u32)
            .map(HostId)
            .filter(|&h| !engine.partition().is_boundary(h))
            .take(4)
            .collect();
        let deltas: Vec<NetworkDelta> = targets
            .iter()
            .map(|&h| {
                let p = engine
                    .network()
                    .host(h)
                    .unwrap()
                    .candidates_for(os)
                    .unwrap()[1];
                NetworkDelta::fix_slot(h, os, p)
            })
            .collect();
        let other_before = engine.shard_network(1).clone();
        let other_revision = engine.shard_network(1).revision();
        let report = engine.apply_batch(&deltas).unwrap();
        assert_eq!(report.deltas_applied, 4);
        assert_eq!(report.shards_touched, vec![0]);
        assert!(report.shard_reports[0].is_some());
        assert!(report.shard_reports[1].is_none(), "shard 1 did no work");
        assert_eq!(
            engine.shard_network(1).revision(),
            other_revision,
            "the burst must never reach shard 1's network"
        );
        assert_eq!(engine.shard_network(1), &other_before);
        assert!(report.improvement().unwrap() >= -1e-9);
        // Master and shard views stay consistent.
        assert_eq!(engine.revision(), 4);
        engine
            .assignment()
            .unwrap()
            .validate(engine.network())
            .unwrap();
    }

    #[test]
    fn interior_burst_skips_coordination() {
        let mut engine = zoned(2, 20, 9);
        engine.solve().unwrap();
        let os = engine.catalog().service_by_name("service0").unwrap();
        let target = (0..20u32)
            .map(HostId)
            .find(|&h| {
                !engine.partition().is_boundary(h)
                    && engine
                        .partition()
                        .cross_links()
                        .iter()
                        .all(|&(a, b)| a != h && b != h)
            })
            .unwrap();
        // Re-mandating the host's current product changes no label at all.
        let current = engine.assignment().unwrap().products_at(target)[0];
        let report = engine
            .apply(&NetworkDelta::fix_slot(target, os, current))
            .unwrap();
        assert_eq!(
            report.rounds, 0,
            "an interior no-label-change burst must skip coordination"
        );
        assert_eq!(report.boundary_flips, 0);
    }

    #[test]
    fn cross_link_deltas_update_partition_and_objective() {
        let mut engine = two_host_gateway();
        engine.solve().unwrap();
        // Removing the only cross link empties the boundary...
        let report = engine
            .apply(&NetworkDelta::remove_link(HostId(0), HostId(1)))
            .unwrap();
        assert_eq!(report.cross_links, 0);
        assert_eq!(report.boundary_hosts, 0);
        assert_eq!(engine.shard_network(0).link_count(), 0);
        assert!((report.objective - 0.02).abs() < 1e-9, "residual vanished");
        // ...and re-adding it restores coordination pressure.
        let report = engine
            .apply(&NetworkDelta::add_link(HostId(0), HostId(1)))
            .unwrap();
        assert_eq!(report.cross_links, 1);
        assert_eq!(report.boundary_hosts, 2);
        assert!((report.objective - 0.12).abs() < 1e-9);
        let assignment = engine.assignment().unwrap();
        assert_ne!(
            assignment.products_at(HostId(0)),
            assignment.products_at(HostId(1))
        );
    }

    #[test]
    fn add_host_routes_by_zone_and_unknown_zone_creates_a_shard() {
        let mut engine = zoned(2, 6, 13);
        engine.solve().unwrap();
        let os = engine.catalog().service_by_name("service0").unwrap();
        let ps = engine.catalog().products_of(os).to_vec();
        // A new zone-1 host linked into both zones: shard 1 grows, the
        // zone-0 link becomes a cross link.
        let delta = NetworkDelta::AddHost {
            name: "newcomer".into(),
            zone: Some("zone1".into()),
            services: vec![(os, ps.clone())],
            links: vec![HostId(0), HostId(6)],
        };
        let shard0_hosts = engine.shard_network(0).host_count();
        let report = engine.apply(&delta).unwrap();
        let newcomer = HostId(12);
        assert_eq!(engine.partition().shard_of(newcomer), Some(1));
        assert_eq!(engine.shard_network(0).host_count(), shard0_hosts);
        assert_eq!(engine.shard_network(1).host_count(), 7);
        assert!(engine
            .partition()
            .cross_links()
            .contains(&(HostId(0), newcomer)));
        assert!(engine.partition().is_boundary(newcomer));
        assert!(report.shard_reports[1].is_some());
        // The newcomer got a product.
        assert_eq!(engine.assignment().unwrap().products_at(newcomer).len(), 1);
        engine
            .assignment()
            .unwrap()
            .validate(engine.network())
            .unwrap();

        // An unknown zone creates a brand-new shard on the spot (zone
        // lifecycle, module docs) — cross-linked into zone 0 here, so the
        // fresh singleton immediately joins the boundary.
        let report = engine
            .apply(&NetworkDelta::AddHost {
                name: "pioneer".into(),
                zone: Some("zone9".into()),
                services: vec![(os, ps)],
                links: vec![HostId(0)],
            })
            .unwrap();
        let pioneer = HostId(13);
        assert_eq!(engine.shard_count(), 3, "zone9 got its own shard");
        assert_eq!(engine.partition().shard_of(pioneer), Some(2));
        assert!(!engine.shard_retired(2));
        assert_eq!(engine.shard_network(2).host_count(), 1);
        assert!(engine
            .partition()
            .cross_links()
            .contains(&(HostId(0), pioneer)));
        assert!(report.shards_touched.contains(&2));
        assert!(report.shard_reports[2].is_some());
        assert_eq!(engine.assignment().unwrap().products_at(pioneer).len(), 1);
        engine
            .assignment()
            .unwrap()
            .validate(engine.network())
            .unwrap();
        // The whole stream never recomputed the partition from scratch.
        assert_eq!(engine.partition_recomputes(), 0);
    }

    #[test]
    fn draining_a_zone_retires_its_shard_and_revives_on_return() {
        let mut engine = zoned(2, 4, 21);
        engine.solve().unwrap();
        let os = engine.catalog().service_by_name("service0").unwrap();
        let ps = engine.catalog().products_of(os).to_vec();
        let (domains_before, costs_before) = engine.footprint();
        assert!(domains_before > 0);
        // Drain zone 1 (hosts 4..8) to tombstones: its shard retires and
        // releases its model state.
        let burst: Vec<NetworkDelta> = (4..8u32)
            .map(|h| NetworkDelta::remove_host(HostId(h)))
            .collect();
        engine.apply_batch(&burst).unwrap();
        assert!(engine.shard_retired(1), "drained zone 1 must retire");
        assert!(!engine.shard_retired(0));
        let (domains_after, _) = engine.footprint();
        assert!(
            domains_after < domains_before,
            "retiring must release interned domains ({domains_before} -> {domains_after})"
        );
        assert_eq!(engine.partition().cross_links().len(), 0);
        // Steps keep working with the retired shard skipped.
        let report = engine.solve().unwrap();
        assert!(report.shard_reports[1].is_none());
        // An AddHost naming the drained zone revives the shard cold.
        let report = engine
            .apply(&NetworkDelta::AddHost {
                name: "returner".into(),
                zone: Some("zone1".into()),
                services: vec![(os, ps)],
                links: vec![HostId(0)],
            })
            .unwrap();
        assert!(!engine.shard_retired(1), "zone 1 is live again");
        assert_eq!(engine.shard_count(), 2, "the slot was reused, not grown");
        let returner = HostId(8);
        assert_eq!(engine.partition().shard_of(returner), Some(1));
        assert!(report.shard_reports[1].is_some());
        assert_eq!(engine.assignment().unwrap().products_at(returner).len(), 1);
        engine
            .assignment()
            .unwrap()
            .validate(engine.network())
            .unwrap();
        assert_eq!(engine.partition_recomputes(), 0);
        let _ = costs_before;

        // Draining the zone and rejoining it in one burst leaves it live.
        let report = engine
            .apply_batch(&[
                NetworkDelta::remove_host(returner),
                NetworkDelta::AddHost {
                    name: "rejoiner".into(),
                    zone: Some("zone1".into()),
                    services: vec![(os, engine.catalog().products_of(os).to_vec())],
                    links: vec![HostId(0)],
                },
            ])
            .unwrap();
        assert!(!engine.shard_retired(1), "zone 1 drained and rejoined");
        assert!(report.shard_reports[1].is_some());
        assert_eq!(engine.assignment().unwrap().products_at(HostId(9)).len(), 1);
        engine
            .assignment()
            .unwrap()
            .validate(engine.network())
            .unwrap();
    }

    #[test]
    fn rejected_batch_leaves_master_and_shards_untouched() {
        let mut engine = zoned(2, 6, 17);
        engine.solve().unwrap();
        let os = engine.catalog().service_by_name("service0").unwrap();
        let p = engine
            .network()
            .host(HostId(1))
            .unwrap()
            .candidates_for(os)
            .unwrap()[0];
        let revision = engine.revision();
        let shard0 = engine.shard_network(0).clone();
        let assignment_before = engine.assignment().unwrap().clone();
        let err = engine
            .apply_batch(&[
                NetworkDelta::fix_slot(HostId(1), os, p),
                NetworkDelta::add_link(HostId(2), HostId(2)), // self-loop
            ])
            .unwrap_err();
        assert!(matches!(
            err,
            Error::ShardRejected {
                shard: Some(0),
                index: 1,
                ..
            }
        ));
        assert_eq!(engine.revision(), revision);
        assert_eq!(engine.shard_network(0), &shard0, "no shard saw the batch");
        // Regression: the assignment must survive a rejected burst too — an
        // early `self.last.take()` used to leak it, degrading the next
        // apply into a cold solve.
        assert_eq!(engine.assignment(), Some(&assignment_before));

        // A slot-only burst rejected mid-batch: same contract, and the
        // reported index is the failing delta's position in the burst.
        let other = engine
            .network()
            .host(HostId(1))
            .unwrap()
            .candidates_for(os)
            .unwrap()[1];
        let err = engine
            .apply_batch(&[
                NetworkDelta::fix_slot(HostId(1), os, p),
                // After the fix, `other` is no longer a candidate.
                NetworkDelta::fix_slot(HostId(1), os, other),
            ])
            .unwrap_err();
        assert!(matches!(
            err,
            Error::ShardRejected {
                shard: Some(0),
                index: 1,
                cause: netmodel::Error::NotACandidate { .. },
            }
        ));
        assert_eq!(engine.revision(), revision);
        assert_eq!(engine.shard_network(0), &shard0);
        assert_eq!(engine.assignment(), Some(&assignment_before));

        // A failing cross-shard link delta is owned by the master, not any
        // shard: the attribution is `None`. (Whichever of the two add_links
        // is the duplicate depends on the generated gateways; the shape is
        // what matters.)
        let err = engine
            .apply_batch(&[
                NetworkDelta::add_link(HostId(1), HostId(7)),
                NetworkDelta::add_link(HostId(1), HostId(7)),
            ])
            .unwrap_err();
        assert!(matches!(
            err,
            Error::ShardRejected {
                shard: None,
                cause: netmodel::Error::DuplicateLink(..),
                ..
            }
        ));
        assert_eq!(engine.revision(), revision);
    }

    #[test]
    fn remove_host_tombstones_across_views() {
        let mut engine = zoned(2, 6, 23);
        engine.solve().unwrap();
        // Remove an interior zone-1 host.
        let victim = (6..12u32)
            .map(HostId)
            .find(|&h| !engine.partition().is_boundary(h))
            .unwrap();
        let report = engine.apply(&NetworkDelta::remove_host(victim)).unwrap();
        assert!(engine.network().host(victim).unwrap().is_removed());
        let (shard, local) = (
            1usize,
            engine.shards[1]
                .to_global
                .iter()
                .position(|&g| g == victim)
                .unwrap(),
        );
        assert!(engine
            .shard_network(shard)
            .host(HostId(local as u32))
            .unwrap()
            .is_removed());
        assert!(report.shard_reports[1].is_some());
        assert!(engine.assignment().unwrap().products_at(victim).is_empty());
        engine
            .assignment()
            .unwrap()
            .validate(engine.network())
            .unwrap();
    }

    #[test]
    fn single_zone_degenerates_to_the_unsharded_engine() {
        let g = netmodel::topology::generate(
            &netmodel::topology::RandomNetworkConfig {
                hosts: 18,
                mean_degree: 4,
                services: 2,
                products_per_service: 3,
                vendors_per_service: 2,
                topology: TopologyKind::Random,
            },
            31,
        );
        let mut sharded =
            ShardedEngine::new(g.network.clone(), g.catalog.clone(), g.similarity.clone());
        let mut single = DiversityEngine::new(g.network, g.catalog, g.similarity);
        let sr = sharded.solve().unwrap();
        let br = single.solve().unwrap();
        assert_eq!(sharded.shard_count(), 1);
        assert_eq!(sr.rounds, 0, "no cross links, no coordination");
        assert!((sr.objective - br.objective_after).abs() < 1e-9);
        assert_eq!(sharded.assignment(), single.assignment());
    }

    #[test]
    fn objective_is_monotone_across_a_coordinated_stream() {
        let mut engine = zoned(3, 8, 41);
        engine.solve().unwrap();
        let os = engine.catalog().service_by_name("service1").unwrap();
        for h in [1u32, 9, 17, 3, 11] {
            let host = HostId(h);
            let p = engine
                .network()
                .host(host)
                .unwrap()
                .candidates_for(os)
                .unwrap()[0];
            let report = engine.apply(&NetworkDelta::fix_slot(host, os, p)).unwrap();
            assert!(
                report.improvement().unwrap() >= -1e-9,
                "step at {host} regressed on carrying forward"
            );
            let full = full_model_objective(&engine, engine.assignment().unwrap());
            assert!((full - report.objective).abs() < 1e-9);
        }
    }

    #[test]
    fn report_display_is_total() {
        let mut engine = two_host_gateway();
        let report = engine.solve().unwrap();
        let text = report.to_string();
        assert!(text.contains("objective"));
        assert!(text.contains("rounds") || text.contains("boundary"));
    }
}
