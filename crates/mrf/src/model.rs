//! The pairwise-MRF energy function (paper Eq. 1) — a *mutable* model with
//! stable variable handles.
//!
//! `E(x) = Σ_i φ_i(x_i) + Σ_(i,j) ψ_ij(x_i, x_j)` over variables with finite
//! label sets. Pairwise potentials are stored once and *referenced* by edges:
//! in the diversity problem every inter-host edge for a given service uses
//! the same similarity submatrix, so sharing reduces memory from
//! O(edges · L²) to O(edges + services · L²).
//!
//! # Mutability and handle stability
//!
//! Incremental pipelines edit a model in place instead of reassembling it:
//! after a localized change (one host's candidate domain, one link), 99% of
//! the variables and factors are untouched, and rebuilding them linearly is
//! the dominant cost of absorbing the change. [`MrfModel`] therefore keeps
//! a **slot array with tombstones and a free list**, mirroring the host
//! layer's design in `netmodel`:
//!
//! * [`MrfModel::add_var`] returns a [`VarId`] that stays valid across any
//!   later mutation of *other* variables — removing a variable never
//!   reindexes its survivors.
//! * [`MrfModel::remove_var`] tombstones the slot (label count 0, incident
//!   edges removed) and recycles it through a free list, so a churning
//!   model's slot count stays bounded by its peak size.
//! * Labelings are indexed by slot: their arity is [`MrfModel::var_count`]
//!   (slots, including tombstones), and entries at dead slots are ignored
//!   by [`MrfModel::energy`]. Live variables are enumerated with
//!   [`MrfModel::live_vars`]; solvers sweep those only.
//! * Edges have their own slots, handles ([`EdgeId`]) and free list;
//!   [`MrfModel::incident_edges`] lists live edges only, so traversal never
//!   sees a tombstone.
//! * Mutations referencing a tombstoned slot **error**
//!   ([`crate::Error::UnknownVariable`] / [`crate::Error::UnknownEdge`])
//!   instead of corrupting the model.
//!
//! Slot recycling keeps fragmentation bounded under steady churn; a model
//! that *shrinks* (many removals, few additions) accretes dead slots and
//! unreferenced potentials instead. [`MrfModel::fragmentation`] measures
//! that share and [`MrfModel::should_compact`] reports when it crosses the
//! built-in threshold; [`MrfModel::compact`] then rewrites the model dense
//! again, returning the slot remap (the one operation that moves handles —
//! callers holding [`VarId`]s apply the remap or rebuild their index).
//!
//! ```
//! use mrf::model::MrfModel;
//!
//! # fn main() -> Result<(), mrf::Error> {
//! let mut m = MrfModel::new();
//! let x = m.add_var(2)?;
//! let y = m.add_var(2)?;
//! let z = m.add_var(2)?;
//! m.add_pairwise_dense(x, y, vec![1.0, 0.0, 0.0, 1.0])?;
//! let yz = m.add_pairwise_dense(y, z, vec![1.0, 0.0, 0.0, 1.0])?;
//!
//! // Remove y: x and z keep their handles, y's edges go with it.
//! m.remove_var(y)?;
//! assert_eq!(m.live_var_count(), 2);
//! assert_eq!(m.edge_count(), 0);
//! assert_eq!(m.labels(x), 2);
//!
//! // Mutations against the tombstone error instead of corrupting.
//! assert!(m.set_unary(y, vec![0.0, 0.0]).is_err());
//! assert!(m.remove_pairwise(yz).is_err());
//!
//! // The slot is recycled: the next add_var reuses y's index.
//! let w = m.add_var(3)?;
//! assert_eq!(w, y);
//! # Ok(())
//! # }
//! ```

use serde::{Deserialize, Serialize};

use crate::{Error, Result};

/// Handle to a variable in an [`MrfModel`].
///
/// Stable across mutations of other variables: only removing the variable
/// itself (which tombstones and eventually recycles the slot) or a
/// [`MrfModel::compact`] invalidates a handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VarId(pub usize);

/// Handle to a shared pairwise potential in an [`MrfModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PotentialId(pub usize);

/// Handle to an edge slot in an [`MrfModel`], as returned by
/// [`MrfModel::add_pairwise`] and accepted by [`MrfModel::remove_pairwise`].
/// Same stability contract as [`VarId`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct EdgeId(pub usize);

/// A shared pairwise cost matrix (row-major; `rows` labels of the first
/// endpoint × `cols` labels of the second).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Potential {
    rows: usize,
    cols: usize,
    costs: Vec<f64>,
}

impl Potential {
    /// The (rows, cols) shape.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The cost for labels `(la, lb)`.
    #[inline]
    pub fn cost(&self, la: usize, lb: usize) -> f64 {
        debug_assert!(la < self.rows && lb < self.cols);
        self.costs[la * self.cols + lb]
    }
}

/// Sentinel potential index marking a tombstoned edge slot.
const EDGE_TOMBSTONE: u32 = u32::MAX;

/// One edge: endpoints, the shared potential, and whether the potential is
/// applied transposed (its rows index `b`'s labels instead of `a`'s).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edge {
    a: u32,
    b: u32,
    potential: u32,
    transposed: bool,
}

impl Edge {
    /// The lower-indexed endpoint.
    pub fn a(&self) -> VarId {
        VarId(self.a as usize)
    }

    /// The higher-indexed endpoint.
    pub fn b(&self) -> VarId {
        VarId(self.b as usize)
    }

    /// Whether this edge slot is live (vs. tombstoned by
    /// [`MrfModel::remove_pairwise`] / [`MrfModel::remove_var`]). Dead
    /// slots linger in [`MrfModel::edges`] until recycled or compacted;
    /// full-edge iterations must skip them (or use
    /// [`MrfModel::live_edges`]).
    #[inline]
    pub fn is_live(&self) -> bool {
        self.potential != EDGE_TOMBSTONE
    }

    /// Index of the shared potential backing this edge. Crate-internal:
    /// solver scratch structures resolve potentials into flat tables and
    /// need the identity, not just [`MrfModel::edge_cost`] lookups.
    #[inline]
    pub(crate) fn potential_index(&self) -> usize {
        self.potential as usize
    }

    /// Whether the potential applies transposed (its rows index `b`'s
    /// labels instead of `a`'s).
    #[inline]
    pub(crate) fn is_transposed(&self) -> bool {
        self.transposed
    }
}

/// A pairwise MRF, mutable with stable handles (module docs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MrfModel {
    /// Labels per variable slot; 0 marks a tombstone.
    label_counts: Vec<u32>,
    /// Unary cost vector per variable slot (empty at tombstones).
    unary: Vec<Vec<f64>>,
    /// Shared potentials, append-only between compactions.
    potentials: Vec<Potential>,
    /// Live-edge reference count per potential.
    pot_refs: Vec<u32>,
    /// Edge slots; dead slots carry the [`EDGE_TOMBSTONE`] potential.
    edges: Vec<Edge>,
    /// Recyclable edge slots.
    free_edges: Vec<u32>,
    /// Live incident edge slots per variable slot.
    incident: Vec<Vec<u32>>,
    /// Recyclable variable slots.
    free_vars: Vec<u32>,
    /// Number of live edges.
    live_edges: usize,
}

impl Default for MrfModel {
    fn default() -> MrfModel {
        MrfModel::new()
    }
}

impl MrfModel {
    /// An empty model; grow it with [`MrfModel::add_var`] and the pairwise
    /// mutators, or assemble one in bulk through [`MrfBuilder`].
    pub fn new() -> MrfModel {
        MrfModel {
            label_counts: Vec::new(),
            unary: Vec::new(),
            potentials: Vec::new(),
            pot_refs: Vec::new(),
            edges: Vec::new(),
            free_edges: Vec::new(),
            incident: Vec::new(),
            free_vars: Vec::new(),
            live_edges: 0,
        }
    }

    /// Number of variable *slots*, including tombstones — the arity of
    /// labelings for this model (entries at dead slots are ignored). See
    /// [`MrfModel::live_var_count`] for the number of actual variables.
    pub fn var_count(&self) -> usize {
        self.label_counts.len()
    }

    /// Number of live (non-tombstoned) variables.
    pub fn live_var_count(&self) -> usize {
        self.label_counts.len() - self.free_vars.len()
    }

    /// Whether `v` names a live variable (false for tombstoned slots and
    /// out-of-range ids).
    #[inline]
    pub fn is_live(&self, v: VarId) -> bool {
        self.label_counts.get(v.0).is_some_and(|&c| c > 0)
    }

    /// Iterates over the live variables in slot order.
    pub fn live_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.label_counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, _)| VarId(i))
    }

    /// Number of live edges. See [`MrfModel::edge_slots`] for the raw slot
    /// count (message buffers indexed by edge slot need that).
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Number of edge *slots*, including tombstones.
    pub fn edge_slots(&self) -> usize {
        self.edges.len()
    }

    /// Number of labels of variable `v` (0 for a tombstoned slot).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn labels(&self, v: VarId) -> usize {
        self.label_counts[v.0] as usize
    }

    /// The label count of the largest domain (0 for an empty model).
    pub fn max_labels(&self) -> usize {
        self.label_counts.iter().copied().max().unwrap_or(0) as usize
    }

    /// The unary cost vector of variable `v` (empty for tombstoned slots).
    #[inline]
    pub fn unary(&self, v: VarId) -> &[f64] {
        &self.unary[v.0]
    }

    /// The edge slot array, normalized so that `a < b`. **Includes dead
    /// slots** — full iterations must skip entries failing
    /// [`Edge::is_live`], or use [`MrfModel::live_edges`]; indexed accesses
    /// through [`MrfModel::incident_edges`] only ever see live slots.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Iterates over the live edges as `(slot index, edge)`.
    pub fn live_edges(&self) -> impl Iterator<Item = (usize, &Edge)> + '_ {
        self.edges.iter().enumerate().filter(|(_, e)| e.is_live())
    }

    /// The shared potential at `idx`. Crate-internal: lets solver scratch
    /// structures materialize flat per-orientation cost tables once per
    /// solve instead of going through [`MrfModel::edge_cost`]'s indirect
    /// lookup in the hot loops.
    #[inline]
    pub(crate) fn potential(&self, idx: usize) -> &Potential {
        &self.potentials[idx]
    }

    /// Slot indices of live edges incident to `v` (empty for tombstones).
    pub fn incident_edges(&self, v: VarId) -> &[u32] {
        &self.incident[v.0]
    }

    /// The pairwise cost of edge `e` for labels `(la, lb)` of its `(a, b)`
    /// endpoints.
    #[inline]
    pub fn edge_cost(&self, e: &Edge, la: usize, lb: usize) -> f64 {
        debug_assert!(e.is_live(), "edge_cost on a tombstoned edge");
        let p = &self.potentials[e.potential as usize];
        if e.transposed {
            p.cost(lb, la)
        } else {
            p.cost(la, lb)
        }
    }

    /// Evaluates the energy of a complete labeling. Entries at tombstoned
    /// slots are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `labels` has the wrong arity ([`MrfModel::var_count`]) or
    /// a live variable's label is out of range.
    pub fn energy(&self, labels: &[usize]) -> f64 {
        assert_eq!(labels.len(), self.var_count(), "labeling arity mismatch");
        let mut total = 0.0;
        for (i, &l) in labels.iter().enumerate() {
            if self.label_counts[i] == 0 {
                continue;
            }
            let u = &self.unary[i];
            assert!(l < u.len(), "label {l} out of range for variable {i}");
            total += u[l];
        }
        for e in &self.edges {
            if !e.is_live() {
                continue;
            }
            total += self.edge_cost(e, labels[e.a as usize], labels[e.b as usize]);
        }
        total
    }

    /// The labeling that independently minimizes each unary term — the
    /// natural ICM starting point. Tombstoned slots get label 0.
    pub fn unary_argmin(&self) -> Vec<usize> {
        self.unary
            .iter()
            .map(|u| {
                u.iter()
                    .enumerate()
                    .min_by(|a, b| a.1.total_cmp(b.1))
                    .map(|(l, _)| l)
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Total size of the labeling space as f64 (to detect brute-forceable
    /// instances without overflow). Tombstoned slots contribute factor 1.
    pub fn search_space(&self) -> f64 {
        self.label_counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| c as f64)
            .product()
    }

    // --- Mutation -------------------------------------------------------

    /// Adds a variable with `labels` possible labels (unary costs default
    /// to zero), recycling a tombstoned slot when one is free, and returns
    /// its handle.
    ///
    /// # Errors
    ///
    /// Returns [`Error::EmptyDomain`] if `labels == 0`.
    pub fn add_var(&mut self, labels: usize) -> Result<VarId> {
        if labels == 0 {
            return Err(Error::EmptyDomain(VarId(self.label_counts.len())));
        }
        match self.free_vars.pop() {
            Some(slot) => {
                let i = slot as usize;
                self.label_counts[i] = labels as u32;
                self.unary[i] = vec![0.0; labels];
                debug_assert!(self.incident[i].is_empty());
                Ok(VarId(i))
            }
            None => {
                let id = VarId(self.label_counts.len());
                self.label_counts.push(labels as u32);
                self.unary.push(vec![0.0; labels]);
                self.incident.push(Vec::new());
                Ok(id)
            }
        }
    }

    /// Tombstones variable `v`, removing its incident edges (shared
    /// potentials losing their last reference become reclaimable by the
    /// next compaction). All other handles stay valid; the slot is recycled
    /// by a later [`MrfModel::add_var`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] for out-of-range or already
    /// tombstoned variables.
    pub fn remove_var(&mut self, v: VarId) -> Result<()> {
        if !self.is_live(v) {
            return Err(Error::UnknownVariable(v));
        }
        for eidx in std::mem::take(&mut self.incident[v.0]) {
            self.drop_edge_slot(eidx, Some(v));
        }
        self.label_counts[v.0] = 0;
        self.unary[v.0] = Vec::new();
        self.free_vars.push(v.0 as u32);
        Ok(())
    }

    /// Sets the unary cost vector of `v` (replacing any previous costs).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] (out of range or tombstoned) or
    /// [`Error::UnaryArity`].
    pub fn set_unary(&mut self, v: VarId, costs: Vec<f64>) -> Result<()> {
        if !self.is_live(v) {
            return Err(Error::UnknownVariable(v));
        }
        let labels = self.label_counts[v.0] as usize;
        if costs.len() != labels {
            return Err(Error::UnaryArity {
                var: v,
                labels,
                got: costs.len(),
            });
        }
        self.unary[v.0] = costs;
        Ok(())
    }

    /// Adds `delta` to one unary entry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] (out of range or tombstoned) or
    /// [`Error::UnaryArity`] (label out of range).
    pub fn add_unary(&mut self, v: VarId, label: usize, delta: f64) -> Result<()> {
        if !self.is_live(v) {
            return Err(Error::UnknownVariable(v));
        }
        let labels = self.label_counts[v.0] as usize;
        if label >= labels {
            return Err(Error::UnaryArity {
                var: v,
                labels,
                got: label + 1,
            });
        }
        self.unary[v.0][label] += delta;
        Ok(())
    }

    /// Registers a shared `rows × cols` potential (row-major costs).
    /// Potential ids are stable until [`MrfModel::compact`]; potentials no
    /// live edge references linger until then.
    ///
    /// # Errors
    ///
    /// Returns [`Error::CostLength`] if `costs.len() != rows * cols`.
    pub fn add_potential(
        &mut self,
        rows: usize,
        cols: usize,
        costs: Vec<f64>,
    ) -> Result<PotentialId> {
        if costs.len() != rows * cols {
            return Err(Error::CostLength {
                expected: rows * cols,
                got: costs.len(),
            });
        }
        let id = PotentialId(self.potentials.len());
        self.potentials.push(Potential { rows, cols, costs });
        self.pot_refs.push(0);
        Ok(id)
    }

    /// Adds an edge between `a` and `b` using a shared potential whose rows
    /// index `a`'s labels and columns `b`'s labels, recycling a tombstoned
    /// edge slot when one is free.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] (out of range or tombstoned),
    /// [`Error::UnknownPotential`], [`Error::SelfEdge`] or
    /// [`Error::PotentialShape`].
    pub fn add_pairwise(&mut self, a: VarId, b: VarId, potential: PotentialId) -> Result<EdgeId> {
        if !self.is_live(a) {
            return Err(Error::UnknownVariable(a));
        }
        if !self.is_live(b) {
            return Err(Error::UnknownVariable(b));
        }
        if a == b {
            return Err(Error::SelfEdge(a));
        }
        let (la, lb) = (self.labels(a), self.labels(b));
        let p = self
            .potentials
            .get(potential.0)
            .ok_or(Error::UnknownPotential(potential))?;
        if p.shape() != (la, lb) {
            return Err(Error::PotentialShape {
                a,
                b,
                expected: (la, lb),
                got: p.shape(),
            });
        }
        // Normalize to a < b; the potential was given in (a, b) orientation,
        // so flipping endpoints transposes it.
        let (lo, hi, transposed) = if a.0 < b.0 {
            (a, b, false)
        } else {
            (b, a, true)
        };
        let edge = Edge {
            a: lo.0 as u32,
            b: hi.0 as u32,
            potential: potential.0 as u32,
            transposed,
        };
        let idx = match self.free_edges.pop() {
            Some(slot) => {
                self.edges[slot as usize] = edge;
                slot
            }
            None => {
                self.edges.push(edge);
                (self.edges.len() - 1) as u32
            }
        };
        self.incident[lo.0].push(idx);
        self.incident[hi.0].push(idx);
        self.pot_refs[potential.0] += 1;
        self.live_edges += 1;
        Ok(EdgeId(idx as usize))
    }

    /// Adds an edge with its own dense cost matrix (`labels(a) × labels(b)`,
    /// row-major).
    ///
    /// # Errors
    ///
    /// See [`MrfModel::add_pairwise`] and [`MrfModel::add_potential`].
    pub fn add_pairwise_dense(&mut self, a: VarId, b: VarId, costs: Vec<f64>) -> Result<EdgeId> {
        // Validate everything add_pairwise would reject *before* registering
        // the potential — a failed edit must leave the model untouched, not
        // leak an orphan potential.
        if !self.is_live(a) {
            return Err(Error::UnknownVariable(a));
        }
        if !self.is_live(b) {
            return Err(Error::UnknownVariable(b));
        }
        if a == b {
            return Err(Error::SelfEdge(a));
        }
        let p = self.add_potential(self.labels(a), self.labels(b), costs)?;
        self.add_pairwise(a, b, p)
    }

    /// Tombstones edge `e`; the slot is recycled by a later
    /// [`MrfModel::add_pairwise`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownEdge`] for out-of-range or already
    /// tombstoned edges.
    pub fn remove_pairwise(&mut self, e: EdgeId) -> Result<()> {
        if self.edges.get(e.0).is_none_or(|edge| !edge.is_live()) {
            return Err(Error::UnknownEdge(e));
        }
        self.drop_edge_slot(e.0 as u32, None);
        Ok(())
    }

    /// Tombstones a live edge slot, unlinking it from both incident lists
    /// (`skip`'s list is left alone — its owner is being cleared wholesale
    /// by [`MrfModel::remove_var`]).
    fn drop_edge_slot(&mut self, eidx: u32, skip: Option<VarId>) {
        let edge = self.edges[eidx as usize];
        debug_assert!(edge.is_live());
        for endpoint in [edge.a(), edge.b()] {
            if Some(endpoint) == skip {
                continue;
            }
            let list = &mut self.incident[endpoint.0];
            if let Some(pos) = list.iter().position(|&i| i == eidx) {
                list.swap_remove(pos);
            }
        }
        self.pot_refs[edge.potential as usize] -= 1;
        self.edges[eidx as usize] = Edge {
            a: 0,
            b: 0,
            potential: EDGE_TOMBSTONE,
            transposed: false,
        };
        self.free_edges.push(eidx);
        self.live_edges -= 1;
    }

    // --- Compaction -----------------------------------------------------

    /// The share of storage held by tombstones and unreferenced potentials:
    /// the maximum over dead variable slots, dead edge slots, and dead
    /// potentials, each as a fraction of their slot array. 0.0 for a dense
    /// model.
    pub fn fragmentation(&self) -> f64 {
        let frac = |dead: usize, total: usize| {
            if total == 0 {
                0.0
            } else {
                dead as f64 / total as f64
            }
        };
        let dead_pots = self.pot_refs.iter().filter(|&&r| r == 0).count();
        frac(self.free_vars.len(), self.label_counts.len())
            .max(frac(self.free_edges.len(), self.edges.len()))
            .max(frac(dead_pots, self.potentials.len()))
    }

    /// Dead slots a compaction would reclaim before the threshold trips.
    /// Slot recycling keeps steady churn fragmentation-free; only a model
    /// that shrank (or churned its shared potentials) accretes enough dead
    /// weight to cross this.
    const COMPACT_MIN_DEAD: usize = 32;

    /// Whether fragmentation crossed the compaction threshold: at least 32
    /// dead slots in some array *and* more than half of that array dead.
    /// Callers owning handle indexes react by calling
    /// [`MrfModel::compact`] (and remapping) or rebuilding.
    pub fn should_compact(&self) -> bool {
        let dead_pots = self.pot_refs.iter().filter(|&&r| r == 0).count();
        let trips = |dead: usize, total: usize| dead >= Self::COMPACT_MIN_DEAD && 2 * dead > total;
        trips(self.free_vars.len(), self.label_counts.len())
            || trips(self.free_edges.len(), self.edges.len())
            || trips(dead_pots, self.potentials.len())
    }

    /// Rewrites the model dense: drops tombstoned variable and edge slots
    /// and unreferenced potentials, renumbering the survivors in slot
    /// order. Returns the variable remap, indexed by old slot:
    /// `remap[old.0] == Some(new)` for surviving variables, `None` for
    /// tombstones. **This is the one operation that invalidates handles** —
    /// all previously issued [`VarId`]s, [`EdgeId`]s and [`PotentialId`]s
    /// refer to the new layout only through the remap.
    pub fn compact(&mut self) -> Vec<Option<VarId>> {
        let old_vars = self.label_counts.len();
        let mut remap = vec![None; old_vars];
        let mut next = 0usize;
        for (i, &c) in self.label_counts.iter().enumerate() {
            if c > 0 {
                remap[i] = Some(VarId(next));
                next += 1;
            }
        }
        let mut pot_remap = vec![u32::MAX; self.potentials.len()];
        let mut live_pots = Vec::new();
        let mut live_refs = Vec::new();
        for (i, pot) in self.potentials.drain(..).enumerate() {
            if self.pot_refs[i] > 0 {
                pot_remap[i] = live_pots.len() as u32;
                live_refs.push(self.pot_refs[i]);
                live_pots.push(pot);
            }
        }
        self.potentials = live_pots;
        self.pot_refs = live_refs;

        let mut live_edges = Vec::with_capacity(self.live_edges);
        for e in self.edges.drain(..) {
            if !e.is_live() {
                continue;
            }
            // The remap is monotone in slot order, so a < b is preserved.
            live_edges.push(Edge {
                a: remap[e.a as usize].expect("live edge endpoint").0 as u32,
                b: remap[e.b as usize].expect("live edge endpoint").0 as u32,
                potential: pot_remap[e.potential as usize],
                transposed: e.transposed,
            });
        }
        self.edges = live_edges;
        self.free_edges.clear();
        self.free_vars.clear();

        let mut label_counts = Vec::with_capacity(next);
        let mut unary = Vec::with_capacity(next);
        for (i, &c) in self.label_counts.iter().enumerate() {
            if c > 0 {
                label_counts.push(c);
                unary.push(std::mem::take(&mut self.unary[i]));
            }
        }
        self.label_counts = label_counts;
        self.unary = unary;

        self.incident = vec![Vec::new(); next];
        for (idx, e) in self.edges.iter().enumerate() {
            self.incident[e.a as usize].push(idx as u32);
            self.incident[e.b as usize].push(idx as u32);
        }
        self.live_edges = self.edges.len();
        remap
    }
}

/// Bulk builder for [`MrfModel`] — the classic assemble-then-solve path.
///
/// Produces a dense model (no tombstones); incremental pipelines keep
/// mutating it afterwards through the [`MrfModel`] mutators.
#[derive(Debug, Clone, Default)]
pub struct MrfBuilder {
    label_counts: Vec<u32>,
    unary: Vec<Vec<f64>>,
    potentials: Vec<Potential>,
    edges: Vec<Edge>,
}

impl MrfBuilder {
    /// Creates an empty builder.
    pub fn new() -> MrfBuilder {
        MrfBuilder::default()
    }

    /// Adds a variable with `labels` possible labels (unary costs default to
    /// zero) and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if `labels == 0`; empty domains make the model infeasible.
    pub fn add_variable(&mut self, labels: usize) -> VarId {
        assert!(labels > 0, "variables need at least one label");
        let id = VarId(self.label_counts.len());
        self.label_counts.push(labels as u32);
        self.unary.push(vec![0.0; labels]);
        id
    }

    /// Sets the unary cost vector of `v` (replacing any previous costs).
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] or [`Error::UnaryArity`].
    pub fn set_unary(&mut self, v: VarId, costs: Vec<f64>) -> Result<()> {
        let labels = *self
            .label_counts
            .get(v.0)
            .ok_or(Error::UnknownVariable(v))? as usize;
        if costs.len() != labels {
            return Err(Error::UnaryArity {
                var: v,
                labels,
                got: costs.len(),
            });
        }
        self.unary[v.0] = costs;
        Ok(())
    }

    /// Adds `delta` to one unary entry.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] or [`Error::UnaryArity`] (label out
    /// of range).
    pub fn add_unary(&mut self, v: VarId, label: usize, delta: f64) -> Result<()> {
        let labels = *self
            .label_counts
            .get(v.0)
            .ok_or(Error::UnknownVariable(v))? as usize;
        if label >= labels {
            return Err(Error::UnaryArity {
                var: v,
                labels,
                got: label + 1,
            });
        }
        self.unary[v.0][label] += delta;
        Ok(())
    }

    /// Registers a shared `rows × cols` potential (row-major costs).
    ///
    /// # Errors
    ///
    /// Returns [`Error::CostLength`] if `costs.len() != rows * cols`.
    pub fn add_potential(
        &mut self,
        rows: usize,
        cols: usize,
        costs: Vec<f64>,
    ) -> Result<PotentialId> {
        if costs.len() != rows * cols {
            return Err(Error::CostLength {
                expected: rows * cols,
                got: costs.len(),
            });
        }
        let id = PotentialId(self.potentials.len());
        self.potentials.push(Potential { rows, cols, costs });
        Ok(id)
    }

    /// Adds an edge between `a` and `b` using a shared potential whose rows
    /// index `a`'s labels and columns `b`'s labels.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`], [`Error::UnknownPotential`],
    /// [`Error::SelfEdge`] or [`Error::PotentialShape`].
    pub fn add_edge(&mut self, a: VarId, b: VarId, potential: PotentialId) -> Result<()> {
        let la = *self
            .label_counts
            .get(a.0)
            .ok_or(Error::UnknownVariable(a))? as usize;
        let lb = *self
            .label_counts
            .get(b.0)
            .ok_or(Error::UnknownVariable(b))? as usize;
        if a == b {
            return Err(Error::SelfEdge(a));
        }
        let p = self
            .potentials
            .get(potential.0)
            .ok_or(Error::UnknownPotential(potential))?;
        if p.shape() != (la, lb) {
            return Err(Error::PotentialShape {
                a,
                b,
                expected: (la, lb),
                got: p.shape(),
            });
        }
        // Normalize to a < b; the potential was given in (a, b) orientation,
        // so flipping endpoints transposes it.
        let (lo, hi, transposed) = if a.0 < b.0 {
            (a, b, false)
        } else {
            (b, a, true)
        };
        self.edges.push(Edge {
            a: lo.0 as u32,
            b: hi.0 as u32,
            potential: potential.0 as u32,
            transposed,
        });
        Ok(())
    }

    /// Adds an edge with its own dense cost matrix (`labels(a) × labels(b)`,
    /// row-major).
    ///
    /// # Errors
    ///
    /// See [`MrfBuilder::add_edge`] and [`MrfBuilder::add_potential`].
    pub fn add_edge_dense(&mut self, a: VarId, b: VarId, costs: Vec<f64>) -> Result<()> {
        let la = *self
            .label_counts
            .get(a.0)
            .ok_or(Error::UnknownVariable(a))? as usize;
        let lb = *self
            .label_counts
            .get(b.0)
            .ok_or(Error::UnknownVariable(b))? as usize;
        let p = self.add_potential(la, lb, costs)?;
        self.add_edge(a, b, p)
    }

    /// Number of variables added so far.
    pub fn var_count(&self) -> usize {
        self.label_counts.len()
    }

    /// Freezes the bulk phase, producing a dense [`MrfModel`] (which stays
    /// mutable through its own slot-recycling mutators).
    pub fn build(self) -> MrfModel {
        let n = self.label_counts.len();
        let mut incident = vec![Vec::new(); n];
        let mut pot_refs = vec![0u32; self.potentials.len()];
        for (idx, e) in self.edges.iter().enumerate() {
            incident[e.a as usize].push(idx as u32);
            incident[e.b as usize].push(idx as u32);
            pot_refs[e.potential as usize] += 1;
        }
        let live_edges = self.edges.len();
        MrfModel {
            label_counts: self.label_counts,
            unary: self.unary,
            potentials: self.potentials,
            pot_refs,
            edges: self.edges,
            free_edges: Vec::new(),
            incident,
            free_vars: Vec::new(),
            live_edges,
        }
    }
}

/// Reusable apply/revert overlay of additive unary adjustments.
///
/// Dual-decomposition coordinators repeatedly perturb a shard model's
/// boundary unaries with Lagrange-multiplier addons, solve, and put the
/// model back. Cloning the model per iteration would dominate the loop;
/// this overlay instead saves the touched rows into an internal arena,
/// adds the addons in place, and on [`UnaryOverlay::revert`] copies the
/// saved rows back **bitwise** — restoration is exact, not an
/// add-then-subtract that could leave floating-point residue. The arena
/// is retained across apply/revert cycles, so a warm loop allocates
/// nothing (the same idea as [`crate::SolveScratch`]).
///
/// ```
/// use mrf::model::{MrfModel, UnaryOverlay};
///
/// # fn main() -> Result<(), mrf::Error> {
/// let mut model = MrfModel::new();
/// let v = model.add_var(2)?;
/// model.set_unary(v, vec![0.3, 0.1])?;
///
/// let mut overlay = UnaryOverlay::new();
/// overlay.apply(&mut model, [(v, &[10.0, -10.0][..])])?;
/// assert_eq!(model.unary(v), &[10.3, -9.9]);
/// overlay.revert(&mut model);
/// assert_eq!(model.unary(v), &[0.3, 0.1]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct UnaryOverlay {
    /// One entry per adjusted row: variable, offset and length of its
    /// saved original in `saved`.
    applied: Vec<(VarId, u32, u32)>,
    saved: Vec<f64>,
}

impl UnaryOverlay {
    /// Creates an empty overlay.
    pub fn new() -> UnaryOverlay {
        UnaryOverlay::default()
    }

    /// Whether the overlay currently holds saved rows (applied and not
    /// yet reverted).
    pub fn is_applied(&self) -> bool {
        !self.applied.is_empty()
    }

    /// Adds `addons` element-wise into the unaries of the named
    /// variables, saving the original rows for [`UnaryOverlay::revert`].
    /// A variable may appear more than once; addons stack, and revert
    /// still restores the original row.
    ///
    /// # Errors
    ///
    /// Returns [`Error::UnknownVariable`] (out of range or tombstoned) or
    /// [`Error::UnaryArity`] (addon length ≠ label count). On error the
    /// model is left exactly as it was: rows applied before the offending
    /// entry are reverted.
    ///
    /// # Panics
    ///
    /// Panics if the overlay is already applied — each apply must be
    /// paired with a revert against the same model.
    pub fn apply<'a, I>(&mut self, model: &mut MrfModel, addons: I) -> Result<()>
    where
        I: IntoIterator<Item = (VarId, &'a [f64])>,
    {
        assert!(
            self.applied.is_empty(),
            "UnaryOverlay::apply called while already applied; revert first"
        );
        for (v, extra) in addons {
            if !model.is_live(v) {
                self.revert(model);
                return Err(Error::UnknownVariable(v));
            }
            let labels = model.label_counts[v.0] as usize;
            if extra.len() != labels {
                self.revert(model);
                return Err(Error::UnaryArity {
                    var: v,
                    labels,
                    got: extra.len(),
                });
            }
            let offset = self.saved.len() as u32;
            self.saved.extend_from_slice(&model.unary[v.0]);
            self.applied.push((v, offset, labels as u32));
            for (u, e) in model.unary[v.0].iter_mut().zip(extra) {
                *u += e;
            }
        }
        Ok(())
    }

    /// Restores every adjusted row to its exact pre-apply contents and
    /// empties the overlay (keeping its arena capacity). Rows are
    /// restored newest-first so repeated entries for one variable unwind
    /// to the original. A no-op when nothing is applied.
    pub fn revert(&mut self, model: &mut MrfModel) {
        for &(v, offset, len) in self.applied.iter().rev() {
            let saved = &self.saved[offset as usize..(offset + len) as usize];
            model.unary[v.0].copy_from_slice(saved);
        }
        self.applied.clear();
        self.saved.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_evaluate_energy() {
        let mut b = MrfBuilder::new();
        let x = b.add_variable(2);
        let y = b.add_variable(3);
        b.set_unary(x, vec![1.0, 2.0]).unwrap();
        b.set_unary(y, vec![0.0, 5.0, 1.0]).unwrap();
        b.add_edge_dense(x, y, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
            .unwrap();
        let m = b.build();
        assert_eq!(m.var_count(), 2);
        assert_eq!(m.edge_count(), 1);
        // E(x=1, y=2) = 2.0 + 1.0 + cost(1,2)=5.0 -> 8.0
        assert_eq!(m.energy(&[1, 2]), 8.0);
        assert_eq!(m.energy(&[0, 0]), 1.0);
    }

    #[test]
    fn shared_potentials_are_reused() {
        let mut b = MrfBuilder::new();
        let vars: Vec<VarId> = (0..4).map(|_| b.add_variable(2)).collect();
        let pot = b.add_potential(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        for w in vars.windows(2) {
            b.add_edge(w[0], w[1], pot).unwrap();
        }
        let m = b.build();
        assert_eq!(m.edge_count(), 3);
        // Alternating labels cost 0; uniform labels cost 3.
        assert_eq!(m.energy(&[0, 1, 0, 1]), 0.0);
        assert_eq!(m.energy(&[0, 0, 0, 0]), 3.0);
    }

    #[test]
    fn reversed_edge_is_transposed() {
        let mut b = MrfBuilder::new();
        let x = b.add_variable(2);
        let y = b.add_variable(3);
        // Register the potential in (y, x) orientation: 3 rows, 2 cols.
        let costs = vec![
            0.0, 1.0, // y=0
            2.0, 3.0, // y=1
            4.0, 5.0, // y=2
        ];
        b.add_edge_dense(y, x, costs).unwrap();
        let m = b.build();
        // Edge is normalized to (x, y); cost(x=1, y=2) must equal cost(y=2, x=1)=5.
        let e = &m.edges()[0];
        assert_eq!(e.a(), x);
        assert_eq!(e.b(), y);
        assert_eq!(m.edge_cost(e, 1, 2), 5.0);
        assert_eq!(m.energy(&[1, 2]), 5.0);
    }

    #[test]
    fn incident_edges_cover_both_endpoints() {
        let mut b = MrfBuilder::new();
        let x = b.add_variable(2);
        let y = b.add_variable(2);
        let z = b.add_variable(2);
        b.add_edge_dense(x, y, vec![0.0; 4]).unwrap();
        b.add_edge_dense(y, z, vec![0.0; 4]).unwrap();
        let m = b.build();
        assert_eq!(m.incident_edges(x), &[0]);
        assert_eq!(m.incident_edges(y), &[0, 1]);
        assert_eq!(m.incident_edges(z), &[1]);
    }

    #[test]
    fn unary_argmin() {
        let mut b = MrfBuilder::new();
        let x = b.add_variable(3);
        b.set_unary(x, vec![2.0, 0.5, 1.0]).unwrap();
        let y = b.add_variable(2);
        b.set_unary(y, vec![0.0, -1.0]).unwrap();
        let m = b.build();
        assert_eq!(m.unary_argmin(), vec![1, 1]);
    }

    #[test]
    fn add_unary_accumulates() {
        let mut b = MrfBuilder::new();
        let x = b.add_variable(2);
        b.add_unary(x, 0, 1.5).unwrap();
        b.add_unary(x, 0, 2.0).unwrap();
        let m = b.build();
        assert_eq!(m.unary(x), &[3.5, 0.0]);
    }

    #[test]
    fn builder_errors() {
        let mut b = MrfBuilder::new();
        let x = b.add_variable(2);
        assert!(matches!(
            b.set_unary(x, vec![0.0; 3]),
            Err(Error::UnaryArity { .. })
        ));
        assert!(matches!(
            b.set_unary(VarId(9), vec![0.0]),
            Err(Error::UnknownVariable(_))
        ));
        assert!(matches!(
            b.add_edge_dense(x, x, vec![0.0; 4]),
            Err(Error::SelfEdge(_))
        ));
        let y = b.add_variable(3);
        assert!(matches!(
            b.add_edge_dense(x, y, vec![0.0; 4]),
            Err(Error::CostLength { .. })
        ));
        let pot = b.add_potential(2, 2, vec![0.0; 4]).unwrap();
        assert!(matches!(
            b.add_edge(x, y, pot),
            Err(Error::PotentialShape { .. })
        ));
        assert!(matches!(
            b.add_edge(x, VarId(7), pot),
            Err(Error::UnknownVariable(_))
        ));
        assert!(matches!(
            b.add_edge(x, y, PotentialId(9)),
            Err(Error::UnknownPotential(_))
        ));
        assert!(matches!(
            b.add_unary(x, 5, 1.0),
            Err(Error::UnaryArity { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "at least one label")]
    fn zero_label_variable_panics() {
        MrfBuilder::new().add_variable(0);
    }

    #[test]
    fn search_space() {
        let mut b = MrfBuilder::new();
        b.add_variable(3);
        b.add_variable(4);
        let m = b.build();
        assert_eq!(m.search_space(), 12.0);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn energy_rejects_wrong_arity() {
        let mut b = MrfBuilder::new();
        b.add_variable(2);
        b.build().energy(&[]);
    }

    // --- Mutable-model tests -------------------------------------------

    /// A 4-chain with agreement-punishing edges; the workhorse fixture.
    fn chain() -> (MrfModel, Vec<VarId>) {
        let mut m = MrfModel::new();
        let vars: Vec<VarId> = (0..4).map(|_| m.add_var(2).unwrap()).collect();
        for w in vars.windows(2) {
            m.add_pairwise_dense(w[0], w[1], vec![1.0, 0.0, 0.0, 1.0])
                .unwrap();
        }
        (m, vars)
    }

    #[test]
    fn remove_var_tombstones_and_drops_incident_edges() {
        let (mut m, vars) = chain();
        assert_eq!(m.live_var_count(), 4);
        assert_eq!(m.edge_count(), 3);
        m.remove_var(vars[1]).unwrap();
        assert_eq!(m.var_count(), 4, "slot array keeps its size");
        assert_eq!(m.live_var_count(), 3);
        assert_eq!(m.edge_count(), 1, "both edges at v1 went with it");
        assert!(!m.is_live(vars[1]));
        assert_eq!(m.labels(vars[1]), 0);
        assert!(m.incident_edges(vars[1]).is_empty());
        assert!(m.incident_edges(vars[0]).is_empty());
        // Energy ignores the tombstone's entry entirely.
        assert_eq!(m.energy(&[0, 0, 0, 1]), 0.0);
        assert_eq!(m.energy(&[0, 1, 0, 0]), 1.0, "only the v2-v3 edge counts");
        // Live iteration skips it.
        let live: Vec<VarId> = m.live_vars().collect();
        assert_eq!(live, vec![vars[0], vars[2], vars[3]]);
        assert_eq!(m.search_space(), 8.0);
    }

    #[test]
    fn mutations_on_tombstones_error_not_corrupt() {
        let (mut m, vars) = chain();
        let e = m
            .add_pairwise_dense(vars[0], vars[2], vec![0.0; 4])
            .unwrap();
        m.remove_var(vars[0]).unwrap();
        let snapshot = m.clone();
        assert!(matches!(
            m.set_unary(vars[0], vec![0.0, 0.0]),
            Err(Error::UnknownVariable(_))
        ));
        assert!(matches!(
            m.add_unary(vars[0], 0, 1.0),
            Err(Error::UnknownVariable(_))
        ));
        assert!(matches!(
            m.remove_var(vars[0]),
            Err(Error::UnknownVariable(_))
        ));
        assert!(matches!(
            m.add_pairwise_dense(vars[0], vars[2], vec![0.0; 4]),
            Err(Error::UnknownVariable(_))
        ));
        assert!(matches!(m.remove_pairwise(e), Err(Error::UnknownEdge(_))));
        assert!(matches!(
            m.remove_pairwise(EdgeId(99)),
            Err(Error::UnknownEdge(_))
        ));
        assert!(matches!(
            m.add_pairwise_dense(vars[2], vars[2], vec![0.0; 4]),
            Err(Error::SelfEdge(_))
        ));
        assert!(matches!(
            m.add_pairwise_dense(vars[2], vars[3], vec![0.0; 3]),
            Err(Error::CostLength { .. })
        ));
        assert_eq!(m, snapshot, "failed mutations must leave the model as-is");
    }

    #[test]
    fn slots_are_recycled() {
        let (mut m, vars) = chain();
        m.remove_var(vars[2]).unwrap();
        let fresh = m.add_var(5).unwrap();
        assert_eq!(fresh, vars[2], "the tombstoned slot is reused");
        assert_eq!(m.var_count(), 4, "no slot growth under churn");
        assert_eq!(m.labels(fresh), 5);
        assert_eq!(m.unary(fresh), &[0.0; 5]);
        assert!(m.incident_edges(fresh).is_empty());
        // Edge slots recycle too.
        let slots_before = m.edge_slots();
        let e = m
            .add_pairwise_dense(vars[0], vars[1], vec![0.0; 4])
            .unwrap();
        m.remove_pairwise(e).unwrap();
        let e2 = m.add_pairwise_dense(vars[0], fresh, vec![0.0; 10]).unwrap();
        assert_eq!(e2, e, "the tombstoned edge slot is reused");
        assert_eq!(m.edge_slots(), slots_before);
    }

    #[test]
    fn stable_handles_survive_neighbor_churn() {
        let (mut m, vars) = chain();
        m.set_unary(vars[3], vec![0.25, 0.75]).unwrap();
        for _ in 0..10 {
            let lowest = m.live_vars().next().unwrap();
            m.remove_var(lowest).unwrap();
            let v = m.add_var(2).unwrap();
            let peer = m.live_vars().find(|&w| w != v).unwrap();
            m.add_pairwise_dense(v, peer, vec![0.0; 4]).unwrap();
        }
        // vars[3] was churned away at some point? No: we always remove the
        // lowest live slot, and vars[3] is the highest — it must have
        // survived every round with its unary intact.
        assert!(m.is_live(vars[3]));
        assert_eq!(m.unary(vars[3]), &[0.25, 0.75]);
    }

    #[test]
    fn remove_pairwise_leaves_endpoints() {
        let (mut m, vars) = chain();
        let shared = m.add_potential(2, 2, vec![0.5; 4]).unwrap();
        let e = m.add_pairwise(vars[0], vars[3], shared).unwrap();
        assert_eq!(m.edge_count(), 4);
        m.remove_pairwise(e).unwrap();
        assert_eq!(m.edge_count(), 3);
        assert!(m.is_live(vars[0]) && m.is_live(vars[3]));
        assert_eq!(m.energy(&[0, 1, 0, 1]), 0.0);
        // Double removal errors.
        assert!(matches!(m.remove_pairwise(e), Err(Error::UnknownEdge(_))));
    }

    #[test]
    fn live_edges_iterator_skips_tombstones() {
        let (mut m, vars) = chain();
        m.remove_var(vars[1]).unwrap();
        let live: Vec<usize> = m.live_edges().map(|(i, _)| i).collect();
        assert_eq!(live.len(), 1);
        assert_eq!(m.edges().len(), 3, "dead slots linger until recycled");
        assert!(m.edges()[live[0]].is_live());
    }

    #[test]
    fn incremental_equals_bulk_assembly() {
        // The same model assembled through the builder and through the
        // mutable API must agree everywhere the solvers look.
        let mut b = MrfBuilder::new();
        let bx = b.add_variable(2);
        let by = b.add_variable(3);
        b.set_unary(bx, vec![1.0, 2.0]).unwrap();
        b.set_unary(by, vec![0.0, 5.0, 1.0]).unwrap();
        b.add_edge_dense(bx, by, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
            .unwrap();
        let bulk = b.build();

        let mut m = MrfModel::new();
        let x = m.add_var(2).unwrap();
        let y = m.add_var(3).unwrap();
        m.set_unary(x, vec![1.0, 2.0]).unwrap();
        m.set_unary(y, vec![0.0, 5.0, 1.0]).unwrap();
        m.add_pairwise_dense(x, y, vec![0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
            .unwrap();

        assert_eq!(bulk, m);
        assert_eq!(m.energy(&[1, 2]), 8.0);
    }

    #[test]
    fn fragmentation_and_compaction() {
        let mut m = MrfModel::new();
        let vars: Vec<VarId> = (0..100).map(|_| m.add_var(2).unwrap()).collect();
        for w in vars.windows(2) {
            m.add_pairwise_dense(w[0], w[1], vec![1.0, 0.0, 0.0, 1.0])
                .unwrap();
        }
        assert_eq!(m.fragmentation(), 0.0);
        assert!(!m.should_compact());
        // Shrink: remove 70 of the 100 variables.
        for &v in &vars[30..] {
            m.remove_var(v).unwrap();
        }
        assert!(m.fragmentation() > 0.5);
        assert!(m.should_compact());
        let energy_before = {
            let labels: Vec<usize> = (0..m.var_count()).map(|i| i % 2).collect();
            m.energy(&labels)
        };
        let remap = m.compact();
        assert_eq!(m.var_count(), 30);
        assert_eq!(m.live_var_count(), 30);
        assert_eq!(m.edge_count(), 29);
        assert_eq!(m.edge_slots(), 29);
        assert_eq!(m.fragmentation(), 0.0);
        assert!(!m.should_compact());
        // The remap maps survivors in order and drops tombstones.
        for (old, new) in remap.iter().enumerate() {
            if old < 30 {
                assert_eq!(*new, Some(VarId(old)));
            } else {
                assert_eq!(*new, None);
            }
        }
        // Same energy through the remapped labeling.
        let labels: Vec<usize> = (0..30).map(|i| i % 2).collect();
        assert_eq!(m.energy(&labels), energy_before);
    }

    #[test]
    fn compact_reclaims_dead_potentials() {
        let mut m = MrfModel::new();
        let x = m.add_var(2).unwrap();
        let y = m.add_var(2).unwrap();
        let keep = m.add_potential(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        m.add_pairwise(x, y, keep).unwrap();
        for _ in 0..40 {
            let e = m.add_pairwise_dense(x, y, vec![0.5; 4]).unwrap();
            m.remove_pairwise(e).unwrap();
        }
        assert!(m.should_compact(), "40 dead potentials against 1 live");
        m.compact();
        assert_eq!(m.edge_count(), 1);
        assert_eq!(m.energy(&[0, 1]), 0.0);
        assert_eq!(m.energy(&[1, 1]), 1.0);
    }

    #[test]
    fn add_var_rejects_empty_domains() {
        let mut m = MrfModel::new();
        assert!(matches!(m.add_var(0), Err(Error::EmptyDomain(_))));
    }

    #[test]
    fn unary_overlay_round_trip_is_exact() {
        let mut m = MrfModel::new();
        let x = m.add_var(2).unwrap();
        let y = m.add_var(3).unwrap();
        // Values chosen so add-then-subtract would NOT restore bitwise.
        m.set_unary(x, vec![0.1, 0.3]).unwrap();
        m.set_unary(y, vec![1e16, -2.5, 0.0]).unwrap();
        let (orig_x, orig_y) = (m.unary(x).to_vec(), m.unary(y).to_vec());

        let mut ov = UnaryOverlay::new();
        ov.apply(&mut m, [(x, &[0.2, -0.2][..]), (y, &[1.0, 1.0, 1.0][..])])
            .unwrap();
        assert!(ov.is_applied());
        assert_eq!(m.unary(x), &[0.1 + 0.2, 0.3 - 0.2]);
        ov.revert(&mut m);
        assert!(!ov.is_applied());
        assert_eq!(m.unary(x), &orig_x[..]);
        assert_eq!(m.unary(y), &orig_y[..]);

        // The overlay is reusable: a second cycle behaves identically.
        ov.apply(&mut m, [(y, &[-1.0, 0.0, 2.0][..])]).unwrap();
        ov.revert(&mut m);
        assert_eq!(m.unary(y), &orig_y[..]);
    }

    #[test]
    fn unary_overlay_stacks_repeated_variables() {
        let mut m = MrfModel::new();
        let x = m.add_var(2).unwrap();
        m.set_unary(x, vec![1.0, 2.0]).unwrap();
        let mut ov = UnaryOverlay::new();
        ov.apply(&mut m, [(x, &[0.5, 0.0][..]), (x, &[0.25, 0.0][..])])
            .unwrap();
        assert_eq!(m.unary(x), &[1.75, 2.0]);
        ov.revert(&mut m);
        assert_eq!(m.unary(x), &[1.0, 2.0]);
    }

    #[test]
    fn unary_overlay_errors_leave_the_model_untouched() {
        let mut m = MrfModel::new();
        let x = m.add_var(2).unwrap();
        let y = m.add_var(2).unwrap();
        m.set_unary(x, vec![1.0, 2.0]).unwrap();
        m.remove_var(y).unwrap();

        let mut ov = UnaryOverlay::new();
        // Arity mismatch after a successful first entry: x is reverted.
        let err = ov
            .apply(&mut m, [(x, &[9.0, 9.0][..]), (x, &[1.0][..])])
            .unwrap_err();
        assert!(matches!(err, Error::UnaryArity { .. }));
        assert!(!ov.is_applied());
        assert_eq!(m.unary(x), &[1.0, 2.0]);

        // Tombstoned variable is rejected.
        let err = ov.apply(&mut m, [(y, &[0.0, 0.0][..])]).unwrap_err();
        assert!(matches!(err, Error::UnknownVariable(v) if v == y));
        assert_eq!(m.unary(x), &[1.0, 2.0]);
    }
}
