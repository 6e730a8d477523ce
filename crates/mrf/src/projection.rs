//! Projecting stale labelings onto a rebuilt model.
//!
//! Incremental pipelines re-solve a model that was *rebuilt* after a small
//! change: variables may have appeared, disappeared, or changed label
//! counts. The previous MAP labeling is still an excellent starting point —
//! but feeding it to [`MapSolver::refine`] directly is a footgun, because
//! `refine` panics on arity mismatches and out-of-range labels.
//!
//! [`project_labels`] is the safe bridge: the caller supplies, per *new*
//! variable, an optional seed label (typically "the label encoding the
//! product this slot ran before the change"); every missing or out-of-range
//! seed falls back to that variable's unary argmin. The result is always a
//! complete, in-domain labeling that `refine` accepts.
//!
//! [`MapSolver::refine`]: crate::solver::MapSolver::refine

use crate::model::{MrfModel, VarId};

/// Builds a complete, in-domain labeling for `model` from per-variable seed
/// labels.
///
/// `seeds[i]`, when present and `< model.labels(VarId(i))`, becomes variable
/// `i`'s label; anything else (a `None`, an out-of-range label, or a seeds
/// slice shorter than the variable count) falls back to the variable's
/// unary argmin. Extra seed entries beyond the variable count are ignored.
pub fn project_labels(model: &MrfModel, seeds: &[Option<usize>]) -> Vec<usize> {
    (0..model.var_count())
        .map(|i| project_label(model, VarId(i), seeds.get(i).copied().flatten()))
        .collect()
}

/// One variable's share of [`project_labels`]: `seed` when present and in
/// range, else `v`'s unary argmin (0 at a tombstoned slot). Lets callers
/// that re-seed only a few variables keep the rest of a labeling as is.
///
/// # Panics
///
/// Panics if `v` is out of range.
pub fn project_label(model: &MrfModel, v: VarId, seed: Option<usize>) -> usize {
    match seed {
        Some(label) if label < model.labels(v) => label,
        _ => model
            .unary(v)
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(label, _)| label)
            .unwrap_or(0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> MrfModel {
        let mut m = MrfModel::new();
        let x = m.add_var(2).unwrap();
        let y = m.add_var(3).unwrap();
        m.set_unary(x, vec![0.5, 0.0]).unwrap();
        m.set_unary(y, vec![1.0, 0.2, 3.0]).unwrap();
        m.add_pairwise_dense(x, y, vec![0.0; 6]).unwrap();
        m
    }

    #[test]
    fn valid_seeds_pass_through() {
        let m = model();
        assert_eq!(project_labels(&m, &[Some(0), Some(2)]), vec![0, 2]);
    }

    #[test]
    fn missing_and_out_of_range_seeds_fall_back_to_argmin() {
        let m = model();
        // x has no seed, y's seed is out of range -> unary argmins (1, 1).
        assert_eq!(project_labels(&m, &[None, Some(9)]), vec![1, 1]);
        // Short and over-long seed slices are both fine.
        assert_eq!(project_labels(&m, &[]), vec![1, 1]);
        assert_eq!(project_labels(&m, &[Some(0), Some(0), Some(7)]), vec![0, 0]);
    }
}
