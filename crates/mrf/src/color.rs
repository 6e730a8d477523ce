//! Greedy graph coloring over live variables: the visit order of BP's
//! Gauss-Seidel sweep.
//!
//! A color class is an independent set: no two variables in the same class
//! share an edge. BP sweeps class by class (classes ascending, variables
//! ascending within a class), so within a class no visit reads a message
//! another visit of the same class has just rewritten, and every class
//! sees the freshest messages of all earlier ones.
//!
//! The coloring itself is the classic greedy first-fit in slot order:
//! linear in edges, and on the bounded-degree network MRFs this repo
//! builds it produces a handful of classes.

use crate::model::MrfModel;

/// Flat-CSR partition of the live variables into independent sets.
///
/// Built (and rebuilt, reusing capacity) by [`ColorClasses::build`];
/// consumed by the sweep in [`crate::bp`] via [`ColorClasses::class`].
#[derive(Debug, Clone, Default)]
pub struct ColorClasses {
    /// Color per variable slot; `u32::MAX` for tombstoned slots.
    colors: Vec<u32>,
    /// CSR starts into `class_vars`, length `class_count() + 1`.
    class_start: Vec<u32>,
    /// Live variable slots, grouped by class, ascending within each class.
    class_vars: Vec<u32>,
    /// First-fit scratch: last stamp per color (see `build`).
    stamp: Vec<u32>,
    /// Counting-sort cursor scratch.
    cursor: Vec<u32>,
}

impl ColorClasses {
    /// An empty coloring; call [`ColorClasses::build`] before use.
    pub fn new() -> ColorClasses {
        ColorClasses::default()
    }

    /// Recomputes the coloring for `model`, reusing allocations.
    pub fn build(&mut self, model: &MrfModel) {
        let n = model.var_count();
        self.colors.clear();
        self.colors.resize(n, u32::MAX);
        self.stamp.clear();
        let mut classes = 0usize;
        let edges = model.edges();
        for i in 0..n {
            if !model.is_live(crate::model::VarId(i)) {
                continue;
            }
            // Stamp the colors already taken by neighbors; stamps are unique
            // per variable so the scratch never needs clearing.
            let stamp = i as u32 + 1;
            for &eidx in model.incident_edges(crate::model::VarId(i)) {
                let e = &edges[eidx as usize];
                let other = if e.a().0 == i { e.b().0 } else { e.a().0 };
                let c = self.colors[other];
                if c != u32::MAX {
                    self.stamp[c as usize] = stamp;
                }
            }
            let mut c = 0usize;
            while c < classes && self.stamp[c] == stamp {
                c += 1;
            }
            if c == classes {
                classes += 1;
                self.stamp.push(0);
            }
            self.colors[i] = c as u32;
        }
        // Counting sort into the CSR; slot-order fill keeps each class's
        // variables ascending.
        self.class_start.clear();
        self.class_start.resize(classes + 1, 0);
        for &c in &self.colors {
            if c != u32::MAX {
                self.class_start[c as usize + 1] += 1;
            }
        }
        for k in 1..=classes {
            self.class_start[k] += self.class_start[k - 1];
        }
        self.cursor.clear();
        self.cursor.extend_from_slice(&self.class_start[..classes]);
        self.class_vars.clear();
        self.class_vars
            .resize(self.class_start[classes] as usize, 0);
        for (i, &c) in self.colors.iter().enumerate() {
            if c != u32::MAX {
                let slot = &mut self.cursor[c as usize];
                self.class_vars[*slot as usize] = i as u32;
                *slot += 1;
            }
        }
    }

    /// Number of color classes.
    pub fn class_count(&self) -> usize {
        self.class_start.len().saturating_sub(1)
    }

    /// The variable slots of class `k`, ascending.
    pub fn class(&self, k: usize) -> &[u32] {
        &self.class_vars[self.class_start[k] as usize..self.class_start[k + 1] as usize]
    }

    /// The color assigned to variable slot `i` (`None` for tombstones).
    pub fn color(&self, i: usize) -> Option<u32> {
        self.colors.get(i).copied().filter(|&c| c != u32::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::MrfBuilder;

    #[test]
    fn classes_are_independent_sets_and_cover_live_vars() {
        let mut b = MrfBuilder::new();
        let vars: Vec<_> = (0..10).map(|_| b.add_variable(2)).collect();
        for i in 0..10 {
            b.add_edge_dense(vars[i], vars[(i + 1) % 10], vec![0.0; 4])
                .unwrap();
        }
        let m = b.build();
        let mut cc = ColorClasses::new();
        cc.build(&m);
        let mut seen = [false; 10];
        for k in 0..cc.class_count() {
            let class = cc.class(k);
            for w in class.windows(2) {
                assert!(w[0] < w[1], "class vars must be ascending");
            }
            for &v in class {
                assert!(!seen[v as usize], "variable in two classes");
                seen[v as usize] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "coloring must cover live vars");
        // No edge inside a class.
        for (_, e) in m.live_edges() {
            assert_ne!(
                cc.color(e.a().0),
                cc.color(e.b().0),
                "adjacent vars share a color"
            );
        }
        // An even cycle is 2-colorable; greedy should find exactly 2.
        assert_eq!(cc.class_count(), 2);
    }

    #[test]
    fn tombstones_are_skipped_and_rebuild_reuses() {
        let mut b = MrfBuilder::new();
        let x = b.add_variable(2);
        let y = b.add_variable(2);
        let z = b.add_variable(2);
        b.add_edge_dense(x, y, vec![0.0; 4]).unwrap();
        b.add_edge_dense(y, z, vec![0.0; 4]).unwrap();
        let mut m = b.build();
        let mut cc = ColorClasses::new();
        cc.build(&m);
        assert_eq!(cc.class_count(), 2);
        m.remove_var(y).unwrap();
        cc.build(&m);
        assert_eq!(cc.color(y.0), None);
        // x and z are now independent: one class.
        assert_eq!(cc.class_count(), 1);
        assert_eq!(cc.class(0), &[x.0 as u32, z.0 as u32]);
    }
}
