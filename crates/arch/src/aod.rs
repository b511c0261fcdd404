//! 2D acousto-optic deflector (AOD) shuttling model.
//!
//! Atoms are shuttled by loading them from static SLM traps into the
//! crossing points of AOD rows and columns, translating those rows and
//! columns, and storing the atoms back (paper §2.1, Fig. 1b). Two
//! constraints govern which moves can share one AOD *transaction*
//! (activate → move → deactivate):
//!
//! 1. **No crossing** — AOD rows and columns keep their relative order at
//!    all times. Two moves can only execute simultaneously if the order of
//!    their source x-coordinates equals the order of their target
//!    x-coordinates (and likewise for y). Two atoms sharing a column must
//!    keep sharing it (a single column cannot split), and distinct columns
//!    cannot merge onto one coordinate.
//! 2. **Ghost spots** — every row/column intersection is a potential trap.
//!    Following Example 2 of the paper, qubits are loaded sequentially with
//!    small offset moves so that ghost spots only ever hover over empty
//!    inter-qubit regions; the model therefore allows arbitrary subsets of
//!    compatible moves to be loaded within a single activation window.

use serde::{Deserialize, Serialize};
use std::fmt;

use crate::coord::Site;
use crate::params::HardwareParams;

/// Index of an AOD row (a horizontal deflection line at some y).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AodRow(pub i32);

/// Index of an AOD column (a vertical deflection line at some x).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct AodColumn(pub i32);

/// A single shuttle move of one atom between two trap coordinates.
///
/// # Example
///
/// ```
/// use na_arch::{Move, Site};
/// let m = Move::new(Site::new(0, 0), Site::new(3, 1));
/// assert_eq!(m.rectilinear_distance(), 4.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Move {
    /// Source trap coordinate.
    pub from: Site,
    /// Target trap coordinate.
    pub to: Site,
}

impl Move {
    /// Creates a move from `from` to `to`.
    pub const fn new(from: Site, to: Site) -> Self {
        Move { from, to }
    }

    /// Rectangular shuttling distance `s(M)` in lattice units — AOD
    /// translations decompose into an x-sweep and a y-sweep.
    #[inline]
    pub fn rectilinear_distance(&self) -> f64 {
        self.from.rectilinear_distance(self.to)
    }

    /// Returns `true` if the move is a no-op (`from == to`).
    #[inline]
    pub fn is_trivial(&self) -> bool {
        self.from == self.to
    }
}

impl fmt::Display for Move {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.from, self.to)
    }
}

fn axis_compatible(a_from: i32, a_to: i32, b_from: i32, b_to: i32) -> bool {
    // Relative order of the two AOD lines must be identical before and
    // after the translation; shared lines must stay shared.
    a_from.cmp(&b_from) == a_to.cmp(&b_to)
        // A shared line translates both atoms by the same amount.
        && (a_from != b_from || (a_to - a_from) == (b_to - b_from))
}

/// Returns `true` if two moves can be *fully* executed within a single AOD
/// transaction: loaded in the same activation window and translated
/// simultaneously without any row/column crossing.
///
/// This is the "parallel loading & shuttle" case of the paper's ΔT model
/// (§3.3.2).
pub fn moves_fully_parallel(a: &Move, b: &Move) -> bool {
    a.from != b.from
        && a.to != b.to
        && axis_compatible(a.from.x, a.to.x, b.from.x, b.to.x)
        && axis_compatible(a.from.y, a.to.y, b.from.y, b.to.y)
}

/// Returns `true` if two moves can at least share the loading phase (the
/// source coordinates fit one non-degenerate AOD grid), even if their
/// translations conflict.
///
/// This is the "parallel loading" case of the paper's ΔT model: the batch
/// still saves one activation/deactivation pair.
pub fn loads_parallel(a: &Move, b: &Move) -> bool {
    a.from != b.from
}

/// A set of pairwise-compatible moves executing as one AOD transaction.
///
/// Invariant: all contained moves are pairwise [`moves_fully_parallel`].
///
/// # Example
///
/// ```
/// use na_arch::{HardwareParams, Move, MoveBatch, Site};
/// let mut batch = MoveBatch::new();
/// assert!(batch.try_push(Move::new(Site::new(0, 0), Site::new(0, 2))));
/// assert!(batch.try_push(Move::new(Site::new(3, 0), Site::new(3, 2))));
/// // Crossing move is rejected:
/// assert!(!batch.try_push(Move::new(Site::new(5, 0), Site::new(1, 2))));
/// assert_eq!(batch.len(), 2);
/// let hw = HardwareParams::shuttling();
/// assert!(batch.duration_us(&hw) > 0.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MoveBatch {
    moves: Vec<Move>,
}

impl MoveBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        MoveBatch::default()
    }

    /// Number of moves in the batch.
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Returns `true` if the batch contains no moves.
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// The moves in insertion order.
    pub fn moves(&self) -> &[Move] {
        &self.moves
    }

    /// Returns `true` if `m` is compatible with every move already in the
    /// batch.
    pub fn accepts(&self, m: &Move) -> bool {
        self.moves
            .iter()
            .all(|existing| moves_fully_parallel(existing, m))
    }

    /// Adds `m` if compatible with the whole batch; returns whether the
    /// move was added.
    pub fn try_push(&mut self, m: Move) -> bool {
        if self.accepts(&m) {
            self.moves.push(m);
            true
        } else {
            false
        }
    }

    /// Distinct AOD rows needed to load the batch's sources.
    pub fn rows(&self) -> Vec<AodRow> {
        let mut ys: Vec<i32> = self.moves.iter().map(|m| m.from.y).collect();
        ys.sort_unstable();
        ys.dedup();
        ys.into_iter().map(AodRow).collect()
    }

    /// Distinct AOD columns needed to load the batch's sources.
    pub fn columns(&self) -> Vec<AodColumn> {
        let mut xs: Vec<i32> = self.moves.iter().map(|m| m.from.x).collect();
        xs.sort_unstable();
        xs.dedup();
        xs.into_iter().map(AodColumn).collect()
    }

    /// Maximum rectilinear distance over the batch, in lattice units.
    pub fn max_distance(&self) -> f64 {
        self.moves
            .iter()
            .map(Move::rectilinear_distance)
            .fold(0.0, f64::max)
    }

    /// Duration of the whole transaction: one activation, simultaneous
    /// translation bounded by the longest move, one deactivation. Empty
    /// batches take no time.
    pub fn duration_us(&self, params: &HardwareParams) -> f64 {
        if self.moves.is_empty() {
            0.0
        } else {
            params.shuttle_time_us(self.max_distance())
        }
    }
}

impl FromIterator<Move> for MoveBatch {
    /// Collects moves, silently dropping those incompatible with the
    /// already-collected prefix. Use [`MoveBatch::try_push`] when the
    /// caller must observe rejections.
    fn from_iter<I: IntoIterator<Item = Move>>(iter: I) -> Self {
        let mut batch = MoveBatch::new();
        for m in iter {
            batch.try_push(m);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mv(fx: i32, fy: i32, tx: i32, ty: i32) -> Move {
        Move::new(Site::new(fx, fy), Site::new(tx, ty))
    }

    #[test]
    fn parallel_translation_same_direction() {
        // Two atoms in the same row moving right by the same amount.
        assert!(moves_fully_parallel(&mv(0, 0, 2, 0), &mv(3, 0, 5, 0)));
    }

    #[test]
    fn crossing_columns_rejected() {
        // Left atom ends right of the right atom: columns would cross.
        assert!(!moves_fully_parallel(&mv(0, 0, 5, 0), &mv(3, 0, 2, 0)));
    }

    #[test]
    fn merging_columns_rejected() {
        // Distinct columns may not end on the same x coordinate.
        assert!(!moves_fully_parallel(&mv(0, 0, 2, 1), &mv(4, 3, 2, 4)));
    }

    #[test]
    fn shared_column_must_translate_together() {
        // Same source column, same x-shift: fine.
        assert!(moves_fully_parallel(&mv(2, 0, 4, 0), &mv(2, 3, 4, 3)));
        // Same source column, different x-shift: the column would split.
        assert!(!moves_fully_parallel(&mv(2, 0, 4, 0), &mv(2, 3, 5, 3)));
    }

    /// Example 2 of the paper: q3 and q4 load simultaneously in one row
    /// (y = 3d) at x = d and x = 5d and move to distinct targets keeping
    /// x-order.
    #[test]
    fn example2_row_load() {
        let q3 = mv(0, 3, 1, 1); // x0 = d -> towards q2's vicinity
        let q4 = mv(4, 3, 3, 1); // x2 = 5d
        assert!(moves_fully_parallel(&q3, &q4));
    }

    #[test]
    fn vertical_crossing_rejected() {
        assert!(!moves_fully_parallel(&mv(0, 0, 0, 4), &mv(1, 2, 1, 1)));
    }

    #[test]
    fn batch_duration_uses_longest_move() {
        let hw = HardwareParams::shuttling();
        let mut batch = MoveBatch::new();
        assert!(batch.try_push(mv(0, 0, 0, 1))); // 1 unit
        assert!(batch.try_push(mv(3, 2, 3, 6))); // 4 units, distinct row
        let expect = hw.shuttle_time_us(4.0);
        assert!((batch.duration_us(&hw) - expect).abs() < 1e-9);
    }

    #[test]
    fn empty_batch_takes_no_time() {
        let hw = HardwareParams::mixed();
        assert_eq!(MoveBatch::new().duration_us(&hw), 0.0);
    }

    #[test]
    fn batch_rows_and_columns_dedup() {
        let batch: MoveBatch = [mv(0, 0, 0, 2), mv(3, 0, 3, 2)].into_iter().collect();
        assert_eq!(batch.rows(), vec![AodRow(0)]);
        assert_eq!(batch.columns(), vec![AodColumn(0), AodColumn(3)]);
    }

    #[test]
    fn from_iterator_drops_incompatible() {
        let batch: MoveBatch = [mv(0, 0, 5, 0), mv(3, 0, 2, 0)].into_iter().collect();
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn loads_parallel_requires_distinct_sources() {
        assert!(loads_parallel(&mv(0, 0, 1, 0), &mv(2, 2, 0, 2)));
        assert!(!loads_parallel(&mv(0, 0, 1, 0), &mv(0, 0, 0, 2)));
    }

    proptest! {
        #[test]
        fn compatibility_is_symmetric(
            afx in 0i32..8, afy in 0i32..8, atx in 0i32..8, aty in 0i32..8,
            bfx in 0i32..8, bfy in 0i32..8, btx in 0i32..8, bty in 0i32..8,
        ) {
            let a = mv(afx, afy, atx, aty);
            let b = mv(bfx, bfy, btx, bty);
            prop_assert_eq!(moves_fully_parallel(&a, &b), moves_fully_parallel(&b, &a));
        }

        #[test]
        fn translations_preserve_order(
            afx in 0i32..8, atx in 0i32..8, bfx in 0i32..8, btx in 0i32..8,
        ) {
            let a = mv(afx, 0, atx, 5);
            let b = mv(bfx, 1, btx, 6);
            if moves_fully_parallel(&a, &b) {
                // Order of columns preserved.
                prop_assert_eq!(afx.cmp(&bfx), atx.cmp(&btx));
            }
        }

        #[test]
        fn batch_pairwise_invariant(moves in proptest::collection::vec(
            (0i32..6, 0i32..6, 0i32..6, 0i32..6), 0..12)
        ) {
            let batch: MoveBatch = moves
                .into_iter()
                .map(|(a, b, c, d)| mv(a, b, c, d))
                .filter(|m| !m.is_trivial())
                .collect();
            let ms = batch.moves();
            for i in 0..ms.len() {
                for j in (i + 1)..ms.len() {
                    prop_assert!(moves_fully_parallel(&ms[i], &ms[j]));
                }
            }
        }
    }
}
