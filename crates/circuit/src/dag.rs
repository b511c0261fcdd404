//! Commutation-aware dependency DAG and dynamic layer tracking.
//!
//! The hybrid mapping process starts from a *frontier layer* `f` of gates
//! executable next, plus a *lookahead layer* `l` of gates following the
//! frontier up to a configurable depth (paper §3.2 (1)). Both layers take
//! commutation rules into account: gates that commute are left unordered,
//! so e.g. the controlled-phase ladder of a QFT exposes all its mutually
//! commuting gates to the router at once.
//!
//! # Construction
//!
//! Per qubit the builder maintains the *previous group* and the *current
//! group* of operations: the current group is a maximal run of mutually
//! commuting gates touching that qubit; every member of the current group
//! depends on every member of the previous group. A new gate that commutes
//! with the whole current group joins it (inheriting edges from the
//! previous group only); a gate that conflicts with any member closes the
//! group and starts a new one. This is conservative (it may order a gate
//! after one it commutes with across a group boundary) but never unsound.

use std::collections::VecDeque;

use crate::circuit::Circuit;

/// Dependency DAG over the operations of a [`Circuit`].
///
/// Node `i` is `circuit.ops()[i]`; edges point from earlier to later
/// operations that must stay ordered.
///
/// # Example
///
/// ```
/// use na_circuit::{Circuit, CircuitDag};
/// let mut c = Circuit::new(3);
/// c.cz(0, 1).cz(1, 2).h(1);
/// let dag = CircuitDag::new(&c);
/// // The two CZs commute: both are initially available.
/// assert_eq!(dag.initial_front(), vec![0, 1]);
/// // The H conflicts with both.
/// assert_eq!(dag.predecessors(2), &[0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct CircuitDag {
    preds: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
}

impl CircuitDag {
    /// Builds the commutation-aware DAG of `circuit`.
    pub fn new(circuit: &Circuit) -> Self {
        let n = circuit.len();
        let mut preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        // Per qubit: (previous group, current group) of op indices.
        let width = circuit.num_qubits() as usize;
        let mut prev_group: Vec<Vec<usize>> = vec![Vec::new(); width];
        let mut cur_group: Vec<Vec<usize>> = vec![Vec::new(); width];

        let ops = circuit.ops();
        for (i, op) in ops.iter().enumerate() {
            for q in op.qubits() {
                let qi = q.index();
                let commutes_with_group = cur_group[qi].iter().all(|&j| ops[j].commutes_with(op));
                if commutes_with_group {
                    for &j in &prev_group[qi] {
                        preds[i].push(j);
                    }
                } else {
                    // Close the current group; it becomes the previous one.
                    let closed = std::mem::take(&mut cur_group[qi]);
                    for &j in &closed {
                        preds[i].push(j);
                    }
                    prev_group[qi] = closed;
                }
                cur_group[qi].push(i);
            }
            preds[i].sort_unstable();
            preds[i].dedup();
            for &j in &preds[i] {
                succs[j].push(i);
            }
        }
        for s in &mut succs {
            s.sort_unstable();
            s.dedup();
        }
        CircuitDag { preds, succs }
    }

    /// Number of nodes (operations).
    #[inline]
    pub fn len(&self) -> usize {
        self.preds.len()
    }

    /// Returns `true` for an empty DAG.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.preds.is_empty()
    }

    /// Direct predecessors of op `i` (sorted).
    #[inline]
    pub fn predecessors(&self, i: usize) -> &[usize] {
        &self.preds[i]
    }

    /// Direct successors of op `i` (sorted).
    #[inline]
    pub fn successors(&self, i: usize) -> &[usize] {
        &self.succs[i]
    }

    /// Operations with no predecessors — the initial frontier layer.
    pub fn initial_front(&self) -> Vec<usize> {
        (0..self.len())
            .filter(|&i| self.preds[i].is_empty())
            .collect()
    }

    /// A topological order (ties broken by program order). Mostly useful
    /// for testing; the mapper consumes the DAG via [`LayerTracker`].
    pub fn topological_order(&self) -> Vec<usize> {
        let mut indegree: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut queue: VecDeque<usize> = self.initial_front().into();
        let mut order = Vec::with_capacity(self.len());
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &s in &self.succs[i] {
                indegree[s] -= 1;
                if indegree[s] == 0 {
                    queue.push_back(s);
                }
            }
        }
        debug_assert_eq!(order.len(), self.len(), "DAG must be acyclic");
        order
    }
}

/// Dynamic frontier/lookahead tracking over a [`CircuitDag`].
///
/// The mapper repeatedly executes frontier gates and asks for the updated
/// layers; `LayerTracker` maintains remaining-predecessor counts so each
/// update is O(out-degree).
///
/// # Example
///
/// ```
/// use na_circuit::{Circuit, CircuitDag, LayerTracker};
/// let mut c = Circuit::new(3);
/// c.h(0).cz(0, 1).cz(1, 2);
/// let dag = CircuitDag::new(&c);
/// let mut layers = LayerTracker::new(&dag);
/// // h q0 and cz q1,q2 are ready; cz q0,q1 waits on the Hadamard.
/// assert_eq!(layers.front(), &[0, 2]);
/// layers.mark_executed(&dag, 0);
/// assert!(layers.front().contains(&1));
/// ```
#[derive(Debug, Clone)]
pub struct LayerTracker {
    remaining: Vec<usize>,
    executed: Vec<bool>,
    front: Vec<usize>,
    num_executed: usize,
}

impl LayerTracker {
    /// Initializes tracking with the DAG's initial frontier.
    pub fn new(dag: &CircuitDag) -> Self {
        let remaining: Vec<usize> = (0..dag.len()).map(|i| dag.predecessors(i).len()).collect();
        let front = dag.initial_front();
        LayerTracker {
            remaining,
            executed: vec![false; dag.len()],
            front,
            num_executed: 0,
        }
    }

    /// The current frontier layer (sorted op indices).
    pub fn front(&self) -> &[usize] {
        &self.front
    }

    /// Returns `true` once every operation has been executed.
    pub fn is_done(&self) -> bool {
        self.num_executed == self.executed.len()
    }

    /// Number of executed operations.
    pub fn num_executed(&self) -> usize {
        self.num_executed
    }

    /// Marks frontier op `i` as executed and promotes newly-ready
    /// successors into the frontier. Returns the newly-ready ops.
    ///
    /// # Panics
    ///
    /// Panics if `i` is not currently in the frontier (executing a gate
    /// whose dependencies are unmet would be unsound).
    pub fn mark_executed(&mut self, dag: &CircuitDag, i: usize) -> Vec<usize> {
        let pos = self
            .front
            .iter()
            .position(|&g| g == i)
            .unwrap_or_else(|| panic!("op {i} is not in the frontier"));
        self.front.swap_remove(pos);
        self.executed[i] = true;
        self.num_executed += 1;
        let mut ready = Vec::new();
        for &s in dag.successors(i) {
            self.remaining[s] -= 1;
            if self.remaining[s] == 0 {
                ready.push(s);
            }
        }
        self.front.extend(ready.iter().copied());
        self.front.sort_unstable();
        ready
    }

    /// Partitions the current frontier into qubit-disjoint gate groups.
    ///
    /// Greedy first-fit over the frontier in sorted op-index order: each
    /// gate lands in the earliest group in which none of its qubits is
    /// already used. Group 0 is therefore the maximal greedy prefix of
    /// mutually qubit-disjoint frontier gates — the commit-eligible set of
    /// a speculative multi-commit routing round (every gate in it can be
    /// serviced without touching another group-0 gate's logical qubits).
    ///
    /// The partition is deterministic and covers the whole frontier:
    /// concatenating the groups yields `front()` reordered, and every
    /// group is internally qubit-disjoint.
    ///
    /// # Example
    ///
    /// ```
    /// use na_circuit::{Circuit, CircuitDag, LayerTracker};
    /// let mut c = Circuit::new(3);
    /// c.cz(0, 1).cz(1, 2); // commute: both are frontier gates
    /// let dag = CircuitDag::new(&c);
    /// let layers = LayerTracker::new(&dag);
    /// let groups = layers.front_disjoint_groups(&c);
    /// // They share qubit 1, so they split into two groups.
    /// assert_eq!(groups, vec![vec![0], vec![1]]);
    /// ```
    pub fn front_disjoint_groups(&self, circuit: &Circuit) -> Vec<Vec<usize>> {
        // First group index in which each qubit is still unused.
        let mut next_group = vec![0usize; circuit.num_qubits() as usize];
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let ops = circuit.ops();
        for &i in &self.front {
            let g = ops[i]
                .qubits()
                .iter()
                .map(|q| next_group[q.index()])
                .max()
                .unwrap_or(0);
            if g == groups.len() {
                groups.push(Vec::new());
            }
            groups[g].push(i);
            for q in ops[i].qubits() {
                next_group[q.index()] = g + 1;
            }
        }
        groups
    }

    /// The lookahead layer: operations reachable from the frontier within
    /// `depth` dependency steps, capped at `max_gates`, in BFS order.
    ///
    /// `depth = 0` or `max_gates = 0` yields an empty layer.
    pub fn lookahead(&self, dag: &CircuitDag, depth: usize, max_gates: usize) -> Vec<usize> {
        if depth == 0 || max_gates == 0 {
            return Vec::new();
        }
        let mut seen = vec![false; dag.len()];
        for &i in &self.front {
            seen[i] = true;
        }
        let mut layer = Vec::new();
        let mut current: Vec<usize> = self.front.clone();
        for _ in 0..depth {
            let mut next = Vec::new();
            for &i in &current {
                for &s in dag.successors(i) {
                    if !seen[s] && !self.executed[s] {
                        seen[s] = true;
                        next.push(s);
                        layer.push(s);
                        if layer.len() >= max_gates {
                            return layer;
                        }
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            current = next;
        }
        layer
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::generators::Qft;
    use proptest::prelude::*;

    /// The central DAG example: cz(0,1) and cz(1,2) commute (both
    /// diagonal) so the QFT-style ladder is fully exposed.
    #[test]
    fn commuting_cz_chain_all_front() {
        let mut c = Circuit::new(4);
        c.cz(0, 1).cz(1, 2).cz(2, 3).cz(0, 3);
        let dag = CircuitDag::new(&c);
        assert_eq!(dag.initial_front(), vec![0, 1, 2, 3]);
    }

    #[test]
    fn h_creates_barrier() {
        let mut c = Circuit::new(2);
        c.cz(0, 1).h(0).cz(0, 1);
        let dag = CircuitDag::new(&c);
        assert_eq!(dag.predecessors(1), &[0]);
        assert_eq!(dag.predecessors(2), &[1]);
    }

    /// Soundness regression: X, CZ, Z on the same qubit. Z commutes with
    /// CZ but not with X; the group construction must still order Z after
    /// X (via the CZ barrier).
    #[test]
    fn cross_group_ordering_is_sound() {
        let mut c = Circuit::new(2);
        c.x(0).cz(0, 1).z(0);
        let dag = CircuitDag::new(&c);
        // z depends on the previous group [x] and is unordered w.r.t. cz.
        assert_eq!(dag.predecessors(2), &[0]);
        assert_eq!(dag.predecessors(1), &[0]);
    }

    #[test]
    fn disjoint_gates_independent() {
        let mut c = Circuit::new(4);
        c.cz(0, 1).cz(2, 3);
        let dag = CircuitDag::new(&c);
        assert!(dag.predecessors(1).is_empty());
    }

    #[test]
    fn topological_order_respects_edges() {
        let mut c = Circuit::new(3);
        c.h(0).cz(0, 1).h(1).cz(1, 2).h(2);
        let dag = CircuitDag::new(&c);
        let order = dag.topological_order();
        assert_eq!(order.len(), c.len());
        let mut pos = vec![0usize; c.len()];
        for (p, &i) in order.iter().enumerate() {
            pos[i] = p;
        }
        for i in 0..c.len() {
            for &p in dag.predecessors(i) {
                assert!(pos[p] < pos[i]);
            }
        }
    }

    #[test]
    fn tracker_executes_whole_circuit() {
        let c = Qft::new(5).build();
        let dag = CircuitDag::new(&c);
        let mut layers = LayerTracker::new(&dag);
        let mut executed = 0;
        while !layers.is_done() {
            let i = layers.front()[0];
            layers.mark_executed(&dag, i);
            executed += 1;
        }
        assert_eq!(executed, c.len());
    }

    #[test]
    #[should_panic(expected = "not in the frontier")]
    fn tracker_rejects_non_front_execution() {
        let mut c = Circuit::new(2);
        c.h(0).cz(0, 1);
        let dag = CircuitDag::new(&c);
        let mut layers = LayerTracker::new(&dag);
        layers.mark_executed(&dag, 1);
    }

    #[test]
    fn lookahead_respects_depth_and_cap() {
        let mut c = Circuit::new(2);
        c.h(0).h(1).cz(0, 1).h(0).cz(0, 1);
        let dag = CircuitDag::new(&c);
        let layers = LayerTracker::new(&dag);
        assert!(layers.lookahead(&dag, 0, 10).is_empty());
        let one = layers.lookahead(&dag, 1, 10);
        assert!(one.contains(&2));
        assert!(!one.contains(&3)); // h q0 is two dependency steps away
        let deep = layers.lookahead(&dag, 5, 10);
        assert!(deep.contains(&3) && deep.contains(&4));
        assert_eq!(layers.lookahead(&dag, 5, 2).len(), 2);
    }

    #[test]
    fn disjoint_groups_split_shared_qubits() {
        let mut c = Circuit::new(4);
        // All four CZs commute; 0 and 1 share q1, 2 shares q2 with 1.
        c.cz(0, 1).cz(1, 2).cz(2, 3).cz(0, 3);
        let dag = CircuitDag::new(&c);
        let layers = LayerTracker::new(&dag);
        let groups = layers.front_disjoint_groups(&c);
        // Greedy first-fit: op0 {0,1} → g0; op1 {1,2} → g1; op2 {2,3} → g2
        // (q2 used in g1... next_group[2]=2), op3 {0,3} → g3? op3 qubits
        // q0 (next 1) and q3 (next 3) → g3.
        assert_eq!(groups[0], vec![0]);
        let flat: Vec<usize> = groups.iter().flatten().copied().collect();
        let mut sorted = flat.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, layers.front());
        // Every group is internally qubit-disjoint.
        for group in &groups {
            let mut used = [false; 4];
            for &i in group {
                for q in c.ops()[i].qubits() {
                    assert!(!used[q.index()], "group shares qubit {q:?}");
                    used[q.index()] = true;
                }
            }
        }
    }

    #[test]
    fn disjoint_groups_keep_independent_gates_together() {
        let mut c = Circuit::new(6);
        c.cz(0, 1).cz(2, 3).cz(4, 5);
        let dag = CircuitDag::new(&c);
        let layers = LayerTracker::new(&dag);
        let groups = layers.front_disjoint_groups(&c);
        assert_eq!(groups, vec![vec![0, 1, 2]]);
    }

    proptest! {
        /// The partition covers the frontier exactly and every group is
        /// qubit-disjoint, for arbitrary circuits.
        #[test]
        fn disjoint_groups_partition_is_sound(ops in proptest::collection::vec((0u32..6, 0u32..6, 0u8..3), 1..40)) {
            let mut c = Circuit::new(6);
            for (a, b, kind) in ops {
                match kind {
                    0 => { c.h(a); }
                    1 => { if a != b { c.cz(a, b); } }
                    _ => { c.rz(0.25, a); }
                }
            }
            let dag = CircuitDag::new(&c);
            let layers = LayerTracker::new(&dag);
            let groups = layers.front_disjoint_groups(&c);
            let mut flat: Vec<usize> = groups.iter().flatten().copied().collect();
            flat.sort_unstable();
            prop_assert_eq!(flat, layers.front().to_vec());
            for group in &groups {
                prop_assert!(!group.is_empty());
                let mut used = [false; 6];
                for &i in group {
                    for q in c.ops()[i].qubits() {
                        prop_assert!(!used[q.index()]);
                        used[q.index()] = true;
                    }
                }
            }
        }
    }

    #[test]
    fn lookahead_excludes_front_and_executed() {
        let mut c = Circuit::new(2);
        c.h(0).cz(0, 1).h(1);
        let dag = CircuitDag::new(&c);
        let mut layers = LayerTracker::new(&dag);
        layers.mark_executed(&dag, 0);
        let la = layers.lookahead(&dag, 3, 10);
        assert!(!la.contains(&0));
        assert!(!la.contains(&1)); // now in front
        assert!(la.contains(&2));
    }

    proptest! {
        /// Any DAG built from a random circuit is acyclic and orders every
        /// pair of non-commuting overlapping gates.
        #[test]
        fn dag_orders_all_conflicts(ops in proptest::collection::vec((0u32..5, 0u32..5, 0u8..3), 1..40)) {
            let mut c = Circuit::new(5);
            for (a, b, kind) in ops {
                match kind {
                    0 => { c.h(a); }
                    1 => { if a != b { c.cz(a, b); } }
                    _ => { c.rz(0.5, a); }
                }
            }
            let dag = CircuitDag::new(&c);
            let order = dag.topological_order();
            prop_assert_eq!(order.len(), c.len());
            let mut pos = vec![0usize; c.len()];
            for (p, &i) in order.iter().enumerate() { pos[i] = p; }
            // Reachability closure over the DAG.
            let n = c.len();
            let mut reach = vec![vec![false; n]; n];
            for &i in order.iter().rev() {
                for &s in dag.successors(i) {
                    reach[i][s] = true;
                    let row = reach[s].clone();
                    for (k, v) in row.into_iter().enumerate() {
                        if v { reach[i][k] = true; }
                    }
                }
            }
            #[allow(clippy::needless_range_loop)] // paired indices
            for i in 0..n {
                for j in (i + 1)..n {
                    let (a, b) = (&c.ops()[i], &c.ops()[j]);
                    if a.overlaps(b) && !a.commutes_with(b) {
                        prop_assert!(reach[i][j], "ops {} and {} unordered", i, j);
                    }
                }
            }
        }
    }
}
