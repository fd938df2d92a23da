//! Indices backing access constraints.
//!
//! For a constraint `S → (l, N)` the paper requires an index that, given any
//! `S`-labeled node set `V_S`, returns all common neighbors of `V_S` labeled
//! `l` in `O(N)` time. [`ConstraintIndex`] realizes that contract with a hash
//! map keyed by the (sorted) node-id tuple of `V_S`; [`AccessIndexSet`] packs
//! one index per constraint of a schema.
//!
//! The experiments of the paper build these indices as MySQL tables; here
//! they are in-memory structures with the same asymptotic access contract,
//! plus size accounting used to reproduce the `|index_Q|/|G|` measurements of
//! Fig. 5(d,h,l).

use crate::constraint::{AccessConstraint, ConstraintId};
use crate::schema::AccessSchema;
use bgpq_graph::{Graph, Label, NodeId};
use std::collections::{HashMap, HashSet};

/// Upper bound on the number of `S`-labeled combinations materialized per
/// target node. Real access constraints have small source fanouts (a movie
/// has one year and one award), so this cap exists only as a safety valve
/// against degenerate schemas; hitting it marks the index as truncated.
pub const DEFAULT_MAX_COMBINATIONS_PER_NODE: usize = 4096;

/// The index of a single access constraint.
#[derive(Debug, Clone)]
pub struct ConstraintIndex {
    pub(crate) constraint: AccessConstraint,
    /// Sorted `S`-labeled node tuple → common neighbors labeled `l`.
    /// Global constraints use the empty key.
    pub(crate) map: HashMap<Vec<NodeId>, Vec<NodeId>>,
    /// Target node → keys it appears under (for incremental maintenance).
    pub(crate) reverse: HashMap<NodeId, Vec<Vec<NodeId>>>,
    /// Largest answer set over all keys.
    pub(crate) max_cardinality: usize,
    /// Target nodes whose combination enumeration hit the cap. Tracked per
    /// node (not as a sticky flag) so that maintenance removing or repairing
    /// a capped node's contribution leaves the truncation verdict exactly
    /// where a fresh rebuild would put it.
    pub(crate) capped_targets: HashSet<NodeId>,
    /// The per-node combination cap this index was built with. Incremental
    /// maintenance reuses it so refreshed contributions are enumerated
    /// exactly like a fresh build's.
    pub(crate) cap: usize,
}

impl ConstraintIndex {
    /// Builds the index for `constraint` over `graph`.
    pub fn build(graph: &Graph, constraint: AccessConstraint) -> Self {
        Self::build_with_cap(graph, constraint, DEFAULT_MAX_COMBINATIONS_PER_NODE)
    }

    /// Builds the index with an explicit combination cap per target node.
    pub fn build_with_cap(graph: &Graph, constraint: AccessConstraint, cap: usize) -> Self {
        let mut index = ConstraintIndex {
            constraint,
            map: HashMap::new(),
            reverse: HashMap::new(),
            max_cardinality: 0,
            capped_targets: HashSet::new(),
            cap,
        };
        if index.constraint.is_global() {
            let nodes: Vec<NodeId> = graph.nodes_with_label(index.constraint.target()).to_vec();
            index.max_cardinality = nodes.len();
            if !nodes.is_empty() {
                for &v in &nodes {
                    index.reverse.entry(v).or_default().push(Vec::new());
                }
                index.map.insert(Vec::new(), nodes);
            } else {
                index.map.insert(Vec::new(), Vec::new());
            }
            return index;
        }
        for &v in graph.nodes_with_label(index.constraint.target()) {
            index.add_target_contribution(graph, v, cap);
        }
        index.recompute_max_cardinality();
        index
    }

    /// The constraint this index backs.
    pub fn constraint(&self) -> &AccessConstraint {
        &self.constraint
    }

    /// Common neighbors labeled `l` of the `S`-labeled set `vs`
    /// (order of `vs` does not matter). Returns an empty slice when the set
    /// is not indexed, which for a graph satisfying the constraint means the
    /// answer is empty.
    pub fn common_neighbors(&self, vs: &[NodeId]) -> &[NodeId] {
        let key = Self::canonical_key(vs);
        self.map.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// True when `target` is a common neighbor (labeled `l`) of `vs`.
    pub fn contains(&self, vs: &[NodeId], target: NodeId) -> bool {
        self.common_neighbors(vs).contains(&target)
    }

    /// All nodes labeled `l` for a global (`S = ∅`) constraint.
    pub fn global_nodes(&self) -> &[NodeId] {
        debug_assert!(self.constraint.is_global());
        self.common_neighbors(&[])
    }

    /// The largest answer set across all indexed keys — the graph satisfies
    /// the cardinality part of the constraint iff this is `≤ N`.
    pub fn max_cardinality(&self) -> usize {
        self.max_cardinality
    }

    /// True when every indexed key respects the bound `N`.
    pub fn within_bound(&self) -> bool {
        self.max_cardinality <= self.constraint.bound()
    }

    /// True when some target node's combination enumeration hit the cap —
    /// at build time or during an incremental refresh. Maintenance keeps
    /// this exact: deleting or repairing the offending node clears it, just
    /// as a fresh rebuild would.
    pub fn is_truncated(&self) -> bool {
        !self.capped_targets.is_empty()
    }

    /// The per-node combination cap the index was built with (and that
    /// incremental maintenance keeps honoring).
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// True when `target` currently contributes at least one indexed entry —
    /// the probe incremental maintenance uses to decide whether a node that
    /// no longer carries the target label (relabeled or deleted) still needs
    /// its stale contribution removed.
    pub fn has_contribution(&self, target: NodeId) -> bool {
        self.reverse.contains_key(&target)
    }

    /// Number of distinct keys indexed.
    pub fn key_count(&self) -> usize {
        self.map.len()
    }

    /// Total number of node ids stored (keys plus answers) — the paper's
    /// `|index|` measure for one constraint.
    pub fn size(&self) -> usize {
        self.map
            .iter()
            .map(|(k, v)| k.len() + v.len())
            .sum::<usize>()
    }

    /// Iterates over `(key, answers)` pairs.
    pub fn entries(&self) -> impl Iterator<Item = (&[NodeId], &[NodeId])> {
        self.map.iter().map(|(k, v)| (k.as_slice(), v.as_slice()))
    }

    fn canonical_key(vs: &[NodeId]) -> Vec<NodeId> {
        let mut key = vs.to_vec();
        key.sort_unstable();
        key.dedup();
        key
    }

    fn recompute_max_cardinality(&mut self) {
        self.max_cardinality = self.map.values().map(Vec::len).max().unwrap_or(0);
    }

    /// Removes every occurrence of `target` from the index (used by
    /// incremental maintenance before re-adding its contribution).
    pub(crate) fn remove_target_contribution(&mut self, target: NodeId) {
        self.capped_targets.remove(&target);
        if let Some(keys) = self.reverse.remove(&target) {
            for key in keys {
                if let Some(values) = self.map.get_mut(&key) {
                    values.retain(|&v| v != target);
                    if values.is_empty() && !key.is_empty() {
                        self.map.remove(&key);
                    }
                }
            }
        }
    }

    /// Adds the contribution of `target` (a node labeled `l`) by enumerating
    /// every `S`-labeled combination of its neighbors in `graph`.
    pub(crate) fn add_target_contribution(&mut self, graph: &Graph, target: NodeId, cap: usize) {
        debug_assert_eq!(graph.label(target), self.constraint.target());
        if self.constraint.is_global() {
            let entry = self.map.entry(Vec::new()).or_default();
            if !entry.contains(&target) {
                entry.push(target);
                entry.sort_unstable();
            }
            self.reverse.entry(target).or_default().push(Vec::new());
            return;
        }
        // Group the target's neighbors by the source labels of the constraint.
        let neighbors = graph.neighbors(target);
        let mut per_label: Vec<Vec<NodeId>> = vec![Vec::new(); self.constraint.source_len()];
        for &n in &neighbors {
            let ln = graph.label(n);
            if let Ok(pos) = self.constraint.source().binary_search(&ln) {
                per_label[pos].push(n);
            }
        }
        if per_label.iter().any(Vec::is_empty) {
            return; // `target` has no S-labeled neighbor set.
        }
        let mut combos: Vec<Vec<NodeId>> = vec![Vec::new()];
        for bucket in &per_label {
            let mut next = Vec::with_capacity(combos.len() * bucket.len());
            'outer: for combo in &combos {
                for &candidate in bucket {
                    if combo.contains(&candidate) {
                        // A node cannot play two roles in the same S-labeled
                        // set (|V_S| = |S| requires distinct nodes).
                        continue;
                    }
                    let mut extended = combo.clone();
                    extended.push(candidate);
                    next.push(extended);
                    if next.len() >= cap {
                        self.capped_targets.insert(target);
                        break 'outer;
                    }
                }
            }
            combos = next;
            if combos.is_empty() {
                return;
            }
        }
        for mut key in combos {
            key.sort_unstable();
            let entry = self.map.entry(key.clone()).or_default();
            if !entry.contains(&target) {
                entry.push(target);
                entry.sort_unstable();
                self.reverse.entry(target).or_default().push(key);
            }
        }
    }

    /// Recomputes the contribution of `target` against `graph` (remove then
    /// re-add, under the index's own combination cap) and refreshes the
    /// cached maximum cardinality. Deleted or relabeled nodes end with no
    /// contribution: a tombstoned slot's label matches no constraint target.
    pub(crate) fn refresh_target(&mut self, graph: &Graph, target: NodeId) {
        self.remove_target_contribution(target);
        if graph.contains_node(target) && graph.label(target) == self.constraint.target() {
            self.add_target_contribution(graph, target, self.cap);
        }
        self.recompute_max_cardinality();
    }
}

/// One [`ConstraintIndex`] per constraint of an [`AccessSchema`].
#[derive(Debug, Clone)]
pub struct AccessIndexSet {
    pub(crate) schema: AccessSchema,
    pub(crate) indices: Vec<ConstraintIndex>,
}

impl AccessIndexSet {
    /// Builds all indices for `schema` over `graph`.
    pub fn build(graph: &Graph, schema: &AccessSchema) -> Self {
        Self::build_with_cap(graph, schema, DEFAULT_MAX_COMBINATIONS_PER_NODE)
    }

    /// Builds all indices with an explicit per-node combination cap. The cap
    /// is remembered by every index, so incremental maintenance refreshes
    /// contributions under the same cap as a fresh build.
    pub fn build_with_cap(graph: &Graph, schema: &AccessSchema, cap: usize) -> Self {
        let indices = schema
            .iter()
            .map(|c| ConstraintIndex::build_with_cap(graph, c.clone(), cap))
            .collect();
        AccessIndexSet {
            schema: schema.clone(),
            indices,
        }
    }

    /// The schema these indices back.
    pub fn schema(&self) -> &AccessSchema {
        &self.schema
    }

    /// The index for constraint `id`.
    pub fn get(&self, id: ConstraintId) -> Option<&ConstraintIndex> {
        self.indices.get(id.index())
    }

    /// Mutable access used by incremental maintenance.
    pub(crate) fn get_mut(&mut self, id: ConstraintId) -> Option<&mut ConstraintIndex> {
        self.indices.get_mut(id.index())
    }

    /// Iterates over `(id, index)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (ConstraintId, &ConstraintIndex)> {
        self.indices
            .iter()
            .enumerate()
            .map(|(i, idx)| (ConstraintId(i as u32), idx))
    }

    /// Number of indices (equals `||A||`).
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True when the schema is empty.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Sum of the sizes of all indices — the `|index|` of the whole schema.
    pub fn total_size(&self) -> usize {
        self.indices.iter().map(ConstraintIndex::size).sum()
    }

    /// Sum of the sizes of the indices identified by `ids` — the paper's
    /// `|index_Q|`: only the indices a query plan actually uses.
    pub fn size_of(&self, ids: impl IntoIterator<Item = ConstraintId>) -> usize {
        ids.into_iter()
            .filter_map(|id| self.get(id))
            .map(ConstraintIndex::size)
            .sum()
    }

    /// Finds a constraint with exactly the given source label set and target
    /// label, preferring the tightest bound.
    pub fn find_exact(&self, source: &[Label], target: Label) -> Option<ConstraintId> {
        let mut key: Vec<Label> = source.to_vec();
        key.sort_unstable();
        key.dedup();
        self.schema
            .iter_with_ids()
            .filter(|(_, c)| c.source() == key.as_slice() && c.target() == target)
            .min_by_key(|(_, c)| c.bound())
            .map(|(id, _)| id)
    }

    /// Finds the tightest global constraint on `target`.
    pub fn find_global(&self, target: Label) -> Option<ConstraintId> {
        self.schema
            .iter_with_ids()
            .filter(|(_, c)| c.is_global() && c.target() == target)
            .min_by_key(|(_, c)| c.bound())
            .map(|(id, _)| id)
    }

    /// True when every index respects its cardinality bound, i.e. the
    /// indexed graph satisfies the cardinality part of the schema.
    pub fn within_bounds(&self) -> bool {
        self.indices.iter().all(ConstraintIndex::within_bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgpq_graph::{GraphBuilder, Value};

    /// Two (year, award) pairs each pointing at movies, movies pointing at
    /// actors, actors at one country.
    fn imdb_toy() -> (Graph, Label, Label, Label, Label, Label) {
        let mut b = GraphBuilder::new();
        let year_l = b.intern_label("year");
        let award_l = b.intern_label("award");
        let movie_l = b.intern_label("movie");
        let actor_l = b.intern_label("actor");
        let country_l = b.intern_label("country");

        let y1 = b.add_node("year", Value::Int(2011));
        let y2 = b.add_node("year", Value::Int(2012));
        let a1 = b.add_node("award", Value::str("Oscar"));
        let us = b.add_node("country", Value::str("US"));
        for i in 0..3 {
            let m = b.add_node("movie", Value::Int(i));
            let y = if i % 2 == 0 { y1 } else { y2 };
            b.add_edge(y, m).unwrap();
            b.add_edge(a1, m).unwrap();
            for j in 0..2 {
                let act = b.add_node("actor", Value::Int(10 * i + j));
                b.add_edge(m, act).unwrap();
                b.add_edge(act, us).unwrap();
            }
        }
        (b.build(), year_l, award_l, movie_l, actor_l, country_l)
    }

    #[test]
    fn global_index_lists_all_labeled_nodes() {
        let (g, year_l, ..) = imdb_toy();
        let idx = ConstraintIndex::build(&g, AccessConstraint::global(year_l, 135));
        assert_eq!(idx.global_nodes().len(), 2);
        assert_eq!(idx.max_cardinality(), 2);
        assert!(idx.within_bound());
        assert_eq!(idx.key_count(), 1);
        assert!(!idx.is_truncated());
    }

    #[test]
    fn unary_index_maps_each_source_node() {
        let (g, _, _, movie_l, actor_l, _) = imdb_toy();
        let idx = ConstraintIndex::build(&g, AccessConstraint::unary(movie_l, actor_l, 30));
        // Every movie has exactly 2 actors.
        for &m in g.nodes_with_label(movie_l) {
            let actors = idx.common_neighbors(&[m]);
            assert_eq!(actors.len(), 2);
            for &a in actors {
                assert!(g.are_neighbors(m, a));
                assert_eq!(g.label(a), actor_l);
            }
        }
        assert_eq!(idx.max_cardinality(), 2);
        assert!(idx.within_bound());
    }

    #[test]
    fn general_index_on_pairs() {
        let (g, year_l, award_l, movie_l, ..) = imdb_toy();
        let idx = ConstraintIndex::build(&g, AccessConstraint::new([year_l, award_l], movie_l, 4));
        let years = g.nodes_with_label(year_l);
        let awards = g.nodes_with_label(award_l);
        // (y1, a1) has movies 0 and 2; (y2, a1) has movie 1.
        let m_y1 = idx.common_neighbors(&[years[0], awards[0]]);
        let m_y2 = idx.common_neighbors(&[years[1], awards[0]]);
        assert_eq!(m_y1.len(), 2);
        assert_eq!(m_y2.len(), 1);
        // Order of the lookup key must not matter.
        assert_eq!(
            idx.common_neighbors(&[awards[0], years[0]]),
            idx.common_neighbors(&[years[0], awards[0]])
        );
        assert!(idx.contains(&[years[0], awards[0]], m_y1[0]));
        assert!(!idx.contains(&[years[1], awards[0]], m_y1[0]));
        assert_eq!(idx.max_cardinality(), 2);
        assert!(idx.within_bound());
    }

    #[test]
    fn lookup_of_unindexed_set_is_empty() {
        let (g, year_l, _, movie_l, actor_l, _) = imdb_toy();
        let idx = ConstraintIndex::build(&g, AccessConstraint::unary(year_l, movie_l, 10));
        // An actor node is not a valid S-labeled set for this constraint.
        let actor = g.nodes_with_label(actor_l)[0];
        assert!(idx.common_neighbors(&[actor]).is_empty());
    }

    #[test]
    fn index_size_accounts_keys_and_answers() {
        let (g, _, _, movie_l, actor_l, _) = imdb_toy();
        let idx = ConstraintIndex::build(&g, AccessConstraint::unary(movie_l, actor_l, 30));
        // 3 movie keys (1 node each) + 6 actor answers = 9.
        assert_eq!(idx.size(), 9);
        assert_eq!(idx.entries().count(), 3);
    }

    #[test]
    fn duplicate_labels_in_key_are_deduplicated() {
        let (g, _, _, movie_l, actor_l, country_l) = imdb_toy();
        // Constraint (actor, actor) collapses to {actor}: the index behaves
        // like a unary constraint.
        let idx =
            ConstraintIndex::build(&g, AccessConstraint::new([actor_l, actor_l], country_l, 10));
        let a = g.nodes_with_label(actor_l)[0];
        assert_eq!(idx.common_neighbors(&[a, a]).len(), 1);
        assert_eq!(idx.constraint().source_len(), 1);
        let _ = movie_l;
    }

    #[test]
    fn index_set_builds_one_index_per_constraint() {
        let (g, year_l, award_l, movie_l, actor_l, country_l) = imdb_toy();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::new([year_l, award_l], movie_l, 4),
            AccessConstraint::unary(movie_l, actor_l, 30),
            AccessConstraint::unary(actor_l, country_l, 1),
            AccessConstraint::global(year_l, 135),
        ]);
        let set = AccessIndexSet::build(&g, &schema);
        assert_eq!(set.len(), 4);
        assert!(!set.is_empty());
        assert!(set.within_bounds());
        assert!(set.total_size() > 0);
        assert_eq!(
            set.size_of([ConstraintId(3)]),
            set.get(ConstraintId(3)).unwrap().size()
        );
        assert_eq!(set.schema().len(), 4);

        // find_exact and find_global locate constraints irrespective of order.
        assert_eq!(
            set.find_exact(&[award_l, year_l], movie_l),
            Some(ConstraintId(0))
        );
        assert_eq!(set.find_exact(&[movie_l], actor_l), Some(ConstraintId(1)));
        assert_eq!(set.find_exact(&[movie_l], country_l), None);
        assert_eq!(set.find_global(year_l), Some(ConstraintId(3)));
        assert_eq!(set.find_global(movie_l), None);
    }

    #[test]
    fn find_exact_prefers_tightest_bound() {
        let (g, year_l, _, movie_l, ..) = imdb_toy();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::unary(year_l, movie_l, 100),
            AccessConstraint::unary(year_l, movie_l, 5),
        ]);
        let set = AccessIndexSet::build(&g, &schema);
        assert_eq!(set.find_exact(&[year_l], movie_l), Some(ConstraintId(1)));
    }

    #[test]
    fn violated_bound_is_detected() {
        let (g, _, _, movie_l, actor_l, _) = imdb_toy();
        // Claim every movie has at most 1 actor — false (they have 2).
        let idx = ConstraintIndex::build(&g, AccessConstraint::unary(movie_l, actor_l, 1));
        assert!(!idx.within_bound());
        assert_eq!(idx.max_cardinality(), 2);
    }

    #[test]
    fn combination_cap_marks_truncation() {
        // A hub with many neighbors of two source labels explodes the
        // cartesian product; the cap must kick in.
        let mut b = GraphBuilder::new();
        let hub = b.add_node("hub", Value::Null);
        for i in 0..20 {
            let x = b.add_node("x", Value::Int(i));
            let y = b.add_node("y", Value::Int(i));
            b.add_edge(x, hub).unwrap();
            b.add_edge(y, hub).unwrap();
        }
        let g = b.build();
        let x_l = g.interner().get("x").unwrap();
        let y_l = g.interner().get("y").unwrap();
        let hub_l = g.interner().get("hub").unwrap();
        let idx =
            ConstraintIndex::build_with_cap(&g, AccessConstraint::new([x_l, y_l], hub_l, 1), 50);
        assert!(idx.is_truncated());
        assert!(idx.key_count() <= 50);
    }
}
