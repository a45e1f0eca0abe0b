//! Toponym disambiguation: the §5.2.2 voting graph.
//!
//! Given cells `T(i,j)` whose addresses geocode to candidate sets `L_{i,j}`,
//! build a graph with one node per (cell, candidate interpretation) and a
//! directed edge `n_{l1} → n_{l2}` iff
//!
//! 1. the two candidates belong to cells in the same row or the same column
//!    (but not the same cell), and
//! 2. `l1` and `l2` share the same direct geographic container (including
//!    the case where one *is* the other's container — the paper's
//!    "Pennsylvania Ave, Washington, D.C." ↔ "Washington, D.C., USA"
//!    example).
//!
//! Scores start at `1/|L_{i,j}|` and are iterated with
//! `S(n_l) = Σ_{v ∈ IN(n_l)} S(v)` until a fixed point.
//!
//! **Deviation from the paper, documented:** the raw in-sum iteration has
//! no normalization and diverges on any graph with a cycle (scores grow
//! without bound). We renormalize the candidate scores of each cell to sum
//! to 1 after every sweep (Jacobi style). This preserves the *ranking*
//! fixed point the paper relies on while guaranteeing convergence; cells
//! whose candidates receive no votes at all keep their uniform prior.
//!
//! # Building the graph as a key join
//!
//! Condition 2 is [`Gazetteer::shares_direct_container`]: node `a` (location
//! `la`) votes for node `b` (location `lb`) when `la ≠ lb` and one of
//!
//! * `parent(la) == parent(lb)`, neither `None` (siblings),
//! * `parent(la) == lb` (`a` is one of `b`'s children),
//! * `la == parent(lb)` (`a` is `b`'s parent)
//!
//! holds. Each alternative is an equality on one key, so [`VoteGraph`]
//! sorts `(parent, node)` and `(location, node)` keys once, finds every
//! node's three matching key ranges in one merge pass per alternative, and
//! for each `b` keeps the nodes of those ranges that sit in other cells of
//! `b`'s row or column, sorted ascending. The containment hierarchy is
//! acyclic, so the three ranges are disjoint, and the result is exactly the
//! in-edge list the pairwise test over all node pairs produces. The lists
//! live in one flat offsets/sources (CSR) pair. Building costs
//! `O(n log n + P)` for `n` nodes, where `P` sums the key-range lengths —
//! `P` is about the edge count `E` when the cells share one column, as
//! address columns do — instead of the `O(n²)` pairwise scan.
//!
//! # Sweeping without allocation
//!
//! A sweep costs `O(E + n)` plus the ranking's movement: the in-sums, the
//! per-cell renormalization, and the ranking check, an insertion pass over
//! each cell's previous order that moves nothing while that order holds
//! (a changed cell adds its inversions). Nothing is allocated: `score` and
//! `next` swap roles each sweep, and one flat buffer holds every cell's
//! ranking. Each in-sum is the iterator `.sum()` over the ascending in-edge
//! list — the same additions in the same order as the pairwise graph — so
//! the rounding, and the empty sum's `-0.0`, stay bit-identical to the
//! [`reference`](mod@reference) algorithm.

#[doc(hidden)]
pub mod reference;

use std::cmp::Ordering;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use teda_tabular::CellId;

use crate::gazetteer::{Gazetteer, LocationId};

/// Configuration for [`disambiguate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DisambiguationConfig {
    /// Maximum Jacobi sweeps.
    pub max_iterations: usize,
    /// Convergence threshold on the max absolute score change.
    pub tolerance: f64,
    /// Seed for random tie-breaking (the paper: "If the nodes corresponding
    /// to two or more locations in Li,j have the same score, we choose one
    /// randomly").
    pub seed: u64,
}

impl Default for DisambiguationConfig {
    fn default() -> Self {
        DisambiguationConfig {
            max_iterations: 50,
            tolerance: 1e-9,
            seed: 0x9e0,
        }
    }
}

/// The outcome of a disambiguation run, aligned with the input cells.
#[derive(Debug, Clone)]
pub struct DisambiguationResult {
    /// The chosen interpretation of input cell `i` at index `i` (`None`
    /// when its candidate set was empty).
    pub chosen: Vec<Option<LocationId>>,
    /// Final normalized score of every (cell, candidate) node, in node
    /// order: input cell by input cell, each cell's candidates in input
    /// order.
    pub scores: Vec<f64>,
    /// Sweeps executed before convergence (or the cap).
    pub iterations: usize,
    /// Whether the tolerance was reached before the iteration cap.
    pub converged: bool,
    /// The input cell ids, in input order.
    cells: Vec<CellId>,
    /// Input cell `i` owns nodes `offsets[i]..offsets[i + 1]`.
    offsets: Vec<usize>,
    /// The candidate location of every node.
    candidates: Vec<LocationId>,
}

impl DisambiguationResult {
    /// The chosen interpretation for `cell`, if it was an input cell with
    /// candidates. Scans the input cells: `O(cells)`.
    pub fn interpretation(&self, cell: CellId) -> Option<LocationId> {
        self.chosen[self.cell_index(cell)?]
    }

    /// The final normalized score of candidate `loc` in `cell`, if `loc`
    /// was one of `cell`'s candidates. Scans the input cells and that
    /// cell's candidates.
    pub fn score(&self, cell: CellId, loc: LocationId) -> Option<f64> {
        let i = self.cell_index(cell)?;
        let nodes = self.offsets[i]..self.offsets[i + 1];
        let k = self.candidates[nodes.clone()]
            .iter()
            .position(|&l| l == loc)?;
        Some(self.scores[nodes.start + k])
    }

    /// Position of `cell` among the input cells (the first, should the
    /// one-entry-per-cell contract be broken).
    fn cell_index(&self, cell: CellId) -> Option<usize> {
        self.cells.iter().position(|&c| c == cell)
    }
}

/// Flattens candidate sets into nodes: cell `i` owns nodes
/// `offsets[i]..offsets[i + 1]`, and node `v` stands for `locations[v]`.
fn flatten<C: AsRef<[LocationId]>>(cells: &[(CellId, C)]) -> (Vec<usize>, Vec<LocationId>) {
    let mut offsets = Vec::with_capacity(cells.len() + 1);
    let mut locations = Vec::new();
    offsets.push(0);
    for (_, cands) in cells {
        locations.extend_from_slice(cands.as_ref());
        offsets.push(locations.len());
    }
    (offsets, locations)
}

/// For every probe `(key, node)` in `probes`, the range of `keys` holding
/// `key`, stored at `ranges[node]`. Both lists are sorted `(key, node)`
/// pairs, so one merge pass finds every range.
fn join_ranges(
    probes: &[(LocationId, usize)],
    keys: &[(LocationId, usize)],
    ranges: &mut [Range<usize>],
) {
    let mut lo = 0;
    for &(key, node) in probes {
        while lo < keys.len() && keys[lo].0 < key {
            lo += 1;
        }
        let mut hi = lo;
        while hi < keys.len() && keys[hi].0 == key {
            hi += 1;
        }
        ranges[node] = lo..hi;
    }
}

/// The §5.2.2 voting graph: the in-edges of every (cell, candidate) node,
/// stored flat. Nodes are numbered cell by cell, each cell's candidates in
/// input order; node `b`'s in-edges are the nodes that vote for it, in
/// ascending order.
#[derive(Debug, Clone)]
pub struct VoteGraph {
    /// Node `b`'s in-edges are `sources[offsets[b]..offsets[b + 1]]`.
    offsets: Vec<usize>,
    sources: Vec<usize>,
}

impl VoteGraph {
    /// Builds the voting graph of `cells` (each a cell id and its candidate
    /// set) by the key join described in the [module docs](self).
    pub fn build<C: AsRef<[LocationId]>>(gazetteer: &Gazetteer, cells: &[(CellId, C)]) -> Self {
        let (offsets, locations) = flatten(cells);
        Self::join(gazetteer, cells, &offsets, &locations)
    }

    /// The key join over already flattened nodes (see [`flatten`]).
    fn join<C>(
        gazetteer: &Gazetteer,
        cells: &[(CellId, C)],
        cell_offsets: &[usize],
        locations: &[LocationId],
    ) -> Self {
        let n = locations.len();
        let mut node_cell = Vec::with_capacity(n);
        for (ci, w) in cell_offsets.windows(2).enumerate() {
            node_cell.resize(w[1], ci);
        }
        let mut by_parent: Vec<(LocationId, usize)> = locations
            .iter()
            .enumerate()
            .filter_map(|(v, &l)| gazetteer.direct_container(l).map(|p| (p, v)))
            .collect();
        by_parent.sort_unstable();
        let mut by_location: Vec<(LocationId, usize)> =
            locations.iter().enumerate().map(|(v, &l)| (l, v)).collect();
        by_location.sort_unstable();

        // Per node `b`, the key ranges of its three kinds of voters:
        // siblings (`by_parent` at `parent(b)`), its parent (`by_location`
        // at `parent(b)`) and its children (`by_parent` at `b`'s location).
        let mut siblings = vec![0..0; n];
        let mut parent = vec![0..0; n];
        let mut children = vec![0..0; n];
        join_ranges(&by_parent, &by_parent, &mut siblings);
        join_ranges(&by_parent, &by_location, &mut parent);
        join_ranges(&by_location, &by_parent, &mut children);

        let mut offsets = Vec::with_capacity(n + 1);
        let mut sources = Vec::new();
        offsets.push(0);
        for b in 0..n {
            let (cb, lb) = (node_cell[b], locations[b]);
            let at = cells[cb].0;
            // Condition 1 and `la ≠ lb`; the key ranges supply condition 2.
            let votes = |&a: &usize| {
                let ca = node_cell[a];
                let from = cells[ca].0;
                ca != cb && (from.row == at.row || from.col == at.col) && locations[a] != lb
            };
            let start = sources.len();
            for (keys, range) in [
                (&by_parent, &siblings[b]),
                (&by_location, &parent[b]),
                (&by_parent, &children[b]),
            ] {
                sources.extend(keys[range.clone()].iter().map(|&(_, a)| a).filter(votes));
            }
            sources[start..].sort_unstable();
            offsets.push(sources.len());
        }
        VoteGraph { offsets, sources }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges (votes).
    pub fn edge_count(&self) -> usize {
        self.sources.len()
    }

    /// The nodes voting for `node`, ascending.
    pub fn in_edges(&self, node: usize) -> &[usize] {
        &self.sources[self.offsets[node]..self.offsets[node + 1]]
    }
}

/// Whether candidate `p` ranks before candidate `q` in a cell with scores
/// `s`: higher score first under `total_cmp`, lower index within a tie.
fn ranks_before(s: &[f64], p: usize, q: usize) -> bool {
    match s[p].total_cmp(&s[q]) {
        Ordering::Greater => true,
        Ordering::Equal => p < q,
        Ordering::Less => false,
    }
}

/// Brings `ranking` — per cell, the candidate indices by descending score,
/// ties in ascending index — up to date with `score`, and reports whether
/// it already was. Each cell is insertion-sorted starting from its previous
/// order, so a cell whose order still holds costs one pass and moves
/// nothing, and a changed cell costs its length plus its inversions.
/// Ranking by a total key makes the result equal to a fresh stable sort by
/// descending score. An empty `ranking` (no sweep ranked yet) is filled in
/// and reported as changed.
fn refresh_ranking(offsets: &[usize], score: &[f64], ranking: &mut Vec<usize>) -> bool {
    let mut current = ranking.len() == score.len();
    if !current {
        ranking.clear();
        for w in offsets.windows(2) {
            ranking.extend(0..w[1] - w[0]);
        }
    }
    for w in offsets.windows(2) {
        let s = &score[w[0]..w[1]];
        let order = &mut ranking[w[0]..w[1]];
        // Insertion sort from the previous order: one pass when it holds.
        for i in 1..order.len() {
            let p = order[i];
            let mut j = i;
            while j > 0 && ranks_before(s, p, order[j - 1]) {
                order[j] = order[j - 1];
                j -= 1;
            }
            if j < i {
                order[j] = p;
                current = false;
            }
        }
    }
    current
}

/// Runs the voting-graph disambiguation over `cells`: each entry is a cell
/// id and its geocoded candidate set `L_{i,j}`.
///
/// Contract: at most one entry per cell id, and candidates distinct within
/// a cell (the geocoder guarantees both — it sorts and dedups).
pub fn disambiguate<C: AsRef<[LocationId]>>(
    gazetteer: &Gazetteer,
    cells: &[(CellId, C)],
    config: DisambiguationConfig,
) -> DisambiguationResult {
    let (offsets, candidates) = flatten(cells);
    let graph = VoteGraph::join(gazetteer, cells, &offsets, &candidates);
    let n = candidates.len();

    // Initial scores: uniform within each cell.
    let mut score = Vec::with_capacity(n);
    for w in offsets.windows(2) {
        let m = w[1] - w[0];
        score.resize(w[1], 1.0 / m as f64);
    }

    let mut iterations = 0;
    let mut converged = false;
    let mut next = vec![0.0f64; n];
    // Ranking-stability criterion: the output only depends on the per-cell
    // ordering of candidate scores, and some vote cycles decay harmonically
    // (Θ(1/n) toward zero), so a tight absolute-delta fixed point would
    // need tens of thousands of sweeps while the ranking is already frozen.
    let mut ranking: Vec<usize> = Vec::with_capacity(n);
    let mut stable_sweeps = 0usize;
    while iterations < config.max_iterations {
        iterations += 1;
        // Jacobi sweep: raw in-sums from the previous iteration's scores.
        for (b, slot) in next.iter_mut().enumerate() {
            *slot = graph.in_edges(b).iter().map(|&a| score[a]).sum();
        }
        // Per-cell renormalization; vote-less cells keep their prior.
        let mut delta = 0.0f64;
        for w in offsets.windows(2) {
            let old = &score[w[0]..w[1]];
            let slice = &mut next[w[0]..w[1]];
            let sum: f64 = slice.iter().sum();
            if sum <= 0.0 {
                slice.copy_from_slice(old);
            } else {
                for s in slice.iter_mut() {
                    *s /= sum;
                }
            }
            for (&s, &o) in slice.iter().zip(old) {
                delta = delta.max((s - o).abs());
            }
        }
        std::mem::swap(&mut score, &mut next);
        if delta < config.tolerance {
            converged = true;
            break;
        }
        // Per-cell score ranking; if it holds for 3 consecutive sweeps the
        // argmax output can no longer change.
        if refresh_ranking(&offsets, &score, &mut ranking) {
            stable_sweeps += 1;
            if stable_sweeps >= 3 {
                converged = true;
                break;
            }
        } else {
            stable_sweeps = 0;
        }
    }

    // Argmax per cell with seeded random tie-breaking.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut chosen = Vec::with_capacity(cells.len());
    let mut best_ks: Vec<usize> = Vec::new();
    for w in offsets.windows(2) {
        let slice = &score[w[0]..w[1]];
        if slice.is_empty() {
            chosen.push(None);
            continue;
        }
        let best = slice.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        best_ks.clear();
        best_ks.extend((0..slice.len()).filter(|&k| (slice[k] - best).abs() < 1e-12));
        best_ks.shuffle(&mut rng);
        chosen.push(Some(candidates[w[0] + best_ks[0]]));
    }

    DisambiguationResult {
        chosen,
        scores: score,
        iterations,
        converged,
        cells: cells.iter().map(|(id, _)| *id).collect(),
        offsets,
        candidates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gazetteer::LocationKind;

    #[test]
    fn cell_ranking_orders_by_descending_score_stably() {
        let cells = vec![(
            CellId::new(0, 0),
            (0..4).map(LocationId).collect::<Vec<_>>(),
        )];
        // Candidates 1 and 3 tie; the sort is stable, so their original
        // order (1 before 3) survives.
        let scores = [0.1, 0.4, 0.9, 0.4];
        let ranking = reference::cell_ranking(&cells, &scores);
        assert_eq!(ranking, vec![2, 1, 3, 0]);
        let mut refreshed = Vec::new();
        assert!(!refresh_ranking(&[0, 4], &scores, &mut refreshed));
        assert_eq!(refreshed, ranking);
        assert!(refresh_ranking(&[0, 4], &scores, &mut refreshed));
    }

    #[test]
    fn cell_ranking_survives_nan_scores() {
        // A NaN score must not panic the convergence check; under
        // total_cmp it ranks above every finite score.
        let cells = vec![(
            CellId::new(0, 0),
            (0..3).map(LocationId).collect::<Vec<_>>(),
        )];
        let scores = [0.5, f64::NAN, 0.9];
        let ranking = reference::cell_ranking(&cells, &scores);
        assert_eq!(ranking, vec![1, 2, 0]);
        let mut refreshed = Vec::new();
        refresh_ranking(&[0, 3], &scores, &mut refreshed);
        assert_eq!(refreshed, ranking);
    }

    #[test]
    fn refreshed_ranking_follows_score_changes_like_a_fresh_sort() {
        // Two cells: [0.2, 0.8] and [0.5, 0.5, 0.0].
        let offsets = [0, 2, 5];
        let mut ranking = Vec::new();
        assert!(!refresh_ranking(
            &offsets,
            &[0.2, 0.8, 0.5, 0.5, 0.0],
            &mut ranking
        ));
        assert_eq!(ranking, vec![1, 0, 0, 1, 2]);
        // The second cell's order flips: candidate 1 leads now.
        assert!(!refresh_ranking(
            &offsets,
            &[0.3, 0.7, 0.4, 0.6, 0.0],
            &mut ranking
        ));
        assert_eq!(ranking, vec![1, 0, 1, 0, 2]);
        // A sign flip that moves no candidate leaves the ranking current.
        let scores = [0.3, 0.7, 0.4, 0.6, -0.0];
        assert!(refresh_ranking(&offsets, &scores, &mut ranking));
        let cells = vec![
            (CellId::new(0, 0), vec![LocationId(0), LocationId(1)]),
            (
                CellId::new(1, 0),
                vec![LocationId(2), LocationId(3), LocationId(4)],
            ),
        ];
        assert_eq!(ranking, reference::cell_ranking(&cells, &scores));
    }

    /// Builds the exact candidate layout of Figure 7a over the Figure 7
    /// gazetteer. Cell coordinates follow the paper (1-based there,
    /// 0-based here): rows 12, 13, 20 and columns 1, 2 become (11,0),
    /// (11,1), (12,0), (12,1), (19,0), (19,1).
    fn figure7_cells(g: &Gazetteer) -> Vec<(CellId, Vec<LocationId>)> {
        let find_city = |name: &str, mark: &str| {
            g.lookup_kind(name, LocationKind::City)
                .into_iter()
                .find(|&id| g.full_name(id).contains(mark))
                .unwrap()
        };
        let streets = |name: &str| g.lookup_kind(name, LocationKind::Street);

        vec![
            (CellId::new(11, 0), streets("Pennsylvania Avenue")),
            (
                CellId::new(11, 1),
                vec![
                    find_city("Washington", "D.C."),
                    find_city("Washington", "GA"),
                ],
            ),
            (CellId::new(12, 0), streets("Wofford Lane")),
            (
                CellId::new(12, 1),
                vec![
                    find_city("College Park", "MD"),
                    find_city("College Park", "GA"),
                ],
            ),
            (CellId::new(19, 0), streets("Clarksville Street")),
            (
                CellId::new(19, 1),
                vec![
                    find_city("Paris", "TX"),
                    find_city("Paris", "France"),
                    find_city("Paris", "TN"),
                ],
            ),
        ]
    }

    #[test]
    fn figure7_resolves_as_in_the_paper() {
        let g = Gazetteer::figure7();
        let cells = figure7_cells(&g);
        let res = disambiguate(&g, &cells, DisambiguationConfig::default());
        assert!(res.converged, "figure 7 graph must converge");

        let full = |cell: CellId| g.full_name(res.interpretation(cell).unwrap());
        assert!(
            full(CellId::new(11, 0)).contains("D.C."),
            "{}",
            full(CellId::new(11, 0))
        );
        assert!(full(CellId::new(11, 1)).contains("D.C."));
        assert!(full(CellId::new(12, 0)).contains("College Park, MD"));
        assert!(full(CellId::new(12, 1)).contains("MD"));
        assert!(full(CellId::new(19, 0)).contains("Paris, TX"));
        assert!(full(CellId::new(19, 1)).contains("TX"));
    }

    #[test]
    fn figure7_graph_matches_the_pairwise_reference() {
        let g = Gazetteer::figure7();
        let cells = figure7_cells(&g);
        let graph = VoteGraph::build(&g, &cells);
        let pairwise = reference::in_edges(&g, &cells);
        assert_eq!(graph.node_count(), pairwise.len());
        for (b, expected) in pairwise.iter().enumerate() {
            assert_eq!(graph.in_edges(b), expected.as_slice(), "node {b}");
        }
        assert!(graph.edge_count() > 0);
    }

    #[test]
    fn scores_are_normalized_per_cell() {
        let g = Gazetteer::figure7();
        let cells = figure7_cells(&g);
        let res = disambiguate(&g, &cells, DisambiguationConfig::default());
        for (cell, cands) in &cells {
            let sum: f64 = cands
                .iter()
                .map(|&l| res.score(*cell, l).unwrap_or(0.0))
                .sum();
            assert!((sum - 1.0).abs() < 1e-9, "cell {cell} scores sum to {sum}");
        }
    }

    #[test]
    fn isolated_cells_keep_uniform_prior() {
        let g = Gazetteer::figure7();
        // One lonely ambiguous cell: no row/column partners, no votes.
        let paris = g.lookup_kind("Paris", LocationKind::City);
        let cells = vec![(CellId::new(0, 0), paris.clone())];
        let res = disambiguate(&g, &cells, DisambiguationConfig::default());
        for &p in &paris {
            let s = res.score(CellId::new(0, 0), p).unwrap();
            assert!((s - 1.0 / 3.0).abs() < 1e-9);
        }
        // A choice is still made (random among ties, seeded).
        assert!(res.interpretation(CellId::new(0, 0)).is_some());
    }

    #[test]
    fn tie_breaking_is_deterministic_per_seed() {
        let g = Gazetteer::figure7();
        let paris = g.lookup_kind("Paris", LocationKind::City);
        let cells = vec![(CellId::new(0, 0), paris)];
        let a = disambiguate(&g, &cells, DisambiguationConfig::default());
        let b = disambiguate(&g, &cells, DisambiguationConfig::default());
        assert_eq!(
            a.interpretation(CellId::new(0, 0)),
            b.interpretation(CellId::new(0, 0))
        );
    }

    #[test]
    fn unambiguous_cell_votes_with_full_weight() {
        let g = Gazetteer::figure7();
        let wash_dc = g
            .lookup_kind("Washington", LocationKind::City)
            .into_iter()
            .find(|&id| g.full_name(id).contains("D.C."))
            .unwrap();
        let penn = g.lookup_kind("Pennsylvania Avenue", LocationKind::Street);
        // Row 0: unambiguous city next to the ambiguous street.
        let cells = vec![
            (CellId::new(0, 0), penn.clone()),
            (CellId::new(0, 1), vec![wash_dc]),
        ];
        let res = disambiguate(&g, &cells, DisambiguationConfig::default());
        let street = res.interpretation(CellId::new(0, 0)).unwrap();
        assert!(g.full_name(street).contains("D.C."));
        let s = res.score(CellId::new(0, 0), street).unwrap();
        assert!(s > 0.99, "city vote should dominate: {s}");
    }

    #[test]
    fn same_column_city_votes_propagate() {
        let g = Gazetteer::figure7();
        // Column of cities: "Washington" (ambiguous DC/GA) above
        // "College Park" (ambiguous MD/GA). Only the GA pair shares a
        // container, so both resolve to Georgia.
        let find_city = |name: &str, mark: &str| {
            g.lookup_kind(name, LocationKind::City)
                .into_iter()
                .find(|&id| g.full_name(id).contains(mark))
                .unwrap()
        };
        let cells = vec![
            (
                CellId::new(0, 0),
                vec![
                    find_city("Washington", "D.C."),
                    find_city("Washington", "GA"),
                ],
            ),
            (
                CellId::new(1, 0),
                vec![
                    find_city("College Park", "MD"),
                    find_city("College Park", "GA"),
                ],
            ),
        ];
        let res = disambiguate(&g, &cells, DisambiguationConfig::default());
        assert!(g
            .full_name(res.interpretation(CellId::new(0, 0)).unwrap())
            .contains("GA"));
        assert!(g
            .full_name(res.interpretation(CellId::new(1, 0)).unwrap())
            .contains("GA"));
    }

    #[test]
    fn empty_input_is_fine() {
        let g = Gazetteer::figure7();
        let res = disambiguate::<Vec<LocationId>>(&g, &[], DisambiguationConfig::default());
        assert!(res.chosen.is_empty());
        assert!(res.converged);
    }

    #[test]
    fn cells_with_no_candidates_are_skipped() {
        let g = Gazetteer::figure7();
        let cells = vec![(CellId::new(0, 0), vec![])];
        let res = disambiguate(&g, &cells, DisambiguationConfig::default());
        assert!(res.interpretation(CellId::new(0, 0)).is_none());
    }
}
