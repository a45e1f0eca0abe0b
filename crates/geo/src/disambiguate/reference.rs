//! The §5.2.2 algorithm in its direct form: the edge condition tested on
//! every pair of nodes, and a sweep that allocates and sorts a fresh
//! per-cell ranking every iteration. [`super::disambiguate`] must match it
//! bit for bit; only tests and microbenchmarks call it.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use teda_tabular::CellId;

use super::{DisambiguationConfig, DisambiguationResult};
use crate::gazetteer::{Gazetteer, LocationId};

/// Flattened per-cell ranking of candidate indices by descending score
/// (stable within ties), used for the ranking-stability convergence check.
pub fn cell_ranking(cells: &[(CellId, Vec<LocationId>)], score: &[f64]) -> Vec<usize> {
    let mut ranking = Vec::with_capacity(score.len());
    let mut idx = 0usize;
    for (_, cands) in cells {
        let m = cands.len();
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by(|&a, &b| score[idx + b].total_cmp(&score[idx + a]));
        ranking.extend(order);
        idx += m;
    }
    ranking
}

/// In-edges per node, from testing the same-row/same-column +
/// shared-container condition on every ordered pair of nodes. Nodes are
/// numbered as in [`super::VoteGraph`].
pub fn in_edges(gazetteer: &Gazetteer, cells: &[(CellId, Vec<LocationId>)]) -> Vec<Vec<usize>> {
    // Node table: (cell index, candidate index) → flat node id.
    let mut nodes: Vec<(usize, usize)> = Vec::new();
    for (ci, (_, cands)) in cells.iter().enumerate() {
        for k in 0..cands.len() {
            nodes.push((ci, k));
        }
    }
    let n = nodes.len();

    let mut in_edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (a, &(ca, ka)) in nodes.iter().enumerate() {
        let (cell_a, cands_a) = &cells[ca];
        let la = cands_a[ka];
        for (b, &(cb, kb)) in nodes.iter().enumerate() {
            if ca == cb {
                continue; // same cell — condition 1 excludes it
            }
            let (cell_b, cands_b) = &cells[cb];
            if cell_a.row != cell_b.row && cell_a.col != cell_b.col {
                continue;
            }
            let lb = cands_b[kb];
            if gazetteer.shares_direct_container(la, lb) {
                // a votes for b
                in_edges[b].push(a);
            }
        }
    }
    in_edges
}

/// The voting-graph disambiguation over the pairwise graph, with a fresh
/// [`cell_ranking`] per sweep.
pub fn disambiguate(
    gazetteer: &Gazetteer,
    cells: &[(CellId, Vec<LocationId>)],
    config: DisambiguationConfig,
) -> DisambiguationResult {
    let in_edges = in_edges(gazetteer, cells);

    // Initial scores: uniform within each cell.
    let mut score: Vec<f64> = cells
        .iter()
        .flat_map(|(_, cands)| std::iter::repeat_n(1.0 / cands.len() as f64, cands.len()))
        .collect();
    let n = score.len();

    let mut iterations = 0;
    let mut converged = false;
    let mut next = vec![0.0f64; n];
    let mut prev_ranking: Vec<usize> = Vec::new();
    let mut stable_sweeps = 0usize;
    while iterations < config.max_iterations {
        iterations += 1;
        // Jacobi sweep: raw in-sums from the previous iteration's scores.
        for (b, slot) in next.iter_mut().enumerate() {
            *slot = in_edges[b].iter().map(|&a| score[a]).sum();
        }
        // Per-cell renormalization; vote-less cells keep their prior.
        let mut delta = 0.0f64;
        let mut idx = 0usize;
        for (_, cands) in cells {
            let m = cands.len();
            let slice = &mut next[idx..idx + m];
            let sum: f64 = slice.iter().sum();
            if sum <= 0.0 {
                for (k, s) in slice.iter_mut().enumerate() {
                    *s = score[idx + k];
                }
            } else {
                for s in slice.iter_mut() {
                    *s /= sum;
                }
            }
            for (k, &s) in slice.iter().enumerate() {
                delta = delta.max((s - score[idx + k]).abs());
            }
            idx += m;
        }
        score.copy_from_slice(&next);
        if delta < config.tolerance {
            converged = true;
            break;
        }
        let ranking = cell_ranking(cells, &score);
        if ranking == prev_ranking {
            stable_sweeps += 1;
            if stable_sweeps >= 3 {
                converged = true;
                break;
            }
        } else {
            stable_sweeps = 0;
            prev_ranking = ranking;
        }
    }

    // Argmax per cell with seeded random tie-breaking.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut chosen = Vec::with_capacity(cells.len());
    let mut offsets = vec![0];
    let mut candidates = Vec::with_capacity(n);
    let mut idx = 0usize;
    for (_, cands) in cells {
        let m = cands.len();
        candidates.extend_from_slice(cands);
        offsets.push(idx + m);
        if m == 0 {
            chosen.push(None);
            continue;
        }
        let slice = &score[idx..idx + m];
        let best = slice.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let mut best_ks: Vec<usize> = (0..m)
            .filter(|&k| (slice[k] - best).abs() < 1e-12)
            .collect();
        best_ks.shuffle(&mut rng);
        chosen.push(Some(cands[best_ks[0]]));
        idx += m;
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
