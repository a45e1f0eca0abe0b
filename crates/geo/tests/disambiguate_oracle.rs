//! Disambiguation identity: the key-join voting graph and the
//! allocation-free sweep against the pairwise reference
//! (`teda_geo::disambiguate::reference`), compared bit for bit.
//!
//! Each case generates a small seeded gazetteer, so toponyms collide and
//! containers are shared often, and lays random candidate sets over a grid
//! of several rows and columns: empty sets, one-candidate cells, every
//! location bearing a name (the geocoder's ambiguity), and random subsets
//! drawn from a small palette so one location lands in several cells.

use std::sync::Arc;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use teda_geo::disambiguate::{
    disambiguate, reference, DisambiguationConfig, DisambiguationResult, VoteGraph,
};
use teda_geo::synthetic::{generate, GazetteerSpec};
use teda_geo::{Gazetteer, LocationId, LocationKind};
use teda_tabular::CellId;

/// Layouts checked per proptest case.
const LAYOUTS_PER_CASE: usize = 16;

fn small_gazetteer(seed: u64) -> Gazetteer {
    let mut rng = StdRng::seed_from_u64(seed);
    generate(
        GazetteerSpec {
            countries: rng.gen_range(1..3),
            states_per_country: rng.gen_range(1..4),
            cities_per_state: rng.gen_range(1..5),
            streets_per_city: rng.gen_range(0..5),
            city_name_pool: rng.gen_range(1..6),
            street_name_pool: rng.gen_range(1..6),
        },
        seed,
    )
}

/// Random cells over a `rows × cols` grid (each position at most once),
/// in a shuffled order, each with a sorted, deduplicated candidate set.
fn layout(g: &Gazetteer, rng: &mut StdRng) -> Vec<(CellId, Vec<LocationId>)> {
    let n_locations = g.len() as u32;
    let palette: Vec<LocationId> = (0..rng.gen_range(1..8))
        .map(|_| LocationId(rng.gen_range(0..n_locations)))
        .collect();
    let rows = rng.gen_range(1..7);
    let cols = rng.gen_range(1..4);
    let mut cells = Vec::new();
    for row in 0..rows {
        for col in 0..cols {
            if rng.gen_bool(0.3) {
                continue;
            }
            let mut cands: Vec<LocationId> = match rng.gen_range(0..4) {
                0 => Vec::new(),
                1 => vec![palette[rng.gen_range(0..palette.len())]],
                2 => {
                    let named = palette[rng.gen_range(0..palette.len())];
                    g.lookup(&g.location(named).name).to_vec()
                }
                _ => (0..rng.gen_range(2..7))
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            palette[rng.gen_range(0..palette.len())]
                        } else {
                            LocationId(rng.gen_range(0..n_locations))
                        }
                    })
                    .collect(),
            };
            cands.sort();
            cands.dedup();
            cells.push((CellId::new(row, col), cands));
        }
    }
    // Input order is free: the node numbering follows it, not the grid.
    for i in (1..cells.len()).rev() {
        cells.swap(i, rng.gen_range(0..=i));
    }
    cells
}

/// A column of `n` street addresses without a city, as in the benchmark
/// tables: each cell holds every street bearing a name drawn at random.
fn street_column(g: &Gazetteer, n: usize, rng: &mut StdRng) -> Vec<(CellId, Vec<LocationId>)> {
    let streets: Vec<LocationId> = g.of_kind(LocationKind::Street).collect();
    (0..n)
        .map(|row| {
            let named = streets[rng.gen_range(0..streets.len())];
            (
                CellId::new(row, 1),
                g.lookup(&g.location(named).name).to_vec(),
            )
        })
        .collect()
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Asserts that the key join and the allocation-free sweep reproduce the
/// pairwise reference on `cells`; returns the fast run's result.
fn assert_matches_reference(
    g: &Gazetteer,
    cells: &[(CellId, Vec<LocationId>)],
    config: DisambiguationConfig,
) -> DisambiguationResult {
    let graph = VoteGraph::build(g, cells);
    let pairwise = reference::in_edges(g, cells);
    assert_eq!(graph.node_count(), pairwise.len());
    for (b, expected) in pairwise.iter().enumerate() {
        assert_eq!(graph.in_edges(b), expected.as_slice(), "node {b}");
    }

    let fast = disambiguate(g, cells, config);
    let slow = reference::disambiguate(g, cells, config);
    assert_eq!(fast.chosen, slow.chosen);
    assert_eq!(fast.iterations, slow.iterations);
    assert_eq!(fast.converged, slow.converged);
    assert_eq!(bits(&fast.scores), bits(&slow.scores));
    fast
}

proptest! {
    /// In-edge lists, chosen interpretations, sweep counts, convergence
    /// and every score bit equal the pairwise reference.
    #[test]
    fn key_join_matches_the_pairwise_reference(
        gazetteer_seed in 0u64..1_000_000,
        layout_seed in 0u64..1_000_000
    ) {
        let g = small_gazetteer(gazetteer_seed);
        let mut rng = StdRng::seed_from_u64(layout_seed);
        for _ in 0..LAYOUTS_PER_CASE {
            let cells = layout(&g, &mut rng);
            let config = DisambiguationConfig {
                max_iterations: rng.gen_range(1..60),
                seed: rng.gen_range(0..1000),
                ..DisambiguationConfig::default()
            };

            let fast = assert_matches_reference(&g, &cells, config);

            // Shared candidate slices (the geocode memo's) give the same run.
            let shared: Vec<(CellId, Arc<[LocationId]>)> = cells
                .iter()
                .map(|(id, cands)| (*id, Arc::from(cands.as_slice())))
                .collect();
            let via_arc = disambiguate(&g, &shared, config);
            prop_assert_eq!(&via_arc.chosen, &fast.chosen);
            prop_assert_eq!(bits(&via_arc.scores), bits(&fast.scores));
        }
    }
}

/// The generated layouts exercise what the oracle is for: graphs with
/// edges, runs that stop at the cap and runs that converge.
#[test]
fn layouts_cover_edges_caps_and_convergence() {
    let (mut edges, mut capped, mut converged) = (0, 0, 0);
    for seed in 0..64 {
        let g = small_gazetteer(seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let cells = layout(&g, &mut rng);
        edges += VoteGraph::build(&g, &cells).edge_count();
        let res = disambiguate(&g, &cells, DisambiguationConfig::default());
        if res.converged {
            converged += 1;
        } else {
            capped += 1;
        }
    }
    assert!(edges > 100, "{edges} edges");
    assert!(
        capped > 0 && converged > 0,
        "{capped} capped, {converged} converged"
    );
}

/// Benchmark-shaped tables — 25 street cells in one column over a full-size
/// gazetteer, hundreds of nodes — most of which run to the sweep cap with
/// their rankings still moving.
#[test]
fn street_columns_match_the_pairwise_reference() {
    let mut capped = 0;
    for seed in 0..6 {
        let g = generate(GazetteerSpec::default(), seed);
        let mut rng = StdRng::seed_from_u64(seed);
        let cells = street_column(&g, 25, &mut rng);
        let config = DisambiguationConfig {
            seed,
            ..DisambiguationConfig::default()
        };
        let res = assert_matches_reference(&g, &cells, config);
        capped += usize::from(!res.converged);
    }
    assert!(capped > 0, "no street column ran to the sweep cap");
}
