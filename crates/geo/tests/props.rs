//! Property tests for the geographic substrate.

use proptest::prelude::*;

use teda_geo::disambiguate::{disambiguate, DisambiguationConfig};
use teda_geo::gazetteer::LocationKind;
use teda_geo::synthetic::{generate, GazetteerSpec};
use teda_geo::Gazetteer;
use teda_tabular::CellId;

proptest! {
    /// The containment hierarchy is acyclic and bounded: every chain ends
    /// at a country in ≤ 3 steps.
    #[test]
    fn container_chains_terminate(seed in 0u64..50) {
        let g = generate(GazetteerSpec {
            countries: 2,
            states_per_country: 2,
            cities_per_state: 3,
            streets_per_city: 2,
            city_name_pool: 5,
            street_name_pool: 5,
        }, seed);
        for id in (0..g.len() as u32).map(teda_geo::LocationId) {
            let chain = g.container_chain(id);
            prop_assert!(chain.len() <= 3);
            if let Some(&root) = chain.last() {
                prop_assert_eq!(g.location(root).kind, LocationKind::Country);
            } else {
                prop_assert_eq!(g.location(id).kind, LocationKind::Country);
            }
        }
    }

    /// Disambiguation always chooses an interpretation for every cell with
    /// candidates, scores stay normalized per cell, and it never panics on
    /// random candidate layouts.
    #[test]
    fn disambiguation_total_and_normalized(
        layout in proptest::collection::vec(
            (0usize..4, 0usize..3, 1usize..4),
            1..8
        ),
        seed in 0u64..100
    ) {
        let g = Gazetteer::figure7();
        let cities: Vec<_> = g.of_kind(LocationKind::City).collect();
        // Contract: one entry per cell, candidates distinct within a cell.
        let mut seen_cells = std::collections::HashSet::new();
        let cells: Vec<(CellId, Vec<teda_geo::LocationId>)> = layout
            .iter()
            .enumerate()
            .filter_map(|(idx, &(row, col, n))| {
                if !seen_cells.insert((row, col)) {
                    return None;
                }
                let mut cands: Vec<_> = (0..n)
                    .map(|k| cities[(idx * 3 + k + seed as usize) % cities.len()])
                    .collect();
                cands.sort();
                cands.dedup();
                Some((CellId::new(row, col), cands))
            })
            .collect();
        let res = disambiguate(&g, &cells, DisambiguationConfig::default());
        for (cell, cands) in &cells {
            prop_assert!(res.interpretation(*cell).is_some());
            let sum: f64 = cands
                .iter()
                .map(|&c| res.score(*cell, c).unwrap_or(0.0))
                .sum();
            prop_assert!((sum - 1.0).abs() < 1e-6, "cell {cell}: {sum}");
            // the chosen candidate is from the candidate set
            prop_assert!(cands.contains(&res.interpretation(*cell).unwrap()));
        }
    }
}
