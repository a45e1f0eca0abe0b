//! Query construction and spatial disambiguation (§5.2.2).
//!
//! "Tables that have information on these entities typically contain their
//! addresses … the query that is submitted to the search engine can be
//! augmented with this spatial information in order to disambiguate it."
//!
//! The spatial context of a table is built once: every cell in a
//! `Location` column (or detected as address/coordinates in untyped
//! columns) is geocoded into its candidate set `L_{i,j}`, the §5.2.2
//! voting graph picks an interpretation per cell, and each row is assigned
//! the city of its chosen interpretation. Queries for cells in that row
//! are then suffixed with the city name — "Melisse" becomes
//! "Melisse Santa Monica".

use std::sync::Arc;

use teda_geo::disambiguate::{disambiguate, DisambiguationConfig};
use teda_geo::{GeocodeCache, Geocoder, LocationId, SimGeocoder};
use teda_tabular::detect::{detect, ValueKind};
use teda_tabular::{CellId, ColumnType, Table};

use crate::config::AnnotatorConfig;

/// Per-row disambiguated spatial context.
#[derive(Debug, Clone, Default)]
pub struct SpatialContext {
    /// The city of row `i` at index `i`; rows past the end have none.
    city_by_row: Vec<Option<String>>,
}

impl SpatialContext {
    /// The disambiguated city name for `row`, if any.
    pub fn city_for_row(&self, row: usize) -> Option<&str> {
        self.city_by_row.get(row)?.as_deref()
    }

    /// Number of rows with spatial context.
    pub fn len(&self) -> usize {
        self.city_by_row.iter().filter(|c| c.is_some()).count()
    }

    /// Whether no row has spatial context.
    pub fn is_empty(&self) -> bool {
        self.city_by_row.iter().all(Option::is_none)
    }

    /// Builds the query for a cell: the raw content, suffixed with the
    /// row's city when available.
    pub fn build_query(&self, table: &Table, cell: CellId) -> String {
        let content = table.cell_at(cell);
        match self.city_for_row(cell.row) {
            Some(city) => format!("{content} {city}"),
            None => content.to_owned(),
        }
    }
}

/// Builds the spatial context for `table` by geocoding its spatial cells
/// and running the voting-graph disambiguation.
pub fn build_spatial_context(
    table: &Table,
    geocoder: &SimGeocoder,
    config: &AnnotatorConfig,
) -> SpatialContext {
    build_spatial_context_cached(table, geocoder, None, config)
}

/// [`build_spatial_context`] with an optional address memo: when `memo`
/// is given, each distinct address string is geocoded once per memo
/// lifetime (one geocoder round-trip per distinct address per corpus).
/// The candidate sets — and therefore the disambiguation and the final
/// context — are identical with or without the memo.
pub fn build_spatial_context_cached(
    table: &Table,
    geocoder: &SimGeocoder,
    memo: Option<&GeocodeCache>,
    config: &AnnotatorConfig,
) -> SpatialContext {
    // 1. Collect spatial cells: GFT Location columns, plus address /
    //    coordinate-shaped cells in untyped columns (the paper defers
    //    general spatial-column detection to Borges et al.; the syntactic
    //    detectors are our stand-in).
    let mut spatial_cells: Vec<CellId> = Vec::new();
    for id in table.cell_ids() {
        let ctype = table.column_type(id.col);
        let is_spatial = match ctype {
            ColumnType::Location => true,
            ColumnType::Unknown | ColumnType::Text => {
                matches!(
                    detect(table.cell_at(id)),
                    ValueKind::Address | ValueKind::Coordinates
                )
            }
            _ => false,
        };
        if is_spatial && !table.cell_at(id).trim().is_empty() {
            spatial_cells.push(id);
        }
    }
    if spatial_cells.is_empty() {
        return SpatialContext::default();
    }

    // 2. Geocode each spatial cell into its candidate set L_{i,j},
    //    through the distinct-address memo when one is attached (its
    //    shared candidate slices reach the voting graph uncopied).
    let cells: Vec<(CellId, Arc<[LocationId]>)> = spatial_cells
        .iter()
        .map(|&id| {
            let address = table.cell_at(id);
            let cands = match memo {
                Some(memo) => memo.get_or_geocode(geocoder, address),
                None => geocoder.geocode(address).into(),
            };
            (id, cands)
        })
        .filter(|(_, cands)| !cands.is_empty())
        .collect();
    if cells.is_empty() {
        return SpatialContext::default();
    }

    // 3. Voting-graph disambiguation (§5.2.2).
    let result = disambiguate(
        geocoder.gazetteer(),
        &cells,
        DisambiguationConfig {
            seed: config.seed,
            ..DisambiguationConfig::default()
        },
    );

    // 4. Per row, the city of the chosen interpretation. When several
    //    spatial cells land in one row, the first (leftmost) with a city
    //    wins; the cells are in row-major order already.
    let gaz = geocoder.gazetteer();
    let mut city_by_row: Vec<Option<String>> = vec![None; table.n_rows()];
    for ((id, _), &chosen) in cells.iter().zip(&result.chosen) {
        let slot = &mut city_by_row[id.row];
        if slot.is_some() {
            continue;
        }
        if let Some(city) = chosen.and_then(|loc| gaz.city_of(loc)) {
            *slot = Some(gaz.location(city).name.clone());
        }
    }
    SpatialContext { city_by_row }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teda_geo::Gazetteer;

    fn geocoder() -> SimGeocoder {
        SimGeocoder::instant(Arc::new(Gazetteer::figure7()))
    }

    fn config() -> AnnotatorConfig {
        AnnotatorConfig::default()
    }

    #[test]
    fn rows_get_disambiguated_cities() {
        // Name | Address(Location): Pennsylvania Avenue next to an
        // unambiguous "Washington" mention in another row's city cell.
        let t = Table::builder(2)
            .column_type(1, ColumnType::Location)
            .row(vec![
                "White House Grill",
                "1600 Pennsylvania Avenue, Washington",
            ])
            .unwrap()
            .row(vec!["Harbour Cafe", "Clarksville Street, TX"])
            .unwrap()
            .build()
            .unwrap();
        let ctx = build_spatial_context(&t, &geocoder(), &config());
        assert_eq!(ctx.city_for_row(0), Some("Washington"));
        // Clarksville Street, TX is ambiguous (Paris TX / Bogata TX) but
        // both are cities in Texas; either interpretation yields a city.
        assert!(ctx.city_for_row(1).is_some());
    }

    #[test]
    fn query_augmentation() {
        let t = Table::builder(2)
            .column_type(1, ColumnType::Location)
            .row(vec!["Melisse", "Pennsylvania Avenue, Washington"])
            .unwrap()
            .build()
            .unwrap();
        let ctx = build_spatial_context(&t, &geocoder(), &config());
        let q = ctx.build_query(&t, CellId::new(0, 0));
        assert_eq!(q, "Melisse Washington");
    }

    #[test]
    fn no_spatial_columns_means_raw_queries() {
        let t = Table::builder(1)
            .row(vec!["James Lee"])
            .unwrap()
            .build()
            .unwrap();
        let ctx = build_spatial_context(&t, &geocoder(), &config());
        assert!(ctx.is_empty());
        assert_eq!(ctx.build_query(&t, CellId::new(0, 0)), "James Lee");
    }

    #[test]
    fn address_cells_in_untyped_columns_are_used() {
        // Web table: no GFT types, but the address shape is detected.
        let t = Table::builder(2)
            .column_types(vec![ColumnType::Unknown, ColumnType::Unknown])
            .unwrap()
            .row(vec!["Some Place", "1600 Pennsylvania Avenue, Washington"])
            .unwrap()
            .build()
            .unwrap();
        let ctx = build_spatial_context(&t, &geocoder(), &config());
        assert_eq!(ctx.city_for_row(0), Some("Washington"));
    }

    #[test]
    fn unknown_addresses_are_ignored() {
        let t = Table::builder(2)
            .column_type(1, ColumnType::Location)
            .row(vec!["X", "99 Nowhere Road, Atlantis"])
            .unwrap()
            .build()
            .unwrap();
        let ctx = build_spatial_context(&t, &geocoder(), &config());
        assert!(ctx.is_empty());
    }
}
