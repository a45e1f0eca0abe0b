//! Figure 7 — the toponym-disambiguation worked example, printed
//! step by step.
//!
//! Reconstructs the exact grid of the figure (Pennsylvania Avenue /
//! Wofford Lane / Clarksville Street against Washington / College Park /
//! Paris) and reports the candidate sets, final scores and chosen
//! interpretations.

use teda_geo::disambiguate::{disambiguate, DisambiguationConfig, DisambiguationResult};
use teda_geo::{Gazetteer, LocationId, LocationKind};
use teda_simkit::tablefmt::{f3, Align, TextTable};
use teda_tabular::CellId;

/// The Figure 7 scenario: gazetteer + the six ambiguous cells.
pub struct Fig7 {
    pub gazetteer: Gazetteer,
    pub cells: Vec<(CellId, Vec<LocationId>)>,
    pub result: DisambiguationResult,
}

/// Builds and solves the Figure 7 grid.
pub fn run() -> Fig7 {
    let g = Gazetteer::figure7();
    let find_city = |name: &str, mark: &str| {
        g.lookup_kind(name, LocationKind::City)
            .into_iter()
            .find(|&id| g.full_name(id).contains(mark))
            .expect("fixture city")
    };
    let streets = |name: &str| g.lookup_kind(name, LocationKind::Street);

    let cells = vec![
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
    ];
    let result = disambiguate(&g, &cells, DisambiguationConfig::default());
    Fig7 {
        gazetteer: g,
        cells,
        result,
    }
}

/// Renders the candidate scores and chosen interpretations.
pub fn render(f: &Fig7) -> String {
    let mut out = String::from("Figure 7: disambiguating toponyms in tables.\n");
    let mut tbl = TextTable::new(vec!["Cell", "Candidate", "Score", "Chosen"]);
    tbl.align(0, Align::Left);
    tbl.align(1, Align::Left);
    for (cell, cands) in &f.cells {
        let chosen = f.result.interpretation(*cell);
        for &c in cands {
            let score = f.result.score(*cell, c).unwrap_or(0.0);
            tbl.row(vec![
                cell.to_string(),
                f.gazetteer.full_name(c),
                f3(score),
                if chosen == Some(c) {
                    "*".into()
                } else {
                    "".into()
                },
            ]);
        }
        tbl.separator();
    }
    out.push_str(&tbl.render());
    out.push_str(&format!(
        "converged = {} after {} iterations\n",
        f.result.converged, f.result.iterations
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_output_matches_the_paper() {
        let f = run();
        let full = |cell: CellId| {
            f.gazetteer
                .full_name(f.result.interpretation(cell).expect("chosen"))
        };
        assert!(full(CellId::new(11, 0)).contains("Washington, D.C."));
        assert!(full(CellId::new(12, 1)).contains("College Park, MD"));
        assert!(full(CellId::new(19, 1)).contains("Paris, TX"));
        let rendered = render(&f);
        assert!(rendered.contains("T(12,1)"));
        assert!(rendered.contains("converged = true"));
    }
}
