//! The hybrid annotator: catalogue first, Web for the rest.
//!
//! §6.4: "we may use Limaye to annotate entities that belong to a
//! pre-compiled catalogue, and resort to the search engine only to
//! annotate previously unseen entities. Since in general we expect a table
//! to have a combination of known and unknown entities, this should bring
//! down the running time of the annotation." The paper leaves this as
//! future work; it is implemented here and measured by the efficiency
//! experiment.

use std::collections::HashSet;

use teda_kb::Catalogue;
use teda_tabular::Table;

use crate::annotate::annotate_cells;
use crate::catalogue_annotator::catalogue_annotate;
use crate::pipeline::{
    finish_table, prepared_table, spatial_context_for, Annotator, TableAnnotations,
};
use crate::preprocess::preprocess;

/// Cost accounting for a hybrid run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HybridStats {
    /// Cells answered by catalogue lookup (no search query spent).
    pub catalogue_hits: usize,
    /// Cells that still went to the search engine.
    pub web_cells: usize,
}

/// Annotates `table` with the catalogue-first strategy, using the
/// annotator's engine only for cells the catalogue cannot resolve.
pub fn annotate_hybrid(
    annotator: &Annotator,
    table: &Table,
    catalogue: &Catalogue,
) -> (TableAnnotations, HybridStats) {
    let table = prepared_table(table);
    let table = table.as_ref();
    let config = &annotator.config;

    let pre = preprocess(table, config);

    // Catalogue pass: free annotations for known entities.
    let known = catalogue_annotate(table, &pre.candidates, catalogue, &config.targets);
    let known_cells: HashSet<_> = known.iter().map(|a| a.cell).collect();

    // Web pass only for the remainder.
    let remaining: Vec<_> = pre
        .candidates
        .iter()
        .copied()
        .filter(|c| !known_cells.contains(c))
        .collect();
    let spatial = spatial_context_for(table, annotator.geocoder.as_deref(), None, config);
    let mut annotations = annotate_cells(
        table,
        &remaining,
        annotator.engine.as_ref(),
        &annotator.classifier,
        spatial.as_ref(),
        config,
    );

    let stats = HybridStats {
        catalogue_hits: known.len(),
        web_cells: remaining.len(),
    };

    annotations.extend(known);
    let annotations = TableAnnotations {
        queried_cells: stats.web_cells,
        ..finish_table(table, annotations, &pre, config)
    };
    (annotations, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use teda_kb::{EntityId, EntityType};
    use teda_websim::{SearchEngine, SearchResult};

    use crate::config::AnnotatorConfig;
    use crate::model::{AnyModel, SnippetClassifier, TypeLabels};
    use teda_classifier::naive_bayes::NaiveBayesConfig;
    use teda_classifier::{Dataset, NaiveBayes};
    use teda_text::FeatureExtractor;

    /// Counts queries; answers everything restaurant-flavoured.
    struct Counting(std::sync::atomic::AtomicUsize);

    impl SearchEngine for Counting {
        fn search(&self, _q: &str, k: usize) -> Vec<SearchResult> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            (0..k)
                .map(|i| SearchResult {
                    url: format!("u{i}"),
                    title: "t".into(),
                    snippet: "menu cuisine dining chef".into(),
                })
                .collect()
        }
    }

    fn classifier() -> SnippetClassifier {
        let mut fx = FeatureExtractor::new();
        let rest = fx.fit_transform("menu cuisine dining chef");
        let other = fx.fit_transform("random generic words");
        let mut data = Dataset::new(2, fx.dim());
        for _ in 0..5 {
            data.push(rest.clone(), 0);
            data.push(other.clone(), 1);
        }
        SnippetClassifier::new(
            fx,
            AnyModel::Bayes(NaiveBayes::train(&data, NaiveBayesConfig::default())),
            TypeLabels::with_other(vec![EntityType::Restaurant]),
        )
    }

    #[test]
    fn catalogue_hits_skip_the_engine() {
        let engine = Arc::new(Counting(std::sync::atomic::AtomicUsize::new(0)));
        let annotator = Annotator::new(
            engine.clone(),
            classifier(),
            AnnotatorConfig {
                targets: vec![EntityType::Restaurant],
                ..AnnotatorConfig::default()
            },
        );
        let mut catalogue = Catalogue::default();
        catalogue.insert("Melisse", EntityId(0), EntityType::Restaurant);

        let table = Table::builder(1)
            .row(vec!["Melisse"]) // known → catalogue
            .unwrap()
            .row(vec!["Chez Nouveau"]) // unknown → web
            .unwrap()
            .build()
            .unwrap();

        let (result, stats) = annotate_hybrid(&annotator, &table, &catalogue);
        assert_eq!(stats.catalogue_hits, 1);
        assert_eq!(stats.web_cells, 1);
        assert_eq!(
            engine.0.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "exactly one web query"
        );
        // both cells end up annotated
        assert_eq!(result.cells.len(), 2);
        assert!(result
            .cells
            .iter()
            .all(|a| a.etype == EntityType::Restaurant));
    }

    #[test]
    fn empty_catalogue_degenerates_to_pure_web() {
        let engine = Arc::new(Counting(std::sync::atomic::AtomicUsize::new(0)));
        let annotator = Annotator::new(
            engine.clone(),
            classifier(),
            AnnotatorConfig {
                targets: vec![EntityType::Restaurant],
                ..AnnotatorConfig::default()
            },
        );
        let table = Table::builder(1)
            .row(vec!["Melisse"])
            .unwrap()
            .build()
            .unwrap();
        let (_, stats) = annotate_hybrid(&annotator, &table, &Catalogue::default());
        assert_eq!(stats.catalogue_hits, 0);
        assert_eq!(stats.web_cells, 1);
    }
}
