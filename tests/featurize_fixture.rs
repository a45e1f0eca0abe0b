//! Fixture-level featurization identity: on every page snippet of the
//! tiny Web, the classifier's frozen featurizer equals the plain §5.2.1
//! recipe bit for bit, and so do the labels it leads to.

use std::sync::Arc;

use teda::classifier::svm::pegasos::PegasosConfig;
use teda::core::trainer::{harvest, train_svm_linear, TrainerConfig};
use teda::kb::{CategoryNetwork, EntityType, World, WorldSpec};
use teda::text::SparseVector;
use teda::websim::{BingSim, WebCorpus, WebCorpusSpec};

#[path = "../crates/text/tests/reference/mod.rs"]
mod reference;

#[test]
fn page_snippets_featurize_and_classify_as_the_recipe_does() {
    let world = World::generate(WorldSpec::tiny(), 42);
    let net = CategoryNetwork::build(&world, 42);
    let web = Arc::new(WebCorpus::build(&world, WebCorpusSpec::tiny(), 42));
    let engine = BingSim::instant(web.clone());
    let corpus = harvest(
        &world,
        &net,
        &engine,
        &EntityType::TARGETS,
        TrainerConfig {
            max_entities_per_type: Some(12),
            ..TrainerConfig::default()
        },
    );
    let classifier = train_svm_linear(&corpus, PegasosConfig::default());

    let mut labelled = 0;
    for page in web.pages() {
        let snippet = page.snippet();
        let fast = classifier.vectorize(&snippet);
        let expected = reference::reference_transform(&corpus.extractor, &snippet);
        assert_eq!(reference::bits(&fast), expected, "{snippet:?}");

        let rebuilt = SparseVector::from_pairs(
            expected
                .iter()
                .map(|&(id, w)| (id, f64::from_bits(w)))
                .collect(),
        );
        let label = classifier.classify_vector(&fast);
        assert_eq!(label, classifier.classify_vector(&rebuilt), "{snippet:?}");
        assert_eq!(label, classifier.classify(&snippet), "{snippet:?}");
        labelled += usize::from(label.is_some());
    }
    assert!(web.pages().len() > 100, "the tiny Web has pages to check");
    assert!(
        labelled > 0,
        "some snippets must classify into a target type"
    );
}
