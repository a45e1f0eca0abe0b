//! The snippet classifier: feature extraction + a trained model + the
//! class ↔ type mapping.
//!
//! §5.2.1 trains one multi-class classifier over Γ. Snippets that describe
//! none of the target types need somewhere to go, so the label space is
//! Γ ∪ {Other}; `Other` predictions never produce annotations (a snippet
//! voting "Other" simply isn't a vote for any target type, which is how
//! the majority rule abstains on junk cells).

use teda_classifier::svm::BinaryClassifier;
use teda_classifier::{Classifier, NaiveBayes, OneVsRest, PegasosSvm, SmoSvm};
use teda_kb::EntityType;
use teda_text::FeatureExtractor;

/// The label space: class `i < types.len()` is `types[i]`; optionally a
/// trailing `Other` class.
///
/// The paper's classifier is trained over Γ only (§5.2.1) — junk snippets
/// are forced into some target class, which is exactly what the §5.3
/// post-processing exists to mop up. [`TypeLabels::new`] reproduces that
/// closed label space; [`TypeLabels::with_other`] adds an explicit reject
/// class trained on non-target snippets (an extension this repository
/// evaluates as an ablation).
#[derive(Debug, Clone, PartialEq)]
pub struct TypeLabels {
    types: Vec<EntityType>,
    has_other: bool,
}

impl TypeLabels {
    /// The paper's closed label space: Γ only.
    pub fn new(types: Vec<EntityType>) -> Self {
        assert!(!types.is_empty(), "need at least one target type");
        TypeLabels {
            types,
            has_other: false,
        }
    }

    /// Γ plus a trailing `Other` reject class.
    pub fn with_other(types: Vec<EntityType>) -> Self {
        assert!(!types.is_empty(), "need at least one target type");
        TypeLabels {
            types,
            has_other: true,
        }
    }

    /// Total classes (targets, plus Other when present).
    pub fn n_classes(&self) -> usize {
        self.types.len() + usize::from(self.has_other)
    }

    /// The class index of the `Other` label, when present.
    pub fn other_class(&self) -> Option<usize> {
        self.has_other.then_some(self.types.len())
    }

    /// The class index of a target type.
    pub fn class_of(&self, etype: EntityType) -> Option<usize> {
        self.types.iter().position(|&t| t == etype)
    }

    /// The type of a class index (`None` for Other / out of range).
    pub fn type_of(&self, class: usize) -> Option<EntityType> {
        self.types.get(class).copied()
    }

    /// The target types in class order.
    pub fn types(&self) -> &[EntityType] {
        &self.types
    }
}

/// A trained model of either family the paper evaluates.
#[derive(Debug, Clone)]
pub enum AnyModel {
    /// Linear SVM one-vs-rest (Pegasos-trained; the scale-friendly
    /// counterpart of the paper's C-SVC).
    SvmLinear(OneVsRest<PegasosSvm>),
    /// RBF C-SVC one-vs-rest (SMO-trained; the paper's exact setup).
    SvmRbf(OneVsRest<SmoSvm>),
    /// Multinomial Naive Bayes (the paper's LingPipe configuration).
    Bayes(NaiveBayes),
}

impl AnyModel {
    /// The winning class and its decision value, or `None` for a model
    /// with no classes: the argmax of [`scores`](Classifier::scores)
    /// taken straight from the per-class decision values, without the
    /// score vector.
    ///
    /// It is `Iterator::max_by` under `f64::total_cmp`, so the last
    /// maximal index wins a tie, and NaN ranks exactly where `total_cmp`
    /// puts it (a positive NaN above every number, a negative one below).
    pub fn best_class(&self, x: &teda_text::SparseVector) -> Option<(usize, f64)> {
        fn argmax(scores: impl Iterator<Item = f64>) -> Option<(usize, f64)> {
            scores.enumerate().max_by(|a, b| a.1.total_cmp(&b.1))
        }
        match self {
            AnyModel::SvmLinear(m) => argmax(m.models().iter().map(|b| b.decision(x))),
            AnyModel::SvmRbf(m) => argmax(m.models().iter().map(|b| b.decision(x))),
            AnyModel::Bayes(m) => argmax((0..m.n_classes()).map(|c| m.log_score(x, c))),
        }
    }
}

impl Classifier for AnyModel {
    fn n_classes(&self) -> usize {
        match self {
            AnyModel::SvmLinear(m) => m.n_classes(),
            AnyModel::SvmRbf(m) => m.n_classes(),
            AnyModel::Bayes(m) => m.n_classes(),
        }
    }

    fn scores(&self, x: &teda_text::SparseVector) -> Vec<f64> {
        match self {
            AnyModel::SvmLinear(m) => m.scores(x),
            AnyModel::SvmRbf(m) => m.scores(x),
            AnyModel::Bayes(m) => m.scores(x),
        }
    }
}

/// Feature extractor + model + labels: everything needed to classify one
/// snippet into Γ ∪ {Other}.
#[derive(Debug, Clone)]
pub struct SnippetClassifier {
    extractor: FeatureExtractor,
    model: AnyModel,
    labels: TypeLabels,
}

impl SnippetClassifier {
    /// Assembles a classifier. The extractor's vocabulary must be the one
    /// the model was trained with.
    pub fn new(extractor: FeatureExtractor, model: AnyModel, labels: TypeLabels) -> Self {
        SnippetClassifier {
            extractor,
            model,
            labels,
        }
    }

    /// Classifies one snippet: `Some(type)` when the predicted class is a
    /// target type, `None` for Other or for a rejected margin.
    ///
    /// SVM models additionally reject snippets whose best one-vs-rest
    /// decision value is negative — the snippet lies outside every
    /// positive halfspace, so no class claims it. Naive Bayes has no
    /// analogous natural threshold (log-joint scores are always
    /// comparable) and therefore always commits, which is the mechanism
    /// behind its poor Table 1 precision despite excellent Table 2 test
    /// accuracy.
    ///
    /// Takes `&self`: the vocabulary is frozen at inference time, so one
    /// classifier can serve many threads concurrently (the batch
    /// annotation engine shares a single instance across its workers).
    pub fn classify(&self, snippet: &str) -> Option<EntityType> {
        let x = self.extractor.transform(snippet);
        self.classify_vector(&x)
    }

    /// Classifies an already-featurized snippet (same decision rule as
    /// [`classify`](Self::classify)). Lets callers that need both the
    /// vector and the label — e.g. the clustered voting mode — featurize
    /// exactly once. Allocates nothing: the argmax comes from
    /// [`AnyModel::best_class`].
    pub fn classify_vector(&self, x: &teda_text::SparseVector) -> Option<EntityType> {
        if x.is_empty() {
            return None;
        }
        let (best, best_score) = self.model.best_class(x)?;
        let margin_based = matches!(self.model, AnyModel::SvmLinear(_) | AnyModel::SvmRbf(_));
        if margin_based && best_score < 0.0 {
            return None;
        }
        self.labels.type_of(best)
    }

    /// Extracts the feature vector of a snippet against the frozen
    /// training vocabulary (used by the clustering annotation mode to
    /// measure snippet similarity in the same space the model sees).
    pub fn vectorize(&self, snippet: &str) -> teda_text::SparseVector {
        self.extractor.transform(snippet)
    }

    /// The label space.
    pub fn labels(&self) -> &TypeLabels {
        &self.labels
    }

    /// The underlying model (for ablation reports).
    pub fn model(&self) -> &AnyModel {
        &self.model
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teda_classifier::naive_bayes::NaiveBayesConfig;
    use teda_classifier::Dataset;

    #[test]
    fn label_space_layout() {
        let l = TypeLabels::with_other(vec![EntityType::Restaurant, EntityType::Museum]);
        assert_eq!(l.n_classes(), 3);
        assert_eq!(l.other_class(), Some(2));
        assert_eq!(l.class_of(EntityType::Museum), Some(1));
        assert_eq!(l.class_of(EntityType::Hotel), None);
        assert_eq!(l.type_of(0), Some(EntityType::Restaurant));
        assert_eq!(l.type_of(2), None, "Other maps to no type");
    }

    #[test]
    fn classify_maps_other_to_none() {
        // Train a tiny NB: class 0 = Restaurant on "menu", class 1 (Other)
        // on "random".
        let mut fx = FeatureExtractor::new();
        let x0 = fx.fit_transform("menu dining cuisine");
        let x1 = fx.fit_transform("random words here");
        let mut data = Dataset::new(2, fx.dim());
        for _ in 0..5 {
            data.push(x0.clone(), 0);
            data.push(x1.clone(), 1);
        }
        let nb = NaiveBayes::train(&data, NaiveBayesConfig::default());
        let labels = TypeLabels::with_other(vec![EntityType::Restaurant]);
        let clf = SnippetClassifier::new(fx, AnyModel::Bayes(nb), labels);
        assert_eq!(
            clf.classify("menu cuisine tonight"),
            Some(EntityType::Restaurant)
        );
        assert_eq!(clf.classify("random words"), None);
        assert_eq!(clf.classify(""), None, "empty snippet abstains");
    }

    #[test]
    fn nan_scores_do_not_panic_the_argmax() {
        // A NaN feature value propagates NaN into every class score; the
        // argmax must degrade (total_cmp ranks NaN above finite scores)
        // instead of panicking mid-classification, and stay deterministic.
        let mut fx = FeatureExtractor::new();
        let x0 = fx.fit_transform("menu dining cuisine");
        let x1 = fx.fit_transform("gallery exhibition art");
        let mut data = Dataset::new(2, fx.dim());
        for _ in 0..5 {
            data.push(x0.clone(), 0);
            data.push(x1.clone(), 1);
        }
        let nb = NaiveBayes::train(&data, NaiveBayesConfig::default());
        let labels = TypeLabels::new(vec![EntityType::Restaurant, EntityType::Museum]);
        let clf = SnippetClassifier::new(fx, AnyModel::Bayes(nb), labels);
        let poisoned = teda_text::SparseVector::from_pairs(vec![(0, f64::NAN)]);
        let a = clf.classify_vector(&poisoned);
        let b = clf.classify_vector(&poisoned);
        assert_eq!(a, b, "NaN classification must be deterministic");
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_label_space_rejected() {
        TypeLabels::new(vec![]);
    }
}
