//! Multinomial Naive Bayes in log space.
//!
//! Mirrors the paper's LingPipe configuration (§6.1): "we turned off length
//! normalization and set the prior counts to 1.0". Token weights are the
//! fractional normalized frequencies of §5.2.1, so the model accumulates
//! fractional counts — exactly what LingPipe's `TradNaiveBayes` does with
//! weighted training.
//!
//! * class prior:     `ln((n_c + α) / (n + α·C))`
//! * token likelihood: `ln((tf_{c,f} + α) / (tf_c + α·V))`
//! * score(x, c):     `prior(c) + Σ_f x_f · likelihood(c, f)`
//!
//! with `α` = `prior_count` (1.0 per the paper), `V` the vocabulary size.
//! With length normalization off, scores are *not* divided by the token
//! count — longer snippets produce more peaked posteriors.

use teda_text::SparseVector;

use crate::data::Dataset;
use crate::Classifier;

/// Configuration for [`NaiveBayes::train`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NaiveBayesConfig {
    /// Additive smoothing mass `α` for both priors and token likelihoods.
    /// The paper sets 1.0.
    pub prior_count: f64,
    /// Evidence weight at prediction time: feature weights are multiplied
    /// by this factor before entering the log-likelihood sum.
    ///
    /// The §5.2.1 features are *relative* frequencies (each snippet's
    /// weights sum to 1), which — fed to NB verbatim — makes every snippet
    /// count as a single token of evidence, so class priors dominate.
    /// LingPipe with "length normalization turned off" weighs the raw
    /// token counts instead; `evidence_scale ≈ mean content tokens per
    /// snippet` reproduces that behaviour on normalized features.
    pub evidence_scale: f64,
}

impl Default for NaiveBayesConfig {
    fn default() -> Self {
        NaiveBayesConfig {
            prior_count: 1.0,
            evidence_scale: 1.0,
        }
    }
}

impl NaiveBayesConfig {
    /// The paper's snippet configuration: prior counts 1.0, length
    /// normalization off (evidence scaled to a typical ~16-token snippet).
    pub fn snippet_default() -> Self {
        NaiveBayesConfig {
            prior_count: 1.0,
            evidence_scale: 16.0,
        }
    }
}

/// A trained multinomial Naive Bayes model.
#[derive(Debug, Clone)]
pub struct NaiveBayes {
    n_classes: usize,
    dim: usize,
    evidence_scale: f64,
    class_log_prior: Vec<f64>,
    /// `token_log_prob[c * dim + f]`.
    token_log_prob: Vec<f64>,
    /// Log-likelihood of an unseen token per class (smoothing floor); used
    /// for features `>= dim`, which cannot occur if extraction froze the
    /// vocabulary, but keeps the model total.
    unseen_log_prob: Vec<f64>,
}

impl NaiveBayes {
    /// Trains on `data` with the given smoothing. Panics on an empty
    /// dataset or zero classes — the trainer (§5.2.1) always supplies both.
    pub fn train(data: &Dataset, config: NaiveBayesConfig) -> Self {
        assert!(!data.is_empty(), "cannot train NB on an empty dataset");
        assert!(data.n_classes() > 0, "need at least one class");
        let alpha = config.prior_count;
        assert!(alpha > 0.0, "prior_count must be positive");
        let n_classes = data.n_classes();
        let dim = data.dim();

        // fractional token counts per class
        let mut tf = vec![0.0f64; n_classes * dim];
        let mut class_tf = vec![0.0f64; n_classes];
        let mut class_n = vec![0usize; n_classes];
        for i in 0..data.len() {
            let (x, y) = data.get(i);
            class_n[y] += 1;
            for &(f, w) in x.entries() {
                let f = f as usize;
                assert!(f < dim, "feature id {f} out of dim {dim}");
                tf[y * dim + f] += w;
                class_tf[y] += w;
            }
        }

        let n_total = data.len() as f64;
        let class_log_prior: Vec<f64> = class_n
            .iter()
            .map(|&c| ((c as f64 + alpha) / (n_total + alpha * n_classes as f64)).ln())
            .collect();

        let mut token_log_prob = vec![0.0f64; n_classes * dim];
        let mut unseen_log_prob = vec![0.0f64; n_classes];
        for c in 0..n_classes {
            let denom = class_tf[c] + alpha * dim as f64;
            for f in 0..dim {
                token_log_prob[c * dim + f] = ((tf[c * dim + f] + alpha) / denom).ln();
            }
            unseen_log_prob[c] = (alpha / denom).ln();
        }

        NaiveBayes {
            n_classes,
            dim,
            evidence_scale: config.evidence_scale,
            class_log_prior,
            token_log_prob,
            unseen_log_prob,
        }
    }

    /// Log-joint scores `ln P(c) + Σ x_f ln P(f|c)` for each class.
    pub fn log_scores(&self, x: &SparseVector) -> Vec<f64> {
        (0..self.n_classes).map(|c| self.log_score(x, c)).collect()
    }

    /// The log-joint score of one class, `log_scores(x)[class]` without
    /// the vector: the prior, then one term per feature in id order.
    pub fn log_score(&self, x: &SparseVector, class: usize) -> f64 {
        let mut score = self.class_log_prior[class];
        for &(f, w) in x.entries() {
            let f = f as usize;
            let lp = if f < self.dim {
                self.token_log_prob[class * self.dim + f]
            } else {
                self.unseen_log_prob[class]
            };
            score += self.evidence_scale * w * lp;
        }
        score
    }

    /// Posterior probabilities (softmax of the log-joint scores).
    pub fn posteriors(&self, x: &SparseVector) -> Vec<f64> {
        let scores = self.log_scores(x);
        let max = scores.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let exps: Vec<f64> = scores.iter().map(|&s| (s - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        exps.iter().map(|&e| e / z).collect()
    }
}

impl Classifier for NaiveBayes {
    fn n_classes(&self) -> usize {
        self.n_classes
    }

    fn scores(&self, x: &SparseVector) -> Vec<f64> {
        self.log_scores(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecf(pairs: &[(u32, f64)]) -> SparseVector {
        SparseVector::from_pairs(pairs.to_vec())
    }

    /// Two well-separated classes: class 0 uses features {0,1},
    /// class 1 uses {2,3}.
    fn toy_data() -> Dataset {
        let mut d = Dataset::new(2, 4);
        for _ in 0..10 {
            d.push(vecf(&[(0, 0.5), (1, 0.5)]), 0);
            d.push(vecf(&[(2, 0.5), (3, 0.5)]), 1);
        }
        d
    }

    #[test]
    fn separable_classes_learned() {
        let nb = NaiveBayes::train(&toy_data(), NaiveBayesConfig::default());
        assert_eq!(nb.predict(&vecf(&[(0, 1.0)])), 0);
        assert_eq!(nb.predict(&vecf(&[(3, 1.0)])), 1);
        assert_eq!(nb.predict(&vecf(&[(0, 0.3), (1, 0.7)])), 0);
    }

    #[test]
    fn posteriors_sum_to_one_and_rank_correctly() {
        let nb = NaiveBayes::train(&toy_data(), NaiveBayesConfig::default());
        let p = nb.posteriors(&vecf(&[(0, 1.0)]));
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[0] > p[1]);
    }

    #[test]
    fn class_imbalance_shifts_prior() {
        // 15 examples of class 0, 5 of class 1; an uninformative input
        // should go to the majority class.
        let mut d = Dataset::new(2, 3);
        for _ in 0..15 {
            d.push(vecf(&[(0, 1.0)]), 0);
        }
        for _ in 0..5 {
            d.push(vecf(&[(1, 1.0)]), 1);
        }
        let nb = NaiveBayes::train(&d, NaiveBayesConfig::default());
        assert_eq!(nb.predict(&vecf(&[(2, 1.0)])), 0);
    }

    #[test]
    fn unseen_feature_id_does_not_panic() {
        let nb = NaiveBayes::train(&toy_data(), NaiveBayesConfig::default());
        // feature 100 is beyond dim; handled via the smoothing floor
        let _ = nb.predict(&vecf(&[(100, 1.0)]));
    }

    #[test]
    fn empty_vector_falls_back_to_prior() {
        let mut d = Dataset::new(2, 2);
        for _ in 0..9 {
            d.push(vecf(&[(0, 1.0)]), 0);
        }
        d.push(vecf(&[(1, 1.0)]), 1);
        let nb = NaiveBayes::train(&d, NaiveBayesConfig::default());
        assert_eq!(nb.predict(&SparseVector::default()), 0);
    }

    #[test]
    fn higher_prior_count_flattens_likelihoods() {
        let d = toy_data();
        let sharp = NaiveBayes::train(
            &d,
            NaiveBayesConfig {
                prior_count: 0.01,
                ..NaiveBayesConfig::default()
            },
        );
        let flat = NaiveBayes::train(
            &d,
            NaiveBayesConfig {
                prior_count: 100.0,
                ..NaiveBayesConfig::default()
            },
        );
        let x = vecf(&[(0, 1.0)]);
        let ps = sharp.posteriors(&x);
        let pf = flat.posteriors(&x);
        assert!(ps[0] > pf[0], "stronger smoothing must flatten posteriors");
        assert!(pf[0] > 0.5, "ranking preserved under smoothing");
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        NaiveBayes::train(&Dataset::new(2, 2), NaiveBayesConfig::default());
    }

    #[test]
    fn evidence_scale_overcomes_class_prior() {
        // 4:1 class imbalance; a weakly informative snippet (unit-mass
        // normalized TF) loses to the prior at scale 1 but wins at the
        // snippet scale — the LingPipe length-normalization-off behaviour.
        let mut d = Dataset::new(2, 4);
        for _ in 0..40 {
            d.push(vecf(&[(0, 0.5), (1, 0.5)]), 0);
        }
        for _ in 0..10 {
            d.push(vecf(&[(2, 0.5), (3, 0.5)]), 1);
        }
        // an input only weakly favouring the minority class
        let x = vecf(&[(2, 0.4), (0, 0.3), (1, 0.3)]);
        let flat = NaiveBayes::train(&d, NaiveBayesConfig::default());
        let scaled = NaiveBayes::train(&d, NaiveBayesConfig::snippet_default());
        // Both must at least produce finite, ordered scores; the scaled
        // model must weigh the token evidence strictly more than the flat
        // model relative to the prior.
        let gap = |nb: &NaiveBayes| {
            let s = nb.log_scores(&x);
            s[1] - s[0]
        };
        assert!(
            gap(&scaled) > gap(&flat),
            "scaling must boost evidence relative to the prior"
        );
    }

    #[test]
    fn scores_are_log_space_finite() {
        let nb = NaiveBayes::train(&toy_data(), NaiveBayesConfig::default());
        let s = nb.log_scores(&vecf(&[(0, 0.5), (2, 0.5)]));
        assert!(s.iter().all(|v| v.is_finite()));
        assert_eq!(s.len(), 2);
    }

    /// The class-inner accumulation `log_scores` used before it was
    /// built from `log_score`.
    fn log_scores_class_inner(nb: &NaiveBayes, x: &SparseVector) -> Vec<f64> {
        let mut scores = nb.class_log_prior.clone();
        for &(f, w) in x.entries() {
            let f = f as usize;
            for (c, score) in scores.iter_mut().enumerate() {
                let lp = if f < nb.dim {
                    nb.token_log_prob[c * nb.dim + f]
                } else {
                    nb.unseen_log_prob[c]
                };
                *score += nb.evidence_scale * w * lp;
            }
        }
        scores
    }

    #[test]
    fn per_class_scores_equal_the_class_inner_accumulation() {
        // Each class sees the same additions in the same order either
        // way, so every score is bit-identical. A NaN input gives NaN
        // either way; its sign and payload are not specified by Rust's
        // float semantics, so only NaN-ness is compared there.
        let nb = NaiveBayes::train(&toy_data(), NaiveBayesConfig::snippet_default());
        for x in [
            vecf(&[(0, 0.5), (2, 0.5)]),
            vecf(&[(1, 0.25), (3, 0.75), (9, 1.0)]),
            vecf(&[(0, 1e300), (1, -1e300), (2, f64::INFINITY)]),
            vecf(&[(0, f64::NAN), (3, 0.5)]),
            vecf(&[]),
        ] {
            let old = log_scores_class_inner(&nb, &x);
            let new = nb.log_scores(&x);
            assert_eq!(old.len(), new.len());
            for (c, (a, b)) in old.iter().zip(&new).enumerate() {
                if a.is_nan() {
                    assert!(b.is_nan(), "{x:?} class {c}: {b} is not NaN");
                } else {
                    assert_eq!(a.to_bits(), b.to_bits(), "{x:?} class {c}");
                }
                assert_eq!(
                    nb.log_score(&x, c).to_bits(),
                    b.to_bits(),
                    "{x:?} class {c}"
                );
            }
        }
    }
}
