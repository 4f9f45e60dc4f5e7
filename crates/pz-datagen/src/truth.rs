//! Ground truth and quality scoring.
//!
//! The paper validated its scientific-discovery output "manually". The
//! reproduction keeps machine-checkable truth alongside every generated
//! corpus, and scores pipeline output with set- (or multiset-) based
//! precision / recall / F1. These scores are what the optimizer's
//! *quality* dimension (E3) and sentinel calibration (E9) are measured
//! against.

use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A dataset mention planted in a paper (the extraction target of E1).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct DatasetMention {
    pub name: String,
    pub description: String,
    pub url: String,
}

/// Precision / recall / F1 triple.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PrF1 {
    pub precision: f64,
    pub recall: f64,
    pub f1: f64,
    pub true_positives: usize,
    pub predicted: usize,
    pub expected: usize,
}

impl PrF1 {
    /// Compute from counts. Empty-vs-empty scores a perfect 1.0 (nothing to
    /// find, nothing found).
    pub fn from_counts(true_positives: usize, predicted: usize, expected: usize) -> Self {
        let precision = if predicted == 0 {
            if expected == 0 {
                1.0
            } else {
                0.0
            }
        } else {
            true_positives as f64 / predicted as f64
        };
        let recall = if expected == 0 {
            1.0
        } else {
            true_positives as f64 / expected as f64
        };
        let f1 = if precision + recall == 0.0 {
            0.0
        } else {
            2.0 * precision * recall / (precision + recall)
        };
        Self {
            precision,
            recall,
            f1,
            true_positives,
            predicted,
            expected,
        }
    }
}

/// Normalize a value for fuzzy set comparison: lowercase, alphanumeric runs
/// separated by single spaces.
pub fn normalize(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut last_space = true;
    for c in s.chars() {
        if c.is_alphanumeric() {
            out.extend(c.to_lowercase());
            last_space = false;
        } else if !last_space {
            out.push(' ');
            last_space = true;
        }
    }
    out.trim_end().to_string()
}

/// Score predicted strings against expected strings as normalized sets.
pub fn score_string_sets(predicted: &[String], expected: &[String]) -> PrF1 {
    let p: BTreeSet<String> = predicted.iter().map(|s| normalize(s)).collect();
    let e: BTreeSet<String> = expected.iter().map(|s| normalize(s)).collect();
    let tp = p.intersection(&e).count();
    PrF1::from_counts(tp, p.len(), e.len())
}

/// Score extracted `(name, url)` pairs against expected dataset mentions.
/// A prediction counts as a true positive when the normalized name matches
/// *and* the URL matches exactly (the paper verified URL validity by hand;
/// we verify it mechanically). Mentions are a multiset: a dataset cited by
/// two papers is two mentions, and each prediction matches at most one
/// mention not already matched.
pub fn score_dataset_extractions(
    predicted: &[(Option<String>, Option<String>)],
    expected: &[DatasetMention],
) -> PrF1 {
    let mut unmatched: BTreeMap<(String, &str), usize> = BTreeMap::new();
    for m in expected {
        *unmatched.entry((normalize(&m.name), &m.url)).or_default() += 1;
    }
    let mut tp = 0usize;
    for (name, url) in predicted {
        if let (Some(n), Some(u)) = (name, url) {
            if let Some(left) = unmatched.get_mut(&(normalize(n), u.as_str())) {
                if *left > 0 {
                    *left -= 1;
                    tp += 1;
                }
            }
        }
    }
    PrF1::from_counts(tp, predicted.len(), expected.len())
}

/// Score a boolean classification (e.g. a filter decision) against truth.
/// Items are matched positionally.
pub fn score_boolean(predicted: &[bool], expected: &[bool]) -> PrF1 {
    assert_eq!(predicted.len(), expected.len(), "length mismatch");
    let tp = predicted
        .iter()
        .zip(expected)
        .filter(|(p, e)| **p && **e)
        .count();
    let predicted_pos = predicted.iter().filter(|p| **p).count();
    let expected_pos = expected.iter().filter(|e| **e).count();
    PrF1::from_counts(tp, predicted_pos, expected_pos)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_score() {
        let m = PrF1::from_counts(5, 5, 5);
        assert_eq!(m.precision, 1.0);
        assert_eq!(m.recall, 1.0);
        assert_eq!(m.f1, 1.0);
    }

    #[test]
    fn empty_vs_empty_is_perfect() {
        let m = PrF1::from_counts(0, 0, 0);
        assert_eq!(m.f1, 1.0);
    }

    #[test]
    fn nothing_found_is_zero_recall() {
        let m = PrF1::from_counts(0, 0, 4);
        assert_eq!(m.recall, 0.0);
        assert_eq!(m.f1, 0.0);
    }

    #[test]
    fn half_and_half() {
        let m = PrF1::from_counts(2, 4, 4);
        assert_eq!(m.precision, 0.5);
        assert_eq!(m.recall, 0.5);
        assert!((m.f1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn normalize_collapses_punctuation_and_case() {
        assert_eq!(normalize("TCGA-COADREAD"), "tcga coadread");
        assert_eq!(normalize("  The  Dataset!! "), "the dataset");
        assert_eq!(normalize(""), "");
    }

    #[test]
    fn string_set_scoring() {
        let m = score_string_sets(
            &["TCGA-COAD".into(), "bogus".into()],
            &["tcga coad".into(), "GSE39582".into()],
        );
        assert_eq!(m.true_positives, 1);
        assert_eq!(m.predicted, 2);
        assert_eq!(m.expected, 2);
    }

    #[test]
    fn dataset_extraction_scoring_requires_url_match() {
        let truth = vec![DatasetMention {
            name: "TCGA-COADREAD".into(),
            description: "cohort".into(),
            url: "https://portal.gdc.cancer.gov/x".into(),
        }];
        // Right name, right URL.
        let good = vec![(
            Some("tcga coadread".to_string()),
            Some("https://portal.gdc.cancer.gov/x".to_string()),
        )];
        assert_eq!(score_dataset_extractions(&good, &truth).true_positives, 1);
        // Right name, corrupted URL: not a true positive.
        let bad = vec![(
            Some("tcga coadread".to_string()),
            Some("https://example.org/ffff".to_string()),
        )];
        assert_eq!(score_dataset_extractions(&bad, &truth).true_positives, 0);
        // Missing URL: not a true positive.
        let none = vec![(Some("tcga coadread".to_string()), None)];
        assert_eq!(score_dataset_extractions(&none, &truth).true_positives, 0);
    }

    #[test]
    fn duplicate_predictions_count_once() {
        let truth = vec![DatasetMention {
            name: "A".into(),
            description: String::new(),
            url: "https://a".into(),
        }];
        let dup = vec![
            (Some("A".to_string()), Some("https://a".to_string())),
            (Some("a".to_string()), Some("https://a".to_string())),
        ];
        let m = score_dataset_extractions(&dup, &truth);
        assert_eq!(m.true_positives, 1);
        assert_eq!(m.predicted, 2);
        assert!(m.precision < 1.0);
    }

    #[test]
    fn a_dataset_cited_twice_is_two_mentions() {
        let mention = DatasetMention {
            name: "GSE39582".into(),
            description: String::new(),
            url: "https://geo/GSE39582".into(),
        };
        let truth = vec![mention.clone(), mention];
        let pred = (
            Some("gse39582".to_string()),
            Some("https://geo/GSE39582".to_string()),
        );
        let m = score_dataset_extractions(&[pred.clone(), pred.clone()], &truth);
        assert_eq!(m.true_positives, 2);
        assert_eq!(m.f1, 1.0);
        // A third extraction of it finds no mention left to match.
        let m = score_dataset_extractions(&[pred.clone(), pred.clone(), pred], &truth);
        assert_eq!(m.true_positives, 2);
    }

    #[test]
    fn boolean_scoring() {
        let m = score_boolean(&[true, true, false, false], &[true, false, true, false]);
        assert_eq!(m.true_positives, 1);
        assert_eq!(m.predicted, 2);
        assert_eq!(m.expected, 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn boolean_scoring_length_mismatch_panics() {
        score_boolean(&[true], &[true, false]);
    }
}
