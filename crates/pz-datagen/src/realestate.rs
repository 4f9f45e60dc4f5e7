//! Real-estate search corpus (third demo scenario, paper abstract).
//!
//! Listings with structured attributes (address, price, bedrooms) and a
//! prose description. The demo filter is a *subjective* natural-language
//! predicate ("modern homes with a garden") — the kind of condition only an
//! LLM-based filter can evaluate — combined with a conventional numeric
//! filter on price, exercising the mixed LLM/relational pipelines the paper
//! emphasizes.

use crate::text::{Prng, Topic};
use crate::Document;
use serde::{Deserialize, Serialize};

/// The demo's semantic filter.
pub const FILTER_PREDICATE: &str = "The listings describe modern homes with a garden";

const STREETS: &[&str] = &[
    "Maple Street",
    "Harborview Road",
    "Birchwood Lane",
    "Commonwealth Avenue",
    "Juniper Court",
    "Windmill Terrace",
    "Granite Way",
    "Silver Birch Drive",
];

const CITIES: &[&str] = &[
    "Cambridge",
    "Somerville",
    "Brookline",
    "Medford",
    "Arlington",
];

const MODERN_TOPIC: Topic = Topic {
    name: "modern-home",
    subjects: &[
        "this modern home",
        "the newly renovated modern home",
        "this sleek contemporary modern home",
    ],
    verbs: &["features", "offers", "showcases"],
    objects: &[
        "an open floor plan with floor to ceiling windows",
        "a chef kitchen with smart appliances",
        "polished concrete floors and minimalist finishes",
    ],
    modifiers: &[
        "steps from the park",
        "with solar panels included",
        "and radiant heating throughout",
    ],
};

const CLASSIC_TOPIC: Topic = Topic {
    name: "classic-home",
    subjects: &[
        "this charming victorian property",
        "the classic colonial house",
        "this historic brick residence",
    ],
    verbs: &["retains", "preserves", "boasts"],
    objects: &[
        "original hardwood details and crown molding",
        "a traditional fireplace and formal dining room",
        "period woodwork and stained glass",
    ],
    modifiers: &[
        "on a quiet street",
        "near the historic district",
        "with classic curb appeal",
    ],
};

const GARDEN_SENTENCE: &str =
    "The landscaped garden offers mature trees, a patio, and raised flower beds.";
const NO_GARDEN_SENTENCE: &str = "A shared rooftop deck and a private garage complete the package.";

/// Ground truth for one listing.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ListingTruth {
    pub id: String,
    pub address: String,
    pub price_usd: u64,
    pub bedrooms: u32,
    pub modern: bool,
    pub has_garden: bool,
}

impl ListingTruth {
    /// Truth for the demo's combined predicate: modern AND garden.
    pub fn matches_semantic_filter(&self) -> bool {
        self.modern && self.has_garden
    }
}

/// Corpus-level truth.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RealEstateTruth {
    pub listings: Vec<ListingTruth>,
}

impl RealEstateTruth {
    pub fn semantic_flags(&self) -> Vec<bool> {
        self.listings
            .iter()
            .map(|l| l.matches_semantic_filter())
            .collect()
    }

    pub fn matching_count(&self) -> usize {
        self.listings
            .iter()
            .filter(|l| l.matches_semantic_filter())
            .count()
    }
}

/// Generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct RealEstateConfig {
    pub n_listings: usize,
    pub modern_fraction: f64,
    pub garden_fraction: f64,
    pub seed: u64,
}

impl Default for RealEstateConfig {
    fn default() -> Self {
        Self {
            n_listings: 40,
            modern_fraction: 0.5,
            garden_fraction: 0.5,
            seed: 31,
        }
    }
}

/// Generate a listing corpus.
pub fn generate(cfg: RealEstateConfig) -> (Vec<Document>, RealEstateTruth) {
    let mut rng = Prng::new(cfg.seed);
    let mut docs = Vec::with_capacity(cfg.n_listings);
    let mut truth = RealEstateTruth::default();
    for i in 0..cfg.n_listings {
        let id = format!("listing-{i:04}");
        let modern = rng.unit() < cfg.modern_fraction;
        let has_garden = rng.unit() < cfg.garden_fraction;
        let address = format!(
            "{} {}, {}",
            rng.range(1, 200),
            rng.pick(STREETS),
            rng.pick(CITIES)
        );
        let price_usd = (rng.range(450, 3200) * 1000) as u64;
        let bedrooms = rng.range(1, 6) as u32;
        let topic = if modern {
            &MODERN_TOPIC
        } else {
            &CLASSIC_TOPIC
        };
        let garden_line = if has_garden {
            GARDEN_SENTENCE
        } else {
            NO_GARDEN_SENTENCE
        };
        let description = format!("{} {}", topic.paragraph(&mut rng, 2), garden_line);
        let content = format!(
            "Address: {address}\nPrice: {price_usd}\nBedrooms: {bedrooms}\nDescription: {description}\n"
        );
        docs.push(Document::new(id.clone(), format!("{id}.txt"), content));
        truth.listings.push(ListingTruth {
            id,
            address,
            price_usd,
            bedrooms,
            modern,
            has_garden,
        });
    }
    (docs, truth)
}

/// Fixed demo corpus: 20 listings.
///
/// Every call builds the same corpus afresh; the chat's `register_dataset`
/// builds it once per process and shares that parsed copy.
pub fn demo_corpus() -> (Vec<Document>, RealEstateTruth) {
    generate(RealEstateConfig {
        n_listings: 20,
        seed: 0xE57A7E,
        ..Default::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_is_deterministic_with_matches() {
        let (docs, truth) = demo_corpus();
        assert_eq!(docs.len(), 20);
        let m = truth.matching_count();
        assert!(m > 0 && m < 20, "need a non-trivial match set, got {m}");
        assert_eq!(demo_corpus().0, docs);
    }

    #[test]
    fn structured_fields_rendered() {
        let (docs, truth) = generate(RealEstateConfig::default());
        for (d, t) in docs.iter().zip(&truth.listings) {
            assert!(d.content.contains(&format!("Address: {}", t.address)));
            assert!(d.content.contains(&format!("Price: {}", t.price_usd)));
            assert!(d.content.contains(&format!("Bedrooms: {}", t.bedrooms)));
        }
    }

    #[test]
    fn modern_vocabulary_tracks_truth() {
        let (docs, truth) = generate(RealEstateConfig::default());
        for (d, t) in docs.iter().zip(&truth.listings) {
            let lower = d.content.to_lowercase();
            assert_eq!(
                t.modern,
                lower.contains("modern") || lower.contains("contemporary"),
                "{}",
                t.id
            );
        }
    }

    #[test]
    fn garden_vocabulary_tracks_truth() {
        let (docs, truth) = generate(RealEstateConfig::default());
        for (d, t) in docs.iter().zip(&truth.listings) {
            assert_eq!(t.has_garden, d.content.contains("garden"), "{}", t.id);
        }
    }

    #[test]
    fn price_range_sane() {
        let (_, truth) = generate(RealEstateConfig {
            n_listings: 100,
            ..Default::default()
        });
        for t in &truth.listings {
            assert!((450_000..=3_200_000).contains(&t.price_usd));
            assert!((1..=6).contains(&t.bedrooms));
        }
    }

    #[test]
    fn semantic_filter_is_conjunction() {
        let t = ListingTruth {
            id: "x".into(),
            address: "a".into(),
            price_usd: 1,
            bedrooms: 1,
            modern: true,
            has_garden: false,
        };
        assert!(!t.matches_semantic_filter());
        let t2 = ListingTruth {
            has_garden: true,
            ..t
        };
        assert!(t2.matches_semantic_filter());
    }
}
