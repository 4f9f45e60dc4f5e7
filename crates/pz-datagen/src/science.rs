//! Scientific-paper corpus (the paper's §3 use case).
//!
//! Medical researchers survey *colorectal cancer* literature and extract
//! references to publicly available datasets. The corpus mixes relevant
//! papers (colorectal-cancer studies, some carrying a "Data Availability"
//! section with dataset name / description / URL triples) with irrelevant
//! papers from other fields, including a *breast cancer* hard negative that
//! shares the word "cancer" but must not pass the filter.
//!
//! [`demo_corpus`] is the fixed 11-paper instance matching the paper's E1
//! numbers (6 extractable datasets among the relevant papers);
//! [`generate`] scales the same shape to arbitrary sizes for E8.

use crate::text::{Prng, Topic};
use crate::truth::DatasetMention;
use crate::Document;
use serde::{Deserialize, Serialize};

/// The natural-language filter used throughout the demo (Figure 6 line 5).
pub const FILTER_PREDICATE: &str = "The papers are about colorectal cancer";

/// Topic of relevant papers.
pub const CRC_TOPIC: Topic = Topic {
    name: "colorectal-cancer",
    subjects: &[
        "somatic gene mutation profiling",
        "the colorectal cancer cohort",
        "tumor cell sequencing",
        "our colorectal cancer screening study",
        "the KRAS mutation analysis",
    ],
    verbs: &[
        "reveals",
        "correlates with",
        "identifies",
        "characterizes",
        "quantifies",
    ],
    objects: &[
        "tumor progression in colorectal cancer patients",
        "microsatellite instability in colon tumor cells",
        "gene mutation burden across colorectal tumors",
        "survival outcomes for colorectal cancer",
        "epigenetic changes in colorectal adenocarcinoma",
    ],
    modifiers: &[
        "across large genomic cohorts",
        "using public proteomic datasets",
        "with high statistical power",
        "in stage II and III patients",
        "after chemotherapy treatment",
    ],
};

/// A hard negative: oncology vocabulary without "colorectal".
pub const BREAST_CANCER_TOPIC: Topic = Topic {
    name: "breast-cancer",
    subjects: &[
        "the breast cancer screening program",
        "HER2 receptor analysis",
        "mammography image review",
    ],
    verbs: &["detects", "stratifies", "predicts"],
    objects: &[
        "tumor subtypes in breast cancer patients",
        "recurrence risk after surgery",
        "hormone receptor status",
    ],
    modifiers: &[
        "in a national registry",
        "with deep learning",
        "across age groups",
    ],
};

/// Pool of plainly-irrelevant topics.
pub const OFF_TOPICS: &[Topic] = &[
    Topic {
        name: "astronomy",
        subjects: &[
            "the quasar survey",
            "our radio telescope pipeline",
            "spectral analysis",
        ],
        verbs: &["measures", "detects", "classifies"],
        objects: &[
            "redshift distributions",
            "galaxy cluster luminosity",
            "emission spectra",
        ],
        modifiers: &[
            "at high redshift",
            "in the southern sky",
            "with arcsecond precision",
        ],
    },
    Topic {
        name: "materials",
        subjects: &[
            "the solid electrolyte study",
            "our battery cathode analysis",
            "lattice simulation",
        ],
        verbs: &["improves", "characterizes", "models"],
        objects: &[
            "ionic conductivity",
            "charge cycling stability",
            "crystal defects",
        ],
        modifiers: &[
            "at room temperature",
            "over thousand cycles",
            "under strain",
        ],
    },
    Topic {
        name: "nlp",
        subjects: &[
            "the translation model",
            "our multilingual corpus",
            "the parser ensemble",
        ],
        verbs: &["outperforms", "aligns", "segments"],
        objects: &[
            "low resource language pairs",
            "sentence embeddings",
            "morphological analyses",
        ],
        modifiers: &[
            "on benchmark suites",
            "without supervision",
            "across domains",
        ],
    },
    Topic {
        name: "ecology",
        subjects: &[
            "the coral reef survey",
            "our acoustic monitoring",
            "species census modeling",
        ],
        verbs: &["tracks", "estimates", "maps"],
        objects: &[
            "biodiversity gradients",
            "habitat recovery",
            "population dynamics",
        ],
        modifiers: &[
            "after bleaching events",
            "in protected waters",
            "over decades",
        ],
    },
    Topic {
        name: "traffic",
        subjects: &[
            "the congestion model",
            "our sensor network",
            "route optimization",
        ],
        verbs: &["reduces", "predicts", "balances"],
        objects: &["commute delays", "intersection throughput", "vehicle flows"],
        modifiers: &[
            "during peak hours",
            "across the metro area",
            "with edge computing",
        ],
    },
];

/// Public CRC dataset pool planted into relevant papers.
pub const CRC_DATASETS: &[(&str, &str, &str)] = &[
    (
        "TCGA-COADREAD",
        "Colorectal adenocarcinoma multi omics cohort",
        "https://portal.gdc.cancer.gov/projects/TCGA-COADREAD",
    ),
    (
        "GSE39582",
        "Gene expression profiles of colon cancer tumors",
        "https://www.ncbi.nlm.nih.gov/geo/query/acc.cgi?acc=GSE39582",
    ),
    (
        "CPTAC-COAD",
        "Proteogenomic characterization of colon adenocarcinoma",
        "https://proteomics.cancer.gov/programs/cptac/colon",
    ),
    (
        "MSK-IMPACT-CRC",
        "Targeted sequencing of metastatic colorectal tumors",
        "https://www.cbioportal.org/study/summary?id=crc_msk_impact",
    ),
    (
        "ICGC-CRC-ES",
        "Whole genome sequences of colorectal cancer donors",
        "https://dcc.icgc.org/projects/COCA-CN",
    ),
    (
        "COSMIC-CRC-Signatures",
        "Somatic mutation signatures for colorectal cancers",
        "https://cancer.sanger.ac.uk/cosmic/signatures/colorectal",
    ),
    (
        "DepMap-CRC-Lines",
        "Dependency screens in colorectal cancer cell lines",
        "https://depmap.org/portal/context/colorectal",
    ),
    (
        "CRC-SC-Atlas",
        "Single cell atlas of colorectal tumor microenvironments",
        "https://www.colorectal-atlas.org/download",
    ),
];

/// Per-paper ground truth.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct PaperTruth {
    pub id: String,
    /// Is the paper about colorectal cancer (the filter's target)?
    pub relevant: bool,
    /// Dataset mentions planted in the paper (empty unless relevant).
    pub mentions: Vec<DatasetMention>,
}

/// Ground truth for a science corpus, ordered like the document list.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScienceTruth {
    pub papers: Vec<PaperTruth>,
}

impl ScienceTruth {
    /// Expected filter decisions, in document order.
    pub fn relevant_flags(&self) -> Vec<bool> {
        self.papers.iter().map(|p| p.relevant).collect()
    }

    /// All dataset mentions expected from the full pipeline (relevant
    /// papers only — irrelevant papers are filtered before extraction).
    pub fn expected_mentions(&self) -> Vec<DatasetMention> {
        self.papers
            .iter()
            .filter(|p| p.relevant)
            .flat_map(|p| p.mentions.iter().cloned())
            .collect()
    }

    pub fn relevant_count(&self) -> usize {
        self.papers.iter().filter(|p| p.relevant).count()
    }
}

/// Corpus generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct ScienceConfig {
    pub n_papers: usize,
    /// Fraction of papers about colorectal cancer.
    pub relevant_fraction: f64,
    /// Probability a relevant paper carries a Data Availability section.
    pub with_data_fraction: f64,
    pub seed: u64,
}

impl Default for ScienceConfig {
    fn default() -> Self {
        Self {
            n_papers: 100,
            relevant_fraction: 0.4,
            with_data_fraction: 0.8,
            seed: 11,
        }
    }
}

fn render_paper(rng: &mut Prng, topic: &Topic, title: &str, mentions: &[DatasetMention]) -> String {
    let mut s = String::new();
    s.push_str(&format!("Title: {title}\n"));
    s.push_str(&format!(
        "Authors: {} et al.\n",
        ["Chen", "Okafor", "Martinez", "Novak", "Singh", "Dubois"][rng.below(6)]
    ));
    s.push_str(&format!("Abstract: {}\n\n", topic.paragraph(rng, 4)));
    // Full-length body (~4k tokens) so per-call token counts, costs and
    // latencies land in the same regime as the real 10-page PDFs the demo
    // processed.
    let sections: &[(&str, usize, usize)] = &[
        ("Introduction", 3, 8),
        ("Background", 2, 8),
        ("Methods", 3, 8),
        ("Results", 3, 8),
        ("Related Work", 2, 8),
        ("Discussion", 2, 8),
    ];
    for (heading, paragraphs, sentences) in sections {
        s.push_str(&format!("{heading}.\n"));
        for _ in 0..*paragraphs {
            s.push_str(&topic.paragraph(rng, *sentences));
            s.push('\n');
        }
        s.push('\n');
    }
    if !mentions.is_empty() {
        s.push_str("Data Availability. The following public datasets support this study.\n");
        for m in mentions {
            s.push_str(&format!("Dataset: {}\n", m.name));
            s.push_str(&format!("Description: {}\n", m.description));
            s.push_str(&format!("URL: {}\n", m.url));
        }
        s.push('\n');
    }
    s.push_str(&format!("Conclusion. {}\n", topic.paragraph(rng, 3)));
    s
}

fn mention_from_pool(idx: usize) -> DatasetMention {
    let (name, desc, url) = CRC_DATASETS[idx % CRC_DATASETS.len()];
    DatasetMention {
        name: name.into(),
        description: desc.into(),
        url: url.into(),
    }
}

/// Generate a corpus of `cfg.n_papers` papers.
pub fn generate(cfg: ScienceConfig) -> (Vec<Document>, ScienceTruth) {
    let mut rng = Prng::new(cfg.seed);
    let mut docs = Vec::with_capacity(cfg.n_papers);
    let mut truth = ScienceTruth::default();
    for i in 0..cfg.n_papers {
        let id = format!("paper-{i:04}");
        let relevant = rng.unit() < cfg.relevant_fraction;
        let (topic, title, mentions) = if relevant {
            let n_mentions = if rng.unit() < cfg.with_data_fraction {
                rng.range(1, 3)
            } else {
                0
            };
            let start = rng.below(CRC_DATASETS.len());
            let mentions: Vec<DatasetMention> = (0..n_mentions)
                .map(|k| mention_from_pool(start + k))
                .collect();
            let title = format!(
                "Colorectal cancer study {i}: {}",
                CRC_TOPIC.sentence(&mut rng).trim_end_matches('.')
            );
            (&CRC_TOPIC, title, mentions)
        } else if rng.unit() < 0.15 {
            // Hard negatives: oncology-adjacent but not colorectal.
            let title = format!(
                "Breast cancer study {i}: {}",
                BREAST_CANCER_TOPIC.sentence(&mut rng).trim_end_matches('.')
            );
            (&BREAST_CANCER_TOPIC, title, Vec::new())
        } else {
            let topic = &OFF_TOPICS[rng.below(OFF_TOPICS.len())];
            let title = format!(
                "{} study {i}: {}",
                topic.name,
                topic.sentence(&mut rng).trim_end_matches('.')
            );
            (topic, title, Vec::new())
        };
        let content = render_paper(&mut rng, topic, &title, &mentions);
        docs.push(Document::new(id.clone(), format!("{id}.pdf"), content));
        truth.papers.push(PaperTruth {
            id,
            relevant,
            mentions,
        });
    }
    (docs, truth)
}

/// The fixed 11-paper demo corpus of E1: 5 colorectal-cancer papers
/// carrying 6 dataset mentions in total (paper 0 carries two), plus 6
/// irrelevant papers including one breast-cancer hard negative.
///
/// Every call builds the same corpus afresh; the chat's `register_dataset`
/// builds it once per process and shares that parsed copy.
pub fn demo_corpus() -> (Vec<Document>, ScienceTruth) {
    let mut rng = Prng::new(0xD3_A0);
    let mut docs = Vec::new();
    let mut truth = ScienceTruth::default();

    // Relevant papers with planted datasets: counts 2,1,1,1,1 -> 6 total.
    let mention_counts = [2usize, 1, 1, 1, 1];
    let mut pool_idx = 0usize;
    for (i, &count) in mention_counts.iter().enumerate() {
        let id = format!("paper-{i:03}");
        let mentions: Vec<DatasetMention> = (0..count)
            .map(|_| {
                let m = mention_from_pool(pool_idx);
                pool_idx += 1;
                m
            })
            .collect();
        let title = format!(
            "Colorectal cancer study {i}: {}",
            CRC_TOPIC.sentence(&mut rng).trim_end_matches('.')
        );
        let content = render_paper(&mut rng, &CRC_TOPIC, &title, &mentions);
        docs.push(Document::new(id.clone(), format!("{id}.pdf"), content));
        truth.papers.push(PaperTruth {
            id,
            relevant: true,
            mentions,
        });
    }

    // Irrelevant papers: 5 off-topic + 1 breast-cancer hard negative.
    for (j, topic) in OFF_TOPICS.iter().chain([&BREAST_CANCER_TOPIC]).enumerate() {
        let i = mention_counts.len() + j;
        let id = format!("paper-{i:03}");
        let title = format!(
            "{} study {i}: {}",
            topic.name,
            topic.sentence(&mut rng).trim_end_matches('.')
        );
        let content = render_paper(&mut rng, topic, &title, &[]);
        docs.push(Document::new(id.clone(), format!("{id}.pdf"), content));
        truth.papers.push(PaperTruth {
            id,
            relevant: false,
            mentions: Vec::new(),
        });
    }
    (docs, truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_corpus_matches_paper_shape() {
        let (docs, truth) = demo_corpus();
        assert_eq!(docs.len(), 11, "the demo ran on 11 papers");
        assert_eq!(truth.relevant_count(), 5);
        assert_eq!(truth.expected_mentions().len(), 6, "6 extractable datasets");
    }

    #[test]
    fn demo_corpus_is_deterministic() {
        let (a, _) = demo_corpus();
        let (b, _) = demo_corpus();
        assert_eq!(a, b);
    }

    #[test]
    fn relevant_papers_mention_colorectal() {
        let (docs, truth) = demo_corpus();
        for (doc, t) in docs.iter().zip(&truth.papers) {
            let lower = doc.content.to_lowercase();
            if t.relevant {
                assert!(lower.contains("colorectal"), "{}", doc.id);
                assert!(lower.contains("cancer"), "{}", doc.id);
            } else {
                assert!(!lower.contains("colorectal"), "{}", doc.id);
            }
        }
    }

    #[test]
    fn hard_negative_contains_cancer_but_not_colorectal() {
        let (docs, truth) = demo_corpus();
        let hard: Vec<&Document> = docs
            .iter()
            .zip(&truth.papers)
            .filter(|(d, t)| !t.relevant && d.content.to_lowercase().contains("cancer"))
            .map(|(d, _)| d)
            .collect();
        assert!(
            !hard.is_empty(),
            "demo must include an oncology hard negative"
        );
    }

    #[test]
    fn mentions_are_rendered_in_content() {
        let (docs, truth) = demo_corpus();
        for (doc, t) in docs.iter().zip(&truth.papers) {
            for m in &t.mentions {
                assert!(
                    doc.content.contains(&m.name),
                    "{} missing {}",
                    doc.id,
                    m.name
                );
                assert!(doc.content.contains(&m.url));
            }
        }
    }

    #[test]
    fn generate_respects_size() {
        let (docs, truth) = generate(ScienceConfig {
            n_papers: 50,
            ..Default::default()
        });
        assert_eq!(docs.len(), 50);
        assert_eq!(truth.papers.len(), 50);
    }

    #[test]
    fn generate_is_deterministic_per_seed() {
        let cfg = ScienceConfig {
            n_papers: 20,
            ..Default::default()
        };
        assert_eq!(generate(cfg).0, generate(cfg).0);
        let other = ScienceConfig { seed: 99, ..cfg };
        assert_ne!(generate(cfg).0, generate(other).0);
    }

    #[test]
    fn generate_relevant_fraction_approximate() {
        let (_, truth) = generate(ScienceConfig {
            n_papers: 400,
            relevant_fraction: 0.4,
            ..Default::default()
        });
        let frac = truth.relevant_count() as f64 / 400.0;
        assert!((0.3..0.5).contains(&frac), "fraction {frac}");
    }

    #[test]
    fn irrelevant_papers_have_no_mentions() {
        let (_, truth) = generate(ScienceConfig {
            n_papers: 100,
            ..Default::default()
        });
        for p in &truth.papers {
            if !p.relevant {
                assert!(p.mentions.is_empty());
            }
        }
    }

    #[test]
    fn unique_ids_and_filenames() {
        let (docs, _) = generate(ScienceConfig {
            n_papers: 30,
            ..Default::default()
        });
        let mut ids: Vec<&str> = docs.iter().map(|d| d.id.as_str()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 30);
    }
}
