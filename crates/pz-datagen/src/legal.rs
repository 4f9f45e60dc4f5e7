//! Legal-discovery corpus (second demo scenario, paper abstract).
//!
//! An e-mail archive searched for messages *responsive* to a merger
//! investigation, with attorney-client-privileged threads that must be
//! flagged. Each message carries structured headers (From / To / Date /
//! Subject) the extraction schema pulls out, and a prose body whose
//! vocabulary decides responsiveness.

use crate::text::{capitalize, Prng, Topic};
use crate::Document;
use serde::{Deserialize, Serialize};

/// The demo filter: messages about the Acme–Initech merger.
pub const FILTER_PREDICATE: &str = "The emails discuss the acme initech merger";

/// Extra predicate used to separate privileged material.
pub const PRIVILEGE_PREDICATE: &str = "The emails contain privileged attorney client legal advice";

// Deal-team members write the responsive mail; the wider company mixes in
// off-topic traffic from other domains, so header addresses alone do not
// decide responsiveness.
const DEAL_PEOPLE: &[(&str, &str)] = &[
    ("alice.nguyen", "acme.com"),
    ("bob.feldman", "acme.com"),
    ("carol.diaz", "initech.com"),
    ("dmitri.petrov", "initech.com"),
    ("erin.walsh", "outsidecounsel.law"),
];

const OFFICE_PEOPLE: &[(&str, &str)] = &[
    ("frank.osei", "globex.com"),
    ("grace.kim", "soylent.com"),
    ("henry.ito", "globex.com"),
    ("iris.moreau", "umbrella.org"),
    ("jack.owens", "soylent.com"),
];

const MERGER_TOPIC: Topic = Topic {
    name: "merger",
    subjects: &[
        "the acme initech merger agreement",
        "the due diligence data room",
        "the merger valuation model",
        "the antitrust review for the acme initech deal",
    ],
    verbs: &["requires", "updates", "delays", "finalizes"],
    objects: &[
        "the disclosure schedules",
        "the share exchange ratio",
        "the integration timeline",
        "the regulatory filing",
    ],
    modifiers: &[
        "before the board meeting",
        "under the confidentiality agreement",
        "by end of quarter",
        "per the letter of intent",
    ],
};

const OFFTOPIC: Topic = Topic {
    name: "office",
    subjects: &[
        "the quarterly sales report",
        "the team offsite plan",
        "the new expense policy",
        "the cafeteria menu",
    ],
    verbs: &["covers", "announces", "changes", "schedules"],
    objects: &[
        "travel reimbursements",
        "the friday social",
        "printer upgrades",
        "parking permits",
    ],
    modifiers: &[
        "next week",
        "for all staff",
        "effective immediately",
        "in building two",
    ],
};

const PRIVILEGE_MARKER: &str =
    "This thread is attorney client privileged and contains confidential legal advice from counsel.";

/// Ground truth for one e-mail.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct EmailTruth {
    pub id: String,
    /// Responsive to the merger investigation?
    pub responsive: bool,
    /// Attorney-client privileged?
    pub privileged: bool,
    pub sender: String,
    pub recipient: String,
    pub date: String,
    pub subject: String,
}

/// Corpus-level truth, ordered like the documents.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LegalTruth {
    pub emails: Vec<EmailTruth>,
}

impl LegalTruth {
    pub fn responsive_flags(&self) -> Vec<bool> {
        self.emails.iter().map(|e| e.responsive).collect()
    }

    pub fn privileged_flags(&self) -> Vec<bool> {
        self.emails.iter().map(|e| e.privileged).collect()
    }

    pub fn responsive_count(&self) -> usize {
        self.emails.iter().filter(|e| e.responsive).count()
    }
}

/// Generation parameters.
#[derive(Clone, Copy, Debug)]
pub struct LegalConfig {
    pub n_emails: usize,
    pub responsive_fraction: f64,
    /// Fraction of *responsive* mails that are privileged.
    pub privileged_fraction: f64,
    pub seed: u64,
}

impl Default for LegalConfig {
    fn default() -> Self {
        Self {
            n_emails: 60,
            responsive_fraction: 0.35,
            privileged_fraction: 0.3,
            seed: 23,
        }
    }
}

fn date_for(rng: &mut Prng) -> String {
    format!("2023-{:02}-{:02}", rng.range(1, 12), rng.range(1, 28))
}

/// Generate an e-mail corpus.
pub fn generate(cfg: LegalConfig) -> (Vec<Document>, LegalTruth) {
    let mut rng = Prng::new(cfg.seed);
    let mut docs = Vec::with_capacity(cfg.n_emails);
    let mut truth = LegalTruth::default();
    for i in 0..cfg.n_emails {
        let id = format!("email-{i:04}");
        let responsive = rng.unit() < cfg.responsive_fraction;
        let privileged = responsive && rng.unit() < cfg.privileged_fraction;
        let pool = if responsive {
            DEAL_PEOPLE
        } else {
            OFFICE_PEOPLE
        };
        let (sender_u, sender_d) = *rng.pick(pool);
        let (mut rcpt_u, mut rcpt_d) = *rng.pick(pool);
        while rcpt_u == sender_u {
            let p = *rng.pick(pool);
            rcpt_u = p.0;
            rcpt_d = p.1;
        }
        let sender = format!("{sender_u}@{sender_d}");
        let recipient = format!("{rcpt_u}@{rcpt_d}");
        let date = date_for(&mut rng);
        let topic = if responsive { &MERGER_TOPIC } else { &OFFTOPIC };
        let subject = capitalize(topic.sentence(&mut rng).trim_end_matches('.'));
        let n_sentences = rng.range(2, 5);
        let mut body = topic.paragraph(&mut rng, n_sentences);
        if privileged {
            body = format!("{PRIVILEGE_MARKER} {body}");
        }
        let content = format!(
            "From: {sender}\nTo: {recipient}\nDate: {date}\nSubject: {subject}\n\n{body}\n"
        );
        docs.push(Document::new(id.clone(), format!("{id}.eml"), content));
        truth.emails.push(EmailTruth {
            id,
            responsive,
            privileged,
            sender,
            recipient,
            date,
            subject,
        });
    }
    (docs, truth)
}

/// Fixed small corpus for the chat demo: 12 mails, 5 responsive of which 2
/// privileged.
///
/// Every call builds the same corpus afresh; the chat's `register_dataset`
/// builds it once per process and shares that parsed copy.
pub fn demo_corpus() -> (Vec<Document>, LegalTruth) {
    // Search a seed once at authoring time? No — derive deterministically:
    // generate a slightly larger pool and take the first mails satisfying
    // the demo quota, preserving order.
    let (docs, truth) = generate(LegalConfig {
        n_emails: 64,
        responsive_fraction: 0.4,
        privileged_fraction: 0.45,
        seed: 0x1E6A,
    });
    let mut out_docs = Vec::new();
    let mut out_truth = LegalTruth::default();
    let (mut want_priv, mut want_resp, mut want_off) = (2usize, 3usize, 7usize);
    for (d, t) in docs.into_iter().zip(truth.emails) {
        let take = if t.privileged && want_priv > 0 {
            want_priv -= 1;
            true
        } else if t.responsive && !t.privileged && want_resp > 0 {
            want_resp -= 1;
            true
        } else if !t.responsive && want_off > 0 {
            want_off -= 1;
            true
        } else {
            false
        };
        if take {
            out_docs.push(d);
            out_truth.emails.push(t);
        }
    }
    assert_eq!(
        want_priv + want_resp + want_off,
        0,
        "seed pool exhausted before demo quota was met"
    );
    (out_docs, out_truth)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_corpus_quota() {
        let (docs, truth) = demo_corpus();
        assert_eq!(docs.len(), 12);
        assert_eq!(truth.responsive_count(), 5);
        assert_eq!(truth.privileged_flags().iter().filter(|p| **p).count(), 2);
    }

    #[test]
    fn headers_match_truth() {
        let (docs, truth) = generate(LegalConfig::default());
        for (d, t) in docs.iter().zip(&truth.emails) {
            assert!(d.content.contains(&format!("From: {}", t.sender)));
            assert!(d.content.contains(&format!("To: {}", t.recipient)));
            assert!(d.content.contains(&format!("Date: {}", t.date)));
            assert!(d.content.contains(&format!("Subject: {}", t.subject)));
        }
    }

    #[test]
    fn responsive_mails_mention_merger_vocabulary() {
        let (docs, truth) = generate(LegalConfig::default());
        for (d, t) in docs.iter().zip(&truth.emails) {
            let lower = d.content.to_lowercase();
            if t.responsive {
                assert!(
                    lower.contains("acme") || lower.contains("merger"),
                    "{} lacks merger vocabulary",
                    t.id
                );
            } else {
                assert!(!lower.contains("merger"), "{} should be off-topic", t.id);
            }
        }
    }

    #[test]
    fn privileged_mails_carry_marker() {
        let (docs, truth) = generate(LegalConfig {
            n_emails: 100,
            privileged_fraction: 1.0,
            ..Default::default()
        });
        for (d, t) in docs.iter().zip(&truth.emails) {
            assert_eq!(
                t.privileged,
                d.content.contains("attorney client privileged")
            );
        }
    }

    #[test]
    fn privilege_implies_responsive() {
        let (_, truth) = generate(LegalConfig {
            n_emails: 200,
            ..Default::default()
        });
        for t in &truth.emails {
            if t.privileged {
                assert!(t.responsive);
            }
        }
    }

    #[test]
    fn sender_differs_from_recipient() {
        let (_, truth) = generate(LegalConfig {
            n_emails: 100,
            ..Default::default()
        });
        for t in &truth.emails {
            assert_ne!(t.sender, t.recipient);
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(
            generate(LegalConfig::default()).0,
            generate(LegalConfig::default()).0
        );
    }
}
