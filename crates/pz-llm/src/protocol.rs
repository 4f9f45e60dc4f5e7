//! Structured prompt protocol.
//!
//! Palimpzest's physical operators communicate with models through prompts.
//! So the simulated client can respond meaningfully *and* real clients could
//! be substituted later, the operators emit a small structured dialect with
//! an unambiguous grammar:
//!
//! ```text
//! #TASK filter
//! #PREDICATE The papers are about colorectal cancer
//! #INPUT
//! <free text...>
//! ```
//!
//! Tasks: `filter` (boolean judgement), `extract` (schema-directed field
//! extraction, one-to-one or one-to-many), `classify` (pick one label), and
//! `generate` (free-form instruction following). Responses are plain text:
//! `TRUE`/`FALSE` for filters, one JSON object per line for extractions, the
//! label for classification.
//!
//! This module owns both directions: building prompts (used by `pz-core`)
//! and parsing them (used by [`crate::sim`]), plus response parsing. Keeping
//! both sides in one place makes round-trip property tests possible.
//!
//! Building a prompt is the one place a document is copied. Parsing copies
//! nothing: a [`Task`] is slices of the prompt it came from, and the input
//! is found by position — what follows the `#INPUT` line — whether header
//! lines end in `\n` or `\r\n`.

use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;

/// A field requested from an `extract` task.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct FieldSpec {
    /// Machine name, e.g. `dataset_name`. No `|` or newlines allowed.
    pub name: String,
    /// Natural-language description, e.g. "The public URL of the dataset".
    pub description: String,
}

impl FieldSpec {
    pub fn new(name: impl Into<String>, description: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            description: description.into(),
        }
    }
}

/// Output cardinality of an extraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Cardinality {
    /// One output object per input record.
    OneToOne,
    /// Zero or more output objects per input record.
    OneToMany,
}

/// Reasoning effort requested from the model. `High` stands in for
/// self-critique / ensemble prompting: roughly double the token budget in
/// exchange for a lower error rate. It is one of the physical-plan knobs
/// Palimpzest's optimizer explores.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum Effort {
    #[default]
    Standard,
    High,
}

/// Separator between the two sides of a `match` task's input.
pub const MATCH_SEPARATOR: &str = "\n#===RIGHT===#\n";

/// A field of a parsed `extract` task: [`FieldSpec`] borrowed from the prompt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FieldRef<'a> {
    pub name: &'a str,
    pub description: &'a str,
}

/// A parsed structured prompt. Every string is a slice of the prompt it was
/// parsed from — the document in particular is not copied out again.
#[derive(Clone, Debug, PartialEq)]
pub enum Task<'a> {
    Filter {
        predicate: &'a str,
        input: &'a str,
        effort: Effort,
    },
    Extract {
        fields: Vec<FieldRef<'a>>,
        cardinality: Cardinality,
        input: &'a str,
        effort: Effort,
    },
    Classify {
        labels: Vec<&'a str>,
        input: &'a str,
    },
    Generate {
        instruction: &'a str,
        input: &'a str,
    },
    /// Judge whether two records match under a natural-language criterion
    /// (semantic join).
    Match {
        criterion: &'a str,
        left: &'a str,
        right: &'a str,
        effort: Effort,
    },
}

/// `s` on one line: line breaks become spaces. Borrows `s` when it has none.
fn sanitize_line(s: &str) -> Cow<'_, str> {
    if s.contains(['\n', '\r']) {
        Cow::Owned(s.replace(['\n', '\r'], " "))
    } else {
        Cow::Borrowed(s)
    }
}

/// Build a `filter` prompt at standard effort.
pub fn filter_prompt(predicate: &str, input: &str) -> String {
    filter_prompt_with_effort(predicate, input, Effort::Standard)
}

/// Build a `filter` prompt with an explicit effort level.
pub fn filter_prompt_with_effort(predicate: &str, input: &str, effort: Effort) -> String {
    [
        "#TASK filter\n#PREDICATE ",
        &sanitize_line(predicate),
        "\n",
        effort_header(effort),
        "#INPUT\n",
        input,
    ]
    .concat()
}

fn effort_header(effort: Effort) -> &'static str {
    match effort {
        Effort::Standard => "",
        Effort::High => "#EFFORT high\n",
    }
}

/// Build an `extract` prompt at standard effort.
pub fn extract_prompt(fields: &[FieldSpec], cardinality: Cardinality, input: &str) -> String {
    extract_prompt_with_effort(fields, cardinality, input, Effort::Standard)
}

/// Build an `extract` prompt with an explicit effort level.
pub fn extract_prompt_with_effort(
    fields: &[FieldSpec],
    cardinality: Cardinality,
    input: &str,
    effort: Effort,
) -> String {
    let card = match cardinality {
        Cardinality::OneToOne => "one",
        Cardinality::OneToMany => "many",
    };
    let header = effort_header(effort);
    // The exact length, so the prompt is built in one allocation: per field
    // its name in `#FIELDS` and its `#DESC` line, and the `|` between names.
    let fields_len: usize = fields
        .iter()
        .map(|f| 2 * f.name.len() + f.description.len() + "#DESC : \n".len())
        .sum::<usize>()
        + fields.len().saturating_sub(1);
    let mut s = String::with_capacity(
        "#TASK extract\n#FIELDS \n#CARDINALITY \n#INPUT\n".len()
            + header.len()
            + fields_len
            + card.len()
            + input.len(),
    );
    s.push_str("#TASK extract\n");
    s.push_str(header);
    s.push_str("#FIELDS ");
    for (i, f) in fields.iter().enumerate() {
        if i > 0 {
            s.push('|');
        }
        s.push_str(&f.name);
    }
    s.push('\n');
    for f in fields {
        for part in [
            "#DESC ",
            &sanitize_line(&f.name),
            ": ",
            &sanitize_line(&f.description),
            "\n",
        ] {
            s.push_str(part);
        }
    }
    for part in ["#CARDINALITY ", card, "\n#INPUT\n", input] {
        s.push_str(part);
    }
    s
}

/// Build a `classify` prompt at standard effort.
pub fn classify_prompt(labels: &[String], input: &str) -> String {
    classify_prompt_with_effort(labels, input, Effort::Standard)
}

/// Build a `classify` prompt with an explicit effort level.
pub fn classify_prompt_with_effort(labels: &[String], input: &str, effort: Effort) -> String {
    format!(
        "#TASK classify\n#LABELS {}\n{}#INPUT\n{}",
        labels
            .iter()
            .map(|l| sanitize_line(l))
            .collect::<Vec<_>>()
            .join("|"),
        effort_header(effort),
        input
    )
}

/// Build a `match` prompt (semantic join pair judgement).
pub fn match_prompt(criterion: &str, left: &str, right: &str, effort: Effort) -> String {
    format!(
        "#TASK match\n#CRITERION {}\n{}#INPUT\n{}{}{}",
        sanitize_line(criterion),
        effort_header(effort),
        left,
        MATCH_SEPARATOR,
        right
    )
}

/// Build a `generate` prompt.
pub fn generate_prompt(instruction: &str, input: &str) -> String {
    format!(
        "#TASK generate\n#INSTRUCTION {}\n#INPUT\n{}",
        sanitize_line(instruction),
        input
    )
}

/// Parse a structured prompt. Returns `None` for free-form prompts that do
/// not follow the dialect (the simulator falls back to echo behaviour).
///
/// Header lines may end in `\n` or `\r\n`. The input is whatever follows the
/// `#INPUT` line, found by splitting there — never by adding up line
/// lengths, which goes wrong (and can land inside a character) as soon as a
/// line end is two bytes.
pub fn parse_prompt(prompt: &str) -> Option<Task<'_>> {
    let rest = prompt.strip_prefix("#TASK ")?;
    let (task_name, rest) = rest.split_once('\n')?;
    let mut headers: Vec<(&str, &str)> = Vec::new();
    let mut input = "";
    // Walk header lines until #INPUT; everything after is verbatim input.
    let mut tail = rest;
    while !tail.is_empty() {
        let (line, after) = match tail.split_once('\n') {
            Some((line, after)) => (line.strip_suffix('\r').unwrap_or(line), after),
            None => (tail, ""),
        };
        if line == "#INPUT" {
            input = after;
            break;
        }
        if let Some(h) = line.strip_prefix('#') {
            headers.push(h.split_once(' ').unwrap_or((h, "")));
        }
        tail = after;
    }
    let header =
        |key: &str| -> Option<&str> { headers.iter().find(|(k, _)| *k == key).map(|(_, v)| *v) };
    let effort = match header("EFFORT") {
        Some("high") => Effort::High,
        _ => Effort::Standard,
    };
    fn list(values: &str) -> Vec<&str> {
        values
            .split('|')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .collect()
    }
    match task_name.trim() {
        "filter" => Some(Task::Filter {
            predicate: header("PREDICATE")?,
            input,
            effort,
        }),
        "extract" => {
            // A field's description is its last `#DESC name: …` header.
            let description = |name: &str| {
                headers
                    .iter()
                    .rev()
                    .filter(|(k, _)| *k == "DESC")
                    .filter_map(|(_, v)| v.split_once(':'))
                    .find(|(n, _)| n.trim() == name)
                    .map_or("", |(_, d)| d.trim())
            };
            let fields = list(header("FIELDS")?)
                .into_iter()
                .map(|name| FieldRef {
                    name,
                    description: description(name),
                })
                .collect();
            let cardinality = match header("CARDINALITY") {
                Some("many") => Cardinality::OneToMany,
                _ => Cardinality::OneToOne,
            };
            Some(Task::Extract {
                fields,
                cardinality,
                input,
                effort,
            })
        }
        "classify" => Some(Task::Classify {
            labels: list(header("LABELS")?),
            input,
        }),
        "generate" => Some(Task::Generate {
            instruction: header("INSTRUCTION")?,
            input,
        }),
        "match" => {
            let (left, right) = input.split_once(MATCH_SEPARATOR)?;
            Some(Task::Match {
                criterion: header("CRITERION")?,
                left,
                right,
                effort,
            })
        }
        _ => None,
    }
}

/// Parse a boolean filter response ("TRUE" / "FALSE", case-insensitive,
/// tolerating surrounding prose the way real LLM responses require).
pub fn parse_bool_response(resp: &str) -> Option<bool> {
    let lower = resp.to_ascii_lowercase();
    let t = lower.contains("true");
    let f = lower.contains("false");
    match (t, f) {
        (true, false) => Some(true),
        (false, true) => Some(false),
        _ => None,
    }
}

/// Parse an extraction response: one JSON object per non-empty line, each
/// mapping field name to string-or-null.
pub fn parse_extraction_response(resp: &str) -> Vec<BTreeMap<String, Option<String>>> {
    resp.lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| serde_json::from_str::<BTreeMap<String, Option<String>>>(l.trim()).ok())
        .collect()
}

/// Serialize extraction objects to the response wire format.
pub fn format_extraction_response(objs: &[BTreeMap<String, Option<String>>]) -> String {
    objs.iter()
        .map(|o| serde_json::to_string(o).expect("string maps always serialize"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn owned(fields: &[FieldRef<'_>]) -> Vec<FieldSpec> {
        fields
            .iter()
            .map(|f| FieldSpec::new(f.name, f.description))
            .collect()
    }

    #[test]
    fn filter_round_trip() {
        let p = filter_prompt("about colorectal cancer", "Title: X\nBody text.");
        match parse_prompt(&p) {
            Some(Task::Filter {
                predicate, input, ..
            }) => {
                assert_eq!(predicate, "about colorectal cancer");
                assert_eq!(input, "Title: X\nBody text.");
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn extract_round_trip() {
        let fields = vec![
            FieldSpec::new("name", "The dataset name"),
            FieldSpec::new("url", "The public URL"),
        ];
        let p = extract_prompt(&fields, Cardinality::OneToMany, "doc body");
        match parse_prompt(&p) {
            Some(Task::Extract {
                fields: f2,
                cardinality,
                input,
                ..
            }) => {
                assert_eq!(owned(&f2), fields);
                assert_eq!(cardinality, Cardinality::OneToMany);
                assert_eq!(input, "doc body");
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn classify_round_trip() {
        let labels = vec!["science".to_string(), "legal".to_string()];
        let p = classify_prompt(&labels, "text");
        match parse_prompt(&p) {
            Some(Task::Classify { labels: l2, input }) => {
                assert_eq!(l2, labels);
                assert_eq!(input, "text");
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn generate_round_trip() {
        let p = generate_prompt("summarize", "long text here");
        match parse_prompt(&p) {
            Some(Task::Generate { instruction, input }) => {
                assert_eq!(instruction, "summarize");
                assert_eq!(input, "long text here");
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn match_round_trip() {
        let p = match_prompt(
            "the records refer to the same dataset",
            "TCGA-COADREAD",
            "TCGA COADREAD cohort",
            Effort::High,
        );
        match parse_prompt(&p) {
            Some(Task::Match {
                criterion,
                left,
                right,
                effort,
            }) => {
                assert_eq!(criterion, "the records refer to the same dataset");
                assert_eq!(left, "TCGA-COADREAD");
                assert_eq!(right, "TCGA COADREAD cohort");
                assert_eq!(effort, Effort::High);
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn match_without_separator_is_unparseable() {
        assert_eq!(
            parse_prompt("#TASK match\n#CRITERION c\n#INPUT\nonly one side"),
            None
        );
    }

    #[test]
    fn free_form_is_none() {
        assert_eq!(parse_prompt("What is the capital of France?"), None);
        assert_eq!(parse_prompt("#TASK dance\n#INPUT\nx"), None);
    }

    #[test]
    fn predicate_newlines_sanitized() {
        let p = filter_prompt("line1\nline2", "body");
        match parse_prompt(&p).unwrap() {
            Task::Filter { predicate, .. } => assert_eq!(predicate, "line1 line2"),
            _ => unreachable!(),
        }
    }

    #[test]
    fn prompts_are_the_formatted_prompts() {
        // The `format!` / `writeln!` builders these replaced.
        fn filter_formatted(predicate: &str, input: &str, effort: Effort) -> String {
            format!(
                "#TASK filter\n#PREDICATE {}\n{}#INPUT\n{}",
                predicate.replace(['\n', '\r'], " "),
                effort_header(effort),
                input
            )
        }
        fn extract_formatted(
            fields: &[FieldSpec],
            card: Cardinality,
            input: &str,
            effort: Effort,
        ) -> String {
            use std::fmt::Write as _;
            let line = |s: &str| s.replace(['\n', '\r'], " ");
            let mut s = String::from("#TASK extract\n");
            s.push_str(effort_header(effort));
            let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
            let _ = writeln!(s, "#FIELDS {}", names.join("|"));
            for f in fields {
                let _ = writeln!(s, "#DESC {}: {}", line(&f.name), line(&f.description));
            }
            let card = match card {
                Cardinality::OneToOne => "one",
                Cardinality::OneToMany => "many",
            };
            let _ = writeln!(s, "#CARDINALITY {card}");
            s.push_str("#INPUT\n");
            s.push_str(input);
            s
        }
        let field_sets = [
            vec![],
            vec![FieldSpec::new("dataset", "the public dataset\r\nused")],
            vec![
                FieldSpec::new("name", "Name"),
                FieldSpec::new("a\nb", ""),
                FieldSpec::new("é", "数据 set"),
            ],
        ];
        for effort in [Effort::Standard, Effort::High] {
            for input in ["", "Title: X\nBody é.", "#INPUT\nnested"] {
                for predicate in ["about cancer", "two\nlines\r", ""] {
                    assert_eq!(
                        filter_prompt_with_effort(predicate, input, effort),
                        filter_formatted(predicate, input, effort)
                    );
                }
                for fields in &field_sets {
                    for card in [Cardinality::OneToOne, Cardinality::OneToMany] {
                        let built = extract_prompt_with_effort(fields, card, input, effort);
                        assert_eq!(built, extract_formatted(fields, card, input, effort));
                        assert_eq!(built.capacity(), built.len(), "one exact allocation");
                    }
                }
            }
        }
    }

    #[test]
    fn bool_response_variants() {
        assert_eq!(parse_bool_response("TRUE"), Some(true));
        assert_eq!(parse_bool_response("false"), Some(false));
        assert_eq!(parse_bool_response("The answer is True."), Some(true));
        assert_eq!(parse_bool_response("maybe"), None);
        assert_eq!(parse_bool_response("true or false"), None);
    }

    #[test]
    fn effort_round_trips() {
        let p = filter_prompt_with_effort("pred", "body", Effort::High);
        match parse_prompt(&p).unwrap() {
            Task::Filter { effort, .. } => assert_eq!(effort, Effort::High),
            _ => unreachable!(),
        }
        let fields = vec![FieldSpec::new("a", "b")];
        let p = extract_prompt_with_effort(&fields, Cardinality::OneToOne, "x", Effort::High);
        match parse_prompt(&p).unwrap() {
            Task::Extract { effort, .. } => assert_eq!(effort, Effort::High),
            _ => unreachable!(),
        }
        // Standard prompts carry no effort header and parse as Standard.
        match parse_prompt(&filter_prompt("pred", "body")).unwrap() {
            Task::Filter { effort, .. } => assert_eq!(effort, Effort::Standard),
            _ => unreachable!(),
        }
    }

    #[test]
    fn extraction_response_round_trip() {
        let mut a = BTreeMap::new();
        a.insert("name".to_string(), Some("TCGA".to_string()));
        a.insert("url".to_string(), None);
        let objs = vec![a];
        let wire = format_extraction_response(&objs);
        assert_eq!(parse_extraction_response(&wire), objs);
    }

    #[test]
    fn extraction_response_skips_garbage_lines() {
        let out = parse_extraction_response("not json\n{\"a\": \"b\"}\n");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("a"), Some(&Some("b".to_string())));
    }

    #[test]
    fn crlf_headers_do_not_shift_the_input() {
        let p = "#TASK filter\r\n#PREDICATE about cancer\r\n#INPUT\r\nhello world";
        assert_eq!(
            parse_prompt(p),
            Some(Task::Filter {
                predicate: "about cancer",
                input: "hello world",
                effort: Effort::Standard,
            })
        );
        // Mixed line ends, and CRLF *inside* the input is the input's own.
        let p = "#TASK extract\r\n#EFFORT high\n#FIELDS a|b\r\n#DESC a: first\r\n#CARDINALITY many\r\n#INPUT\nline one\r\nline two\r\n";
        match parse_prompt(p) {
            Some(Task::Extract {
                fields,
                cardinality,
                input,
                effort,
            }) => {
                assert_eq!(
                    owned(&fields),
                    vec![FieldSpec::new("a", "first"), FieldSpec::new("b", "")]
                );
                assert_eq!(cardinality, Cardinality::OneToMany);
                assert_eq!(effort, Effort::High);
                assert_eq!(input, "line one\r\nline two\r\n");
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    /// Summing `line.len() + 1` over CRLF lines drifts one byte early per
    /// line; enough of them in front of a multi-byte character used to put
    /// the computed input offset inside it and panic.
    #[test]
    fn crlf_headers_before_non_ascii_do_not_panic() {
        let mut p = String::from("#TASK filter\r\n#PREDICATE about cancer\r\n");
        for i in 0..12 {
            p.push_str(&format!("#X{i} padding\r\n"));
        }
        p.push_str("#NOTE ééééééééééééééééééééééééééééééééé\r\n#INPUT\r\nétude");
        match parse_prompt(&p) {
            Some(Task::Filter { input, .. }) => assert_eq!(input, "étude"),
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn input_marker_edge_cases() {
        // No #INPUT line at all: headers still parse, the input is empty.
        assert_eq!(
            parse_prompt("#TASK generate\n#INSTRUCTION summarize"),
            Some(Task::Generate {
                instruction: "summarize",
                input: "",
            })
        );
        // #INPUT as the last line, with and without its newline.
        for p in [
            "#TASK generate\n#INSTRUCTION x\n#INPUT",
            "#TASK generate\n#INSTRUCTION x\n#INPUT\n",
        ] {
            assert_eq!(
                parse_prompt(p),
                Some(Task::Generate {
                    instruction: "x",
                    input: "",
                })
            );
        }
        // Only the first #INPUT line is the marker.
        match parse_prompt("#TASK filter\n#PREDICATE p\n#INPUT\n#INPUT\n#PREDICATE q") {
            Some(Task::Filter {
                predicate, input, ..
            }) => {
                assert_eq!(predicate, "p");
                assert_eq!(input, "#INPUT\n#PREDICATE q");
            }
            other => panic!("bad parse: {other:?}"),
        }
    }

    #[test]
    fn empty_input_allowed() {
        let p = filter_prompt("pred", "");
        match parse_prompt(&p).unwrap() {
            Task::Filter { input, .. } => assert_eq!(input, ""),
            _ => unreachable!(),
        }
    }

    proptest! {
        #[test]
        fn filter_round_trip_prop(pred in "[a-zA-Z0-9 ]{1,40}", input in "(?s).{0,200}") {
            let p = filter_prompt(&pred, &input);
            let task = parse_prompt(&p).expect("parse");
            match task {
                Task::Filter { predicate, input: i2, .. } => {
                    prop_assert_eq!(predicate, pred);
                    prop_assert_eq!(i2, input);
                }
                _ => prop_assert!(false, "wrong task kind"),
            }
        }

        #[test]
        fn extract_round_trip_prop(
            names in proptest::collection::vec("[a-z_]{1,12}", 1..5),
            input in "(?s)[^#]{0,200}",
        ) {
            // Deduplicate names: duplicate field names collapse in descs.
            let mut names = names;
            names.sort();
            names.dedup();
            let fields: Vec<FieldSpec> = names.iter()
                .map(|n| FieldSpec::new(n.clone(), format!("desc of {n}")))
                .collect();
            let p = extract_prompt(&fields, Cardinality::OneToOne, &input);
            match parse_prompt(&p).expect("parse") {
                Task::Extract { fields: f2, input: i2, .. } => {
                    prop_assert_eq!(owned(&f2), fields);
                    prop_assert_eq!(i2, input);
                }
                _ => prop_assert!(false, "wrong task kind"),
            }
        }
    }
}
