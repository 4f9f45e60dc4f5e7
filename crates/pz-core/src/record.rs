//! Data records — the dynamic tuples that flow through pipelines.
//!
//! A [`DataRecord`] is a bag of [`Value`]s keyed by field name, plus lineage
//! metadata (which source record(s) it derives from) so execution statistics
//! and provenance queries can trace outputs back to inputs.

use crate::error::{PzError, PzResult};
use crate::field::FieldType;
use crate::schema::Schema;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A dynamically-typed field value.
///
/// Text is shared and immutable: cloning a `Text` value (and so a record)
/// bumps a reference count and copies no bytes. A source parses each
/// document once and every record scanned or derived from it points at
/// that one copy.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(Arc<str>),
    TextList(Vec<String>),
}

impl Value {
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Render for prompts / display. Lists join with `; `.
    pub fn as_display(&self) -> String {
        self.to_string()
    }

    /// Text content if the value is text.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Value::Text(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Parse a raw string (e.g. an LLM extraction) into a typed value.
    /// Unparseable input degrades to `Null` for numerics/bools rather than
    /// erroring — extraction noise must not abort a pipeline.
    pub fn parse_as(raw: &str, ty: FieldType) -> Value {
        let t = raw.trim();
        if t.is_empty() {
            return Value::Null;
        }
        match ty {
            FieldType::Text => Value::Text(t.into()),
            FieldType::Int => t.parse::<i64>().map(Value::Int).unwrap_or(Value::Null),
            FieldType::Float => t.parse::<f64>().map(Value::Float).unwrap_or(Value::Null),
            FieldType::Bool => match t.to_ascii_lowercase().as_str() {
                "true" | "yes" | "1" => Value::Bool(true),
                "false" | "no" | "0" => Value::Bool(false),
                _ => Value::Null,
            },
            FieldType::TextList => {
                Value::TextList(t.split(';').map(|s| s.trim().to_string()).collect())
            }
        }
    }

    /// Does this value's runtime type satisfy the declared field type?
    /// `Null` satisfies everything (nullability is tracked by `required`).
    pub fn type_matches(&self, ty: FieldType) -> bool {
        matches!(
            (self, ty),
            (Value::Null, _)
                | (Value::Text(_), FieldType::Text)
                | (Value::Int(_), FieldType::Int)
                | (Value::Float(_), FieldType::Float)
                | (Value::Int(_), FieldType::Float)
                | (Value::Bool(_), FieldType::Bool)
                | (Value::TextList(_), FieldType::TextList)
        )
    }
}

/// Writes straight into the formatter, so a caller that renders into a
/// reused buffer (`aggregate`'s group keys) allocates nothing.
impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => Ok(()),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Text(s) => f.write_str(s),
            Value::TextList(v) => {
                for (i, item) in v.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    f.write_str(item)?;
                }
                Ok(())
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Text(s.into())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Text(s.into())
    }
}

impl From<Arc<str>> for Value {
    fn from(s: Arc<str>) -> Self {
        Value::Text(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// One tuple flowing through a pipeline.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DataRecord {
    /// Unique within one execution.
    pub id: u64,
    /// Id of the source record(s) this derives from (provenance).
    pub lineage: Vec<u64>,
    /// Field values.
    pub fields: BTreeMap<String, Value>,
}

impl DataRecord {
    pub fn new(id: u64) -> Self {
        Self {
            id,
            lineage: Vec::new(),
            fields: BTreeMap::new(),
        }
    }

    /// A derived record: fresh id, lineage extended with the parent.
    pub fn derive(&self, new_id: u64) -> Self {
        let mut lineage = self.lineage.clone();
        lineage.push(self.id);
        Self {
            id: new_id,
            lineage,
            fields: BTreeMap::new(),
        }
    }

    pub fn with_field(mut self, name: impl Into<String>, value: impl Into<Value>) -> Self {
        self.fields.insert(name.into(), value.into());
        self
    }

    pub fn set(&mut self, name: impl Into<String>, value: impl Into<Value>) {
        self.fields.insert(name.into(), value.into());
    }

    pub fn get(&self, name: &str) -> Option<&Value> {
        self.fields.get(name)
    }

    /// The record's "text" for LLM prompts: the conventional content field
    /// if present (borrowed — the prompt an operator builds from it is the
    /// document's only copy), otherwise all fields rendered as
    /// `name: value` lines.
    pub fn prompt_text(&self) -> Cow<'_, str> {
        for key in ["contents", "content", "text", "body"] {
            if let Some(Value::Text(s)) = self.fields.get(key) {
                return Cow::Borrowed(s);
            }
        }
        Cow::Owned(
            self.fields
                .iter()
                .filter(|(_, v)| !v.is_null())
                .map(|(k, v)| format!("{k}: {v}"))
                .collect::<Vec<_>>()
                .join("\n"),
        )
    }

    /// Validate against a schema: required fields present and non-null,
    /// value types compatible. Extra fields are allowed (records may carry
    /// upstream attributes forward).
    pub fn validate(&self, schema: &Schema) -> PzResult<()> {
        for f in &schema.fields {
            match self.fields.get(&f.name) {
                Some(v) => {
                    if !v.type_matches(f.field_type) {
                        return Err(PzError::Schema(format!(
                            "field {:?}: value {:?} does not match type {}",
                            f.name,
                            v,
                            f.field_type.name()
                        )));
                    }
                    if f.required && v.is_null() {
                        return Err(PzError::Schema(format!(
                            "required field {:?} is null",
                            f.name
                        )));
                    }
                }
                None if f.required => {
                    return Err(PzError::Schema(format!(
                        "required field {:?} missing",
                        f.name
                    )))
                }
                None => {}
            }
        }
        Ok(())
    }

    /// Serialize to a JSON object (used by stats output and notebook export).
    pub fn to_json(&self) -> serde_json::Value {
        let mut map = serde_json::Map::new();
        for (k, v) in &self.fields {
            let jv = match v {
                Value::Null => serde_json::Value::Null,
                Value::Bool(b) => serde_json::Value::Bool(*b),
                Value::Int(i) => serde_json::Value::from(*i),
                Value::Float(f) => serde_json::Value::from(*f),
                Value::Text(s) => serde_json::Value::String(s.to_string()),
                Value::TextList(l) => {
                    serde_json::Value::Array(l.iter().map(|s| s.clone().into()).collect())
                }
            };
            map.insert(k.clone(), jv);
        }
        serde_json::Value::Object(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::FieldDef;
    use proptest::prelude::*;

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Text("x".into()).as_text(), Some("x"));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert!(Value::Null.is_null());
        assert_eq!(Value::Text("x".into()).as_int(), None);
    }

    #[test]
    fn parse_as_types() {
        assert_eq!(Value::parse_as("42", FieldType::Int), Value::Int(42));
        assert_eq!(Value::parse_as("4.5", FieldType::Float), Value::Float(4.5));
        assert_eq!(Value::parse_as("yes", FieldType::Bool), Value::Bool(true));
        assert_eq!(Value::parse_as("no", FieldType::Bool), Value::Bool(false));
        assert_eq!(
            Value::parse_as("a; b", FieldType::TextList),
            Value::TextList(vec!["a".into(), "b".into()])
        );
        // Noise degrades to null, not error.
        assert_eq!(Value::parse_as("not a number", FieldType::Int), Value::Null);
        assert_eq!(Value::parse_as("  ", FieldType::Text), Value::Null);
    }

    #[test]
    fn type_matching() {
        assert!(Value::Int(1).type_matches(FieldType::Float)); // widening ok
        assert!(!Value::Float(1.0).type_matches(FieldType::Int));
        assert!(Value::Null.type_matches(FieldType::Bool));
        assert!(!Value::Text("t".into()).type_matches(FieldType::Bool));
    }

    #[test]
    fn derive_tracks_lineage() {
        let a = DataRecord::new(1);
        let b = a.derive(7);
        let c = b.derive(9);
        assert_eq!(c.lineage, vec![1, 7]);
        assert_eq!(c.id, 9);
        assert!(c.fields.is_empty());
    }

    #[test]
    fn prompt_text_prefers_contents() {
        let r = DataRecord::new(0)
            .with_field("filename", "a.pdf")
            .with_field("contents", "the body");
        assert_eq!(r.prompt_text(), "the body");
        let r2 = DataRecord::new(0)
            .with_field("name", "x")
            .with_field("url", "https://a");
        let t = r2.prompt_text();
        assert!(t.contains("name: x") && t.contains("url: https://a"));
    }

    #[test]
    fn validation() {
        let schema = Schema::new(
            "S",
            "",
            vec![
                FieldDef::text("a", "").required(),
                FieldDef::typed("n", FieldType::Int, ""),
            ],
        )
        .unwrap();
        let good = DataRecord::new(0)
            .with_field("a", "x")
            .with_field("n", 3i64);
        assert!(good.validate(&schema).is_ok());
        let missing = DataRecord::new(0).with_field("n", 3i64);
        assert!(missing.validate(&schema).is_err());
        let null_required = DataRecord::new(0).with_field("a", Value::Null);
        assert!(null_required.validate(&schema).is_err());
        let wrong_type = DataRecord::new(0)
            .with_field("a", "x")
            .with_field("n", "NaN");
        assert!(wrong_type.validate(&schema).is_err());
        // Extra fields are fine.
        let extra = DataRecord::new(0)
            .with_field("a", "x")
            .with_field("z", "extra");
        assert!(extra.validate(&schema).is_ok());
    }

    #[test]
    fn to_json_round_trip_shape() {
        let r = DataRecord::new(0)
            .with_field("t", "text")
            .with_field("i", 3i64)
            .with_field("f", 1.5f64)
            .with_field("b", true)
            .with_field("n", Value::Null)
            .with_field("l", Value::TextList(vec!["x".into()]));
        let j = r.to_json();
        assert_eq!(j["t"], "text");
        assert_eq!(j["i"], 3);
        assert_eq!(j["f"], 1.5);
        assert_eq!(j["b"], true);
        assert!(j["n"].is_null());
        assert_eq!(j["l"][0], "x");
    }

    #[test]
    fn json_of_shared_text_is_a_plain_string() {
        let r = DataRecord::new(3)
            .with_field("contents", "body")
            .with_field("n", 2i64);
        let text = serde_json::to_string(&r).unwrap();
        assert_eq!(
            text,
            r#"{"fields":{"contents":{"Text":"body"},"n":{"Int":2}},"id":3,"lineage":[]}"#
        );
        let back: DataRecord = serde_json::from_str(&text).unwrap();
        assert_eq!(back, r);
    }

    proptest! {
        #[test]
        fn parse_int_round_trips(i in any::<i64>()) {
            prop_assert_eq!(Value::parse_as(&i.to_string(), FieldType::Int), Value::Int(i));
        }

        #[test]
        fn display_never_panics(s in "(?s).{0,100}") {
            let v = Value::Text(s.into());
            let _ = v.as_display();
        }

        #[test]
        fn derive_lineage_grows_by_one(id in 0u64..1000, next in 0u64..1000) {
            let r = DataRecord::new(id);
            let d = r.derive(next);
            prop_assert_eq!(d.lineage.len(), r.lineage.len() + 1);
        }
    }
}
