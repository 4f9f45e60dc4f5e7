//! Conventional relational operators ("All other operations follow
//! conventional database semantics", §2.1): map, project, limit, sort,
//! distinct, aggregate. These never touch a model and cost (almost)
//! nothing; the virtual clock is advanced by a small per-record CPU charge
//! so Figure-5-style breakdowns show realistic non-zero rows.

use crate::context::PzContext;
use crate::error::{PzError, PzResult};
use crate::ops::logical::{AggExpr, AggFunc};
use crate::record::{DataRecord, Value};
use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::sync::Arc;

/// Virtual CPU seconds charged per record by conventional operators.
const CPU_SECS_PER_RECORD: f64 = 0.000_05;

fn charge_cpu(ctx: &PzContext, records: usize) {
    ctx.clock.advance_secs(records as f64 * CPU_SECS_PER_RECORD);
}

/// Apply a registered record transform.
pub fn map(ctx: &PzContext, input: Vec<DataRecord>, udf: &str) -> PzResult<Vec<DataRecord>> {
    let f = ctx.udfs.map(udf)?;
    charge_cpu(ctx, input.len());
    Ok(input.iter().map(|r| f(r)).collect())
}

/// Keep only the named fields.
pub fn project(input: Vec<DataRecord>, fields: &[String]) -> Vec<DataRecord> {
    input
        .into_iter()
        .map(|mut r| {
            r.fields.retain(|k, _| fields.iter().any(|f| f == k));
            r
        })
        .collect()
}

/// First `n` records.
pub fn limit(mut input: Vec<DataRecord>, n: usize) -> Vec<DataRecord> {
    input.truncate(n);
    input
}

/// Stable sort by one field. Records missing the field, or holding null
/// or NaN, sort last ascending; descending reverses the whole order, so
/// they come first there. Mixed types order numbers before text before
/// lists to stay total.
///
/// Each record's key is computed once, not once per comparison.
pub fn sort(mut input: Vec<DataRecord>, field: &str, descending: bool) -> Vec<DataRecord> {
    if descending {
        input.sort_by_cached_key(|r| Reverse(SortKey::of(r.get(field))));
    } else {
        input.sort_by_cached_key(|r| SortKey::of(r.get(field)));
    }
    input
}

/// A record's sort key: numbers (bools first) before text, then lists.
/// `Missing` — no field, null or NaN — orders after everything.
/// `Num` never holds NaN, which is what makes the order total; `-0.0` and
/// `0.0` stay equal, so such ties keep input order.
enum SortKey {
    /// (type rank: 0 bool, 1 number; value).
    Num(u8, f64),
    Text(Arc<str>),
    /// (length, items joined by `\u{1}`).
    List(usize, String),
    Missing,
}

impl SortKey {
    fn of(v: Option<&Value>) -> Self {
        match v {
            None | Some(Value::Null) => SortKey::Missing,
            Some(Value::Bool(b)) => SortKey::Num(0, f64::from(u8::from(*b))),
            Some(Value::Int(i)) => SortKey::Num(1, *i as f64),
            Some(Value::Float(f)) if f.is_nan() => SortKey::Missing,
            Some(Value::Float(f)) => SortKey::Num(1, *f),
            Some(Value::Text(s)) => SortKey::Text(Arc::clone(s)),
            Some(Value::TextList(l)) => SortKey::List(l.len(), l.join("\u{1}")),
        }
    }

    fn rank(&self) -> u8 {
        match self {
            SortKey::Num(rank, _) => *rank,
            SortKey::Text(_) => 2,
            SortKey::List(..) => 3,
            SortKey::Missing => 4,
        }
    }
}

impl Ord for SortKey {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (SortKey::Num(ra, a), SortKey::Num(rb, b)) => ra
                .cmp(rb)
                .then(a.partial_cmp(b).expect("sort keys hold no NaN")),
            (SortKey::Text(a), SortKey::Text(b)) => a.cmp(b),
            (SortKey::List(na, a), SortKey::List(nb, b)) => na.cmp(nb).then_with(|| a.cmp(b)),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl PartialOrd for SortKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for SortKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for SortKey {}

/// Remove duplicates by the named fields (all fields when empty),
/// preserving first occurrence.
pub fn distinct(input: Vec<DataRecord>, fields: &[String]) -> Vec<DataRecord> {
    let mut seen: HashSet<String> = HashSet::new();
    let mut out = Vec::new();
    for r in input {
        let key = if fields.is_empty() {
            r.fields
                .iter()
                .map(|(k, v)| format!("{k}={v}"))
                .collect::<Vec<_>>()
                .join("\u{1}")
        } else {
            fields
                .iter()
                .map(|f| {
                    format!(
                        "{f}={}",
                        r.get(f).map(|v| v.as_display()).unwrap_or_default()
                    )
                })
                .collect::<Vec<_>>()
                .join("\u{1}")
        };
        if seen.insert(key) {
            out.push(r);
        }
    }
    out
}

/// Group-by + aggregates with conventional SQL semantics (empty group-by =
/// one global group; aggregates over empty input yield one row of nulls /
/// zero count only when a global aggregate).
pub fn aggregate(
    ctx: &PzContext,
    input: Vec<DataRecord>,
    group_by: &[String],
    aggs: &[AggExpr],
) -> PzResult<Vec<DataRecord>> {
    charge_cpu(ctx, input.len());
    // Groups are keyed by their values' display forms joined by `\u{1}`.
    // Each record renders its key into one reused buffer; only a new group
    // allocates (its key and its values).
    let mut groups: BTreeMap<String, (Vec<Value>, Vec<DataRecord>)> = BTreeMap::new();
    let mut key = String::new();
    for r in input {
        key.clear();
        for (i, g) in group_by.iter().enumerate() {
            if i > 0 {
                key.push('\u{1}');
            }
            if let Some(v) = r.get(g) {
                write!(key, "{v}").expect("writing to a String cannot fail");
            }
        }
        match groups.get_mut(key.as_str()) {
            Some((_, members)) => members.push(r),
            None => {
                let key_vals = group_by
                    .iter()
                    .map(|g| r.get(g).cloned().unwrap_or(Value::Null))
                    .collect();
                groups.insert(key.clone(), (key_vals, vec![r]));
            }
        }
    }
    if groups.is_empty() && group_by.is_empty() {
        // Global aggregate over the empty input: COUNT = 0, others null.
        let mut rec = DataRecord::new(ctx.next_id());
        for a in aggs {
            let v = if a.func == AggFunc::Count {
                Value::Float(0.0)
            } else {
                Value::Null
            };
            rec.set(a.alias.clone(), v);
        }
        return Ok(vec![rec]);
    }
    let mut out = Vec::with_capacity(groups.len());
    for (_, (key_vals, members)) in groups {
        let mut rec = DataRecord::new(ctx.next_id());
        for (g, v) in group_by.iter().zip(key_vals) {
            rec.set(g.clone(), v);
        }
        for a in aggs {
            rec.set(a.alias.clone(), compute_agg(a, &members)?);
        }
        out.push(rec);
    }
    Ok(out)
}

fn compute_agg(a: &AggExpr, members: &[DataRecord]) -> PzResult<Value> {
    if a.func == AggFunc::Count {
        return Ok(Value::Float(members.len() as f64));
    }
    let nums: Vec<f64> = members
        .iter()
        .filter_map(|r| r.get(&a.field))
        .filter_map(|v| v.as_f64())
        .collect();
    if nums.is_empty() {
        return Ok(Value::Null);
    }
    let v = match a.func {
        AggFunc::Count => unreachable!(),
        AggFunc::Sum => nums.iter().sum(),
        AggFunc::Avg => nums.iter().sum::<f64>() / nums.len() as f64,
        AggFunc::Min => nums.iter().copied().fold(f64::INFINITY, f64::min),
        AggFunc::Max => nums.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    };
    if v.is_finite() {
        Ok(Value::Float(v))
    } else {
        Err(PzError::Execution(format!(
            "aggregate {} overflowed",
            a.alias
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, pairs: &[(&str, Value)]) -> DataRecord {
        let mut r = DataRecord::new(id);
        for (k, v) in pairs {
            r.set(*k, v.clone());
        }
        r
    }

    #[test]
    fn project_keeps_only_named() {
        let input = vec![rec(0, &[("a", Value::Int(1)), ("b", Value::Int(2))])];
        let out = project(input, &["b".to_string()]);
        assert!(out[0].get("a").is_none());
        assert_eq!(out[0].get("b").unwrap().as_int(), Some(2));
    }

    #[test]
    fn limit_truncates() {
        let input: Vec<DataRecord> = (0..5).map(|i| rec(i, &[])).collect();
        assert_eq!(limit(input.clone(), 3).len(), 3);
        assert_eq!(limit(input, 10).len(), 5);
    }

    #[test]
    fn sort_numeric_and_text() {
        let input = vec![
            rec(0, &[("x", Value::Int(3))]),
            rec(1, &[("x", Value::Int(1))]),
            rec(2, &[("x", Value::Int(2))]),
        ];
        let out = sort(input, "x", false);
        let xs: Vec<i64> = out
            .iter()
            .map(|r| r.get("x").unwrap().as_int().unwrap())
            .collect();
        assert_eq!(xs, vec![1, 2, 3]);

        let input = vec![
            rec(0, &[("s", Value::Text("beta".into()))]),
            rec(1, &[("s", Value::Text("alpha".into()))]),
        ];
        let out = sort(input, "s", true);
        assert_eq!(out[0].get("s").unwrap().as_text(), Some("beta"));
    }

    #[test]
    fn sort_nulls_last_ascending() {
        let input = vec![
            rec(0, &[("x", Value::Null)]),
            rec(1, &[("x", Value::Int(5))]),
            rec(2, &[]),
        ];
        let out = sort(input, "x", false);
        assert_eq!(out[0].id, 1);
    }

    #[test]
    fn sort_is_stable_on_ties() {
        let input = vec![
            rec(10, &[("x", Value::Int(1))]),
            rec(11, &[("x", Value::Int(1))]),
            rec(12, &[("x", Value::Int(0))]),
        ];
        let out = sort(input, "x", false);
        assert_eq!(
            out.iter().map(|r| r.id).collect::<Vec<_>>(),
            vec![12, 10, 11]
        );
    }

    #[test]
    fn distinct_by_field_and_all() {
        let input = vec![
            rec(0, &[("a", Value::Text("x".into())), ("b", Value::Int(1))]),
            rec(1, &[("a", Value::Text("x".into())), ("b", Value::Int(2))]),
            rec(2, &[("a", Value::Text("y".into())), ("b", Value::Int(1))]),
        ];
        assert_eq!(distinct(input.clone(), &["a".to_string()]).len(), 2);
        assert_eq!(distinct(input, &[]).len(), 3);
    }

    #[test]
    fn aggregate_global() {
        let ctx = PzContext::simulated();
        let input = vec![
            rec(0, &[("p", Value::Int(10))]),
            rec(1, &[("p", Value::Int(30))]),
        ];
        let out = aggregate(
            &ctx,
            input,
            &[],
            &[
                AggExpr::new(AggFunc::Count, "", "n"),
                AggExpr::new(AggFunc::Avg, "p", "avg_p"),
                AggExpr::new(AggFunc::Min, "p", "min_p"),
                AggExpr::new(AggFunc::Max, "p", "max_p"),
                AggExpr::new(AggFunc::Sum, "p", "sum_p"),
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("n").unwrap().as_f64(), Some(2.0));
        assert_eq!(out[0].get("avg_p").unwrap().as_f64(), Some(20.0));
        assert_eq!(out[0].get("min_p").unwrap().as_f64(), Some(10.0));
        assert_eq!(out[0].get("max_p").unwrap().as_f64(), Some(30.0));
        assert_eq!(out[0].get("sum_p").unwrap().as_f64(), Some(40.0));
    }

    #[test]
    fn aggregate_group_by() {
        let ctx = PzContext::simulated();
        let input = vec![
            rec(
                0,
                &[("city", Value::Text("a".into())), ("p", Value::Int(1))],
            ),
            rec(
                1,
                &[("city", Value::Text("b".into())), ("p", Value::Int(2))],
            ),
            rec(
                2,
                &[("city", Value::Text("a".into())), ("p", Value::Int(3))],
            ),
        ];
        let out = aggregate(
            &ctx,
            input,
            &["city".to_string()],
            &[AggExpr::new(AggFunc::Sum, "p", "total")],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        let a = out
            .iter()
            .find(|r| r.get("city").unwrap().as_text() == Some("a"))
            .unwrap();
        assert_eq!(a.get("total").unwrap().as_f64(), Some(4.0));
    }

    #[test]
    fn aggregate_empty_input_global() {
        let ctx = PzContext::simulated();
        let out = aggregate(
            &ctx,
            vec![],
            &[],
            &[
                AggExpr::new(AggFunc::Count, "", "n"),
                AggExpr::new(AggFunc::Sum, "p", "s"),
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("n").unwrap().as_f64(), Some(0.0));
        assert!(out[0].get("s").unwrap().is_null());
    }

    #[test]
    fn aggregate_empty_input_grouped_is_empty() {
        let ctx = PzContext::simulated();
        let out = aggregate(
            &ctx,
            vec![],
            &["city".to_string()],
            &[AggExpr::new(AggFunc::Count, "", "n")],
        )
        .unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn aggregate_ignores_non_numeric() {
        let ctx = PzContext::simulated();
        let input = vec![
            rec(0, &[("p", Value::Text("oops".into()))]),
            rec(1, &[("p", Value::Int(4))]),
        ];
        let out = aggregate(&ctx, input, &[], &[AggExpr::new(AggFunc::Avg, "p", "a")]).unwrap();
        assert_eq!(out[0].get("a").unwrap().as_f64(), Some(4.0));
    }

    #[test]
    fn map_applies_udf() {
        let ctx = PzContext::simulated();
        ctx.udfs.register_map("tag", |r: &DataRecord| {
            let mut out = r.clone();
            out.set("tagged", true);
            out
        });
        let out = map(&ctx, vec![rec(0, &[])], "tag").unwrap();
        assert_eq!(out[0].get("tagged").unwrap().as_bool(), Some(true));
        assert!(map(&ctx, vec![], "missing").is_err());
    }

    /// A mixed-type, tie-heavy, null-bearing input that exercises every
    /// branch of the comparator.
    fn mixed_fixture() -> Vec<DataRecord> {
        let mut input = Vec::new();
        for i in 0..40u64 {
            let v = match i % 5 {
                0 => Value::Int((i as i64 * 7) % 13),
                1 => Value::Float((i as f64) * 0.37 - 3.21),
                2 => Value::Text(format!("s{}", i % 4).into()),
                3 => Value::Null,
                _ => Value::Int((i as i64) % 3),
            };
            input.push(rec(i, &[("k", v), ("seq", Value::Int(i as i64))]));
        }
        input
    }

    /// `sort` agrees with a stable sort under a comparator written out
    /// case by case (numbers, then text, then null), on every prefix
    /// length of the mixed fixture and in both directions.
    #[test]
    fn external_sort_matches_in_memory_at_every_budget() {
        let key = |r: &DataRecord| match r.get("k") {
            Some(Value::Int(i)) => (0, *i as f64, String::new()),
            Some(Value::Float(f)) => (0, *f, String::new()),
            Some(Value::Text(s)) => (1, 0.0, s.to_string()),
            _ => (2, 0.0, String::new()),
        };
        for descending in [false, true] {
            for len in [1, 3, 7, 40] {
                let mut input = mixed_fixture();
                input.truncate(len);
                let mut expected = input.clone();
                expected.sort_by(|a, b| {
                    let (ka, kb) = (key(a), key(b));
                    let ord =
                        ka.0.cmp(&kb.0)
                            .then(ka.1.total_cmp(&kb.1))
                            .then(ka.2.cmp(&kb.2));
                    if descending {
                        ord.reverse()
                    } else {
                        ord
                    }
                });
                assert_eq!(
                    expected,
                    sort(input, "k", descending),
                    "length {len}, descending {descending}"
                );
            }
        }
    }

    #[test]
    fn external_sort_preserves_stability() {
        // All keys equal: either direction keeps input order.
        let input: Vec<DataRecord> = (0..9).map(|i| rec(i, &[("x", Value::Int(1))])).collect();
        for descending in [false, true] {
            let out = sort(input.clone(), "x", descending);
            assert_eq!(
                out.iter().map(|r| r.id).collect::<Vec<_>>(),
                (0..9).collect::<Vec<_>>()
            );
        }
    }

    fn is_missing(r: &DataRecord) -> bool {
        r.get("x").and_then(Value::as_f64).is_none_or(f64::is_nan)
    }

    #[test]
    fn sort_orders_finite_keys_around_nan_in_both_directions() {
        // About a quarter of the keys NaN, plus a null and a missing key.
        let mut input: Vec<DataRecord> = (0..300u64)
            .map(|i| {
                let x = if i % 4 == 1 {
                    f64::NAN
                } else {
                    ((i * 37) % 101) as f64
                };
                rec(i, &[("x", Value::Float(x))])
            })
            .collect();
        input.push(rec(300, &[("x", Value::Null)]));
        input.push(rec(301, &[]));
        let n_missing = input.iter().filter(|r| is_missing(r)).count();
        assert_eq!(n_missing, 77);
        for descending in [false, true] {
            let out = sort(input.clone(), "x", descending);
            // NaN sorts as missing: after every finite key ascending, before
            // them descending (the whole order reverses), in input order.
            let (missing, finite) = if descending {
                out.split_at(n_missing)
            } else {
                let (f, m) = out.split_at(out.len() - n_missing);
                (m, f)
            };
            assert!(missing.iter().all(is_missing), "descending {descending}");
            assert!(missing.windows(2).all(|w| w[0].id < w[1].id));
            for w in finite.windows(2) {
                let (a, b) = (w[0].get("x").unwrap(), w[1].get("x").unwrap());
                let (a, b) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                let ordered = if descending { a >= b } else { a <= b };
                assert!(ordered, "{a} before {b}, descending {descending}");
                if a == b {
                    assert!(w[0].id < w[1].id, "tie on {a} lost input order");
                }
            }
        }
    }

    #[test]
    fn sort_keeps_signed_zero_ties_in_input_order() {
        let input = vec![
            rec(0, &[("x", Value::Float(0.0))]),
            rec(1, &[("x", Value::Float(-0.0))]),
            rec(2, &[("x", Value::Float(-1.0))]),
            rec(3, &[("x", Value::Float(0.0))]),
        ];
        let ids = |out: Vec<DataRecord>| out.iter().map(|r| r.id).collect::<Vec<_>>();
        assert_eq!(ids(sort(input.clone(), "x", false)), vec![2, 0, 1, 3]);
        assert_eq!(ids(sort(input, "x", true)), vec![0, 1, 3, 2]);
    }

    /// NaN, ±inf and signed zeros in the key and in a passenger field,
    /// beside ordinary floats.
    fn non_finite_fixture() -> Vec<DataRecord> {
        let floats = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1.5,
            -2.25,
        ];
        (0..100u64)
            .map(|i| {
                let k = floats[(i * 3 % 7) as usize];
                let other = floats[(i % 7) as usize];
                rec(
                    i,
                    &[
                        ("k", Value::Float(k)),
                        ("other", Value::Float(other)),
                        ("seq", Value::Int(i as i64)),
                    ],
                )
            })
            .collect()
    }

    /// Sort moves records and rewrites none: every float, NaN, ±inf and
    /// signed zeros included, comes back bit for bit, and ±inf order at
    /// the ends of the finite keys.
    #[test]
    fn external_sort_round_trips_non_finite_floats() {
        let bits = |rs: &[DataRecord]| -> Vec<(u64, u64, u64)> {
            let f = |r: &DataRecord, name| r.get(name).and_then(Value::as_f64).unwrap().to_bits();
            rs.iter()
                .map(|r| (r.id, f(r, "k"), f(r, "other")))
                .collect()
        };
        let input = non_finite_fixture();
        for descending in [false, true] {
            let mut out = sort(input.clone(), "k", descending);
            let keys: Vec<f64> = out
                .iter()
                .map(|r| r.get("k").unwrap().as_f64().unwrap())
                .collect();
            let finite: Vec<f64> = keys.into_iter().filter(|k| !k.is_nan()).collect();
            let (first, last) = (finite[0], finite[finite.len() - 1]);
            let want = if descending {
                (f64::INFINITY, f64::NEG_INFINITY)
            } else {
                (f64::NEG_INFINITY, f64::INFINITY)
            };
            assert_eq!((first, last), want, "descending {descending}");
            out.sort_by_key(|r| r.id);
            assert_eq!(bits(&input), bits(&out), "descending {descending}");
        }
    }

    #[test]
    fn distinct_keeps_first_occurrences_in_input_order() {
        // 20k records, each of 10k keys twice at scattered positions
        // (`i * 7919 % 20_000` permutes 0..20_000): half are duplicates.
        let key = |i: u64| i * 7919 % 20_000 / 2;
        let input: Vec<DataRecord> = (0..20_000u64)
            .map(|i| rec(i, &[("k", Value::Int(key(i) as i64))]))
            .collect();
        let mut seen = std::collections::BTreeSet::new();
        let expected: Vec<u64> = (0..20_000u64).filter(|&i| seen.insert(key(i))).collect();
        assert_eq!(expected.len(), 10_000);
        for fields in [vec!["k".to_string()], vec![]] {
            let out = distinct(input.clone(), &fields);
            assert_eq!(out.iter().map(|r| r.id).collect::<Vec<_>>(), expected);
        }
    }
}
