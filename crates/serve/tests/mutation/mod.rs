//! Structure-aware mutations of JSON text, shared by the fuzz suites:
//! delete an object key, replace a value with one of another JSON type,
//! or truncate the text at a byte offset.

use serde_json::{Map, Number, Value};

#[derive(Clone, Copy, Debug)]
pub enum Op {
    /// Delete the object entry at the target site.
    Delete,
    /// Replace the value at the target site with one of another type,
    /// the choice among the other types picked by the payload.
    Retype(u8),
}

/// A value of a different JSON type than `v`.
fn other_type(v: &Value, pick: u8) -> Value {
    let kinds = [
        Value::Null,
        Value::Bool(true),
        Value::Number(Number::U(7)),
        Value::String("x".into()),
        Value::Array(Vec::new()),
        Value::Object(Map::new()),
    ];
    let same = |a: &Value| std::mem::discriminant(a) == std::mem::discriminant(v);
    let others: Vec<&Value> = kinds.iter().filter(|k| !same(k)).collect();
    others[usize::from(pick) % others.len()].clone()
}

/// Rebuilds `v`, applying `op` at the `target`-th site in pre-order
/// (object entries for `Delete`, values for `Retype`). `seen` counts the
/// sites visited, so a run with an unreachable target counts them all.
fn apply(v: &Value, op: Op, target: usize, seen: &mut usize) -> Value {
    if let Op::Retype(pick) = op {
        *seen += 1;
        if *seen - 1 == target {
            return other_type(v, pick);
        }
    }
    match v {
        Value::Object(map) => {
            let mut out = Map::new();
            for (k, x) in map.iter() {
                if matches!(op, Op::Delete) {
                    *seen += 1;
                    if *seen - 1 == target {
                        continue;
                    }
                }
                out.insert(k.clone(), apply(x, op, target, seen));
            }
            Value::Object(out)
        }
        Value::Array(xs) => Value::Array(xs.iter().map(|x| apply(x, op, target, seen)).collect()),
        other => other.clone(),
    }
}

/// `raw` with `op` applied at site `site` (modulo the number of sites).
pub fn mutate(raw: &str, op: Op, site: u64) -> String {
    let v: Value = serde_json::from_str(raw).expect("the text to mutate is JSON");
    let mut sites = 0;
    apply(&v, op, usize::MAX, &mut sites);
    let target = usize::try_from(site % sites as u64).expect("fits");
    let mut seen = 0;
    serde_json::to_string(&apply(&v, op, target, &mut seen)).expect("serialisable")
}

/// `raw` cut at byte `at` (modulo its length), backed off to a char
/// boundary.
pub fn truncate(raw: &str, at: u64) -> String {
    let mut end = usize::try_from(at % raw.len() as u64).expect("fits");
    while !raw.is_char_boundary(end) {
        end -= 1;
    }
    raw[..end].to_owned()
}
