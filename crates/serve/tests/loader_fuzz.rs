//! Malformed scenario files: the loader and the world builder must
//! answer every one with `Ok` or a typed `Err`, never a panic.
//!
//! Each case takes one shipped scenario and applies one mutation:
//! delete an object key, replace a value with one of another JSON type,
//! or truncate the text at a byte offset. `from_str::<ScenarioConfig>`
//! must not panic, and neither may `ScenarioWorld::build` on any mutant
//! the loader accepts. Numeric extremes (resource bounds) are not
//! generated here. The vendored proptest does not shrink, so a failure
//! prints the whole mutant.

mod mutation;

use ddpm_serve::scenario::{ScenarioConfig, ScenarioWorld};
use mutation::{mutate, truncate, Op};
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every shipped scenario as `(file name, raw text)`, sorted by name.
fn shipped() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("scenarios dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("json"))
        .map(|p| {
            let raw = std::fs::read_to_string(&p).expect("readable scenario");
            (p.file_name().unwrap().to_string_lossy().into_owned(), raw)
        })
        .collect();
    files.sort();
    assert!(files.len() >= 5, "expected the shipped scenario files");
    files
}

/// Loads `text` and, if the loader accepts it, builds the world. Fails
/// with the mutant in the message if either step panics.
fn load_and_build(file: &str, how: &str, text: &str) -> Result<(), String> {
    let parsed = catch_unwind(AssertUnwindSafe(|| serde_json::from_str::<ScenarioConfig>(text)))
        .map_err(|_| format!("loader panicked on {file} ({how}); mutant:\n{text}"))?;
    if let Ok(cfg) = parsed {
        catch_unwind(AssertUnwindSafe(|| {
            let _ = ScenarioWorld::build(&cfg, Some(text), None);
        }))
        .map_err(|_| format!("build panicked on {file} ({how}); mutant:\n{text}"))?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(480))]

    #[test]
    fn mutated_shipped_scenarios_never_panic(
        file in 0usize..64,
        op in 0u8..3,
        site in any::<u64>(),
        pick in any::<u8>(),
    ) {
        let files = shipped();
        let (name, raw) = &files[file % files.len()];
        let (how, text) = match op {
            0 => ("delete", mutate(raw, Op::Delete, site)),
            1 => ("retype", mutate(raw, Op::Retype(pick), site)),
            _ => ("truncate", truncate(raw, site)),
        };
        let res = load_and_build(name, &format!("{how} at {site}"), &text);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }
}

#[test]
fn mutations_hit_their_site() {
    let raw = r#"{"a": 1, "b": {"c": [true, "s"]}}"#;
    assert_eq!(mutate(raw, Op::Delete, 2), r#"{"a":1,"b":{}}"#);
    // Retype sites in pre-order: root, a, b, c, c[0], c[1].
    assert_eq!(mutate(raw, Op::Retype(0), 4), r#"{"a":1,"b":{"c":[null,"s"]}}"#);
    assert_eq!(truncate(raw, 5), r#"{"a":"#);
}
