//! Malformed wire requests: `Server::handle_line` must answer every one
//! with exactly one JSON response line carrying a boolean `ok`, echo the
//! request's `id` whenever the line still parses as a JSON object, and
//! never panic.
//!
//! Each case takes one request line of the `wire_golden.rs` script, or
//! one `tenant.inject` or `tenant.step` line, and applies one mutation:
//! delete an object key, replace a value with one of another JSON type,
//! replace the verb, or truncate the line at a byte offset. The mutant
//! goes to a fresh in-process server (one worker, no checkpoint root)
//! holding the script's paused tenant `g`, or to an empty one when the
//! seed is the create line. Numeric extremes (resource
//! bounds) are not generated here. The vendored proptest does not
//! shrink, so a failure prints the whole mutant.

mod mutation;

use ddpm_serve::{Server, ServerConfig};
use mutation::{mutate, truncate, Op};
use proptest::prelude::*;
use serde_json::{json, Value};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The golden script's `tenant.create` line.
const CREATE: &str = r#"{"id":1,"verb":"tenant.create","name":"g","autorun":false,"scenario":{"topology":{"kind":"hypercube","n":4},"router":"fully_adaptive","scheme":"ddpm","seed":5,"background_interval":32,"horizon":800,"attack":{"kind":"udp_flood","zombies":[2,7],"victim":12,"packets_per_zombie":80,"interval":8}}}"#;

/// The seed lines: the golden script's JSON request lines, then one
/// inject and one step.
const LINES: [&str; 12] = [
    CREATE,
    r#"{"id":2,"verb":"tenant.outcome","tenant":"g"}"#,
    r#"{"id":3,"verb":"tenant.step","tenant":"g","cycles":500}"#,
    r#"{"id":4,"verb":"tenant.stats","tenant":"g"}"#,
    r#"{"id":5,"verb":"tenant.identify","tenant":"g"}"#,
    r#"{"verb":"server.info"}"#,
    r#"{"id":6,"verb":"tenant.freeze","tenant":"g"}"#,
    r#"{"id":7,"verb":"tenant.snapshot","tenant":"g"}"#,
    r#"{"id":8,"verb":"tenant.destroy","tenant":"g"}"#,
    r#"{"id":9,"verb":"tenant.stats","tenant":"g"}"#,
    r#"{"id":10,"verb":"tenant.inject","tenant":"g","attack":{"kind":"syn_flood","zombies":[3,9],"victim":12,"syns_per_zombie":10,"interval":4}}"#,
    r#"{"id":11,"verb":"tenant.step","tenant":"g","cycles":300}"#,
];

/// Every verb the protocol accepts.
const VERBS: [&str; 11] = [
    "tenant.create",
    "tenant.inject",
    "tenant.step",
    "tenant.identify",
    "tenant.stats",
    "tenant.snapshot",
    "tenant.subscribe",
    "tenant.outcome",
    "tenant.destroy",
    "server.info",
    "server.drain",
];

/// `line` with its `verb` replaced by an accepted verb.
fn replace_verb(line: &str, pick: u8) -> String {
    let Ok(Value::Object(mut req)) = serde_json::from_str(line) else {
        panic!("seed line is not a JSON object: {line}");
    };
    req.insert("verb".into(), json!(VERBS[usize::from(pick) % VERBS.len()]));
    Value::Object(req).to_string()
}

/// A fresh server. With `tenant`, as the golden script leaves it before
/// its fourth line: the paused tenant `g`, stepped 500 cycles.
fn fresh_server(tenant: bool) -> Server {
    let server = Server::new(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let setup = if tenant {
        &[CREATE, LINES[2]][..]
    } else {
        &[][..]
    };
    for line in setup {
        let resp: Value = serde_json::from_str(&server.handle_line(line)).expect("JSON");
        assert_eq!(resp["ok"].as_bool(), Some(true), "{resp}");
    }
    server
}

/// Sends `mutant` to a fresh server and checks the response shape. A
/// mutated create goes to an empty server, any other mutant to one
/// holding `g`.
fn check(how: &str, seed: &str, mutant: &str) -> Result<(), String> {
    let server = fresh_server(seed != CREATE);
    let resp = catch_unwind(AssertUnwindSafe(|| server.handle_line(mutant)))
        .map_err(|_| format!("handle_line panicked ({how}); mutant:\n{mutant}"))?;
    let fail = |what: &str| format!("{what} ({how}); mutant:\n{mutant}\nresponse:\n{resp}");
    if resp.contains('\n') {
        return Err(fail("response spans more than one line"));
    }
    let body: Value = serde_json::from_str(&resp).map_err(|_| fail("response is not JSON"))?;
    if body["ok"].as_bool().is_none() {
        return Err(fail("response has no boolean `ok`"));
    }
    if let Ok(Value::Object(req)) = serde_json::from_str::<Value>(mutant) {
        if body["id"] != req.get("id").cloned().unwrap_or(Value::Null) {
            return Err(fail("response does not echo the request id"));
        }
    }
    server
        .drain()
        .map_err(|e| fail(&format!("drain failed: {e}")))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn mutated_requests_get_one_well_formed_answer(
        line in 0usize..64,
        op in 0u8..4,
        site in any::<u64>(),
        pick in any::<u8>(),
    ) {
        let seed = LINES[line % LINES.len()];
        let (how, mutant) = match op {
            0 => ("delete", mutate(seed, Op::Delete, site)),
            1 => ("retype", mutate(seed, Op::Retype(pick), site)),
            2 => ("verb", replace_verb(seed, pick)),
            _ => ("truncate", truncate(seed, site)),
        };
        let res = check(&format!("{how} at {site}"), seed, &mutant);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }
}
