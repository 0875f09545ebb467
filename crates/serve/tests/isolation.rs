//! Tenant isolation under interleaving.
//!
//! Property: however many differently-configured tenants share a
//! server, and however their strides interleave, each tenant's outcome
//! digest equals the digest of the same scenario run solo. Tenants are
//! independent seeded worlds; the multiplexing must be invisible.
//!
//! The same holds mid-flight: every `tenant.identify` answer, served
//! from the tenant's published view without the tenant lock, equals the
//! solo world's `identify(None)` at the same cycle. Both hold as well
//! when waiting requests cut nearly every worker stride short.

use ddpm_serve::proto::ok_response;
use ddpm_serve::scenario::{run_scenario, ScenarioConfig, ScenarioWorld};
use ddpm_serve::{OnlineAttribution, Server, ServerConfig};
use proptest::collection::vec as pvec;
use proptest::prelude::*;
use serde_json::{json, FromJson, Value};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// A small scenario from a handful of orthogonal knobs, varied enough
/// to cover the topology families and plugin schemes, small enough that
/// a proptest case stays quick.
fn scenario_json(knobs: (u8, u8, u64)) -> Value {
    let (shape, scheme, seed) = knobs;
    let topology = match shape % 3 {
        0 => json!({"kind": "torus", "dims": [5, 5]}),
        1 => json!({"kind": "mesh", "dims": [4, 4]}),
        _ => json!({"kind": "hypercube", "n": 4}),
    };
    let scheme = match scheme % 4 {
        0 => "ddpm",
        1 => "dpm",
        2 => "ppm-edge",
        _ => "tracemax",
    };
    let attack = json!({
        "kind": "udp_flood",
        "zombies": [1, 9], "victim": 13,
        "packets_per_zombie": 60, "interval": 9
    });
    json!({
        "topology": topology, "router": "fully_adaptive", "scheme": scheme,
        "seed": seed, "background_interval": 40, "horizon": 900,
        "attack": attack,
    })
}

/// The response line to an id-less `tenant.identify` answered with `a`.
fn identify_line(a: &OnlineAttribution) -> String {
    ok_response(
        None,
        &json!({
            "scheme": a.scheme,
            "cycle": a.cycle,
            "victim": a.victim,
            "observed": a.observed,
            "rejected": a.rejected,
            "candidates": a.candidates,
            "confidence": a.confidence,
        }),
    )
}

fn identify_request(tenant: &str) -> String {
    json!({"verb": "tenant.identify", "tenant": tenant}).to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// 2–4 random tenants, interleaved in random bounded strides via
    /// the wire-facing dispatch path, each digest == its solo run.
    #[test]
    fn interleaved_tenants_match_their_solo_digests(
        tenant_knobs in pvec((any::<u8>(), any::<u8>(), any::<u64>()), 2..5),
        stride_seq in pvec(1u64..6000, 8..25),
    ) {
        let server = Server::new(ServerConfig { workers: 1, ..ServerConfig::default() });
        let scenarios: Vec<Value> = tenant_knobs.iter().map(|&k| scenario_json(k)).collect();
        let configs: Vec<ScenarioConfig> = scenarios
            .iter()
            .map(|sc| ScenarioConfig::from_json(sc).expect("config"))
            .collect();
        let mut solos: Vec<ScenarioWorld> = configs
            .iter()
            .map(|cfg| ScenarioWorld::build(cfg, None, None).expect("solo world"))
            .collect();
        for (i, sc) in scenarios.iter().enumerate() {
            let resp: Value = serde_json::from_str(&server.handle_line(
                &json!({"verb": "tenant.create", "name": format!("t{i}"),
                        "autorun": false, "scenario": sc.clone()}).to_string(),
            )).expect("json");
            prop_assert_eq!(resp["ok"].as_bool(), Some(true), "create failed: {}", resp);
        }
        // Round-robin with ragged strides until every tenant finishes;
        // the stride sequence (not the tenant order) is the random part.
        let n = scenarios.len();
        let mut done = vec![false; n];
        let mut step = 0usize;
        while done.iter().any(|d| !d) {
            let i = step % n;
            if !done[i] {
                let cycles = stride_seq[step % stride_seq.len()];
                let resp: Value = serde_json::from_str(&server.handle_line(
                    &json!({"verb": "tenant.step", "tenant": format!("t{i}"),
                            "cycles": cycles}).to_string(),
                )).expect("json");
                prop_assert_eq!(resp["ok"].as_bool(), Some(true), "step failed: {}", resp);
                done[i] = resp["done"].as_bool() == Some(true);
                prop_assert_eq!(solos[i].step(cycles), done[i]);
                let got = server.handle_line(&identify_request(&format!("t{i}")));
                let want = solos[i].identify(None).expect("solo identify");
                prop_assert_eq!(got, identify_line(&want), "tenant t{}", i);
            }
            step += 1;
        }
        for (i, cfg) in configs.iter().enumerate() {
            let resp: Value = serde_json::from_str(&server.handle_line(
                &json!({"verb": "tenant.outcome", "tenant": format!("t{i}")}).to_string(),
            )).expect("json");
            prop_assert_eq!(resp["ok"].as_bool(), Some(true), "outcome failed: {}", resp);
            let solo = run_scenario(cfg).expect("solo run");
            prop_assert_eq!(
                resp["digest"].as_str().expect("digest"),
                solo.digest.as_str(),
                "tenant t{} diverged from its solo run", i
            );
        }
        server.drain().expect("drain");
    }
}

/// Steps `world` through every event at or before `cycle` and no later
/// one: the state a server-side world whose last advancement stopped at
/// `cycle` is in.
fn advance_to(world: &mut ScenarioWorld, cycle: u64) {
    while world.sim().next_event_time().is_some_and(|t| t <= cycle) {
        world.step(cycle + 1 - world.now_cycles());
    }
}

/// An autorun tenant whose worker stride outlasts its whole run, while a
/// second client polls `tenant.stats` (which takes the tenant lock): the
/// worker yields to every poll, so the run is a long chain of strides cut
/// short at slice boundaries. Every identify answer still equals the
/// solo world's at the reported cycle, and the outcome digest equals the
/// standalone one-shot run's.
#[test]
fn strides_cut_short_by_waiting_requests_match_the_solo_run() {
    let sc = json!({
        "topology": {"kind": "torus", "dims": [6, 6]},
        "router": "fully_adaptive", "scheme": "ddpm", "seed": 41,
        "background_interval": 40, "horizon": 40_000,
        "attack": {"kind": "udp_flood", "zombies": [4, 17], "victim": 30,
                   "packets_per_zombie": 300, "interval": 50}
    });
    let cfg = ScenarioConfig::from_json(&sc).expect("config");
    let server = Server::new(ServerConfig {
        workers: 1,
        stride: 1 << 40,
        ..ServerConfig::default()
    });
    let create: Value = serde_json::from_str(&server.handle_line(
        &json!({"verb": "tenant.create", "name": "p", "autorun": true, "scenario": sc}).to_string(),
    ))
    .expect("json");
    assert_eq!(create["ok"].as_bool(), Some(true), "{create}");
    let mut solo = ScenarioWorld::build(&cfg, None, None).expect("solo world");
    let finished = AtomicBool::new(false);
    let mut cycles = BTreeSet::new();
    std::thread::scope(|s| {
        let poller = s.spawn(|| {
            let stats = json!({"verb": "tenant.stats", "tenant": "p"}).to_string();
            while !finished.load(Ordering::SeqCst) {
                let resp: Value = serde_json::from_str(&server.handle_line(&stats)).expect("json");
                assert_eq!(resp["ok"].as_bool(), Some(true), "{resp}");
                finished.store(resp["done"].as_bool() == Some(true), Ordering::SeqCst);
                std::thread::sleep(Duration::from_micros(300));
            }
        });
        loop {
            // Read `finished` first: the answer after it is final. A
            // poller that panicked ends the loop too (the scope re-raises).
            let last = finished.load(Ordering::SeqCst) || poller.is_finished();
            let got = server.handle_line(&identify_request("p"));
            let cycle = serde_json::from_str::<Value>(&got).expect("json")["cycle"]
                .as_u64()
                .unwrap_or_else(|| panic!("identify failed: {got}"));
            advance_to(&mut solo, cycle);
            let want = solo.identify(None).expect("solo identify");
            assert_eq!(got, identify_line(&want), "at cycle {cycle}");
            cycles.insert(cycle);
            if last {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    });
    // Without preemption the one stride would cover the whole run, and
    // identify would see only cycle 0 and the last one.
    assert!(cycles.len() > 2, "identify saw only cycles {cycles:?}");
    let outcome: Value = serde_json::from_str(
        &server.handle_line(&json!({"verb": "tenant.outcome", "tenant": "p"}).to_string()),
    )
    .expect("json");
    assert_eq!(
        outcome["digest"].as_str(),
        Some(run_scenario(&cfg).expect("solo run").digest.as_str()),
        "{outcome}"
    );
    server.drain().expect("drain");
}
