//! The service over real loopback TCP, through [`ServeClient`].
//!
//! Three contracts: a request/response round trip costs no Nagle stall
//! (each side sends a line in one segment with `TCP_NODELAY` set), a
//! request that needs the tenant itself waits one slice of a worker's
//! stride rather than the whole stride, and a malformed inject is
//! refused in-band without harming its tenant.

use ddpm_serve::{ServeClient, Server, ServerConfig};
use serde_json::{json, Value};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A small flood on the 16-node hypercube; `horizon` sets how long the
/// tenant keeps the worker busy.
fn scenario(horizon: u64) -> Value {
    json!({
        "topology": {"kind": "hypercube", "n": 4},
        "router": "fully_adaptive", "scheme": "ddpm", "seed": 5,
        "background_interval": 32, "horizon": horizon,
        "attack": {"kind": "udp_flood", "zombies": [2, 7], "victim": 12,
                   "packets_per_zombie": 80, "interval": 8}
    })
}

struct LiveServer {
    addr: String,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl LiveServer {
    fn start() -> Self {
        Self::start_with(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
    }

    fn start_with(cfg: ServerConfig) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr").to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let server = Server::new(cfg);
            server
                .serve(&listener, &|| flag.load(Ordering::SeqCst))
                .expect("serve");
            server.drain().expect("drain");
        });
        Self {
            addr,
            stop,
            thread: Some(thread),
        }
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            t.join().expect("server thread");
        }
    }
}

/// With Nagle on either side, a one-in-flight client waits for a
/// delayed ACK (~40 ms on Linux) on every call; without it a loopback
/// round trip is well under a millisecond. `server.info` is answered
/// from published views, so an autorun tenant mid-stride does not slow
/// it either.
#[test]
fn info_round_trips_stay_under_the_nagle_floor() {
    let live = LiveServer::start();
    let mut client = ServeClient::connect(&live.addr).expect("connect");
    client
        .call(
            "tenant.create",
            &json!({"name": "busy", "autorun": true, "scenario": scenario(200_000)}),
        )
        .expect("create");
    let mut rtts: Vec<Duration> = (0..20)
        .map(|_| {
            let t = Instant::now();
            let info = client.call("server.info", &json!({})).expect("server.info");
            let rtt = t.elapsed();
            assert_eq!(info["tenants"][0]["name"].as_str(), Some("busy"));
            rtt
        })
        .collect();
    rtts.sort_unstable();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median server.info round trip {median:?} (all: {rtts:?})"
    );
    client
        .call("tenant.destroy", &json!({"tenant": "busy"}))
        .expect("destroy");
}

/// A stride far longer than the tenant's whole run (which takes a few
/// hundred ms in release): a worker that kept the tenant for its stride
/// would answer `tenant.stats` only once the run had drained, and refuse
/// the inject. A preemptible stride yields within one slice, so both
/// reach the tenant mid-run, and the tenant is re-queued afterwards.
#[test]
fn locked_verbs_reach_the_tenant_mid_stride() {
    let live = LiveServer::start_with(ServerConfig {
        workers: 1,
        stride: 1 << 40,
        ..ServerConfig::default()
    });
    let mut client = ServeClient::connect(&live.addr).expect("connect");
    client
        .call(
            "tenant.create",
            &json!({"name": "long", "autorun": true, "scenario": scenario(300_000)}),
        )
        .expect("create");
    // Let the worker claim the tenant and start its one long stride.
    std::thread::sleep(Duration::from_millis(20));
    let stats = client.tenant_call("tenant.stats", "long").expect("stats");
    assert_eq!(stats["done"].as_bool(), Some(false), "{stats}");
    let inject = client
        .call(
            "tenant.inject",
            &json!({"tenant": "long", "attack": {
                "kind": "syn_flood", "zombies": [3], "victim": 12,
                "syns_per_zombie": 10, "interval": 4}}),
        )
        .expect("inject mid-run");
    assert_eq!(inject["packets"].as_u64(), Some(10), "{inject}");
    let stats = client.tenant_call("tenant.stats", "long").expect("stats");
    assert_eq!(stats["done"].as_bool(), Some(false), "{stats}");
    assert_eq!(stats["injected_extra"].as_u64(), Some(10), "{stats}");
    client
        .wait_done("long", 20, 1500)
        .expect("the preempted tenant runs on");
}

#[test]
fn inject_whose_zombie_is_the_victim_is_refused_and_the_tenant_survives() {
    let live = LiveServer::start();
    let mut client = ServeClient::connect(&live.addr).expect("connect");
    client
        .call(
            "tenant.create",
            &json!({"name": "g", "autorun": false, "scenario": scenario(800)}),
        )
        .expect("create");
    client
        .call("tenant.step", &json!({"tenant": "g", "cycles": 300}))
        .expect("step");
    for attack in [
        json!({"kind": "udp_flood", "zombies": [3, 12], "victim": 12,
               "packets_per_zombie": 10, "interval": 4}),
        json!({"kind": "syn_flood", "zombies": [12], "victim": 12,
               "syns_per_zombie": 10, "interval": 4}),
    ] {
        let err = client
            .call("tenant.inject", &json!({"tenant": "g", "attack": attack}))
            .expect_err("an inject whose zombie is the victim must be refused");
        assert!(err.contains("zombie 12 is the victim"), "{err}");
    }
    // The refused request poisoned nothing: the tenant still answers
    // every verb and runs to its normal outcome.
    let identify = client
        .call("tenant.identify", &json!({"tenant": "g"}))
        .expect("identify after the refused inject");
    assert_eq!(identify["victim"].as_u64(), Some(12));
    let stats = client.tenant_call("tenant.stats", "g").expect("stats");
    assert_eq!(stats["injected_extra"].as_u64(), Some(0));
    while client
        .call("tenant.step", &json!({"tenant": "g", "cycles": 4096}))
        .expect("step")["done"]
        .as_bool()
        != Some(true)
    {}
    let outcome = client.tenant_call("tenant.outcome", "g").expect("outcome");
    assert_eq!(
        outcome["summary"]["attribution"]["candidates"],
        json!([2, 7]),
        "{outcome}"
    );
}
