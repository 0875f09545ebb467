//! `serve-identify-mix`: the `serve` binary with four autorun tenants,
//! driven by one client connection in a closed loop with a fixed think
//! time — `tenant.identify` round-robin; while a tenant has spare
//! zombies and is early in its run, each identify is followed by a
//! `tenant.inject` of a new zombie (every second request a write).

use crate::gate::Gate;
use crate::gen::{self, Scenario};
use crate::wire::{Client, Service};
use crate::{Options, Profile};
use serde_json::{json, Value};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Worker threads of the service: the host's two cores. The tiny smoke
/// profile uses one, so its small tenants still outlive the first round
/// of requests.
#[must_use]
pub fn workers(profile: Profile) -> usize {
    match profile {
        Profile::Full => 2,
        Profile::Tiny => 1,
    }
}
/// Client think time between a reply and the next request.
pub const THINK: Duration = Duration::from_millis(2);
/// `server.info` round trips timed on the idle service.
const INFO_PROBES: usize = 40;
/// A session that has not finished by then is a failure.
const SESSION_LIMIT: Duration = Duration::from_secs(90);

/// What one session measured.
#[derive(Debug, Default)]
pub struct Session {
    /// Spawn → ready → every `tenant.create` answered, seconds.
    pub setup_s: f64,
    /// First create → every tenant done and its outcome fetched, seconds.
    pub wall_s: f64,
    /// Packets the fleet injected (benign + attack, scheduled + injected).
    pub injected: u64,
    /// `tenant.identify` send → reply of the round-robin loop (the final
    /// identify of a finished tenant excluded), seconds.
    pub identify_s: Vec<f64>,
    /// `tenant.inject` send → reply, seconds.
    pub inject_s: Vec<f64>,
    /// `server.info` on the idle service, seconds (traced sessions).
    pub info_s: Vec<f64>,
    /// VmHWM of the service process, MiB.
    pub rss_mb: f64,
    /// Every request line the client sent.
    pub sent: Vec<String>,
}

struct TenantRun {
    name: String,
    sc: Scenario,
    spares: Vec<u32>,
    /// Scenario zombies plus those injected so far.
    attackers: BTreeSet<u32>,
    cycle: u64,
    finished: bool,
}

/// The generated tenants of a session.
#[must_use]
pub fn tenants(seed: u64, profile: Profile) -> Vec<(Scenario, Vec<u32>)> {
    (0..gen::SERVE_TENANTS)
        .map(|i| gen::serve_tenant(seed, profile, i))
        .collect()
}

/// Runs one session against a fresh service. `probe_info` first times
/// `server.info` on the idle service.
///
/// # Errors
/// The service failed to start or the connection broke.
pub fn session(
    seed: u64,
    opts: &Options,
    index: usize,
    probe_info: bool,
    gate: &mut Gate,
) -> Result<Session, String> {
    let horizon = gen::serve_horizon(opts.profile);
    let mut out = Session::default();
    let t_spawn = Instant::now();
    let service = Service::start(opts.bin_dir.as_deref(), workers(opts.profile))?;
    let mut client = Client::connect(service.addr())?;
    if probe_info {
        for _ in 0..INFO_PROBES {
            if let Some((_, rtt)) = gate.op("server.info", client.call("server.info", json!({}))) {
                out.info_s.push(rtt);
            }
        }
    }
    let t_create = Instant::now();
    let mut runs = Vec::new();
    for (i, (sc, spares)) in tenants(seed, opts.profile).into_iter().enumerate() {
        let name = format!("s{index}-t{i}");
        let args = json!({"name": name.as_str(), "autorun": true, "scenario": sc.config.clone()});
        gate.op("tenant.create", client.call("tenant.create", args));
        runs.push(TenantRun {
            name,
            attackers: sc.zombie_set(),
            sc,
            spares,
            cycle: 0,
            finished: false,
        });
    }
    out.setup_s = t_spawn.elapsed().as_secs_f64();

    // A first round of writes, while no tenant can have drained yet.
    for run in &mut runs {
        inject_spare(&mut client, run, opts.profile, &mut out, gate);
    }
    while runs.iter().any(|r| !r.finished) {
        for run in runs.iter_mut().filter(|r| !r.finished) {
            identify_step(&mut client, run, horizon, &mut out, gate);
            std::thread::sleep(THINK);
            // Later injects follow the tenant's identify and are gated on
            // the cycle it reported. One may still wait out several
            // strides for the tenant mutex (the workers re-take it between
            // strides), and a drained world refuses injects, so only the
            // first third of the horizon is used: ten strides of margin.
            if !run.finished && run.cycle < horizon / 3 {
                inject_spare(&mut client, run, opts.profile, &mut out, gate);
            }
        }
        if t_create.elapsed() > SESSION_LIMIT {
            gate.fail(format!(
                "session {index} still running after {SESSION_LIMIT:?}"
            ));
            break;
        }
    }
    out.wall_s = t_create.elapsed().as_secs_f64();
    out.rss_mb = service.peak_rss_mb().unwrap_or(0.0);
    out.sent = std::mem::take(&mut client.sent);
    drop(client);
    service.stop()?;
    Ok(out)
}

/// Injects `run`'s next spare zombie, if it has one left.
fn inject_spare(
    client: &mut Client,
    run: &mut TenantRun,
    profile: Profile,
    out: &mut Session,
    gate: &mut Gate,
) {
    let Some(z) = run.spares.pop() else { return };
    let flood = gen::injected_flood(z, run.sc.victim, profile);
    let args = json!({"tenant": run.name.as_str(), "attack": flood});
    let what = format!("tenant.inject at reported cycle {}", run.cycle);
    if let Some((_, rtt)) = gate.op(&what, client.call("tenant.inject", args)) {
        out.inject_s.push(rtt);
        run.attackers.insert(z);
    }
    std::thread::sleep(THINK);
}

/// One identify for `run`. Once its background horizon has passed and
/// the reported cycle stopped moving, a stats poll; on completion the
/// final checks.
fn identify_step(
    client: &mut Client,
    run: &mut TenantRun,
    horizon: u64,
    out: &mut Session,
    gate: &mut Gate,
) {
    let args = json!({"tenant": run.name.as_str()});
    let before = run.cycle;
    if let Some((body, rtt)) = gate.op(
        "tenant.identify",
        client.call("tenant.identify", args.clone()),
    ) {
        run.cycle = body["cycle"].as_u64().unwrap_or(0);
        out.identify_s.push(rtt);
        gate.subset("tenant.identify", &candidates(&body), &run.attackers);
    }
    if run.cycle < horizon || run.cycle != before {
        return;
    }
    let Some((stats, _)) = gate.op("tenant.stats", client.call("tenant.stats", args.clone()))
    else {
        run.finished = true;
        return;
    };
    if stats["done"].as_bool() != Some(true) {
        return;
    }
    run.finished = true;
    out.injected += stats["benign"]["injected"].as_u64().unwrap_or(0)
        + stats["attack"]["injected"].as_u64().unwrap_or(0);
    // Every attack packet delivered means every attacker delivered one,
    // so the final answer must name exactly the attackers.
    let dropped = stats["attack"]["dropped"].as_u64().unwrap_or(u64::MAX);
    gate.check(dropped == 0, || {
        format!(
            "{}: {dropped} attack packets dropped; the ground truth is unknown",
            run.name
        )
    });
    let final_answer = gate.op(
        "final tenant.identify",
        client.call("tenant.identify", args.clone()),
    );
    let outcome = gate.op("tenant.outcome", client.call("tenant.outcome", args));
    if let Some((body, _)) = final_answer {
        let named = candidates(&body);
        gate.exact(
            &format!("{} final identify", run.name),
            &named,
            &run.attackers,
        );
        if let Some((o, _)) = outcome {
            let summary = candidates(&o["summary"]["attribution"]);
            gate.check(summary == named, || {
                format!(
                    "{}: outcome attribution {summary:?} != final identify {named:?}",
                    run.name
                )
            });
        }
    }
}

fn candidates(body: &Value) -> Vec<u32> {
    body["candidates"]
        .as_array()
        .map(|a| {
            a.iter()
                .filter_map(|c| c.as_u64())
                .map(|c| c as u32)
                .collect()
        })
        .unwrap_or_default()
}
