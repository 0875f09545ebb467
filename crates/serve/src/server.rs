//! The resident multi-tenant server.
//!
//! A [`Server`] owns a set of named **tenants** — each a
//! [`ScenarioWorld`] — and a pool of worker threads that advance
//! autorun tenants round-robin in bounded strides: a worker claims the
//! tenant at the head of the run queue, steps it one stride, re-queues
//! it if unfinished, and moves on. The stride bound is the fairness
//! unit (no tenant can monopolise a worker) *and* the latency bound of
//! the verbs that need the world itself (`tenant.inject`,
//! `tenant.step`, `tenant.stats`, ... wait at most one stride for the
//! tenant's lock).
//!
//! The hot reads do not wait at all. After every advancement, and when
//! a tenant is created or resumed, the stepping thread publishes the
//! tenant's view: the cycle reached, `done`, and the online attribution
//! for the configured victim at that cycle. `tenant.identify` for that
//! victim and `server.info` answer from the latest view without taking
//! the tenant lock; the answer is the one a locked read would have
//! given at the last stride boundary.
//!
//! Requests arrive as parsed [`proto`] envelopes; [`Server::handle`]
//! is the single dispatch point, shared by the TCP connection threads
//! and by in-process users (the bench harness drives an embedded
//! server through the same code path the wire uses).
//!
//! With a checkpoint root configured, every tenant checkpoints into
//! `<root>/<name>/` at the configured cycle cadence, alongside a
//! `tenant.json` metadata file; [`Server::resume_tenants`] rebuilds
//! the full tenant set from such a root after a crash or drain, and
//! the simulator's determinism contract makes the resumed runs
//! bit-identical continuations.

use crate::proto::{self, Envelope, Request};
use crate::world::{OnlineAttribution, ScenarioWorld};
use ddpm_sim::CheckpointConfig;
use ddpm_telemetry::{BroadcastSink, TelemetryConfig};
use serde_json::{json, Value};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread;

/// Maximum telemetry events a tenant buffers between `subscribe`
/// drains (oldest dropped beyond this; the drop count is reported).
const TELEMETRY_BACKLOG: usize = 65_536;

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Worker threads advancing autorun tenants (minimum 1).
    pub workers: usize,
    /// Default stride bound, in simulated cycles, for both worker
    /// advancement and `tenant.step` without an explicit `cycles`.
    pub stride: u64,
    /// Root directory for per-tenant checkpoint subdirectories; `None`
    /// disables service-side checkpointing.
    pub checkpoint_root: Option<PathBuf>,
    /// Cycle cadence for service-side tenant checkpoints.
    pub checkpoint_every: u64,
    /// Checkpoints retained per tenant.
    pub keep: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            stride: 4096,
            checkpoint_root: None,
            checkpoint_every: 8192,
            keep: 2,
        }
    }
}

/// Cached end-of-run summary (computed once; `outcome()` records
/// post-run telemetry, so it must not be recomputed per request).
struct FinishedOutcome {
    text: String,
    json: Value,
    digest: String,
}

/// One tenant: the world plus its service-side bookkeeping.
struct Tenant {
    world: ScenarioWorld,
    sink: Option<BroadcastSink>,
    /// Set while the tenant sits in the run queue or under a worker's
    /// stride, so concurrent enqueues cannot double-queue it.
    queued: bool,
    /// Cycle of the last service-side checkpoint.
    checkpointed_at: u64,
    outcome: Option<FinishedOutcome>,
}

impl Tenant {
    fn stats_body(&self, autorun: bool) -> Value {
        let stats = self.world.sim().stats();
        json!({
            "cycle": self.world.now_cycles(),
            "done": self.world.done(),
            "autorun": autorun,
            "live": self.world.sim().live_count(),
            "benign": {"injected": stats.benign.injected, "delivered": stats.benign.delivered},
            "attack": {"injected": stats.attack.injected, "delivered": stats.attack.delivered,
                       "dropped": stats.attack.dropped()},
            "injected_extra": self.world.injected_packets(),
        })
    }
}

/// A tenant's published state: what reads may serve without the tenant
/// lock. Immutable once published; each advancement swaps in a new one.
struct View {
    cycle: u64,
    done: bool,
    /// `identify(None)` at `cycle`: the configured victim's answer, or
    /// why there is none.
    identify: Result<OnlineAttribution, String>,
}

impl View {
    fn of(world: &ScenarioWorld) -> Arc<Self> {
        Arc::new(Self {
            cycle: world.now_cycles(),
            done: world.done(),
            identify: world.identify(None),
        })
    }
}

/// A tenant's entry in the server's table.
struct Slot {
    autorun: bool,
    tenant: Mutex<Tenant>,
    /// The latest [`View`], locked only long enough to clone the `Arc`.
    view: Mutex<Arc<View>>,
}

impl Slot {
    fn new(tenant: Tenant, autorun: bool) -> Self {
        Self {
            autorun,
            view: Mutex::new(View::of(&tenant.world)),
            tenant: Mutex::new(tenant),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Tenant> {
        self.tenant.lock().expect("tenant poisoned")
    }

    fn view(&self) -> Arc<View> {
        Arc::clone(&self.view.lock().expect("view poisoned"))
    }

    /// Publishes `world`'s current state. Callers hold the tenant lock,
    /// so views are published in advancement order.
    fn publish(&self, world: &ScenarioWorld) {
        let view = View::of(world);
        *self.view.lock().expect("view poisoned") = view;
    }
}

/// The `tenant.identify` response body.
fn identify_body(a: &OnlineAttribution) -> Value {
    json!({
        "scheme": a.scheme,
        "cycle": a.cycle,
        "victim": a.victim,
        "observed": a.observed,
        "rejected": a.rejected,
        "candidates": a.candidates.iter().map(|&c| json!(c)).collect::<Vec<_>>(),
        "confidence": a.confidence,
    })
}

struct Inner {
    cfg: ServerConfig,
    tenants: Mutex<HashMap<String, Arc<Slot>>>,
    runq: Mutex<VecDeque<String>>,
    work: Condvar,
    draining: AtomicBool,
    shutdown: AtomicBool,
}

/// The resident attribution service. Cheap to clone (shared state);
/// dropped workers are joined by [`Server::drain`].
pub struct Server {
    inner: Arc<Inner>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Starts a server with `cfg.workers` advancement threads.
    #[must_use]
    pub fn new(cfg: ServerConfig) -> Self {
        let inner = Arc::new(Inner {
            cfg: ServerConfig {
                workers: cfg.workers.max(1),
                stride: cfg.stride.max(1),
                checkpoint_every: cfg.checkpoint_every.max(1),
                ..cfg
            },
            tenants: Mutex::new(HashMap::new()),
            runq: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
        });
        let workers = (0..inner.cfg.workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker")
            })
            .collect();
        Self { inner, workers }
    }

    /// The effective configuration (after floor clamping).
    #[must_use]
    pub fn config(&self) -> &ServerConfig {
        &self.inner.cfg
    }

    /// Rebuilds every tenant checkpointed under the configured root:
    /// scans `<root>/*/tenant.json`, resumes each world from its newest
    /// checkpoint, and re-queues autorun tenants. Returns the resumed
    /// tenant names (empty when no root is configured or the root does
    /// not exist yet).
    ///
    /// # Errors
    /// The first tenant that fails to resume aborts the scan — a
    /// service that silently dropped a tenant would violate the
    /// "killed server resumes every tenant" contract.
    pub fn resume_tenants(&self) -> Result<Vec<String>, String> {
        let Some(root) = self.inner.cfg.checkpoint_root.clone() else {
            return Ok(Vec::new());
        };
        if !root.is_dir() {
            return Ok(Vec::new());
        }
        let mut names: Vec<String> = std::fs::read_dir(&root)
            .map_err(|e| format!("scanning {}: {e}", root.display()))?
            .filter_map(|entry| {
                let entry = entry.ok()?;
                let name = entry.file_name().into_string().ok()?;
                entry
                    .path()
                    .join("tenant.json")
                    .is_file()
                    .then_some(name)
            })
            .collect();
        names.sort_unstable();
        for name in &names {
            let dir = root.join(name);
            let meta_path = dir.join("tenant.json");
            let meta_text = std::fs::read_to_string(&meta_path)
                .map_err(|e| format!("{}: {e}", meta_path.display()))?;
            let meta: Value = serde_json::from_str(&meta_text)
                .map_err(|e| format!("{}: {e}", meta_path.display()))?;
            let autorun = meta["autorun"].as_bool().unwrap_or(true);
            let telemetry = meta["telemetry"].as_bool().unwrap_or(false);
            let sink = telemetry.then(|| BroadcastSink::with_capacity(TELEMETRY_BACKLOG));
            let tc = sink
                .clone()
                .map(|s| TelemetryConfig::events_to(ddpm_telemetry::shared(s)));
            let (cfg, source, ckpt) =
                crate::scenario::load_resume(&dir, Some(self.inner.cfg.checkpoint_every))
                    .map_err(|e| format!("tenant `{name}`: {e}"))?;
            let world = ScenarioWorld::build_with(&cfg, Some(&source), Some(ckpt), tc)
                .map_err(|e| format!("tenant `{name}`: {e}"))?;
            // The checkpoint may predate quiescence by a partial stride;
            // `done` is discovered on the next advancement, so start
            // from "not done" and let the workers (or explicit steps)
            // find out — identical to how the standalone resume path
            // re-runs the tail.
            let checkpointed_at = world.now_cycles();
            let tenant = Tenant {
                world,
                sink,
                queued: false,
                checkpointed_at,
                outcome: None,
            };
            self.insert_tenant(name.clone(), tenant, autorun)
                .map_err(|e| format!("tenant `{name}`: {e}"))?;
        }
        Ok(names)
    }

    fn insert_tenant(&self, name: String, tenant: Tenant, autorun: bool) -> Result<(), String> {
        {
            let mut tenants = self.inner.tenants.lock().expect("tenants poisoned");
            if tenants.contains_key(&name) {
                return Err(format!("tenant `{name}` already exists"));
            }
            tenants.insert(name.clone(), Arc::new(Slot::new(tenant, autorun)));
        }
        if autorun {
            self.enqueue(&name);
        }
        Ok(())
    }

    fn enqueue(&self, name: &str) {
        enqueue(&self.inner, name);
    }

    fn slot(&self, name: &str) -> Result<Arc<Slot>, String> {
        self.inner
            .tenants
            .lock()
            .expect("tenants poisoned")
            .get(name)
            .cloned()
            .ok_or_else(|| format!("no such tenant `{name}`"))
    }

    /// Handles one request line end to end: parse, dispatch, respond.
    /// Always returns a response line (never closes the conversation).
    /// Even when the request fails to parse, a recoverable `"id"` is
    /// echoed so clients can correlate the error.
    #[must_use]
    pub fn handle_line(&self, line: &str) -> String {
        match proto::parse_request(line) {
            Ok(env) => self.handle(&env),
            Err(e) => {
                let id = serde_json::from_str::<Value>(line)
                    .ok()
                    .and_then(|v| v.get("id").cloned());
                proto::err_response(id.as_ref(), &e)
            }
        }
    }

    /// Dispatches a parsed request and builds its response line.
    #[must_use]
    pub fn handle(&self, env: &Envelope) -> String {
        let id = env.id.as_ref();
        match self.dispatch(&env.req) {
            Ok(body) => proto::ok_response(id, &body),
            Err(e) => proto::err_response(id, &e),
        }
    }

    #[allow(clippy::too_many_lines)]
    fn dispatch(&self, req: &Request) -> Result<Value, String> {
        match req {
            Request::Create {
                name,
                config,
                source,
                autorun,
                telemetry,
            } => {
                if self.inner.draining.load(Ordering::SeqCst) {
                    return Err("server is draining; not accepting new tenants".into());
                }
                validate_name(name)?;
                let mut cfg = (**config).clone();
                // Service-side checkpointing into <root>/<name> overrides
                // whatever directory the inline scenario named: tenants
                // of one server must never share a checkpoint dir, and
                // the crash hook is a single-process test device.
                if let Some(root) = &self.inner.cfg.checkpoint_root {
                    let dir = root.join(name);
                    cfg.checkpoint = Some(CheckpointConfig {
                        every: self.inner.cfg.checkpoint_every,
                        dir: dir.clone(),
                        keep: self.inner.cfg.keep.max(1),
                        crash_at: None,
                    });
                    std::fs::create_dir_all(&dir)
                        .map_err(|e| format!("creating {}: {e}", dir.display()))?;
                    let meta = json!({"autorun": *autorun, "telemetry": *telemetry});
                    std::fs::write(dir.join("tenant.json"), meta.to_string())
                        .map_err(|e| format!("writing tenant meta: {e}"))?;
                }
                let sink = telemetry.then(|| BroadcastSink::with_capacity(TELEMETRY_BACKLOG));
                let tc = sink
                    .clone()
                    .map(|s| TelemetryConfig::events_to(ddpm_telemetry::shared(s)));
                let world = ScenarioWorld::build_with(&cfg, Some(source), None, tc)?;
                let nodes = world.topology().num_nodes();
                let tenant = Tenant {
                    world,
                    sink,
                    queued: false,
                    checkpointed_at: 0,
                    outcome: None,
                };
                self.insert_tenant(name.clone(), tenant, *autorun)?;
                Ok(json!({"tenant": name.as_str(), "nodes": nodes, "autorun": *autorun}))
            }
            Request::Inject { tenant, attack } => {
                let slot = self.slot(tenant)?;
                let mut t = slot.lock();
                let (first_cycle, packets) = t.world.inject(attack)?;
                Ok(json!({"first_cycle": first_cycle, "packets": packets}))
            }
            Request::Step { tenant, cycles } => {
                let slot = self.slot(tenant)?;
                let mut t = slot.lock();
                let done = t.world.step(cycles.unwrap_or(self.inner.cfg.stride));
                slot.publish(&t.world);
                Ok(json!({"cycle": t.world.now_cycles(), "done": done}))
            }
            Request::Identify { tenant, victim } => {
                let slot = self.slot(tenant)?;
                let view = slot.view();
                // The configured victim is answered from the published
                // view; any other victim needs the world itself.
                match (victim, &view.identify) {
                    (None, published) => {
                        published.as_ref().map(identify_body).map_err(Clone::clone)
                    }
                    (Some(v), Ok(a)) if *v == a.victim => Ok(identify_body(a)),
                    (Some(_), _) => slot
                        .lock()
                        .world
                        .identify(*victim)
                        .map(|a| identify_body(&a)),
                }
            }
            Request::Stats { tenant } => {
                let slot = self.slot(tenant)?;
                let t = slot.lock();
                Ok(t.stats_body(slot.autorun))
            }
            Request::Snapshot { tenant } => {
                let slot = self.slot(tenant)?;
                let mut t = slot.lock();
                match t.world.checkpoint_now()? {
                    Some(path) => {
                        t.checkpointed_at = t.world.now_cycles();
                        Ok(json!({
                            "path": path.display().to_string(),
                            "cycle": t.world.now_cycles(),
                        }))
                    }
                    None => Err(
                        "tenant has no checkpoint directory (start the server with a \
                         checkpoint root, or put a `checkpoint` block in the scenario)"
                            .into(),
                    ),
                }
            }
            Request::Subscribe { tenant } => {
                let slot = self.slot(tenant)?;
                let t = slot.lock();
                let Some(sink) = &t.sink else {
                    return Err(format!(
                        "tenant `{tenant}` was created without telemetry; \
                         pass \"telemetry\": true at create"
                    ));
                };
                let (events, dropped) = sink.drain();
                let events: Vec<Value> = events
                    .iter()
                    .map(|e| {
                        serde_json::from_str(&e.to_ndjson())
                            .expect("telemetry NDJSON is well-formed")
                    })
                    .collect();
                Ok(json!({"events": events, "dropped": dropped}))
            }
            Request::Outcome { tenant } => {
                let slot = self.slot(tenant)?;
                let mut t = slot.lock();
                if !t.world.done() {
                    return Err(format!(
                        "tenant `{tenant}` is still running (cycle {}); outcome is \
                         available once done",
                        t.world.now_cycles()
                    ));
                }
                if t.outcome.is_none() {
                    let out = t.world.outcome();
                    t.outcome = Some(FinishedOutcome {
                        text: out.text,
                        json: out.json,
                        digest: out.digest,
                    });
                }
                let out = t.outcome.as_ref().expect("just cached");
                Ok(json!({
                    "digest": out.digest.as_str(),
                    "summary": out.json.clone(),
                    "text": out.text.as_str(),
                }))
            }
            Request::Destroy { tenant } => {
                let slot = {
                    let mut tenants = self.inner.tenants.lock().expect("tenants poisoned");
                    tenants
                        .remove(tenant)
                        .ok_or_else(|| format!("no such tenant `{tenant}`"))?
                };
                // Wait out any in-flight stride, then drop the world.
                drop(slot.lock());
                if let Some(root) = &self.inner.cfg.checkpoint_root {
                    let dir = root.join(tenant);
                    if dir.is_dir() {
                        std::fs::remove_dir_all(&dir)
                            .map_err(|e| format!("removing {}: {e}", dir.display()))?;
                    }
                }
                Ok(json!({"destroyed": tenant.as_str()}))
            }
            Request::Info => {
                let tenants = self.inner.tenants.lock().expect("tenants poisoned");
                let mut names: Vec<&String> = tenants.keys().collect();
                names.sort_unstable();
                let rows: Vec<Value> = names
                    .iter()
                    .map(|name| {
                        let slot = &tenants[name.as_str()];
                        let view = slot.view();
                        json!({
                            "name": name.as_str(),
                            "cycle": view.cycle,
                            "done": view.done,
                            "autorun": slot.autorun,
                        })
                    })
                    .collect();
                Ok(json!({
                    "tenants": rows,
                    "workers": self.inner.cfg.workers,
                    "stride": self.inner.cfg.stride,
                    "draining": self.inner.draining.load(Ordering::SeqCst),
                }))
            }
            Request::Drain => {
                let drained = self.begin_drain()?;
                Ok(json!({"draining": true, "checkpointed": drained}))
            }
        }
    }

    /// Enters drain mode: stop advancing tenants, refuse new ones, and
    /// write a final checkpoint for every unfinished tenant that has a
    /// checkpoint directory. Idempotent. Returns how many tenants were
    /// checkpointed.
    ///
    /// # Errors
    /// The first checkpoint write failure (drain keeps the server in
    /// draining mode regardless).
    pub fn begin_drain(&self) -> Result<usize, String> {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.work.notify_all();
        let slots: Vec<(String, Arc<Slot>)> = {
            let tenants = self.inner.tenants.lock().expect("tenants poisoned");
            let mut v: Vec<_> = tenants
                .iter()
                .map(|(k, s)| (k.clone(), Arc::clone(s)))
                .collect();
            v.sort_by(|a, b| a.0.cmp(&b.0));
            v
        };
        let mut checkpointed = 0;
        for (name, slot) in slots {
            let mut t = slot.lock();
            if !t.world.done() && t.world.config().checkpoint.is_some() {
                t.world
                    .checkpoint_now()
                    .map_err(|e| format!("draining tenant `{name}`: {e}"))?;
                t.checkpointed_at = t.world.now_cycles();
                checkpointed += 1;
            }
        }
        Ok(checkpointed)
    }

    /// Drains (checkpointing unfinished tenants) and joins the worker
    /// pool. The terminal call — consumes the server.
    ///
    /// # Errors
    /// As [`Self::begin_drain`]; workers are joined either way.
    pub fn drain(mut self) -> Result<(), String> {
        let result = self.begin_drain().map(|_| ());
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.work.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        result
    }

    /// Serves connections on `listener` until `stop` reads true.
    ///
    /// The listener is switched to non-blocking and polled, so the loop
    /// notices `stop` (e.g. a SIGINT flag) within ~50 ms even while
    /// idle. Each connection gets a thread running the line loop.
    ///
    /// # Errors
    /// Listener-level I/O failures (per-connection errors only end that
    /// connection).
    pub fn serve(&self, listener: &TcpListener, stop: &dyn Fn() -> bool) -> Result<(), String> {
        listener
            .set_nonblocking(true)
            .map_err(|e| format!("set_nonblocking: {e}"))?;
        let mut conns: Vec<thread::JoinHandle<()>> = Vec::new();
        loop {
            if stop() {
                break;
            }
            match listener.accept() {
                Ok((stream, _addr)) => {
                    let server = self.clone_handle();
                    conns.push(
                        thread::Builder::new()
                            .name("serve-conn".into())
                            .spawn(move || connection_loop(&server, stream))
                            .expect("spawn connection thread"),
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(std::time::Duration::from_millis(50));
                }
                Err(e) => return Err(format!("accept: {e}")),
            }
            conns.retain(|h| !h.is_finished());
        }
        // Connections still open keep their threads until the process
        // exits; requests racing the shutdown see drain-mode errors.
        Ok(())
    }

    /// A connection-scoped handle sharing this server's state (workers
    /// are owned by the original).
    fn clone_handle(&self) -> Server {
        Server {
            inner: Arc::clone(&self.inner),
            workers: Vec::new(),
        }
    }
}

/// Puts `name` on the run queue unless it is already queued or under a
/// worker stride.
fn enqueue(inner: &Inner, name: &str) {
    let Some(slot) = inner
        .tenants
        .lock()
        .expect("tenants poisoned")
        .get(name)
        .cloned()
    else {
        return;
    };
    {
        let mut t = slot.lock();
        if t.queued || t.world.done() {
            return;
        }
        t.queued = true;
    }
    inner
        .runq
        .lock()
        .expect("runq poisoned")
        .push_back(name.to_owned());
    inner.work.notify_one();
}

/// The worker loop: claim the next queued tenant, advance it one
/// stride, checkpoint if the cadence came due, re-queue if unfinished.
fn worker_loop(inner: &Inner) {
    loop {
        let name = {
            let mut runq = inner.runq.lock().expect("runq poisoned");
            loop {
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if !inner.draining.load(Ordering::SeqCst) {
                    if let Some(name) = runq.pop_front() {
                        break name;
                    }
                }
                runq = inner.work.wait(runq).expect("runq poisoned");
            }
        };
        let Some(slot) = inner
            .tenants
            .lock()
            .expect("tenants poisoned")
            .get(&name)
            .cloned()
        else {
            continue; // destroyed while queued
        };
        let requeue = {
            let mut t = slot.lock();
            let done = t.world.step(inner.cfg.stride);
            slot.publish(&t.world);
            if !done
                && t.world.config().checkpoint.is_some()
                && t.world.now_cycles().saturating_sub(t.checkpointed_at)
                    >= inner.cfg.checkpoint_every
            {
                // Cadence checkpoint; a failure here must not kill the
                // run (the next cadence or the drain retries it).
                match t.world.checkpoint_now() {
                    Ok(_) => t.checkpointed_at = t.world.now_cycles(),
                    Err(e) => eprintln!("warning: tenant `{name}`: {e}"),
                }
            }
            t.queued = !done && slot.autorun;
            t.queued
        };
        if requeue {
            inner
                .runq
                .lock()
                .expect("runq poisoned")
                .push_back(name);
            inner.work.notify_one();
        }
    }
}

/// Per-connection line loop: read request lines, write response lines.
///
/// Nagle is off and each response leaves in one `write_all`, newline
/// included: a separate 1-byte newline write would wait in the send
/// buffer for the client's delayed ACK (~40 ms on Linux).
fn connection_loop(server: &Server, stream: TcpStream) {
    let Ok(reader_stream) = stream.try_clone() else {
        return;
    };
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let reader = BufReader::new(reader_stream);
    let mut writer = stream;
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let mut response = server.handle_line(&line);
        response.push('\n');
        if writer.write_all(response.as_bytes()).is_err() {
            break;
        }
    }
}

/// Tenant names become directory names; keep them path-safe.
fn validate_name(name: &str) -> Result<(), String> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.');
    if ok && !name.starts_with('.') {
        Ok(())
    } else {
        Err(format!(
            "invalid tenant name `{name}` (1-64 chars of [A-Za-z0-9._-], \
             not starting with a dot)"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_names_are_path_safe() {
        assert!(validate_name("t1").is_ok());
        assert!(validate_name("soak-chaos_mix.v2").is_ok());
        assert!(validate_name("").is_err());
        assert!(validate_name("../escape").is_err());
        assert!(validate_name("a/b").is_err());
        assert!(validate_name(".hidden").is_err());
        assert!(validate_name(&"x".repeat(65)).is_err());
    }
}
