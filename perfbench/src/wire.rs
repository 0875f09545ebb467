//! The attribution service as the benchmark drives it: a `serve` child
//! process (or, in unit tests, the same `ddpm_serve::Server` on an
//! in-process listener) and a one-request-at-a-time NDJSON client.

use ddpm_serve::{Server, ServerConfig};
use serde_json::{json, Map, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

enum Host {
    Child {
        child: Child,
        _stdout: BufReader<ChildStdout>,
    },
    InProcess {
        stop: Arc<AtomicBool>,
        thread: Option<JoinHandle<Result<(), String>>>,
    },
}

/// A running attribution service.
pub struct Service {
    addr: String,
    host: Host,
}

impl Service {
    /// Starts `serve --listen 127.0.0.1:0 --workers N` from `bin_dir`
    /// and waits for its ready line; with no `bin_dir`, hosts the same
    /// server in this process.
    ///
    /// # Errors
    /// Spawn failures or a malformed ready line.
    pub fn start(bin_dir: Option<&Path>, workers: usize) -> Result<Self, String> {
        match bin_dir {
            Some(dir) => Self::spawn(dir, workers),
            None => Self::in_process(workers),
        }
    }

    fn spawn(dir: &Path, workers: usize) -> Result<Self, String> {
        let exe = dir.join("serve");
        let mut child = Command::new(&exe)
            .args(["--listen", "127.0.0.1:0", "--workers", &workers.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().ok_or("serve stdout not piped")?);
        let mut line = String::new();
        let ready = stdout
            .read_line(&mut line)
            .map_err(|e| e.to_string())
            .and_then(|_| serde_json::from_str::<Value>(line.trim()).map_err(|e| e.to_string()));
        let addr = match ready.as_ref().ok().and_then(|v| v["addr"].as_str()) {
            Some(a) => a.to_string(),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("serve ready line: {line:?} ({ready:?})"));
            }
        };
        Ok(Self {
            addr,
            host: Host::Child {
                child,
                _stdout: stdout,
            },
        })
    }

    fn in_process(workers: usize) -> Result<Self, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || {
            let server = Server::new(ServerConfig {
                workers,
                ..ServerConfig::default()
            });
            server.serve(&listener, &|| flag.load(Ordering::SeqCst))?;
            server.drain()
        });
        Ok(Self {
            addr,
            host: Host::InProcess {
                stop,
                thread: Some(thread),
            },
        })
    }

    /// The `ip:port` the service listens on.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Peak resident set of the process hosting the service, in MiB.
    #[must_use]
    pub fn peak_rss_mb(&self) -> Option<f64> {
        match &self.host {
            Host::Child { child, .. } => crate::stats::peak_rss_mb(Some(child.id())),
            Host::InProcess { .. } => crate::stats::peak_rss_mb(None),
        }
    }

    /// Stops the service and waits for it to end.
    ///
    /// # Errors
    /// The in-process server's own error, if it failed.
    pub fn stop(mut self) -> Result<(), String> {
        self.halt()
    }

    fn halt(&mut self) -> Result<(), String> {
        match &mut self.host {
            Host::Child { child, .. } => {
                let _ = child.kill();
                child
                    .wait()
                    .map(drop)
                    .map_err(|e| format!("waiting for serve: {e}"))
            }
            Host::InProcess { stop, thread } => {
                stop.store(true, Ordering::SeqCst);
                match thread.take() {
                    Some(t) => t.join().map_err(|_| "server thread panicked".to_string())?,
                    None => Ok(()),
                }
            }
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let _ = self.halt();
    }
}

/// A connected client: one request in flight, every line it sends kept
/// for the `proto` layer replay.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    /// Request lines sent so far.
    pub sent: Vec<String>,
}

impl Client {
    /// Connects with Nagle off, as a latency-sensitive caller would.
    ///
    /// # Errors
    /// Connection failures.
    pub fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Self {
            reader,
            writer: stream,
            next_id: 1,
            sent: Vec::new(),
        })
    }

    /// Sends `verb` with the entries of `args` and waits for the reply.
    /// Returns the reply body and the send-to-reply time in seconds.
    ///
    /// # Errors
    /// Transport failures, a reply to another id, or `ok: false`.
    pub fn call(&mut self, verb: &str, args: Value) -> Result<(Value, f64), String> {
        let id = self.next_id;
        self.next_id += 1;
        let mut req = Map::new();
        req.insert("id".into(), json!(id));
        req.insert("verb".into(), json!(verb));
        if let Value::Object(obj) = args {
            for (k, v) in obj.iter() {
                req.insert(k.clone(), v.clone());
            }
        }
        let mut line = Value::Object(req).to_string();
        line.push('\n');
        let t = Instant::now();
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send {verb}: {e}"))?;
        let mut resp = String::new();
        let n = self
            .reader
            .read_line(&mut resp)
            .map_err(|e| format!("recv {verb}: {e}"))?;
        let rtt = t.elapsed().as_secs_f64();
        line.pop();
        self.sent.push(line);
        if n == 0 {
            return Err(format!("{verb}: server closed the connection"));
        }
        let v: Value =
            serde_json::from_str(resp.trim_end()).map_err(|e| format!("{verb} reply: {e}"))?;
        if v["id"].as_u64() != Some(id) {
            return Err(format!("{verb}: reply id {} for request {id}", v["id"]));
        }
        if v["ok"].as_bool() != Some(true) {
            return Err(format!(
                "{verb}: {}",
                v["error"].as_str().unwrap_or("not ok")
            ));
        }
        Ok((v, rtt))
    }
}
