//! The `service_tcp` workload: a child `paresy serve --listen` process
//! driven over its JSONL protocol by two closed-loop connections.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rei_bench::harness::refinement_chain;
use rei_lang::Spec;
use rei_service::json::Json;

use crate::batch::another_round;
use crate::oracle::{self, Outcome};
use crate::pool::{cold_ladder, ColdSpec, ServiceSpecs, SERVICE_COSTS, SERVICE_MAX_COST};
use crate::reference::{self, Reference};
use crate::replay;
use crate::stats::{interquartile_mean, median, percentile, ratio};
use crate::trace::Trace;
use crate::{Metric, Report};

/// Answers the store holds before timing starts.
const PREFILL: usize = 4000;

/// Server starts timed for `setup_s` before the first round, besides the
/// one that starts each round. Each replays a fresh copy of the store; the
/// median of all of them is reported.
const SETUP_SPAWNS: usize = 10;

/// Operations each client makes in one round. A round replays the same
/// seeded operations against a fresh server over a fresh copy of the
/// store, so every round is the same work; about 1100 answers a round.
const OPS_PER_ROUND: u64 = 500;

/// Client connections, each a closed loop.
const CLIENTS: usize = 2;

/// The server's search workers. One, not one per core: with two closed-loop
/// clients, two workers and the server's connection threads on a 2-vCPU
/// machine, the throughput and latency of five seeds spread 0.08–0.14 of
/// their medians; with one worker, 0.04–0.06.
const SERVER_WORKERS: usize = 1;

/// A client runs a refinement chain every [`CHAIN_EVERY`]th operation,
/// otherwise sends a cold solve every [`COLD_EVERY`]th, and repeats an
/// answered spec the rest of the time. The fixed schedule puts the same
/// cold work in every seed's round.
const COLD_EVERY: u64 = 4;
const CHAIN_EVERY: u64 = 25;

/// An operation of the schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Hit,
    Cold,
    Chain,
}

/// Operation `ops` (from 1) of a client.
fn scheduled(ops: u64) -> Op {
    if ops % CHAIN_EVERY == CHAIN_EVERY / 2 {
        Op::Chain
    } else if ops % COLD_EVERY == COLD_EVERY / 2 {
        Op::Cold
    } else {
        Op::Hit
    }
}

/// Cold specs in a client's ladder: one per cold solve and chain of a
/// round.
fn ladder_len() -> usize {
    (1..=OPS_PER_ROUND)
        .filter(|&ops| scheduled(ops) != Op::Hit)
        .count()
}

/// Refine steps per chain after its base, at most: each adds one example
/// to the session's spec.
const REFINE_STEPS: usize = 3;

/// Every this many operations both clients send the same new spec at once.
const COALESCE_EVERY: u64 = 64;

/// A client reconnects after this many answers on one connection.
const RECONNECT_EVERY: usize = 100;

/// Bounds on waiting for the child server.
const START_TIMEOUT: Duration = Duration::from_secs(60);
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);
const STOP_TIMEOUT: Duration = Duration::from_secs(20);

/// What a request was sent as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A spec never sent before.
    Cold,
    /// A spec answered before.
    Hit,
    /// The same new spec on both connections at once.
    Coalesce,
    /// The base of a refinement chain, the first request of its session.
    RefineBase,
    /// A step of a refinement chain after its base.
    Refine,
}

/// One answered synthesis request.
struct Answer {
    kind: Kind,
    spec: Spec,
    outcome: Option<Outcome>,
    latency_ms: f64,
    /// The host-speed reference timed just before sending, in seconds.
    reference: f64,
    wait_ms: f64,
    run_ms: f64,
    source: String,
    reuse: Option<String>,
    /// Connect time plus latency when this was a connection's first
    /// answer.
    first_reply_ms: Option<f64>,
    traced: bool,
}

/// A directory removed when dropped, on success and on failure alike.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Result<TempDir, String> {
        let path = crate::work_dir().join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)
            .map_err(|err| format!("cannot create {}: {err}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Builds the `paresy` binary of this checkout (a no-op when it is fresh)
/// and returns its path.
fn paresy_binary() -> Result<PathBuf, String> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let output = Command::new(cargo)
        .current_dir(crate::repo_root())
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "paresy-cli",
            "--bin",
            "paresy",
            "--message-format=json",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|err| format!("cannot run cargo: {err}"))?;
    if !output.status.success() {
        return Err("building paresy failed".into());
    }
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|msg| {
            msg.get("target")
                .and_then(|t| t.get("name"))
                .and_then(Json::as_str)
                == Some("paresy")
        })
        .find_map(|msg| {
            msg.get("executable")
                .and_then(Json::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no paresy executable".to_string())
}

/// A running child server.
struct Server {
    child: Child,
    addr: SocketAddr,
    spawned: Instant,
    stdout: Option<JoinHandle<()>>,
    reaped: bool,
}

impl Server {
    /// Starts `paresy serve --listen 127.0.0.1:0` over the store in `dir`
    /// and waits for its address announcement.
    fn spawn(binary: &Path, dir: &Path) -> Result<Server, String> {
        let spawned = Instant::now();
        let mut child = Command::new(binary)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers"])
            .arg(SERVER_WORKERS.to_string())
            .arg("--cache-dir")
            .arg(dir)
            .args(["--cache", "1000000", "--max-cost"])
            .arg(SERVICE_MAX_COST.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|err| format!("cannot start {}: {err}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let (lines, announced) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                // Keep draining after the announcement so the child never
                // blocks on a full pipe.
                let _ = lines.send(line);
            }
        });
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            spawned,
            stdout: Some(reader),
            reaped: false,
        };
        let line = announced
            .recv_timeout(START_TIMEOUT)
            .map_err(|_| "server did not announce its address".to_string())?;
        server.addr = line
            .strip_prefix("listening on ")
            .and_then(|addr| addr.trim().parse().ok())
            .ok_or_else(|| format!("unexpected announcement '{line}'"))?;
        Ok(server)
    }

    /// Time from spawn to the `hello` answer on a first connection.
    fn hello(&self) -> Result<Duration, String> {
        let mut conn = Conn::open(self.addr)?;
        let reply = conn.call(r#"{"op":"hello"}"#)?;
        if reply.get("status").and_then(Json::as_str) != Some("ok") {
            return Err(format!("hello failed: {}", reply.to_compact()));
        }
        Ok(self.spawned.elapsed())
    }

    /// The router metrics snapshot.
    fn metrics(&self) -> Result<Json, String> {
        Conn::open(self.addr)?.call(r#"{"op":"metrics"}"#)
    }

    /// Asks the server to drain and exit, and waits for it; kills it if it
    /// does not exit within [`STOP_TIMEOUT`].
    fn stop(&mut self) -> Result<(), String> {
        let asked = Conn::open(self.addr).and_then(|mut conn| conn.call(r#"{"op":"shutdown"}"#));
        let deadline = Instant::now() + STOP_TIMEOUT;
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break Some(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => break None,
            }
        };
        self.reap();
        asked?;
        match status {
            Some(status) if status.success() => Ok(()),
            Some(status) => Err(format!("server exited with {status}")),
            None => Err("server did not exit after shutdown; killed".into()),
        }
    }

    /// Kills the child if it still runs and waits for it and its reader.
    fn reap(&mut self) {
        if self.reaped {
            return;
        }
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(reader) = self.stdout.take() {
            let _ = reader.join();
        }
        self.reaped = true;
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One client connection speaking the JSONL protocol in ordered mode.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|err| format!("connect failed: {err}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .and_then(|()| stream.set_nodelay(true))
            .map_err(|err| format!("socket setup failed: {err}"))?;
        let writer = stream
            .try_clone()
            .map_err(|err| format!("socket clone failed: {err}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|err| format!("write failed: {err}"))
    }

    fn receive(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Json::parse(&line).map_err(|err| format!("bad answer line: {err}")),
            Err(err) => Err(format!("read failed: {err}")),
        }
    }

    fn call(&mut self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        self.receive()
    }
}

/// The request line for `spec`, as a refine step of `session` when given.
fn request_line(id: u64, spec: &Spec, session: Option<&str>) -> String {
    let words = |set: &std::collections::BTreeSet<rei_lang::Word>| {
        set.iter()
            .map(|w| format!("\"{}\"", w.chars().iter().collect::<String>()))
            .collect::<Vec<_>>()
            .join(",")
    };
    let refine = session
        .map(|name| format!(",\"verb\":\"refine\",\"session\":\"{name}\""))
        .unwrap_or_default();
    format!(
        "{{\"id\":{id},\"pos\":[{}],\"neg\":[{}]{refine}}}",
        words(spec.positive()),
        words(spec.negative())
    )
}

/// Checks one answer line for `spec`; `Err` names what is wrong.
fn check_answer(spec: &Spec, reply: &Json) -> Result<Outcome, String> {
    match reply.get("status").and_then(Json::as_str) {
        Some("solved") => {
            let regex = reply.get("regex").and_then(Json::as_str).unwrap_or("");
            let cost = reply.get("cost").and_then(Json::as_u64).unwrap_or(u64::MAX);
            oracle::check_regex(spec, &SERVICE_COSTS, SERVICE_MAX_COST, regex, cost)
        }
        Some("not-found") => Ok(Outcome::NotFound),
        _ => Err(format!("answer {}", reply.to_compact())),
    }
}

/// Pairs the two clients' coalescing sends: each waits at its `k`-th
/// meeting until the other has reached it too, or has finished.
struct Rendezvous {
    state: Mutex<([u64; CLIENTS], bool)>,
    met: Condvar,
}

impl Rendezvous {
    fn meet(&self, me: usize, k: u64) -> bool {
        let mut state = self.state.lock().expect("rendezvous lock poisoned");
        state.0[me] = k;
        self.met.notify_all();
        while state.0[1 - me] < k && !state.1 {
            state = self.met.wait(state).expect("rendezvous lock poisoned");
        }
        state.0[1 - me] >= k
    }

    fn close(&self) {
        self.state.lock().expect("rendezvous lock poisoned").1 = true;
        self.met.notify_all();
    }
}

/// What one client thread brings back.
#[derive(Default)]
struct ClientLog {
    answers: Vec<Answer>,
    connects_ms: Vec<(f64, bool)>,
    failures: Vec<String>,
    sent: u64,
    trace: Option<Trace>,
}

/// A run's inputs, the same in every round.
struct Inputs<'a> {
    seed: u64,
    hot: &'a [Spec],
    /// Each client's cold specs, in sending order.
    ladders: &'a [Vec<ColdSpec>],
    /// The specs both clients send at once, in order.
    coalesce: &'a [ColdSpec],
    traced: bool,
    epoch: Instant,
}

/// Shared, read-only inputs of the client threads in one round.
struct Plan<'a> {
    addr: SocketAddr,
    inputs: &'a Inputs<'a>,
    rendezvous: &'a Rendezvous,
}

/// One closed-loop client: sends its [`OPS_PER_ROUND`] seeded operations,
/// waiting for each answer before the next request.
fn client(me: usize, plan: &Plan<'_>) -> ClientLog {
    let mut log = ClientLog::default();
    if let Err(message) = client_loop(me, plan, &mut log) {
        log.failures.push(format!("client {me}: {message}"));
    }
    plan.rendezvous.close();
    log
}

/// A client's current connection; `span` is its `conn` span when traced.
struct Link {
    conn: Conn,
    /// Time to connect, in milliseconds.
    connect_ms: f64,
    answers: usize,
    span: Option<usize>,
}

fn client_loop(me: usize, plan: &Plan<'_>, log: &mut ClientLog) -> Result<(), String> {
    let mut rng =
        StdRng::seed_from_u64(plan.inputs.seed ^ (0xc11e_0000 + me as u64).rotate_left(23));
    let mut ladder = plan.inputs.ladders[me].iter().cycle();
    let mut solved: Vec<Spec> = Vec::new();
    let mut trace = Trace::new(plan.inputs.epoch);
    let mut link: Option<Link> = None;
    let mut links = 0u64;
    let mut ops = 0u64;
    let mut next_id = (me as u64) << 40;
    let mut reference = Reference::default();

    while ops < OPS_PER_ROUND {
        if link.as_ref().is_none_or(|l| l.answers >= RECONNECT_EVERY) {
            if let Some(span) = link.take().and_then(|l| l.span) {
                trace.close(span);
            }
            // A traced run traces every other connection; the others are
            // the untraced baseline of the tracing overhead.
            let traced = plan.inputs.traced && links % 2 == 1;
            links += 1;
            let connected = Instant::now();
            let span = traced.then(|| trace.open("conn", None, 0));
            let conn = Conn::open(plan.addr)?;
            let connect_ms = connected.elapsed().as_secs_f64() * 1e3;
            log.connects_ms.push((connect_ms, traced));
            link = Some(Link {
                conn,
                connect_ms,
                answers: 0,
                span,
            });
        }
        let link = link.as_mut().expect("connected above");
        ops += 1;

        // The operation. A fresh connection's first request repeats an
        // answered spec, so its latency is the connection's own cost.
        let first = link.answers == 0;
        // Each step: what it is sent as, the spec, its session, and the
        // outcome the library found for it in-process, when known.
        let mut steps: Vec<(Kind, Spec, Option<String>, Option<Outcome>)> = Vec::new();
        let mut session_name = None;
        if ops.is_multiple_of(COALESCE_EVERY) && !first {
            let k = ops / COALESCE_EVERY;
            if plan.rendezvous.meet(me, k) {
                let cold = &plan.inputs.coalesce[(k as usize - 1) % plan.inputs.coalesce.len()];
                steps.push((Kind::Coalesce, cold.spec.clone(), None, Some(cold.outcome)));
            }
        }
        if steps.is_empty() {
            let op = if first { Op::Hit } else { scheduled(ops) };
            if op == Op::Hit {
                let spec = if solved.is_empty() || rng.gen() {
                    plan.inputs.hot[rng.gen_range(0..plan.inputs.hot.len())].clone()
                } else {
                    solved[rng.gen_range(0..solved.len())].clone()
                };
                steps.push((Kind::Hit, spec, None, None));
            } else if op == Op::Cold {
                let cold = ladder.next().expect("the ladder is not empty");
                steps.push((Kind::Cold, cold.spec.clone(), None, Some(cold.outcome)));
            } else {
                // A refinement chain whose base keeps the infix closure
                // fixed, so its steps can resume warm; a spec without one
                // is sent as a cold solve.
                let cold = ladder.next().expect("the ladder is not empty");
                match refinement_chain(&cold.spec) {
                    Some((base, chain)) => {
                        let name = format!("c{me}-{ops}");
                        verb(
                            &mut link.conn,
                            &format!("{{\"op\":\"session.open\",\"name\":\"{name}\"}}"),
                        )?;
                        steps.push((Kind::RefineBase, base, Some(name.clone()), None));
                        for step in chain.into_iter().take(REFINE_STEPS) {
                            steps.push((Kind::Refine, step, Some(name.clone()), None));
                        }
                        session_name = Some(name);
                    }
                    None => steps.push((Kind::Cold, cold.spec.clone(), None, Some(cold.outcome))),
                }
            }
        }

        for (kind, spec, session, expected) in steps {
            next_id += 1;
            let line = request_line(next_id, &spec, session.as_deref());
            let reference = reference.time();
            let sent = Instant::now();
            let span = link
                .span
                .map(|conn| trace.open("request", Some(conn), next_id));
            log.sent += 1;
            let reply = link.conn.call(&line)?;
            let latency = sent.elapsed();
            if let Some(span) = span {
                trace.close(span);
            }
            let outcome = match check_answer(&spec, &reply) {
                Ok(Outcome::NotFound) if kind == Kind::Hit => {
                    log.failures
                        .push(format!("repeat answered not-found: {line}"));
                    None
                }
                Ok(outcome) if expected.is_some_and(|want| want != outcome) => {
                    log.failures.push(format!(
                        "server answered {outcome}, the library {} in-process, for {line}",
                        expected.expect("checked")
                    ));
                    None
                }
                Ok(outcome) => Some(outcome),
                Err(message) => {
                    log.failures.push(format!("{message} for {line}"));
                    None
                }
            };
            let base_failed =
                kind == Kind::RefineBase && !matches!(outcome, Some(Outcome::Solved(_)));
            if kind == Kind::Cold && matches!(outcome, Some(Outcome::Solved(_))) {
                solved.push(spec.clone());
            }
            let ms = |key: &str| reply.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            log.answers.push(Answer {
                kind,
                outcome,
                latency_ms: latency.as_secs_f64() * 1e3,
                reference,
                wait_ms: ms("wait_ms"),
                run_ms: ms("run_ms"),
                source: reply
                    .get("source")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                reuse: reply
                    .get("reuse")
                    .and_then(Json::as_str)
                    .map(str::to_string),
                first_reply_ms: (link.answers == 0)
                    .then_some(link.connect_ms + latency.as_secs_f64() * 1e3),
                traced: link.span.is_some(),
                spec,
            });
            link.answers += 1;
            // A failed base retains nothing to refine from.
            if base_failed {
                break;
            }
        }
        if let Some(name) = session_name {
            verb(
                &mut link.conn,
                &format!("{{\"op\":\"session.close\",\"name\":\"{name}\"}}"),
            )?;
        }
    }
    if let Some(span) = link.and_then(|l| l.span) {
        trace.close(span);
    }
    log.trace = plan.inputs.traced.then_some(trace);
    Ok(())
}

/// Sends a control verb and checks that it was acknowledged.
fn verb(conn: &mut Conn, line: &str) -> Result<(), String> {
    let reply = conn.call(line)?;
    if reply.get("status").and_then(Json::as_str) == Some("ok") {
        Ok(())
    } else {
        Err(format!("{line} failed: {}", reply.to_compact()))
    }
}

/// Fills a fresh store with [`PREFILL`] answers through a first server
/// and returns the specs it answered as solved.
fn prefill(binary: &Path, dir: &Path, seed: u64) -> Result<Vec<Spec>, String> {
    let mut specs = Vec::with_capacity(PREFILL);
    let mut seen = std::collections::HashSet::new();
    let mut hot = ServiceSpecs::hot(seed);
    while specs.len() < PREFILL {
        let spec = hot.next_spec();
        if seen.insert(spec.fingerprint()) {
            specs.push(spec);
        }
    }
    let mut server = Server::spawn(binary, dir)?;
    let mut conn = Conn::open(server.addr)?;
    let mut solved = Vec::with_capacity(PREFILL);
    for chunk in specs.chunks(100) {
        for (id, spec) in chunk.iter().enumerate() {
            conn.send(&request_line(id as u64, spec, None))?;
        }
        for spec in chunk {
            let reply = conn.receive()?;
            if let Outcome::Solved(_) = check_answer(spec, &reply)? {
                solved.push(spec.clone());
            }
        }
    }
    drop(conn);
    server.stop()?;
    if solved.len() < PREFILL / 2 {
        return Err(format!(
            "only {} of {PREFILL} store answers solved",
            solved.len()
        ));
    }
    Ok(solved)
}

/// Numeric field `section.key` of a metrics snapshot's rollup.
fn rollup(snapshot: &Json, section: &str, key: &str) -> f64 {
    snapshot
        .get("rollup")
        .and_then(|r| r.get(section))
        .and_then(|s| s.get(key))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Copies the store in `from` into the empty directory `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let entries =
        std::fs::read_dir(from).map_err(|err| format!("cannot read {}: {err}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|err| format!("cannot read {}: {err}", from.display()))?;
        let target = to.join(entry.file_name());
        let kind = entry
            .file_type()
            .map_err(|err| format!("cannot stat {}: {err}", entry.path().display()))?;
        if kind.is_dir() {
            std::fs::create_dir(&target)
                .map_err(|err| format!("cannot create {}: {err}", target.display()))?;
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), &target)
                .map_err(|err| format!("cannot copy to {}: {err}", target.display()))?;
        }
    }
    Ok(())
}

/// A server started over a fresh copy of the store in `store`, and its
/// time from spawn to the `hello` answer, in seconds. The copy is removed
/// with the returned directory.
fn start_over(binary: &Path, store: &Path) -> Result<(Server, TempDir, f64), String> {
    let dir = TempDir::new("service-round")?;
    copy_dir(store, &dir.0)?;
    let server = Server::spawn(binary, &dir.0)?;
    let setup = server.hello()?.as_secs_f64();
    Ok((server, dir, setup))
}

/// What one round brought back.
struct Round {
    /// Spawn to `hello`, in seconds.
    setup: f64,
    /// The server's peak resident set over the round, in MB.
    peak_mb: f64,
    /// Each client's log.
    logs: Vec<ClientLog>,
    /// The server's metrics after `hello` and after the last answer.
    snapshots: [Json; 2],
}

/// One round: a fresh server over a fresh copy of the store, both clients'
/// operations, and the server stopped.
fn round(binary: &Path, store: &Path, inputs: &Inputs<'_>) -> Result<Round, String> {
    let (mut server, _dir, setup) = start_over(binary, store)?;
    let before = server.metrics()?;
    let rendezvous = Rendezvous {
        state: Mutex::new(([0; CLIENTS], false)),
        met: Condvar::new(),
    };
    let plan = Plan {
        addr: server.addr,
        inputs,
        rendezvous: &rendezvous,
    };
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|me| {
                let plan = &plan;
                scope.spawn(move || client(me, plan))
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let peak_mb = crate::vm_hwm_mb(Some(server.child.id()))?;
    let after = server.metrics()?;
    server.stop()?;
    Ok(Round {
        setup,
        peak_mb,
        logs,
        snapshots: [before, after],
    })
}

/// Runs the service workload for `seconds`.
///
/// The run makes rounds until the window is over, at least
/// three; every round sends the same requests. A request's
/// latency is its fastest round: a shared host's speed wanders by a fifth
/// within seconds and more over minutes, and a request's fastest of
/// several rounds spread over the window repeats from run to run far
/// better than any one answer does.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Report, String> {
    let binary = paresy_binary()?;
    let store = TempDir::new("service-store")?;
    let mut failures = Vec::new();
    let hot = prefill(&binary, &store.0, seed)?;

    let mut setups = Vec::new();
    for _ in 0..SETUP_SPAWNS {
        let (mut server, _dir, setup) = start_over(&binary, &store.0)?;
        setups.push(setup);
        server.stop()?;
    }

    // The cold specs, solved in-process to choose them by difficulty: one
    // ladder per client and one for the coalesced sends, built in parallel.
    let (ladders, coalesce) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|me| scope.spawn(move || cold_ladder(seed, me as u64, ladder_len())))
            .collect();
        let coalesce = cold_ladder(
            seed,
            CLIENTS as u64,
            (OPS_PER_ROUND / COALESCE_EVERY) as usize,
        );
        let ladders: Result<Vec<_>, String> = clients
            .into_iter()
            .map(|c| c.join().expect("ladder thread panicked"))
            .collect();
        (ladders, coalesce)
    });
    let (ladders, coalesce) = (ladders?, coalesce?);

    let start = Instant::now();
    let window = Duration::from_secs_f64(seconds);
    let inputs = Inputs {
        seed,
        hot: &hot,
        ladders: &ladders,
        coalesce: &coalesce,
        traced,
        epoch: start,
    };
    let mut rounds = Vec::new();
    while another_round(rounds.len(), start.elapsed(), window) {
        rounds.push(round(&binary, &store.0, &inputs)?);
    }

    // Every round must send the same requests, in the same order.
    let mut answers: Vec<Answer> = Vec::new();
    let mut connects = Vec::new();
    let mut sent = 0;
    let mut best: Vec<Vec<f64>> = vec![Vec::new(); CLIENTS];
    let mut fastest_reference: Vec<Vec<f64>> = vec![Vec::new(); CLIENTS];
    let mut trace = Trace::new(start);
    let root = trace.record("workload", None, 0, Duration::ZERO, Duration::ZERO);
    let mut first_specs: Vec<Vec<u64>> = vec![Vec::new(); CLIENTS];
    let mut kinds: Vec<Kind> = Vec::new();
    for (r, round) in rounds.iter_mut().enumerate() {
        setups.push(round.setup);
        for (me, log) in round.logs.iter_mut().enumerate() {
            failures.append(&mut log.failures);
            sent += log.sent;
            let specs: Vec<u64> = log.answers.iter().map(|a| a.spec.fingerprint()).collect();
            if r == 0 {
                first_specs[me] = specs;
                best[me] = vec![f64::INFINITY; log.answers.len()];
                fastest_reference[me] = vec![f64::INFINITY; log.answers.len()];
                kinds.extend(log.answers.iter().map(|a| a.kind));
            } else if specs != first_specs[me] {
                failures.push(format!(
                    "client {me} sent other requests in round {r} than in round 0: \
                     the request mix is not fixed"
                ));
                continue;
            }
            for ((slot, fastest), answer) in best[me]
                .iter_mut()
                .zip(fastest_reference[me].iter_mut())
                .zip(&log.answers)
            {
                *slot = slot.min(answer.latency_ms);
                *fastest = fastest.min(answer.reference);
            }
            connects.append(&mut log.connects_ms);
            if let Some(client_trace) = log.trace.take() {
                trace.absorb(client_trace, Some(root));
            }
            answers.append(&mut log.answers);
        }
    }
    check_consistency(&answers, &mut failures);

    // Each request's fastest latency, in client order, and those of the
    // cold solves. Times are expressed at the nominal host speed.
    let factor = reference::host_factor(
        &fastest_reference
            .iter()
            .flatten()
            .copied()
            .collect::<Vec<_>>(),
    );
    let all_best: Vec<f64> = best.iter().flatten().map(|ms| ms * factor).collect();
    let cold: Vec<f64> = all_best
        .iter()
        .zip(&kinds)
        .filter(|(_, kind)| **kind == Kind::Cold)
        .map(|(ms, _)| *ms)
        .collect();
    let raw_per_s: f64 = best
        .iter()
        .map(|client| ratio(client.len() as f64, client.iter().sum::<f64>() / 1e3))
        .sum();
    let per_s = raw_per_s / factor;
    let p95 = percentile(&all_best, 95.0);
    let setup_s = median(&setups) * factor;
    let rss = median(&rounds.iter().map(|r| r.peak_mb).collect::<Vec<_>>());
    let mut report = Report {
        attempted: sent,
        failures,
        tail_samples: Some((95.0, all_best.len())),
        ..Report::default()
    };
    report.end_to_end = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", rss, "MB"),
        Metric::new("answers_per_s", per_s, "1/s"),
        Metric::new("latency_ms_iqm", interquartile_mean(&cold), "ms"),
        Metric::new("latency_ms_tail", p95, "ms"),
    ];
    let untraced: Vec<&Answer> = answers.iter().filter(|a| !a.traced).collect();
    report.named = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", rss, "MB"),
        Metric::new("req_per_s", per_s, "1/s"),
        Metric::new("req_ms_p50", percentile(&all_best, 50.0), "ms"),
        Metric::new("cold_ms_p50", percentile(&cold, 50.0), "ms"),
        Metric::new("cold_ms_iqm", interquartile_mean(&cold), "ms"),
        Metric::new("req_ms_p95", p95, "ms"),
        Metric::new("req_ms_p99", percentile(&all_best, 99.0), "ms"),
        Metric::new("rounds", rounds.len() as f64, "count"),
        Metric::new("host_factor", factor, "ratio"),
        Metric::new("raw_req_per_s", raw_per_s, "1/s"),
    ];
    report.named.extend(split_latencies(&untraced));

    if traced {
        let traced_answers: Vec<&Answer> = answers.iter().filter(|a| a.traced).collect();
        let p50 =
            |answers: &[&Answer]| median(&answers.iter().map(|a| a.latency_ms).collect::<Vec<_>>());
        let last = rounds.last().expect("at least one round");
        let [before, after] = &last.snapshots;
        report.per_layer = layer_metrics(
            &traced_answers,
            &connects,
            [before, after],
            seed,
            &mut trace,
            root,
        );
        report.per_layer.push(Metric::new(
            "trace.overhead_pct",
            100.0 * (ratio(p50(&traced_answers), p50(&untraced)) - 1.0),
            "%",
        ));
        trace.close(root);
        report.trace = Some(trace);
    }
    Ok(report)
}

/// `hit_ms_p50`, `miss_ms_p50` and `first_reply_ms_p50` of `answers`.
fn split_latencies(answers: &[&Answer]) -> Vec<Metric> {
    let of = |keep: &dyn Fn(&Answer) -> Option<f64>| -> f64 {
        median(&answers.iter().filter_map(|a| keep(a)).collect::<Vec<_>>())
    };
    vec![
        Metric::new(
            "hit_ms_p50",
            of(&|a| (a.source == "cache").then_some(a.latency_ms)),
            "ms",
        ),
        Metric::new(
            "miss_ms_p50",
            of(&|a| (a.kind == Kind::Cold && a.source == "fresh").then_some(a.latency_ms)),
            "ms",
        ),
        Metric::new("first_reply_ms_p50", of(&|a| a.first_reply_ms), "ms"),
    ]
}

/// Every answer for one spec must report the same outcome.
fn check_consistency(answers: &[Answer], failures: &mut Vec<String>) {
    let mut first: HashMap<u64, Outcome> = HashMap::new();
    for answer in answers {
        let Some(outcome) = answer.outcome else {
            continue;
        };
        let earlier = *first.entry(answer.spec.fingerprint()).or_insert(outcome);
        if earlier != outcome {
            failures.push(format!(
                "spec {} answered {outcome} after {earlier}",
                answer.spec.canonicalize()
            ));
        }
    }
}

/// The per-layer metrics of a traced run, from its traced connections.
fn layer_metrics(
    answers: &[&Answer],
    connects: &[(f64, bool)],
    [before, after]: [&Json; 2],
    seed: u64,
    trace: &mut Trace,
    root: usize,
) -> Vec<Metric> {
    let delta =
        |section: &str, key: &str| rollup(after, section, key) - rollup(before, section, key);
    let pick = |keep: &dyn Fn(&Answer) -> Option<f64>| -> Vec<f64> {
        answers.iter().filter_map(|a| keep(a)).collect()
    };
    let fresh = |f: fn(&Answer) -> f64| median(&pick(&|a| (a.source == "fresh").then(|| f(a))));
    let overhead = pick(&|a| Some(a.latency_ms - a.wait_ms - a.run_ms));
    let first_overhead = pick(&|a| {
        a.first_reply_ms
            .map(|_| a.latency_ms - a.wait_ms - a.run_ms)
    });
    let refines = pick(&|a| {
        (a.kind == Kind::Refine).then(|| f64::from(u8::from(a.reuse.as_deref() == Some("warm"))))
    });
    let cache_hits = pick(&|a| Some(f64::from(u8::from(a.source == "cache"))));
    let connect_ms: Vec<f64> = connects
        .iter()
        .filter(|(_, traced)| *traced)
        .map(|(ms, _)| *ms)
        .collect();
    let workers = |key: &str| -> f64 {
        after
            .get("rollup")
            .and_then(|r| r.get("workers"))
            .and_then(Json::as_array)
            .map_or(0.0, |ws| {
                ws.iter()
                    .filter_map(|w| w.get(key).and_then(Json::as_f64))
                    .sum()
            })
    };
    let mean = |values: &[f64]| ratio(values.iter().sum(), values.len() as f64);

    let mut specs: Vec<&Spec> = Vec::new();
    for answer in answers.iter().filter(|a| a.kind == Kind::Cold) {
        specs.push(&answer.spec);
    }
    let mut metrics = replay::layer_metrics(&specs, seed, trace, root);
    metrics.extend([
        Metric::new(
            "search.candidates",
            ratio(workers("candidates"), workers("runs")),
            "count",
        ),
        Metric::new(
            "search.unique",
            ratio(workers("unique_languages"), workers("runs")),
            "count",
        ),
        Metric::new(
            "search.unique_ratio",
            ratio(workers("unique_languages"), workers("candidates")),
            "ratio",
        ),
        Metric::new("service.wait_ms_p50", fresh(|a| a.wait_ms), "ms"),
        Metric::new("service.run_ms_p50", fresh(|a| a.run_ms), "ms"),
        Metric::new("service.cache_hit_ratio", mean(&cache_hits), "ratio"),
        Metric::new("service.coalesced", delta("requests", "coalesced"), "count"),
        Metric::new(
            "service.fused_batches",
            delta("jobs", "fused_batches"),
            "count",
        ),
        Metric::new("service.refine_warm_ratio", mean(&refines), "ratio"),
        Metric::new("service.rejected", delta("requests", "rejected"), "count"),
        Metric::new("wal.replay_ms", rollup(before, "recovery", "wall_ms"), "ms"),
        Metric::new(
            "wal.records_loaded",
            rollup(before, "recovery", "records"),
            "count",
        ),
        Metric::new(
            "wal.bytes_appended",
            delta("cache", "disk_bytes").max(0.0),
            "bytes",
        ),
        Metric::new("net.connect_ms_p50", median(&connect_ms), "ms"),
        Metric::new("net.overhead_ms_p50", percentile(&overhead, 50.0), "ms"),
        Metric::new("net.overhead_ms_p99", percentile(&overhead, 99.0), "ms"),
        Metric::new("net.first_overhead_ms_p50", median(&first_overhead), "ms"),
    ]);
    metrics.extend(split_latencies(answers));
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_parse_as_the_protocol_expects() {
        let spec = Spec::from_strs(["", "01"], ["1"]).unwrap();
        let line = request_line(7, &spec, Some("s1"));
        let json = Json::parse(&line).unwrap();
        assert_eq!(json.get("id").and_then(Json::as_u64), Some(7));
        assert_eq!(json.get("verb").and_then(Json::as_str), Some("refine"));
        assert_eq!(json.get("pos").and_then(Json::as_array).unwrap().len(), 2);
        assert!(request_line(1, &spec, None).ends_with("[\"1\"]}"));
    }
}
