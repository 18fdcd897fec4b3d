//! `serve-hot` and `serve-churn`: an open-loop generator over a Unix
//! socket against an in-process `bolt serve` server.
//!
//! Two generator threads each own one pipelined `Session` and follow a
//! fixed-rate schedule, offset by half an interval so the combined
//! arrivals are evenly spaced. A request is timed from its scheduled
//! send, so a stalled reply also charges the wait it imposed on the
//! requests behind it. `Session::recv` blocks on one ticket, so a send
//! that falls due while its thread waits goes out late; that lateness is
//! reported as generator lag and is part of the measured latency.
//!
//! The main thread drives windows: every window starts both threads on a
//! shared clock and ends when both have drained, so counter and histogram
//! snapshots taken between windows cover exactly the window's requests.

use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bolt_core::generate;
use bolt_core::store::{level_tag, store_key, RecordKind, StoreExt};
use bolt_obs::Snapshot;
use bolt_serve::client::Session;
use bolt_serve::{
    CacheConfig, Client, Endpoint, QueryRequest, Request, Response, ServeCore, Server,
};
use bolt_store::ContractStore;

use crate::record::{Outcome, Value};
use crate::stats::{median, percentile_sorted, ratio, HistDelta, Rng, Zipf};
use crate::trace::{self, Tracer};
use crate::{peak_rss_mb, LEVELS};
use bolt_serve::NF_NAMES;

/// Connections and generator threads (one each); the host has 2 cores.
const THREADS: usize = 2;
/// Pipeline window negotiated per session.
const DEPTH: u32 = 8;
/// Distinct queries in the `serve-hot` set.
const HOT_SET: usize = 64;
/// Zipf exponent over the `serve-hot` set.
const HOT_ZIPF: f64 = 1.0;
/// Setups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// One in this many replies is kept for the in-process comparison.
const SAMPLE_EVERY: u64 = 64;
/// Kept replies per generator thread, at most.
const SAMPLE_CAP: usize = 512;
/// Length of one nominal-rate window: at both nominal rates long enough
/// for a p99 with at least ten samples beyond it.
const WINDOW: Duration = Duration::from_secs(1);
/// Length of one capacity-ladder window.
const STEP: Duration = Duration::from_millis(500);
/// Windows per ladder rung, at most; the majority decides.
const SUB_WINDOWS: usize = 3;
/// Steady-state traffic before anything is timed.
const WARM: Duration = Duration::from_millis(500);
/// Rate ratio between neighbouring ladder rungs.
const RUNG: f64 = 1.03;
/// Rungs skipped per step of the coarse ladder climb.
const COARSE: i32 = 10;
/// A generator sleeps only while its next send is further away than this,
const YIELD_WITHIN: Duration = Duration::from_micros(200);
/// and wakes this long before it.
const YIELD_LEAD: Duration = Duration::from_micros(120);

/// The fixed per-workload load settings.
#[derive(Clone, Copy, Debug)]
pub struct Load {
    /// Queries per second at which latency is reported.
    pub nominal: f64,
    /// The capacity ladder's first rung, in queries per second.
    pub ladder_from: f64,
    /// p99 limit (µs) a ladder rung must meet to count as sustained.
    pub limit_us: f64,
}

const HOT: Load = Load {
    nominal: 8_000.0,
    ladder_from: 64_000.0,
    limit_us: 10_000.0,
};

const CHURN: Load = Load {
    nominal: 2_000.0,
    ladder_from: 3_000.0,
    limit_us: 20_000.0,
};

/// A contract's query vocabulary: its tags and PCV names.
#[derive(Clone, Debug)]
pub struct Vocab {
    pub nf: &'static str,
    pub level: u8,
    pub tags: Vec<String>,
    pub pcvs: Vec<String>,
}

/// Read every contract's tags and PCV names through the store.
fn vocabulary(store: &ContractStore) -> Vec<Vocab> {
    let mut out = Vec::new();
    for name in NF_NAMES {
        for level in LEVELS {
            with_nf!(name, nf => {
                let ex = store.get_or_explore(&nf, level);
                let pcvs = ex.reg.pcvs.iter().map(|(_, n)| n.to_string()).collect();
                let contract = generate(&ex.reg, ex.result);
                let mut tags: Vec<String> = contract
                    .paths
                    .iter()
                    .flat_map(|p| p.tags.iter().map(|t| t.to_string()))
                    .collect();
                tags.sort();
                tags.dedup();
                out.push(Vocab { nf: name, level: level_tag(level), tags, pcvs });
            });
        }
    }
    out
}

/// The request mix a generator thread draws from.
pub enum Mix {
    /// A fixed seeded set drawn by Zipf rank.
    Hot { set: Vec<Request>, zipf: Zipf },
    /// A fresh PCV binding on every query, uniform over NF × level ×
    /// metric × tag.
    Churn { vocab: Vec<Vocab> },
}

impl Mix {
    pub fn hot(vocab: &[Vocab], seed: u64) -> Mix {
        let mut rng = Rng::derive(seed, "hot-set");
        let mut set: Vec<QueryRequest> = Vec::with_capacity(HOT_SET);
        // Every NF × level × metric once, then seeded extras, each
        // unconstrained or one tag of its own contract, with one of two
        // small PCV bindings.
        let combos = vocab.len() * 3;
        let mut i = 0usize;
        while set.len() < HOT_SET {
            let (v, metric) = if i < combos {
                (&vocab[i / 3], (i % 3) as u8)
            } else {
                (
                    &vocab[rng.below(vocab.len() as u64) as usize],
                    rng.below(3) as u8,
                )
            };
            i += 1;
            let tag = if v.tags.is_empty() || rng.below(2) == 0 {
                None
            } else {
                Some(v.tags[rng.below(v.tags.len() as u64) as usize].clone())
            };
            let pcvs = match rng.below(2) {
                0 => vec![],
                _ => v
                    .pcvs
                    .iter()
                    .map(|p| (p.clone(), 1 + rng.below(4)))
                    .collect(),
            };
            let q = QueryRequest {
                nf: v.nf.to_string(),
                level: v.level,
                metric,
                tag,
                pcvs,
            };
            if !set.contains(&q) {
                set.push(q);
            }
        }
        // Zipf rank r picks the r-th entry of a seeded shuffle, so which
        // query is hottest depends on the seed, not on the set's order.
        for k in (1..set.len()).rev() {
            let j = rng.below(k as u64 + 1) as usize;
            set.swap(k, j);
        }
        Mix::Hot {
            set: set.into_iter().map(Request::Query).collect(),
            zipf: Zipf::new(HOT_SET, HOT_ZIPF),
        }
    }

    pub fn next(&self, rng: &mut Rng) -> Request {
        match self {
            Mix::Hot { set, zipf } => set[zipf.sample(rng)].clone(),
            Mix::Churn { vocab } => {
                let v = &vocab[rng.below(vocab.len() as u64) as usize];
                let metric = rng.below(3) as u8;
                let t = rng.below(v.tags.len() as u64 + 1) as usize;
                let tag = (t > 0).then(|| v.tags[t - 1].clone());
                let pcvs = v
                    .pcvs
                    .iter()
                    .map(|p| (p.clone(), rng.below(1 << 20)))
                    .collect();
                Request::Query(QueryRequest {
                    nf: v.nf.to_string(),
                    level: v.level,
                    metric,
                    tag,
                    pcvs,
                })
            }
        }
    }
}

/// The two calls a generator makes on a connection; implemented for
/// [`Session`] and, in tests, for a scripted fake.
pub trait Link {
    type Ticket: Copy;
    /// Queue one request and push it onto the wire.
    fn send(&mut self, req: &Request) -> Result<Self::Ticket, String>;
    /// Block until that request's reply arrives.
    fn recv(&mut self, ticket: Self::Ticket) -> Result<Response, String>;
}

impl Link for Session {
    type Ticket = bolt_serve::Ticket;

    fn send(&mut self, req: &Request) -> Result<Self::Ticket, String> {
        let t = self.submit(req).map_err(|e| e.to_string())?;
        self.flush().map_err(|e| e.to_string())?;
        Ok(t)
    }

    fn recv(&mut self, ticket: Self::Ticket) -> Result<Response, String> {
        Session::recv(self, ticket).map_err(|e| e.to_string())
    }
}

/// One thread's share of a window: a fixed-rate schedule.
#[derive(Clone, Copy, Debug)]
pub struct Plan {
    pub t0: Instant,
    /// Offset of this thread's first send from `t0`, in ns.
    pub offset_ns: f64,
    /// Interval between this thread's sends, in ns.
    pub interval_ns: f64,
    /// No send is scheduled at or after this instant.
    pub end: Instant,
    pub traced: bool,
}

impl Plan {
    pub fn due(&self, k: u64) -> Instant {
        self.t0 + Duration::from_nanos((self.offset_ns + k as f64 * self.interval_ns) as u64)
    }
}

/// What one thread measured in one window.
#[derive(Debug, Default)]
pub struct WindowOut {
    /// Scheduled send → decoded reply, per completed request.
    pub lat_ns: Vec<u64>,
    /// Actual send − scheduled send, per request sent.
    pub lag_ns: Vec<u64>,
    pub sent: u64,
    pub done: u64,
    pub errors: u64,
    pub last_done: Option<Instant>,
    /// Window start to its last reply (set by [`Rig::window`]).
    pub elapsed: Duration,
    pub submit_ns: u64,
    pub recv_ns: u64,
    /// Send start → decoded reply.
    pub rtt_ns: u64,
    /// CPU the generator threads themselves used.
    pub gen_cpu_s: f64,
}

impl WindowOut {
    fn merge(&mut self, o: WindowOut) {
        self.lat_ns.extend(o.lat_ns);
        self.lag_ns.extend(o.lag_ns);
        self.sent += o.sent;
        self.done += o.done;
        self.errors += o.errors;
        self.last_done = self.last_done.max(o.last_done);
        self.submit_ns += o.submit_ns;
        self.recv_ns += o.recv_ns;
        self.rtt_ns += o.rtt_ns;
        self.gen_cpu_s += o.gen_cpu_s;
    }
}

struct Inflight<T> {
    ticket: T,
    due: Instant,
    sent: Instant,
    flushed: Instant,
    req: Request,
    id: u64,
}

/// Waits for a scheduled send time: sleeps while the send is more than
/// `YIELD_WITHIN` away, then yields the core until it is due. A wake-up
/// from idle costs tens of microseconds on a virtual CPU and varies with
/// the host's load, so the last stretch keeps the core awake, while
/// yielding hands it to the server's threads whenever they are runnable.
fn wait_until(t: Instant) {
    loop {
        let now = Instant::now();
        if now >= t {
            return;
        }
        if t - now > YIELD_WITHIN {
            std::thread::sleep(t - now - YIELD_LEAD);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Run one window of the open loop on one link. `next` draws the next
/// request; `reply` sees every completed request with its reply.
pub fn run_window<L: Link>(
    link: &mut L,
    plan: &Plan,
    depth: usize,
    next: &mut dyn FnMut() -> Request,
    reply: &mut dyn FnMut(Request, &Response),
    tr: &mut Tracer,
    ids: &mut u64,
) -> WindowOut {
    let mut out = WindowOut::default();
    let mut inflight: VecDeque<Inflight<L::Ticket>> = VecDeque::new();
    let mut k = 0u64;
    loop {
        let due = plan.due(k);
        let schedulable = due < plan.end;
        if schedulable && inflight.len() < depth && due <= Instant::now() {
            let req = next();
            let sent = Instant::now();
            out.lag_ns.push(sent.duration_since(due).as_nanos() as u64);
            out.sent += 1;
            k += 1;
            *ids += 1;
            match link.send(&req) {
                Ok(ticket) => inflight.push_back(Inflight {
                    ticket,
                    due,
                    sent,
                    flushed: Instant::now(),
                    req,
                    id: *ids,
                }),
                Err(_) => out.errors += 1,
            }
            continue;
        }
        if let Some(f) = inflight.pop_front() {
            let r0 = Instant::now();
            let res = link.recv(f.ticket);
            let r1 = Instant::now();
            match res {
                Ok(resp @ Response::Query(_)) => {
                    out.done += 1;
                    out.last_done = Some(r1);
                    out.lat_ns.push(r1.duration_since(f.due).as_nanos() as u64);
                    out.submit_ns += f.flushed.duration_since(f.sent).as_nanos() as u64;
                    out.recv_ns += r1.duration_since(r0).as_nanos() as u64;
                    out.rtt_ns += r1.duration_since(f.sent).as_nanos() as u64;
                    if plan.traced {
                        let q = tr.record("query", None, f.id, f.due, r1);
                        tr.record("gen.wait", Some(q), f.id, f.due, f.sent);
                        tr.record("client.submit", Some(q), f.id, f.sent, f.flushed);
                        tr.record("client.recv", Some(q), f.id, r0, r1);
                    }
                    reply(f.req, &resp);
                }
                Ok(_) | Err(_) => out.errors += 1,
            }
            continue;
        }
        if !schedulable {
            return out;
        }
        wait_until(due);
    }
}

enum Cmd {
    Window(Plan),
    Stop,
}

/// What a generator thread hands back when stopped.
struct ThreadEnd {
    tracer: Tracer,
    samples: Vec<(Request, Response)>,
}

fn generator(
    mut session: Session,
    mix: Arc<Mix>,
    seed: u64,
    thread: usize,
    epoch: Instant,
    cmds: mpsc::Receiver<Cmd>,
    outs: mpsc::Sender<WindowOut>,
) -> ThreadEnd {
    let mut rng = Rng::derive(seed, &format!("gen-{thread}"));
    let mut picker = Rng::derive(seed, &format!("sample-{thread}"));
    let mut tracer = Tracer::new(true, epoch);
    let mut samples = Vec::new();
    let mut ids = (thread as u64) << 40;
    while let Ok(Cmd::Window(plan)) = cmds.recv() {
        tracer.set_enabled(plan.traced);
        if plan.traced {
            // Room for the window's spans up front, so a growing log
            // never stalls the loop mid-window.
            let sends = (plan.end - plan.t0).as_secs_f64() * 1e9 / plan.interval_ns;
            tracer.reserve(4 * sends as usize + 64);
        }
        let cpu0 = crate::thread_cpu_s();
        let mut out = run_window(
            &mut session,
            &plan,
            DEPTH as usize,
            &mut || mix.next(&mut rng),
            &mut |req, resp| {
                if samples.len() < SAMPLE_CAP && picker.below(SAMPLE_EVERY) == 0 {
                    samples.push((req, resp.clone()));
                }
            },
            &mut tracer,
            &mut ids,
        );
        out.gen_cpu_s = crate::thread_cpu_s() - cpu0;
        if outs.send(out).is_err() {
            break;
        }
    }
    ThreadEnd { tracer, samples }
}

/// Compare remote replies byte for byte with what `oracle` computes for
/// the same requests.
pub fn check_replies(
    samples: &[(Request, Response)],
    oracle: &dyn Fn(&QueryRequest) -> Result<Response, String>,
) -> Result<usize, String> {
    for (req, remote) in samples {
        let Request::Query(q) = req else {
            return Err(format!("sampled a non-query request {req:?}"));
        };
        let local = oracle(q)?;
        if local.encode() != remote.encode() {
            return Err(format!(
                "remote reply for {q:?} differs from the in-process answer:\n  remote: {remote:?}\n  local:  {local:?}"
            ));
        }
    }
    Ok(samples.len())
}

/// A started server with its store and open sessions.
struct Env {
    dir: PathBuf,
    store_dir: PathBuf,
    server: Server,
    sessions: Vec<Session>,
}

impl Env {
    /// Close the sessions, shut the server down and remove its files.
    fn stop(self) {
        drop(self.sessions);
        self.server.request_shutdown();
        drop(self.server.join());
        let _ = std::fs::remove_dir_all(self.dir);
    }
}

/// Fresh store, pre-warmed with all 16 records; server start; sessions;
/// memo warm-up (the hot set when given, else every contract once).
fn setup(dir: &Path, churn: bool, hot_set: Option<&Mix>) -> Result<Env, String> {
    let store_dir = dir.join("store");
    let store = ContractStore::open(&store_dir).map_err(|e| format!("open store: {e}"))?;
    let mut bytes = 0u64;
    for name in NF_NAMES {
        for level in LEVELS {
            with_nf!(name, nf => {
                store.get_or_explore(&nf, level);
                let h = store
                    .peek(store_key(&nf, level), RecordKind::Exploration)
                    .ok_or_else(|| format!("{name}: exploration record missing after pre-warm"))?;
                bytes += h.header_len + h.payload_len;
            });
        }
    }
    drop(store);
    let config = if churn {
        // Half the working set's on-disk bytes: every contract cycles
        // through the cache.
        CacheConfig {
            budget: bytes / 2,
            ..CacheConfig::default()
        }
    } else {
        CacheConfig::default()
    };
    let store = ContractStore::open(&store_dir).map_err(|e| format!("open store: {e}"))?;
    let core = ServeCore::with_config(store, config);
    let server = Server::builder()
        .unix(dir.join("s.sock"))
        .start(core)
        .map_err(|e| format!("server start: {e}"))?;
    let ep = Endpoint::Unix(
        server
            .unix_path()
            .ok_or("server has no unix socket")?
            .to_path_buf(),
    );
    let mut sessions = Vec::new();
    for _ in 0..THREADS {
        let s = Client::builder(&ep)
            .pipeline_depth(DEPTH)
            .session()
            .map_err(|e| format!("connect: {e}"))?;
        sessions.push(s);
    }
    // Memo warm-up: every distinct hot query once; under churn, every
    // contract once, so the cache starts full.
    let warm: Vec<Request> = match hot_set {
        Some(Mix::Hot { set, .. }) => set.clone(),
        _ => NF_NAMES
            .iter()
            .flat_map(|nf| {
                LEVELS.iter().map(|l| {
                    Request::Query(QueryRequest {
                        nf: nf.to_string(),
                        level: level_tag(*l),
                        metric: 0,
                        tag: None,
                        pcvs: vec![],
                    })
                })
            })
            .collect(),
    };
    for req in &warm {
        match sessions[0].call(req) {
            Ok(Response::Query(_)) => {}
            other => return Err(format!("warm-up query {req:?} failed: {other:?}")),
        }
    }
    Ok(Env {
        dir: dir.to_path_buf(),
        store_dir,
        server,
        sessions,
    })
}

/// Counter value, 0 when absent.
fn counter(s: &Snapshot, name: &str) -> u64 {
    s.counter(name).unwrap_or(0)
}

fn hist(s: &Snapshot, name: &str) -> bolt_obs::HistogramSnapshot {
    s.histogram(name).cloned().unwrap_or_default()
}

/// Counter and histogram movement across traced windows.
#[derive(Default)]
struct Deltas {
    counters: std::collections::BTreeMap<&'static str, u64>,
    hists: std::collections::BTreeMap<&'static str, HistDelta>,
}

const COUNTERS: [&str; 9] = [
    "serve.queries",
    "serve.memo_hits",
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.evictions",
    "serve.contract_decodes",
    "serve.solver_queries",
    "serve.explorations",
    "serve.errors",
];

const HISTS: [&str; 6] = [
    "serve.phase.read",
    "serve.phase.handle",
    "serve.phase.write",
    "store.get",
    "store.decode",
    "store.put",
];

impl Deltas {
    fn add(&mut self, before: &Snapshot, after: &Snapshot) {
        for c in COUNTERS {
            *self.counters.entry(c).or_default() += counter(after, c) - counter(before, c);
        }
        for h in HISTS {
            self.hists
                .entry(h)
                .or_default()
                .add(HistDelta::between(&hist(before, h), &hist(after, h)));
        }
    }

    fn c(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    fn h(&self, name: &str) -> HistDelta {
        self.hists.get(name).copied().unwrap_or_default()
    }
}

/// The generator threads plus the server they load.
struct Rig {
    cmds: Vec<mpsc::Sender<Cmd>>,
    outs: mpsc::Receiver<WindowOut>,
    handles: Vec<std::thread::JoinHandle<ThreadEnd>>,
    core: Arc<ServeCore>,
}

impl Rig {
    /// One window at `rate` queries/s for `len`, both threads on one
    /// clock; returns once both have drained.
    fn window(&self, rate: f64, len: Duration, traced: bool) -> Result<WindowOut, String> {
        let t0 = Instant::now() + Duration::from_millis(1);
        let interval_ns = 1e9 / rate * THREADS as f64;
        for (t, tx) in self.cmds.iter().enumerate() {
            let plan = Plan {
                t0,
                offset_ns: t as f64 * interval_ns / THREADS as f64,
                interval_ns,
                end: t0 + len,
                traced,
            };
            tx.send(Cmd::Window(plan))
                .map_err(|_| "generator thread exited")?;
        }
        let mut all = WindowOut::default();
        for _ in 0..self.cmds.len() {
            all.merge(self.outs.recv().map_err(|_| "generator thread exited")?);
        }
        all.elapsed = all
            .last_done
            .map_or(len, |d| d.saturating_duration_since(t0));
        Ok(all)
    }

    fn snapshot(&self) -> Snapshot {
        self.core.metrics().snapshot()
    }

    fn stop(self) -> Result<(Tracer, Vec<(Request, Response)>), String> {
        for tx in &self.cmds {
            let _ = tx.send(Cmd::Stop);
        }
        let mut tracer: Option<Tracer> = None;
        let mut samples = Vec::new();
        for h in self.handles {
            let end = h.join().map_err(|_| "generator thread panicked")?;
            samples.extend(end.samples);
            match &mut tracer {
                None => tracer = Some(end.tracer),
                Some(t) => t.absorb(end.tracer),
            }
        }
        Ok((tracer.expect("at least one generator"), samples))
    }
}

fn sorted_us(ns: &[u64]) -> Vec<f64> {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Ladder verdict for one rung.
struct Rung {
    pass: bool,
    achieved: f64,
    p99_us: f64,
}

fn judge(w: &WindowOut, load: Load) -> Rung {
    let lat = sorted_us(&w.lat_ns);
    let p99 = if lat.len() >= 1000 {
        percentile_sorted(&lat, 99.0)
    } else {
        f64::INFINITY
    };
    let achieved = w.done as f64 / w.elapsed.as_secs_f64().max(1e-9);
    Rung {
        pass: w.errors == 0 && w.done == w.sent && p99 <= load.limit_us,
        achieved,
        p99_us: p99,
    }
}

pub fn run(
    work: &Path,
    churn: bool,
    seed: u64,
    seconds: u64,
    traced: bool,
) -> Result<Outcome, String> {
    let load = if churn { CHURN } else { HOT };
    let epoch = Instant::now();
    let mut out = Outcome::default();

    // Input generation: the contracts' vocabularies, read through a
    // scratch store, then the seeded request mix.
    let vocab = {
        let store = ContractStore::open(work.join("vocab")).map_err(|e| format!("{e}"))?;
        vocabulary(&store)
    };
    let mix = Arc::new(if churn {
        Mix::Churn {
            vocab: vocab.clone(),
        }
    } else {
        Mix::hot(&vocab, seed)
    });

    // Set-up, several times; the last one is kept.
    let mut setup_s = Vec::new();
    let mut env = None;
    for i in 0..SETUP_REPEATS {
        let t = Instant::now();
        let e = setup(
            &work.join(format!("s{i}")),
            churn,
            (!churn).then_some(&*mix),
        )?;
        setup_s.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUP_REPEATS {
            e.stop();
        } else {
            env = Some(e);
        }
    }
    let env = env.expect("at least one setup");
    let Env {
        dir,
        store_dir,
        server,
        sessions,
    } = env;

    let (out_tx, out_rx) = mpsc::channel();
    let mut cmds = Vec::new();
    let mut handles = Vec::new();
    for (t, session) in sessions.into_iter().enumerate() {
        let (tx, rx) = mpsc::channel();
        cmds.push(tx);
        let mix = Arc::clone(&mix);
        let outs = out_tx.clone();
        handles.push(std::thread::spawn(move || {
            generator(session, mix, seed, t, epoch, rx, outs)
        }));
    }
    let rig = Rig {
        cmds,
        outs: out_rx,
        handles,
        core: Arc::clone(server.core()),
    };

    // Steady-state warm traffic before anything is timed.
    rig.window(load.nominal, WARM, false)?;

    let deadline = Instant::now() + Duration::from_secs(seconds);
    let measured = if traced {
        run_traced(&rig, load, seconds, &mut out)
    } else {
        run_timed(&rig, load, seconds, deadline, churn, &mut out)
    };
    let (tracer, samples) = rig.stop()?;
    server.request_shutdown();
    drop(server.join());
    measured?;

    // Correctness: the sampled remote replies against ServeCore::query
    // in-process over the same store.
    let oracle_core = ServeCore::new(ContractStore::open(&store_dir).map_err(|e| format!("{e}"))?);
    match check_replies(&samples, &|q| oracle_core.query(q).map(Response::Query)) {
        Ok(n) => out.report.push(format!(
            "reply gate: {n} sampled replies byte-identical in-process"
        )),
        Err(e) => out.gate_failures.push(e),
    }
    if samples.is_empty() {
        out.gate_failures.push("no replies were sampled".into());
    }

    if traced {
        let st = match trace::self_times(tracer.spans()) {
            Ok(st) => st,
            Err(e) => {
                out.gate_failures.push(format!("trace reconciliation: {e}"));
                Default::default()
            }
        };
        let queries = st.get("query").map_or(1.0, |q| q.count as f64);
        out.report.push(
            "client-side attribution per traced query (self = span minus its children):".into(),
        );
        out.report
            .extend(trace::tree_lines(tracer.spans(), queries, "µs", 1e3));
        out.spans = tracer.into_spans();
    }

    let _ = std::fs::remove_dir_all(&dir);
    if !traced {
        out.metrics
            .push(Value::new("setup_s", median(&setup_s), "s"));
    }
    out.report.push(format!(
        "setup: {} runs, median {:.4} s (store pre-warm, server start, memo warm-up)",
        setup_s.len(),
        median(&setup_s)
    ));
    Ok(out)
}

/// Nominal-rate windows, then the capacity ladder.
fn run_timed(
    rig: &Rig,
    load: Load,
    seconds: u64,
    deadline: Instant,
    churn: bool,
    out: &mut Outcome,
) -> Result<(), String> {
    let before = rig.snapshot();
    let (proc0, main0) = (crate::process_cpu_s(), crate::thread_cpu_s());
    let mut gen_cpu = 0.0;
    let mut completed = 0u64;
    let nominal_windows = ((seconds as f64 / 2.0) / WINDOW.as_secs_f64()).max(1.0) as u64;
    let (mut p50s, mut p90s, mut p99s, mut lags) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut samples = 0usize;
    for _ in 0..nominal_windows {
        let w = rig.window(load.nominal, WINDOW, false)?;
        out.attempted += w.sent;
        out.failed += w.errors;
        gen_cpu += w.gen_cpu_s;
        completed += w.done;
        let lat = sorted_us(&w.lat_ns);
        samples += lat.len();
        if lat.len() < 1000 {
            return Err(format!(
                "a nominal window completed only {} queries; p99 needs 1000",
                lat.len()
            ));
        }
        p50s.push(percentile_sorted(&lat, 50.0));
        p90s.push(percentile_sorted(&lat, 90.0));
        p99s.push(percentile_sorted(&lat, 99.0));
        lags.push(percentile_sorted(&sorted_us(&w.lag_ns), 99.0));
    }

    // The server's CPU per query: everything this process used minus the
    // generator threads and this thread.
    let server_cpu = crate::process_cpu_s() - proc0 - gen_cpu - (crate::thread_cpu_s() - main0);
    let cpu_us = server_cpu / completed.max(1) as f64 * 1e6;

    // Memory at the nominal rate, before the ladder's overload rungs
    // fill the socket and pipeline buffers.
    out.metrics
        .push(Value::new("peak_rss_mb", peak_rss_mb(), "MiB"));

    // Capacity: the fixed ladder has rungs RUNG apart from the workload's
    // `ladder_from`. Climb COARSE rungs at a time until a rung fails (or
    // descend if the first one does), then bisect between the highest
    // pass and the lowest failure. A failed rung is retried once before
    // it counts.
    let rate_of = |j: i32| load.ladder_from * RUNG.powi(j);
    let mut rungs = Vec::new();
    // A rung runs up to SUB_WINDOWS windows and passes when most of them
    // meet the limit, so a transient stall cannot fail a sustainable
    // rate while a growing backlog fails every window.
    let mut try_rung = |j: i32, out: &mut Outcome| -> Result<Option<Rung>, String> {
        let (mut passes, mut fails) = (0, 0);
        let mut total = WindowOut::default();
        let mut worst = 0.0f64;
        while passes * 2 <= SUB_WINDOWS && fails * 2 <= SUB_WINDOWS {
            if Instant::now() + STEP > deadline {
                return Ok(None);
            }
            let w = rig.window(rate_of(j), STEP, false)?;
            out.attempted += w.sent;
            out.failed += w.errors;
            let r = judge(&w, load);
            worst = worst.max(r.p99_us);
            if r.pass {
                passes += 1;
            } else {
                fails += 1;
            }
            let elapsed = total.elapsed + w.elapsed;
            total.merge(w);
            total.elapsed = elapsed;
        }
        let pass = passes > fails;
        rungs.push(format!(
            "{:.0}/s:{} {passes}/{} worst p99 {:.0}µs",
            rate_of(j),
            if pass { "ok" } else { "FAIL" },
            passes + fails,
            worst
        ));
        Ok(Some(Rung {
            pass,
            achieved: total.done as f64 / total.elapsed.as_secs_f64().max(1e-9),
            p99_us: worst,
        }))
    };
    let mut best: Option<(i32, Rung)> = None;
    let mut ceiling: Option<i32> = None;
    let mut j = 0;
    while let Some(r) = try_rung(j, out)? {
        if r.pass {
            best = Some((j, r));
            if ceiling.is_some() {
                break;
            }
            j += COARSE;
        } else {
            ceiling = Some(j);
            if best.is_some() || j <= -3 * COARSE {
                break;
            }
            j -= COARSE;
        }
    }
    while let (Some((lo, _)), Some(hi)) = (&best, ceiling) {
        if hi - lo <= 1 {
            break;
        }
        let mid = (lo + hi) / 2;
        match try_rung(mid, out)? {
            Some(r) if r.pass => best = Some((mid, r)),
            Some(_) => ceiling = Some(mid),
            None => break,
        }
    }
    let after = rig.snapshot();

    let p50 = median(&p50s);
    let p99 = median(&p99s);
    let lag99 = median(&lags);
    let capacity = match &best {
        Some((_, r)) => r.achieved,
        None => {
            out.report.push(format!(
                "capacity: no ladder rung down to {:.0}/s met the {:.0} µs p99 limit",
                rate_of(-3 * COARSE),
                load.limit_us
            ));
            0.0
        }
    };
    out.report.push(format!("ladder: {}", rungs.join("  ")));
    out.report.push(format!(
        "nominal {:.0}/s: {} windows, {samples} samples, p50 {p50:.2} µs, p99 {p99:.2} µs (median over windows), generator lag p99 {lag99:.2} µs",
        load.nominal, nominal_windows
    ));
    out.report.push(format!(
        "capacity: {capacity:.0} queries/s with p99 ≤ {:.0} µs",
        load.limit_us
    ));

    let d = |n: &str| counter(&after, n) - counter(&before, n);
    if !churn {
        // The hot path must do no contract work at all.
        for c in [
            "serve.explorations",
            "serve.contract_decodes",
            "serve.solver_queries",
        ] {
            if d(c) != 0 {
                out.gate_failures.push(format!(
                    "serve-hot: {c} moved by {} during the timed phase (must be 0)",
                    d(c)
                ));
            }
        }
        out.report.push(format!(
            "hot gate: {} queries, {} memo hits; explorations/decodes/solver passes all 0",
            d("serve.queries"),
            d("serve.memo_hits")
        ));
    } else {
        out.report.push(format!(
            "churn: {} queries, {} memo hits, {} cache misses, {} evictions, {} decodes, {} solver passes",
            d("serve.queries"),
            d("serve.memo_hits"),
            d("serve.cache_misses"),
            d("serve.evictions"),
            d("serve.contract_decodes"),
            d("serve.solver_queries")
        ));
    }
    out.failed += d("serve.errors");

    out.metrics.push(Value::new("latency_p50_us", p50, "us"));
    out.named.extend([
        Value::new("query_p50_us", p50, "us"),
        Value::new("query_p90_us", median(&p90s), "us"),
        Value::new("query_p99_us", p99, "us"),
        Value::new("query_max_rate", capacity, "1/s"),
        Value::new("cpu_us_per_query", cpu_us, "us"),
        Value::new("query_samples", samples as f64, "count"),
        Value::new("gen_lag_p99_us", lag99, "us"),
    ]);
    Ok(())
}

/// Nominal-rate windows, alternately traced and untraced.
fn run_traced(rig: &Rig, load: Load, seconds: u64, out: &mut Outcome) -> Result<(), String> {
    let mut deltas = Deltas::default();
    let mut traced = WindowOut::default();
    let mut plain = WindowOut::default();
    let windows = (seconds as f64 / WINDOW.as_secs_f64()).max(2.0) as u64;
    for i in 0..windows {
        let on = i % 2 == 0;
        let before = rig.snapshot();
        let w = rig.window(load.nominal, WINDOW, on)?;
        let after = rig.snapshot();
        out.attempted += w.sent;
        out.failed += w.errors;
        if on {
            deltas.add(&before, &after);
            traced.merge(w);
        } else {
            plain.merge(w);
        }
    }
    let n = traced.done as f64;
    let (read, handle, write) = (
        deltas.h("serve.phase.read"),
        deltas.h("serve.phase.handle"),
        deltas.h("serve.phase.write"),
    );
    let attributed_ns = traced.submit_ns + read.sum_ns + handle.sum_ns + write.sum_ns;
    if attributed_ns > traced.rtt_ns {
        out.gate_failures.push(format!(
            "trace reconciliation: client submit + server read/handle/write = {attributed_ns} ns exceeds the client round trips they sit inside ({} ns)",
            traced.rtt_ns
        ));
    }
    let per_q = |ns: u64| ratio(ns as f64, n) / 1e3;
    let rtt = per_q(traced.rtt_ns);
    let unattributed = rtt - per_q(attributed_ns);
    // Overhead compares medians: a handful of host stalls would swing a
    // mean more than the spans do.
    let p50_us = |w: &WindowOut| percentile_sorted(&sorted_us(&w.lat_ns), 50.0);
    let overhead = ratio(p50_us(&traced), p50_us(&plain)) - 1.0;
    let q = deltas.c("serve.queries") as f64;
    let per_kq = |c: &str| ratio(deltas.c(c) as f64 * 1000.0, q);
    let lookups = (deltas.c("serve.cache_hits") + deltas.c("serve.cache_misses")) as f64;
    let lag99 = percentile_sorted(&sorted_us(&traced.lag_ns), 99.0);

    let layer = |name: &str, v: f64| Value::new(name, v, crate::record::per_layer_unit(name));
    out.metrics.extend([
        layer("client.submit_us", per_q(traced.submit_ns)),
        layer("client.recv_us", per_q(traced.recv_ns)),
        layer("client.rtt_us", rtt),
        layer("server.read_us", read.mean_us()),
        layer("service.handle_us", handle.mean_us()),
        layer("server.write_us", write.mean_us()),
        layer("wire.unattributed_us", unattributed),
        layer(
            "cache.memo_hit_ratio",
            ratio(deltas.c("serve.memo_hits") as f64, q),
        ),
        layer(
            "cache.hit_ratio",
            ratio(deltas.c("serve.cache_hits") as f64, lookups),
        ),
        layer("cache.evictions_per_kq", per_kq("serve.evictions")),
        layer("store.decodes_per_kq", per_kq("serve.contract_decodes")),
        layer("solver.passes_per_kq", per_kq("serve.solver_queries")),
        layer("gen.lag_p99_us", if lag99.is_nan() { 0.0 } else { lag99 }),
        layer("store.get_us", deltas.h("store.get").mean_us()),
        layer("store.decode_us", deltas.h("store.decode").mean_us()),
        layer("store.put_us", deltas.h("store.put").mean_us()),
        layer("trace.overhead_ratio", overhead),
    ]);
    out.report.push(format!(
        "blocking path of a query, mean µs over {} traced queries: submit {:.2} + server read {:.2} + handle {:.2} + write {:.2} (per flush) + unattributed {:.2} = round trip {:.2}",
        traced.done,
        per_q(traced.submit_ns),
        per_q(read.sum_ns),
        per_q(handle.sum_ns),
        per_q(write.sum_ns),
        unattributed,
        rtt
    ));
    out.report.push(format!(
        "trace_overhead: median latency traced {:.2} µs vs untraced {:.2} µs ({:+.1}%)",
        p50_us(&traced),
        p50_us(&plain),
        overhead * 100.0
    ));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bolt_serve::QueryReply;

    /// A link whose server answers instantly except once, when it stalls.
    struct Stalling {
        next: u64,
        stall_on: u64,
        stall: Duration,
    }

    impl Link for Stalling {
        type Ticket = u64;

        fn send(&mut self, _req: &Request) -> Result<u64, String> {
            self.next += 1;
            Ok(self.next)
        }

        fn recv(&mut self, t: u64) -> Result<Response, String> {
            if t == self.stall_on {
                std::thread::sleep(self.stall);
            }
            Ok(Response::Query(QueryReply {
                found: true,
                path_index: 0,
                value: t,
                text: String::new(),
            }))
        }
    }

    fn ping() -> Request {
        Request::Query(QueryRequest {
            nf: "bridge".into(),
            level: 0,
            metric: 0,
            tag: None,
            pcvs: vec![],
        })
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_behind_it() {
        let t0 = Instant::now();
        let plan = Plan {
            t0,
            offset_ns: 0.0,
            interval_ns: 1e6, // one request per millisecond
            end: t0 + Duration::from_millis(60),
            traced: false,
        };
        let mut link = Stalling {
            next: 0,
            stall_on: 5,
            stall: Duration::from_millis(20),
        };
        let mut tr = Tracer::new(false, t0);
        let mut ids = 0;
        let w = run_window(
            &mut link,
            &plan,
            1,
            &mut ping,
            &mut |_, _| {},
            &mut tr,
            &mut ids,
        );
        assert_eq!(w.sent, 60);
        assert_eq!(w.done, 60);
        // The stalled request itself waited 20 ms.
        assert!(w.lat_ns[4] >= 20_000_000, "{:?}", &w.lat_ns[..8]);
        // Request 6 was due 1 ms later but could only go out once the
        // stall cleared: it is charged from its scheduled send, so it
        // reads ~19 ms, not the microseconds of its own round trip.
        assert!(w.lat_ns[5] >= 15_000_000, "{:?}", &w.lat_ns[..8]);
        assert!(w.lag_ns[5] >= 15_000_000);
        // Well after the stall the loop is back on schedule.
        assert!(w.lat_ns[55] < 5_000_000, "{:?}", &w.lat_ns[50..]);
    }

    #[test]
    fn hot_set_and_churn_stream_repeat_per_seed() {
        let vocab = vec![
            Vocab {
                nf: "bridge",
                level: 0,
                tags: vec!["a".into(), "b".into()],
                pcvs: vec!["x".into(), "y".into()],
            },
            Vocab {
                nf: "firewall",
                level: 1,
                tags: vec![],
                pcvs: vec![],
            },
        ];
        let draw = |mix: &Mix, seed| {
            let mut rng = Rng::derive(seed, "gen-0");
            (0..200).map(|_| mix.next(&mut rng)).collect::<Vec<_>>()
        };
        let hot = |seed| Mix::hot(&vocab, seed);
        assert_eq!(draw(&hot(3), 1), draw(&hot(3), 1));
        assert_ne!(draw(&hot(3), 1), draw(&hot(4), 1));
        if let Mix::Hot { set, .. } = hot(3) {
            assert_eq!(set.len(), HOT_SET);
            assert!(set
                .iter()
                .enumerate()
                .all(|(i, a)| !set[i + 1..].contains(a)));
        }
        let churn = Mix::Churn { vocab };
        assert_eq!(draw(&churn, 9), draw(&churn, 9));
        assert_ne!(draw(&churn, 9), draw(&churn, 10));
    }

    #[test]
    fn reply_gate_rejects_a_corrupted_reply() {
        let oracle = |q: &QueryRequest| -> Result<Response, String> {
            Ok(Response::Query(QueryReply {
                found: true,
                path_index: 1,
                value: q.metric as u64,
                text: format!("{} says hi\n", q.nf),
            }))
        };
        let Request::Query(q) = ping() else {
            unreachable!()
        };
        let good = oracle(&q).unwrap();
        assert_eq!(check_replies(&[(ping(), good.clone())], &oracle), Ok(1));
        let Response::Query(mut bad) = good else {
            unreachable!()
        };
        bad.text.replace_range(0..1, "B");
        assert!(check_replies(&[(ping(), Response::Query(bad))], &oracle).is_err());
    }
}
