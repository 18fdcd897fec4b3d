//! The performance ledger: one seeded benchmark of what bolt's users do.
//!
//! ```text
//! cargo run --release --offline --manifest-path ledger/Cargo.toml -- \
//!     --workload serve-hot|serve-churn|build|all --seed N --seconds S --trace 0|1
//! cargo run --release --offline --manifest-path ledger/Cargo.toml -- compare PARENT.jsonl CHANGE.jsonl
//! cargo run --release --offline --manifest-path ledger/Cargo.toml -- manifest   # prints BENCHMARK.json
//! cargo run --release --offline --manifest-path ledger/Cargo.toml -- digests    # prints digests.txt
//! cargo test --release --offline --manifest-path ledger/Cargo.toml               # harness self-tests
//! ```
//!
//! Run from the repository root. Every run prints a report, then one
//! result line (JSON) last; it also appends a full record (host, toolchain,
//! commit, seed, run length, schema version) to `ledger/results/runs.jsonl`
//! and, when traced, writes its spans to `ledger/results/trace-*.tsv`.
//! Scratch stores live under `ledger/.work` and are removed at exit.
//!
//! # Why each workload exists
//!
//! * `serve-hot` — the operator's question answered from memory: an open
//!   loop of Zipf-drawn queries from a fixed seeded set of 64 (8 NFs × 2
//!   levels × 3 metrics, unconstrained or one tag of the contract's own,
//!   small PCV bindings) over a Unix socket to an in-process server with
//!   default workers. The memo is warmed first, so every timed query is a
//!   memo hit dispatched inline on the event loop: all cost sits in
//!   client, wire, event loop and memo; solver, store and explorer idle
//!   (asserted). A change to the request path shows here; a change to
//!   contract work shows nothing.
//! * `serve-churn` — the same server and generator with the cache budget
//!   set to half the on-disk bytes of the 16 exploration records and a
//!   fresh seeded PCV binding on every query: most queries miss the memo
//!   and are offloaded to the handler pool for a solver pass, about half
//!   also miss the cache, decode a store record and evict another entry
//!   with its memo. It uses the serve layers the opposite way to
//!   `serve-hot`, so a change that speeds hits but slows misses shows,
//!   and so does unbounded memo growth, in memory.
//! * `build` — the developer's path: a closed loop on one thread, no
//!   server, each iteration a fresh store in a new directory; every
//!   NF × level runs `get_or_explore`, `Exploration::contract` and
//!   `put_contract`, then `Pipeline::report` folds firewall→static_router
//!   and `Pipeline::parallelize` plans firewall→firewall→static_router,
//!   both at both levels. The only workload where explorer, solver during
//!   exploration, contract generation, fsync'd store writes and the
//!   composer work; the folds read back records written moments earlier.
//!
//! # End-to-end metrics (untraced runs)
//!
//! Every workload reports the same three gated names (`record::END_TO_END`,
//! listed in `BENCHMARK.json`): `latency_p50_us`, `peak_rss_mb` and
//! `setup_s`. On the serve workloads `latency_p50_us` is a query timed from
//! its scheduled send to its decoded reply at the workload's nominal rate,
//! the median over fixed windows of each window's median (also recorded as
//! `query_p50_us`); on `build` it is one `Pipeline::parallelize` of
//! firewall→firewall→static_router (`plan_p50_ms`). Set-up is the store
//! pre-warm, server start and memo warm-up (serve) or a first catalogue
//! into an empty store (build), repeated and reported as the median.
//! `BENCHMARK.json` lists `serve-hot` and `build` (`record::WORKLOADS`);
//! `serve-churn` runs, prints, records and compares the same way, but its
//! query latency moves between runs on a shared two-core virtual machine by
//! more than any admissible bound, so it is not among the gated workloads.
//!
//! The other end-to-end figures are measured in the same run, printed
//! with their units, recorded and judged by `compare`
//! (`record::NAMED`): `query_p90_us`/`query_p99_us` (p99 only from windows
//! with at least 1000 samples, so ten lie beyond it), `query_max_rate` (the
//! highest rate on the fixed ladder whose p99 meets the workload's limit in
//! most of a rung's windows, every request answered), the server's
//! `cpu_us_per_query`, `contract_p50_ms`/`contract_p99_ms`, `chain_p50_ms`,
//! `catalogue_p50_ms`, `catalogue_per_s`, `cpu_ms_per_catalogue` and
//! `fail_ratio`. They are not in `BENCHMARK.json` because each exists on
//! one kind of workload only, and because on a shared two-core virtual
//! machine the tails, the capacity ladder and the fsync-bound contract and
//! catalogue times move between runs by more than any admissible bound.
//!
//! # Which layer moves which end-to-end metric (traced runs)
//!
//! | layer metric | moves |
//! |---|---|
//! | `client.submit_us` (span around `Session::submit` + `flush`) | p50 and capacity on serve-hot |
//! | `client.recv_us` (span around `Session::recv`: wait, read, decode) | parent of all server time |
//! | `server.read_us`, `service.handle_us`, `server.write_us` (`serve.phase.*` sum/count deltas) | handle barely moves serve-hot; p50 and p99 on serve-churn |
//! | `wire.unattributed_us` (round trip − submit − read − handle − write) | p50, capacity on serve-hot; its largest share |
//! | `cache.memo_hit_ratio` (`serve.memo_hits ÷ serve.queries`) | ≈1 on serve-hot by design; p50 on serve-churn |
//! | `cache.hit_ratio`, `cache.evictions_per_kq` | p99 and peak RSS on serve-churn |
//! | `store.get_us`, `store.decode_us`, `store.decodes_per_kq` | p99 and capacity on serve-churn; `store.decode_us` is the fold read-back on build |
//! | `solver.passes_per_kq` (`serve.solver_queries` per 1000 queries) | p50 on serve-churn |
//! | `gen.lag_p99_us` (generator lateness; not a program layer) | a window where it is large is invalid |
//! | `store.get_or_explore_us` with children `see.explore_us` (`explore.wall`) and `store.put_us` (`store.put`, fsync) | contract p50 on build |
//! | `contract.generate_us` (span around `Exploration::contract`, incl. the `bolt_hw` replay) | contract p50 |
//! | `store.put_contract_us` (encode + fsync'd put) | contract p50 |
//! | `solver.{explore,compose}_{checks,queries,full_solve_ratio}` per catalogue | explore part: contract p50; compose part: fold and plan p50 |
//! | `explore.runs`, `explore.terms_interned` per catalogue | contract p50 |
//! | `composer.compose_us` (`compose.wall`), `compose.pairs_checked`, `compose.steps` | fold and plan p50 |
//! | `composer.plan_self_ms` (plan span − `compose.wall` − store deltas inside it) | plan p50 |
//!
//! A traced run keeps the workload, seed and length of the timed run,
//! alternates traced and untraced windows (serve) or catalogues (build),
//! reports every per-layer metric (0 for a layer the workload never
//! enters), the unattributed remainder and `trace.overhead_ratio`, and
//! fails if the time attributed to layers exceeds the end-to-end time it
//! sits inside.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dpdk_sim::StackLevel;

/// Dispatch a body over an NF named by the catalogue's vocabulary.
macro_rules! with_nf {
    ($name:expr, $nf:ident => $body:block) => {
        match $name {
            "bridge" => {
                let $nf = bolt_nfs::Bridge::default();
                $body
            }
            "example_router" => {
                let $nf = bolt_nfs::ExampleRouter::default();
                $body
            }
            "firewall" => {
                let $nf = bolt_nfs::Firewall::default();
                $body
            }
            "lb" => {
                let $nf = bolt_nfs::LoadBalancer::default();
                $body
            }
            "lpm_router" => {
                let $nf = bolt_nfs::LpmRouter::default();
                $body
            }
            "nat-a" => {
                let $nf = bolt_nfs::Nat::with(
                    bolt_nfs::nat::NatConfig::default(),
                    bolt_nfs::nat::AllocKind::A,
                );
                $body
            }
            "nat-b" => {
                let $nf = bolt_nfs::Nat::with(
                    bolt_nfs::nat::NatConfig::default(),
                    bolt_nfs::nat::AllocKind::B,
                );
                $body
            }
            "static_router" => {
                let $nf = bolt_nfs::StaticRouter::default();
                $body
            }
            other => unreachable!("{other} is not in NF_NAMES"),
        }
    };
}

mod build;
mod compare;
mod record;
mod serve;
mod stats;
mod trace;

pub const LEVELS: [StackLevel; 2] = [StackLevel::NfOnly, StackLevel::FullStack];

/// The benchmark's directory, relative to the repository root.
const HOME: &str = "ledger";

/// Spans written to a trace file, at most (all of them are summarised).
const TRACE_CAP: usize = 200_000;

pub fn results_dir() -> PathBuf {
    Path::new(HOME).join("results")
}

/// Peak resident set of this process (VmHWM), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// CPU time (user + system, in seconds) from a `/proc/.../stat` file:
/// fields 14 and 15, in clock ticks of 1/100 s (Linux's fixed USER_HZ).
fn stat_cpu_s(path: &str) -> f64 {
    let parse = |s: &str| -> Option<f64> {
        let fields: Vec<&str> = s.get(s.rfind(')')? + 2..)?.split_whitespace().collect();
        Some((fields.get(11)?.parse::<f64>().ok()? + fields.get(12)?.parse::<f64>().ok()?) / 100.0)
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| parse(&s))
        .unwrap_or(f64::NAN)
}

/// CPU time every thread of this process has used so far.
pub fn process_cpu_s() -> f64 {
    stat_cpu_s("/proc/self/stat")
}

/// CPU time the calling thread has used so far.
pub fn thread_cpu_s() -> f64 {
    stat_cpu_s("/proc/thread-self/stat")
}

/// A scratch directory under `ledger/.work`, removed when dropped.
struct Work(PathBuf);

impl Drop for Work {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: record::RUN_SECONDS,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?.clone(),
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&a.seconds) {
                    return Err("--seconds must be within 1..=600".into());
                }
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let known = record::ALL_WORKLOADS.contains(&a.workload.as_str());
    if !known && a.workload != "all" {
        return Err(format!(
            "--workload must be one of serve-hot, serve-churn, build, all (got {:?})",
            a.workload
        ));
    }
    Ok(a)
}

fn run_one(host: &record::Host, work: &Path, workload: &str, a: &Args) -> Result<bool, String> {
    let dir = work.join(workload);
    let mut out = match workload {
        "serve-hot" => serve::run(&dir, false, a.seed, a.seconds, a.trace),
        "serve-churn" => serve::run(&dir, true, a.seed, a.seconds, a.trace),
        _ => build::run(&dir, a.seed, a.seconds, a.trace),
    }?;
    if a.trace {
        // A layer this workload never enters reads 0.
        for (name, unit, _) in record::PER_LAYER {
            if !out.metrics.iter().any(|v| v.name == name) {
                out.metrics.push(record::Value::new(name, 0.0, unit));
            }
        }
        let path = results_dir().join(format!("trace-{workload}-seed{}.tsv", a.seed));
        let line = match std::fs::write(&path, trace::render(&out.spans, TRACE_CAP)) {
            Ok(()) => format!("spans written to {}", path.display()),
            Err(e) => format!("could not write {}: {e}", path.display()),
        };
        out.report.push(line);
    }
    let non_finite: Vec<String> = out
        .metrics
        .iter()
        .filter(|v| !v.value.is_finite())
        .map(|v| v.name.clone())
        .collect();
    if !non_finite.is_empty() {
        out.gate_failures.push(format!(
            "metrics without a finite value: {}",
            non_finite.join(", ")
        ));
    }
    if !a.trace {
        let fail_ratio = stats::ratio(out.failed as f64, out.attempted as f64);
        out.named
            .push(record::Value::new("fail_ratio", fail_ratio, "ratio"));
    }
    let correct = out.gate_failures.is_empty() && out.attempted > 0;

    println!(
        "== {workload} seed {} · {} s · trace {} · nproc {} · {} · kernel {} · commit {}",
        a.seed,
        a.seconds,
        u8::from(a.trace),
        host.nproc,
        host.rustc,
        host.kernel,
        host.commit
    );
    for line in &out.report {
        println!("   {line}");
    }
    for v in out.named.iter().chain(&out.metrics) {
        println!("   {:<34} {:>16.4} {}", v.name, v.value, v.unit);
    }
    for f in &out.gate_failures {
        println!("   GATE FAILED: {f}");
    }
    let run = record::RunInfo {
        workload,
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
    };
    let log = results_dir().join("runs.jsonl");
    let line = record::record_line(host, &run, correct, &out);
    if let Err(e) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&log)
        .and_then(|mut f| writeln!(f, "{line}"))
    {
        eprintln!("cannot append to {}: {e}", log.display());
    }
    println!("{}", record::result_line(correct, &out));
    Ok(correct)
}

fn main() -> ExitCode {
    // The program must see only the benchmark's inputs: no ambient store,
    // thread count, fault plan or trace sink from the environment.
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("BOLT_") {
            std::env::remove_var(&k);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", record::manifest());
            return ExitCode::SUCCESS;
        }
        Some("compare") => {
            let [_, parent, change] = &args[..] else {
                eprintln!("usage: compare PARENT.jsonl CHANGE.jsonl");
                return ExitCode::from(2);
            };
            let read = |p: &String| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("{p}: {e}"))
                    .and_then(|t| compare::parse_log(&t))
            };
            return match read(parent)
                .and_then(|p| read(change).and_then(|c| compare::compare(&p, &c)))
            {
                Ok(table) => {
                    print!("{table}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("compare: {e}");
                    ExitCode::from(2)
                }
            };
        }
        _ => {}
    }
    if !Path::new(HOME).join("Cargo.toml").is_file() {
        eprintln!("run from the repository root (no {HOME}/Cargo.toml here)");
        return ExitCode::from(2);
    }
    let work = Work(
        Path::new(HOME)
            .join(".work")
            .join(std::process::id().to_string()),
    );
    if let Err(e) =
        std::fs::create_dir_all(&work.0).and_then(|_| std::fs::create_dir_all(results_dir()))
    {
        eprintln!("cannot create the benchmark's directories: {e}");
        return ExitCode::from(2);
    }
    if args.first().map(String::as_str) == Some("digests") {
        return match build::capture(&work.0) {
            Ok(text) => {
                print!("{text}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("digests: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let a = match parse(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let host = record::Host::probe();
    let workloads: Vec<&str> = if a.workload == "all" {
        record::ALL_WORKLOADS.to_vec()
    } else {
        vec![a.workload.as_str()]
    };
    let mut ok = true;
    for w in workloads {
        match run_one(&host, &work.0, w, &a) {
            Ok(correct) => ok &= correct,
            Err(e) => {
                eprintln!("{w}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
