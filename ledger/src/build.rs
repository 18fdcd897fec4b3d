//! `build`: a closed loop on one thread that builds the whole contract
//! catalogue into a fresh store, the way `bolt_cli explore --all` and
//! `bolt_cli chain` do, and checks every encoded output against the
//! digests committed beside this file.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use bolt_core::store::{store_key, StoreExt};
use bolt_core::{encode_contract, encode_plan, ChainPlan, ChainReport, NfContract, Pipeline};
use bolt_nfs::{Firewall, StaticRouter};
use bolt_obs::{Histogram, Registry};
use bolt_store::ContractStore;
use dpdk_sim::StackLevel;

use crate::record::{Outcome, Value};
use crate::stats::{fnv64, median, percentile_sorted, ratio, tail_percentile, HistDelta, Rng};
use crate::trace::{self, SpanId, Tracer};
use crate::{peak_rss_mb, LEVELS};
use bolt_core::store::level_name;
use bolt_serve::NF_NAMES;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// The digests of one catalogue's outputs, captured at the commit that
/// introduced this benchmark. Contract bytes must not change.
pub const COMMITTED_DIGESTS: &str = include_str!("../digests.txt");

/// One encoded output: label, FNV-1a digest and length.
pub type Digest = (String, u64, usize);

fn digest(label: String, bytes: &[u8]) -> Digest {
    (label, fnv64(bytes), bytes.len())
}

pub fn render_digests(ds: &[Digest]) -> String {
    let mut s = String::from("# label fnv1a64 bytes: encoded outputs of one catalogue build\n");
    for (label, h, n) in ds {
        s.push_str(&format!("{label} {h:016x} {n}\n"));
    }
    s
}

/// Compare a catalogue's digests with the committed ones, line for line.
pub fn check_digests(expected: &str, actual: &[Digest]) -> Result<(), String> {
    let want: Vec<&str> = expected
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .collect();
    let got = render_digests(actual);
    let got: Vec<&str> = got.lines().filter(|l| !l.starts_with('#')).collect();
    if want.len() != got.len() {
        return Err(format!(
            "catalogue produced {} outputs, the committed digests list {}",
            got.len(),
            want.len()
        ));
    }
    for (w, g) in want.iter().zip(&got) {
        if w != g {
            return Err(format!(
                "encoded output changed: committed `{w}`, built `{g}`"
            ));
        }
    }
    Ok(())
}

/// Position of a contract label in NF_NAMES × LEVELS; folds and plans
/// keep their build order after all contracts.
fn canonical_rank(label: &str) -> usize {
    NF_NAMES
        .iter()
        .flat_map(|nf| {
            LEVELS
                .iter()
                .map(move |l| format!("contract/{nf}/{}", level_name(*l)))
        })
        .position(|l| l == label)
        .unwrap_or(usize::MAX)
}

/// A catalogue output the gate fingerprints.
enum Output {
    Contract(String, NfContract),
    Plan(String, ChainPlan),
}

/// The store's histograms a traced catalogue reads deltas from.
struct Hists {
    get: Arc<Histogram>,
    decode: Arc<Histogram>,
    put: Arc<Histogram>,
    explore: Arc<Histogram>,
    compose: Arc<Histogram>,
}

impl Hists {
    fn of(reg: &Registry) -> Hists {
        Hists {
            get: reg.histogram("store.get"),
            decode: reg.histogram("store.decode"),
            put: reg.histogram("store.put"),
            explore: reg.histogram("explore.wall"),
            compose: reg.histogram("compose.wall"),
        }
    }

    fn snap(&self) -> [bolt_obs::HistogramSnapshot; 5] {
        [
            self.get.snapshot(),
            self.decode.snapshot(),
            self.put.snapshot(),
            self.explore.snapshot(),
            self.compose.snapshot(),
        ]
    }
}

const HIST_NAMES: [&str; 5] = [
    "store.get",
    "store.decode",
    "store.put",
    "see.explore",
    "composer.compose",
];

/// Everything one catalogue measured.
#[derive(Default)]
struct Catalogue {
    wall_ns: u64,
    contract_ns: Vec<u64>,
    chain_ns: Vec<u64>,
    plan_ns: Vec<u64>,
    digests: Vec<Digest>,
    failed: u64,
    attempted: u64,
    // Traced catalogues only.
    layer_ns: std::collections::BTreeMap<&'static str, HistDelta>,
    solver_explore: (u64, u64),
    solver_compose: (u64, u64),
    explore_runs: u64,
    terms_interned: u64,
    pairs_checked: u64,
    steps: u64,
}

impl Catalogue {
    fn add_layer(&mut self, name: &'static str, ns: u64) {
        let e = self.layer_ns.entry(name).or_default();
        e.count += 1;
        e.sum_ns += ns;
    }
}

/// Time one call and, when tracing, record it as a span under `parent`
/// with the store histograms' movement inside it as aggregate children.
fn step<T>(
    tr: &mut Tracer,
    hists: &Hists,
    name: &'static str,
    parent: SpanId,
    req: u64,
    cat: &mut Catalogue,
    f: impl FnOnce() -> T,
) -> (T, u64) {
    let before = tr.enabled().then(|| hists.snap());
    let t0 = Instant::now();
    let v = f();
    let t1 = Instant::now();
    let ns = t1.duration_since(t0).as_nanos() as u64;
    if let Some(before) = before {
        let id = tr.record(name, Some(parent), req, t0, t1);
        cat.add_layer(name, ns);
        let after = hists.snap();
        for (i, child) in HIST_NAMES.iter().enumerate() {
            let d = HistDelta::between(&before[i], &after[i]);
            if d.count > 0 {
                tr.aggregate(child, id, d.sum_ns);
                let e = cat.layer_ns.entry(child).or_default();
                e.add(d);
            }
        }
    }
    (v, ns)
}

fn pipeline<'s>(store: &'s ContractStore, stages: &[&str]) -> Pipeline<'s> {
    let mut p = Pipeline::new().with_store(store);
    for s in stages {
        p = match *s {
            "firewall" => p.push(Firewall::default()),
            _ => p.push(StaticRouter::default()),
        };
    }
    p
}

/// Build one catalogue into a fresh store at `dir`.
/// The seeded order in which catalogue `n` builds its NF × level
/// contracts.
fn order(seed: u64, n: u64) -> Vec<(&'static str, StackLevel)> {
    let mut all: Vec<(&'static str, StackLevel)> = NF_NAMES
        .iter()
        .flat_map(|nf| LEVELS.iter().map(move |l| (*nf, *l)))
        .collect();
    let mut rng = Rng::derive(seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15), "build-order");
    for k in (1..all.len()).rev() {
        let j = rng.below(k as u64 + 1) as usize;
        all.swap(k, j);
    }
    all
}

/// Build one catalogue into a fresh store at `dir`, its contracts in the
/// given order; digests come out in the committed (canonical) order.
fn catalogue(
    dir: &Path,
    order: &[(&'static str, StackLevel)],
    tr: &mut Tracer,
    req: u64,
) -> Result<Catalogue, String> {
    let mut cat = Catalogue::default();
    let root = tr.open("catalogue", None, req);
    let t0 = Instant::now();
    let store = ContractStore::open(dir).map_err(|e| format!("open store: {e}"))?;
    let reg = Arc::clone(store.metrics());
    let hists = Hists::of(&reg);
    let counter = |n: &str| reg.counter(n).get();
    let explore_before = (
        counter("solver.checks_requested"),
        counter("solver.queries"),
        counter("explore.runs"),
        counter("explore.terms_interned"),
    );

    let mut outputs = Vec::new();
    for &(name, level) in order {
        {
            let c = tr.open("contract", Some(root), req);
            let ct = Instant::now();
            let ok = with_nf!(name, nf => {
                let (ex, _) = step(tr, &hists, "store.get_or_explore", c, req, &mut cat, || {
                    store.get_or_explore(&nf, level)
                });
                let (contract, _) = step(tr, &hists, "contract.generate", c, req, &mut cat, || {
                    ex.contract().into_inner()
                });
                let key = store_key(&nf, level);
                let (put, _) = step(tr, &hists, "store.put_contract", c, req, &mut cat, || {
                    store.put_contract(key, name, level, &contract)
                });
                cat.contract_ns.push(ct.elapsed().as_nanos() as u64);
                outputs.push(Output::Contract(
                    format!("contract/{name}/{}", level_name(level)),
                    contract,
                ));
                put.is_ok()
            });
            tr.close(c);
            cat.attempted += 1;
            cat.failed += u64::from(!ok);
        }
    }
    let explore_after = (
        counter("solver.checks_requested"),
        counter("solver.queries"),
        counter("explore.runs"),
        counter("explore.terms_interned"),
    );
    let steps_before = counter("compose.steps");
    let pairs_before = counter("compose.pairs_checked");

    let mut compose_stats = (0u64, 0u64);
    let mut fold = |cat: &mut Catalogue,
                    tr: &mut Tracer,
                    stages: &[&str],
                    level: StackLevel,
                    plan: bool|
     -> Option<ChainReport> {
        let p = pipeline(&store, stages);
        let name = if plan {
            "composer.plan"
        } else {
            "composer.chain"
        };
        let (rep, ns) = step(tr, &hists, name, root, req, cat, || {
            if plan {
                p.parallelize(level)
            } else {
                p.report(level)
            }
        });
        if plan {
            cat.plan_ns.push(ns);
        } else {
            cat.chain_ns.push(ns);
        }
        cat.attempted += 1;
        if let Some(r) = &rep {
            compose_stats.0 += r.solver.checks_requested;
            compose_stats.1 += r.solver.solver_queries;
        }
        rep
    };
    for level in LEVELS {
        let label = level_name(level);
        match fold(&mut cat, tr, &["firewall", "static_router"], level, false) {
            Some(r) => outputs.push(Output::Contract(format!("chain/fw-rt/{label}"), r.contract)),
            None => cat.failed += 1,
        }
    }
    for level in LEVELS {
        let label = level_name(level);
        match fold(
            &mut cat,
            tr,
            &["firewall", "firewall", "static_router"],
            level,
            true,
        ) {
            Some(ChainReport {
                contract,
                plan: Some(plan),
                ..
            }) => {
                outputs.push(Output::Contract(
                    format!("chain/fw-fw-rt/{label}"),
                    contract,
                ));
                outputs.push(Output::Plan(format!("plan/fw-fw-rt/{label}"), plan));
            }
            _ => cat.failed += 1,
        }
    }
    cat.wall_ns = t0.elapsed().as_nanos() as u64;
    tr.close(root);
    // Encoding for the gate happens after the clock stopped.
    // Contracts in NF_NAMES × LEVELS order, then chains and plans.
    let rank = |o: &Output| match o {
        Output::Contract(label, _) | Output::Plan(label, _) => canonical_rank(label),
    };
    outputs.sort_by_key(rank);
    cat.digests = outputs
        .into_iter()
        .map(|o| match o {
            Output::Contract(label, c) => digest(label, &encode_contract(&c)),
            Output::Plan(label, p) => digest(label, &encode_plan(&p)),
        })
        .collect();
    if tr.enabled() {
        cat.solver_explore = (
            explore_after.0 - explore_before.0,
            explore_after.1 - explore_before.1,
        );
        cat.explore_runs = explore_after.2 - explore_before.2;
        cat.terms_interned = explore_after.3 - explore_before.3;
        cat.solver_compose = compose_stats;
        cat.steps = counter("compose.steps") - steps_before;
        cat.pairs_checked = counter("compose.pairs_checked") - pairs_before;
    }
    Ok(cat)
}

/// One untraced catalogue's digests, for capturing `digests.txt`.
pub fn capture(work: &Path) -> Result<String, String> {
    let mut tr = Tracer::new(false, Instant::now());
    let cat = catalogue(&work.join("capture"), &order(0, 0), &mut tr, 0)?;
    Ok(render_digests(&cat.digests))
}

fn us(ns: &[u64], p: f64) -> f64 {
    let mut v: Vec<f64> = ns.iter().map(|&n| n as f64 / 1e3).collect();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

pub fn run(work: &Path, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let epoch = Instant::now();
    let mut tracer = Tracer::new(false, epoch);

    // Set-up: a first catalogue into an empty store (the developer's cold
    // start; it also warms lazy process state such as the allocator and
    // page cache before timing), several times; `setup_s` is the median.
    let mut setup_s = Vec::new();
    for i in 0..SETUP_REPEATS {
        let dir = work.join(format!("setup{i}"));
        let t = Instant::now();
        catalogue(&dir, &order(seed, u64::MAX - i as u64), &mut tracer, 0)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The loop: catalogues back to back until the run length is used.
    // Traced runs alternate traced and untraced catalogues so the
    // tracing overhead is measured in the same process and conditions.
    let deadline = Instant::now() + std::time::Duration::from_secs(seconds);
    let mut cats: Vec<(bool, Catalogue)> = Vec::new();
    let mut n = 0u64;
    let cpu0 = crate::thread_cpu_s();
    while Instant::now() < deadline || cats.len() < 2 {
        let on = traced && n.is_multiple_of(2);
        tracer.set_enabled(on);
        let mut cat = catalogue(
            &work.join(format!("cat{n}")),
            &order(seed, n),
            &mut tracer,
            n,
        )?;
        if let Err(e) = check_digests(COMMITTED_DIGESTS, &cat.digests) {
            out.gate_failures
                .push(format!("build gate (catalogue {n}, seed {seed}): {e}"));
            break;
        }
        // Checked; keeping them would make peak memory grow with the
        // number of catalogues a run completes.
        cat.digests = Vec::new();
        cats.push((on, cat));
        n += 1;
    }
    let cpu_us = (crate::thread_cpu_s() - cpu0) / n.max(1) as f64 * 1e6;
    tracer.set_enabled(false);
    // Stores are removed only now: deleting thousands of small files
    // between catalogues would put the file system's cleanup inside the
    // next catalogue's fsyncs.
    for i in 0..n {
        let _ = std::fs::remove_dir_all(work.join(format!("cat{i}")));
    }
    out.attempted = cats.iter().map(|(_, c)| c.attempted).sum();
    out.failed = cats.iter().map(|(_, c)| c.failed).sum();
    out.report.push(format!(
        "build gate: {} catalogues, every contract, composed contract and plan matched the committed digests",
        cats.len()
    ));

    let plain: Vec<&Catalogue> = cats.iter().filter(|(on, _)| !on).map(|(_, c)| c).collect();
    let all = |f: fn(&Catalogue) -> &Vec<u64>| -> Vec<u64> {
        plain.iter().flat_map(|c| f(c).iter().copied()).collect()
    };
    let contract_ns = all(|c| &c.contract_ns);
    let chain_ns = all(|c| &c.chain_ns);
    let plan_ns = all(|c| &c.plan_ns);
    let wall_s: f64 = plain.iter().map(|c| c.wall_ns as f64 / 1e9).sum();
    let per_s = plain.len() as f64 / wall_s;
    let tail = tail_percentile(contract_ns.len()).unwrap_or(50.0).min(99.0);
    let p50 = us(&contract_ns, 50.0);
    let p99 = us(&contract_ns, tail);

    if !traced {
        let plan_p50 = us(&plan_ns, 50.0);
        out.metrics.extend([
            Value::new("latency_p50_us", plan_p50, "us"),
            Value::new("setup_s", median(&setup_s), "s"),
            Value::new("peak_rss_mb", peak_rss_mb(), "MiB"),
        ]);
        out.named.extend([
            Value::new("contract_p50_ms", p50 / 1e3, "ms"),
            Value::new("contract_p99_ms", p99 / 1e3, "ms"),
            Value::new("chain_p50_ms", us(&chain_ns, 50.0) / 1e3, "ms"),
            Value::new("plan_p50_ms", plan_p50 / 1e3, "ms"),
            Value::new("catalogue_per_s", per_s, "1/s"),
            Value::new(
                "catalogue_p50_ms",
                us(&plain.iter().map(|c| c.wall_ns).collect::<Vec<_>>(), 50.0) / 1e3,
                "ms",
            ),
            Value::new("cpu_ms_per_catalogue", cpu_us / 1e3, "ms"),
            Value::new("contract_samples", contract_ns.len() as f64, "count"),
        ]);
        out.report.push(format!(
            "{} catalogues: contract p50 {:.3} ms, p{tail} {:.3} ms over {} contracts; fw>rt fold p50 {:.2} ms; fw>fw>rt plan p50 {:.2} ms; {per_s:.2} catalogues/s",
            plain.len(),
            p50 / 1e3,
            p99 / 1e3,
            contract_ns.len(),
            us(&chain_ns, 50.0) / 1e3,
            plan_p50 / 1e3,
        ));
    } else {
        layers(&cats, &tracer, &mut out);
        out.spans = tracer.into_spans();
    }
    out.report.push(format!(
        "setup: {} first catalogues into empty stores, median {:.4} s",
        setup_s.len(),
        median(&setup_s)
    ));
    Ok(out)
}

/// Per-layer figures of a traced run, with the reconciliation check.
fn layers(cats: &[(bool, Catalogue)], tracer: &Tracer, out: &mut Outcome) {
    let traced: Vec<&Catalogue> = cats.iter().filter(|(on, _)| *on).map(|(_, c)| c).collect();
    let plain: Vec<&Catalogue> = cats.iter().filter(|(on, _)| !on).map(|(_, c)| c).collect();
    let k = traced.len() as f64;
    let mut layer = std::collections::BTreeMap::<&str, HistDelta>::new();
    for c in &traced {
        for (name, d) in &c.layer_ns {
            layer.entry(name).or_default().add(*d);
        }
    }
    let mean = |n: &str| layer.get(n).copied().unwrap_or_default().mean_us();
    let per_cat = |f: fn(&Catalogue) -> u64| traced.iter().map(|c| f(c) as f64).sum::<f64>() / k;
    let st = match trace::self_times(tracer.spans()) {
        Ok(st) => st,
        Err(e) => {
            out.gate_failures.push(format!("trace reconciliation: {e}"));
            Default::default()
        }
    };
    let self_ms = |n: &str| st.get(n).map_or(0.0, |s| s.self_mean_us() / 1e3);
    let p50_ms =
        |cs: &[&Catalogue]| us(&cs.iter().map(|c| c.wall_ns).collect::<Vec<_>>(), 50.0) / 1e3;
    let overhead = ratio(p50_ms(&traced), p50_ms(&plain)) - 1.0;
    let (ex_checks, ex_queries) = (
        per_cat(|c| c.solver_explore.0),
        per_cat(|c| c.solver_explore.1),
    );
    let (co_checks, co_queries) = (
        per_cat(|c| c.solver_compose.0),
        per_cat(|c| c.solver_compose.1),
    );
    let v = |name: &str, x: f64| Value::new(name, x, crate::record::per_layer_unit(name));
    out.metrics.extend([
        v("store.get_us", mean("store.get")),
        v("store.decode_us", mean("store.decode")),
        v("store.put_us", mean("store.put")),
        v("store.get_or_explore_us", mean("store.get_or_explore")),
        v("see.explore_us", mean("see.explore")),
        v("contract.generate_us", mean("contract.generate")),
        v("store.put_contract_us", mean("store.put_contract")),
        v("solver.explore_checks", ex_checks),
        v("solver.explore_queries", ex_queries),
        v(
            "solver.explore_full_solve_ratio",
            ratio(ex_queries, ex_checks),
        ),
        v("solver.compose_checks", co_checks),
        v("solver.compose_queries", co_queries),
        v(
            "solver.compose_full_solve_ratio",
            ratio(co_queries, co_checks),
        ),
        v("explore.runs", per_cat(|c| c.explore_runs)),
        v("explore.terms_interned", per_cat(|c| c.terms_interned)),
        v("composer.compose_us", mean("composer.compose")),
        v("compose.pairs_checked", per_cat(|c| c.pairs_checked)),
        v("compose.steps", per_cat(|c| c.steps)),
        v("composer.plan_self_ms", self_ms("composer.plan")),
        v("composer.chain_self_ms", self_ms("composer.chain")),
        v(
            "catalogue.unattributed_us",
            st.get("catalogue").map_or(0.0, |s| s.self_mean_us()),
        ),
        v("trace.overhead_ratio", overhead),
    ]);
    out.report.push(format!(
        "attribution per traced catalogue ({} traced; self = span minus its children):",
        traced.len()
    ));
    out.report
        .extend(trace::tree_lines(tracer.spans(), k, "ms", 1e6));
    out.report.push(format!(
        "trace_overhead: median catalogue traced {:.3} ms vs untraced {:.3} ms ({:+.1}%)",
        p50_ms(&traced),
        p50_ms(&plain),
        overhead * 100.0
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_gate_rejects_a_corrupted_digest() {
        let built = vec![
            digest("contract/a/nf-only".into(), b"abc"),
            digest("plan/b/full-stack".into(), b"defg"),
        ];
        let committed = render_digests(&built);
        assert_eq!(check_digests(&committed, &built), Ok(()));
        let corrupted =
            committed.replacen(&format!("{:016x}", fnv64(b"abc")), "0000000000000000", 1);
        assert!(check_digests(&corrupted, &built).is_err());
        assert!(check_digests(&committed, &built[..1]).is_err());
    }

    #[test]
    fn a_fresh_catalogue_matches_the_committed_digests() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("digest-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut tr = Tracer::new(true, Instant::now());
        let cat = catalogue(&dir, &order(5, 0), &mut tr, 0).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(check_digests(COMMITTED_DIGESTS, &cat.digests), Ok(()));
        assert_eq!(cat.attempted, 20);
        assert_eq!(cat.failed, 0);
        // Every traced step nests inside its parent.
        trace::self_times(tr.spans()).unwrap();
        assert!(cat.explore_runs > 0 && cat.steps > 0);
    }
}
