//! Exploration micro-benchmark: how fast does path enumeration run, and
//! how many solver queries does it actually issue?
//!
//! The pre-incremental explorer issued one from-scratch solver query per
//! feasibility request (`checks_requested` — the counter baseline). The
//! incremental engine answers most requests from saved propagation state,
//! the feasibility memo, and cached models; `solver_queries` counts the
//! full decision-procedure runs that remain. The reduction factor is
//! machine-independent and asserted in `tests/explore_stats.rs`; this
//! harness additionally reports wall-clock and paths/sec.
//!
//! Quick mode (`BOLT_BENCH_QUICK=1`, used by the CI smoke job) runs one
//! timing iteration per scenario instead of many.
//!
//! With `BOLT_STORE_DIR` set, each exploration goes through the
//! persistent contract store (the `Bolt` fluent path): the first process
//! populates it, later processes decode stored paths instead of
//! exploring — the `source` column reports which happened. The CI
//! warm-cache smoke step runs the harness twice against a temp store
//! with `BOLT_BENCH_EXPECT_ALL_CACHED=1` on the second run, which makes
//! the harness fail unless every scenario was served from the store with
//! zero explorations.

use std::time::Instant;

use bolt_bench::table_fmt::print_table;
use bolt_core::nf::{Bolt, NetworkFunction};
use bolt_nfs::nat::{AllocKind, Nat, NatConfig};
use bolt_nfs::{Bridge, LpmRouter};
use bolt_see::ExploreStats;
use dpdk_sim::StackLevel;

struct Scenario {
    name: &'static str,
    /// Runs one exploration (store-aware when `BOLT_STORE_DIR` is set);
    /// returns the stats plus whether the result came from the store.
    run: Box<dyn Fn() -> (ExploreStats, bool)>,
}

fn scenario<N: NetworkFunction + Clone + 'static>(
    name: &'static str,
    nf: N,
    level: StackLevel,
) -> Scenario {
    Scenario {
        name,
        run: Box::new(move || {
            // Fresh exploration (or store hit) per call.
            let e = Bolt::nf(nf.clone()).explore(level);
            (e.result.stats, e.cached)
        }),
    }
}

fn main() {
    let quick = std::env::var("BOLT_BENCH_QUICK").is_ok();
    let expect_cached = std::env::var("BOLT_BENCH_EXPECT_ALL_CACHED").is_ok();
    let iters = if quick { 1 } else { 25 };
    let mut explorations = 0u64;

    // Increasing exploration levels: NF-only stateless bodies first, then
    // the full simulated stack (driver + kernel wrappers add branches).
    let scenarios = vec![
        scenario("bridge/nf-only", Bridge::default(), StackLevel::NfOnly),
        scenario(
            "bridge/full-stack",
            Bridge::default(),
            StackLevel::FullStack,
        ),
        scenario(
            "nat-a/nf-only",
            Nat::with(NatConfig::default(), AllocKind::A),
            StackLevel::NfOnly,
        ),
        scenario(
            "nat-a/full-stack",
            Nat::with(NatConfig::default(), AllocKind::A),
            StackLevel::FullStack,
        ),
        scenario(
            "nat-b/full-stack",
            Nat::with(NatConfig::default(), AllocKind::B),
            StackLevel::FullStack,
        ),
        scenario("lpm/nf-only", LpmRouter::default(), StackLevel::NfOnly),
        scenario(
            "lpm/full-stack",
            LpmRouter::default(),
            StackLevel::FullStack,
        ),
    ];

    let mut rows = Vec::new();
    for s in &scenarios {
        // Warm-up + stats collection (stats are identical every run).
        let (stats, cached) = (s.run)();
        if expect_cached && !cached {
            panic!(
                "{}: BOLT_BENCH_EXPECT_ALL_CACHED is set but the scenario \
                 explored instead of hitting the store",
                s.name
            );
        }
        explorations += u64::from(!cached);
        let t0 = Instant::now();
        for _ in 0..iters {
            let _ = (s.run)();
        }
        let elapsed = t0.elapsed().as_secs_f64() / iters as f64;
        let paths_per_sec = stats.runs as f64 / elapsed.max(1e-9);
        let sv = stats.solver;
        let reduction = if sv.solver_queries == 0 {
            "∞".to_string()
        } else {
            format!(
                "{:.1}x",
                sv.checks_requested as f64 / sv.solver_queries as f64
            )
        };
        let store_active = std::env::var_os("BOLT_STORE_DIR").is_some();
        // With a store configured, the warm-up call populates it, so the
        // timed iterations of a cold scenario decode from disk: label it
        // "seeded" rather than pretending the timings are exploration
        // cost.
        let source = match (store_active, cached) {
            (false, _) => "explored",
            (true, true) => "warm",
            (true, false) => "seeded",
        };
        rows.push(vec![
            s.name.to_string(),
            source.to_string(),
            stats.runs.to_string(),
            format!("{:.2}", elapsed * 1e3),
            format!("{paths_per_sec:.0}"),
            sv.checks_requested.to_string(),
            sv.solver_queries.to_string(),
            reduction,
            sv.witness_reuse_hits.to_string(),
            sv.memo_hits.to_string(),
            sv.unsat_by_propagation.to_string(),
            stats.terms_interned.to_string(),
        ]);
    }
    print_table(
        "explore_micro — incremental exploration engine",
        &[
            "scenario",
            "source",
            "runs",
            "ms/explore",
            "runs/s",
            "requests",
            "queries",
            "reduction",
            "witness",
            "memo",
            "unsat-prop",
            "terms",
        ],
        &rows,
    );
    println!(
        "\n`requests` is the pre-incremental query count (one full solve per\n\
         feasibility request); `queries` is what the incremental engine still\n\
         runs. Exploration output is bit-identical either way."
    );
    if std::env::var_os("BOLT_STORE_DIR").is_some() {
        println!(
            "store: {} of {} scenarios explored fresh during warm-up \
             (\"seeded\"); timed iterations always decode from \
             BOLT_STORE_DIR, so ms/explore on seeded rows is store-decode \
             latency",
            explorations,
            scenarios.len()
        );
    }
    if expect_cached {
        assert_eq!(explorations, 0, "warm run must perform zero explorations");
        println!("warm-cache check passed: 0 explorations, 0 solver queries issued");
    }
}
