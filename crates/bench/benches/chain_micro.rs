//! Chain-composition micro-benchmark: how fast do composed chain
//! contracts build, and how much solver work does the cross-product
//! actually run?
//!
//! Each scenario composes a [`Pipeline`] through `Pipeline::report`, so
//! the full store-aware fold is measured: stage contracts are
//! get-or-explore records, and every pairwise fold step is a
//! content-addressed composed record. The counters printed here are the
//! machine-independent half of the output; `ms/chain` is wall-clock.
//!
//! Quick mode (`BOLT_BENCH_QUICK=1`, used by the CI smoke job) runs one
//! timing iteration per scenario instead of many.
//!
//! With `BOLT_STORE_DIR` set, the first process populates the store and
//! later processes decode composed records instead of composing. The CI
//! warm-chain smoke runs the harness twice against a temp store with
//! `BOLT_BENCH_EXPECT_ALL_CACHED=1` on the second run, which makes the
//! harness fail unless every chain was served fully warm: zero stage
//! explorations, zero fold steps composed, zero compose solver requests.
//!
//! The harness also plans the 3-stage chain (`Pipeline::parallelize`)
//! and records the planned-vs-sequential *predicted* cycle contract —
//! max-of-group + merge against the sequential sum — a fully
//! machine-independent trajectory point. Results land in
//! `BENCH_chain.json` at the workspace root.

use std::io::Write as _;
use std::time::Instant;

use bolt_bench::table_fmt::print_table;
use bolt_core::chain::ChainReport;
use bolt_core::Pipeline;
use bolt_expr::PcvAssignment;
use bolt_nfs::{Firewall, StaticRouter};
use dpdk_sim::StackLevel;

struct Scenario {
    name: &'static str,
    /// Builds the pipeline fresh (pipelines are cheap descriptor bags)
    /// and runs one store-aware chain composition.
    run: Box<dyn Fn() -> ChainReport>,
}

fn scenario(
    name: &'static str,
    build: impl Fn() -> Pipeline<'static> + 'static,
    level: StackLevel,
) -> Scenario {
    Scenario {
        name,
        run: Box::new(move || build().report(level).expect("non-empty chain")),
    }
}

fn fw_rt() -> Pipeline<'static> {
    Pipeline::new()
        .push(Firewall::default())
        .push(StaticRouter::default())
}

fn fw_fw_rt() -> Pipeline<'static> {
    Pipeline::new()
        .push(Firewall::default())
        .push(Firewall::default())
        .push(StaticRouter::default())
}

fn main() {
    let quick = std::env::var("BOLT_BENCH_QUICK").is_ok();
    let expect_cached = std::env::var("BOLT_BENCH_EXPECT_ALL_CACHED").is_ok();
    let store_active = std::env::var_os("BOLT_STORE_DIR").is_some();
    let iters = if quick { 1 } else { 25 };

    let scenarios = vec![
        scenario("fw->rt/nf-only", fw_rt, StackLevel::NfOnly),
        scenario("fw->rt/full-stack", fw_rt, StackLevel::FullStack),
        scenario("fw->fw->rt/nf-only", fw_fw_rt, StackLevel::NfOnly),
        scenario("fw->fw->rt/full-stack", fw_fw_rt, StackLevel::FullStack),
    ];

    let mut rows = Vec::new();
    let mut scen_json = Vec::new();
    let mut cold_work = 0u64;
    for s in &scenarios {
        // Warm-up + counter collection (counters are identical per run
        // shape; a store flips them from "composed" to "cached").
        let rep = (s.run)();
        if expect_cached && !rep.fully_cached() {
            panic!(
                "{}: BOLT_BENCH_EXPECT_ALL_CACHED is set but the chain did real work \
                 (stages explored: {}, steps composed: {}, solver requests: {})",
                s.name, rep.stages_explored, rep.steps_composed, rep.solver.checks_requested
            );
        }
        cold_work += (rep.stages_explored + rep.steps_composed) as u64;
        let t0 = Instant::now();
        for _ in 0..iters {
            let _ = (s.run)();
        }
        let elapsed = t0.elapsed().as_secs_f64() / iters as f64;
        let source = if rep.fully_cached() {
            "warm"
        } else if store_active {
            "seeded"
        } else {
            "composed"
        };
        let sv = rep.solver;
        let reduction = if sv.checks_requested == 0 {
            "-".to_string()
        } else if sv.solver_queries == 0 {
            "∞".to_string()
        } else {
            format!(
                "{:.1}x",
                sv.checks_requested as f64 / sv.solver_queries as f64
            )
        };
        rows.push(vec![
            s.name.to_string(),
            source.to_string(),
            rep.contract.paths.len().to_string(),
            format!(
                "{}+{}",
                rep.stages_explored + rep.stages_cached,
                rep.steps_composed + rep.steps_cached
            ),
            format!(
                "{}/{}",
                rep.steps_cached,
                rep.steps_composed + rep.steps_cached
            ),
            format!("{:.2}", elapsed * 1e3),
            sv.checks_requested.to_string(),
            sv.solver_queries.to_string(),
            reduction,
        ]);
        scen_json.push(format!(
            "{{\"scenario\": \"{}\", \"source\": \"{source}\", \"paths\": {}, \
             \"ms_per_chain\": {:.3}, \"requests\": {}, \"queries\": {}}}",
            s.name,
            rep.contract.paths.len(),
            elapsed * 1e3,
            sv.checks_requested,
            sv.solver_queries
        ));
    }
    print_table(
        "chain_micro — store-aware chain composition",
        &[
            "scenario",
            "source",
            "paths",
            "stages+steps",
            "warm-steps",
            "ms/chain",
            "requests",
            "queries",
            "reduction",
        ],
        &rows,
    );
    println!(
        "\n`requests` counts pair-compatibility checks of the cross-product;\n\
         `queries` is what the incremental engine still solves from scratch.\n\
         A warm run (second process against the same BOLT_STORE_DIR) decodes\n\
         composed records instead: both columns drop to zero."
    );
    if store_active {
        println!(
            "store: {cold_work} stage explorations + fold compositions ran during \
             warm-up; timed iterations always decode from BOLT_STORE_DIR"
        );
    }
    if expect_cached {
        println!(
            "warm-chain check passed: 0 stage explorations, 0 fold steps composed, \
             0 compose solver queries"
        );
    }

    // Parallelization plan point: the 3-stage chain holds a provably
    // commuting firewall pair, so the planned cycle contract
    // (max-of-group + merge) must beat the sequential sum. Predicted
    // cycles are machine-independent.
    let env = PcvAssignment::new();
    let mut plan_rows = Vec::new();
    let mut plan_json = Vec::new();
    for level in [StackLevel::NfOnly, StackLevel::FullStack] {
        let name = format!("fw->fw->rt/{level:?}");
        let rep = fw_fw_rt().parallelize(level).expect("non-empty chain");
        let plan = rep.plan.as_ref().expect("parallelize attaches a plan");
        let seq_cy = plan.sequential_cycles(&env);
        let par_cy = plan.parallel_cycles(&env);
        assert!(
            par_cy < seq_cy,
            "{name}: planned contract ({par_cy}cy) must beat the sequential sum ({seq_cy}cy)"
        );
        plan_rows.push(vec![
            name.clone(),
            plan.groups_display(),
            seq_cy.to_string(),
            par_cy.to_string(),
            format!("{:.2}x", plan.predicted_speedup()),
        ]);
        plan_json.push(format!(
            "{{\"scenario\": \"{name}\", \"groups\": \"{}\", \"sequential_cycles\": {seq_cy}, \
             \"parallel_cycles\": {par_cy}, \"predicted_speedup\": {:.4}}}",
            plan.groups_display(),
            plan.predicted_speedup()
        ));
    }
    print_table(
        "chain_micro — parallelization plan (predicted cycle contract)",
        &["scenario", "plan", "seq cy", "par cy", "speedup"],
        &plan_rows,
    );
    println!(
        "predicted cycles come from the contract (worst path per stage, merge\n\
         from the hardware cost table) — machine-independent, unlike ms/chain"
    );

    let json = format!(
        "{{\n\"scenarios\": [\n  {}\n],\n\"plan\": [\n  {}\n]\n}}\n",
        scen_json.join(",\n  "),
        plan_json.join(",\n  ")
    );
    // Land the trajectory file at the workspace root (cargo runs benches
    // with the package dir as cwd) so successive runs overwrite one spot.
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .unwrap()
        .join("BENCH_chain.json");
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            f.write_all(json.as_bytes()).unwrap();
            println!("wrote {}", path.display());
        }
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}
