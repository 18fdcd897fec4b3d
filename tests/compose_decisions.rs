//! Pins every compose-side solver decision of the reference chains.
//!
//! Chain composition asks the solver, for every upstream × downstream
//! path pair, whether the pair is feasible; the parallelization planner
//! asks the same tail whether two stages commute. This file pins, for
//! fw→rt, rt→fw, fw→fw and the planned fw→fw→rt chain at both stack
//! levels, the exact [`SolverStats`] of the run and the FNV-1a digest and
//! length of the encoded composed contract (and, for the planned chain,
//! of the encoded plan). A change to the solver that alters any verdict,
//! any witness that a later probe reuses, or any counter fails here —
//! so a speed-up of the decision procedure must leave every line
//! unchanged.

use bolt::core::{encode_contract, encode_plan, ChainReport, Pipeline};
use bolt::nfs::{Firewall, StaticRouter};
use bolt::see::StackLevel;
use bolt::solver::SolverStats;

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One pinned run: the solver counters plus `(digest, length)` of the
/// encoded contract and, for planned chains, of the encoded plan.
#[derive(Debug, PartialEq, Eq)]
struct Pin {
    stats: SolverStats,
    contract: (u64, usize),
    plan: Option<(u64, usize)>,
}

fn pin_of(rep: &ChainReport) -> Pin {
    let digest = |b: Vec<u8>| (fnv1a(&b), b.len());
    Pin {
        stats: rep.solver,
        contract: digest(encode_contract(&rep.contract)),
        plan: rep.plan.as_ref().map(|p| digest(encode_plan(p))),
    }
}

fn stats(
    checks_requested: u64,
    solver_queries: u64,
    completion_searches: u64,
    unsat_by_propagation: u64,
    memo_hits: u64,
    witness_reuse_hits: u64,
    model_evictions: u64,
) -> SolverStats {
    SolverStats {
        checks_requested,
        solver_queries,
        completion_searches,
        unsat_by_propagation,
        memo_hits,
        witness_reuse_hits,
        model_evictions,
    }
}

/// Runs the chain named `chain` at `level`.
fn run(chain: &str, level: StackLevel) -> ChainReport {
    let (fw, rt) = (Firewall::default, StaticRouter::default);
    let p = match chain {
        "fw>rt" => Pipeline::new().push(fw()).push(rt()),
        "rt>fw" => Pipeline::new().push(rt()).push(fw()),
        "fw>fw" => Pipeline::new().push(fw()).push(fw()),
        "fw>fw>rt plan" => Pipeline::new().push(fw()).push(fw()).push(rt()),
        other => unreachable!("unknown chain {other}"),
    };
    let rep = if chain.ends_with("plan") {
        p.parallelize(level)
    } else {
        p.report(level)
    };
    rep.expect("non-empty chain")
}

fn check(chain: &str, level: StackLevel, want: Pin) {
    let got = pin_of(&run(chain, level));
    assert_eq!(got, want, "{chain} at {level:?} moved");
}

#[test]
fn fw_rt_decisions_are_pinned() {
    check(
        "fw>rt",
        StackLevel::NfOnly,
        Pin {
            stats: stats(13, 12, 1, 0, 0, 1, 0),
            contract: (13398086704484472772, 715),
            plan: None,
        },
    );
    check(
        "fw>rt",
        StackLevel::FullStack,
        Pin {
            stats: stats(13, 12, 1, 0, 0, 1, 0),
            contract: (15768311878806495594, 716),
            plan: None,
        },
    );
}

#[test]
fn rt_fw_decisions_are_pinned() {
    check(
        "rt>fw",
        StackLevel::NfOnly,
        Pin {
            stats: stats(33, 33, 1, 0, 0, 0, 0),
            contract: (13984948157916386806, 2075),
            plan: None,
        },
    );
    check(
        "rt>fw",
        StackLevel::FullStack,
        Pin {
            stats: stats(33, 33, 1, 0, 0, 0, 0),
            contract: (7274853770103811042, 2084),
            plan: None,
        },
    );
}

#[test]
fn fw_fw_decisions_are_pinned() {
    check(
        "fw>fw",
        StackLevel::NfOnly,
        Pin {
            stats: stats(3, 2, 0, 0, 0, 1, 0),
            contract: (10292431893082999503, 336),
            plan: None,
        },
    );
    check(
        "fw>fw",
        StackLevel::FullStack,
        Pin {
            stats: stats(3, 2, 0, 0, 0, 1, 0),
            contract: (6576178470443513846, 337),
            plan: None,
        },
    );
}

#[test]
fn fw_fw_rt_plan_decisions_are_pinned() {
    check(
        "fw>fw>rt plan",
        StackLevel::NfOnly,
        Pin {
            stats: stats(62, 58, 3, 0, 1, 3, 0),
            contract: (16707035659697051724, 879),
            plan: Some((13208501772535530792, 64)),
        },
    );
    check(
        "fw>fw>rt plan",
        StackLevel::FullStack,
        Pin {
            stats: stats(62, 58, 3, 0, 1, 3, 0),
            contract: (15174216810115298483, 881),
            plan: Some((18391550986007719712, 64)),
        },
    );
}
