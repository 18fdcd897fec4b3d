//! Differential test of component enumeration.
//!
//! [`reference_components`] is the per-candidate enumerator the solver
//! used before component enumeration moved to a flat environment: every
//! candidate assignment builds a fresh witness map holding the enumerated
//! values and every forced binding, extends it to the class members of the
//! component's terms, and evaluates through map lookups. It is slow but
//! obviously faithful to the definition, so it serves as the oracle:
//! seeded random small components — one or two free symbols of at most
//! 12 bits, mixed with bound and union-ed symbols, constrained by
//! `Eq`/`Ult`/`And` over masked fields — must get the same verdict and
//! the same witness from both.

use super::*;
use proptest::prelude::*;

/// The pre-flat-environment component phase, kept verbatim apart from
/// the domain product, which saturates instead of overflowing.
fn reference_components(
    pool: &TermPool,
    constraints: &[TermRef],
    prop: &mut Propagator,
) -> Option<SolveResult> {
    let bound_pairs: Vec<(SymId, u64)> = prop.bound.iter().map(|(&r, &v)| (r, v)).collect();
    let supports: Vec<Vec<SymId>> = constraints
        .iter()
        .map(|&c| {
            let reps: Vec<SymId> = pool.syms_of(c).iter().map(|&s| prop.find(s)).collect();
            let mut v: Vec<SymId> = reps
                .into_iter()
                .filter(|r| !prop.bound.contains_key(r))
                .collect();
            v.sort_unstable();
            v.dedup();
            v
        })
        .collect();
    let mut forced = Witness::default();
    for &(r, v) in &bound_pairs {
        forced.set(r, v);
    }
    for (ci, sup) in supports.iter().enumerate() {
        if sup.is_empty() {
            let c = constraints[ci];
            let mut w = forced.clone();
            for &s in pool.syms_of(c) {
                let r = prop.find(s);
                let v = w.get(r);
                w.set(s, v);
            }
            if w.eval(pool, c) != 1 {
                return Some(SolveResult::Unsat);
            }
        }
    }
    let mut comp: HashMap<SymId, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (ci, sup) in supports.iter().enumerate() {
        if sup.is_empty() {
            continue;
        }
        let mut g = None;
        for s in sup {
            if let Some(&gi) = comp.get(s) {
                g = Some(gi);
                break;
            }
        }
        let gi = g.unwrap_or_else(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[gi].push(ci);
        for &s in sup {
            if let Some(&old) = comp.get(&s) {
                if old != gi {
                    let moved = std::mem::take(&mut groups[old]);
                    groups[gi].extend(moved);
                    for v in comp.values_mut() {
                        if *v == old {
                            *v = gi;
                        }
                    }
                }
            }
            comp.insert(s, gi);
        }
    }
    let mut partial = Witness::default();
    for &(r, v) in &bound_pairs {
        partial.set(r, v);
    }
    let mut all_components_solved = true;
    for group in groups.iter().filter(|g| !g.is_empty()) {
        let mut syms: Vec<SymId> = group
            .iter()
            .flat_map(|&ci| supports[ci].iter().copied())
            .collect();
        syms.sort_unstable();
        syms.dedup();
        let domain: u128 = syms
            .iter()
            .map(|&r| {
                let iv = prop.iv(pool, r);
                (iv.hi - iv.lo) as u128 + 1
            })
            .fold(1, u128::saturating_mul);
        if syms.len() > 2 || domain > 4096 {
            all_components_solved = false;
            continue;
        }
        let group_terms: Vec<TermRef> = group.iter().map(|&ci| constraints[ci]).collect();
        let intervals: Vec<Interval> = syms.iter().map(|&r| prop.iv(pool, r)).collect();
        let mut assignment: Vec<u64> = intervals.iter().map(|iv| iv.lo).collect();
        let mut found = false;
        'enumerate: loop {
            let mut w = Witness::default();
            for (&r, &v) in syms.iter().zip(&assignment) {
                w.set(r, v);
            }
            for &(r, v) in &bound_pairs {
                w.set(r, v);
            }
            for &c in &group_terms {
                for &s in pool.syms_of(c) {
                    let r = prop.find(s);
                    let v = w.get(r);
                    w.set(s, v);
                }
            }
            if w.satisfies(pool, &group_terms) {
                found = true;
                for (&r, &v) in syms.iter().zip(&assignment) {
                    partial.set(r, v);
                }
                break 'enumerate;
            }
            let mut i = 0;
            loop {
                if i == syms.len() {
                    break 'enumerate;
                }
                if assignment[i] < intervals[i].hi {
                    assignment[i] += 1;
                    break;
                }
                assignment[i] = intervals[i].lo;
                i += 1;
            }
        }
        if !found {
            return Some(SolveResult::Unsat);
        }
    }
    if all_components_solved {
        let mut w = partial.clone();
        for &c in constraints {
            for &s in pool.syms_of(c) {
                let r = prop.find(s);
                let v = w.get(r);
                w.set(s, v);
            }
        }
        if w.satisfies(pool, constraints) {
            return Some(SolveResult::Sat(w));
        }
    }
    None
}

/// Propagation state after asserting `constraints` in order and settling
/// the residual fixpoint; `None` on a propagation contradiction.
fn propagated(pool: &TermPool, constraints: &[TermRef]) -> Option<Propagator> {
    let mut prop = Propagator::new();
    for &c in constraints {
        prop.assert_atom(pool, c, true);
    }
    (!prop.contradiction && prop.settle(pool)).then_some(prop)
}

/// The whole batch procedure with the reference component phase.
fn reference_decide(
    solver: &Solver,
    pool: &TermPool,
    constraints: &[TermRef],
    mode: Finish,
) -> SolveResult {
    let Some(mut prop) = propagated(pool, constraints) else {
        return SolveResult::Unsat;
    };
    if let Some(decided) = reference_components(pool, constraints, &mut prop) {
        return decided;
    }
    if mode == Finish::Feasibility {
        return SolveResult::Unknown;
    }
    solver.complete(pool, constraints, &mut prop)
}

/// One atom: `(shape, operand picks, constant, mask)`.
type AtomSpec = (u8, u8, u16, u16);

/// A small component: bit widths of the free symbols `x` and `y`, whether
/// `y` is in play, the value bound to `z`, and the atoms.
type ComponentSpec = (u32, u32, bool, u16, Vec<AtomSpec>);

fn component_spec() -> impl Strategy<Value = ComponentSpec> {
    (
        1u32..=12,
        1u32..=6,
        any::<bool>(),
        any::<u16>(),
        prop::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u16>(), any::<u16>()),
            1..=5,
        ),
    )
}

/// Builds the component: free `x` (and `y`) narrowed to their bit widths,
/// `u` union-ed with `x`, `z` bound to a constant and `v` union-ed with `z`,
/// then one masked-field atom per spec over operands drawn from those.
fn build(p: &mut TermPool, spec: &ComponentSpec) -> Vec<TermRef> {
    let &(bx, by, with_y, zval, ref atoms) = spec;
    // Constants and masks live in the free symbols' value range, so atoms
    // cut the small domains instead of being decided by their constants.
    let span = (1u64 << bx.max(by)) - 1;
    let w = Width::W16;
    let x = p.fresh_sym("x", w);
    let u = p.fresh_sym("u", w);
    let z = p.fresh_sym("z", w);
    let v = p.fresh_sym("v", w);
    let kx = p.constant((1 << bx) - 1, w);
    let kz = p.constant(zval as u64 & span, w);
    let mut cs = vec![p.ule(x, kx), p.eq(u, x), p.eq(z, kz), p.eq(v, z)];
    // The first operand is always free; the second favours `y`, so most
    // two-operand atoms join both free classes into one component.
    let (firsts, seconds) = if with_y {
        let y = p.fresh_sym("y", w);
        let ky = p.constant((1 << by) - 1, w);
        cs.push(p.ule(y, ky));
        (vec![x, u, y], vec![y, y, z, v, u])
    } else {
        (vec![x, u], vec![z, v, u, x])
    };
    for &(shape, pick, k, m) in atoms {
        let a = firsts[pick as usize % firsts.len()];
        let b = seconds[(pick as usize / firsts.len()) % seconds.len()];
        // Half the atoms read the whole field, half a masked part of it.
        let mask = p.constant(if m % 2 == 0 { span } else { m as u64 & span }, w);
        let k = p.constant(k as u64 & span, w);
        let fa = p.and(a, mask);
        let fb = p.and(b, mask);
        let atom = match shape % 6 {
            0 => p.eq(fa, k),
            1 => p.ult(fa, k),
            2 => {
                let e = p.eq(fa, k);
                p.not(e)
            }
            3 => p.eq(fa, fb),
            4 => {
                let lt = p.ult(fa, k);
                let eq = p.eq(fb, k);
                let both = p.and(lt, eq);
                p.not(both)
            }
            _ => {
                let sum = p.add(fa, fb);
                p.ult(k, sum)
            }
        };
        cs.push(atom);
    }
    cs
}

#[test]
fn flat_environment_enumeration_matches_the_per_candidate_reference() {
    let solver = Solver::default();
    let strategy = component_spec();
    let mut rng = TestRng::deterministic(proptest::name_salt(module_path!()));
    // How often the component phase decided Sat, decided Unsat, or fell
    // through: all three must be exercised for the comparison to mean
    // anything.
    let (mut sat, mut unsat, mut open) = (0, 0, 0);
    for case in 0..400 {
        let spec = strategy.generate(&mut rng);
        let mut p = TermPool::new();
        let cs = build(&mut p, &spec);
        if let Some(prop) = propagated(&p, &cs) {
            let got = decide_components(&p, &cs, &mut prop.clone());
            let want = reference_components(&p, &cs, &mut prop.clone());
            assert_eq!(
                got, want,
                "case {case}: component phase diverged on {spec:?}"
            );
            match got {
                Some(SolveResult::Sat(_)) => sat += 1,
                Some(_) => unsat += 1,
                None => open += 1,
            }
        }
        assert_eq!(
            solver.check(&p, &cs),
            reference_decide(&solver, &p, &cs, Finish::Full),
            "case {case}: check diverged on {spec:?}"
        );
        assert_eq!(
            solver.is_feasible(&p, &cs),
            reference_decide(&solver, &p, &cs, Finish::Feasibility).possibly_sat(),
            "case {case}: is_feasible diverged on {spec:?}"
        );
    }
    assert!(
        sat >= 10 && unsat >= 10 && open >= 10,
        "generator must exercise every outcome: {sat} sat, {unsat} unsat, {open} open"
    );
}
