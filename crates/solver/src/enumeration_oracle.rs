//! Differential test of component enumeration.
//!
//! [`reference_components`] is the per-candidate enumerator the solver
//! used before component enumeration moved to a flat environment and a
//! compiled [`Tape`]: every candidate assignment builds a fresh witness
//! map holding the enumerated values and every forced binding, extends it
//! to the class members of the component's terms, and evaluates through
//! map lookups. It is slow but obviously faithful to the definition, so it
//! serves as the oracle: seeded random small components — one or two free
//! symbols of at most 12 bits, mixed with bound and union-ed symbols —
//! must get the same verdict and the same witness from both. The atoms
//! use every node kind the tape compiles (`Add`, `Sub`, `Mul`, `And`,
//! `Or`, `Xor`, `Shl`, `Shr`, `Eq`, `Ne`, `Ult`, `Ule`, `Not`, `Ite`,
//! `Zext`, `Trunc`) at 8, 16 and 32 bits, because each operator masks by
//! its operand's width. A second test runs each atom's tape on its own
//! against [`TermPool::eval`] at random assignments, so an op that is
//! wrong only where the decision does not hinge on it still shows.

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
    for &(shape, pick, kv, m) in atoms {
        let a = firsts[pick as usize % firsts.len()];
        let b = seconds[(pick as usize / firsts.len()) % seconds.len()];
        // Half the atoms read the whole field, half a masked part of it.
        let mask = p.constant(if m % 2 == 0 { span } else { m as u64 & span }, w);
        let kv = kv as u64 & span;
        let k = p.constant(kv, w);
        let fa = p.and(a, mask);
        let fb = p.and(b, mask);
        let atom = match shape % 15 {
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
            5 => {
                let sum = p.add(fa, fb);
                p.ult(k, sum)
            }
            // Holds only through the 16-bit wrap: `fb - fa == kv + 1`.
            6 => {
                let d = p.sub(fa, fb);
                let neg = p.constant((kv + 1).wrapping_neg(), w);
                p.eq(d, neg)
            }
            // Wraps past 16 bits.
            7 => {
                let prod = p.mul(fa, fb);
                p.ule(prod, k)
            }
            8 => {
                let o = p.or(fa, k);
                let x = p.xor(fb, k);
                p.ne(o, x)
            }
            // Symbolic shift amounts: holds unless the left shift pushed
            // bits of `fa` out of the 16-bit field.
            9 => {
                let fifteen = p.constant(15, w);
                let by = p.and(fb, fifteen);
                let l = p.shl(fa, by);
                let back = p.shr(l, by);
                p.eq(back, fa)
            }
            // Widened to 32 bits the product no longer wraps.
            10 => {
                let wa = p.zext(fa, Width::W32);
                let wb = p.zext(fb, Width::W32);
                let prod = p.mul(wa, wb);
                let k32 = p.constant(kv << 4, Width::W32);
                p.ult(k32, prod)
            }
            // A sum of low bytes, wrapping at 8 bits.
            11 => {
                let la = p.trunc(fa, Width::W8);
                let lb = p.trunc(fb, Width::W8);
                let sum = p.add(la, lb);
                let k8 = p.constant(kv & 0xFF, Width::W8);
                p.ule(sum, k8)
            }
            // A selected field's low byte, complemented at 8 bits.
            12 => {
                let c = p.ult(fa, k);
                let sel = p.ite(c, fb, fa);
                let low = p.trunc(sel, Width::W8);
                let inv = p.not(low);
                let k8 = p.constant(kv & 0xFF, Width::W8);
                p.ult(inv, k8)
            }
            // The complement at 32 bits: holds only for `fa == kv`.
            13 => {
                let wide = p.zext(fa, Width::W32);
                let inv = p.not(wide);
                let want = p.constant(!kv, Width::W32);
                p.eq(inv, want)
            }
            // Through 8, 32 and back to 16 bits.
            _ => {
                let low = p.trunc(fa, Width::W8);
                let wide = p.zext(low, Width::W32);
                let by = p.constant(kv % 40, Width::W32);
                let shifted = p.shl(wide, by);
                let back = p.trunc(shifted, Width::W16);
                p.eq(back, fb)
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
    // Sat verdicts whose witness is off the low corner: found by the tape.
    let mut past_corner = 0;
    for case in 0..400 {
        let spec = strategy.generate(&mut rng);
        let mut p = TermPool::new();
        let cs = build(&mut p, &spec);
        if let Some(mut prop) = propagated(&p, &cs) {
            let got = decide_components(&p, &cs, &mut prop.clone());
            let want = reference_components(&p, &cs, &mut prop.clone());
            assert_eq!(
                got, want,
                "case {case}: component phase diverged on {spec:?}"
            );
            match got {
                Some(SolveResult::Sat(w)) => {
                    sat += 1;
                    let off_corner = (0..p.sym_count() as SymId).any(|s| {
                        prop.find(s) == s
                            && !prop.bound.contains_key(&s)
                            && w.get(s) != prop.iv(&p, s).lo
                    });
                    past_corner += usize::from(off_corner);
                }
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
        sat >= 10 && unsat >= 10 && open >= 10 && past_corner >= 10,
        "generator must exercise every outcome: {sat} sat ({past_corner} past the low \
         corner), {unsat} unsat, {open} open"
    );
}

#[test]
fn compiled_tape_agrees_with_the_evaluator_on_every_atom() {
    let strategy = component_spec();
    let mut rng = TestRng::deterministic(proptest::name_salt(module_path!()) ^ 1);
    for case in 0..400 {
        let spec = strategy.generate(&mut rng);
        let mut p = TermPool::new();
        let cs = build(&mut p, &spec);
        // `x` and `u` share slot 0, `y` takes slot 1; the bound `z` and
        // `v` sit in the environment, so subterms over them fold.
        let (x, u, z, v, y) = (0, 1, 2, 3, 4);
        let members = [(x, 0), (u, 0), (y, 1)];
        let mut env = vec![0u64; p.sym_count()];
        env[z] = spec.3 as u64;
        env[v] = spec.3 as u64;
        for &c in &cs {
            let mut tape = Tape::compile(&p, std::iter::once(c), &members, &env);
            for _ in 0..64 {
                let assignment = [rng.below(1 << 16), rng.below(1 << 16)];
                let mut full = env.clone();
                full[x] = assignment[0];
                full[u] = assignment[0];
                if let Some(vy) = full.get_mut(y) {
                    *vy = assignment[1];
                }
                assert_eq!(
                    tape.holds(&assignment),
                    p.eval(c, &|id| full[id as usize]) == 1,
                    "case {case}: tape diverged on {} at {assignment:?}",
                    p.display(c)
                );
            }
        }
    }
}
