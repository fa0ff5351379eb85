import functools
import itertools
import random

import pytest

from argudyn import (
    ArgumentationFramework,
    FormulaTooDeep,
    InvalidArity,
    Semantics,
    UnboundVariable,
    UnsupportedSemantics,
)
from argudyn.firstorder import (
    And,
    App1,
    App2,
    AtMost,
    Eq,
    Exists,
    Flipped,
    Forall,
    Implies,
    Not,
    Or,
    adjust_body,
    adjust_formula,
    adm_of,
    at_most,
    attacks,
    center_body,
    center_formula,
    cf_of,
    com_of,
    conj,
    corrected_repair_formula,
    disj,
    evaluate,
    first_model,
    fresh_var,
    repair_body,
    repair_formula,
    sigma_of,
    small_body,
    small_formula,
    stb_of,
    structure_of,
    unary_pred,
)
from conftest import python_calls, random_framework
from oracles import (
    oracle_admissible,
    oracle_complete,
    oracle_conflict_free,
    oracle_stable,
)


def _subset_structure(af, members):
    return structure_of(af, S=af.set_of(members))


def test_evaluate_basic_connectives(f1):
    st = structure_of(f1)
    assert evaluate(st, Eq("x", "y"), {"x": "a", "y": "a"})
    assert not evaluate(st, Eq("x", "y"), {"x": "a", "y": "b"})
    assert evaluate(st, App2("A", "x", "y"), {"x": "a", "y": "b"})
    assert evaluate(st, Exists("x", App2("A", "x", "x"))) is False
    assert evaluate(st, Forall("x", Exists("y", App2("A", "x", "y"))))
    assert evaluate(st, Not(And((Eq("x", "x"), Not(Eq("x", "x"))))), {"x": "a"})
    assert evaluate(st, Or((Eq("x", "y"), Implies(Eq("x", "x"), Eq("y", "y")))),
                    {"x": "a", "y": "b"})


def test_evaluate_errors(f1):
    st = structure_of(f1)
    with pytest.raises(UnboundVariable):
        evaluate(st, Eq("x", "y"), {"x": "a"})
    with pytest.raises(ValueError):
        evaluate(st, Eq("x", "x"), {"x": "zz"})
    with pytest.raises(ValueError):
        evaluate(st, App1("A", "x"), {"x": "a"})
    with pytest.raises(ValueError):
        evaluate(st, App2("S", "x", "x"), {"x": "a"})
    with pytest.raises(ValueError):
        evaluate(st, App1("Q", "x"), {"x": "a"})


def test_sigma_formulas_match_checkers():
    rng = random.Random(314)
    for _ in range(30):
        af = random_framework(rng, rng.randint(1, 5))
        attacks = set(af.attacks)
        for s in af.all_subsets():
            st = structure_of(af, S=s)
            members = frozenset(s.names)
            assert evaluate(st, cf_of(unary_pred("S"))) == oracle_conflict_free(
                attacks, members
            )
            assert evaluate(st, adm_of(unary_pred("S"))) == oracle_admissible(
                attacks, members
            )
            assert evaluate(st, com_of(unary_pred("S"))) == oracle_complete(
                af.arguments, attacks, members
            )
            assert evaluate(st, stb_of(unary_pred("S"))) == oracle_stable(
                af.arguments, attacks, members
            )


def test_sigma_of_rejects_maximality_semantics():
    for sigma in (Semantics.PREFERRED, Semantics.SEMI_STABLE):
        with pytest.raises(UnsupportedSemantics) as err:
            sigma_of(sigma)
        assert sigma.value in str(err.value)


# Flipped over no relation, one, and the symmetric difference of two
RELS = ((), ("S",), ("S", "T"))


def _sym_diff(p, q):
    return lambda v: Or((And((p(v), Not(q(v)))), And((Not(p(v)), q(v)))))


def _flipped_and_oracle(rels, variables):
    """Flipped, and its oracle: the relations and the witness set, as a
    disjunction of equalities, folded by symmetric difference."""

    def named(v):
        return disj(Eq(v, x) for x in variables)

    oracle = functools.reduce(_sym_diff, [unary_pred(r) for r in rels] + [named])
    return (lambda v: Flipped(rels, variables, v)), oracle


def _two_sets(rng, af):
    return structure_of(af, S=af.set_from_mask(rng.getrandbits(af.n)),
                        T=af.set_from_mask(rng.getrandbits(af.n)))


def test_flipped_agrees_with_its_expansion_on_every_assignment():
    rng = random.Random(53)
    for n in range(1, 6):
        af = random_framework(rng, n)
        st = _two_sets(rng, af)
        for width, rels in itertools.product((1, 2, 3), RELS):
            variables = tuple(f"x{i}" for i in range(1, width + 1))
            node, oracle = _flipped_and_oracle(rels, variables)
            # the product holds the tuples that repeat a value
            for values in itertools.product(af.arguments, repeat=width + 1):
                assignment = dict(zip(variables + ("y",), values))
                assert evaluate(st, node("y"), assignment) == evaluate(
                    st, oracle("y"), assignment
                ), (n, rels, assignment)


def test_flipped_agrees_with_its_expansion_under_a_quantifier():
    # the flipped set's member y is bound inside an outer quantifier over z,
    # and the witness variables by the assignment or by quantifiers outside
    rng = random.Random(59)
    for _ in range(20):
        af = random_framework(rng, rng.randint(1, 4))
        st = _two_sets(rng, af)
        for width, rels, quantifier in itertools.product(
            (1, 2, 3), RELS, (Exists, Forall)
        ):
            variables = tuple(f"x{i}" for i in range(1, width + 1))

            def sentence(p):
                body = Exists("z", quantifier("y", And((p("y"), attacks("z", "y")))))
                return body, _closed(Forall, variables, body)

            (new, closed_new), (old, closed_old) = map(
                sentence, _flipped_and_oracle(rels, variables)
            )
            for values in itertools.product(af.arguments, repeat=width):
                assignment = dict(zip(variables, values))
                assert evaluate(st, new, assignment) == evaluate(st, old, assignment)
            assert evaluate(st, closed_new) == evaluate(st, closed_old)


def _closed(quantifier, variables, body):
    for v in reversed(variables):
        body = quantifier(v, body)
    return body


# The sigma builders' shapes before they tested membership first: the
# oracles for the rewritten builders.


def _quantify_first_cf(p):
    x, y = fresh_var(), fresh_var()
    return Forall(
        x, Forall(y, Implies(And((p(x), p(y))), Not(attacks(x, y))))
    )


def _quantify_first_adm(p):
    x, y, z = fresh_var(), fresh_var(), fresh_var()
    defended = Forall(
        x,
        Forall(
            z,
            Implies(
                And((p(x), Not(p(z)), attacks(z, x))),
                Exists(y, And((p(y), attacks(y, z)))),
            ),
        ),
    )
    return And((_quantify_first_cf(p), defended))


def _quantify_first_com(p):
    a, x1, x2, z = fresh_var(), fresh_var(), fresh_var(), fresh_var()
    all_attackers_countered = Forall(
        a, Implies(attacks(a, z), Exists(x1, And((p(x1), attacks(x1, a)))))
    )
    no_conflict_with = Forall(
        x2, Implies(p(x2), Not(Or((attacks(x2, z), attacks(z, x2)))))
    )
    closure = Forall(
        z, Implies(And((all_attackers_countered, no_conflict_with)), p(z))
    )
    return And((_quantify_first_adm(p), closure))


def _quantify_first_stb(p):
    z, a = fresh_var(), fresh_var()
    covers = Forall(z, Or((p(z), Exists(a, And((p(a), attacks(a, z)))))))
    return And((_quantify_first_cf(p), covers))


# The shapes of cf_of and com_of before their inner quantifiers led with the
# attack atom, so that no guard applies to them.


def _pre_guard_cf(p):
    x, y = fresh_var(), fresh_var()
    return Forall(x, Implies(p(x), Forall(y, Implies(p(y), Not(attacks(x, y))))))


def _pre_guard_com(p):
    a, x1, x2, z = fresh_var(), fresh_var(), fresh_var(), fresh_var()
    all_attackers_countered = Forall(
        a, Implies(attacks(a, z), Exists(x1, And((p(x1), attacks(x1, a)))))
    )
    no_conflict_with = Forall(
        x2, Implies(p(x2), Not(Or((attacks(x2, z), attacks(z, x2)))))
    )
    closure = Forall(
        z, Or((p(z), Not(And((no_conflict_with, all_attackers_countered)))))
    )
    return And((adm_of(p), closure))


_BUILDERS_AND_ORACLES = (
    (cf_of, _quantify_first_cf),
    (adm_of, _quantify_first_adm),
    (com_of, _quantify_first_com),
    (stb_of, _quantify_first_stb),
    (cf_of, _pre_guard_cf),
    (com_of, _pre_guard_com),
)


def test_membership_first_builders_agree_with_their_former_shapes():
    def flipped(v):
        # S with the set {x1, x2} flipped, for every value of x1 and x2
        return Flipped(("S",), ("x1", "x2"), v)

    rng = random.Random(61)
    for trial in range(25):
        af = random_framework(rng, 1 + trial % 5)
        for s in af.all_subsets():
            st = structure_of(af, S=s)
            for build, former in _BUILDERS_AND_ORACLES:
                s_pred = unary_pred("S")
                assert evaluate(st, build(s_pred)) == evaluate(st, former(s_pred))
                new, old = build(flipped), former(flipped)
                agree = And((Implies(new, old), Implies(old, new)))
                assert evaluate(st, _closed(Forall, ("x1", "x2"), agree))


# -- guarded quantifiers


def _guarded_and_moved(v, z):
    """Each guarded shape over v and the bound z, paired with the same
    formula with its attack atom moved second, where no guard applies.  The
    conjunct reads the free w; the consequent nests a guard of its own."""
    conjunct = Or((App1("S", v), attacks("w", v)))
    then = Exists("u", And((attacks("u", v), Not(Eq("u", z)))))
    true = Eq(v, v)
    pairs = []
    for atom in (attacks(v, z), attacks(z, v)):
        pairs += [
            (Exists(v, And((atom, conjunct))), Exists(v, And((conjunct, atom)))),
            (Exists(v, atom), Exists(v, And((true, atom)))),
            (Forall(v, Implies(atom, then)),
             Forall(v, Implies(And((true, atom)), then))),
            (Forall(v, Implies(And((atom, conjunct)), then)),
             Forall(v, Implies(And((conjunct, atom)), then))),
        ]
    return pairs


def test_each_guarded_shape_agrees_with_its_unguarded_form():
    rng = random.Random(71)
    self_attacks = 0
    for trial in range(30):
        af = random_framework(rng, 1 + trial % 5, self_prob=0.4)
        self_attacks += sum(a == b for a, b in af.attacks)
        st = structure_of(af, S=af.set_from_mask(rng.getrandbits(af.n)))
        for guarded, moved in _guarded_and_moved("v", "z"):
            for z, w in itertools.product(af.arguments, repeat=2):
                assignment = {"z": z, "w": w}
                assert evaluate(st, guarded, assignment) == evaluate(
                    st, moved, assignment
                ), (trial, guarded, assignment)
    assert self_attacks


def test_a_guarded_quantifier_ranges_over_neighbours_only():
    # 60 arguments and one attack, and f decided for every z: a guarded
    # quantifier visits z's few neighbours, the unguarded one all 60
    names = [f"a{i}" for i in range(60)]
    af = ArgumentationFramework(names, [("a0", "a1")])
    st = structure_of(af, S=af.set_of(names[::2]))
    for guarded, moved in _guarded_and_moved("v", "z"):
        calls = []
        for f in (guarded, moved):
            every_z = AtMost("z", len(names), f)
            _, count = python_calls(lambda: evaluate(st, every_z, {"w": "a0"}))
            calls.append(count)
        assert calls[0] * 10 < calls[1], (guarded, calls)


def test_a_guard_needs_a_bound_attack_partner(f1):
    loop = ArgumentationFramework(("a", "b"), [("a", "b"), ("b", "b")])
    st = structure_of(loop, S=loop.set_of(["a"]))
    # A(v, v) relates v to itself, not to a bound z: the quantifier ranges
    # over all arguments, also when an outer v is bound
    assert evaluate(st, Exists("v", attacks("v", "v")))
    assert not evaluate(structure_of(f1), Exists("v", attacks("v", "v")))
    for outer in loop.arguments:
        assert evaluate(st, Exists("v", attacks("v", "v")), {"v": outer})
        looped_are_in_s = Forall("v", Implies(attacks("v", "v"), App1("S", "v")))
        assert not evaluate(st, looped_are_in_s, {"v": outer})
    # a guard on an unbound z is still a formula with a free variable
    for f in (Exists("v", And((attacks("v", "z"), App1("S", "v")))),
              Forall("v", Implies(attacks("z", "v"), App1("S", "v")))):
        with pytest.raises(UnboundVariable):
            evaluate(st, f)


def test_at_most_counts_distinct_elements(f4):
    st = structure_of(f4, S=f4.set_of(["a", "b", "c"]))
    assert not evaluate(st, at_most(unary_pred("S"), 2))
    assert evaluate(st, at_most(unary_pred("S"), 3))
    assert evaluate(st, at_most(unary_pred("S"), 4))
    with pytest.raises(InvalidArity):
        at_most(unary_pred("S"), -1)


def _nested_at_most(p, k):
    """at_most's former expansion, the oracle for the counting node: no k+1
    pairwise distinct elements all satisfy p, as k+1 nested Exists."""
    vs = [fresh_var() for _ in range(k + 1)]
    parts = [
        Not(Eq(vs[i], vs[j])) for i in range(k + 1) for j in range(i + 1, k + 1)
    ]
    parts.extend(p(v) for v in vs)
    body = conj(parts)
    for v in reversed(vs):
        body = Exists(v, body)
    return Not(body)


def test_at_most_agrees_with_its_nested_expansion_on_every_subset():
    # S less the self-attackers, so that the count reads the attacks too
    def p(v):
        return And((App1("S", v), Not(attacks(v, v))))

    rng = random.Random(17)
    for n in range(1, 6):
        af = random_framework(rng, n)
        for s in af.all_subsets():
            st = structure_of(af, S=s)
            count = sum(1 for x in s.names if (x, x) not in af.attacks)
            for k in range(n + 2):
                node = at_most(p, k)
                assert isinstance(node, AtMost)
                assert evaluate(st, node) == evaluate(st, _nested_at_most(p, k))
                assert evaluate(st, node) == (count <= k)


def test_at_most_reads_the_variables_bound_around_it():
    # the body reads z, bound around the node or by the assignment
    def p(v):
        return And((App1("S", v), attacks(v, "z")))

    rng = random.Random(29)
    for _ in range(12):
        af = random_framework(rng, rng.randint(1, 4))
        st = structure_of(af, S=af.set_from_mask(rng.getrandbits(af.n)))
        for k in range(3):
            for quantifier in (Exists, Forall):
                assert evaluate(st, quantifier("z", at_most(p, k))) == evaluate(
                    st, quantifier("z", _nested_at_most(p, k))
                )
            for z in af.arguments:
                assert evaluate(st, at_most(p, k), {"z": z}) == evaluate(
                    st, _nested_at_most(p, k), {"z": z}
                )


def test_nested_at_most_agrees_with_its_nested_expansion():
    rng = random.Random(31)
    for _ in range(8):
        af = random_framework(rng, rng.randint(1, 4))
        st = structure_of(af)
        for inner, outer in itertools.product(range(3), repeat=2):
            # at most `outer` arguments have at most `inner` attackers
            node = at_most(lambda v: at_most(lambda w: attacks(w, v), inner), outer)
            oracle = _nested_at_most(
                lambda v: _nested_at_most(lambda w: attacks(w, v), inner), outer
            )
            assert evaluate(st, node) == evaluate(st, oracle)


def _increasing(st, variables):
    """The tuples the fo engine passes first_model for a layer that may flip
    any argument, all of them inside picks: the strictly increasing ones, in
    lexicographic order.  A center layer that may flip arguments outside
    E1 ^ E2 appends increasing outside picks to increasing inside picks."""
    return itertools.combinations(range(st.af.n), len(variables))


def _increasing_scan(st, body, variables):
    """The reference scan: the assignments of the product order, the first
    variable slowest, whose values strictly increase in argument order, each
    decided by evaluate."""
    tried = 0
    for values in itertools.product(range(st.af.n), repeat=len(variables)):
        if any(a >= b for a, b in zip(values, values[1:])):
            continue
        tried += 1
        assignment = dict(zip(variables, (st.af.arguments[i] for i in values)))
        if evaluate(st, body, assignment):
            return assignment, tried
    return None, tried


def test_first_model_finds_the_first_increasing_model_in_product_order():
    # every layer body of the four problems: the same model after the same
    # number of tries as the reference scan
    rng = random.Random(41)
    for n in (1, 2, 3, 4, 5, 6):
        af = random_framework(rng, n)

        def pick():
            return af.set_from_mask(rng.getrandbits(n))

        st = structure_of(af, S=pick(), E0=pick(), T=(rng.choice(af.arguments),),
                          E1=pick(), E2=pick())
        for sigma in (Semantics.ADMISSIBLE, Semantics.COMPLETE, Semantics.STABLE):
            layers = [small_body(sigma, d) for d in (1, 2, 3)]
            for nonempty in (False, True):
                layers += [repair_body(sigma, d, nonempty) for d in range(4)]
                layers += [adjust_body(sigma, d, nonempty) for d in range(3)]
                layers += [center_body(sigma, k, d, nonempty)
                           for k in (2, 3, 4) for d in range(1, k)]
            for variables, body in layers:
                got = first_model(st, body, variables, _increasing(st, variables))
                assert got == _increasing_scan(st, body, variables), (
                    n, sigma, variables
                )


def test_first_model_tries_interchangeable_variables_in_increasing_order():
    af = ArgumentationFramework(("a", "b", "c"), [])
    st = structure_of(af, U=("c",), W=("a",), B=("b",))
    # the only model is x1 = c, x2 = a: a decreasing pair, never tried
    body = And((App1("U", "x1"), App1("W", "x2")))
    pair = ("x1", "x2")
    assert first_model(st, body, pair, _increasing(st, pair)) == (None, 3)
    # the tuples are the caller's: in product order the pair is the 7th
    everything = itertools.product(range(3), repeat=2)
    assert first_model(st, body, pair, everything) == ({"x1": "c", "x2": "a"}, 7)
    # the only model repeats b, and names a set of one argument
    body = And((App1("B", "x1"), App1("B", "x2")))
    assert first_model(st, body, pair, _increasing(st, pair)) == (None, 3)
    single = ("x1",)
    assert first_model(st, App1("B", "x1"), single, _increasing(st, single)) == (
        {"x1": "b"}, 2
    )


def _t_led_adjust_body(sigma, k, require_nonempty):
    """Adjust's former body: a target variable t in T, then x1..x(k-1),
    all flipped in E0."""
    variables = ("t",) + tuple(f"x{i}" for i in range(1, k))

    def pred(v):
        return Flipped(("E0",), variables, v)

    items = (App1("T", "t"), sigma_of(sigma)(pred))
    if require_nonempty:
        y = fresh_var()
        items += (Exists(y, pred(y)),)
    return variables, conj(items)


def _t_led_models(st, body, variables):
    """The flip sets that the models of the t-led body name."""
    universe = st.af.arguments
    return {
        frozenset((t,) + tail)
        for t in universe
        for tail in itertools.combinations_with_replacement(
            universe, len(variables) - 1
        )
        if evaluate(st, body, dict(zip(variables, (t,) + tail)))
    }


def _first_layer_model(st, layers):
    """The values of the first model of the first layer that has one."""
    for variables, body in layers:
        model, _ = first_model(st, body, variables, _increasing(st, variables))
        if model is not None:
            return set(model.values())
    return None


def _closed_over(variables, body):
    for v in reversed(variables):
        body = Exists(v, body)
    return body


def test_adjust_body_agrees_with_its_t_led_form():
    # the layers d = 0..k-1 flip the target and d others; their disjunction
    # is the t-led sentence, and the layered scan names one of its flip sets
    # of least size
    rng = random.Random(43)
    for n in range(1, 6):
        for _ in range(4):
            af = random_framework(rng, n)
            target = rng.choice(af.arguments)
            st = structure_of(af, E0=af.set_from_mask(rng.getrandbits(n)),
                              T=(target,))
            for sigma in (Semantics.ADMISSIBLE, Semantics.COMPLETE,
                          Semantics.STABLE):
                for k in (1, 2, 3):
                    for nonempty in (False, True):
                        layers = [adjust_body(sigma, d, nonempty) for d in range(k)]
                        t_led, old_body = _t_led_adjust_body(sigma, k, nonempty)
                        where = (n, sigma, k, nonempty)
                        assert evaluate(
                            st, disj(_closed_over(*layer) for layer in layers)
                        ) == evaluate(st, _closed_over(t_led, old_body)), where
                        models = _t_led_models(st, old_body, t_led)
                        named = _first_layer_model(st, layers)
                        if named is None:
                            assert not models, where
                        else:
                            flips = frozenset({target, *named})
                            assert flips in models, where
                            assert len(flips) == min(map(len, models)), where


def test_a_deep_formula_raises_formula_too_deep(f1):
    st = structure_of(f1)
    f = Eq("x", "x")
    for _ in range(2000):
        f = Not(f)
    with pytest.raises(FormulaTooDeep):
        evaluate(st, f, {"x": "a"})
    with pytest.raises(FormulaTooDeep):
        first_model(st, f, ("x",), [(0,)])


def test_problem_formula_arity_guards():
    for builder, bad_k in (
        (small_formula, 0),
        (repair_formula, 0),
        (corrected_repair_formula, -1),
        (adjust_formula, 0),
        (center_formula, 1),
    ):
        with pytest.raises(InvalidArity):
            builder(Semantics.ADMISSIBLE, bad_k)


def test_small_formula_is_nonempty_and_size_bounded(f1, f3):
    st = structure_of(f3)
    # chain: {a} is admissible, so k=1 suffices
    assert evaluate(st, small_formula(Semantics.ADMISSIBLE, 1))
    # 3-cycle has no nonempty admissible set
    cyc = ArgumentationFramework(("a", "b", "c"), [("a", "b"), ("b", "c"), ("c", "a")])
    assert not evaluate(structure_of(cyc), small_formula(Semantics.ADMISSIBLE, 3))
    # mutual pair under stb at k=1
    assert evaluate(structure_of(f1), small_formula(Semantics.STABLE, 1))


def test_verbatim_repair_formula_deviates_both_ways(f1):
    # misses the distance-0 case: S itself is the only stable repair
    st = structure_of(f1, S=f1.set_of(["a"]))
    assert not evaluate(st, repair_formula(Semantics.STABLE, 1))
    assert evaluate(st, corrected_repair_formula(Semantics.STABLE, 1))
    # accepts the empty set: no nonempty admissible set exists here
    loop = ArgumentationFramework(("x",), [("x", "x")])
    st2 = structure_of(loop, S=loop.set_of(["x"]))
    assert evaluate(st2, repair_formula(Semantics.ADMISSIBLE, 1))
    assert not evaluate(st2, corrected_repair_formula(Semantics.ADMISSIBLE, 1))


def test_corrected_repair_formula_counts_distance_zero(f4):
    st = structure_of(f4, S=f4.set_of(["a", "c"]))
    assert evaluate(st, corrected_repair_formula(Semantics.STABLE, 0))
    st2 = structure_of(f4, S=f4.set_of(["a", "b"]))
    assert not evaluate(st2, corrected_repair_formula(Semantics.STABLE, 0))
    assert evaluate(st2, corrected_repair_formula(Semantics.STABLE, 2))


def test_adjust_formula_toggles_target(f1):
    # E0={a}, target b, k=2: {b} works (distance 2, toggles b in)
    st = structure_of(f1, E0=f1.set_of(["a"]), T=("b",))
    assert evaluate(st, adjust_formula(Semantics.STABLE, 2))
    # k=1 cannot both drop a and add b
    assert not evaluate(st, adjust_formula(Semantics.STABLE, 1))
    # under adm, k=1 toggles a out to the empty set
    st2 = structure_of(f1, E0=f1.set_of(["a"]), T=("a",))
    assert evaluate(st2, adjust_formula(Semantics.ADMISSIBLE, 1))


def test_center_formula_strict_betweenness(f4):
    st = structure_of(
        f4, E1=f4.set_of(["a", "c"]), E2=f4.set_of(["b", "d"])
    )
    assert evaluate(st, center_formula(Semantics.STABLE, 4))
    # mutual pair endpoints at distance 2 admit no strictly closer point
    pair = ArgumentationFramework(("a", "b"), [("a", "b"), ("b", "a")])
    st2 = structure_of(pair, E1=pair.set_of(["a"]), E2=pair.set_of(["b"]))
    assert not evaluate(st2, center_formula(Semantics.STABLE, 2))

