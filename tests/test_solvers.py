import random
import weakref

import pytest

from argudyn import (
    ArgumentationFramework,
    CapExceeded,
    NotAnExtension,
    ProblemInstance,
    ProblemKind,
    Semantics,
    distance,
    enumerate_extensions,
    solve_adjust,
    solve_center,
    solve_instance,
    solve_repair,
    solve_small,
    adjust_instance,
    center_instance,
    repair_instance,
    small_instance,
)
from argudyn import enumeration, firstorder, solvers
from argudyn.core import iter_bits
from argudyn.firstorder import (
    Eq,
    Forall,
    adjust_formula,
    center_formula,
    corrected_repair_formula,
    evaluate,
    small_formula,
    structure_of,
)
from argudyn.solvers import (
    ENGINES,
    check_witness,
    fo_solve_adjust,
    fo_solve_center,
    fo_solve_repair,
    fo_solve_small,
    solve_repair_branching,
)
from conftest import planted_framework, python_calls, random_framework
from oracles import (
    oracle_adjust,
    oracle_center,
    oracle_conflict_free,
    oracle_distance,
    oracle_extensions,
    oracle_repair,
    oracle_small,
    powerset,
)

FO_SIGMAS = (Semantics.ADMISSIBLE, Semantics.COMPLETE, Semantics.STABLE)


def test_small_hand_cases(f1, f2):
    res = solve_small(f1, Semantics.STABLE, 1)
    assert res.answer and res.witness.names == ("a",)
    assert not solve_small(f2, Semantics.ADMISSIBLE, 3).answer
    res2 = solve_small(f1, Semantics.PREFERRED, 2)
    assert res2.answer and res2.witness.names == ("a",)
    with pytest.raises(ValueError):
        solve_small(f1, Semantics.STABLE, -1)


def test_small_requires_nonempty_witness(f2):
    # empty set is admissible everywhere but never a small witness
    for k in (1, 2, 3):
        assert not solve_small(f2, Semantics.ADMISSIBLE, k).answer


def test_repair_hand_cases(f1, f4):
    # distance 0: the set itself is stable
    res = solve_repair(f1, f1.set_of(["a"]), Semantics.STABLE, 0)
    assert res.answer and res.witness.names == ("a",)
    # swapping sides costs 2
    assert not solve_repair(f1, f1.set_of(["a"]), Semantics.STABLE, 1).answer or (
        solve_repair(f1, f1.set_of(["a"]), Semantics.STABLE, 1).witness.names
        == ("a",)
    )
    res2 = solve_repair(f4, f4.set_of(["a", "b"]), Semantics.STABLE, 2)
    assert res2.answer
    assert distance(res2.witness, f4.set_of(["a", "b"])) <= 2
    # repairing the empty set is exactly the small question
    res3 = solve_repair(f4, f4.empty_set(), Semantics.STABLE, 2)
    assert res3.answer and len(res3.witness) == 2


def test_adjust_hand_cases(f1, f3):
    # drop the target to reach the empty admissible set
    res = solve_adjust(f3, f3.set_of(["a", "c"]), "a", Semantics.ADMISSIBLE, 2)
    assert res.answer and res.witness.names == ()
    # the same instance with nonempty witnesses required has none
    assert not solve_adjust(
        f3, f3.set_of(["a", "c"]), "a", Semantics.ADMISSIBLE, 2,
        require_nonempty=True,
    ).answer
    # k=0 leaves no room to toggle anything
    assert not solve_adjust(f1, f1.set_of(["a"]), "b", Semantics.STABLE, 0).answer
    res2 = solve_adjust(f1, f1.set_of(["a"]), "b", Semantics.STABLE, 2)
    assert res2.answer and res2.witness.names == ("b",)


def test_adjust_validates_start_extension(f1):
    with pytest.raises(NotAnExtension):
        solve_adjust(f1, f1.full_set(), "a", Semantics.ADMISSIBLE, 1)


def test_center_hand_cases(f1, f4):
    res = solve_center(
        f4, f4.set_of(["a", "c"]), f4.set_of(["b", "d"]), Semantics.STABLE
    )
    assert res.answer
    w = res.witness
    assert distance(w, f4.set_of(["a", "c"])) < 4
    assert distance(w, f4.set_of(["b", "d"])) < 4
    # endpoints at distance 2 have no strict midpoint
    assert not solve_center(
        f1, f1.set_of(["a"]), f1.set_of(["b"]), Semantics.STABLE
    ).answer
    # coinciding endpoints: distance 0 admits nothing strictly closer
    assert not solve_center(
        f1, f1.set_of(["a"]), f1.set_of(["a"]), Semantics.STABLE
    ).answer


def test_center_validates_endpoints(f4):
    with pytest.raises(NotAnExtension):
        solve_center(
            f4, f4.set_of(["a", "b"]), f4.set_of(["b", "d"]), Semantics.STABLE
        )


def test_center_empty_witness_default(f3):
    # E1={a,c}, E2=∅ both admissible, distance 2; ∅ itself is not strictly
    # closer to E2 than... distance(∅,E2)=0 < 2 and distance(∅,E1)=2 is not
    # < 2, so the only candidates sit at distance 1 from E1.
    res = solve_center(f3, f3.set_of(["a", "c"]), f3.empty_set(),
                       Semantics.ADMISSIBLE)
    assert res.answer and res.witness.names == ("a",)


def _random_set(rng, af):
    return af.set_from_mask(rng.randrange(1 << af.n))


def test_delta_answers_match_oracle():
    rng = random.Random(2024)
    for _ in range(60):
        af = random_framework(rng, rng.randint(1, 6))
        sigma = rng.choice(list(Semantics))
        k = rng.randint(0, 3)
        args, attacks = af.arguments, set(af.attacks)
        want_small = bool(oracle_small(args, attacks, sigma.value, max(k, 1)))
        assert solve_small(af, sigma, max(k, 1)).answer == want_small
        s = _random_set(rng, af)
        want_rep = bool(
            oracle_repair(args, attacks, sigma.value, frozenset(s.names), k)
        )
        assert solve_repair(af, s, sigma, k).answer == want_rep
        exts = list(enumerate_extensions(af, sigma))
        if exts:
            e0 = rng.choice(exts)
            target = rng.choice(af.arguments)
            want_adj = bool(
                oracle_adjust(
                    args, attacks, sigma.value, frozenset(e0.names), target, k
                )
            )
            assert solve_adjust(af, e0, target, sigma, k).answer == want_adj
            e1, e2 = rng.choice(exts), rng.choice(exts)
            want_cen = bool(
                oracle_center(
                    args, attacks, sigma.value,
                    frozenset(e1.names), frozenset(e2.names),
                )
            )
            assert solve_center(af, e1, e2, sigma).answer == want_cen


def _canonical(af, anchor, witnesses):
    """The least oracle witness under the delta key: distance to the
    anchor, then size, then argument indices."""
    return min(
        witnesses,
        key=lambda e: (
            oracle_distance(e, anchor),
            len(e),
            tuple(sorted(af.index_of(x) for x in e)),
        ),
        default=None,
    )


def test_delta_witnesses_are_canonical():
    rng = random.Random(4242)
    for _ in range(120):
        af = random_framework(rng, rng.randint(1, 7))
        args, attacks = af.arguments, set(af.attacks)
        for sigma in Semantics:
            k = rng.randint(0, 3)
            s = _random_set(rng, af)
            cases = [
                (solve_small(af, sigma, k), frozenset(),
                 oracle_small(args, attacks, sigma.value, k)),
                (solve_repair(af, s, sigma, k), frozenset(s.names),
                 oracle_repair(args, attacks, sigma.value, frozenset(s.names), k)),
            ]
            exts = list(enumerate_extensions(af, sigma))
            if exts:
                e0, e1, e2 = (rng.choice(exts) for _ in range(3))
                target = rng.choice(af.arguments)
                n0, n1, n2 = (frozenset(e.names) for e in (e0, e1, e2))
                for nonempty in (False, True):
                    cases += [
                        (solve_adjust(af, e0, target, sigma, k,
                                      require_nonempty=nonempty), n0,
                         oracle_adjust(args, attacks, sigma.value, n0, target,
                                       k, nonempty)),
                        (solve_center(af, e1, e2, sigma,
                                      require_nonempty=nonempty), n1,
                         oracle_center(args, attacks, sigma.value, n1, n2,
                                       nonempty)),
                    ]
            for res, anchor, witnesses in cases:
                got = frozenset(res.witness.names) if res.answer else None
                assert got == _canonical(af, anchor, witnesses)


def _walked_sets(af, kind, rng, sigma):
    """A seeded question of the given kind, as (delta result, the predicate
    on oracle sets that picks the change sets its walk visits)."""
    k = rng.randint(0, 3)
    if kind == "small":
        return solve_small(af, sigma, k), lambda e: 1 <= len(e) <= k
    if kind == "repair":
        s = frozenset(_random_set(rng, af).names)
        res = solve_repair(af, af.set_of(s), sigma, k)
        return res, lambda e: oracle_distance(e, s) <= k
    exts = list(enumerate_extensions(af, sigma))
    if not exts:
        return None, None
    if kind == "adjust":
        e0, target = rng.choice(exts), rng.choice(af.arguments)
        n0 = frozenset(e0.names)
        res = solve_adjust(af, e0, target, sigma, k)
        return res, lambda e: target in e ^ n0 and oracle_distance(e, n0) <= k
    e1, e2 = rng.choice(exts), rng.choice(exts)
    n1, n2 = frozenset(e1.names), frozenset(e2.names)
    d = oracle_distance(n1, n2)
    res = solve_center(af, e1, e2, sigma)
    return res, lambda e: oracle_distance(e, n1) < d and oracle_distance(e, n2) < d


def test_delta_walks_only_conflict_free_change_sets(monkeypatch):
    seen = []
    member = solvers.sigma_member_mask

    def recording(af, mask, *rest):
        seen.append((af, mask))
        return member(af, mask, *rest)

    monkeypatch.setattr(solvers, "sigma_member_mask", recording)
    rng = random.Random(5150)
    no_cases = dict.fromkeys(("small", "repair", "adjust", "center"), 0)
    for _ in range(120):
        af = random_framework(rng, rng.randint(1, 7))
        attacks = set(af.attacks)
        for sigma in Semantics:
            for kind in no_cases:
                res, walked = _walked_sets(af, kind, rng, sigma)
                if res is None or res.answer:
                    continue
                no_cases[kind] += 1
                want = sum(
                    1 for e in powerset(af.arguments)
                    if walked(e) and oracle_conflict_free(attacks, e)
                )
                assert res.stats.candidates == want, (af, sigma, kind)
    assert min(no_cases.values()) >= 100, no_cases
    assert seen and all(
        oracle_conflict_free(af.attacks, af.set_from_mask(mask).names)
        for af, mask in seen
    )
    # with every argument attacking itself, only the empty set is
    # conflict-free, and these walks never reach it
    selfish = ArgumentationFramework(("a", "b", "c"), [(x, x) for x in "abc"])
    everyone = selfish.set_of("abc")
    for res in (
        solve_small(selfish, Semantics.ADMISSIBLE, 3),
        solve_repair(selfish, everyone, Semantics.ADMISSIBLE, 2),
        solve_adjust(selfish, selfish.set_of([]), "b", Semantics.ADMISSIBLE, 3),
    ):
        assert not res.answer and res.stats.candidates == 0


def _witness_is_valid(af, instance_kind, res, sigma, **kw):
    w = frozenset(res.witness.names)
    args, attacks = af.arguments, set(af.attacks)
    assert w in oracle_extensions(args, attacks, sigma.value)
    if instance_kind == "small":
        assert 0 < len(w) <= kw["k"]
    elif instance_kind == "repair":
        assert w and oracle_distance(w, kw["s"]) <= kw["k"]
    elif instance_kind == "adjust":
        assert oracle_distance(w, kw["e0"]) <= kw["k"]
        assert kw["target"] in (w ^ kw["e0"])
    else:
        d = oracle_distance(kw["e1"], kw["e2"])
        assert oracle_distance(w, kw["e1"]) < d
        assert oracle_distance(w, kw["e2"]) < d


def test_three_engines_agree_with_verified_witnesses():
    rng = random.Random(777)
    for _ in range(40):
        af = random_framework(rng, rng.randint(1, 6))
        sigma = rng.choice(FO_SIGMAS)
        k = rng.randint(0, 3)
        args, attacks = af.arguments, set(af.attacks)

        d_small = solve_small(af, sigma, max(k, 1))
        f_small = fo_solve_small(af, sigma, max(k, 1))
        assert d_small.answer == f_small.answer
        for res in (d_small, f_small):
            if res.answer:
                _witness_is_valid(af, "small", res, sigma, k=max(k, 1))

        s = _random_set(rng, af)
        d_rep = solve_repair(af, s, sigma, k)
        b_rep = solve_repair_branching(af, s, sigma, k)
        f_rep = fo_solve_repair(af, s, sigma, k)
        assert d_rep.answer == b_rep.answer == f_rep.answer
        for res in (d_rep, b_rep, f_rep):
            if res.answer:
                _witness_is_valid(
                    af, "repair", res, sigma, s=frozenset(s.names), k=k
                )

        exts = list(enumerate_extensions(af, sigma))
        if not exts:
            continue
        e0 = rng.choice(exts)
        target = rng.choice(af.arguments)
        d_adj = solve_adjust(af, e0, target, sigma, k)
        f_adj = fo_solve_adjust(af, e0, target, sigma, k)
        assert d_adj.answer == f_adj.answer
        for res in (d_adj, f_adj):
            if res.answer:
                _witness_is_valid(
                    af, "adjust", res, sigma,
                    e0=frozenset(e0.names), target=target, k=k,
                )

        e1, e2 = rng.choice(exts), rng.choice(exts)
        d_cen = solve_center(af, e1, e2, sigma)
        f_cen = fo_solve_center(af, e1, e2, sigma)
        assert d_cen.answer == f_cen.answer
        for res in (d_cen, f_cen):
            if res.answer:
                _witness_is_valid(
                    af, "center", res, sigma,
                    e1=frozenset(e1.names), e2=frozenset(e2.names),
                )


def test_fo_engine_answers_its_closed_sentences():
    # the engine scans the bodies of the sentences, so its answer is the
    # truth of the closed sentence in the instance structure
    rng = random.Random(4711)
    seen = set()
    for _ in range(80):
        af = random_framework(rng, rng.randint(1, 5))
        sigma = rng.choice(FO_SIGMAS)
        k = rng.randint(1, 3)
        s = _random_set(rng, af)
        cases = [
            (small_instance(af, sigma, k), small_formula(sigma, k), {}),
            (repair_instance(af, s, sigma, k - 1),
             corrected_repair_formula(sigma, k - 1), {"S": s}),
        ]
        exts = list(enumerate_extensions(af, sigma))
        if exts:
            e0, target = rng.choice(exts), rng.choice(af.arguments)
            cases.append((adjust_instance(af, e0, target, sigma, k),
                          adjust_formula(sigma, k), {"E0": e0, "T": (target,)}))
            e1, e2 = rng.choice(exts), rng.choice(exts)
            if 2 <= distance(e1, e2) <= 3:
                cases.append((center_instance(af, e1, e2, sigma),
                              center_formula(sigma, distance(e1, e2)),
                              {"E1": e1, "E2": e2}))
        for inst, sentence, unary in cases:
            answer = solve_instance(inst, engine="fo", require_nonempty=False).answer
            assert answer == evaluate(structure_of(af, **unary), sentence), inst
            seen.add((inst.kind, answer))
    assert len(seen) == 8  # every problem answered both ways


def test_delta_witness_has_minimal_distance(f4):
    # the reported repair witness sits at the least possible distance
    res = solve_repair(f4, f4.set_of(["a", "c"]), Semantics.STABLE, 4)
    assert res.answer and res.witness.names == ("a", "c")


def test_prf_sem_validation_uses_cap():
    names = tuple(f"x{i}" for i in range(21)) + ("y",)
    attacks = [(n, "y") for n in names if n != "y"]
    big = ArgumentationFramework(names, attacks)
    e_full = big.set_of(names[:-1])
    with pytest.raises(CapExceeded):
        solve_adjust(big, e_full, "y", Semantics.PREFERRED, 1)
    res = solve_adjust(big, e_full, "y", Semantics.PREFERRED, 1, cap=25)
    assert not res.answer


@pytest.mark.parametrize("sigma", [Semantics.PREFERRED, Semantics.SEMI_STABLE])
def test_prf_sem_walk_keeps_cap_gate(sigma):
    # on an odd cycle only the empty set is admissible, so a repair walk
    # finds no candidate to run a maximality check on; it must still refuse
    # a framework over the cap
    names = tuple(f"x{i}" for i in range(21))
    cycle = ArgumentationFramework(
        names, [(names[i], names[(i + 1) % 21]) for i in range(21)]
    )
    with pytest.raises(CapExceeded):
        solve_repair(cycle, cycle.set_of(["x0"]), sigma, 1)
    with pytest.raises(CapExceeded):
        solve_adjust(cycle, cycle.empty_set(), "x0", sigma, 2)
    with pytest.raises(CapExceeded):
        solve_center(cycle, cycle.empty_set(), cycle.empty_set(), sigma)
    assert not solve_repair(cycle, cycle.set_of(["x0"]), sigma, 1, cap=25).answer


@pytest.mark.parametrize("sigma", [Semantics.PREFERRED, Semantics.SEMI_STABLE])
def test_prf_sem_witness_is_least_maximal_set_of_its_layer(sigma):
    # a <-> d beside the unattacked b and c, repaired from {a, d}.  The first
    # layer with a witness, distance 3, walks {b,c,d}, {a,b,c}, {b}, {c}: all
    # admissible, and only the two larger ones maximal.  The witness is the
    # least of those two, not the least admissible set nor the first found.
    af = ArgumentationFramework(tuple("abcd"), [("a", "d"), ("d", "a")])
    res = solve_repair(af, af.set_of(["a", "d"]), sigma, 3)
    assert res.answer and res.witness.names == ("a", "b", "c")
    assert not solve_repair(af, af.set_of(["a", "d"]), sigma, 2).answer


def test_solve_instance_dispatch(f1):
    inst = small_instance(f1, Semantics.STABLE, 1)
    assert solve_instance(inst).answer
    assert solve_instance(inst, engine="fo").answer
    with pytest.raises(ValueError):
        solve_instance(inst, engine="quantum")
    with pytest.raises(ValueError):
        solve_instance(inst, engine="branching")
    rep = repair_instance(f1, f1.set_of(["a"]), Semantics.ADMISSIBLE, 1)
    assert solve_instance(rep, engine="branching").answer
    adj = adjust_instance(f1, f1.set_of(["a"]), "a", Semantics.ADMISSIBLE, 1)
    assert solve_instance(adj).answer
    assert solve_instance(adj, engine="fo").answer
    cen = center_instance(f1, f1.set_of(["a"]), f1.set_of(["b"]), Semantics.STABLE)
    assert not solve_instance(cen).answer
    assert not solve_instance(cen, engine="fo").answer
    # both engines honour require_nonempty
    one = ArgumentationFramework(("a",), [])
    two = ArgumentationFramework(("a", "b"), [])
    for inst, want in (
        (adjust_instance(one, one.set_of(["a"]), "a", Semantics.ADMISSIBLE, 1),
         None),
        (center_instance(two, two.set_of(["a"]), two.set_of(["b"]),
                         Semantics.ADMISSIBLE), ("a", "b")),
    ):
        for engine in ("delta", "fo"):
            res = solve_instance(inst, engine=engine, require_nonempty=True)
            assert (res.witness.names if res.answer else None) == want
    # small and repair witnesses are never empty, so the flag changes nothing
    for inst in (small_instance(two, Semantics.ADMISSIBLE, 1),
                 repair_instance(two, two.empty_set(), Semantics.ADMISSIBLE, 1)):
        for engine in ("delta", "fo"):
            plain = solve_instance(inst, engine=engine)
            flagged = solve_instance(inst, engine=engine, require_nonempty=True)
            assert plain.answer and flagged.witness == plain.witness
    # every engine rejects a negative budget
    ab = ArgumentationFramework(("a", "b"), [("a", "b")])
    a = ab.set_of(["a"])
    sigma = Semantics.ADMISSIBLE
    for call in (
        lambda: solve_small(ab, sigma, -1),
        lambda: solve_repair(ab, a, sigma, -1),
        lambda: solve_adjust(ab, a, "b", sigma, -1),
        lambda: solve_repair_branching(ab, a, sigma, -1),
        lambda: fo_solve_small(ab, sigma, -1),
        lambda: fo_solve_repair(ab, a, sigma, -1),
        lambda: fo_solve_adjust(ab, a, "b", sigma, -1),
    ):
        with pytest.raises(ValueError, match="k must be nonnegative"):
            call()


@pytest.mark.parametrize("k", [1.5, True, "2"])
def test_every_entry_refuses_a_k_that_is_not_an_int(k):
    # each refuses it with the one message of the instance constructors, and
    # so does solve_instance, given an instance built past them
    ab = ArgumentationFramework(("a", "b"), [("a", "b")])
    a = ab.set_of(["a"])
    sigma = Semantics.ADMISSIBLE
    calls = [
        lambda: solve_small(ab, sigma, k),
        lambda: solve_repair(ab, a, sigma, k),
        lambda: solve_adjust(ab, a, "b", sigma, k),
        lambda: solve_repair_branching(ab, a, sigma, k),
        lambda: fo_solve_small(ab, sigma, k),
        lambda: fo_solve_repair(ab, a, sigma, k),
        lambda: fo_solve_adjust(ab, a, "b", sigma, k),
    ]
    for kind, sets in (
        (ProblemKind.SMALL, {}),
        (ProblemKind.REPAIR, {"s": a}),
        (ProblemKind.ADJUST, {"e0": a, "target": "b"}),
    ):
        inst = ProblemInstance(kind, ab, sigma, k=k, **sets)
        for engine in ENGINES:
            if engine != "branching" or kind is ProblemKind.REPAIR:
                calls.append(lambda i=inst, e=engine: solve_instance(i, e))
    messages = set()
    for call in calls:
        with pytest.raises(ValueError, match="k must be nonnegative") as raised:
            call()
        messages.add(str(raised.value))
    assert messages == {f"k must be nonnegative, as an int; got {k!r}"}


@pytest.mark.parametrize("bad", [["a"], None])
def test_every_entry_refuses_a_set_that_is_not_an_argument_set(bad):
    ab = ArgumentationFramework(("a", "b"), [("a", "b")])
    a = ab.set_of(["a"])
    sigma = Semantics.ADMISSIBLE
    for call in (
        lambda: solve_repair(ab, bad, sigma, 1),
        lambda: solve_adjust(ab, bad, "b", sigma, 1),
        lambda: solve_center(ab, bad, a, sigma),
        lambda: solve_center(ab, a, bad, sigma),
        lambda: solve_repair_branching(ab, bad, sigma, 1),
        lambda: fo_solve_repair(ab, bad, sigma, 1),
        lambda: fo_solve_adjust(ab, bad, "b", sigma, 1),
        lambda: fo_solve_center(ab, a, bad, sigma),
        lambda: distance(a, bad),
        lambda: a | bad,
    ):
        with pytest.raises(ValueError, match="does not belong to this framework"):
            call()


def test_every_entry_refuses_an_unhashable_target():
    ab = ArgumentationFramework(("a", "b"), [("a", "b")])
    a = ab.set_of(["a"])
    sigma = Semantics.ADMISSIBLE
    for call in (
        lambda: ab.index_of(["a"]),
        lambda: adjust_instance(ab, a, ["a"], sigma, 1),
        lambda: solve_adjust(ab, a, ["a"], sigma, 1),
        lambda: fo_solve_adjust(ab, a, ["a"], sigma, 1),
    ):
        with pytest.raises(ValueError, match=r"unknown argument \['a'\]"):
            call()


@pytest.mark.parametrize("engine", ["branching", "fo"])
def test_only_the_delta_engine_takes_a_cap(f1, engine):
    rep = repair_instance(f1, f1.set_of(["a"]), Semantics.ADMISSIBLE, 1)
    with pytest.raises(ValueError, match=f"the {engine} engine takes no cap"):
        solve_instance(rep, engine=engine, cap=-3)
    assert solve_instance(rep, engine=engine).answer


def test_dispatch_calls_the_solvers_module_attributes(monkeypatch, f1):
    # perfbench/tracing.py counts engine runs, membership checks and
    # maximality searches by wrapping these attributes; a dispatch table
    # bound at import would bypass its wrappers
    engines = (
        "solve_small", "solve_repair", "solve_adjust", "solve_center",
        "solve_repair_branching", "fo_solve_small", "fo_solve_repair",
        "fo_solve_adjust", "fo_solve_center",
    )
    members = ("adm_mask", "com_mask", "stb_mask", "preferred_mask",
               "semistable_mask")
    reached = set()

    def spy(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            reached.add(f"{module.__name__}.{name}")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in engines + members:
        spy(solvers, name)
    spy(enumeration, "adm_mask")
    a = f1.set_of(["a"])
    sigma = Semantics.ADMISSIBLE
    rep = repair_instance(f1, a, sigma, 1)
    for engine in ("delta", "fo"):
        for inst in (
            small_instance(f1, sigma, 1),
            rep,
            adjust_instance(f1, a, "a", sigma, 1),
            center_instance(f1, a, f1.set_of(["b"]), sigma),
        ):
            solve_instance(inst, engine=engine)
    solve_instance(rep, engine="branching")
    for member_sigma in Semantics:
        solvers.sigma_member_mask(f1, a.mask, member_sigma)
    assert reached == {
        *(f"argudyn.solvers.{name}" for name in engines + members),
        "argudyn.enumeration.adm_mask",
    }


def test_fo_adjust_and_center_take_no_cap(f1):
    a = f1.set_of(["a"])
    sigma = Semantics.ADMISSIBLE
    with pytest.raises(TypeError):
        fo_solve_adjust(f1, a, "a", sigma, 1, None)
    with pytest.raises(TypeError):
        fo_solve_center(f1, a, f1.set_of(["b"]), sigma, None)
    res = fo_solve_adjust(f1, a, "a", sigma, 2, require_nonempty=True)
    assert res.witness.names == ("b",)


def test_fo_adjust_tries_only_nondecreasing_tuples():
    # only the target a0 attacks itself, so no admissible set flips it in
    # from E0 = {}: the scan walks the layers d = 0..k-1 and tries each
    # strictly increasing d-tuple of the nine other arguments once, C(9, d)
    # of them; no try holds the target
    names = [f"a{i}" for i in range(10)]
    af = ArgumentationFramework(names, [("a0", "a0")])
    for k, tuples in ((1, 1), (2, 1 + 9), (3, 1 + 9 + 36)):
        res = fo_solve_adjust(af, af.set_of([]), "a0", Semantics.ADMISSIBLE, k)
        assert not res.answer
        assert res.stats.candidates == tuples


def test_fo_center_tries_fewer_flips_outside_than_inside():
    # E1 = {a0} and E2 = {a1} lie 2 apart, so the one layer flips one
    # argument, and it must lie in E1 ^ E2: flipping a2..a9 leaves E2 two
    # away.  Of the two tries, {} is empty and {a0, a1} not conflict-free.
    names = [f"a{i}" for i in range(10)]
    attacks = [("a0", "a1"), ("a1", "a0")] + [(x, x) for x in names[2:]]
    af = ArgumentationFramework(names, attacks)
    e1, e2 = af.set_of(["a0"]), af.set_of(["a1"])
    res = fo_solve_center(af, e1, e2, Semantics.ADMISSIBLE, require_nonempty=True)
    assert not res.answer
    assert res.stats.candidates == 2


def test_fo_center_tries_a_layer_fewest_flips_outside_first():
    # E1 = {a, b} and E2 = {c, d} are stable and lie 4 apart; the one stable
    # center, {x, a, c}, flips b and c inside E1 ^ E2 and x outside it.  The
    # layers d = 1, 2 try their 4 and 6 sets inside; d = 3 tries its 4 sets
    # of three inside, then the pairs inside with x: {b, c} is the 4th pair.
    # Lexicographic order over all five arguments would try {x, b, c} 4th in
    # d = 3, 14 tries in all.
    af = ArgumentationFramework(
        ("x", "a", "b", "c", "d"),
        [("a", "d"), ("d", "a"), ("b", "c"), ("c", "b"), ("b", "d"),
         ("b", "x"), ("d", "x")],
    )
    e1, e2 = af.set_of(["a", "b"]), af.set_of(["c", "d"])
    for nonempty in (False, True):
        res = fo_solve_center(af, e1, e2, Semantics.STABLE, require_nonempty=nonempty)
        assert res.answer and res.witness.names == ("x", "a", "c")
        assert res.stats.candidates == 4 + 6 + (4 + 4)
        assert res.witness == solve_center(af, e1, e2, Semantics.STABLE).witness


def test_fo_center_at_distance_four_to_six_agrees_with_delta_and_the_oracle():
    # E1 and E2 lie 4 to 6 apart, so a layer of d >= 3 flips may take b >= 1
    # arguments outside E1 ^ E2 next to at least b + 1 inside it
    rng = random.Random(2)
    questions, yes, outside = 0, 0, 0
    for _ in range(400):
        af = random_framework(rng, rng.randint(6, 8), 0.1, 0.3)
        args, attacks = af.arguments, set(af.attacks)
        for sigma in FO_SIGMAS:
            # sorted: the oracle's set order follows the hash seed
            exts = sorted(
                oracle_extensions(args, attacks, sigma.value),
                key=lambda e: (len(e), sorted(e)),
            )
            pairs = [
                (p, q) for p in exts for q in exts if 4 <= oracle_distance(p, q) <= 6
            ]
            if not pairs:
                continue
            n1, n2 = rng.choice(pairs)
            e1, e2 = af.set_of(n1), af.set_of(n2)
            for nonempty in (False, True):
                questions += 1
                want = oracle_center(args, attacks, sigma.value, n1, n2, nonempty)
                delta = solve_center(af, e1, e2, sigma, require_nonempty=nonempty)
                fo = fo_solve_center(af, e1, e2, sigma, require_nonempty=nonempty)
                assert fo.answer == delta.answer == bool(want), (af, sigma, n1, n2)
                if not fo.answer:
                    continue
                yes += 1
                w = frozenset(fo.witness.names)
                assert w in want, (af, sigma, n1, n2)
                assert distance(fo.witness, e1) == distance(delta.witness, e1)
                outside += bool((w ^ n1) - (n1 ^ n2))
    assert questions >= 500 and yes >= 400 and outside >= 5, (questions, yes, outside)


def test_fo_rechecks_its_witness(monkeypatch):
    # each body builder patched to an always-true body: the first assignment
    # names the first argument the layer may flip, c (a for center, whose
    # first layer flips only inside E1 ^ E2), and flipping it in the anchor
    # gives a set that is not stable, so the engine raises instead of
    # answering YES
    af = ArgumentationFramework(("c", "a", "b"), [("a", "b"), ("b", "a")])
    stb = Semantics.STABLE
    e1, e2 = af.set_of(["a", "c"]), af.set_of(["b", "c"])
    solves = {
        "small": lambda: fo_solve_small(af, stb, 1),
        "repair": lambda: fo_solve_repair(af, af.set_of([]), stb, 1),
        "adjust": lambda: fo_solve_adjust(af, e1, "b", stb, 1),
        "center": lambda: fo_solve_center(af, e1, e2, stb),
    }

    def always_true(*args, **kwargs):
        return ("x1",), Forall("z", Eq("z", "z"))

    for problem, solve in solves.items():
        with monkeypatch.context() as patch:
            patch.setattr(firstorder, f"{problem}_body", always_true)
            with pytest.raises(NotAnExtension, match=f"fo {problem} .* under stb"):
                solve()
        solve()  # the true bodies pass their check


def test_fo_center_bounds_the_distance_to_e2_strictly():
    # E1 and E2 lie 4 apart.  {x2, x4} is stable and 2 flips from E1, but 4
    # from E2, so it is no center; a bound of k in place of k - 1 takes it
    af = ArgumentationFramework(
        ("x0", "x1", "x2", "x3", "x4"),
        [("x0", "x2"), ("x0", "x3"), ("x1", "x2"), ("x1", "x4"), ("x2", "x0"),
         ("x2", "x1"), ("x3", "x1"), ("x3", "x4"), ("x4", "x3")],
    )
    e1, e2 = af.set_of(["x2", "x3"]), af.set_of(["x0", "x1"])
    stb = Semantics.STABLE
    assert solvers.sigma_member_mask(af, af.set_of(["x2", "x4"]).mask, stb)
    for solve in (solve_center, fo_solve_center):
        assert not solve(af, e1, e2, stb).answer


def test_a_split_rule_that_lets_b_equal_a_is_caught_by_the_witness_check(
    monkeypatch,
):
    # the case above with _splits loosened to let a layer take as many flips
    # outside E1 ^ E2 as inside, and for fo center's body to bound the
    # distance to E2 by k: both engines then reach {x2, x4}, which lies 4
    # from E2, and check_witness refuses it where a membership check alone
    # would answer YES
    af = ArgumentationFramework(
        ("x0", "x1", "x2", "x3", "x4"),
        [("x0", "x2"), ("x0", "x3"), ("x1", "x2"), ("x1", "x4"), ("x2", "x0"),
         ("x2", "x1"), ("x3", "x1"), ("x3", "x4"), ("x4", "x3")],
    )
    e1, e2 = af.set_of(["x2", "x3"]), af.set_of(["x0", "x1"])
    center_body = firstorder.center_body

    def loose_splits(d, inside, outside):
        low = max(d - len(outside), min(d, (d + 1) // 2))
        return range(min(d, len(inside)), low - 1, -1)

    def loose_body(sigma, k, d, require_nonempty=False):
        return center_body(sigma, k + 1, d, require_nonempty)

    monkeypatch.setattr(solvers, "_splits", loose_splits)
    monkeypatch.setattr(firstorder, "center_body", loose_body)
    for engine, solve in (("delta", solve_center), ("fo", fo_solve_center)):
        with pytest.raises(NotAnExtension, match=f"{engine} center .* under stb"):
            solve(af, e1, e2, Semantics.STABLE)


def _oracle_questions(rng, af, sigma, exts):
    """(instance, require_nonempty, oracle witness list) of each problem on
    af under sigma, for both require_nonempty settings."""
    args, attacks, s = af.arguments, set(af.attacks), sigma.value
    ranked = sorted(exts, key=lambda e: (len(e), sorted(e)))
    for nonempty in (False, True):
        for k in (1, 2):
            want = oracle_small(args, attacks, s, k)
            yield small_instance(af, sigma, k), nonempty, want
            start = af.set_from_mask(rng.randrange(1 << af.n))
            want = oracle_repair(args, attacks, s, frozenset(start.names), k)
            yield repair_instance(af, start, sigma, k), nonempty, want
            if ranked:
                e0, t = af.set_of(rng.choice(ranked)), rng.choice(args)
                want = oracle_adjust(
                    args, attacks, s, frozenset(e0.names), t, k, nonempty
                )
                yield adjust_instance(af, e0, t, sigma, k), nonempty, want
        if ranked:
            n1, n2 = rng.choice(ranked), rng.choice(ranked)
            want = oracle_center(args, attacks, s, n1, n2, nonempty)
            e1, e2 = af.set_of(n1), af.set_of(n2)
            yield center_instance(af, e1, e2, sigma), nonempty, want


def test_check_witness_passes_exactly_the_oracle_witnesses():
    # every subset of seeded frameworks of up to 6 arguments, asked as the
    # witness of each problem: the fo and branching check, which scans the
    # set, passes exactly the oracle's witnesses; delta's, which reads the
    # bounds alone, passes exactly the oracle's witnesses among the members
    rng = random.Random(6)
    checks = passes = 0
    for n in range(1, 7):
        for _ in range(4):
            af = random_framework(rng, n)
            subsets = [(m, frozenset(af.set_from_mask(m).names)) for m in range(1 << n)]
            for sigma in FO_SIGMAS:
                exts = oracle_extensions(af.arguments, set(af.attacks), sigma.value)
                for inst, nonempty, want in _oracle_questions(rng, af, sigma, exts):
                    engines = ["fo"]
                    if inst.kind is ProblemKind.REPAIR and nonempty:
                        engines.append("branching")
                    for mask, names in subsets:
                        for engine in engines + ["delta"] * (names in exts):
                            try:
                                check_witness(inst, mask, nonempty, engine)
                                passed = True
                            except NotAnExtension:
                                passed = False
                            assert passed == (names in want), (af, inst, mask, engine)
                            checks += 1
                            passes += passed
    assert checks >= 20_000 and passes >= 1_000, (checks, passes)


def test_fo_center_counts_the_distance_to_e2_in_one_pass():
    # E1 = {} to E2 = all of 10 isolated arguments: {a0} is within 9 of
    # both, and the scan's first assignment names it.  Written as 10 nested
    # Exists, the distance bound took over a minute.
    names = [f"a{i}" for i in range(10)]
    af = ArgumentationFramework(names, [])
    res = fo_solve_center(af, af.set_of([]), af.set_of(names), Semantics.ADMISSIBLE)
    assert res.answer and res.witness.names == ("a0",)
    assert res.stats.candidates == 1


def test_fo_center_tests_membership_before_it_quantifies():
    # E1 = {} to E2 = all of 100 isolated arguments; the first assignment
    # names the model {a0}.  The sentences quantify again only past a
    # member, so deciding them takes a few passes over the arguments: about
    # 5,400 Python calls, where testing membership by equalities inside two
    # quantifiers took 4.2 million.
    names = [f"a{i}" for i in range(100)]
    af = ArgumentationFramework(names, [])
    e1, e2 = af.set_of([]), af.set_of(names)
    res, calls = python_calls(
        lambda: fo_solve_center(af, e1, e2, Semantics.ADMISSIBLE)
    )
    assert res.answer and res.witness.names == ("a0",)
    assert calls < 20_000


def _stable_no_center():
    """A stable NO center on 200 arguments: E1 = {a0, a1} and E2 = {a2, a3}
    lie 4 apart, and a4..a199 each attack themselves."""
    names = [f"a{i}" for i in range(200)]
    attacks = [(a, b) for a in ("a0", "a1") for b in ("a2", "a3")]
    attacks += [(b, a) for a, b in attacks]
    attacks += [(a, x) for a in ("a0", "a2") for x in names[4:]]
    attacks += [(x, x) for x in names[4:]]
    af = ArgumentationFramework(names, attacks)
    return af, af.set_of(["a0", "a1"]), af.set_of(["a2", "a3"])


def test_fo_center_draws_only_the_tuples_it_tries():
    # the layers d = 1..3 try the 1,190 tuples with fewer flips outside
    # E1 ^ E2 than inside.  A solve that walked all 1,333,500 tuples of
    # d = 1..3 and filtered them made 5.7 million Python calls; drawing the
    # tried ones directly takes about 0.3 million.
    af, e1, e2 = _stable_no_center()
    res, calls = python_calls(
        lambda: fo_solve_center(af, e1, e2, Semantics.STABLE)
    )
    assert not res.answer and res.stats.candidates == 1_190
    assert not solve_center(af, e1, e2, Semantics.STABLE).answer
    assert calls < 600_000


def test_fo_center_tests_sigma_before_its_distance_bound():
    # the 1,190 tries of the center above: with the AtMost distance
    # conjunct first, each try passed over all 200 arguments, about 0.3
    # million Python calls; with the sigma test first, a try that fails it
    # stops after a few arguments, about 56,000 calls
    af, e1, e2 = _stable_no_center()
    res, calls = python_calls(
        lambda: fo_solve_center(af, e1, e2, Semantics.STABLE)
    )
    assert not res.answer and res.stats.candidates == 1_190
    assert calls < 120_000, calls


def test_fo_stable_repair_at_400_arguments_walks_neighbour_lists():
    # a planted stable set of a degree-3 framework, less its first two
    # members: the layer d = 2 finds a repair.  With every inner quantifier
    # over all arguments, n = 100 alone took 4.2 million Python calls; with
    # the guarded ones, n = 400 takes about 1.3 million.
    af, planted = planted_framework(random.Random(0), 400)
    s = planted
    for m in list(iter_bits(planted))[:2]:
        s ^= 1 << m
    start = af.set_from_mask(s)
    res, calls = python_calls(
        lambda: fo_solve_repair(af, start, Semantics.STABLE, 2)
    )
    assert res.answer
    assert res.witness == solve_repair(af, start, Semantics.STABLE, 2).witness
    assert calls < 3_000_000


def test_a_cached_layer_program_answers_for_each_structure():
    # one program of repair's stb layer d = 1, run on three structures in
    # turn, twice: each run reads its own structure's universe, rows and
    # masks
    program = solvers._fo_program(firstorder.repair_body, Semantics.STABLE, 1, True)
    assert program is solvers._fo_program(
        firstorder.repair_body, Semantics.STABLE, 1, True
    )
    pair = ArgumentationFramework(("a", "b"), [("a", "b"), ("b", "a")])
    chain = ArgumentationFramework(("a", "b", "c"), [("a", "b"), ("b", "c")])
    runs = (
        (structure_of(pair, S=pair.set_of([])), ({"x1": "a"}, 1)),
        (structure_of(chain, S=chain.set_of(["a"])), ({"x1": "c"}, 3)),
        (structure_of(chain, S=chain.set_of(["b"])), (None, 3)),
    )
    for st, expected in runs * 2:
        tuples = [(i,) for i in range(st.af.n)]
        assert program.first_model(st, tuples) == expected


def test_a_solve_keeps_no_structure_alive(monkeypatch):
    # the cached programs read each structure from their run's environment,
    # so the structure dies with the solve
    refs = []

    def recording(af, **unary):
        st = firstorder.structure_of(af, **unary)
        refs.append(weakref.ref(st))
        return st

    monkeypatch.setattr(solvers, "structure_of", recording)
    pair = ArgumentationFramework(("a", "b"), [("a", "b"), ("b", "a")])
    res = fo_solve_repair(pair, pair.set_of([]), Semantics.STABLE, 1)
    assert res.answer
    assert len(refs) == 1 and refs[0]() is None


def test_instance_parameter_and_validation(f1, f4):
    cen = center_instance(
        f4, f4.set_of(["a", "c"]), f4.set_of(["b", "d"]), Semantics.STABLE
    )
    assert cen.parameter() == 4
    assert small_instance(f1, Semantics.STABLE, 2).parameter() == 2
    with pytest.raises(ValueError):
        small_instance(f1, Semantics.STABLE, -1)
    with pytest.raises(ValueError):
        adjust_instance(f1, f1.set_of(["a"]), "zz", Semantics.STABLE, 1)
    with pytest.raises(ValueError):
        repair_instance(f1, f4.set_of(["a"]), Semantics.STABLE, 1)


def test_stats_are_populated(f1):
    res = solve_small(f1, Semantics.STABLE, 1)
    assert res.stats.candidates >= 1
    assert res.stats.seconds >= 0.0
    b = solve_repair_branching(f1, f1.set_of(["a"]), Semantics.ADMISSIBLE, 1)
    assert b.stats.nodes >= 1


def _pair_beside_a_self_attacker():
    """a and b attack each other; c attacks itself."""
    return ArgumentationFramework(
        ("a", "b", "c"), [("a", "b"), ("b", "a"), ("c", "c")]
    )


@pytest.mark.parametrize("sigma", [Semantics.ADMISSIBLE, Semantics.STABLE])
def test_a_semantics_name_acts_as_its_member(sigma):
    af = _pair_beside_a_self_attacker()
    a = af.set_of(["a"])

    def answers(sigma):
        results = (
            solve_small(af, sigma, 1),
            solve_repair_branching(af, a, sigma, 1),
            fo_solve_small(af, sigma, 1),
        )
        return (
            [e.names for e in enumerate_extensions(af, sigma)],
            [(r.answer, r.witness and r.witness.names) for r in results],
            [solvers.sigma_member_mask(af, m, sigma) for m in range(1 << af.n)],
        )

    assert answers(sigma.value) == answers(sigma)


def test_an_unknown_semantics_name_is_a_value_error():
    af = _pair_beside_a_self_attacker()
    calls = (
        lambda: enumerate_extensions(af, "xyz"),
        lambda: solve_small(af, "xyz", 1),
        lambda: solve_repair_branching(af, af.set_of(["a"]), "xyz", 1),
        lambda: fo_solve_small(af, "xyz", 1),
        lambda: solvers.sigma_member_mask(af, 0, "xyz"),
    )
    for call in calls:
        with pytest.raises(ValueError, match="unknown semantics 'xyz'"):
            call()
