import random
from collections import Counter

import pytest

from argudyn import (
    ArgudynError,
    ArgumentationFramework,
    CapExceeded,
    NotThreeCnfTwo,
    OddK,
    Semantics,
    UnsupportedSemantics,
    cnf,
    distance,
    even_k_duplicate,
    gen_adjust_from_small,
    gen_center_from_small,
    gen_cnf_adjust,
    gen_cnf_center,
    gen_cnf_small,
    gen_mcq_small,
    has_multicolored_clique,
    kpartite,
    max_degree,
    random_kpartite,
    random_three_cnf_two,
    sat_oracle,
    solve_instance,
    solve_small,
)
from argudyn.solvers import sigma_member_mask
from conftest import random_framework
from oracles import brute_multicolored_clique, sat_table

CAP = 200

TRI = kpartite(
    [["v1"], ["v2"], ["v3"]],
    [("v1", "v2"), ("v2", "v3"), ("v1", "v3")],
)
TRI_MINUS = kpartite([["v1"], ["v2"], ["v3"]], [("v1", "v2"), ("v2", "v3")])

UNSAT4 = cnf(4, [(1, 2), (-1, -2), (1, -2), (-1, 2), (3, 4)])
SAT3 = cnf(3, [(1,), (-1, 2), (-2, 3)])


def test_kpartite_validation():
    with pytest.raises(ValueError):
        kpartite([["v"], ["v"]], [])
    with pytest.raises(ValueError):
        kpartite([["a", "b"]], [("a", "b")])
    with pytest.raises(ValueError):
        kpartite([["a"], ["b"]], [("a", "zz")])
    g = TRI
    assert g.k == 3 and g.vertices == ("v1", "v2", "v3")
    assert g.has_edge("v1", "v3") and not TRI_MINUS.has_edge("v1", "v3")
    assert g.canonical_text() == TRI.canonical_text()


def test_three_cnf_two_validation():
    with pytest.raises(NotThreeCnfTwo):
        cnf(4, [(1, 2, 3, 4)])
    with pytest.raises(NotThreeCnfTwo) as err:
        cnf(2, [(1,), (1, 2), (1, -2)])
    assert "1" in str(err.value)
    with pytest.raises(NotThreeCnfTwo):
        cnf(2, [(3,)])
    with pytest.raises(NotThreeCnfTwo):
        cnf(2, [(0,)])
    assert UNSAT4.n == 4 and UNSAT4.m == 5
    assert SAT3.canonical_text() == SAT3.canonical_text()


def test_sat_oracle_and_cap():
    assert not sat_oracle(UNSAT4)
    assert sat_oracle(SAT3)
    assert not sat_oracle(cnf(3, [(1,), (-1, 2), (-2, 3), (-3,)]))
    with pytest.raises(CapExceeded):
        sat_oracle(UNSAT4, cap=3)


def test_sat_oracle_matches_truth_table():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 4)
        f = random_three_cnf_two(rng, n, rng.randint(1, min(6, 4 * n)))
        assert sat_oracle(f) == sat_table(f.n, f.clauses)


def test_clique_search_matches_brute_force():
    rng = random.Random(6)
    for _ in range(40):
        g = random_kpartite(rng, k=rng.choice((2, 3)), max_part_size=3)
        assert has_multicolored_clique(g) == brute_multicolored_clique(
            g.parts, g.edges
        )
    wide = kpartite(
        [["a1", "a2"], ["b1", "b2"], ["c1", "c2"]],
        [("a1", "b1"), ("b1", "c1"), ("a1", "c1")],
    )
    with pytest.raises(CapExceeded):
        has_multicolored_clique(wide, cap=4)
    assert has_multicolored_clique(wide, cap=8)


def test_mcq_gadget_structure():
    out = gen_mcq_small(TRI)
    af = out.instance.framework
    assert af.n == 9  # |V| * k
    assert out.instance.k == 3
    assert out.instance.semantics is Semantics.ADMISSIBLE
    assert out.provenance["generator"] == "mcq-small"
    assert all(name in af.arguments for name in out.name_map.values())
    # choice rows attack each other inside a part, selector rows self-attack
    assert ("y_v1", "y_v1") not in af.attacks
    assert ("z_v1_2", "z_v1_2") in af.attacks
    with pytest.raises(ValueError):
        gen_mcq_small(kpartite([["a"]], []))


def test_mcq_gadget_answers():
    yes = solve_instance(gen_mcq_small(TRI).instance)
    assert yes.answer and yes.witness.names == ("y_v1", "y_v2", "y_v3")
    assert not solve_instance(gen_mcq_small(TRI_MINUS).instance).answer
    # the same verdict under stable semantics
    assert solve_instance(gen_mcq_small(TRI, Semantics.STABLE).instance).answer


def test_even_k_duplicate_doubles_and_preserves_cliques():
    doubled = even_k_duplicate(TRI)
    assert doubled.k == 6
    assert len(doubled.edges) == 15
    assert has_multicolored_clique(doubled)
    rng = random.Random(8)
    for _ in range(25):
        g = random_kpartite(rng, k=rng.choice((2, 3)), max_part_size=2)
        assert has_multicolored_clique(g) == has_multicolored_clique(
            even_k_duplicate(g)
        )


def test_adjust_wrap_structure(f1):
    out = gen_adjust_from_small(f1, 1, Semantics.STABLE)
    af = out.instance.framework
    t = out.name_map["t"]
    assert t == "t" and af.n == 3
    assert out.instance.k == 2
    assert out.instance.target == t
    assert out.instance.e0.names == (t,)
    # the hub fights everything else in both directions
    for x in ("a", "b"):
        assert (t, x) in af.attacks and (x, t) in af.attacks
    # {t} is an extension under every semantics
    for sigma in Semantics:
        assert sigma_member_mask(af, af.mask_of([t]), sigma)


def test_adjust_wrap_answers(f1, f2):
    assert solve_instance(
        gen_adjust_from_small(f1, 1, Semantics.STABLE).instance,
        require_nonempty=True,
    ).answer
    assert not solve_instance(
        gen_adjust_from_small(f2, 2, Semantics.STABLE).instance,
        require_nonempty=True,
    ).answer


def test_adjust_wrap_matches_small_on_seeded_bases():
    rng = random.Random(99)
    for _ in range(30):
        af = random_framework(rng, rng.randint(1, 5))
        k = rng.randint(1, 3)
        for sigma in (
            Semantics.ADMISSIBLE,
            Semantics.COMPLETE,
            Semantics.PREFERRED,
            Semantics.STABLE,
        ):
            want = solve_small(af, sigma, k).answer
            got = solve_instance(
                gen_adjust_from_small(af, k, sigma).instance,
                cap=CAP,
                require_nonempty=True,
            ).answer
            assert got == want, (af, sigma, k)


def test_center_wrap_structure(f1):
    out = gen_center_from_small(f1, 2, Semantics.STABLE)
    inst = out.instance
    af = inst.framework
    assert af.n == 2 + 2 + 4 * 2  # base + hubs + (w, wp, z, zp) per unit
    assert inst.parameter() == 6  # 2k + 2
    assert out.provenance["parameters"]["threshold"] == 5
    assert list(out.provenance["forward_witness_scaffold"]) == ["w_1", "wp_2"]
    assert distance(inst.e1, inst.e2) == 6
    # both endpoints are stable in the wrapped framework
    for e in (inst.e1, inst.e2):
        assert sigma_member_mask(af, e.mask, Semantics.STABLE)
    with pytest.raises(OddK):
        gen_center_from_small(f1, 3)


def test_center_wrap_answers(f1, f2):
    res = solve_instance(
        gen_center_from_small(f1, 2, Semantics.STABLE).instance,
        require_nonempty=True,
    )
    assert res.answer and res.witness.names == ("a", "w_1", "wp_2")
    assert not solve_instance(
        gen_center_from_small(f2, 2, Semantics.STABLE).instance,
        require_nonempty=True,
    ).answer


def test_center_wrap_matches_small_on_seeded_bases():
    rng = random.Random(101)
    for _ in range(20):
        af = random_framework(rng, rng.randint(1, 5))
        k = rng.choice((2, 4))
        for sigma in (
            Semantics.ADMISSIBLE,
            Semantics.COMPLETE,
            Semantics.PREFERRED,
            Semantics.STABLE,
        ):
            want = solve_small(af, sigma, k).answer
            got = solve_instance(
                gen_center_from_small(af, k, sigma).instance,
                cap=CAP,
                require_nonempty=True,
            ).answer
            assert got == want, (af, sigma, k)


def test_wrapped_semistable_can_disagree_with_small():
    # the hub guarantees a stable extension, which under semi-stable
    # semantics can forget the base's stable-less extensions
    af = ArgumentationFramework(("a", "b"), [("b", "b")])
    assert solve_small(af, Semantics.SEMI_STABLE, 1).answer
    adj = solve_instance(
        gen_adjust_from_small(af, 1, Semantics.SEMI_STABLE).instance,
        require_nonempty=True,
    )
    cen = solve_instance(
        gen_center_from_small(af, 2, Semantics.SEMI_STABLE).instance,
        cap=CAP,
        require_nonempty=True,
    )
    assert not adj.answer
    assert not cen.answer
    # the other four semantics stay consistent on the same base
    for sigma in (
        Semantics.ADMISSIBLE,
        Semantics.COMPLETE,
        Semantics.PREFERRED,
        Semantics.STABLE,
    ):
        want = solve_small(af, sigma, 1).answer
        assert (
            solve_instance(
                gen_adjust_from_small(af, 1, sigma).instance,
                require_nonempty=True,
            ).answer
            == want
        )


def test_wrapped_semistable_tracks_stable_small():
    # what the wrapped sem question actually decides on such bases is the
    # nonempty stable small question
    rng = random.Random(113)
    for _ in range(20):
        af = random_framework(rng, rng.randint(1, 4))
        k = rng.randint(1, 2)
        want = solve_small(af, Semantics.STABLE, k).answer
        got = solve_instance(
            gen_adjust_from_small(af, k, Semantics.SEMI_STABLE).instance,
            cap=CAP,
            require_nonempty=True,
        ).answer
        assert got == want, (af, k)


def _cnf_arg_count(n, m):
    return 5 * m + 10 * n - 5


def test_cnf_small_structure():
    out = gen_cnf_small(UNSAT4)
    af = out.instance.framework
    assert af.n == _cnf_arg_count(4, 5)
    assert out.instance.k == 1
    assert out.instance.semantics is Semantics.PREFERRED
    assert max_degree(af) <= 5
    assert out.provenance["max_degree"] <= 5
    for n, m in ((1, 1), (2, 3), (3, 5)):
        formula = random_three_cnf_two(random.Random(n * 10 + m), n, m)
        got = gen_cnf_small(formula).instance.framework.n
        assert got == _cnf_arg_count(n, m)
    with pytest.raises(UnsupportedSemantics):
        gen_cnf_small(UNSAT4, Semantics.ADMISSIBLE)


def test_cnf_small_answers():
    res = solve_instance(gen_cnf_small(UNSAT4).instance, cap=CAP)
    assert res.answer and res.witness.names == ("e",)
    assert not solve_instance(gen_cnf_small(SAT3).instance, cap=CAP).answer
    res_sem = solve_instance(
        gen_cnf_small(UNSAT4, Semantics.SEMI_STABLE).instance, cap=CAP
    )
    assert res_sem.answer


def test_cnf_adjust_answers():
    out = gen_cnf_adjust(UNSAT4)
    assert out.instance.k == 2
    assert out.instance.e0.names == ("t1",)
    assert max_degree(out.instance.framework) <= 5
    res = solve_instance(out.instance, cap=CAP)
    assert res.answer and res.witness.names == ("t2",)
    assert not solve_instance(gen_cnf_adjust(SAT3).instance, cap=CAP).answer
    with pytest.raises(UnsupportedSemantics):
        gen_cnf_adjust(UNSAT4, Semantics.STABLE)


def test_cnf_center_answers():
    out = gen_cnf_center(UNSAT4)
    inst = out.instance
    assert distance(inst.e1, inst.e2) == 6
    assert inst.e1.names == ("t", "w1p", "w2p")
    assert inst.e2.names == ("tp", "w1", "w2")
    assert max_degree(inst.framework) == 5
    res = solve_instance(inst, cap=CAP)
    assert res.answer and res.witness.names == ("w1", "w2p")
    assert not solve_instance(gen_cnf_center(SAT3).instance, cap=CAP).answer
    with pytest.raises(UnsupportedSemantics):
        gen_cnf_center(UNSAT4, Semantics.COMPLETE)


def test_cnf_generators_decide_unsatisfiability():
    rng = random.Random(2718)
    for _ in range(12):
        formula = random_three_cnf_two(rng, rng.randint(1, 3), rng.randint(1, 4))
        unsat = not sat_oracle(formula)
        for gen, nonempty in (
            (gen_cnf_small, True),
            (gen_cnf_adjust, False),
            (gen_cnf_center, False),
        ):
            for sigma in (Semantics.PREFERRED, Semantics.SEMI_STABLE):
                out = gen(formula, sigma)
                assert max_degree(out.instance.framework) <= 5
                got = solve_instance(
                    out.instance, cap=CAP, require_nonempty=nonempty
                ).answer
                assert got == unsat, (formula.canonical_text(), gen, sigma)


def test_random_sources_are_well_formed():
    rng = random.Random(424)
    for _ in range(20):
        g = random_kpartite(rng, k=rng.randint(2, 4), max_part_size=3)
        assert g.k >= 2 and all(len(p) >= 1 for p in g.parts)
        n = rng.randint(1, 5)
        f = random_three_cnf_two(rng, n, rng.randint(1, min(6, 4 * n)))
        assert 1 <= f.m <= 4 * f.n
    with pytest.raises(ValueError):
        random_three_cnf_two(rng, 1, 5)


def test_random_three_cnf_two_places_every_clause_when_tight():
    # 2- and 3-literal clauses must not use up the 4n literal occurrences
    # before all m clauses are placed
    for seed in range(200):
        f = random_three_cnf_two(random.Random(seed), 4, 8)
        assert f.n == 4 and f.m == 8
        occurrences = Counter(lit for clause in f.clauses for lit in clause)
        assert all(1 <= len(clause) <= 3 for clause in f.clauses)
        assert all(0 < abs(lit) <= 4 for lit in occurrences)
        assert max(occurrences.values()) <= 2


def test_gadget_outputs_expose_valid_name_maps():
    for out in (
        gen_mcq_small(TRI),
        gen_adjust_from_small(
            ArgumentationFramework(("a",), [("a", "a")]), 1
        ),
        gen_cnf_small(SAT3),
    ):
        af = out.instance.framework
        for name in out.name_map.values():
            assert name in af.arguments
        assert "generator" in out.provenance
        assert "source_digest" in out.provenance


def test_fresh_names_avoid_collisions():
    base = ArgumentationFramework(("t", "t_2"), [("t", "t_2"), ("t_2", "t")])
    out = gen_adjust_from_small(base, 1, Semantics.STABLE)
    hub = out.name_map["t"]
    assert hub not in ("t", "t_2")
    assert out.instance.framework.n == 3
    res = solve_instance(out.instance, require_nonempty=True)
    assert res.answer
