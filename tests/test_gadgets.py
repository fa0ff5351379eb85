import hashlib
import json
import random
from collections import Counter

import pytest

from argudyn import (
    ArgudynError,
    ArgumentationFramework,
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
    kpartite,
    max_degree,
    random_kpartite,
    random_three_cnf_two,
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
    assert brute_multicolored_clique(doubled.parts, doubled.edges)
    rng = random.Random(8)
    for _ in range(25):
        g = random_kpartite(rng, k=rng.choice((2, 3)), max_part_size=2)
        doubled = even_k_duplicate(g)
        assert brute_multicolored_clique(g.parts, g.edges) == (
            brute_multicolored_clique(doubled.parts, doubled.edges)
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
        unsat = not sat_table(formula.n, formula.clauses)
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


COLLIDING_BASE = ArgumentationFramework(
    ("t", "t_2"), [("t", "t_2"), ("t_2", "t")]
)

# sha256 of each output's canonical JSON: a generator that changes any
# argument, attack, instance field, provenance entry or name mapping
# changes its digest
PINNED_OUTPUTS = {
    "mcq TRI adm": (
        "01caf1ef2909e9437980d02e880f396571e1e89250c38f3f981adac8148e5ca8"
    ),
    "mcq TRI stb": (
        "82c045f569fdf33edde71e8df2e5711aa4c20bf016001fd6277a0ed6714e81e5"
    ),
    "mcq TRI_MINUS adm": (
        "74a6bd565292b98b4c2f56367707414ff6c6991b9c2e00cbdd4eeb1799ffd6f3"
    ),
    "mcq TRI_MINUS stb": (
        "5c89a3189294007bcf6b2e13cc37e633796085fa0028603ba9f79223d9799f8f"
    ),
    "gen_cnf_small UNSAT4 prf": (
        "f2f884e41402006d5702bce3a89158fa06187ce6849bbdc50e3b565099cd434c"
    ),
    "gen_cnf_small UNSAT4 sem": (
        "fbd4b52507af72072412cec4593820e955fae1af1eb93d908055a59a9208c045"
    ),
    "gen_cnf_adjust UNSAT4 prf": (
        "71dd343566c03a0fdbfa184914bc9042cf9e4085caa5a759f14a872c69aed8ad"
    ),
    "gen_cnf_adjust UNSAT4 sem": (
        "c42b086d66a59ae9ff11aa1e2eaba8965ebf4498d81916b908ff0abee3c90c46"
    ),
    "gen_cnf_center UNSAT4 prf": (
        "37aee9255ad9e3714e9215bf64da704e3afad5ed5aaa2362b2c12c761f3d9ff9"
    ),
    "gen_cnf_center UNSAT4 sem": (
        "37d0ac47eff59b683fe3e3e9dd868b8a01883b580aae445491e6d59a15dba74c"
    ),
    "gen_cnf_small SAT3 prf": (
        "5c80bbf8a887c8d001ecaa3eeb02e79fb806116c0a68d63a278a8aafe5ebe5ed"
    ),
    "gen_cnf_small SAT3 sem": (
        "84f992f49fd0d704699c65f969696a9443c9a3bce6f6801f68867698e7c7b4d3"
    ),
    "gen_cnf_adjust SAT3 prf": (
        "bb7a6616f5f12dcc47ff7cbf9e679d2f5ea47041290c1e55bb0679e358fda85f"
    ),
    "gen_cnf_adjust SAT3 sem": (
        "64d7a01cc26e3f24344d412f765763d2f38dd8bad04656a0e9e1fc00e738ea97"
    ),
    "gen_cnf_center SAT3 prf": (
        "76527f9b9b9edd4299a786b6a52fa55531506cc3d2e98e8ef788fe0694f7248e"
    ),
    "gen_cnf_center SAT3 sem": (
        "9b06440a799659c1aaaf6c1d97404cb3a7cbee67a427ff313827a7ebfc20c273"
    ),
    "adjust f1": (
        "920cfbc3a3d121aa0c33600eef667816e0efb150c6aac58080796e50d6853ba1"
    ),
    "center f1": (
        "cdaaa7ed05de1eccecc4943d5e65b558c8152c9523e74ac9eb1634e96a06e6c1"
    ),
    "adjust colliding": (
        "610ff063b74de8d56d9eb7bc55fee8b9bd8fe06aa7dc7632050af2f66d5518be"
    ),
    "center colliding": (
        "99bf54baeab4d357c0911d90d76ab0ccd843deed2dac987ded6a456037c0e5bc"
    ),
}


def _output_digest(out):
    inst = out.instance
    sets = {
        key: list(getattr(inst, key).names)
        for key in ("s", "e0", "e1", "e2")
        if getattr(inst, key) is not None
    }
    record = {
        "arguments": list(inst.framework.arguments),
        "attacks": [list(pair) for pair in inst.framework.sorted_attacks()],
        "provenance": out.provenance,
        "name_map": out.name_map,
        "kind": inst.kind.value,
        "semantics": inst.semantics.value,
        "parameter": inst.parameter(),
        "target": inst.target,
        "sets": sets,
    }
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_generator_outputs_are_unchanged(f1):
    outputs = {}
    for label, g in (("TRI", TRI), ("TRI_MINUS", TRI_MINUS)):
        for sigma in (Semantics.ADMISSIBLE, Semantics.STABLE):
            outputs[f"mcq {label} {sigma.value}"] = gen_mcq_small(g, sigma)
    for label, formula in (("UNSAT4", UNSAT4), ("SAT3", SAT3)):
        for gen in (gen_cnf_small, gen_cnf_adjust, gen_cnf_center):
            for sigma in (Semantics.PREFERRED, Semantics.SEMI_STABLE):
                key = f"{gen.__name__} {label} {sigma.value}"
                outputs[key] = gen(formula, sigma)
    for label, base in (("f1", f1), ("colliding", COLLIDING_BASE)):
        outputs[f"adjust {label}"] = gen_adjust_from_small(
            base, 1, Semantics.STABLE
        )
        outputs[f"center {label}"] = gen_center_from_small(
            base, 2, Semantics.STABLE
        )
    digests = {key: _output_digest(out) for key, out in outputs.items()}
    assert digests == PINNED_OUTPUTS


def test_fresh_names_avoid_collisions():
    out = gen_adjust_from_small(COLLIDING_BASE, 1, Semantics.STABLE)
    hub = out.name_map["t"]
    assert hub not in ("t", "t_2")
    assert out.instance.framework.n == 3
    res = solve_instance(out.instance, require_nonempty=True)
    assert res.answer
