"""Tests of the benchmark's reference checks: each one accepts a known
answer and rejects it with one bit flipped.

    python3 -m pytest perfbench
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
from checks import Graph, Oracle, Question  # noqa: E402

# a -> b -> c, d <-> e: complete {a,c}, {a,c,d}, {a,c,e}; the last two are stable
CHAIN = Graph("abcde", [("a", "b"), ("b", "c"), ("d", "e"), ("e", "d")])
ACD = CHAIN.mask("acd")


def flips(mask, n):
    return [mask ^ 1 << i for i in range(n)]


def test_membership_checks_accept_the_extension():
    for check in (checks.conflict_free, checks.admissible, checks.complete, checks.stable):
        assert check(CHAIN, ACD)


def test_conflict_free_rejects_an_added_attacker():
    assert not checks.conflict_free(CHAIN, ACD | CHAIN.mask("b"))
    assert not checks.conflict_free(CHAIN, ACD | CHAIN.mask("e"))


def test_admissible_rejects_a_dropped_defender():
    assert not checks.admissible(CHAIN, ACD ^ CHAIN.mask("a"))


def test_complete_rejects_a_dropped_defended_member():
    assert checks.admissible(CHAIN, ACD ^ CHAIN.mask("c"))
    assert not checks.complete(CHAIN, ACD ^ CHAIN.mask("c"))


def test_stable_rejects_every_single_flip():
    assert not any(checks.stable(CHAIN, m) for m in flips(ACD, CHAIN.n))


def test_truth_table_model_breaks_under_a_flip():
    clauses = [(1,), (-1, 2), (-2, 3)]
    model = checks.satisfying_assignment(3, clauses)
    assert model == 0b111 and checks.satisfies(clauses, model)
    assert not any(checks.satisfies(clauses, m) for m in flips(model, 3))
    assert checks.satisfying_assignment(1, [(1,), (-1,)]) is None


def test_random_cnf_respects_the_occurrence_cap():
    rng = random.Random(0)
    for n in (2, 3, 4):
        for m in range(1, 2 * n + 1):
            clauses = checks.random_cnf_two(rng, n, m)
            lits = [lit for c in clauses for lit in c]
            assert len(clauses) == m and all(1 <= len(c) <= 3 for c in clauses)
            assert all(lits.count(lit) <= 2 for lit in lits)


def test_oracle_witness_breaks_under_a_flip():
    oracle = Oracle.of(CHAIN)
    assert oracle.extensions["stb"] == sorted([ACD, CHAIN.mask("ace")])
    q = Question("repair", "com", k=1, s=CHAIN.mask("ad"), nonempty=True)
    assert oracle.answer(q) and oracle.is_witness(q, ACD)
    assert not any(oracle.is_witness(q, m) for m in flips(ACD, CHAIN.n))


def test_oracle_answers_follow_the_bounds():
    oracle = Oracle.of(CHAIN)
    assert oracle.answer(Question("small", "adm", k=1, nonempty=True))
    assert not oracle.answer(Question("small", "com", k=1, nonempty=True))
    center = Question("center", "stb", s=ACD, s2=CHAIN.mask("ace"))
    assert not oracle.answer(center)  # distance 2 leaves no room in between
    single = Oracle.of(Graph("a", []))
    adjust = Question("adjust", "adm", k=1, s=1, target=0)
    assert oracle.answer(Question("adjust", "adm", k=1, s=ACD, target=3))
    assert single.answer(adjust) and single.is_witness(adjust, 0)
    assert not single.answer(Question("adjust", "adm", k=1, s=1, target=0, nonempty=True))


def test_planted_set_is_stable_and_breaks_under_a_flip():
    names, attacks, planted = checks.planted_stable(random.Random(1), 300)
    g = Graph(names, attacks)
    assert g.max_degree() <= 3 and checks.stable(g, planted)
    assert not any(checks.stable(g, m) for m in flips(planted, g.n))


def test_framework_files_round_trip():
    names, attacks, _ = checks.planted_stable(random.Random(2), 50)
    for read, write in ((checks.read_apx, checks.write_apx),
                        (checks.read_tgf, checks.write_tgf)):
        g = read(write(names, attacks))
        assert g.names == names and g.attacks == Graph(names, attacks).attacks
