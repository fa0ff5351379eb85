import hashlib
import random

import pytest

from argudyn import (
    ArgumentationFramework,
    NotAnExtension,
    Semantics,
    UnsupportedSemantics,
    distance,
    solve_repair,
    solve_small,
)
from argudyn import core, solvers
from argudyn.core import iter_bits
from argudyn.solvers import sigma_member_mask, solve_repair_branching
from conftest import planted_framework, python_calls, random_framework
from oracles import oracle_admissible, oracle_complete, oracle_stable

SIGMAS = (Semantics.ADMISSIBLE, Semantics.COMPLETE, Semantics.STABLE)


def test_branching_rejects_maximality_semantics(f1):
    for sigma in (Semantics.PREFERRED, Semantics.SEMI_STABLE):
        with pytest.raises(UnsupportedSemantics):
            solve_repair_branching(f1, f1.set_of(["a"]), sigma, 1)


def test_unattacked_argument_must_enter_complete_witness():
    # z1..z3 are attacked only by q; m is isolated, so every complete set
    # contains m and the unique distance-1 witness from {p,m} is {m}
    af = ArgumentationFramework(
        ("p", "q", "m", "z1", "z2", "z3"),
        [
            ("p", "q"),
            ("q", "p"),
            ("q", "z1"),
            ("q", "z2"),
            ("q", "z3"),
        ],
    )
    s = af.set_of(["p", "m"])
    res = solve_repair_branching(af, s, Semantics.COMPLETE, 1)
    assert res.answer
    assert res.witness.names == ("m",)
    assert solve_repair(af, s, Semantics.COMPLETE, 1).answer


def test_branching_k0_is_membership(f1, f4):
    assert solve_repair_branching(f1, f1.set_of(["a"]), Semantics.STABLE, 0).answer
    assert not solve_repair_branching(
        f1, f1.empty_set(), Semantics.STABLE, 0
    ).answer
    assert not solve_repair_branching(
        f4, f4.set_of(["a", "b"]), Semantics.ADMISSIBLE, 0
    ).answer


def test_branching_requires_nonempty_witness():
    loop = ArgumentationFramework(("x",), [("x", "x")])
    res = solve_repair_branching(loop, loop.set_of(["x"]), Semantics.ADMISSIBLE, 1)
    assert not res.answer


def test_branching_from_empty_set_matches_small():
    rng = random.Random(55)
    for _ in range(40):
        af = random_framework(rng, rng.randint(1, 7))
        sigma = rng.choice(SIGMAS)
        k = rng.randint(1, 3)
        small = solve_small(af, sigma, k).answer
        rep = solve_repair_branching(af, af.empty_set(), sigma, k).answer
        assert rep == small


def test_branching_agrees_with_delta_on_seeded_instances():
    rng = random.Random(31337)
    for _ in range(120):
        af = random_framework(rng, rng.randint(1, 7))
        sigma = rng.choice(SIGMAS)
        k = rng.randint(0, 3)
        s = af.set_from_mask(rng.randrange(1 << af.n))
        delta = solve_repair(af, s, sigma, k)
        branch = solve_repair_branching(af, s, sigma, k)
        assert branch.answer == delta.answer, (af, sigma, k, s)
        if branch.answer:
            w = branch.witness
            assert w is not None and len(w) > 0
            assert distance(w, s) <= k


def test_branching_witness_satisfies_semantics():
    from argudyn import is_admissible, is_complete, is_stable

    checker = {
        Semantics.ADMISSIBLE: is_admissible,
        Semantics.COMPLETE: is_complete,
        Semantics.STABLE: is_stable,
    }
    rng = random.Random(21)
    for _ in range(60):
        af = random_framework(rng, rng.randint(1, 7))
        sigma = rng.choice(SIGMAS)
        s = af.set_from_mask(rng.randrange(1 << af.n))
        res = solve_repair_branching(af, s, sigma, rng.randint(0, 4))
        if res.answer:
            assert checker[sigma](af, res.witness)


def test_branching_depth_is_not_bounded_by_the_recursion_limit():
    # every pair x_i<->y_i clashes, so each of the k levels drops one x_i
    pairs = 1050
    names = [f"{side}{i}" for i in range(pairs) for side in "xy"]
    attacks = [(f"x{i}", f"y{i}") for i in range(pairs)]
    attacks += [(b, a) for a, b in attacks]
    af = ArgumentationFramework(names, attacks)
    res = solve_repair_branching(af, af.full_set(), Semantics.ADMISSIBLE, pairs)
    assert res.answer
    assert res.witness.names == tuple(f"y{i}" for i in range(pairs))
    assert res.stats.nodes == pairs + 1


def test_a_node_rechecks_only_around_its_last_flip(monkeypatch):
    # the start set's defects come from one scan, so every _defects call is
    # a node's, and each looks at one flip, its partner and nothing else,
    # however deep its node sits
    pairs = 1050
    names = [f"{side}{i}" for i in range(pairs) for side in "xy"]
    attacks = [(f"x{i}", f"y{i}") for i in range(pairs)]
    attacks += [(b, a) for a, b in attacks]
    af = ArgumentationFramework(names, attacks)
    regions = []
    original = solvers._defects

    def counting(af, e, attacked, region, *masks):
        regions.append(region.bit_count())
        return original(af, e, attacked, region, *masks)

    monkeypatch.setattr(solvers, "_defects", counting)
    res = solve_repair_branching(af, af.full_set(), Semantics.ADMISSIBLE, pairs)
    assert res.stats.nodes == pairs + 1
    assert sum(regions) <= 8 * res.stats.nodes, sum(regions)


def test_branching_raises_when_its_recheck_finds_a_defect(monkeypatch):
    # with every node's defect masks read as zero, the first node, {b}
    # after a leaves {a, b}, looks defect-free; the whole-set re-check finds
    # b undefended, and the solve raises rather than move on to {a}
    af = ArgumentationFramework(("a", "b"), [("a", "b")])

    def blind(af, e, attacked, region, masks):
        return (0, 0, 0, 0)

    monkeypatch.setattr(solvers, "_defects", blind)
    with pytest.raises(NotAnExtension, match="branching repair witness .* under adm"):
        solve_repair_branching(af, af.full_set(), Semantics.ADMISSIBLE, 1)


def _planted_starts(rng, n, p, count):
    """count start sets, each the planted set with 1 to 3 arguments flipped."""
    for j in range(count):
        s = p
        for x in rng.sample(range(n), 1 + j % 3):
            s ^= 1 << x
        yield s


def test_branching_trace_is_pinned():
    # answer, witness and node count of every solve over a seeded corpus,
    # hashed: a change to the move order, the node order or the witness
    # changes the digest
    runs = []
    rng = random.Random(404)
    for _ in range(2000):
        af = random_framework(rng, rng.randint(1, 10))
        s = af.set_from_mask(rng.randrange(1 << af.n))
        runs.append((af, s, rng.choice(SIGMAS), rng.randint(0, 5)))
    af, p = planted_framework(random.Random(7), 2000)
    for j, s in enumerate(_planted_starts(random.Random(8), af.n, p, 30)):
        for sigma in SIGMAS:
            runs.append((af, af.set_from_mask(s), sigma, 2 + j % 5))
    trace = []
    for af, s, sigma, k in runs:
        res = solve_repair_branching(af, s, sigma, k)
        names = res.witness.names if res.answer else None
        trace.append((res.answer, names, res.stats.nodes))
    digest = hashlib.sha256(repr(trace).encode()).hexdigest()
    assert digest == (
        "ab3389f7f11037ea5aa31b996720e9ad4517cf0846a84479e4910152105b6ce6"
    )


def test_branching_makes_two_whole_set_passes_per_solve(monkeypatch):
    # the anchor's scan and the YES re-check's scan are the two whole-set
    # passes; the nodes in between look only around their flips, and no
    # bit-row check runs
    scans = []
    original = solvers._scan

    def counting(af, mask):
        scans.append(mask)
        return original(af, mask)

    def forbidden(*args):
        raise AssertionError("branching ran a bit-row check")

    monkeypatch.setattr(solvers, "_scan", counting)
    monkeypatch.setattr(core, "attacked_mask", forbidden)
    monkeypatch.setattr(solvers, "sigma_member_mask", forbidden)
    af, p = planted_framework(random.Random(11), 2000)
    seen = 0
    for s in _planted_starts(random.Random(12), af.n, p, 12):
        for sigma in SIGMAS:
            scans.clear()
            res = solve_repair_branching(af, af.set_from_mask(s), sigma, 4)
            assert res.answer
            assert len(scans) == 2, (sigma, res.stats.nodes, len(scans))
            seen = max(seen, res.stats.nodes)
    assert seen >= 5


def _no_defect(sigma, defects):
    """sigma's membership read off a set's defect masks."""
    clash, undefended, unattacked, defended = defects
    extra = {
        Semantics.ADMISSIBLE: 0,
        Semantics.COMPLETE: defended,
        Semantics.STABLE: unattacked,
    }[sigma]
    return not (clash or undefended or extra)


def _scan_cases():
    """(framework, set mask) pairs: every subset of a seeded random
    framework, self-attacks included, for each n = 0..10, and sets around
    the planted stable set of two planted frameworks."""
    rng = random.Random(2024)
    for n in range(11):
        af = random_framework(rng, n)
        for mask in range(1 << n):
            yield af, mask
    for seed, n in ((3, 60), (5, 150)):
        af, p = planted_framework(random.Random(seed), n)
        yield af, 0
        yield af, p
        for s in _planted_starts(random.Random(seed), n, p, 12):
            yield af, s
        for _ in range(6):
            yield af, rng.randrange(1 << n)


def test_the_scan_finds_what_the_bit_row_checks_find():
    cases = 0
    for af, mask in _scan_cases():
        cases += 1
        attacked = core.attacked_mask(af, mask)
        masks = solvers._defects(af, mask, attacked, af.full_mask, (0,) * 4)
        assert solvers._scan(af, mask) == (attacked, masks), (af, mask)
        args, attacks = af.arguments, af.attacks
        e = frozenset(af.set_from_mask(mask))
        oracle = {
            Semantics.ADMISSIBLE: oracle_admissible(attacks, e),
            Semantics.COMPLETE: oracle_complete(args, attacks, e),
            Semantics.STABLE: oracle_stable(args, attacks, e),
        }
        for sigma in SIGMAS:
            member = _no_defect(sigma, masks)
            assert member == sigma_member_mask(af, mask, sigma), (af, mask, sigma)
            assert member == oracle[sigma], (af, mask, sigma)
    assert cases == 2047 + 2 * 20


def test_a_branching_solve_at_ten_thousand_arguments_makes_few_python_calls():
    # the planted stable set less two members: its scan, three nodes and the
    # re-check take under a hundred Python calls.  A walk of the set's bits
    # makes one call per member, 2,918 here.
    af, planted = planted_framework(random.Random(0), 10_000)
    s = planted
    for m in list(iter_bits(planted))[:2]:
        s ^= 1 << m
    start = af.set_from_mask(s)
    res, calls = python_calls(
        lambda: solve_repair_branching(af, start, Semantics.STABLE, 2)
    )
    assert res.answer
    assert sigma_member_mask(af, res.witness.mask, Semantics.STABLE)
    assert calls < 1_000, calls
