import os
import random

import pytest

from argudyn import (
    ArgumentationFramework,
    CapExceeded,
    DEFAULT_ENUM_CAP,
    InvalidCap,
    Semantics,
    enumerate_extensions,
    is_preferred,
    is_semistable,
    solve_adjust,
    solve_repair,
    solve_small,
)
from argudyn import enumeration
from argudyn.core import iter_bits
from argudyn.enumeration import (
    ENUM_CAP_ENV,
    preferred_mask,
    resolve_cap,
    semistable_mask,
)
from conftest import random_framework
from oracles import oracle_admissible, oracle_extensions


def _names(extensions):
    return {frozenset(e.names) for e in extensions}


def test_hand_enumerations(f1, f2, f3, f4):
    assert _names(enumerate_extensions(f1, Semantics.STABLE)) == {
        frozenset("a"),
        frozenset("b"),
    }
    assert _names(enumerate_extensions(f2, Semantics.ADMISSIBLE)) == {frozenset()}
    assert _names(enumerate_extensions(f2, Semantics.PREFERRED)) == {frozenset()}
    assert _names(enumerate_extensions(f2, Semantics.STABLE)) == set()
    assert _names(enumerate_extensions(f3, Semantics.COMPLETE)) == {
        frozenset({"a", "c"})
    }
    assert _names(enumerate_extensions(f4, Semantics.SEMI_STABLE)) == {
        frozenset({"a", "c"}),
        frozenset({"a", "d"}),
        frozenset({"b", "c"}),
        frozenset({"b", "d"}),
    }


def test_enumerate_matches_definitions():
    rng = random.Random(4242)
    for _ in range(50):
        af = random_framework(rng, rng.randint(1, 6))
        attacks = set(af.attacks)
        for sigma in Semantics:
            got = _names(enumerate_extensions(af, sigma))
            want = oracle_extensions(af.arguments, attacks, sigma.value)
            assert got == want, (af, sigma)


def test_enumerate_is_sorted_by_size_then_lex(f4):
    exts = list(enumerate_extensions(f4, Semantics.ADMISSIBLE))
    keys = [e.sort_key() for e in exts]
    assert keys == sorted(keys)
    assert exts[0].names == ()
    assert len(exts) == 9


def _chain(n):
    names = tuple(f"x{i}" for i in range(n))
    return ArgumentationFramework(
        names, [(names[i], names[i + 1]) for i in range(n - 1)]
    )


def test_cap_blocks_large_frameworks(monkeypatch):
    big = _chain(21)
    with pytest.raises(CapExceeded) as err:
        enumerate_extensions(big, Semantics.ADMISSIBLE)
    assert err.value.size == 21
    assert err.value.cap == DEFAULT_ENUM_CAP
    assert "21" in str(err.value) and "cap" in str(err.value)
    # explicit cap overrides; the chain's one stable extension is the evens
    stb = list(enumerate_extensions(big, Semantics.STABLE, cap=25))
    assert [e.names for e in stb] == [tuple(f"x{i}" for i in range(0, 21, 2))]
    # env var overrides the default
    monkeypatch.setenv(ENUM_CAP_ENV, "25")
    assert resolve_cap(None) == 25
    assert len(enumerate_extensions(big, Semantics.STABLE)) == 1
    # explicit cap beats env
    monkeypatch.setenv(ENUM_CAP_ENV, "10")
    with pytest.raises(CapExceeded):
        enumerate_extensions(big, Semantics.STABLE)
    assert len(enumerate_extensions(big, Semantics.STABLE, cap=30)) == 1
    monkeypatch.setenv(ENUM_CAP_ENV, "junk")
    with pytest.raises(ValueError):
        resolve_cap(None)


@pytest.mark.parametrize("setting", ["junk", "-1"])
def test_invalid_cap_setting_raises_typed_error(monkeypatch, setting):
    chain = _chain(3)
    monkeypatch.setenv(ENUM_CAP_ENV, setting)
    with pytest.raises(InvalidCap, match=ENUM_CAP_ENV):
        resolve_cap(None)
    with pytest.raises(InvalidCap, match=ENUM_CAP_ENV):
        solve_small(chain, Semantics.PREFERRED, 1)
    # semantics without a maximality check never read the setting
    assert solve_small(chain, Semantics.ADMISSIBLE, 1).answer
    # an explicit cap is checked too, and named
    with pytest.raises(InvalidCap, match="-5"):
        resolve_cap(-5)
    with pytest.raises(InvalidCap, match="-5"):
        solve_small(chain, Semantics.PREFERRED, 1, cap=-5)
    with pytest.raises(InvalidCap, match="-5"):
        solve_repair(chain, chain.set_of(["x0"]), Semantics.ADMISSIBLE, 1, cap=-5)


def test_delta_solve_reads_cap_setting_once(monkeypatch):
    reads = []

    class Environ(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

    monkeypatch.setattr(os, "environ", Environ(os.environ, **{ENUM_CAP_ENV: "25"}))
    chain = _chain(5)
    e0 = chain.set_of(["x0", "x2", "x4"])
    assert not solve_adjust(chain, e0, "x1", Semantics.SEMI_STABLE, 2).answer
    assert solve_small(chain, Semantics.PREFERRED, 3).answer
    assert reads.count(ENUM_CAP_ENV) == 2


def test_maximality_checks_match_enumeration():
    rng = random.Random(11)
    for _ in range(30):
        af = random_framework(rng, rng.randint(1, 6))
        prf = _names(enumerate_extensions(af, Semantics.PREFERRED))
        sem = _names(enumerate_extensions(af, Semantics.SEMI_STABLE))
        for s in af.all_subsets():
            members = frozenset(s.names)
            assert preferred_mask(af, s.mask) == (members in prf)
            assert semistable_mask(af, s.mask) == (members in sem)
            assert is_preferred(af, s) == (members in prf)
            assert is_semistable(af, s) == (members in sem)


def test_maximality_checks_match_oracle_on_every_subset():
    rng = random.Random(8080)
    for n in range(1, 9):
        for _ in range(15):
            af = random_framework(rng, n)
            attacks = set(af.attacks)
            prf = oracle_extensions(af.arguments, attacks, "prf")
            sem = oracle_extensions(af.arguments, attacks, "sem")
            for s in af.all_subsets():
                members = frozenset(s.names)
                assert preferred_mask(af, s.mask) == (members in prf), (af, s)
                assert semistable_mask(af, s.mask) == (members in sem), (af, s)


def test_a_set_whose_range_is_everything_is_semistable():
    lone = ArgumentationFramework(("a",), [])
    pair = ArgumentationFramework(("a", "b"), [("a", "b"), ("b", "a")])
    for af in (lone, pair):
        a = af.mask_of(["a"])
        assert semistable_mask(af, a)
        assert preferred_mask(af, a)


def test_nonadmissible_sets_are_never_maximal():
    rng = random.Random(23)
    for _ in range(40):
        af = random_framework(rng, rng.randint(1, 7))
        attacks = set(af.attacks)
        for s in af.all_subsets():
            if not oracle_admissible(attacks, frozenset(s.names)):
                assert not preferred_mask(af, s.mask)
                assert not semistable_mask(af, s.mask)


def test_maximality_cap_gate():
    big = _chain(21)
    with pytest.raises(CapExceeded):
        preferred_mask(big, 0)
    with pytest.raises(CapExceeded):
        semistable_mask(big, 0)
    evens = big.mask_of(f"x{i}" for i in range(0, 21, 2))
    assert not preferred_mask(big, 0, cap=25)
    assert not semistable_mask(big, 0, cap=25)
    assert preferred_mask(big, evens, cap=25)
    assert semistable_mask(big, evens, cap=25)


def test_maximality_search_on_a_long_chain():
    # a3000 -> a2999 -> ... -> a0: an admissible superset of {a3000, a0}
    # takes a2, a4, ..., a2998 in, one defender per step of the search
    names = tuple(f"a{i}" for i in range(3001))
    chain = ArgumentationFramework(
        names, [(names[i + 1], names[i]) for i in range(3000)]
    )
    assert not preferred_mask(chain, chain.mask_of(["a3000"]), cap=5000)


def _count_search_steps(monkeypatch) -> list[int]:
    steps = [0]

    def counted(mask):
        for i in iter_bits(mask):
            steps[0] += 1
            yield i

    monkeypatch.setattr(enumeration, "iter_bits", counted)
    return steps


def test_maximality_search_steps_are_linear_on_a_long_chain(monkeypatch):
    # the search from {a3000} adds a0, a2, a4, ..., a2998; a step must not
    # scan the members of the growing set
    names = tuple(f"a{i}" for i in range(3001))
    chain = ArgumentationFramework(
        names, [(names[i + 1], names[i]) for i in range(3000)]
    )
    steps = _count_search_steps(monkeypatch)
    assert not preferred_mask(chain, chain.mask_of(["a3000"]), cap=5000)
    assert steps[0] <= 4 * chain.n


def test_a_maximality_check_is_one_search(monkeypatch):
    # S is 500 isolated arguments; each of the 500 outsiders b_i is attacked
    # by a self-attacker z_i, so no admissible set reaches past S's range.
    # One search from S tries each outsider once: no restart per outsider.
    names = [f"{p}{i}" for p in "abz" for i in range(500)]
    attacks = [(f"z{i}", t) for i in range(500) for t in (f"z{i}", f"b{i}")]
    af = ArgumentationFramework(names, attacks)
    s = af.mask_of(f"a{i}" for i in range(500))
    steps = _count_search_steps(monkeypatch)
    assert preferred_mask(af, s, cap=af.n)
    assert steps[0] <= 4 * af.n
    steps[0] = 0
    assert semistable_mask(af, s, cap=af.n)
    assert steps[0] <= 4 * af.n
