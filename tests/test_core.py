import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argudyn import (
    ArgumentationFramework,
    Semantics,
    adjust_instance,
    center_instance,
    distance,
    is_admissible,
    is_complete,
    is_conflict_free,
    is_preferred,
    is_semistable,
    is_stable,
    max_degree,
    range_of,
    repair_instance,
)
from argudyn.core import defends
from conftest import random_framework
from oracles import (
    oracle_admissible,
    oracle_complete,
    oracle_conflict_free,
    oracle_max_degree,
    oracle_range,
    oracle_stable,
)


def test_semantics_parse_accepts_values_and_instances():
    assert Semantics.parse("adm") is Semantics.ADMISSIBLE
    assert Semantics.parse("sem") is Semantics.SEMI_STABLE
    assert Semantics.parse(Semantics.STABLE) is Semantics.STABLE
    with pytest.raises(ValueError):
        Semantics.parse("grounded")


def test_framework_construction_and_accessors(f1):
    assert f1.n == 2
    assert f1.arguments == ("a", "b")
    assert f1.attacks == frozenset({("a", "b"), ("b", "a")})
    assert f1.index_of("b") == 1
    assert f1.mask_of(["b", "a"]) == 0b11
    assert f1.set_of(["a"]).names == ("a",)
    assert f1.set_from_mask(0b10).names == ("b",)
    assert repr(f1.set_of(["b", "a"])) == "{a,b}"
    assert len(list(f1.all_subsets())) == 4


def test_framework_rejects_bad_input():
    with pytest.raises(ValueError):
        ArgumentationFramework(("a", "a"), [])
    with pytest.raises(ValueError):
        ArgumentationFramework(("a b",), [])
    with pytest.raises(ValueError):
        ArgumentationFramework(("",), [])
    with pytest.raises(ValueError):
        ArgumentationFramework(("a",), [("a", "z")])
    with pytest.raises(ValueError):
        ArgumentationFramework(("a",), [("z", "a")])


def test_framework_rejects_name_ending_in_newline():
    # such a name would be written into APX/TGF files that no parser reads
    with pytest.raises(ValueError):
        ArgumentationFramework(("a\n", "b"), [("a\n", "b")])


def test_duplicate_attacks_are_deduplicated():
    af = ArgumentationFramework(("a", "b"), [("a", "b"), ("a", "b")])
    assert len(af.attacks) == 1


def test_framework_equality_ignores_attack_order():
    af1 = ArgumentationFramework(("a", "b"), [("a", "b"), ("b", "a")])
    af2 = ArgumentationFramework(("a", "b"), [("b", "a"), ("a", "b")])
    assert af1 == af2 and hash(af1) == hash(af2)
    assert af1 != ArgumentationFramework(("b", "a"), [("a", "b"), ("b", "a")])


def test_argument_set_operations(f4):
    ac = f4.set_of(["a", "c"])
    bd = f4.set_of(["b", "d"])
    assert (ac | bd).names == ("a", "b", "c", "d")
    assert (ac & bd).names == ()
    assert (ac ^ bd).names == ("a", "b", "c", "d")
    assert (ac - f4.set_of(["c"])).names == ("a",)
    assert f4.set_of(["a"]) <= ac and f4.set_of(["a"]) < ac
    assert "a" in ac and "b" not in ac
    assert len(ac) == 2 and sorted(ac) == ["a", "c"]
    with pytest.raises(ValueError):
        ac | ArgumentationFramework(("a",), []).set_of(["a"])
    with pytest.raises(ValueError):
        f4.mask_of(["nope"])


def test_distance_is_symmetric_difference_size(f4):
    ac = f4.set_of(["a", "c"])
    ad = f4.set_of(["a", "d"])
    assert distance(ac, ad) == 2
    assert distance(ac, ac) == 0
    assert distance(f4.empty_set(), f4.full_set()) == 4
    assert distance(ac, ad) == distance(ad, ac)


def test_a_set_from_another_framework_is_refused_with_one_message(f4):
    # frameworks compare by value, so the other one has the same arguments
    # and different attacks
    other = ArgumentationFramework(f4.arguments, [("a", "b")])
    assert other != f4
    ac, foreign = f4.set_of(["a", "c"]), other.set_of(["a", "c"])
    refusals = {
        "range_of": lambda: range_of(f4, foreign),
        "is_conflict_free": lambda: is_conflict_free(f4, foreign),
        "defends": lambda: defends(f4, foreign, "a"),
        "is_admissible": lambda: is_admissible(f4, foreign),
        "is_complete": lambda: is_complete(f4, foreign),
        "is_stable": lambda: is_stable(f4, foreign),
        "is_preferred": lambda: is_preferred(f4, foreign),
        "is_semistable": lambda: is_semistable(f4, foreign),
        "distance": lambda: distance(ac, foreign),
        "|": lambda: ac | foreign,
        "&": lambda: ac & foreign,
        "^": lambda: ac ^ foreign,
        "-": lambda: ac - foreign,
        "<=": lambda: ac <= foreign,
        "repair_instance": lambda: repair_instance(f4, foreign, "adm", 1),
        "adjust_instance": lambda: adjust_instance(f4, foreign, "a", "adm", 1),
        "center_instance e1": lambda: center_instance(f4, foreign, ac, "adm"),
        "center_instance e2": lambda: center_instance(f4, ac, foreign, "adm"),
    }
    for name, refuse in refusals.items():
        with pytest.raises(ValueError) as refused:
            refuse()
        assert str(refused.value) == (
            "argument set does not belong to this framework"
        ), name


def test_hand_checked_semantics(f1, f2, f3):
    assert is_conflict_free(f1, f1.set_of(["a"]))
    assert not is_conflict_free(f1, f1.full_set())
    assert is_admissible(f1, f1.set_of(["a"]))
    assert is_stable(f1, f1.set_of(["b"]))
    assert is_complete(f1, f1.empty_set())
    # directed 3-cycle: nothing defends itself
    assert not is_admissible(f2, f2.set_of(["a"]))
    assert is_complete(f2, f2.empty_set())
    assert not is_stable(f2, f2.empty_set())
    # chain: a defends c against b
    assert is_admissible(f3, f3.set_of(["a", "c"]))
    assert is_stable(f3, f3.set_of(["a", "c"]))
    assert not is_complete(f3, f3.set_of(["a"]))


def test_range_examples(f3):
    assert range_of(f3, f3.set_of(["a"])).names == ("a", "b")
    assert range_of(f3, f3.empty_set()).names == ()
    assert range_of(f3, f3.set_of(["a", "c"])).names == ("a", "b", "c")


def test_max_degree_merges_directions_and_skips_self():
    assert max_degree(ArgumentationFramework(("a",), [("a", "a")])) == 0
    assert max_degree(ArgumentationFramework(("a", "b"), [("a", "b"), ("b", "a")])) == 1
    star = ArgumentationFramework(
        ("h", "s1", "s2", "s3"), [("h", "s1"), ("s2", "h"), ("h", "s3"), ("h", "h")]
    )
    assert max_degree(star) == 3


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6))
def test_checkers_match_definitions(seed, n):
    rng = random.Random(seed)
    af = random_framework(rng, n)
    attacks = set(af.attacks)
    for s in af.all_subsets():
        members = frozenset(s.names)
        assert is_conflict_free(af, s) == oracle_conflict_free(attacks, members)
        assert is_admissible(af, s) == oracle_admissible(attacks, members)
        assert is_complete(af, s) == oracle_complete(af.arguments, attacks, members)
        assert is_stable(af, s) == oracle_stable(af.arguments, attacks, members)
        assert frozenset(range_of(af, s).names) == oracle_range(attacks, members)


def test_max_degree_matches_definition(make_af):
    rng = random.Random(99)
    for _ in range(40):
        af = make_af(rng, rng.randint(1, 8))
        assert max_degree(af) == oracle_max_degree(af.arguments, af.attacks)


def test_index_tuples_list_each_row_in_increasing_order():
    # attacks given in shuffled order, self-attacks and duplicates included;
    # the tuples are built once and kept
    rng = random.Random(9)
    for n in range(12):
        af = random_framework(rng, n)
        attacks = sorted(af.attacks) * 2
        rng.shuffle(attacks)
        af = ArgumentationFramework(af.arguments, attacks)
        indices = af.attacker_indices, af.target_indices
        for tuples, rows in zip(indices, (af.attackers, af.targets)):
            assert len(tuples) == n
            for i, row in enumerate(rows):
                assert tuples[i] == tuple(j for j in range(n) if row >> j & 1)
        assert af.attacker_indices is indices[0]
        assert af.target_indices is indices[1]
