import random
import sys

import pytest

from argudyn import ArgumentationFramework


@pytest.fixture
def f1():
    """Mutual attack pair."""
    return ArgumentationFramework(("a", "b"), [("a", "b"), ("b", "a")])


@pytest.fixture
def f2():
    """Directed 3-cycle."""
    return ArgumentationFramework(
        ("a", "b", "c"), [("a", "b"), ("b", "c"), ("c", "a")]
    )


@pytest.fixture
def f3():
    """Chain a -> b -> c."""
    return ArgumentationFramework(("a", "b", "c"), [("a", "b"), ("b", "c")])


@pytest.fixture
def f4():
    """Two disjoint mutual-attack pairs."""
    return ArgumentationFramework(
        ("a", "b", "c", "d"),
        [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")],
    )


def random_framework(rng: random.Random, n: int, self_prob=0.2, edge_prob=0.25):
    names = tuple(f"x{i}" for i in range(n))
    attacks = [(a, a) for a in names if rng.random() < self_prob]
    attacks += [
        (a, b)
        for a in names
        for b in names
        if a != b and rng.random() < edge_prob
    ]
    return ArgumentationFramework(names, attacks)


def python_calls(run):
    """run's result and the number of Python calls it made."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return result, calls


@pytest.fixture
def make_af():
    return random_framework


def planted_framework(rng: random.Random, n: int, degree: int = 3):
    """A framework of maximum degree `degree` with a planted stable set P.

    Every argument is attached to a member of P by an attack from P, or
    joins P; then attacks from outside P are added while the degree allows.
    Returns the framework and the mask of P.
    """
    adj = [set() for _ in range(n)]
    attacks = []

    def add(a: int, b: int) -> bool:
        if a == b or b in adj[a] or max(len(adj[a]), len(adj[b])) >= degree:
            return False
        attacks.append((a, b))
        adj[a].add(b)
        adj[b].add(a)
        return True

    members: list[int] = []
    for x in rng.sample(range(n), n):
        if not any(add(p, x) for p in rng.sample(members, min(len(members), 4))):
            members.append(x)
    outsiders = sorted(set(range(n)) - set(members))
    for _ in range(n):
        add(rng.choice(outsiders), rng.randrange(n))
    names = [f"a{i}" for i in range(n)]
    af = ArgumentationFramework(names, [(names[a], names[b]) for a, b in attacks])
    return af, sum(1 << p for p in members)
