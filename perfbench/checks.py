"""Reference checks for the benchmark, written apart from argudyn.

Nothing here imports argudyn: the benchmark judges the program's answers
with these definitions, read straight off the attack list.  Sets are
Python int bitmasks over the argument order of a Graph.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

SEMANTICS = ("adm", "com", "stb")


class Graph:
    """Arguments in declaration order and attacks as (source, target) pairs."""

    def __init__(self, names, attacks):
        self.names = list(names)
        self.index = {name: i for i, name in enumerate(self.names)}
        if len(self.index) != len(self.names):
            raise ValueError("duplicate argument name")
        self.n = len(self.names)
        self.attacks = sorted({(self.index[a], self.index[b]) for a, b in attacks})
        self.attackers = [0] * self.n
        self.targets = [0] * self.n
        for a, b in self.attacks:
            self.attackers[b] |= 1 << a
            self.targets[a] |= 1 << b

    def mask(self, names) -> int:
        out = 0
        for name in names:
            out |= 1 << self.index[name]
        return out

    def names_of(self, mask: int) -> list[str]:
        return [self.names[i] for i in range(self.n) if mask >> i & 1]

    def max_degree(self) -> int:
        return max(
            (((self.attackers[i] | self.targets[i]) & ~(1 << i)).bit_count()
             for i in range(self.n)),
            default=0,
        )


# -- membership, from the attack list ----------------------------------------


def _members(g: Graph, mask: int) -> list[int]:
    return [i for i in range(g.n) if mask >> i & 1]


def _attacked(g: Graph, mask: int) -> int:
    out = 0
    for a, b in g.attacks:
        if mask >> a & 1:
            out |= 1 << b
    return out


def conflict_free(g: Graph, mask: int) -> bool:
    return not any(mask >> a & 1 and mask >> b & 1 for a, b in g.attacks)


def _defends(g: Graph, attacked: int, x: int) -> bool:
    return g.attackers[x] & ~attacked == 0


def admissible(g: Graph, mask: int) -> bool:
    if not conflict_free(g, mask):
        return False
    attacked = _attacked(g, mask)
    return all(_defends(g, attacked, x) for x in _members(g, mask))


def complete(g: Graph, mask: int) -> bool:
    if not admissible(g, mask):
        return False
    attacked = _attacked(g, mask)
    return all(
        mask >> x & 1 for x in range(g.n) if _defends(g, attacked, x)
    )


def stable(g: Graph, mask: int) -> bool:
    if not conflict_free(g, mask):
        return False
    covered = mask | _attacked(g, mask)
    return covered == (1 << g.n) - 1


MEMBER = {"adm": admissible, "com": complete, "stb": stable}


def distance(a: int, b: int) -> int:
    return (a ^ b).bit_count()


# -- satisfiability by truth table ---------------------------------------------


def satisfies(clauses, bits: int) -> bool:
    """bits has bit v-1 set when variable v is true."""
    return all(
        any((bits >> (abs(lit) - 1) & 1) == (lit > 0) for lit in clause)
        for clause in clauses
    )


def satisfying_assignment(n: int, clauses) -> int | None:
    for bits in range(1 << n):
        if satisfies(clauses, bits):
            return bits
    return None


def random_cnf_two(rng: random.Random, n: int, m: int) -> list[tuple[int, ...]]:
    """m clauses of 1-3 literals over n variables, each literal used at most
    twice; m must be at most 2n so the occurrence budget (4n) always lasts."""
    if not 1 <= m <= 2 * n:
        raise ValueError("need 1 <= m <= 2n")
    left = {lit: 2 for v in range(1, n + 1) for lit in (v, -v)}
    clauses = []
    for j in range(m):
        # leave at least one occurrence for every clause still to come
        spare = sum(left.values()) - (m - j - 1)
        size = min(rng.choice((1, 2, 2, 3, 3)), spare)
        clause: list[int] = []
        for v in rng.sample(range(1, n + 1), n):
            if len(clause) == size:
                break
            lit = v if rng.random() < 0.5 else -v
            if not left[lit]:
                lit = -lit
            if left[lit]:
                clause.append(lit)
                left[lit] -= 1
        clauses.append(tuple(sorted(clause)))
    return clauses


# -- planted extensions ----------------------------------------------------------


def planted_stable(
    rng: random.Random, n: int, degree: int = 3
) -> tuple[list[str], list[tuple[str, str]], int]:
    """A framework of maximum degree `degree` with a planted stable set P.

    P is conflict-free and attacks every other argument, so it is stable,
    hence also complete and admissible.  Extra attacks run only from
    outside P, some into P, so P has to defend itself.  Returns names,
    attacks and the mask of P.
    """
    names = [f"a{i}" for i in range(n)]
    adj = [set() for _ in range(n)]
    attacks: set[tuple[int, int]] = set()

    def add(a: int, b: int) -> bool:
        if a == b or b in adj[a]:
            return False
        if len(adj[a]) >= degree or len(adj[b]) >= degree:
            return False
        attacks.add((a, b))
        adj[a].add(b)
        adj[b].add(a)
        return True

    order = list(range(n))
    rng.shuffle(order)
    inside = [False] * n
    members: list[int] = []
    for x in order:
        # x has no attacks yet: attach it to a member with spare degree,
        # or make it a member
        for p in rng.sample(members, min(len(members), 4)):
            if add(p, x):
                break
        else:
            inside[x] = True
            members.append(x)
    outsiders = [x for x in range(n) if not inside[x]]
    for _ in range(n):
        a = rng.choice(outsiders)
        b = rng.randrange(n)
        add(a, b)
    mask = sum(1 << p for p in members)
    g = Graph(names, [(names[a], names[b]) for a, b in sorted(attacks)])
    if not stable(g, mask):
        raise AssertionError("planted set is not stable")
    return names, [(names[a], names[b]) for a, b in sorted(attacks)], mask


# -- exhaustive oracle for small frameworks ---------------------------------------

ORACLE_MAX_ARGS = 12


def _conflict_free_masks(g: Graph) -> list[int]:
    out = [0]
    for i in range(g.n):
        if g.targets[i] >> i & 1:
            continue
        adj = g.attackers[i] | g.targets[i]
        out += [m | 1 << i for m in out if not m & adj]
    return out


@dataclass
class Oracle:
    """All adm/com/stb extensions of a framework of at most 12 arguments,
    found by testing every conflict-free subset with the checks above."""

    graph: Graph
    extensions: dict[str, list[int]]

    @classmethod
    def of(cls, g: Graph) -> "Oracle":
        if g.n > ORACLE_MAX_ARGS:
            raise ValueError(f"oracle is limited to {ORACLE_MAX_ARGS} arguments")
        cf = sorted(_conflict_free_masks(g))
        exts = {s: [m for m in cf if MEMBER[s](g, m)] for s in SEMANTICS}
        return cls(g, exts)

    def answer(self, q: "Question") -> bool:
        return any(q.fits(e) for e in self.extensions[q.sigma])

    def is_witness(self, q: "Question", e: int) -> bool:
        return MEMBER[q.sigma](self.graph, e) and q.fits(e)


@dataclass(frozen=True)
class Question:
    """One small/repair/adjust/center question over a Graph's masks.

    s is the start set (repair), E0 (adjust) or E1 (center); s2 is E2.
    Small and repair always ask for a nonempty witness.
    """

    kind: str
    sigma: str
    k: int = 0
    s: int = 0
    s2: int = 0
    target: int = 0
    nonempty: bool = False

    def fits(self, e: int) -> bool:
        """The question's bounds on a set e, membership aside."""
        if self.nonempty and e == 0:
            return False
        if self.kind == "small":
            return e.bit_count() <= self.k
        if self.kind == "repair":
            return distance(e, self.s) <= self.k
        if self.kind == "adjust":
            return distance(e, self.s) <= self.k and (e ^ self.s) >> self.target & 1 == 1
        d = distance(self.s, self.s2)
        return distance(e, self.s) < d and distance(e, self.s2) < d


def small_frameworks(rng: random.Random, n: int):
    """Endless seeded frameworks on n arguments: a few mutual pairs, which
    give several stable extensions, plus sparse one-way attacks."""
    names = [f"a{i}" for i in range(n)]
    while True:
        attacks = set()
        for a, b in itertools.permutations(range(n), 2):
            r = rng.random()
            if r < 0.06:
                attacks |= {(a, b), (b, a)}
            elif r < 0.16:
                attacks.add((a, b))
        if rng.random() < 0.5:
            x = rng.randrange(n)
            attacks.add((x, x))
        yield Graph(names, [(names[a], names[b]) for a, b in attacks])


# -- framework files -------------------------------------------------------------

_APX_FACT = re.compile(r"(arg|att)\(\s*(\w+)\s*(?:,\s*(\w+)\s*)?\)\.")


def read_apx(text: str) -> Graph:
    names, attacks = [], []
    for line in text.splitlines():
        line = line.split("%", 1)[0]
        for kind, a, b in _APX_FACT.findall(line):
            if kind == "arg":
                names.append(a)
            else:
                attacks.append((a, b))
    return Graph(names, attacks)


def read_tgf(text: str) -> Graph:
    names, attacks = [], []
    lines = iter(text.splitlines())
    for line in lines:
        if line.strip() == "#":
            break
        if line.strip():
            names.append(line.split()[0])
    for line in lines:
        if line.strip():
            a, b = line.split()[:2]
            attacks.append((a, b))
    return Graph(names, attacks)


def read_framework(path) -> Graph:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    return read_tgf(text) if str(path).endswith(".tgf") else read_apx(text)


def write_apx(names, attacks) -> str:
    lines = [f"arg({x})." for x in names] + [f"att({a},{b})." for a, b in attacks]
    return "\n".join(lines) + "\n"


def write_tgf(names, attacks) -> str:
    return "\n".join([*names, "#", *(f"{a} {b}" for a, b in attacks)]) + "\n"


def write_dimacs(n: int, clauses) -> str:
    body = [" ".join(map(str, clause)) + " 0" for clause in clauses]
    return "\n".join([f"p cnf {n} {len(clauses)}", *body]) + "\n"
