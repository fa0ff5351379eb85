"""Instance generators that translate combinatorial questions into the
four dynamic-extension problems.  The brute-force references they are
checked against live in the test suite (tests/oracles.py).

Two source objects are supported: vertex-partitioned graphs (clique
questions become small-extension questions) and bounded-occurrence CNF
formulas (unsatisfiability becomes a small/adjust/center question on a
framework whose arguments all keep degree at most 5).  Two wrappers
lift any small-extension question to an adjust or center question.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass

from .core import ArgumentationFramework, Semantics, distance, max_degree
from .errors import ArgudynError, OddK, UnsupportedSemantics
from .formats import ThreeCnfTwoFormula
from .instances import (
    ProblemInstance,
    adjust_instance,
    center_instance,
    small_instance,
)

@dataclass(frozen=True)
class KPartiteGraph:
    """Undirected graph with a vertex partition and edges only across parts."""

    parts: tuple[tuple[str, ...], ...]
    edges: frozenset[frozenset[str]]

    def __post_init__(self) -> None:
        owner: dict[str, int] = {}
        for i, part in enumerate(self.parts):
            for v in part:
                if v in owner:
                    raise ValueError(f"vertex {v!r} appears in more than one part")
                owner[v] = i
        for edge in self.edges:
            if len(edge) != 2:
                raise ValueError("every edge must join two distinct vertices")
            u, v = sorted(edge)
            if u not in owner or v not in owner:
                raise ValueError(f"edge ({u},{v}) uses an unknown vertex")
            if owner[u] == owner[v]:
                raise ValueError(f"edge ({u},{v}) stays inside one part")

    @property
    def k(self) -> int:
        return len(self.parts)

    @property
    def vertices(self) -> tuple[str, ...]:
        return tuple(v for part in self.parts for v in part)

    def has_edge(self, u: str, v: str) -> bool:
        return frozenset((u, v)) in self.edges

    def canonical_text(self) -> str:
        parts = ";".join(",".join(part) for part in self.parts)
        edges = ";".join(sorted(",".join(sorted(e)) for e in self.edges))
        return f"parts:{parts}|edges:{edges}"


def kpartite(parts, edges) -> KPartiteGraph:
    """Build a KPartiteGraph from plain iterables."""
    return KPartiteGraph(
        tuple(tuple(p) for p in parts),
        frozenset(frozenset(e) for e in edges),
    )


def cnf(n: int, clauses) -> ThreeCnfTwoFormula:
    """Build a ThreeCnfTwoFormula from plain iterables of int literals."""
    return ThreeCnfTwoFormula(n, tuple(frozenset(c) for c in clauses))


@dataclass(frozen=True)
class GadgetOutput:
    """A generated problem instance plus construction bookkeeping.

    name_map sends construction roles to actual argument names; roles keep
    their default spelling unless a base framework already used the name.
    provenance is JSON-ready: generator id, digest of the source object,
    numeric parameters, and per-generator extras.
    """

    instance: ProblemInstance
    provenance: dict[str, object]
    name_map: dict[str, str]


def _output(
    instance: ProblemInstance,
    generator: str,
    source_text: str,
    parameters: dict[str, int],
    name_map: dict[str, str] | None = None,
    **extras: object,
) -> GadgetOutput:
    """Bundle instance with its provenance: generator id, digest of the
    source object's text, parameters, then extras.  A missing name_map
    maps every argument to itself."""
    if name_map is None:
        name_map = {name: name for name in instance.framework.arguments}
    for name in name_map.values():
        instance.framework.index_of(name)
    digest = hashlib.sha256(source_text.encode("utf-8")).hexdigest()[:16]
    provenance = {
        "generator": generator,
        "source_digest": digest,
        "parameters": parameters,
        **extras,
    }
    return GadgetOutput(instance, provenance, name_map)


def _af_text(af: ArgumentationFramework) -> str:
    args = ",".join(af.arguments)
    attacks = ";".join(f"{a}>{b}" for a, b in af.sorted_attacks())
    return f"{args}|{attacks}"


def _fresh(taken: set[str], desired: str) -> str:
    name = desired
    suffix = 2
    while name in taken:
        name = f"{desired}_{suffix}"
        suffix += 1
    taken.add(name)
    return name


# -- graph side ------------------------------------------------------------


def even_k_duplicate(g: KPartiteGraph) -> KPartiteGraph:
    """Double a partitioned graph without changing its clique answer.

    Output: two renamed copies (vertex v becomes v_1 and v_2) plus every
    cross-copy edge; a multicolored clique over the 2k parts exists
    exactly when the source has one over its k parts.
    """

    def ren(v: str, copy: int) -> str:
        return f"{v}_{copy}"

    parts = tuple(
        tuple(ren(v, c) for v in part) for c in (1, 2) for part in g.parts
    )
    edges: set[frozenset[str]] = set()
    for edge in g.edges:
        u, v = tuple(edge)
        for c in (1, 2):
            edges.add(frozenset((ren(u, c), ren(v, c))))
    for u in g.vertices:
        for v in g.vertices:
            edges.add(frozenset((ren(u, 1), ren(v, 2))))
    return KPartiteGraph(parts, frozenset(edges))


def gen_mcq_small(
    g: KPartiteGraph, sigma: Semantics | str = Semantics.ADMISSIBLE
) -> GadgetOutput:
    """Encode the multicolored-clique question on g as a small-extension
    question with bound k = part count.

    Arguments: one y_<v> per vertex plus helpers z_<v>_<j> for every part
    index j other than v's own.  Per part i the attacks are:
      - all mutual attacks inside {y_<v> : v in part i};
      - every helper attacks itself;
      - z_<v>_<j> attacks y_<v>;
      - y_<v> attacks z_<u>_<j> for every other vertex u of part i;
      - per edge {u,v} with u in part i, v in part j: y_<u> attacks
        z_<v>_<i> and y_<v> attacks z_<u>_<j>.
    A size-k extension exists, under any of the five semantics, exactly
    when the graph has a multicolored k-clique.
    """
    if g.k < 2:
        raise ValueError("need at least 2 parts")
    k = g.k
    part_of = {v: i for i, part in enumerate(g.parts, start=1) for v in part}
    y = {v: f"y_{v}" for v in g.vertices}
    args = [y[v] for v in g.vertices]
    attacks: list[tuple[str, str]] = []
    for i, part in enumerate(g.parts, start=1):
        for v in part:
            others = [u for u in part if u != v]
            attacks += [(y[v], y[u]) for u in others]
            for j in range(1, k + 1):
                if j == i:
                    continue
                z = f"z_{v}_{j}"
                args.append(z)
                attacks += [(z, z), (z, y[v])]
                attacks += [(y[v], f"z_{u}_{j}") for u in others]
    for edge in g.edges:
        u, v = tuple(edge)
        attacks.append((y[u], f"z_{v}_{part_of[u]}"))
        attacks.append((y[v], f"z_{u}_{part_of[v]}"))
    af = ArgumentationFramework(args, attacks)
    parameters = {
        "k": k,
        "n_vertices": len(g.vertices),
        "n_edges": len(g.edges),
    }
    return _output(
        small_instance(af, sigma, k), "mcq-small", g.canonical_text(), parameters
    )


# -- wrappers over an arbitrary small-extension question --------------------


def gen_adjust_from_small(
    af: ArgumentationFramework,
    k: int,
    sigma: Semantics | str = Semantics.ADMISSIBLE,
) -> GadgetOutput:
    """Wrap a small-extension question (af, k) as a target-flip question.

    One fresh argument t mutually attacks every existing argument, making
    {t} an extension under each of the five semantics; the instance asks
    to flip t away within distance k+1.  The answers coincide verbatim
    for prf and stb, under the nonempty-witness reading for adm and com,
    and can drift for sem when the base has no stable extension (the
    hub makes {t} stable, which collapses sem to stb on the output).
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    taken = set(af.arguments)
    t = _fresh(taken, "t")
    attacks = list(af.sorted_attacks())
    for x in af.arguments:
        attacks.append((t, x))
        attacks.append((x, t))
    af2 = ArgumentationFramework(af.arguments + (t,), attacks)
    instance = adjust_instance(af2, af2.set_of([t]), t, sigma, k + 1)
    parameters = {"k": k, "adjust_k": k + 1, "n_arguments": af.n}
    return _output(
        instance, "adjust-from-small", _af_text(af), parameters, {"t": t}
    )


def gen_center_from_small(
    af: ArgumentationFramework,
    k: int,
    sigma: Semantics | str = Semantics.ADMISSIBLE,
) -> GadgetOutput:
    """Wrap a small-extension question (af, k), k even, as a centering
    question between two antipodal extensions at distance 2k+2.

    Added material: mutually attacking hubs t and tp that also attack all
    base arguments, toggle rows w_i / wp_i (each pair mutual, w_i attacks
    t, wp_i attacks tp), and self-attacking anchors z_i (attack the i-th
    toggle pair, attacked by every base argument) and zp_i (attacked by
    the i-th toggle pair, attack every base argument).  Endpoints:
    E1 = {t} plus all wp_i, E2 = {tp} plus all w_i; both are extensions
    under each of the five semantics.  The same equivalence caveats as
    gen_adjust_from_small apply for adm, com, and sem.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k % 2 == 1:
        raise OddK(
            f"k must be even, got {k}; double the source question first"
        )
    taken = set(af.arguments)
    rows = ("w", "wp", "z", "zp")
    roles = ["t", "tp"] + [f"{row}_{i}" for i in range(1, k + 1) for row in rows]
    name_map = {role: _fresh(taken, role) for role in roles}
    t, tp = name_map["t"], name_map["tp"]
    w, wp, z, zp = (
        [name_map[f"{row}_{i}"] for i in range(1, k + 1)] for row in rows
    )
    attacks = list(af.sorted_attacks())
    attacks += [(t, tp), (tp, t)]
    for x in af.arguments:
        attacks += [(t, x), (tp, x)]
    for i in range(k):
        attacks += [(t, z[i]), (t, zp[i]), (tp, z[i]), (tp, zp[i])]
        attacks += [(w[i], t), (w[i], wp[i]), (wp[i], tp), (wp[i], w[i])]
        attacks += [(z[i], z[i]), (zp[i], zp[i])]
        attacks += [(z[i], w[i]), (z[i], wp[i])]
        attacks += [(w[i], zp[i]), (wp[i], zp[i])]
        for x in af.arguments:
            attacks += [(x, z[i]), (zp[i], x)]
    af2 = ArgumentationFramework(
        af.arguments + (t, tp, *w, *wp, *z, *zp), attacks
    )
    e1 = af2.set_of([t, *wp])
    e2 = af2.set_of([tp, *w])
    if distance(e1, e2) != 2 * k + 2:
        raise ArgudynError("endpoint distance drifted from 2k+2")
    return _output(
        center_instance(af2, e1, e2, sigma),
        "center-from-small",
        _af_text(af),
        {"k": k, "threshold": 2 * k + 1, "n_arguments": af.n},
        name_map,
        forward_witness_scaffold=w[: k // 2] + wp[k // 2 :],
    )


# -- formula side ------------------------------------------------------------


def _bracket_tree(
    leaves: int,
) -> tuple[int, list[int], list[tuple[int, int]], int]:
    """Binary tree with the given leaf count; every internal node has two
    children, splitting ceil(i/2) leaves to the left.  Returns (root id,
    leaf ids left to right, parent->child edges, node count).
    """
    counter = itertools.count()
    edges: list[tuple[int, int]] = []
    leaf_ids: list[int] = []

    def build(i: int) -> int:
        if i == 1:
            node = next(counter)
            leaf_ids.append(node)
            return node
        left = build((i + 1) // 2)
        right = build(i // 2)
        node = next(counter)
        edges.append((node, left))
        edges.append((node, right))
        return node

    root = build(leaves)
    return root, leaf_ids, edges, next(counter)


def _attach_tree(
    args: list[str],
    attacks: list[tuple[str, str]],
    leaf_count: int,
    hub: str,
    prefix: str,
    inward: bool,
) -> list[str]:
    """Attach a tree rooted at hub with every tree edge subdivided.

    Inward, attacks run from the leaves toward the hub and only the
    subdividing nodes self-attack, so the tree funnels attacks into hub.
    Outward, attacks run from the hub toward the leaves and only the nodes
    of the unsubdivided tree self-attack, so the tree fans attacks out of
    hub.  Returns leaf names in order (the hub itself when leaf_count is 1).
    """
    root, leaf_ids, edges, count = _bracket_tree(leaf_count)
    name = [hub if node == root else f"{prefix}_n{node}" for node in range(count)]
    for node in range(count):
        if node != root:
            args.append(name[node])
        if not inward:
            attacks.append((name[node], name[node]))
    for idx, (parent, child) in enumerate(edges):
        s = f"{prefix}_s{idx}"
        args.append(s)
        if inward:
            attacks += [(name[child], s), (s, name[parent]), (s, s)]
        else:
            attacks += [(name[parent], s), (s, name[child])]
    return [name[leaf] for leaf in leaf_ids]


def _cnf_base(
    formula: ThreeCnfTwoFormula, include_e: bool
) -> tuple[list[str], list[tuple[str, str]]]:
    """Shared frame for the three formula generators: hub phi gathers the
    clause attacks through a funnel tree, hub nphi spreads its attacks on
    the literal arguments through a fan-out tree, and every argument ends
    up with degree at most 5.  include_e adds the isolated probe e.

    Argument count is 5m + 10n - 6 without the probe.
    """
    n, m = formula.n, formula.m
    cs = [f"c_{j}" for j in range(1, m + 1)]
    xs = [f"x_{i}" for i in range(1, n + 1)]
    nxs = [f"nx_{i}" for i in range(1, n + 1)]
    args = ["phi", "nphi", *cs]
    for i in range(n):
        args += [xs[i], nxs[i]]
    attacks: list[tuple[str, str]] = [("nphi", "nphi"), ("phi", "nphi")]
    for j, clause in enumerate(formula.clauses):
        attacks.append((cs[j], cs[j]))
        for lit in sorted(clause):
            side = xs[lit - 1] if lit > 0 else nxs[-lit - 1]
            attacks.append((side, cs[j]))
    for i in range(n):
        attacks += [(xs[i], nxs[i]), (nxs[i], xs[i])]
    clause_leaves = _attach_tree(args, attacks, m, "phi", "bphi", inward=True)
    for j in range(m):
        attacks.append((cs[j], clause_leaves[j]))
    lit_leaves = _attach_tree(
        args, attacks, 2 * n, "nphi", "bnphi", inward=False
    )
    for i in range(n):
        attacks.append((lit_leaves[i], xs[i]))
        attacks.append((lit_leaves[n + i], nxs[i]))
    if include_e:
        args.append("e")
    return args, attacks


def _maximality_only(sigma: Semantics | str) -> Semantics:
    sigma = Semantics.parse(sigma)
    if not sigma.needs_maximality:
        raise UnsupportedSemantics(
            "this construction needs a maximality semantics (prf or sem)"
        )
    return sigma


def _cnf_output(
    instance: ProblemInstance,
    generator: str,
    formula: ThreeCnfTwoFormula,
    **parameters: int,
) -> GadgetOutput:
    return _output(
        instance,
        generator,
        formula.canonical_text(),
        {"n": formula.n, "m": formula.m, **parameters},
        max_degree=max_degree(instance.framework),
    )


def gen_cnf_small(
    formula: ThreeCnfTwoFormula, sigma: Semantics | str = Semantics.PREFERRED
) -> GadgetOutput:
    """Encode unsatisfiability of formula as a size-1 extension question
    under prf or sem, on a framework of maximum degree 5.

    The isolated probe e is the only possible size-1 witness; it stands
    alone exactly when no admissible set reaches the hub phi, which
    happens exactly when the formula is unsatisfiable.
    """
    sigma = _maximality_only(sigma)
    af = ArgumentationFramework(*_cnf_base(formula, include_e=True))
    return _cnf_output(small_instance(af, sigma, 1), "cnf-small", formula, k=1)


def gen_cnf_adjust(
    formula: ThreeCnfTwoFormula, sigma: Semantics | str = Semantics.PREFERRED
) -> GadgetOutput:
    """Encode unsatisfiability of formula as a target-flip question with
    budget 2 under prf or sem, on a framework of maximum degree 5.

    The probe e is dropped; a toggle pair t1/t2 (mutual attacks, t1 also
    mutual with the hub phi) plus one self-attacking anchor per toggle
    pins {t1} as an extension, and flipping t1 out within distance 2 is
    possible exactly when the formula is unsatisfiable.
    """
    sigma = _maximality_only(sigma)
    args, attacks = _cnf_base(formula, include_e=False)
    args += ["t1", "t1p", "t2", "t2p"]
    attacks += [
        ("t1", "phi"),
        ("phi", "t1"),
        ("t1", "t2"),
        ("t2", "t1"),
        ("t1", "t1p"),
        ("t2", "t2p"),
        ("t1p", "t1p"),
        ("t2p", "t2p"),
    ]
    af = ArgumentationFramework(args, attacks)
    instance = adjust_instance(af, af.set_of(["t1"]), "t1", sigma, 2)
    return _cnf_output(instance, "cnf-adjust", formula, k=2)


def gen_cnf_center(
    formula: ThreeCnfTwoFormula, sigma: Semantics | str = Semantics.PREFERRED
) -> GadgetOutput:
    """Encode unsatisfiability of formula as a centering question between
    two antipodal extensions at distance 6 under prf or sem, on a
    framework of maximum degree 5.

    Twelve new arguments form the mirrored triples {t,w1p,w2p} and
    {tp,w1,w2} (the endpoints) plus six self-attacking anchors that pin
    maximality; a strictly closer middle extension such as {w1,w2p}
    exists exactly when the formula is unsatisfiable.
    """
    sigma = _maximality_only(sigma)
    args, attacks = _cnf_base(formula, include_e=False)
    args += [
        "t",
        "tp",
        "w1",
        "w2",
        "w1p",
        "w2p",
        "z",
        "zp",
        "z1",
        "z1p",
        "z2",
        "z2p",
    ]
    attacks += [
        ("t", "z"),
        ("z", "z"),
        ("tp", "zp"),
        ("zp", "zp"),
        ("w1", "z1"),
        ("z1", "z1"),
        ("w1p", "z1p"),
        ("z1p", "z1p"),
        ("w2", "z2"),
        ("z2", "z2"),
        ("w2p", "z2p"),
        ("z2p", "z2p"),
        ("t", "phi"),
        ("phi", "t"),
        ("tp", "phi"),
        ("phi", "tp"),
        ("t", "tp"),
        ("tp", "t"),
        ("w1", "w1p"),
        ("w1p", "w1"),
        ("w2", "w2p"),
        ("w2p", "w2"),
        ("w1", "t"),
        ("w2", "t"),
        ("w1p", "tp"),
        ("w2p", "tp"),
    ]
    af = ArgumentationFramework(args, attacks)
    e1 = af.set_of(["t", "w1p", "w2p"])
    e2 = af.set_of(["tp", "w1", "w2"])
    if distance(e1, e2) != 6:
        raise ArgudynError("endpoint distance drifted from 6")
    instance = center_instance(af, e1, e2, sigma)
    return _cnf_output(instance, "cnf-center", formula, threshold=5)


# -- seeded source-object generators -----------------------------------------


def random_kpartite(
    rng: random.Random,
    k: int,
    max_part_size: int = 3,
    edge_prob: float = 0.5,
) -> KPartiteGraph:
    """Seeded graph source: k parts of size 1..max_part_size, each
    cross-part vertex pair becoming an edge with probability edge_prob."""
    if k < 1 or max_part_size < 1:
        raise ValueError("need k >= 1 and max_part_size >= 1")
    if not 0 <= edge_prob <= 1:  # NaN fails too
        raise ValueError(f"need 0 <= edge_prob <= 1, got {edge_prob}")
    parts: list[tuple[str, ...]] = []
    counter = 1
    for _ in range(k):
        size = rng.randint(1, max_part_size)
        parts.append(tuple(f"v{counter + idx}" for idx in range(size)))
        counter += size
    edges: set[frozenset[str]] = set()
    for i in range(k):
        for j in range(i + 1, k):
            for u in parts[i]:
                for v in parts[j]:
                    if rng.random() < edge_prob:
                        edges.add(frozenset((u, v)))
    return KPartiteGraph(tuple(parts), frozenset(edges))


def random_three_cnf_two(
    rng: random.Random, n: int, m: int
) -> ThreeCnfTwoFormula:
    """Seeded formula source honoring the occurrence cap by rejection;
    falls back to shorter clauses when a sampled one cannot be placed.
    A clause must leave one free literal occurrence per later clause; it
    is rejected after sampling, so formulas that fit anyway keep their
    random draws."""
    if n < 1 or m < 1:
        raise ValueError("need n >= 1 and m >= 1")
    if m > 4 * n:
        raise ValueError("the occurrence cap allows at most 4n clauses")
    counts: dict[int, int] = {}
    clauses: list[frozenset[int]] = []
    free = 4 * n
    for later in range(m - 1, -1, -1):
        placed = None
        preferred = rng.randint(1, min(3, n))
        for size in range(preferred, 0, -1):
            for _attempt in range(50):
                chosen = rng.sample(range(1, n + 1), size)
                clause = frozenset(
                    v if rng.random() < 0.5 else -v for v in chosen
                )
                if size <= free - later and all(counts.get(lit, 0) < 2 for lit in clause):
                    placed = clause
                    break
            if placed is not None:
                break
        if placed is None:
            capacity = [
                lit
                for v in range(1, n + 1)
                for lit in (v, -v)
                if counts.get(lit, 0) < 2
            ]
            placed = frozenset((rng.choice(capacity),))
        for lit in placed:
            counts[lit] = counts.get(lit, 0) + 1
        free -= len(placed)
        clauses.append(placed)
    return ThreeCnfTwoFormula(n, tuple(clauses))
