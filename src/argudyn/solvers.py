"""Three decision routes for the Small/Repair/Adjust/Center problems.

Delta enumeration is the reference route: it walks candidate change sets in
canonical order and returns the first witness at the smallest distance
(ties broken by cardinality, then lexicographic argument order).  The
branching route handles Repair for adm/com/stb by committing arguments in
or out, one budget unit per commitment.  The first-order route evaluates
the problem sentences over the instance structure.

Adjust and Center accept the empty set as a witness by default; pass
require_nonempty=True to restrict to nonempty witnesses (the reduction
equivalence checks in the gadget tests use that mode).
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import combinations, product

from .core import (
    ArgumentationFramework,
    ArgumentSet,
    Semantics,
    adm_mask,
    attacked_mask,
    com_mask,
    iter_bits,
    stb_mask,
)
from .enumeration import preferred_mask, resolve_cap, semistable_mask
from .errors import NotAnExtension, UnsupportedSemantics
from .firstorder import (
    App1,
    And,
    Exists,
    _compile,
    _set_pred,
    _sym_diff_pred,
    at_most,
    sigma_of,
    structure_of,
    unary_pred,
)
from .instances import ProblemInstance, ProblemKind

ENGINES = ("delta", "branching", "fo")


@dataclass
class SolveStats:
    candidates: int = 0
    nodes: int = 0
    seconds: float = 0.0


@dataclass
class SolveResult:
    answer: bool
    witness: ArgumentSet | None
    stats: SolveStats = field(default_factory=SolveStats)


def sigma_member_mask(
    af: ArgumentationFramework, mask: int, sigma: Semantics, cap: int | None = None
) -> bool:
    """Membership of a set (as mask) in sigma(af)."""
    if sigma is Semantics.ADMISSIBLE:
        return adm_mask(af, mask)
    if sigma is Semantics.COMPLETE:
        return com_mask(af, mask)
    if sigma is Semantics.STABLE:
        return stb_mask(af, mask)
    if sigma is Semantics.PREFERRED:
        return preferred_mask(af, mask, cap)
    return semistable_mask(af, mask, cap)


def _canonical_min(af: ArgumentationFramework, masks: list[int]) -> int:
    return min(masks, key=lambda m: (m.bit_count(), tuple(iter_bits(m))))


def _result(
    af: ArgumentationFramework,
    witness_mask: int | None,
    stats: SolveStats,
    start: float,
) -> SolveResult:
    stats.seconds = time.perf_counter() - start
    if witness_mask is None:
        return SolveResult(False, None, stats)
    return SolveResult(True, ArgumentSet(af, witness_mask), stats)


# -- delta enumeration --------------------------------------------------------


def _solve_cap(sigma: Semantics, cap: int | None) -> int | None:
    """The cap a prf/sem solve uses, read once; other semantics ignore it."""
    if sigma in (Semantics.PREFERRED, Semantics.SEMI_STABLE):
        return resolve_cap(cap)
    return cap


def _walk(
    af: ArgumentationFramework,
    sigma: Semantics,
    cap: int | None,
    anchor: int,
    first: int,
    last: int,
    inside: Sequence[int],
    outside: Sequence[int] = (),
    allow_empty: bool = False,
) -> SolveResult:
    """Walk the change sets of size d = first..last around anchor.

    A change set flips arguments of inside and outside; one with b flips in
    outside needs at least b+1 in inside.  The least sigma-extension of the
    first layer that holds any, under the canonical order, is the witness.
    """
    start = time.perf_counter()
    stats = SolveStats()
    cap = _solve_cap(sigma, cap)
    # With one pool that misses the anchor, the walk only adds arguments: a
    # layer's candidates share one size and come in canonical order, so the
    # first member found is the least.
    first_wins = not outside and not (anchor and any(anchor >> i & 1 for i in inside))
    for d in range(first, min(last, len(inside) + len(outside)) + 1):
        hits: list[int] = []
        low = (d + 2) // 2 if outside else d
        for a in range(max(low, d - len(outside)), min(d, len(inside)) + 1):
            for flips in combinations(inside, a):
                head = anchor
                for i in flips:
                    head ^= 1 << i
                for more in combinations(outside, d - a):
                    stats.candidates += 1
                    e = head
                    for i in more:
                        e ^= 1 << i
                    if (e or allow_empty) and sigma_member_mask(af, e, sigma, cap):
                        if first_wins:
                            return _result(af, e, stats, start)
                        hits.append(e)
        if hits:
            return _result(af, _canonical_min(af, hits), stats, start)
    return _result(af, None, stats, start)


def solve_small(
    af: ArgumentationFramework, sigma: Semantics, k: int, cap: int | None = None
) -> SolveResult:
    """Is there a nonempty sigma-extension with at most k members?"""
    if k < 0:
        raise ValueError("k must be nonnegative")
    return _walk(af, sigma, cap, 0, 1, k, range(af.n))


def solve_repair(
    af: ArgumentationFramework,
    s: ArgumentSet,
    sigma: Semantics,
    k: int,
    cap: int | None = None,
) -> SolveResult:
    """Is there a nonempty sigma-extension within distance k of S?"""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if s.af != af:
        raise ValueError("start set does not belong to the framework")
    return _walk(af, sigma, cap, s.mask, 0, k, range(af.n))


def _validate_extension(
    af: ArgumentationFramework,
    e: ArgumentSet,
    sigma: Semantics,
    cap: int | None,
    label: str,
) -> None:
    if not sigma_member_mask(af, e.mask, sigma, cap):
        raise NotAnExtension(f"{label} is not a {sigma.value}-extension")


def solve_adjust(
    af: ArgumentationFramework,
    e0: ArgumentSet,
    target: str,
    sigma: Semantics,
    k: int,
    cap: int | None = None,
    require_nonempty: bool = False,
) -> SolveResult:
    """Is there a sigma-extension within distance k of E0 that flips target?"""
    if k < 0:
        raise ValueError("k must be nonnegative")
    if e0.af != af:
        raise ValueError("start extension does not belong to the framework")
    t = af.index_of(target)
    cap = _solve_cap(sigma, cap)
    _validate_extension(af, e0, sigma, cap, "E0")
    others = [i for i in range(af.n) if i != t]
    return _walk(
        af, sigma, cap, e0.mask ^ 1 << t, 0, k - 1, others,
        allow_empty=not require_nonempty,
    )


def solve_center(
    af: ArgumentationFramework,
    e1: ArgumentSet,
    e2: ArgumentSet,
    sigma: Semantics,
    cap: int | None = None,
    require_nonempty: bool = False,
) -> SolveResult:
    """Is there a sigma-extension strictly closer than dist(E1,E2) to both?

    The change-set parameter is k = dist(E1, E2).  Candidates are deltas
    around E1; a delta with a members inside E1^E2 and b outside satisfies
    the E2-side bound exactly when b <= a-1, so only those are walked.
    """
    if e1.af != af or e2.af != af:
        raise ValueError("endpoint sets do not belong to the framework")
    cap = _solve_cap(sigma, cap)
    _validate_extension(af, e1, sigma, cap, "E1")
    _validate_extension(af, e2, sigma, cap, "E2")
    diff = e1.mask ^ e2.mask
    w = [i for i in range(af.n) if diff >> i & 1]
    rest = [i for i in range(af.n) if not diff >> i & 1]
    return _walk(
        af, sigma, cap, e1.mask, 1, len(w) - 1, w, rest,
        allow_empty=not require_nonempty,
    )


# -- branching route for Repair ------------------------------------------------


def solve_repair_branching(
    af: ArgumentationFramework,
    s: ArgumentSet,
    sigma: Semantics,
    k: int,
) -> SolveResult:
    """Repair by depth-first commitment branching; adm/com/stb only.

    Every branch commits one argument against its current side, costing one
    unit of the distance budget, so the tree depth is at most k and the
    width is bounded by the attack degrees (plus one linear emptiness
    branch when the candidate goes empty).
    """
    if sigma not in (Semantics.ADMISSIBLE, Semantics.COMPLETE, Semantics.STABLE):
        raise UnsupportedSemantics(
            f"branching route supports adm, com, stb; got {sigma.value}"
        )
    if k < 0:
        raise ValueError("k must be nonnegative")
    if s.af != af:
        raise ValueError("start set does not belong to the framework")
    start = time.perf_counter()
    stats = SolveStats()
    base = s.mask
    full = af.full_mask
    attackers = af._attackers
    targets = af._targets
    pairs = [
        (af.index_of(a), af.index_of(b)) for a, b in af.sorted_attacks()
    ]

    def checker(mask: int) -> bool:
        if sigma is Semantics.ADMISSIBLE:
            return adm_mask(af, mask)
        if sigma is Semantics.COMPLETE:
            return com_mask(af, mask)
        return stb_mask(af, mask)

    def search(cin: int, cout: int, budget: int) -> int | None:
        stats.nodes += 1
        e = cin | (base & ~cout)

        # 1: internal conflict
        for i, j in pairs:
            if e >> i & 1 and e >> j & 1:
                for x in ((i,) if i == j else (i, j)):
                    if cin >> x & 1 or budget == 0:
                        continue
                    r = search(cin, cout | 1 << x, budget - 1)
                    if r is not None:
                        return r
                return None

        # 2: undefended member
        attacked = attacked_mask(af, e)
        for i in iter_bits(e):
            hole = attackers[i] & ~attacked
            if not hole:
                continue
            z = (hole & -hole).bit_length() - 1
            if budget > 0:
                if not cin >> i & 1:
                    r = search(cin, cout | 1 << i, budget - 1)
                    if r is not None:
                        return r
                for wbit in iter_bits(attackers[z]):
                    b = 1 << wbit
                    if cout & b or targets[wbit] & b:
                        continue
                    r = search(cin | b, cout, budget - 1)
                    if r is not None:
                        return r
            return None

        # 3: semantics-specific outsiders
        if sigma is Semantics.STABLE:
            uncovered = full & ~(e | attacked)
            if uncovered:
                z = (uncovered & -uncovered).bit_length() - 1
                if budget > 0:
                    for wbit in iter_bits(attackers[z] | 1 << z):
                        b = 1 << wbit
                        if cout & b or targets[wbit] & b or e & b:
                            continue
                        r = search(cin | b, cout, budget - 1)
                        if r is not None:
                            return r
                return None
        elif sigma is Semantics.COMPLETE:
            for z in iter_bits(full & ~e):
                if attackers[z] & ~attacked:
                    continue
                # z is a defended outsider: take it in, or drop a defender
                if budget > 0:
                    zb = 1 << z
                    if not (cout & zb or targets[z] & zb):
                        r = search(cin | zb, cout, budget - 1)
                        if r is not None:
                            return r
                    defenders = 0
                    for a in iter_bits(attackers[z]):
                        defenders |= e & attackers[a]
                    for d in iter_bits(defenders & ~cin):
                        r = search(cin, cout | 1 << d, budget - 1)
                        if r is not None:
                            return r
                return None

        # 4: nonemptiness
        if e == 0:
            if budget > 0:
                for z in range(af.n):
                    b = 1 << z
                    if cout & b or targets[z] & b:
                        continue
                    r = search(b | cin, cout, budget - 1)
                    if r is not None:
                        return r
            return None

        return e if checker(e) else None

    witness = search(0, 0, k)
    return _result(af, witness, stats, start)


# -- first-order route ----------------------------------------------------------


def _fo_gate(sigma: Semantics) -> None:
    sigma_of(sigma)  # raises UnsupportedSemantics for prf/sem


def _run_product(st, inner, free_vars, n, stats) -> int | None:
    """Compile inner over the named free variables and scan assignments;
    the set of values of the first satisfying one, as a mask, or None."""
    slots = {v: i for i, v in enumerate(free_vars)}
    counter = [len(free_vars)]
    fn = _compile(inner, slots, st, counter)
    env = [0] * counter[0]
    width = len(free_vars)
    for vals in product(range(n), repeat=width):
        env[:width] = vals
        stats.candidates += 1
        if fn(env):
            mask = 0
            for v in vals:
                mask |= 1 << v
            return mask
    return None


def fo_solve_small(
    af: ArgumentationFramework, sigma: Semantics, k: int
) -> SolveResult:
    _fo_gate(sigma)
    start = time.perf_counter()
    stats = SolveStats()
    if k < 1 or af.n == 0:
        return _result(af, None, stats, start)
    kk = min(k, af.n)
    vs = tuple(f"x{i}" for i in range(1, kk + 1))
    inner = sigma_of(sigma)(_set_pred(vs))
    st = structure_of(af)
    return _result(af, _run_product(st, inner, vs, af.n, stats), stats, start)


def fo_solve_repair(
    af: ArgumentationFramework, s: ArgumentSet, sigma: Semantics, k: int
) -> SolveResult:
    """Repair via the corrected sentence: distance-l disjuncts, l = 0..k."""
    _fo_gate(sigma)
    if s.af != af:
        raise ValueError("start set does not belong to the framework")
    start = time.perf_counter()
    stats = SolveStats()
    st = structure_of(af, S=s)
    build = sigma_of(sigma)
    if af.n == 0:
        return _result(af, None, stats, start)
    # l = 0
    stats.candidates += 1
    inner0 = And((build(unary_pred("S")), Exists("y0", App1("S", "y0"))))
    if _eval_closed(st, inner0):
        return _result(af, s.mask, stats, start)
    for l in range(1, min(k, af.n) + 1):
        vs = tuple(f"x{i}" for i in range(1, l + 1))
        pred = _sym_diff_pred(unary_pred("S"), _set_pred(vs))
        inner = And((build(pred),) + _nonempty(pred, True))
        delta = _run_product(st, inner, vs, af.n, stats)
        if delta is not None:
            return _result(af, s.mask ^ delta, stats, start)
    return _result(af, None, stats, start)


def _nonempty(pred, required: bool) -> tuple:
    """The conjunct "the witness set is nonempty", when it is required."""
    return (Exists("y0", pred("y0")),) if required else ()


def _eval_closed(st, f) -> bool:
    counter = [0]
    fn = _compile(f, {}, st, counter)
    return fn([0] * max(counter[0], 1))


def fo_solve_adjust(
    af: ArgumentationFramework,
    e0: ArgumentSet,
    target: str,
    sigma: Semantics,
    k: int,
    cap: int | None = None,
    require_nonempty: bool = False,
) -> SolveResult:
    _fo_gate(sigma)
    if e0.af != af:
        raise ValueError("start extension does not belong to the framework")
    t = af.index_of(target)
    _validate_extension(af, e0, sigma, cap, "E0")
    start = time.perf_counter()
    stats = SolveStats()
    if k < 1:
        return _result(af, None, stats, start)
    kk = min(k, af.n)
    vs = ("t",) + tuple(f"x{i}" for i in range(1, kk))
    e_pred = _sym_diff_pred(unary_pred("E0"), _set_pred(vs))
    inner = And(
        (App1("T", "t"), sigma_of(sigma)(e_pred))
        + _nonempty(e_pred, require_nonempty)
    )
    st = structure_of(af, E0=e0, T=(target,))
    delta = _run_product(st, inner, vs, af.n, stats)
    return _result(af, None if delta is None else e0.mask ^ delta, stats, start)


def fo_solve_center(
    af: ArgumentationFramework,
    e1: ArgumentSet,
    e2: ArgumentSet,
    sigma: Semantics,
    cap: int | None = None,
    require_nonempty: bool = False,
) -> SolveResult:
    _fo_gate(sigma)
    if e1.af != af or e2.af != af:
        raise ValueError("endpoint sets do not belong to the framework")
    _validate_extension(af, e1, sigma, cap, "E1")
    _validate_extension(af, e2, sigma, cap, "E2")
    start = time.perf_counter()
    stats = SolveStats()
    k = (e1.mask ^ e2.mask).bit_count()
    if k < 2:
        return _result(af, None, stats, start)
    kk = min(k - 1, af.n)
    vs = tuple(f"x{i}" for i in range(1, kk + 1))
    e_pred = _sym_diff_pred(unary_pred("E1"), _set_pred(vs))
    inner = And(
        (
            sigma_of(sigma)(e_pred),
            at_most(_sym_diff_pred(e_pred, unary_pred("E2")), k - 1),
        )
        + _nonempty(e_pred, require_nonempty)
    )
    st = structure_of(af, E1=e1, E2=e2)
    delta = _run_product(st, inner, vs, af.n, stats)
    return _result(af, None if delta is None else e1.mask ^ delta, stats, start)


# -- dispatcher ------------------------------------------------------------------


def solve_instance(
    instance: ProblemInstance,
    engine: str = "delta",
    cap: int | None = None,
    require_nonempty: bool = False,
) -> SolveResult:
    """Route an instance to the requested engine."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    af = instance.framework
    sigma = instance.semantics
    kind = instance.kind
    if engine == "branching":
        if kind is not ProblemKind.REPAIR:
            raise ValueError("branching engine handles only repair")
        return solve_repair_branching(af, instance.s, sigma, instance.k)
    if engine == "fo":
        _fo_gate(sigma)
        if kind is ProblemKind.SMALL:
            return fo_solve_small(af, sigma, instance.k)
        if kind is ProblemKind.REPAIR:
            return fo_solve_repair(af, instance.s, sigma, instance.k)
        adjust, center = fo_solve_adjust, fo_solve_center
    else:
        if kind is ProblemKind.SMALL:
            return solve_small(af, sigma, instance.k, cap)
        if kind is ProblemKind.REPAIR:
            return solve_repair(af, instance.s, sigma, instance.k, cap)
        adjust, center = solve_adjust, solve_center
    if kind is ProblemKind.ADJUST:
        return adjust(
            af, instance.e0, instance.target, sigma, instance.k, cap,
            require_nonempty,
        )
    return center(af, instance.e1, instance.e2, sigma, cap, require_nonempty)
