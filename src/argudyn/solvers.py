"""Three decision routes for the Small/Repair/Adjust/Center problems.

Delta enumeration is the reference route: it walks candidate change sets in
canonical order and returns the first witness at the smallest distance
(ties broken by cardinality, then lexicographic argument order).  The
branching route handles Repair for adm/com/stb by flipping one argument per
budget unit.  The first-order route scans the open bodies of the problem
sentences that firstorder builds, over the distance layers delta walks, and
returns the first model of the first layer that has one, trying each layer's
witness sets as strictly increasing tuples.

Adjust and Center accept the empty set as a witness by default; pass
require_nonempty=True to restrict to nonempty witnesses (the reduction
equivalence checks in the gadget tests use that mode).

Each entry validates its question with its problem's instances constructor.
enumerate_extensions lists a semantics' extensions through the same
membership check, sigma_member_mask, that the engines use.
"""

from __future__ import annotations

import time
from collections.abc import Iterator, Sequence
from dataclasses import dataclass, field
from itertools import combinations

from .core import (
    ArgumentationFramework,
    ArgumentSet,
    Semantics,
    adm_mask,
    attacked_mask,
    cf_mask,
    com_mask,
    iter_bits,
    mask_key,
    stb_mask,
)
from .enumeration import preferred_mask, resolve_cap, semistable_mask
from .errors import CapExceeded, NotAnExtension, UnsupportedSemantics
from .instances import (
    ProblemInstance,
    ProblemKind,
    adjust_instance,
    center_instance,
    repair_instance,
    small_instance,
)

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
    sigma = Semantics.parse(sigma)
    cap = resolve_cap(cap)
    if sigma is Semantics.ADMISSIBLE:
        return adm_mask(af, mask)
    if sigma is Semantics.COMPLETE:
        return com_mask(af, mask)
    if sigma is Semantics.STABLE:
        return stb_mask(af, mask)
    if sigma is Semantics.PREFERRED:
        return preferred_mask(af, mask, cap)
    return semistable_mask(af, mask, cap)


def _conflict_free_masks(af: ArgumentationFramework) -> list[int]:
    """All conflict-free subsets, one argument index at a time.

    Each set is followed by itself plus the next argument, when that stays
    conflict-free: the order of a depth-first search that leaves each
    argument out before taking it in."""
    attackers = af.attackers
    targets = af.targets
    out = [0]
    for i in range(af.n):
        bit = 1 << i
        if targets[i] & bit:
            continue  # a self-attacker is in no conflict-free set
        adj = attackers[i] | targets[i]
        grown: list[int] = []
        for mask in out:
            grown.append(mask)
            if not adj & mask:
                grown.append(mask | bit)
        out = grown
    return out


def enumerate_extensions(
    af: ArgumentationFramework, sigma: Semantics, cap: int | None = None
) -> tuple[ArgumentSet, ...]:
    """All sigma-extensions of af in canonical (cardinality, lexicographic)
    order: the conflict-free sets that pass sigma_member_mask."""
    cap = resolve_cap(cap)
    if af.n > cap:
        raise CapExceeded(af.n, cap)
    chosen = [
        m for m in _conflict_free_masks(af) if sigma_member_mask(af, m, sigma, cap)
    ]
    return tuple(ArgumentSet(af, m) for m in sorted(chosen, key=mask_key))


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


def _additions(
    af: ArgumentationFramework, base: int, stages: tuple[tuple[list[int], int], ...]
) -> Iterator[int]:
    """Yield base plus m arguments of pool for each (pool, m) of stages,
    skipping every set that is not conflict-free; base must be conflict-free.

    The picks of one stage take increasing positions in its pool, so each
    set comes once, in lexicographic order of the additions.  The open sets
    sit on an explicit stack with the next position each has to try.
    """
    attackers = af.attackers
    targets = af.targets
    # each pick: its pool, one past the last position it can take, and
    # whether it starts its stage
    picks = [
        (pool, len(pool) - m + t + 1, t == 0) for pool, m in stages for t in range(m)
    ]
    if not picks:
        yield base
        return
    last = len(picks) - 1
    stack = [[base, 0]]
    while stack:
        frame = stack[-1]
        mask, p = frame
        j = len(stack) - 1
        pool, end, _ = picks[j]
        while p < end:
            w = pool[p]
            p += 1
            bit = 1 << w
            if not (attackers[w] | targets[w]) & (mask | bit):
                break
        else:
            stack.pop()
            continue
        frame[1] = p
        if j == last:
            yield mask | bit
        else:
            stack.append([mask | bit, 0 if picks[j + 1][2] else p])


def _change_sets(
    af: ArgumentationFramework,
    anchor: int,
    pools: list[tuple[list[int], list[int]]],
    counts: tuple[int, int],
) -> Iterator[int]:
    """Yield the conflict-free sets that flip counts[j] arguments of the j-th
    pool in anchor.  A pool is (its members in anchor, the rest); removals
    are chosen first, and a kept set that is not conflict-free ends the
    branch."""
    (drop_in, add_in), (drop_out, add_out) = pools
    a, b = counts
    whole = cf_mask(af, anchor)  # then so is every kept set
    for r in range(max(0, a - len(add_in)), min(a, len(drop_in)) + 1):
        for q in range(max(0, b - len(add_out)), min(b, len(drop_out)) + 1):
            stages = ((add_in, a - r), (add_out, b - q))
            for gone in combinations(drop_in, r):
                for gone_out in combinations(drop_out, q):
                    kept = anchor
                    for i in gone + gone_out:
                        kept ^= 1 << i
                    if whole or cf_mask(af, kept):
                        yield from _additions(af, kept, stages)


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
    """Walk the conflict-free change sets of size d = first..last around
    anchor.

    A change set flips arguments of inside and outside; one with b flips in
    outside needs at least b+1 in inside.  The least sigma-extension of the
    first layer that holds any, under the canonical order, is the witness.
    """
    start = time.perf_counter()
    stats = SolveStats()
    cap = resolve_cap(cap)
    # the anchor's bits, read once: shifting a large anchor once per argument
    # would cost O(n) each time
    bits = f"{anchor:0{af.n}b}"[::-1]
    pools = [
        ([i for i in pool if bits[i] == "1"], [i for i in pool if bits[i] == "0"])
        for pool in (inside, outside)
    ]
    # With one pool that misses the anchor, the walk only adds arguments: a
    # layer's candidates share one size and come in canonical order, so the
    # first member found is the least.
    first_wins = not outside and not pools[0][0]
    # Otherwise a prf/sem layer keeps its admissible candidates and runs the
    # costly maximality check last, in canonical order, until one passes.
    deferred = not first_wins and sigma.needs_maximality
    for d in range(first, min(last, len(inside) + len(outside)) + 1):
        hits: list[int] = []
        low = (d + 2) // 2 if outside else d
        for a in range(max(low, d - len(outside)), min(d, len(inside)) + 1):
            for e in _change_sets(af, anchor, pools, (a, d - a)):
                stats.candidates += 1
                if not (e or allow_empty):
                    continue
                if deferred:
                    # where the maximality check's cap gate would raise
                    if af.n > cap:
                        raise CapExceeded(af.n, cap)
                    if adm_mask(af, e):
                        hits.append(e)
                elif sigma_member_mask(af, e, sigma, cap):
                    if first_wins:
                        return _result(af, e, stats, start)
                    hits.append(e)
        hits.sort(key=mask_key)
        for e in hits:
            if not deferred or sigma_member_mask(af, e, sigma, cap):
                return _result(af, e, stats, start)
    return _result(af, None, stats, start)


def solve_small(
    af: ArgumentationFramework, sigma: Semantics, k: int, cap: int | None = None
) -> SolveResult:
    """Is there a nonempty sigma-extension with at most k members?"""
    sigma = small_instance(af, sigma, k).semantics
    return _walk(af, sigma, cap, 0, 1, k, range(af.n))


def solve_repair(
    af: ArgumentationFramework,
    s: ArgumentSet,
    sigma: Semantics,
    k: int,
    cap: int | None = None,
) -> SolveResult:
    """Is there a nonempty sigma-extension within distance k of S?"""
    sigma = repair_instance(af, s, sigma, k).semantics
    return _walk(af, sigma, cap, s.mask, 0, k, range(af.n))


def _validate_extension(
    af: ArgumentationFramework,
    e: ArgumentSet,
    sigma: Semantics,
    label: str,
    cap: int | None = None,
) -> None:
    if not sigma_member_mask(af, e.mask, sigma, cap):
        raise NotAnExtension(f"{label} is not an extension under {sigma.value}")


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
    sigma = adjust_instance(af, e0, target, sigma, k).semantics
    t = af.index_of(target)
    _validate_extension(af, e0, sigma, "E0", cap)
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
    sigma = center_instance(af, e1, e2, sigma).semantics
    _validate_extension(af, e1, sigma, "E1", cap)
    _validate_extension(af, e2, sigma, "E2", cap)
    diff = e1.mask ^ e2.mask
    w = [i for i in range(af.n) if diff >> i & 1]
    rest = [i for i in range(af.n) if not diff >> i & 1]
    return _walk(
        af, sigma, cap, e1.mask, 1, len(w) - 1, w, rest,
        allow_empty=not require_nonempty,
    )


# -- branching route for Repair ------------------------------------------------


def _defects(
    af: ArgumentationFramework, e: int, attacked: int, region: int, masks=(0,) * 4
) -> tuple[int, ...]:
    """The defect masks of e, given the arguments it attacks: its clash
    sources (members attacking a member), undefended members, unattacked
    outsiders and the defended ones among those; found on region and taken
    from masks everywhere else."""
    attackers = af.attackers
    targets = af.targets
    free = ~attacked
    clash, undefended, unattacked, defended = (m & ~region for m in masks)
    for x in iter_bits(region):
        bit = 1 << x
        if e & bit:
            if targets[x] & e:
                clash |= bit
            if attackers[x] & free:
                undefended |= bit
        elif not attacked & bit:
            unattacked |= bit
            if not attackers[x] & free:
                defended |= bit
    return clash, undefended, unattacked, defended


def _moves(
    af: ArgumentationFramework, sigma: Semantics, e: int, defects: tuple[int, ...]
) -> list[int] | None:
    """The first defect of e, the lowest argument of the first nonzero of its
    defect masks, as its ordered repair moves: each the bit of one argument
    to flip in e.  None when e has no defect.

    The defects, checked in order: an attack inside e, an undefended member,
    an uncovered outsider (stb), a defended outsider (com), emptiness.
    """
    attackers = af.attackers
    clash, undefended, unattacked, defended = defects
    if clash:
        # the first attack inside e in (source, target) order: the lowest
        # member attacking a member, then the lowest member it attacks
        i = clash & -clash
        hit = af.targets[i.bit_length() - 1] & e
        j = hit & -hit
        return [i] if i == j else [i, j]
    if undefended:
        i = (undefended & -undefended).bit_length() - 1
        # drop i, or add an attacker of the lowest attacker of i that e
        # leaves unattacked
        z = next(z for z in iter_bits(attackers[i]) if not attackers[z] & e)
        return [1 << i] + [1 << w for w in iter_bits(attackers[z])]
    if sigma is Semantics.STABLE and unattacked:
        z = (unattacked & -unattacked).bit_length() - 1
        return [1 << w for w in iter_bits(attackers[z] | 1 << z)]
    if sigma is Semantics.COMPLETE and defended:
        # take z in, or drop a defender
        z = (defended & -defended).bit_length() - 1
        defenders = 0
        for a in iter_bits(attackers[z]):
            defenders |= attackers[a]
        return [1 << z] + [1 << d for d in iter_bits(defenders & e)]
    if not e:
        return [1 << z for z in range(af.n)]
    return None


def solve_repair_branching(
    af: ArgumentationFramework,
    s: ArgumentSet,
    sigma: Semantics,
    k: int,
) -> SolveResult:
    """Repair by depth-first flip branching; adm/com/stb only.

    Every branch flips one argument, costing one unit of the distance
    budget, so the tree depth is at most k and the width is bounded by the
    attack degrees (plus one linear emptiness branch when the candidate goes
    empty).  No argument flips twice, and none that attacks itself enters.
    The open nodes sit on an explicit stack, children pushed in reverse so
    that they are visited in move order.

    S's defects are found once.  Whether x is a defect depends only on the
    set at x, its attackers, its targets and its attackers' attackers, so a
    stack entry holds its flips, its last flip and its parent's set,
    attacked mask and defect masks, and the node looks again only at its
    last flip, that flip's attackers, its targets and their targets.
    """
    sigma = repair_instance(af, s, sigma, k).semantics
    if sigma.needs_maximality:
        raise UnsupportedSemantics(
            f"branching route supports adm, com, stb; got {sigma.value}"
        )
    start = time.perf_counter()
    stats = SolveStats()
    attackers = af.attackers
    targets = af.targets
    anchor = s.mask
    attacked = attacked_mask(af, anchor)
    # an attacked outsider has no defect, so the scan skips them
    defects = _defects(af, anchor, attacked, af.full_mask & (anchor | ~attacked))
    stack = [(0, 0, anchor, attacked, defects)]
    while stack:
        flips, bit, e, attacked, defects = stack.pop()
        stats.nodes += 1
        if bit:
            x = bit.bit_length() - 1
            e ^= bit
            # only the flip's targets can change whether e attacks them
            hit = targets[x]
            attacked &= ~hit
            region = bit | attackers[x] | hit
            for t in iter_bits(hit):
                region |= targets[t]
                if attackers[t] & e:
                    attacked |= 1 << t
            defects = _defects(af, e, attacked, region, defects)
        moves = _moves(af, sigma, e, defects)
        if moves is None:
            if sigma_member_mask(af, e, sigma):
                return _result(af, e, stats, start)
        elif flips.bit_count() < k:
            for bit in reversed(moves):
                # never flip an argument twice, nor add one attacking itself
                if not (flips & bit or targets[bit.bit_length() - 1] & bit & ~e):
                    stack.append((flips | bit, bit, e, attacked, defects))
    return _result(af, None, stats, start)


# -- first-order route ----------------------------------------------------------
# firstorder is imported when an fo solve first runs; the other engines never
# load it.


def _firstorder(sigma: Semantics):
    """The firstorder module; raises UnsupportedSemantics for prf/sem."""
    from . import firstorder

    firstorder.sigma_of(sigma)
    return firstorder


def structure_of(af: ArgumentationFramework, **unary):
    """The instance structure of the fo scan (firstorder.structure_of)."""
    from . import firstorder

    return firstorder.structure_of(af, **unary)


def _fo_scan(instance: ProblemInstance, anchor: int, layers, **unary) -> SolveResult:
    """Scan the layers, (witness variables, open body) pairs, in order over
    the instance structure; the first model of the first layer that has one
    names the arguments to flip in anchor, and that set is checked again.
    The entries build the layers lazily, with the distances delta walks."""
    from .firstorder import first_model

    start = time.perf_counter()
    stats = SolveStats()
    af, sigma = instance.framework, instance.semantics
    st = structure_of(af, **unary)
    for variables, body in layers:
        model, tried = first_model(st, body, variables)
        stats.candidates += tried
        if model is not None:
            result = _result(af, anchor ^ af.mask_of(model.values()), stats, start)
            label = f"the fo {instance.kind.value} witness"
            _validate_extension(af, result.witness, sigma, label)
            return result
    return _result(af, None, stats, start)


def fo_solve_small(
    af: ArgumentationFramework, sigma: Semantics, k: int
) -> SolveResult:
    instance = small_instance(af, sigma, k)
    sigma = instance.semantics
    fo = _firstorder(sigma)
    layers = (fo.small_body(sigma, d) for d in range(1, min(k, af.n) + 1))
    return _fo_scan(instance, 0, layers)


def fo_solve_repair(
    af: ArgumentationFramework, s: ArgumentSet, sigma: Semantics, k: int
) -> SolveResult:
    """Repair via the corrected sentence: distance-d disjuncts, d = 0..k."""
    instance = repair_instance(af, s, sigma, k)
    sigma = instance.semantics
    fo = _firstorder(sigma)
    widths = range(min(k, af.n) + 1)
    layers = (fo.repair_body(sigma, d, require_nonempty=True) for d in widths)
    return _fo_scan(instance, s.mask, layers, S=s)


def fo_solve_adjust(
    af: ArgumentationFramework,
    e0: ArgumentSet,
    target: str,
    sigma: Semantics,
    k: int,
    *,
    require_nonempty: bool = False,
) -> SolveResult:
    instance = adjust_instance(af, e0, target, sigma, k)
    sigma = instance.semantics
    fo = _firstorder(sigma)
    _validate_extension(af, e0, sigma, "E0")
    layers = (fo.adjust_body(sigma, d, require_nonempty) for d in range(min(k, af.n)))
    anchor = e0.mask ^ 1 << af.index_of(target)
    return _fo_scan(instance, anchor, layers, E0=e0, T=(target,))


def fo_solve_center(
    af: ArgumentationFramework,
    e1: ArgumentSet,
    e2: ArgumentSet,
    sigma: Semantics,
    *,
    require_nonempty: bool = False,
) -> SolveResult:
    instance = center_instance(af, e1, e2, sigma)
    sigma = instance.semantics
    fo = _firstorder(sigma)
    _validate_extension(af, e1, sigma, "E1")
    _validate_extension(af, e2, sigma, "E2")
    k = (e1.mask ^ e2.mask).bit_count()
    layers = (fo.center_body(sigma, k, d, require_nonempty) for d in range(1, k))
    return _fo_scan(instance, e1.mask, layers, E1=e1, E2=e2)


# -- dispatcher ------------------------------------------------------------------


def solve_instance(
    instance: ProblemInstance,
    engine: str = "delta",
    cap: int | None = None,
    require_nonempty: bool = False,
) -> SolveResult:
    """Route an instance to the requested engine.  Only delta takes a cap;
    small and repair accept require_nonempty, as their witnesses are never
    empty."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    if cap is not None and engine != "delta":
        raise ValueError(f"the {engine} engine takes no cap")
    af = instance.framework
    sigma = instance.semantics
    kind = instance.kind
    if engine == "branching":
        if kind is not ProblemKind.REPAIR:
            raise ValueError("branching engine handles only repair")
        return solve_repair_branching(af, instance.s, sigma, instance.k)
    if engine == "fo":
        small, repair = fo_solve_small, fo_solve_repair
        adjust, center = fo_solve_adjust, fo_solve_center
        opts = {}
    else:
        small, repair = solve_small, solve_repair
        adjust, center = solve_adjust, solve_center
        opts = {"cap": cap}
    if kind is ProblemKind.SMALL:
        return small(af, sigma, instance.k, **opts)
    if kind is ProblemKind.REPAIR:
        return repair(af, instance.s, sigma, instance.k, **opts)
    if kind is ProblemKind.ADJUST:
        return adjust(
            af, instance.e0, instance.target, sigma, instance.k,
            require_nonempty=require_nonempty, **opts,
        )
    return center(
        af, instance.e1, instance.e2, sigma, require_nonempty=require_nonempty,
        **opts,
    )
