"""Three decision routes for the Small/Repair/Adjust/Center problems.

Delta enumeration is the reference route: it walks candidate change sets in
canonical order and returns the first witness at the smallest distance
(ties broken by cardinality, then lexicographic argument order).  The
branching route handles Repair for adm/com/stb by flipping one argument per
budget unit.  The first-order route scans the open bodies of the problem
sentences that firstorder builds, over the distance layers delta walks, and
returns the first model of the first layer that has one, trying each of a
layer's witness sets once, as inside picks plus outside picks.  Delta and fo
read each problem from _spec and split each layer's flips by _splits.

Adjust and Center accept the empty set as a witness by default; pass
require_nonempty=True to restrict to nonempty witnesses (the reduction
equivalence checks in the gadget tests use that mode).

Each entry validates its question with its problem's instances constructor
and returns a YES witness only once check_witness, the paper's YES condition
stated once, passes it.  Delta and enumerate_extensions test membership with
sigma_member_mask; branching and check_witness read it off defect masks.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain, combinations, compress, repeat
from operator import add

from .core import (
    ArgumentationFramework,
    ArgumentSet,
    Semantics,
    adm_mask,
    cf_mask,
    com_mask,
    iter_bits,
    mask_key,
    stb_mask,
)
from .enumeration import cap_gate, preferred_mask, resolve_cap, semistable_mask
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
    cap_gate(af, cap)
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


def check_witness(
    instance: ProblemInstance, mask: int, require_nonempty: bool, engine: str
) -> None:
    """Raise NotAnExtension unless mask answers the instance YES: within k
    of the empty set (small), of S (repair) or of E0, flipping the target
    (adjust), or within |E1^E2| - 1 of both E1 and E2 (center); nonempty
    unless adjust or center allow the empty set; and, but for delta, whose
    walk chose mask by its membership test, with no adm/com/stb defect that
    one _scan finds."""
    af, kind, sigma = instance.framework, instance.kind, instance.semantics
    sets = (instance.s, instance.e0, instance.e1, instance.e2)
    ends = [e.mask for e in sets if e is not None] or [0]
    bound = instance.parameter() - (kind is ProblemKind.CENTER)
    t = instance.target
    empty_ok = kind in (ProblemKind.ADJUST, ProblemKind.CENTER) and not require_nonempty
    if (
        any((mask ^ end).bit_count() > bound for end in ends)
        or t is not None and not (mask ^ ends[0]) >> af.index_of(t) & 1
        or not (mask or empty_ok)
        or engine != "delta" and _moves(af, sigma, mask, _scan(af, mask)[1]) is not None
    ):
        raise NotAnExtension(
            f"the {engine} {kind.value} witness fails the YES check under {sigma.value}"
        )


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


def _spec(instance: ProblemInstance, require_nonempty: bool, cap: int | None) -> tuple:
    """The question as delta and fo both search it, once its endpoints are
    checked to be sigma-extensions: (anchor, first, last, inside, outside,
    allow_empty, unary).  A witness flips d = first..last arguments of the
    pools in anchor, split between them by _splits; last is cut at their
    size.  unary names the sets the fo sentences read.  Only adjust and
    center allow the empty set, unless require_nonempty.

      problem  anchor     d               inside      outside   endpoints
      small    {}         1..k            all
      repair   S          0..k            all
      adjust   E0 ^ {t}   0..k-1          all but t             E0
      center   E1         1..|E1^E2|-1    E1^E2       the rest  E1, E2
    """
    af, kind, k = instance.framework, instance.kind, instance.k
    sigma = instance.semantics
    everyone = list(range(af.n))
    # small's row; the others change what differs
    anchor, first, last, inside, outside = 0, 1, k, everyone, []
    allow_empty, unary, endpoints = False, {}, ()
    if kind is ProblemKind.REPAIR:
        anchor, first, unary = instance.s.mask, 0, {"S": instance.s}
    elif kind is ProblemKind.ADJUST:
        t = af.index_of(instance.target)
        anchor, first, last = instance.e0.mask ^ 1 << t, 0, k - 1
        inside = [i for i in everyone if i != t]
        unary, endpoints = {"E0": instance.e0, "T": (instance.target,)}, ("E0",)
    elif kind is ProblemKind.CENTER:
        e1, e2 = instance.e1, instance.e2
        diff = e1.mask ^ e2.mask
        inside = [i for i in everyone if diff >> i & 1]
        outside = [i for i in everyone if not diff >> i & 1]
        anchor, last = e1.mask, len(inside) - 1
        unary, endpoints = {"E1": e1, "E2": e2}, ("E1", "E2")
    for name in endpoints:
        if not sigma_member_mask(af, unary[name].mask, sigma, cap):
            raise NotAnExtension(f"{name} is not an extension under {sigma.value}")
    if kind in (ProblemKind.ADJUST, ProblemKind.CENTER):
        allow_empty = not require_nonempty
    last = min(last, len(inside) + len(outside))
    return anchor, first, last, inside, outside, allow_empty, unary


def _splits(d: int, inside: list[int], outside: list[int]) -> range:
    """The counts a of a layer's d flips that may come from inside, the rest
    from outside, fewest outside flips first.  b >= 1 flips outside need at
    least b+1 inside: center's witness then differs from E2 in at most
    |E1^E2| - a + b < |E1^E2| arguments.  Only center has an outside."""
    low = max(d - len(outside), min(d, d // 2 + 1))
    return range(min(d, len(inside)), low - 1, -1)


def _walk(
    instance: ProblemInstance, cap: int | None, require_nonempty: bool
) -> SolveResult:
    """Walk the conflict-free change sets of the question's spec, layer by
    layer.  The least sigma-extension of the first layer that holds any,
    under the canonical order, is the witness.
    """
    af, sigma = instance.framework, instance.semantics
    anchor, first, last, inside, outside, allow_empty, _ = _spec(
        instance, require_nonempty, cap
    )
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
    for d in range(first, last + 1):
        hits: list[int] = []
        for a in _splits(d, inside, outside):
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
                    hits.append(e)
                    if first_wins:
                        break
        hits.sort(key=mask_key)
        for e in hits:
            if not deferred or sigma_member_mask(af, e, sigma, cap):
                check_witness(instance, e, require_nonempty, "delta")
                return _result(af, e, stats, start)
    return _result(af, None, stats, start)


def solve_small(
    af: ArgumentationFramework, sigma: Semantics, k: int, cap: int | None = None
) -> SolveResult:
    """Is there a nonempty sigma-extension with at most k members?"""
    return _walk(small_instance(af, sigma, k), cap, True)


def solve_repair(
    af: ArgumentationFramework,
    s: ArgumentSet,
    sigma: Semantics,
    k: int,
    cap: int | None = None,
) -> SolveResult:
    """Is there a nonempty sigma-extension within distance k of S?"""
    return _walk(repair_instance(af, s, sigma, k), cap, True)


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
    return _walk(adjust_instance(af, e0, target, sigma, k), cap, require_nonempty)


def solve_center(
    af: ArgumentationFramework,
    e1: ArgumentSet,
    e2: ArgumentSet,
    sigma: Semantics,
    cap: int | None = None,
    require_nonempty: bool = False,
) -> SolveResult:
    """Is there a sigma-extension strictly closer than dist(E1,E2) to both?"""
    return _walk(center_instance(af, e1, e2, sigma), cap, require_nonempty)


# -- branching route for Repair ------------------------------------------------


# bytes of binary digits to bytes of 0/1 marks, and back
_MARKS = bytes.maketrans(b"01", b"\0\1")
_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mask_of(marks: bytearray) -> int:
    """The mask of a 0/1 mark per argument, read in one C-level step."""
    return int(marks[::-1].translate(_DIGITS), 2)


def _scan(af: ArgumentationFramework, e: int) -> tuple[int, tuple[int, ...]]:
    """e's attacked mask and its defect masks, as _defects finds them on the
    whole framework, in one O(n + m) pass: e's binary digits are read once,
    and each member's targets and attackers are walked through the
    framework's index tuples against 0/1 marks, where walking e's bits would
    copy the n-bit mask once per member."""
    n = af.n
    attackers = af.attacker_indices
    targets = af.target_indices
    inside = f"{e:0{n}b}"[::-1].encode().translate(_MARKS)
    # each mark array holds a trailing 0, so that it parses even when n = 0
    hit = bytearray(n + 1)
    clash = bytearray(n + 1)
    undefended = bytearray(n + 1)
    defended = bytearray(n + 1)
    members = list(compress(range(n), inside))
    for i in members:
        for t in targets[i]:
            hit[t] = 1
            if inside[t]:
                clash[i] = 1
    for i in members:
        for a in attackers[i]:
            if not hit[a]:
                undefended[i] = 1
                break
    attacked = _mask_of(hit)
    unattacked = af.full_mask & ~(e | attacked)
    # the defended ones among them, found at unattacked's 1 digits
    digits = f"{unattacked:0{n}b}"[::-1]
    z = digits.find("1")
    while z >= 0:
        for a in attackers[z]:
            if not hit[a]:
                break
        else:
            defended[z] = 1
        z = digits.find("1", z + 1)
    return attacked, (
        _mask_of(clash), _mask_of(undefended), unattacked, _mask_of(defended)
    )


def _defects(
    af: ArgumentationFramework, e: int, attacked: int, region: int, masks
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
    an uncovered outsider (stb), a defended outsider (com).
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

    S's defects are found once, by one O(n + m) scan.  Whether x is a
    defect depends only on the set at x, its attackers, its targets and its
    attackers' attackers, so a stack entry holds its flips, its last flip
    and its parent's set, attacked mask and defect masks, and the node looks
    again only at its last flip, that flip's attackers, its targets and
    their targets.  A nonempty set with no defect passes check_witness,
    which scans it again from scratch, before it is returned.
    """
    instance = repair_instance(af, s, sigma, k)
    sigma = instance.semantics
    if sigma.needs_maximality:
        raise UnsupportedSemantics(
            f"branching route supports adm, com, stb; got {sigma.value}"
        )
    start = time.perf_counter()
    stats = SolveStats()
    attackers = af.attackers
    targets = af.targets
    anchor = s.mask
    attacked, defects = _scan(af, anchor)
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
        if moves is None and e:
            check_witness(instance, e, True, "branching")
            return _result(af, e, stats, start)
        elif flips.bit_count() < k:
            for bit in reversed(moves or [1 << z for z in range(af.n)]):
                # never flip an argument twice, nor add one attacking itself
                if not (flips & bit or targets[bit.bit_length() - 1] & bit & ~e):
                    stack.append((flips | bit, bit, e, attacked, defects))
    return _result(af, None, stats, start)


# -- first-order route ----------------------------------------------------------
# firstorder is imported when an fo solve first runs; the other engines never
# load it.


def structure_of(af: ArgumentationFramework, **unary):
    """The instance structure of the fo scan (firstorder.structure_of)."""
    from . import firstorder

    return firstorder.structure_of(af, **unary)


@functools.cache
def _fo_program(build, *args):
    """The program of the layer body build(*args), compiled once per
    process and kept for every later solve of that shape: a patched
    builder is another key, and a program holds no structure."""
    from . import firstorder

    return firstorder.Program(*build(*args))


def _fo_scan(instance: ProblemInstance, require_nonempty: bool) -> SolveResult:
    """Scan the layers of the question's spec over the instance structure:
    each layer's open body from firstorder, as its cached program, tried on
    each set of the layer's flips once, as increasing picks of inside plus
    increasing picks of outside, split as delta splits them.  The first
    model of the first layer that has one names the arguments to flip in
    the anchor, and that set is checked again."""
    from . import firstorder

    af, sigma, kind = instance.framework, instance.semantics, instance.kind
    firstorder.sigma_of(sigma)  # raises UnsupportedSemantics for prf/sem
    anchor, first, last, inside, outside, allow_empty, unary = _spec(
        instance, require_nonempty, None
    )
    start = time.perf_counter()
    stats = SolveStats()
    st = structure_of(af, **unary)
    # each layer's body is build(*lead, d, *tail), read at solve time
    nonempty = (not allow_empty,)
    build, lead, tail = {
        ProblemKind.SMALL: (firstorder.small_body, (sigma,), ()),
        ProblemKind.REPAIR: (firstorder.repair_body, (sigma,), nonempty),
        ProblemKind.ADJUST: (firstorder.adjust_body, (sigma,), nonempty),
        ProblemKind.CENTER: (firstorder.center_body, (sigma, len(inside)), nonempty),
    }[kind]
    for d in range(first, last + 1):
        program = _fo_program(build, *lead, d, *tail)
        width = len(program.variables)  # d, the layer's flips
        # each set once, fewest outside flips first: for each split and each
        # pick of outside, the inside picks, joined at C level
        tuples = chain.from_iterable(
            map(add, combinations(inside, a), repeat(o))
            for a in _splits(width, inside, outside)
            for o in combinations(outside, width - a)
        )
        model, tried = program.first_model(st, tuples)
        stats.candidates += tried
        if model is not None:
            witness = anchor ^ af.mask_of(model.values())
            check_witness(instance, witness, require_nonempty, "fo")
            return _result(af, witness, stats, start)
    return _result(af, None, stats, start)


def fo_solve_small(
    af: ArgumentationFramework, sigma: Semantics, k: int
) -> SolveResult:
    return _fo_scan(small_instance(af, sigma, k), True)


def fo_solve_repair(
    af: ArgumentationFramework, s: ArgumentSet, sigma: Semantics, k: int
) -> SolveResult:
    """Repair via the corrected sentence: distance-d disjuncts, d = 0..k."""
    return _fo_scan(repair_instance(af, s, sigma, k), True)


def fo_solve_adjust(
    af: ArgumentationFramework,
    e0: ArgumentSet,
    target: str,
    sigma: Semantics,
    k: int,
    *,
    require_nonempty: bool = False,
) -> SolveResult:
    return _fo_scan(adjust_instance(af, e0, target, sigma, k), require_nonempty)


def fo_solve_center(
    af: ArgumentationFramework,
    e1: ArgumentSet,
    e2: ArgumentSet,
    sigma: Semantics,
    *,
    require_nonempty: bool = False,
) -> SolveResult:
    return _fo_scan(center_instance(af, e1, e2, sigma), require_nonempty)


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
