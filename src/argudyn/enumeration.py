"""The enumeration cap and the maximality-based membership checks (prf/sem)."""

from __future__ import annotations

import os

from .core import (
    ArgumentationFramework,
    ArgumentSet,
    adm_mask,
    attacked_mask,
    iter_bits,
)
from .errors import CapExceeded, InvalidCap

DEFAULT_ENUM_CAP = 20
ENUM_CAP_ENV = "ARGUDYN_ENUM_CAP"


def resolve_cap(cap: int | None) -> int:
    """Explicit cap, else the ARGUDYN_ENUM_CAP env var, else the default."""
    if cap is not None:
        if cap < 0:
            raise InvalidCap(f"enumeration cap {cap!r} is not a nonnegative integer")
        return cap
    env = os.environ.get(ENUM_CAP_ENV)
    if env is None:
        return DEFAULT_ENUM_CAP
    try:
        value = int(env)
    except ValueError:
        value = -1
    if value < 0:
        raise InvalidCap(f"{ENUM_CAP_ENV}={env!r} is not a nonnegative integer")
    return value


def _gate(af: ArgumentationFramework, cap: int | None) -> None:
    limit = resolve_cap(cap)
    if af.n > limit:
        raise CapExceeded(af.n, limit)


# -- maximality searches ----------------------------------------------------
#
# Membership in prf/sem needs a co-NP style check: no admissible superset /
# no admissible set with strictly larger range.  Both are decided by a
# backtracking search that grows a candidate set.  Each open set carries its
# threat: the attackers of its members that it does not attack yet.  The
# search branches on the defenders against the lowest argument of the threat
# (some member of any admissible superset must attack it), and once the
# threat is empty on the covers of an uncovered target.  So a step costs a
# few mask operations, not a scan of the set (the per-set bookkeeping of
# labelling-based backtracking: Nofal, Atkinson & Dunne, AIJ 2014).  A prf
# check runs the search from each outsider added to S, all with one failed
# memo; a sem check runs it once, for a set whose range holds S's range and
# more.  The search is exponential in the worst case, hence the same cap gate
# as the enumerator, but it follows the attack structure so it stays shallow
# on the generated hardness instances.  The delta walk calls these checks
# last in a prf/sem layer: on its admissible candidates in canonical order,
# until one passes.


def _grow_admissible(
    af: ArgumentationFramework,
    current: int,
    hit: int,
    cover: int,
    failed: set[int],
    reach: int = 0,
) -> bool:
    """True iff some admissible superset of current covers all of cover and,
    when reach is nonzero, has some argument of reach in its range.

    current must be conflict-free, and hit is the mask of what it attacks.
    cover is a mask of arguments that must be in the final set or attacked
    by it.  The depth-first search keeps each open set, what it attacks, its
    threat and the arguments it has still to try on an explicit stack, and
    adds to failed every set whose tries all failed; that depends only on
    the set, cover and reach, so searches with the same cover and reach can
    share it.
    """
    attackers = af.attackers
    targets = af.targets
    # any set whose range meets reach holds an argument of reach or one of
    # its attackers
    reach_options = 0
    for z in iter_bits(reach):
        reach_options |= attackers[z] | 1 << z
    threat = 0
    for i in iter_bits(current):
        threat |= attackers[i]
    threat &= ~hit
    stack: list[list[int]] = []
    node = current
    while True:
        if node not in failed:
            # try the defenders against the lowest threat, in canonical
            # order, else the first uncovered target and its attackers, else
            # a way into the range of reach
            if threat:
                options = attackers[(threat & -threat).bit_length() - 1]
            else:
                covered = node | hit
                uncovered = cover & ~covered
                if uncovered:
                    u = (uncovered & -uncovered).bit_length() - 1
                    options = attackers[u] | (1 << u)
                elif not reach or covered & reach:
                    return True
                else:
                    options = reach_options
            stack.append([node, hit, threat, options])
        while stack:
            frame = stack[-1]
            mask, hit, threat, options = frame
            while options:
                bit = options & -options
                options ^= bit
                w = bit.bit_length() - 1
                # an argument joins only if the set stays conflict-free; no
                # option is in mask already, as mask attacks none of them
                if not (attackers[w] | targets[w]) & (mask | bit):
                    break
            else:
                failed.add(mask)
                stack.pop()
                continue
            frame[3] = options
            node = mask | bit
            hit |= targets[w]
            threat = (threat | attackers[w]) & ~hit
            break
        else:
            return False


def preferred_mask(
    af: ArgumentationFramework, mask: int, cap: int | None = None
) -> bool:
    _gate(af, cap)
    if not adm_mask(af, mask):
        return False
    targets = af.targets
    hit = attacked_mask(af, mask)
    failed: set[int] = set()
    # an outsider that mask attacks can never join it
    for y in iter_bits(af.full_mask & ~(mask | hit)):
        seed = mask | 1 << y
        if not targets[y] & seed and _grow_admissible(
            af, seed, hit | targets[y], 0, failed
        ):
            return False
    return True


def semistable_mask(
    af: ArgumentationFramework, mask: int, cap: int | None = None
) -> bool:
    _gate(af, cap)
    if not adm_mask(af, mask):
        return False
    rng = mask | attacked_mask(af, mask)
    if rng == af.full_mask:
        return True
    # an admissible set whose range holds rng and more
    return not _grow_admissible(af, 0, 0, rng, set(), af.full_mask & ~rng)


def is_preferred(
    af: ArgumentationFramework, s: ArgumentSet, cap: int | None = None
) -> bool:
    """S admissible with no admissible strict superset."""
    if s.af != af:
        raise ValueError("argument set does not belong to this framework")
    return preferred_mask(af, s.mask, cap)


def is_semistable(
    af: ArgumentationFramework, s: ArgumentSet, cap: int | None = None
) -> bool:
    """S admissible with subset-maximal range among admissible sets."""
    if s.af != af:
        raise ValueError("argument set does not belong to this framework")
    return semistable_mask(af, s.mask, cap)
