"""The enumeration cap and the maximality-based membership checks (prf/sem)."""

from __future__ import annotations

from .core import (
    ArgumentationFramework,
    ArgumentSet,
    adm_mask,
    attacked_mask,
    iter_bits,
    mask_in,
)
from .errors import CapExceeded, InvalidCap

DEFAULT_ENUM_CAP = 20


def resolve_cap(cap: int | None) -> int:
    """The explicit cap, a nonnegative int and not a bool, else the default."""
    if cap is None:
        return DEFAULT_ENUM_CAP
    if type(cap) is not int or cap < 0:
        raise InvalidCap(f"enumeration cap {cap!r} is not a nonnegative integer")
    return cap


def cap_gate(af: ArgumentationFramework, cap: int | None) -> None:
    limit = resolve_cap(cap)
    if af.n > limit:
        raise CapExceeded(af.n, limit)


# -- maximality searches ----------------------------------------------------
#
# Membership in prf/sem is a co-NP style question: is there an admissible set
# whose range reaches past S's range?  For prf it must hold S (a strict
# superset of S is conflict-free, so its range meets what S's range misses);
# for sem it may be any set.  So each check is one backtracking search, from
# S for prf and from the empty set for sem, with its own failed memo.  Each
# open set carries its threat: the attackers of its members that it does not
# attack yet.  The search branches on the defenders against the lowest
# argument of the threat (some member of any admissible superset must attack
# it), once the threat is empty on the covers of an uncovered argument of S's
# range, and then on a way past that range.  So a step costs a few mask
# operations, not a scan of the set (the per-set bookkeeping of
# labelling-based backtracking: Nofal, Atkinson & Dunne, AIJ 2014).  The
# search is exponential in the worst case, hence the same cap gate as the
# enumerator, but it follows the attack structure so it stays shallow on the
# generated hardness instances.  The delta walk calls these checks last in a
# prf/sem layer: on its admissible candidates in canonical order, until one
# passes.


def _larger_admissible(
    af: ArgumentationFramework, start: int, hit: int, cover: int
) -> bool:
    """True iff some admissible superset of start has a range that holds
    cover and at least one argument outside it.

    start must be admissible, and hit is the mask of what it attacks.  The
    depth-first search keeps each open set, what it attacks, its threat and
    the arguments it has still to try on an explicit stack, and memoizes
    every set whose tries all failed.
    """
    reach = af.full_mask & ~cover
    if not reach:
        return False
    attackers = af.attackers
    targets = af.targets
    # any set whose range meets reach holds an argument of reach or one of
    # its attackers
    reach_options = 0
    for z in iter_bits(reach):
        reach_options |= attackers[z] | 1 << z
    failed: set[int] = set()
    stack: list[list[int]] = []
    node = start
    threat = 0
    while True:
        if node not in failed:
            # try the defenders against the lowest threat, in canonical
            # order, else the first uncovered argument and its attackers,
            # else a way into the range of reach
            if threat:
                options = attackers[(threat & -threat).bit_length() - 1]
            else:
                covered = node | hit
                uncovered = cover & ~covered
                if uncovered:
                    u = (uncovered & -uncovered).bit_length() - 1
                    options = attackers[u] | (1 << u)
                elif covered & reach:
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
    cap_gate(af, cap)
    if not adm_mask(af, mask):
        return False
    hit = attacked_mask(af, mask)
    return not _larger_admissible(af, mask, hit, mask | hit)


def semistable_mask(
    af: ArgumentationFramework, mask: int, cap: int | None = None
) -> bool:
    cap_gate(af, cap)
    if not adm_mask(af, mask):
        return False
    return not _larger_admissible(af, 0, 0, mask | attacked_mask(af, mask))


def is_preferred(
    af: ArgumentationFramework, s: ArgumentSet, cap: int | None = None
) -> bool:
    """S admissible with no admissible strict superset."""
    return preferred_mask(af, mask_in(af, s), cap)


def is_semistable(
    af: ArgumentationFramework, s: ArgumentSet, cap: int | None = None
) -> bool:
    """S admissible with subset-maximal range among admissible sets."""
    return semistable_mask(af, mask_in(af, s), cap)
