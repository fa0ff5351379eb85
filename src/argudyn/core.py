"""Argumentation frameworks, argument sets, and the polynomial-time checkers."""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterable, Iterator

# the whole of an argument name, in every format: apply with fullmatch
NAME_RE = re.compile(r"[A-Za-z0-9_]+")


class Semantics(str, Enum):
    """The five extension-based semantics handled by this package."""

    ADMISSIBLE = "adm"
    COMPLETE = "com"
    PREFERRED = "prf"
    SEMI_STABLE = "sem"
    STABLE = "stb"

    @classmethod
    def parse(cls, text: str) -> "Semantics":
        try:
            return cls(text)
        except ValueError:
            raise ValueError(
                f"unknown semantics {text!r}; expected one of "
                + ", ".join(s.value for s in cls)
            ) from None

    @property
    def needs_maximality(self) -> bool:
        """prf and sem: membership runs the capped maximality search."""
        return self in (Semantics.PREFERRED, Semantics.SEMI_STABLE)


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of mask in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """Canonical order key of a set as mask: cardinality, then index tuple."""
    return (mask.bit_count(), tuple(iter_bits(mask)))


class ArgumentationFramework:
    """A finite directed attack graph over named arguments.

    Argument order is the declaration order and is the canonical order used
    for all deterministic iteration and tie-breaking.
    """

    __slots__ = (
        "arguments",
        "attacks",
        "n",
        "full_mask",
        "attackers",
        "targets",
        "_index",
        "_indices",
        "_hash",
    )

    def __init__(self, arguments: Iterable[str], attacks: Iterable[tuple[str, str]]):
        args = tuple(arguments)
        index: dict[str, int] = {}
        for name in args:
            if not isinstance(name, str) or not NAME_RE.fullmatch(name):
                raise ValueError(f"invalid argument name {name!r}")
            if name in index:
                raise ValueError(f"duplicate argument {name!r}")
            index[name] = len(index)
        n = len(args)
        attackers = [0] * n
        targets = [0] * n
        seen: set[tuple[str, str]] = set()
        for src, dst in attacks:
            if src not in index:
                raise ValueError(f"attack source {src!r} is not an argument")
            if dst not in index:
                raise ValueError(f"attack target {dst!r} is not an argument")
            if (src, dst) in seen:
                continue
            seen.add((src, dst))
            targets[index[src]] |= 1 << index[dst]
            attackers[index[dst]] |= 1 << index[src]
        self.arguments = args
        self.attacks = frozenset(seen)
        self.n = n
        self.full_mask = (1 << n) - 1
        self._index = index
        # one bitmask row per argument: the arguments attacking it, and the
        # arguments it attacks
        self.attackers = tuple(attackers)
        self.targets = tuple(targets)
        self._indices = None  # the index tuples, built on first use
        self._hash = hash((args, self.attacks))

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return other is self or (
            isinstance(other, ArgumentationFramework)
            and self.arguments == other.arguments
            and self.attacks == other.attacks
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"ArgumentationFramework({len(self.arguments)} args, {len(self.attacks)} attacks)"

    # -- index tuples -----------------------------------------------------

    @property
    def attacker_indices(self) -> tuple[tuple[int, ...], ...]:
        """One tuple per argument: the indices of its attackers, increasing."""
        return self._index_tuples()[0]

    @property
    def target_indices(self) -> tuple[tuple[int, ...], ...]:
        """One tuple per argument: the indices of its targets, increasing."""
        return self._index_tuples()[1]

    def _index_tuples(self):
        # built from the attacks on first use and kept: the engines that walk
        # neighbours read them, the bit-row checks never do
        if self._indices is None:
            index = self._index
            attackers: list[list[int]] = [[] for _ in range(self.n)]
            targets: list[list[int]] = [[] for _ in range(self.n)]
            for i, j in sorted([(index[s], index[d]) for s, d in self.attacks]):
                targets[i].append(j)
                attackers[j].append(i)
            self._indices = (
                tuple(map(tuple, attackers)), tuple(map(tuple, targets))
            )
        return self._indices

    # -- lookups ----------------------------------------------------------

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown argument {name!r}") from None

    def sorted_attacks(self) -> list[tuple[str, str]]:
        """Attacks ordered by (source index, target index)."""
        idx = self._index
        return sorted(self.attacks, key=lambda p: (idx[p[0]], idx[p[1]]))

    # -- set construction --------------------------------------------------

    def mask_of(self, names: Iterable[str]) -> int:
        mask = 0
        for name in names:
            mask |= 1 << self.index_of(name)
        return mask

    def set_of(self, names: Iterable[str]) -> "ArgumentSet":
        return ArgumentSet(self, self.mask_of(names))

    def set_from_mask(self, mask: int) -> "ArgumentSet":
        if mask & ~self.full_mask:
            raise ValueError("mask has bits outside the framework")
        return ArgumentSet(self, mask)

    def empty_set(self) -> "ArgumentSet":
        return ArgumentSet(self, 0)

    def full_set(self) -> "ArgumentSet":
        return ArgumentSet(self, self.full_mask)

    def all_subsets(self) -> Iterator["ArgumentSet"]:
        for mask in range(1 << self.n):
            yield ArgumentSet(self, mask)


class ArgumentSet:
    """An immutable subset of a framework's arguments backed by a bitmask."""

    __slots__ = ("af", "mask")

    def __init__(self, af: ArgumentationFramework, mask: int):
        self.af = af
        self.mask = mask

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[str]:
        args = self.af.arguments
        return (args[i] for i in iter_bits(self.mask))

    def __contains__(self, name: str) -> bool:
        return bool(self.mask >> self.af.index_of(name) & 1)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ArgumentSet)
            and self.af == other.af
            and self.mask == other.mask
        )

    def __hash__(self) -> int:
        return hash((self.af, self.mask))

    def __or__(self, other: "ArgumentSet") -> "ArgumentSet":
        return ArgumentSet(self.af, self.mask | mask_in(self.af, other))

    def __and__(self, other: "ArgumentSet") -> "ArgumentSet":
        return ArgumentSet(self.af, self.mask & mask_in(self.af, other))

    def __xor__(self, other: "ArgumentSet") -> "ArgumentSet":
        return ArgumentSet(self.af, self.mask ^ mask_in(self.af, other))

    def __sub__(self, other: "ArgumentSet") -> "ArgumentSet":
        return ArgumentSet(self.af, self.mask & ~mask_in(self.af, other))

    def __le__(self, other: "ArgumentSet") -> bool:
        return self.mask & ~mask_in(self.af, other) == 0

    def __lt__(self, other: "ArgumentSet") -> bool:
        return self <= other and self.mask != other.mask

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self)

    def sort_key(self) -> tuple[int, tuple[int, ...]]:
        """Canonical order key: cardinality, then index tuple."""
        return mask_key(self.mask)

    def __repr__(self) -> str:
        return "{" + ",".join(self) + "}"


# -- mask-level primitives (shared by the enumerator and the solvers) ------


def attacked_mask(af: ArgumentationFramework, mask: int) -> int:
    """Union of targets of all members of mask."""
    out = 0
    targets = af.targets
    for i in iter_bits(mask):
        out |= targets[i]
    return out


def cf_mask(af: ArgumentationFramework, mask: int) -> bool:
    return attacked_mask(af, mask) & mask == 0


def adm_mask(af: ArgumentationFramework, mask: int) -> bool:
    attacked = attacked_mask(af, mask)
    if attacked & mask:
        return False
    attackers = af.attackers
    free = ~attacked
    for i in iter_bits(mask):
        if attackers[i] & free:
            return False
    return True


def com_mask(af: ArgumentationFramework, mask: int) -> bool:
    attacked = attacked_mask(af, mask)
    if attacked & mask:
        return False
    attackers = af.attackers
    free = ~attacked
    for i in iter_bits(mask):
        if attackers[i] & free:
            return False
    # an attacked outsider is undefended: its attacker in mask is unattacked
    for i in iter_bits(af.full_mask & free & ~mask):
        if not attackers[i] & free:
            return False
    return True


def stb_mask(af: ArgumentationFramework, mask: int) -> bool:
    attacked = attacked_mask(af, mask)
    return attacked & mask == 0 and (mask | attacked) == af.full_mask


# -- public checkers -------------------------------------------------------


def mask_in(af: ArgumentationFramework, s: ArgumentSet) -> int:
    """S's mask, once S is known to be a set of af's arguments: the one
    check that a set belongs to a framework."""
    if s.af != af:
        raise ValueError("argument set does not belong to this framework")
    return s.mask


def range_of(af: ArgumentationFramework, s: ArgumentSet) -> ArgumentSet:
    """S together with every argument attacked by S."""
    mask = mask_in(af, s)
    return ArgumentSet(af, mask | attacked_mask(af, mask))


def is_conflict_free(af: ArgumentationFramework, s: ArgumentSet) -> bool:
    return cf_mask(af, mask_in(af, s))


def defends(af: ArgumentationFramework, s: ArgumentSet, x: str) -> bool:
    """True iff every attacker of x is attacked by some member of S."""
    mask = mask_in(af, s)
    return af.attackers[af.index_of(x)] & ~attacked_mask(af, mask) == 0


def is_admissible(af: ArgumentationFramework, s: ArgumentSet) -> bool:
    return adm_mask(af, mask_in(af, s))


def is_complete(af: ArgumentationFramework, s: ArgumentSet) -> bool:
    return com_mask(af, mask_in(af, s))


def is_stable(af: ArgumentationFramework, s: ArgumentSet) -> bool:
    return stb_mask(af, mask_in(af, s))


def distance(e1: ArgumentSet, e2: ArgumentSet) -> int:
    """Size of the symmetric difference of two sets over the same framework."""
    return (e1.mask ^ mask_in(e1.af, e2)).bit_count()


def max_degree(af: ArgumentationFramework) -> int:
    """Largest number of distinct other arguments adjacent via attacks.

    Self-attacks do not contribute; attack directions are merged.
    """
    best = 0
    for i in range(af.n):
        adj = (af.attackers[i] | af.targets[i]) & ~(1 << i)
        deg = adj.bit_count()
        if deg > best:
            best = deg
    return best
