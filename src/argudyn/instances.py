"""Problem instance records for the four distance-bounded decision problems."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import ArgumentationFramework, ArgumentSet, Semantics, distance, mask_in


class ProblemKind(str, Enum):
    SMALL = "small"
    REPAIR = "repair"
    ADJUST = "adjust"
    CENTER = "center"


@dataclass(frozen=True)
class ProblemInstance:
    """One instance of Small/Repair/Adjust/Center.

    Field usage by kind:
      small:  k
      repair: s, k
      adjust: e0, target, k
      center: e1, e2 (k is derived: distance(e1, e2))
    """

    kind: ProblemKind
    framework: ArgumentationFramework
    semantics: Semantics
    k: int | None = None
    s: ArgumentSet | None = None
    e0: ArgumentSet | None = None
    target: str | None = None
    e1: ArgumentSet | None = None
    e2: ArgumentSet | None = None

    def parameter(self) -> int:
        if self.kind is ProblemKind.CENTER:
            return distance(self.e1, self.e2)
        return self.k


def _instance(kind, af, sigma, k=None, target=None, **sets) -> ProblemInstance:
    """The question of this kind, once its inputs are checked in this order:
    k is a nonnegative int and not a bool (all but center), each set is an
    ArgumentSet of af, adjust's target is af's, sigma names a semantics."""
    if kind is not ProblemKind.CENTER and (type(k) is not int or k < 0):
        raise ValueError(f"k must be nonnegative, as an int; got {k!r}")
    for s in sets.values():
        mask_in(af, s)
    if kind is ProblemKind.ADJUST:
        af.index_of(target)
    return ProblemInstance(kind, af, Semantics.parse(sigma), k=k, target=target, **sets)


def small_instance(
    af: ArgumentationFramework, sigma: Semantics, k: int
) -> ProblemInstance:
    return _instance(ProblemKind.SMALL, af, sigma, k)


def repair_instance(
    af: ArgumentationFramework, s: ArgumentSet, sigma: Semantics, k: int
) -> ProblemInstance:
    return _instance(ProblemKind.REPAIR, af, sigma, k, s=s)


def adjust_instance(
    af: ArgumentationFramework,
    e0: ArgumentSet,
    target: str,
    sigma: Semantics,
    k: int,
) -> ProblemInstance:
    return _instance(ProblemKind.ADJUST, af, sigma, k, target, e0=e0)


def center_instance(
    af: ArgumentationFramework,
    e1: ArgumentSet,
    e2: ArgumentSet,
    sigma: Semantics,
) -> ProblemInstance:
    return _instance(ProblemKind.CENTER, af, sigma, e1=e1, e2=e2)
