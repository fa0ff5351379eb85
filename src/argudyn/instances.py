"""Problem instance records for the four distance-bounded decision problems."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import ArgumentationFramework, ArgumentSet, Semantics, distance


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


def small_instance(
    af: ArgumentationFramework, sigma: Semantics, k: int
) -> ProblemInstance:
    if k < 0:
        raise ValueError("k must be nonnegative")
    return ProblemInstance(ProblemKind.SMALL, af, Semantics.parse(sigma), k=k)


def repair_instance(
    af: ArgumentationFramework, s: ArgumentSet, sigma: Semantics, k: int
) -> ProblemInstance:
    if k < 0:
        raise ValueError("k must be nonnegative")
    if s.af != af:
        raise ValueError("start set does not belong to the framework")
    sigma = Semantics.parse(sigma)
    return ProblemInstance(ProblemKind.REPAIR, af, sigma, k=k, s=s)


def adjust_instance(
    af: ArgumentationFramework,
    e0: ArgumentSet,
    target: str,
    sigma: Semantics,
    k: int,
) -> ProblemInstance:
    if k < 0:
        raise ValueError("k must be nonnegative")
    if e0.af != af:
        raise ValueError("start extension does not belong to the framework")
    af.index_of(target)
    sigma = Semantics.parse(sigma)
    return ProblemInstance(ProblemKind.ADJUST, af, sigma, k=k, e0=e0, target=target)


def center_instance(
    af: ArgumentationFramework,
    e1: ArgumentSet,
    e2: ArgumentSet,
    sigma: Semantics,
) -> ProblemInstance:
    if e1.af != af or e2.af != af:
        raise ValueError("endpoint sets do not belong to the framework")
    sigma = Semantics.parse(sigma)
    return ProblemInstance(ProblemKind.CENTER, af, sigma, e1=e1, e2=e2)
