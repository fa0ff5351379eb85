"""Benchmark harness: seeded instance sweeps recording per-engine work
counts (explored nodes / tested candidates) and wall time, written as CSV.

Suites:
  repair-degree-sweep  guarded frameworks (degree 1) of growing size at
                       fixed budget k, all NO; contrasts the candidate
                       counts of delta enumeration (growing like n**k)
                       with the node counts of the branching engine (flat
                       in n).
  repair-k-sweep       fixed frameworks, budget k swept upward; answers
                       must be monotone in k per instance.

Every instance runs through each of its engines, and the engines must
agree.  The generators' reductions are checked by the acceptance tests,
not here.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, fields
from pathlib import Path

from .core import ArgumentationFramework, Semantics, max_degree
from .errors import ArgudynError, IoError
from .instances import ProblemInstance, repair_instance
from .solvers import solve_instance

@dataclass
class BenchRecord:
    instance_id: str
    generator: str
    source: str
    kind: str
    semantics: str
    k: int
    n_args: int
    max_degree: int
    answer: bool
    engine: str
    wall_time_s: float
    nodes: int


CSV_COLUMNS = tuple(f.name for f in fields(BenchRecord))


def _rng(*parts: object) -> random.Random:
    return random.Random("-".join(str(p) for p in parts))


def degree_capped_framework(rng: random.Random, n: int) -> ArgumentationFramework:
    """Seeded framework on a0..a(n-1): each argument attacks itself with
    probability 1/4, then 3n random arcs are tried and each is kept only if
    both ends stay at degree 3 or below (distinct attack neighbors, self
    excluded)."""
    names = tuple(f"a{i}" for i in range(n))
    attacks: list[tuple[str, str]] = []
    for name in names:
        if rng.random() < 0.25:
            attacks.append((name, name))
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for _ in range(3 * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        if j not in neighbors[i] and len(neighbors[i]) >= 3:
            continue
        if i not in neighbors[j] and len(neighbors[j]) >= 3:
            continue
        attacks.append((names[i], names[j]))
        neighbors[i].add(j)
        neighbors[j].add(i)
    return ArgumentationFramework(names, attacks)


def _run_engines(
    instance_id: str,
    generator: str,
    source: str,
    instance: ProblemInstance,
    engines: tuple[str, ...] = ("delta", "branching"),
) -> list[BenchRecord]:
    """Solve the instance with each engine in turn, one record each; raise
    if an engine's answer differs from the first engine's."""
    af = instance.framework
    records: list[BenchRecord] = []
    for engine in engines:
        result = solve_instance(instance, engine=engine)
        if records and result.answer != records[0].answer:
            raise ArgudynError(
                f"engine disagreement on {instance_id}: "
                f"{engines[0]}={records[0].answer} {engine}={result.answer}"
            )
        stats = result.stats
        records.append(
            BenchRecord(
                instance_id=instance_id,
                generator=generator,
                source=source,
                kind=instance.kind.value,
                semantics=instance.semantics.value,
                k=instance.parameter(),
                n_args=af.n,
                max_degree=max_degree(af),
                answer=result.answer,
                engine=engine,
                wall_time_s=stats.seconds,
                nodes=stats.nodes if engine == "branching" else stats.candidates,
            )
        )
    return records


def _guarded_framework(pairs: int) -> ArgumentationFramework:
    """Arguments a0..a(2*pairs-1): each a_i with i < pairs is attacked by its
    own guard a_(pairs+i), which attacks itself.  No guard can be defended
    against, so no nonempty admissible set exists, while every set of the
    first pairs arguments is conflict-free."""
    names = tuple(f"a{i}" for i in range(2 * pairs))
    attacks = []
    for i in range(pairs):
        guard = names[pairs + i]
        attacks += [(guard, guard), (guard, names[i])]
    return ArgumentationFramework(names, attacks)


def _suite_degree_sweep(seed: int) -> list[BenchRecord]:
    records: list[BenchRecord] = []
    for k in (1, 2, 3, 4):
        for n in (20, 30, 40, 50, 60):
            rng = _rng(seed, "deg", k, n)
            af = _guarded_framework(n // 2)
            start = af.set_of(rng.sample(af.arguments[: n // 2], k + 2))
            instance = repair_instance(af, start, Semantics.ADMISSIBLE, k)
            records += _run_engines(
                f"deg1-k{k}-n{n}",
                "guarded",
                f"seed={seed};k={k};n={n};guarded=1",
                instance,
            )
    return records


def _suite_k_sweep(seed: int) -> list[BenchRecord]:
    records: list[BenchRecord] = []
    for idx in range(4):
        rng = _rng(seed, "ksweep", idx)
        af = degree_capped_framework(rng, 14)
        start = af.set_of(rng.sample(af.arguments, 3))
        previous = False
        for k in range(5):
            instance = repair_instance(af, start, Semantics.ADMISSIBLE, k)
            rows = _run_engines(
                f"ksweep-{idx}-k{k}",
                "degree-capped-random",
                f"seed={seed};base={idx};n=14",
                instance,
            )
            if previous and not rows[0].answer:
                raise ArgudynError(
                    f"repair answers not monotone in k on base {idx}"
                )
            previous = rows[0].answer
            records += rows
    # small base where the naive model-checking engine is also feasible
    rng = _rng(seed, "ksweep", "fo")
    af = degree_capped_framework(rng, 7)
    start = af.set_of(rng.sample(af.arguments, 2))
    for k in range(4):
        records += _run_engines(
            f"ksweep-fo-k{k}",
            "degree-capped-random",
            f"seed={seed};base=fo;n=7",
            repair_instance(af, start, Semantics.ADMISSIBLE, k),
            engines=("delta", "branching", "fo"),
        )
    return records


_SUITE_RUNNERS = {
    "repair-degree-sweep": _suite_degree_sweep,
    "repair-k-sweep": _suite_k_sweep,
}
SUITES = tuple(_SUITE_RUNNERS)


def _cell(value: object) -> object:
    """A record field as written to CSV: answers as yes/no, times to the
    microsecond."""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.6f}"
    return value


def format_csv(records: list[BenchRecord]) -> str:
    """Render records as CSV (comma separator, LF line endings)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(_cell(getattr(record, name)) for name in CSV_COLUMNS)
    return buffer.getvalue()


def run_bench(
    suite: str, seed: int = 0, out_path: str | Path | None = None
) -> list[BenchRecord]:
    """Run one suite deterministically from seed; optionally write CSV."""
    if suite not in _SUITE_RUNNERS:
        raise ValueError(
            f"unknown suite {suite!r}; expected one of {', '.join(SUITES)}"
        )
    records = _SUITE_RUNNERS[suite](seed)
    if out_path is not None:
        try:
            Path(out_path).write_text(format_csv(records), encoding="utf-8")
        except OSError as exc:
            raise IoError(f"cannot write {out_path}: {exc}") from exc
    return records
