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
  gadget-validation    runs every generator's yes/no cross-check against
                       its brute-force oracle and the degree-5 audit,
                       raising on any mismatch.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass, fields
from pathlib import Path

from .core import ArgumentationFramework, Semantics, max_degree
from .errors import ArgudynError, IoError
from .gadgets import (
    gen_adjust_from_small,
    gen_center_from_small,
    gen_cnf_adjust,
    gen_cnf_center,
    gen_cnf_small,
    gen_mcq_small,
    has_multicolored_clique,
    random_kpartite,
    random_three_cnf_two,
    sat_oracle,
)
from .instances import ProblemInstance, repair_instance
from .solvers import (
    fo_solve_repair,
    solve_instance,
    solve_repair_branching,
    solve_small,
)

SUITES = ("repair-degree-sweep", "repair-k-sweep", "gadget-validation")

_GADGET_CAP = 200


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


def degree_capped_framework(
    rng: random.Random,
    n: int,
    degree_cap: int = 3,
    all_self_attacking: bool = False,
    self_attack_prob: float = 0.25,
    arc_attempts_factor: int = 3,
) -> ArgumentationFramework:
    """Seeded framework with every argument's degree (distinct attack
    neighbors, self excluded) kept at or below degree_cap."""
    names = tuple(f"a{i}" for i in range(n))
    attacks: list[tuple[str, str]] = []
    for name in names:
        if all_self_attacking or rng.random() < self_attack_prob:
            attacks.append((name, name))
    neighbors: list[set[int]] = [set() for _ in range(n)]
    for _ in range(arc_attempts_factor * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        new_i = j not in neighbors[i]
        new_j = i not in neighbors[j]
        if new_i and len(neighbors[i]) >= degree_cap:
            continue
        if new_j and len(neighbors[j]) >= degree_cap:
            continue
        attacks.append((names[i], names[j]))
        neighbors[i].add(j)
        neighbors[j].add(i)
    return ArgumentationFramework(names, attacks)


def _record(
    instance_id: str,
    generator: str,
    source: str,
    instance: ProblemInstance,
    engine: str,
    answer: bool,
    seconds: float,
    nodes: int,
) -> BenchRecord:
    af = instance.framework
    return BenchRecord(
        instance_id=instance_id,
        generator=generator,
        source=source,
        kind=instance.kind.value,
        semantics=instance.semantics.value,
        k=instance.parameter(),
        n_args=af.n,
        max_degree=max_degree(af),
        answer=answer,
        engine=engine,
        wall_time_s=seconds,
        nodes=nodes,
    )


def _run_repair_both_engines(
    instance_id: str,
    generator: str,
    source: str,
    instance: ProblemInstance,
) -> list[BenchRecord]:
    out: list[BenchRecord] = []
    res = solve_instance(instance, engine="delta")
    out.append(
        _record(
            instance_id,
            generator,
            source,
            instance,
            "delta",
            res.answer,
            res.stats.seconds,
            res.stats.candidates,
        )
    )
    branch = solve_repair_branching(
        instance.framework, instance.s, instance.semantics, instance.k
    )
    if branch.answer != res.answer:
        raise ArgudynError(
            f"engine disagreement on {instance_id}: "
            f"delta={res.answer} branching={branch.answer}"
        )
    out.append(
        _record(
            instance_id,
            generator,
            source,
            instance,
            "branching",
            branch.answer,
            branch.stats.seconds,
            branch.stats.nodes,
        )
    )
    return out


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
            records += _run_repair_both_engines(
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
            rows = _run_repair_both_engines(
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
        instance = repair_instance(af, start, Semantics.ADMISSIBLE, k)
        rows = _run_repair_both_engines(
            f"ksweep-fo-k{k}",
            "degree-capped-random",
            f"seed={seed};base=fo;n=7",
            instance,
        )
        fo = fo_solve_repair(af, start, Semantics.ADMISSIBLE, k)
        if fo.answer != rows[0].answer:
            raise ArgudynError(
                f"fo engine disagrees on ksweep-fo-k{k}: "
                f"fo={fo.answer} delta={rows[0].answer}"
            )
        rows.append(
            _record(
                f"ksweep-fo-k{k}",
                "degree-capped-random",
                f"seed={seed};base=fo;n=7",
                instance,
                "fo",
                fo.answer,
                fo.stats.seconds,
                fo.stats.candidates,
            )
        )
        records += rows
    return records


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise ArgudynError(f"gadget validation failed: {message}")


def _suite_gadget_validation(seed: int) -> list[BenchRecord]:
    records: list[BenchRecord] = []

    for idx in range(6):
        rng = _rng(seed, "mcq", idx)
        graph = random_kpartite(
            rng, k=rng.choice((2, 3)), max_part_size=3, edge_prob=0.55
        )
        expected = has_multicolored_clique(graph)
        for sigma in Semantics:
            out = gen_mcq_small(graph, sigma)
            res = solve_instance(out.instance, cap=_GADGET_CAP)
            _check(
                res.answer == expected,
                f"mcq graph {idx} under {sigma.value}: "
                f"solver={res.answer} clique={expected}",
            )
            records.append(
                _record(
                    f"mcq-{idx}-{sigma.value}",
                    "mcq-small",
                    str(out.provenance["parameters"]),
                    out.instance,
                    "delta",
                    res.answer,
                    res.stats.seconds,
                    res.stats.candidates,
                )
            )

    for idx in range(4):
        rng = _rng(seed, "wrap", idx)
        af = degree_capped_framework(rng, rng.randint(3, 5), degree_cap=4)
        for k in (1, 2):
            for sigma in (Semantics.ADMISSIBLE, Semantics.STABLE):
                base = solve_small(af, sigma, k).answer
                for wrap, gen in (
                    ("adjust", gen_adjust_from_small),
                    ("center", gen_center_from_small),
                ):
                    if wrap == "center" and k % 2 == 1:
                        continue
                    out = gen(af, k, sigma)
                    res = solve_instance(
                        out.instance, cap=_GADGET_CAP, require_nonempty=True
                    )
                    _check(
                        res.answer == base,
                        f"{wrap} wrap of base {idx} (k={k}, "
                        f"{sigma.value}): wrapped={res.answer} base={base}",
                    )
                    records.append(
                        _record(
                            f"wrap-{wrap}-{idx}-k{k}-{sigma.value}",
                            out.provenance["generator"],
                            str(out.provenance["parameters"]),
                            out.instance,
                            "delta",
                            res.answer,
                            res.stats.seconds,
                            res.stats.candidates,
                        )
                    )

    for idx in range(6):
        rng = _rng(seed, "cnf", idx)
        formula = random_three_cnf_two(rng, rng.randint(1, 3), rng.randint(1, 4))
        unsat = not sat_oracle(formula)
        for label, gen, nonempty in (
            ("cnf-small", gen_cnf_small, True),
            ("cnf-adjust", gen_cnf_adjust, False),
            ("cnf-center", gen_cnf_center, False),
        ):
            for sigma in (Semantics.PREFERRED, Semantics.SEMI_STABLE):
                out = gen(formula, sigma)
                _check(
                    max_degree(out.instance.framework) <= 5,
                    f"{label} degree audit on formula {idx}",
                )
                res = solve_instance(
                    out.instance, cap=_GADGET_CAP, require_nonempty=nonempty
                )
                _check(
                    res.answer == unsat,
                    f"{label} on formula {idx} under {sigma.value}: "
                    f"solver={res.answer} unsat={unsat}",
                )
                records.append(
                    _record(
                        f"{label}-{idx}-{sigma.value}",
                        label,
                        str(out.provenance["parameters"]),
                        out.instance,
                        "delta",
                        res.answer,
                        res.stats.seconds,
                        res.stats.candidates,
                    )
                )
    return records


_SUITE_RUNNERS = {
    "repair-degree-sweep": _suite_degree_sweep,
    "repair-k-sweep": _suite_k_sweep,
    "gadget-validation": _suite_gadget_validation,
}


def format_csv(records: list[BenchRecord]) -> str:
    """Render records as CSV (comma separator, LF line endings)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow(
            [
                record.instance_id,
                record.generator,
                record.source,
                record.kind,
                record.semantics,
                record.k,
                record.n_args,
                record.max_degree,
                "yes" if record.answer else "no",
                record.engine,
                f"{record.wall_time_s:.6f}",
                record.nodes,
            ]
        )
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
