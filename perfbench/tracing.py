"""The traced run: spans and counts at argudyn's layer boundaries.

Wrappers are installed from outside, over the module attributes through
which argudyn's own modules call each other, for this process only.  Two
kinds of boundary are recorded:

- Spans (name, start, end, parent, round) for calls made a few times per
  operation: an operation, one solve per engine, `structure_of`,
  `load_framework`, `write_apx`, framework construction and the CNF gadget
  generators.  They stay in memory and are written out when the run ends.
- Aggregates for calls made up to millions of times per operation:
  membership checks per semantics, the prf/sem maximality search and
  `attacked_mask`.  Their counts and summed times are kept on the
  innermost open span instead of as spans of their own.

The time a wrapper spends on its own bookkeeping is kept as `overhead_s`
on the span and taken out of that span's self time.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter
from pathlib import Path
from time import perf_counter

from argudyn import core, enumeration, firstorder, formats, gadgets, solvers

MEMBER_FUNCS = {
    "adm": "adm_mask",
    "com": "com_mask",
    "stb": "stb_mask",
    "prf": "preferred_mask",
    "sem": "semistable_mask",
}
ENGINE_FUNCS = {
    "solve_small": "delta",
    "solve_repair": "delta",
    "solve_adjust": "delta",
    "solve_center": "delta",
    "solve_repair_branching": "branching",
    "fo_solve_small": "fo",
    "fo_solve_repair": "fo",
    "fo_solve_adjust": "fo",
    "fo_solve_center": "fo",
}

# per-round counts that must repeat exactly between rounds and runs
EXACT = (
    "delta.candidates", "delta.cf", "delta.hits", "branching.nodes",
    "fo.assignments", "member.adm", "member.com", "member.stb", "member.prf",
    "member.sem", "maxsearch", "attacked",
)


class Span:
    __slots__ = ("id", "name", "parent", "round", "start", "end", "attrs")

    def __init__(self, id, name, parent, round, start):
        self.id = id
        self.name = name
        self.parent = parent
        self.round = round
        self.start = start
        self.end = None
        self.attrs = Counter()


class Tracer:
    def __init__(self):
        self.origin = perf_counter()
        self.spans: list[Span] = []
        self.round = -1  # -1 during set-up
        self.stack: list[Span] = [self._new("run", None)]
        self.in_delta = False
        self.gate_passed = False
        self.extra: dict[str, float] = {}

    def _new(self, name, parent) -> Span:
        span = Span(len(self.spans), name, parent, self.round, perf_counter())
        self.spans.append(span)
        return span

    def open(self, name: str) -> Span:
        span = self._new(name, self.stack[-1].id)
        self.stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self.stack.pop()

    @property
    def attrs(self) -> Counter:
        return self.stack[-1].attrs

    def finish(self) -> None:
        while self.stack:
            self.close(self.stack[-1])

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        self._count_attacked()
        for sigma, fname in MEMBER_FUNCS.items():
            setattr(solvers, fname, self._member(sigma, getattr(solvers, fname)))
        enumeration.adm_mask = self._gate(enumeration.adm_mask)
        for fname, engine in ENGINE_FUNCS.items():
            setattr(solvers, fname, self._solve(engine, getattr(solvers, fname)))
        solvers.structure_of = self._spanned(
            "firstorder.structure_of", firstorder.structure_of)
        formats.load_framework = self._spanned(
            "formats.load_framework", formats.load_framework)
        formats.write_apx = self._spanned("formats.write_apx", formats.write_apx)
        for fname in ("gen_cnf_small", "gen_cnf_adjust", "gen_cnf_center"):
            setattr(gadgets, fname, self._spanned("gadgets.gen", getattr(gadgets, fname)))
        init = core.ArgumentationFramework.__init__
        core.ArgumentationFramework.__init__ = self._spanned("core.build", init)

    def _spanned(self, name, fn):
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)

        return wrapper

    def _count_attacked(self) -> None:
        original = core.attacked_mask

        def attacked_mask(af, mask):
            self.stack[-1].attrs["attacked"] += 1
            return original(af, mask)

        for module in (core, enumeration, solvers):
            module.attacked_mask = attacked_mask
        self.cf_mask = lambda af, mask: original(af, mask) & mask == 0

    def _member(self, sigma, fn):
        key = "member." + sigma
        maximal = sigma in ("prf", "sem")

        def wrapper(af, mask, *rest):
            t0 = perf_counter()
            self.gate_passed = False
            t1 = perf_counter()
            result = fn(af, mask, *rest)
            t2 = perf_counter()
            attrs = self.stack[-1].attrs
            attrs[key] += 1
            attrs["member_s"] += t2 - t1
            if maximal and self.gate_passed:
                attrs["maxsearch"] += 1
                attrs["maxsearch_s"] += t2 - t1
            if self.in_delta:
                attrs["delta.cf"] += self.cf_mask(af, mask)
                attrs["delta.hits"] += bool(result)
            attrs["overhead_s"] += perf_counter() - t2 + t1 - t0
            return result

        return wrapper

    def _gate(self, fn):
        def adm_mask(af, mask):
            passed = fn(af, mask)
            self.gate_passed = passed
            return passed

        return adm_mask

    def _solve(self, engine, fn):
        name = "solvers." + engine

        def wrapper(*args, **kwargs):
            span = self.open(name)
            outer = self.in_delta
            self.in_delta = engine == "delta"
            try:
                result = fn(*args, **kwargs)
            finally:
                self.in_delta = outer
                self.close(span)
            if engine == "delta":
                span.attrs["delta.candidates"] += result.stats.candidates
            elif engine == "branching":
                span.attrs["branching.nodes"] += result.stats.nodes
            else:
                span.attrs["fo.assignments"] += result.stats.candidates
            return result

        return wrapper

    # -- summary ------------------------------------------------------------

    def summary(self, ops: int, rounds: int) -> dict:
        """Per-layer figures of the timed loop (rounds >= 0)."""
        loop = [s for s in self.spans if s.round >= 0 and s.end is not None]
        children: dict[int, float] = Counter()
        for s in self.spans:
            if s.parent is not None and s.end is not None:
                children[s.parent] += s.end - s.start

        per_round = [Counter() for _ in range(rounds)]
        for s in loop:
            per_round[s.round].update({k: v for k, v in s.attrs.items() if k in EXACT})
        exact = per_round[0] if per_round else Counter()
        repeat = all(c == exact for c in per_round)

        def total(name=None, key=None):
            return sum(
                (s.end - s.start) if key is None else s.attrs[key]
                for s in loop if name is None or s.name == name
            )

        def self_time(name):
            return sum(
                (s.end - s.start) - children[s.id] - s.attrs["member_s"]
                - s.attrs["overhead_s"]
                for s in loop if s.name == name
            )

        def mean_ms(name, spans=None):
            spans = [s for s in (spans or loop) if s.name == name]
            if not spans:
                return 0.0
            return 1000 * statistics.fmean(s.end - s.start for s in spans)

        def ratio(num, den):
            return num / den if den else 0.0

        branching = total("solvers.branching") - total("solvers.branching", "overhead_s")
        fo = total("solvers.fo") - total("solvers.fo", "overhead_s")
        metrics = {
            "solvers.delta.candidates": (exact["delta.candidates"], "count"),
            "solvers.delta.cf_share": (ratio(exact["delta.cf"], exact["delta.candidates"]), "ratio"),
            "solvers.delta.hit_share": (ratio(exact["delta.hits"], exact["delta.candidates"]), "ratio"),
            "solvers.delta.search_self_ms": (1000 * ratio(self_time("solvers.delta"), ops), "ms"),
            **{
                f"solvers.member_calls.{s}": (exact["member." + s], "count")
                for s in MEMBER_FUNCS
            },
            "solvers.member_ms": (1000 * ratio(total(key="member_s"), ops), "ms"),
            "enumeration.maxsearch_calls": (exact["maxsearch"], "count"),
            "enumeration.maxsearch_ms": (1000 * ratio(total(key="maxsearch_s"), ops), "ms"),
            "core.attacked_calls": (exact["attacked"], "count"),
            "solvers.branching.nodes": (exact["branching.nodes"], "count"),
            "solvers.branching.us_per_node": (
                1e6 * ratio(branching, total("solvers.branching", "branching.nodes")), "us"),
            "solvers.fo.assignments": (exact["fo.assignments"], "count"),
            "solvers.fo.us_per_assignment": (
                1e6 * ratio(fo, total("solvers.fo", "fo.assignments")), "us"),
            "firstorder.structure_ms": (mean_ms("firstorder.structure_of"), "ms"),
            "cli.import_ms": (self.extra.get("import_ms", 0.0), "ms"),
            "cli.interp_ms": (self.extra.get("interp_ms", 0.0), "ms"),
            "formats.parse_ms": (mean_ms("formats.load_framework"), "ms"),
            "formats.write_ms": (mean_ms("formats.write_apx"), "ms"),
            "core.build_ms": (mean_ms("core.build", self.spans[1:]), "ms"),
            "gadgets.gen_ms": (mean_ms("gadgets.gen", self.spans[1:]), "ms"),
        }
        layers = {}
        for name in sorted({s.name for s in loop}):
            count = sum(1 for s in loop if s.name == name)
            layers[name] = {
                "calls_per_op": ratio(count, ops),
                "ms_per_op": 1000 * ratio(total(name), ops),
                "self_ms_per_op": 1000 * ratio(self_time(name), ops),
            }
        member_calls = sum(total(key="member." + s) for s in MEMBER_FUNCS)
        member_s, maxsearch_s = total(key="member_s"), total(key="maxsearch_s")
        if member_calls:
            layers["solvers.membership (aggregated)"] = {
                "calls_per_op": ratio(member_calls, ops),
                "ms_per_op": 1000 * ratio(member_s, ops),
                "self_ms_per_op": 1000 * ratio(member_s - maxsearch_s, ops),
            }
        if total(key="maxsearch"):
            layers["enumeration.maxsearch (aggregated)"] = {
                "calls_per_op": ratio(total(key="maxsearch"), ops),
                "ms_per_op": 1000 * ratio(maxsearch_s, ops),
                "self_ms_per_op": 1000 * ratio(maxsearch_s, ops),
            }
        bases = {
            "solvers.delta.cf_share": f"{exact['delta.cf']} / {exact['delta.candidates']}",
            "solvers.delta.hit_share": f"{exact['delta.hits']} / {exact['delta.candidates']}",
            "solvers.branching.us_per_node": f"{branching:.3f} s / {total('solvers.branching', 'branching.nodes')} nodes",
            "solvers.fo.us_per_assignment": f"{fo:.3f} s / {total('solvers.fo', 'fo.assignments')} assignments",
        }
        return {
            "metrics": metrics,
            "layers": layers,
            "bases": bases,
            "exact_counts_repeat": repeat,
            "overhead_s": total(key="overhead_s"),
        }

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                record = {
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "round": s.round, "start": s.start - self.origin,
                    "end": (s.end or s.start) - self.origin,
                }
                record.update(s.attrs)
                fh.write(json.dumps(record) + "\n")
