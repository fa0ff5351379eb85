"""The four workloads: seeded inputs, the timed operations, and their checks.

A workload's set-up returns one round: a list of operations.  The runner
repeats whole rounds, so every run attempts the same operations in the same
proportions.  An operation returns its raw results; `check` judges them
afterwards against the reference checks in checks.py and returns a list of
problems, each flagged as a known fault or not.

The program is reached only through module attributes (`solvers.x`, not a
copy of x), so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
from checks import Graph, Oracle, Question

from argudyn import core, formats, gadgets, instances, solvers

SEMANTICS = checks.SEMANTICS


@dataclass
class Problem:
    message: str
    fault: bool = False  # a known program fault, counted as a failed operation


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list[Problem]]
    # traced run only: in-process calls into the layers this operation
    # reaches through a subprocess, made outside its timing
    hook: Callable[[], None] | None = None


def _rng(workload: str, seed: int, part: str = "") -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


def _af(g: Graph) -> core.ArgumentationFramework:
    return core.ArgumentationFramework(
        g.names, [(g.names[a], g.names[b]) for a, b in g.attacks]
    )


def _witness_mask(g: Graph, result) -> int | None:
    return None if result.witness is None else g.mask(result.witness.names)


def _instance(af, q: Question):
    sigma = core.Semantics(q.sigma)
    if q.kind == "small":
        return instances.small_instance(af, sigma, q.k)
    if q.kind == "repair":
        return instances.repair_instance(af, af.set_from_mask(q.s), sigma, q.k)
    if q.kind == "adjust":
        return instances.adjust_instance(
            af, af.set_from_mask(q.s), af.arguments[q.target], sigma, q.k
        )
    return instances.center_instance(
        af, af.set_from_mask(q.s), af.set_from_mask(q.s2), sigma
    )


def _solve_all(jobs, engine: str, cap: int | None = None):
    def run():
        return [
            solvers.solve_instance(
                inst, engine=engine, cap=cap, require_nonempty=nonempty
            )
            for inst, nonempty in jobs
        ]

    return run


# -- cnf-gadgets ----------------------------------------------------------------

# (variables, clauses, unsatisfiable) slots of one round.  Satisfiable
# formulas cost the most (the center search walks every layer), so they get
# the smaller frameworks: an operation then costs 1-3x the cheapest one.
# Formulas of one slot kind still differ in cost, the unsatisfiable ones by
# up to 7x, so a round holds 100 of them: the run's latency quantiles are
# then taken over 100 formulas and move little from one seed to the next.
CNF_SLOTS = (
    [(2, 4, False)] * 2 + [(3, 4, False)] * 2 + [(3, 5, False)] * 3
    + [(4, 3, False)] * 3 + [(4, 4, False)] * 3
    + [(4, 6, True)] * 4 + [(4, 7, True)] * 3
) * 5
CNF_CAP = 200


def _cnf_formula(rng: random.Random, n: int, m: int, unsat: bool):
    while True:
        clauses = checks.random_cnf_two(rng, n, m)
        if (checks.satisfying_assignment(n, clauses) is None) == unsat:
            return clauses


def _cnf_check(g: Graph, q: Question, unsat: bool, result) -> list[Problem]:
    problems = []
    if result.answer != unsat:
        problems.append(Problem(f"answer {result.answer}, truth table says {unsat}"))
    w = _witness_mask(g, result)
    if result.answer and w is None:
        problems.append(Problem("YES without a witness"))
    if w is not None and not (checks.admissible(g, w) and q.fits(w)):
        problems.append(Problem(f"witness {g.names_of(w)} fails"))
    return problems


def setup_cnf(seed: int) -> list[Op]:
    rng = _rng("cnf-gadgets", seed)
    ops = []
    for slot, (n, m, unsat) in enumerate(CNF_SLOTS):
        clauses = _cnf_formula(rng, n, m, unsat)
        formula = gadgets.cnf(n, [list(c) for c in clauses])
        jobs, judged = [], []
        for gen, nonempty in (
            (gadgets.gen_cnf_small, True),
            (gadgets.gen_cnf_adjust, False),
            (gadgets.gen_cnf_center, False),
        ):
            for sigma in ("prf", "sem"):
                inst = gen(formula, sigma).instance
                af = inst.framework
                g = Graph(af.arguments, af.attacks)
                if inst.kind is instances.ProblemKind.SMALL:
                    q = Question("small", sigma, k=inst.k, nonempty=True)
                elif inst.kind is instances.ProblemKind.ADJUST:
                    q = Question(
                        "adjust", sigma, k=inst.k, s=g.mask(inst.e0.names),
                        target=g.index[inst.target],
                    )
                else:
                    q = Question(
                        "center", sigma, s=g.mask(inst.e1.names),
                        s2=g.mask(inst.e2.names),
                    )
                jobs.append((inst, nonempty))
                judged.append((g, q))

        def check(results, judged=judged, unsat=unsat):
            return [
                p
                for (g, q), r in zip(judged, results)
                for p in _cnf_check(g, q, unsat, r)
            ]

        label = f"cnf{slot}:n={n},m={m},{'unsat' if unsat else 'sat'}"
        ops.append(Op(label, _solve_all(jobs, "delta", CNF_CAP), check))
    return ops


# -- degree-repair ----------------------------------------------------------------

DEGREE_SIZES = (2000, 2500, 3000)
DEGREE_BUDGETS = (2, 3, 4, 5, 6)
DEGREE_STARTS = 24  # start sets per (framework, budget)
# Deeper perturbations cost more to repair, so each start set's number of
# flips is fixed by its slot (1..k//2 in turn), not drawn: every seed then
# has the same mix of shallow and deep repairs.


def setup_degree(seed: int) -> list[Op]:
    ops = []
    for size in DEGREE_SIZES:
        rng = _rng("degree-repair", seed, str(size))
        names, attacks, planted = checks.planted_stable(rng, size, degree=3)
        g = Graph(names, attacks)
        af = core.ArgumentationFramework(names, attacks)
        for k in DEGREE_BUDGETS:
            for j in range(DEGREE_STARTS):
                start = planted
                for x in rng.sample(range(size), 1 + j % (k // 2)):
                    start ^= 1 << x
                jobs = [
                    (instances.repair_instance(
                        af, af.set_from_mask(start), core.Semantics(s), k), False)
                    for s in SEMANTICS
                ]

                def check(results, k=k, start=start, g=g):
                    problems = []
                    for sigma, r in zip(SEMANTICS, results):
                        w = _witness_mask(g, r)
                        if not r.answer or not w:
                            problems.append(Problem(f"{sigma}: no nonempty witness"))
                        elif not checks.MEMBER[sigma](g, w):
                            problems.append(Problem(f"{sigma}: witness not a member"))
                        elif checks.distance(w, start) > k:
                            problems.append(Problem(f"{sigma}: witness beyond k"))
                    return problems

                ops.append(
                    Op(f"repair:n={size},k={k},#{j}",
                       _solve_all(jobs, "branching"), check)
                )
    rng = _rng("degree-repair", seed, "order")
    rng.shuffle(ops)
    return ops


# -- fo-small ------------------------------------------------------------------------

FO_SIZES = (8, 9, 10, 11, 12)
FO_FRAMEWORKS = 24  # per size
FO_BUDGET = 2


def _fo_questions(
    rng: random.Random, oracle: Oracle, parity: int
) -> list[Question] | None:
    """The twelve questions on one framework, or None if it lacks the
    extensions they need.  A center question at distance 3 costs the fo
    engine several times one at distance 2, so the distance is not drawn:
    it alternates between the semantics, starting at 2 + parity."""
    g = oracle.graph
    out = []
    for i, sigma in enumerate(SEMANTICS):
        exts = oracle.extensions[sigma]
        nonempty = [e for e in exts if e]
        d = 2 + (parity + i) % 2
        pairs = [
            (a, b) for a in exts for b in exts if a < b and checks.distance(a, b) == d
        ]
        if not nonempty or not pairs:
            return None
        e = rng.choice(nonempty)
        start = e
        for x in rng.sample(range(g.n), rng.randint(1, 3)):
            start ^= 1 << x
        e1, e2 = rng.choice(pairs)
        out += [
            Question("small", sigma, k=FO_BUDGET, nonempty=True),
            Question("repair", sigma, k=FO_BUDGET, s=start, nonempty=True),
            Question("adjust", sigma, k=FO_BUDGET, s=rng.choice(nonempty),
                     target=rng.randrange(g.n)),
            Question("center", sigma, s=e1, s2=e2),
        ]
    return out


def _fo_op(label: str, cases, faults: int = 0) -> Op:
    """cases: (oracle, questions); the last `faults` questions overall are
    the named fo fault, asked with require_nonempty=True."""
    jobs, judged = [], []
    for oracle, questions in cases:
        af = _af(oracle.graph)
        for q in questions:
            jobs.append((_instance(af, q), q.nonempty and q.kind in ("adjust", "center")))
            judged.append((oracle, q))

    def check(results):
        problems = []
        for i, ((oracle, q), r) in enumerate(zip(judged, results)):
            fault = i >= len(judged) - faults
            want = oracle.answer(q)
            w = _witness_mask(oracle.graph, r)
            if r.answer != want:
                problems.append(Problem(f"{q}: answer {r.answer}, oracle {want}", fault))
            elif r.answer and (w is None or not oracle.is_witness(q, w)):
                problems.append(Problem(f"{q}: witness {w} fails", fault))
        return problems

    return Op(label, _solve_all(jobs, "fo"), check)


def _fo_case(rng: random.Random, n: int, parity: int = 0):
    for graph in checks.small_frameworks(rng, n):
        oracle = Oracle.of(graph)
        questions = _fo_questions(rng, oracle, parity)
        if questions is not None:
            return oracle, questions


def fo_fault_op() -> Op:
    """Adjust and center questions that ask for a nonempty witness, on
    inputs where the fo engine returns the empty set: the engine drops
    require_nonempty.  The inputs do not depend on the seed, and a
    regular question set rides along so the operation costs what the
    others cost."""
    regular = _fo_case(random.Random("fo-small:fault"), 10)
    single = Oracle.of(Graph(["a"], []))
    pair = Oracle.of(Graph(["a", "b"], []))
    faults = [
        (single, [Question("adjust", "adm", k=1, s=1, target=0, nonempty=True)]),
        (pair, [Question("center", "adm", s=1, s2=2, nonempty=True)]),
    ]
    return _fo_op("fo-fault", [regular] + faults, faults=2)


def setup_fo(seed: int) -> list[Op]:
    ops = []
    for n in FO_SIZES:
        rng = _rng("fo-small", seed, str(n))
        for j in range(FO_FRAMEWORKS):
            ops.append(_fo_op(f"fo:n={n},#{j}", [_fo_case(rng, n, j % 2)]))
    ops.append(fo_fault_op())
    return ops


def setup(workload: str, seed: int, root: Path, work: Path) -> list[Op]:
    """One round of the workload's operations, built from the seed."""
    if workload == "cnf-gadgets":
        return setup_cnf(seed)
    if workload == "degree-repair":
        return setup_degree(seed)
    if workload == "fo-small":
        return setup_fo(seed)
    return setup_cli(seed, root, work)


# -- cli-solve ------------------------------------------------------------------------

CLI_FILES = (("f2000.apx", 2000), ("f4000.tgf", 4000), ("f6000.apx", 6000),
             ("f9000.tgf", 9000))


def cli_env(root: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(root / "src"))


# Runs `python3 -m argudyn.cli ARGS` and, at exit, reports the process's own
# peak resident memory.  Its rusage cannot: a child spawned from this
# process starts with this process's resident pages counted in ru_maxrss.
CLI_MAIN = """
import atexit, runpy, sys
def report():
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write(f"{PEAK_TAG} {kb}\\n")
atexit.register(report)
runpy.run_module("argudyn.cli", run_name="__main__", alter_sys=True)
"""
PEAK_TAG = "perfbench-peak-kb"


def cli_peak_kb(result) -> int:
    """A cli-solve operation's own peak resident memory, from the last line
    of its stderr; 0 when missing (its check then reports the failure)."""
    proc = result[1] if isinstance(result, tuple) else result
    lines = proc.stderr.strip().splitlines()
    if not lines or not lines[-1].startswith(PEAK_TAG + " "):
        return 0
    return int(lines[-1].split()[1])


def _cli(root: Path, args: list[str]):
    env = cli_env(root)
    code = CLI_MAIN.replace("{PEAK_TAG}", PEAK_TAG)

    def run():
        return subprocess.run(
            [sys.executable, "-c", code, *args],
            cwd=root, env=env, capture_output=True, text=True,
        )

    return run


def singleton_members(g: Graph, sigma: str) -> list[int]:
    """Arguments x with {x} a sigma-extension, by the full checks after a
    necessary-condition filter: {x} must attack each of its attackers and,
    for stb, every other argument."""
    full = (1 << g.n) - 1
    out = []
    for x in range(g.n):
        bit = 1 << x
        if g.targets[x] & bit or g.attackers[x] & ~g.targets[x]:
            continue
        if sigma == "stb" and g.targets[x] | bit != full:
            continue
        if checks.MEMBER[sigma](g, bit):
            out.append(x)
    return out


def _decision(stdout: str):
    payload = json.loads(stdout)
    return payload["answer"], payload["witness"]


def setup_cli(seed: int, root: Path, work: Path) -> list[Op]:
    rng = _rng("cli-solve", seed)
    work.mkdir(parents=True, exist_ok=True)
    graphs = {}
    planted = {}
    for fname, size in CLI_FILES:
        names, attacks, mask = checks.planted_stable(rng, size, degree=3)
        text = (checks.write_tgf if fname.endswith(".tgf") else checks.write_apx)(
            names, attacks)
        (work / fname).write_text(text, encoding="utf-8")
        graphs[fname] = Graph(names, attacks)
        planted[fname] = mask
    cnfs = []
    for i, (n, m) in enumerate(((3, 5), (4, 6))):
        clauses = checks.random_cnf_two(rng, n, m)
        path = work / f"c{i}.cnf"
        path.write_text(checks.write_dimacs(n, clauses), encoding="utf-8")
        cnfs.append((path, n, m))

    ops: list[Op] = []

    @functools.cache
    def reread(fname) -> Graph:
        """The file as the benchmark's own reader sees it after the run."""
        return checks.read_framework(work / fname)

    def repair(fname, sigma, k):
        g = graphs[fname]
        start = planted[fname]
        for x in rng.sample(range(g.n), 1):
            start ^= 1 << x
        args = ["solve", "repair", "--af", str(work / fname), "--semantics", sigma,
                "--set", ",".join(g.names_of(start)), "-k", str(k),
                "--engine", "branching", "--format", "json"]

        start_names = g.names_of(start)

        def check(proc):
            answer, witness = _decision(proc.stdout)
            h = reread(fname)
            w = h.mask(witness) if witness is not None else 0
            if not answer or not w:
                return [Problem("no nonempty witness")]
            if not checks.MEMBER[sigma](h, w) or checks.distance(w, h.mask(start_names)) > k:
                return [Problem(f"witness fails {sigma} or k={k}")]
            return []

        ops.append(Op(f"repair:{fname},{sigma},k={k}", _cli(root, args),
                      cli_check(check), parse_hook(work / fname)))

    def small(fname, sigma):
        args = ["solve", "small", "--af", str(work / fname), "--semantics", sigma,
                "-k", "1", "--format", "json"]

        def check(proc):
            answer, witness = _decision(proc.stdout)
            h = reread(fname)
            if not answer:
                members = singleton_members(h, sigma)
                return [Problem(f"NO, but {members[:3]} qualify")] if members else []
            if len(witness) != 1 or not checks.MEMBER[sigma](h, h.mask(witness)):
                return [Problem(f"witness {witness} fails")]
            return []

        ops.append(Op(f"small:{fname},{sigma}", _cli(root, args),
                      cli_check(check), parse_hook(work / fname)))

    def adjust(fname, sigma):
        g = graphs[fname]
        e0 = planted[fname]
        target = rng.choice([x for x in range(g.n) if e0 >> x & 1])
        args = ["solve", "adjust", "--af", str(work / fname), "--semantics", sigma,
                "--e0", ",".join(g.names_of(e0)), "--target", g.names[target],
                "-k", "1", "--format", "json"]

        flipped = g.names_of(e0 ^ 1 << target)

        def check(proc):
            answer, witness = _decision(proc.stdout)
            h = reread(fname)
            want = checks.MEMBER[sigma](h, h.mask(flipped))
            if answer != want:
                return [Problem(f"answer {answer}, reference {want}")]
            if answer and h.mask(witness) != h.mask(flipped):
                return [Problem("witness is not E0 with the target flipped")]
            return []

        ops.append(Op(f"adjust:{fname},{sigma}", _cli(root, args),
                      cli_check(check), parse_hook(work / fname)))

    def gen(kind, source, sigma):
        slot = len(ops)
        args_of = ["gen", kind, "--semantics", sigma, "--format", "json"]
        if kind == "mcq":
            args_of += ["--parts", "3", "--part-size", "3", "--seed", str(source)]
        else:
            args_of += ["--cnf", str(source[0])]
        counter = [0]

        def run():
            out = work / f"gen{slot}-{counter[0]}.apx"
            counter[0] += 1
            proc = _cli(root, args_of + ["--out", str(out)])()
            return out, proc

        def check(result):
            out, proc = result
            try:
                return _gen_problems(out, proc, kind, sigma, source)
            except (ValueError, KeyError, TypeError, OSError) as exc:
                return [Problem(f"bad gen output: {exc}")]

        ops.append(Op(f"gen:{kind},{sigma}", run, check, gen_hook(kind, source, sigma)))

    repair("f2000.apx", "adm", 2)
    repair("f4000.tgf", "com", 2)
    small("f6000.apx", "adm")
    gen("cnf-small", cnfs[0], "prf")
    repair("f9000.tgf", "stb", 2)
    adjust("f2000.apx", "stb")
    repair("f6000.apx", "stb", 3)
    small("f4000.tgf", "stb")
    gen("cnf-center", cnfs[1], "sem")
    repair("f2000.apx", "com", 3)
    adjust("f9000.tgf", "adm")
    gen("mcq", rng.randrange(1 << 30), "adm")
    return ops


def parse_hook(path: Path):
    return lambda: formats.load_framework(path)


def gen_hook(kind, source, sigma):
    """Generate and serialize in process what `argudyn gen` writes."""

    def hook():
        if kind == "mcq":
            graph = gadgets.random_kpartite(
                random.Random(source), k=3, max_part_size=3, edge_prob=0.5)
            out = gadgets.gen_mcq_small(graph, sigma)
        else:
            generator = {"cnf-small": gadgets.gen_cnf_small,
                         "cnf-center": gadgets.gen_cnf_center}[kind]
            out = generator(formats.load_cnf(source[0]), sigma)
        formats.write_apx(out.instance.framework)

    return hook


def _gen_problems(out: Path, proc, kind, sigma, source) -> list[Problem]:
    if proc.returncode != 0:
        return [Problem(f"exit {proc.returncode}: {proc.stderr.strip()[:200]}")]
    report = json.loads(proc.stdout)
    g = checks.read_apx(out.read_text(encoding="utf-8"))
    sidecar = json.loads(Path(str(out) + ".json").read_text(encoding="utf-8"))
    problems = []
    if (g.n, len(g.attacks)) != (report["n_arguments"], report["n_attacks"]):
        problems.append(Problem("file and report disagree on size"))
    inst = sidecar["instance"]
    if inst != report["instance"] or inst["semantics"] != sigma:
        problems.append(Problem("sidecar and report disagree on the question"))
    named = set(sidecar["name_map"].values())
    for key in ("s", "e0", "e1", "e2"):
        named |= set(inst.get(key, []))
    if "target" in inst:
        named.add(inst["target"])
    if not named <= set(g.names):
        problems.append(Problem("sidecar names arguments missing from the file"))
    if kind == "mcq":
        if inst["kind"] != "small" or inst["k"] != 3:
            problems.append(Problem("mcq question is not small with k=3"))
    else:
        _, n, m = source
        params = sidecar["provenance"]["parameters"]
        want = 5 * m + 10 * n - 6 + {"cnf-small": 1, "cnf-center": 12}[kind]
        if (params["n"], params["m"], g.n) != (n, m, want):
            problems.append(Problem("cnf sizes do not match the formula"))
        if g.max_degree() > 5:
            problems.append(Problem("cnf framework degree above 5"))
    return problems


def cli_check(op_check):
    """Wrap a solve check with the exit-code and JSON checks."""

    def check(proc):
        if proc.returncode != 0:
            return [Problem(f"exit {proc.returncode}: {proc.stderr.strip()[:200]}")]
        try:
            return op_check(proc)
        except (ValueError, KeyError, TypeError) as exc:
            return [Problem(f"bad output: {exc}")]

    return check
