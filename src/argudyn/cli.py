"""Command-line interface: extension membership checks, enumeration, the
four dynamic-extension decision problems, instance generators, and the
benchmark harness.

Exit codes: 0 success (and YES under --strict), 1 NO under --strict,
2 usage or runtime errors (single-line diagnostic on stderr).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .core import ArgumentationFramework, ArgumentSet, Semantics
from .enumeration import resolve_cap
from .errors import ArgudynError, IoError
from .formats import load_cnf, load_framework, write_apx
from .instances import (
    ProblemInstance,
    adjust_instance,
    center_instance,
    repair_instance,
    small_instance,
)
from .solvers import (
    ENGINES,
    SolveResult,
    enumerate_extensions,
    sigma_member_mask,
    solve_instance,
)

_SEMANTICS_CHOICES = tuple(s.value for s in Semantics)
_GEN_KINDS = ("mcq", "adjust", "center", "cnf-small", "cnf-adjust", "cnf-center")


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the shared options it reads
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument(
        "--format",
        choices=("plain", "json"),
        default="plain",
        help="output format (default: plain)",
    )
    strict = argparse.ArgumentParser(add_help=False)
    strict.add_argument(
        "--strict",
        action="store_true",
        help="exit 1 when the answer is NO",
    )
    cap = argparse.ArgumentParser(add_help=False)
    cap.add_argument(
        "--enum-cap",
        type=int,
        default=None,
        help="override the enumeration cap for this invocation",
    )

    parser = argparse.ArgumentParser(
        prog="argudyn",
        description="Decide small, repair, adjust, and center questions "
        "about argumentation-framework extensions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser(
        "check",
        parents=[fmt, strict, cap],
        help="test one set for extension membership",
    )
    p_check.add_argument("--af", required=True, help="framework file (.apx/.tgf)")
    p_check.add_argument("--set", required=True, help="comma-separated arguments")
    p_check.add_argument("--semantics", required=True, choices=_SEMANTICS_CHOICES)

    p_enum = sub.add_parser(
        "enumerate", parents=[fmt, cap], help="list all extensions"
    )
    p_enum.add_argument("--af", required=True)
    p_enum.add_argument("--semantics", required=True, choices=_SEMANTICS_CHOICES)

    p_solve = sub.add_parser(
        "solve", parents=[fmt, strict, cap], help="decide one of the four problems"
    )
    p_solve.add_argument("problem", choices=("small", "repair", "adjust", "center"))
    p_solve.add_argument("--af", required=True)
    p_solve.add_argument("--semantics", required=True, choices=_SEMANTICS_CHOICES)
    p_solve.add_argument("-k", type=int, default=None, help="distance/size budget")
    p_solve.add_argument("--set", default=None, help="repair: starting set")
    p_solve.add_argument("--e0", default=None, help="adjust: current extension")
    p_solve.add_argument("--target", default=None, help="adjust: argument to toggle")
    p_solve.add_argument("--e1", default=None, help="center: first extension")
    p_solve.add_argument("--e2", default=None, help="center: second extension")
    p_solve.add_argument("--engine", choices=ENGINES, default="delta")
    p_solve.add_argument(
        "--require-nonempty",
        action="store_true",
        help="adjust/center: accept only nonempty witnesses",
    )

    p_gen = sub.add_parser(
        "gen", parents=[fmt], help="emit a generated instance as APX + JSON"
    )
    p_gen.add_argument("what", choices=_GEN_KINDS)
    p_gen.add_argument("--out", required=True, help="APX output path")
    p_gen.add_argument(
        "--semantics",
        choices=_SEMANTICS_CHOICES,
        default=None,
        help="default: adm (mcq/adjust/center) or prf (cnf-*)",
    )
    p_gen.add_argument("--parts", type=int, default=3, help="mcq: part count")
    p_gen.add_argument("--part-size", type=int, default=3, help="mcq: max part size")
    p_gen.add_argument("--edge-prob", type=float, default=0.5)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--cnf", default=None, help="cnf-*: DIMACS input path")
    p_gen.add_argument("--base-af", default=None, help="adjust/center: base framework")
    p_gen.add_argument("-k", type=int, default=None)

    p_bench = sub.add_parser(
        "bench", parents=[fmt], help="run a benchmark suite to CSV"
    )
    # bench.run_bench rejects an unknown suite and names the known ones, so
    # the parser needs no copy of them and bench loads only for this command
    p_bench.add_argument("--suite", required=True, help="suite to run")
    p_bench.add_argument("--out", required=True, help="CSV output path")
    p_bench.add_argument("--seed", type=int, default=0)

    return parser


def _split_names(text: str) -> list[str]:
    return [token.strip() for token in text.split(",") if token.strip()]


def _set_of(af: ArgumentationFramework, text: str) -> ArgumentSet:
    return af.set_of(_split_names(text))


def _decision_exit(answer: bool, args: argparse.Namespace) -> int:
    return 0 if answer or not args.strict else 1


def _print_decision(result: SolveResult, args: argparse.Namespace) -> None:
    if args.format == "json":
        payload = {
            "answer": result.answer,
            "witness": (
                list(result.witness.names) if result.witness is not None else None
            ),
            "stats": {
                "candidates": result.stats.candidates,
                "nodes": result.stats.nodes,
                "seconds": result.stats.seconds,
            },
        }
        print(json.dumps(payload))
        return
    print("YES" if result.answer else "NO")
    if result.witness is not None:
        print("witness: " + ",".join(result.witness.names))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _cmd_check(args: argparse.Namespace) -> int:
    af = load_framework(args.af)
    sigma = Semantics.parse(args.semantics)
    if args.enum_cap is not None:
        resolve_cap(args.enum_cap)
    member = bool(
        sigma_member_mask(af, _set_of(af, args.set).mask, sigma, args.enum_cap)
    )
    if args.format == "json":
        print(json.dumps({"answer": member}))
    else:
        print("YES" if member else "NO")
    return _decision_exit(member, args)


def _cmd_enumerate(args: argparse.Namespace) -> int:
    af = load_framework(args.af)
    sigma = Semantics.parse(args.semantics)
    extensions = enumerate_extensions(af, sigma, cap=args.enum_cap)
    if args.format == "json":
        payload = {
            "semantics": sigma.value,
            "extensions": [list(e.names) for e in extensions],
        }
        print(json.dumps(payload))
    else:
        for extension in extensions:
            print("{" + ",".join(extension.names) + "}")
    return 0


def _solve_instance_from_args(args: argparse.Namespace) -> ProblemInstance:
    af = load_framework(args.af)
    sigma = Semantics.parse(args.semantics)
    # the options the problem reads; it refuses the others
    reads = {"small": "k", "repair": "set k", "adjust": "e0 target k",
             "center": "e1 e2"}[args.problem].split()
    for dest in ("set", "e0", "target", "e1", "e2", "k"):
        flag = "-k" if dest == "k" else "--" + dest
        given = getattr(args, dest) is not None
        if dest in reads:
            _require(given, f"solve {args.problem} requires {flag}")
        else:
            _require(not given, f"solve {args.problem} does not take {flag}")
    _require(
        not args.require_nonempty or args.problem in ("adjust", "center"),
        f"solve {args.problem} does not take --require-nonempty",
    )
    _require(
        args.enum_cap is None or args.engine == "delta",
        f"solve {args.problem} does not take --enum-cap with --engine {args.engine}",
    )
    if args.problem == "small":
        return small_instance(af, sigma, args.k)
    if args.problem == "repair":
        return repair_instance(af, _set_of(af, args.set), sigma, args.k)
    if args.problem == "adjust":
        return adjust_instance(
            af, _set_of(af, args.e0), args.target.strip(), sigma, args.k
        )
    return center_instance(af, _set_of(af, args.e1), _set_of(af, args.e2), sigma)


def _cmd_solve(args: argparse.Namespace) -> int:
    instance = _solve_instance_from_args(args)
    result = solve_instance(
        instance,
        engine=args.engine,
        cap=args.enum_cap,
        require_nonempty=args.require_nonempty,
    )
    _print_decision(result, args)
    return _decision_exit(result.answer, args)


def _instance_summary(instance: ProblemInstance) -> dict:
    summary: dict = {
        "kind": instance.kind.value,
        "semantics": instance.semantics.value,
        "k": instance.parameter(),
    }
    if instance.s is not None:
        summary["s"] = list(instance.s.names)
    if instance.e0 is not None:
        summary["e0"] = list(instance.e0.names)
    if instance.target is not None:
        summary["target"] = instance.target
    if instance.e1 is not None:
        summary["e1"] = list(instance.e1.names)
        summary["e2"] = list(instance.e2.names)
    return summary


def _generate(args: argparse.Namespace):
    """The gadgets.GadgetOutput that `gen` writes."""
    from . import gadgets

    default = "prf" if args.what.startswith("cnf-") else "adm"
    sigma = Semantics.parse(args.semantics or default)
    if args.what == "mcq":
        rng = random.Random(args.seed)
        graph = gadgets.random_kpartite(
            rng, k=args.parts, max_part_size=args.part_size, edge_prob=args.edge_prob
        )
        return gadgets.gen_mcq_small(graph, sigma)
    if args.what in ("adjust", "center"):
        _require(args.base_af is not None, f"gen {args.what} requires --base-af")
        _require(args.k is not None, f"gen {args.what} requires -k")
        base = load_framework(args.base_af)
        if args.what == "adjust":
            return gadgets.gen_adjust_from_small(base, args.k, sigma)
        return gadgets.gen_center_from_small(base, args.k, sigma)
    _require(args.cnf is not None, f"gen {args.what} requires --cnf")
    formula = load_cnf(args.cnf)
    generator = {
        "cnf-small": gadgets.gen_cnf_small,
        "cnf-adjust": gadgets.gen_cnf_adjust,
        "cnf-center": gadgets.gen_cnf_center,
    }[args.what]
    return generator(formula, sigma)


def _cmd_gen(args: argparse.Namespace) -> int:
    output = _generate(args)
    af = output.instance.framework
    summary = _instance_summary(output.instance)
    sidecar = {
        "provenance": output.provenance,
        "name_map": output.name_map,
        "instance": summary,
    }
    try:
        Path(args.out).write_text(write_apx(af), encoding="utf-8")
        Path(str(args.out) + ".json").write_text(
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise IoError(f"cannot write {args.out}: {exc}") from exc
    if args.format == "json":
        print(
            json.dumps(
                {
                    "out": str(args.out),
                    "n_arguments": af.n,
                    "n_attacks": len(af.attacks),
                    "instance": summary,
                }
            )
        )
    else:
        print(
            f"wrote {args.out}: {af.n} arguments, {len(af.attacks)} attacks; "
            f"{summary['kind']} under {summary['semantics']}, k={summary['k']}"
        )
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import run_bench

    records = run_bench(args.suite, seed=args.seed, out_path=args.out)
    if args.format == "json":
        print(json.dumps({"out": str(args.out), "records": len(records)}))
    else:
        print(f"wrote {args.out}: {len(records)} records")
    return 0


_HANDLERS = {
    "check": _cmd_check,
    "enumerate": _cmd_enumerate,
    "solve": _cmd_solve,
    "gen": _cmd_gen,
    "bench": _cmd_bench,
}


def run_cli(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (ArgudynError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
