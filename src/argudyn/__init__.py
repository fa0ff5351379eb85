"""Dynamic-extension reasoning for abstract argumentation frameworks.

Core objects: frameworks, extension semantics (adm, com, prf, sem, stb),
and four parameterized decision problems about moving between extensions
(small, repair, adjust, center), with three solver engines, reduction
generators, exchange formats, a CLI, and a benchmark harness.

The public names resolve lazily (PEP 562): `import argudyn` loads no
submodule, and `argudyn.X` or `from argudyn import X` loads only the module
that defines X.
"""

# static checkers take this as true and read the imports below; at run time
# __getattr__ resolves the names instead
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .core import (
        ArgumentSet, ArgumentationFramework, Semantics, distance,
        is_admissible, is_complete, is_conflict_free, is_stable, max_degree,
        range_of,
    )
    from .enumeration import DEFAULT_ENUM_CAP, is_preferred, is_semistable
    from .errors import (
        ArgudynError, CapExceeded, DuplicateArgument, FormulaTooDeep,
        InvalidArity, InvalidCap, IoError, NotAnExtension, NotThreeCnfTwo,
        OddK, ParseError, UnboundVariable, UndeclaredArgument,
        UnsupportedSemantics,
    )
    from .formats import (
        ThreeCnfTwoFormula, load_cnf, load_framework, parse_apx,
        parse_dimacs_cnf, parse_tgf, write_apx, write_dimacs_cnf, write_tgf,
    )
    from .gadgets import (
        GadgetOutput, KPartiteGraph, cnf, even_k_duplicate,
        gen_adjust_from_small, gen_center_from_small, gen_cnf_adjust,
        gen_cnf_center, gen_cnf_small, gen_mcq_small, kpartite,
        random_kpartite, random_three_cnf_two,
    )
    from .instances import (
        ProblemInstance, ProblemKind, adjust_instance, center_instance,
        repair_instance, small_instance,
    )
    from .solvers import (
        SolveResult, SolveStats, enumerate_extensions, solve_adjust,
        solve_center, solve_instance, solve_repair, solve_repair_branching,
        solve_small,
    )

__version__ = "0.1.0"

# the module each public name lives in; the tests check it against the
# imports above
_HOME = {
    name: module
    for module, names in {
        "core": "ArgumentSet ArgumentationFramework Semantics distance "
        "is_admissible is_complete is_conflict_free is_stable max_degree range_of",
        "enumeration": "DEFAULT_ENUM_CAP is_preferred is_semistable",
        "errors": "ArgudynError CapExceeded DuplicateArgument FormulaTooDeep "
        "InvalidArity InvalidCap IoError NotAnExtension NotThreeCnfTwo OddK "
        "ParseError UnboundVariable UndeclaredArgument UnsupportedSemantics",
        "formats": "ThreeCnfTwoFormula load_cnf load_framework parse_apx "
        "parse_dimacs_cnf parse_tgf write_apx write_dimacs_cnf write_tgf",
        "gadgets": "GadgetOutput KPartiteGraph cnf even_k_duplicate "
        "gen_adjust_from_small gen_center_from_small gen_cnf_adjust "
        "gen_cnf_center gen_cnf_small gen_mcq_small kpartite random_kpartite "
        "random_three_cnf_two",
        "instances": "ProblemInstance ProblemKind adjust_instance "
        "center_instance repair_instance small_instance",
        "solvers": "SolveResult SolveStats enumerate_extensions solve_adjust "
        "solve_center solve_instance solve_repair solve_repair_branching "
        "solve_small",
    }.items()
    for name in names.split()
}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib: each import statement in this file must
    # name an export
    value = getattr(__import__(f"{__name__}.{home}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
