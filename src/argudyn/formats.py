"""Text formats: fact-style framework files (arg/att), node-edge lists,
and DIMACS CNF input."""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

from .core import NAME_RE, ArgumentationFramework
from .errors import (
    DuplicateArgument,
    IoError,
    NotThreeCnfTwo,
    ParseError,
    UndeclaredArgument,
)

_FACT_RE = re.compile(
    rf"\s*(arg|att)\s*\(\s*({NAME_RE.pattern})\s*"
    rf"(?:,\s*({NAME_RE.pattern})\s*)?\)\s*\."
)


def parse_apx(text: str) -> ArgumentationFramework:
    """Parse fact-style framework text: `arg(NAME).` and `att(A,B).` facts,
    several per line if desired, with `%` comments.  Attack endpoints may
    be declared before or after the attack; argument order is declaration
    order."""
    arguments: list[str] = []
    declared: set[str] = set()
    pending: list[tuple[str, str, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0]
        pos = 0
        while line[pos:].strip():
            match = _FACT_RE.match(line, pos)
            if not match:
                snippet = line[pos:].strip()[:40]
                raise ParseError(
                    f"expected arg(NAME). or att(A,B). but found {snippet!r}",
                    lineno,
                )
            kind, first, second = match.groups()
            if kind == "arg":
                if second is not None:
                    raise ParseError("arg(...) takes exactly one name", lineno)
                if first in declared:
                    raise DuplicateArgument(
                        f"argument {first!r} declared twice", lineno
                    )
                declared.add(first)
                arguments.append(first)
            else:
                if second is None:
                    raise ParseError("att(...) takes exactly two names", lineno)
                pending.append((first, second, lineno))
            pos = match.end()
    attacks: list[tuple[str, str]] = []
    for src, dst, lineno in pending:
        for name in (src, dst):
            if name not in declared:
                raise UndeclaredArgument(
                    f"attack endpoint {name!r} is not a declared argument",
                    lineno,
                )
        attacks.append((src, dst))
    return ArgumentationFramework(arguments, attacks)


def write_apx(af: ArgumentationFramework) -> str:
    """Serialize a framework as arg/att facts; parse_apx(write_apx(af))
    reproduces af exactly."""
    lines = [f"arg({name})." for name in af.arguments]
    lines += [f"att({a},{b})." for a, b in af.sorted_attacks()]
    return "\n".join(lines) + "\n"


def parse_tgf(text: str) -> ArgumentationFramework:
    """Parse a node-edge list: one node name per line, a `#` separator,
    then `SRC DST` edge lines.  Tokens past the first (nodes) or second
    (edges) are treated as labels and ignored."""
    arguments: list[str] = []
    declared: set[str] = set()
    attacks: list[tuple[str, str]] = []
    seen_separator = False
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line:
            continue
        if line == "#":
            if seen_separator:
                raise ParseError("second '#' separator", lineno)
            seen_separator = True
            continue
        tokens = line.split()
        if not seen_separator:
            name = tokens[0]
            if not NAME_RE.fullmatch(name):
                raise ParseError(f"invalid node name {name!r}", lineno)
            if name in declared:
                raise DuplicateArgument(f"node {name!r} declared twice", lineno)
            declared.add(name)
            arguments.append(name)
        else:
            if len(tokens) < 2:
                raise ParseError("edge line needs two node names", lineno)
            src, dst = tokens[0], tokens[1]
            for name in (src, dst):
                if name not in declared:
                    raise UndeclaredArgument(
                        f"edge endpoint {name!r} is not a declared node", lineno
                    )
            attacks.append((src, dst))
    if not seen_separator:
        raise ParseError("missing '#' separator line", last_line + 1)
    return ArgumentationFramework(arguments, attacks)


def write_tgf(af: ArgumentationFramework) -> str:
    """Serialize a framework as a node-edge list."""
    lines = list(af.arguments)
    lines.append("#")
    lines += [f"{a} {b}" for a, b in af.sorted_attacks()]
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class ThreeCnfTwoFormula:
    """CNF with at most 3 literals per clause and each literal in at most
    2 clauses.  Literals are nonzero ints: i is variable i, -i its negation.
    """

    n: int
    clauses: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise NotThreeCnfTwo("need at least one variable")
        if not self.clauses:
            raise NotThreeCnfTwo("need at least one clause")
        counts: dict[int, int] = {}
        for idx, clause in enumerate(self.clauses, start=1):
            if len(clause) > 3:
                raise NotThreeCnfTwo(f"clause {idx} has more than 3 literals")
            for lit in clause:
                if not isinstance(lit, int) or lit == 0 or abs(lit) > self.n:
                    raise NotThreeCnfTwo(f"clause {idx} has invalid literal {lit!r}")
                counts[lit] = counts.get(lit, 0) + 1
                if counts[lit] > 2:
                    raise NotThreeCnfTwo(
                        f"literal {lit} occurs in more than 2 clauses"
                    )

    @property
    def m(self) -> int:
        return len(self.clauses)

    def canonical_text(self) -> str:
        body = ";".join(
            ",".join(str(l) for l in sorted(clause)) for clause in self.clauses
        )
        return f"n={self.n}|{body}"


def parse_dimacs_cnf(text: str) -> ThreeCnfTwoFormula:
    """Parse DIMACS CNF: `c` comment lines, a `p cnf VARS CLAUSES` header,
    then whitespace-separated literals with 0 terminating each clause.
    The result is validated as 3-CNF-2 (at most 3 literals per clause,
    each literal in at most 2 clauses)."""
    header: tuple[int, int] | None = None
    clauses: list[frozenset[int]] = []
    current: list[int] = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError("second header line", lineno)
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("header must be 'p cnf VARS CLAUSES'", lineno)
            try:
                header = (int(parts[2]), int(parts[3]))
            except ValueError:
                raise ParseError("header counts must be integers", lineno) from None
            if header[0] < 1 or header[1] < 1:
                raise ParseError("header counts must be positive", lineno)
            continue
        if header is None:
            raise ParseError("clause data before the 'p cnf' header", lineno)
        for token in line.split():
            try:
                lit = int(token)
            except ValueError:
                raise ParseError(f"invalid literal token {token!r}", lineno) from None
            if lit == 0:
                clauses.append(frozenset(current))
                current = []
            else:
                if abs(lit) > header[0]:
                    raise ParseError(
                        f"literal {lit} exceeds declared variable count "
                        f"{header[0]}",
                        lineno,
                    )
                current.append(lit)
    if header is None:
        raise ParseError("missing 'p cnf' header", last_line + 1)
    if current:
        raise ParseError("last clause is not terminated by 0", last_line)
    if len(clauses) != header[1]:
        raise ParseError(
            f"header declares {header[1]} clauses but {len(clauses)} were given",
            last_line,
        )
    return ThreeCnfTwoFormula(header[0], tuple(clauses))


def write_dimacs_cnf(formula: ThreeCnfTwoFormula) -> str:
    """Serialize a formula in DIMACS CNF form."""
    lines = [f"p cnf {formula.n} {formula.m}"]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in sorted(clause)) + " 0")
    return "\n".join(lines) + "\n"


def load_framework(path: str | Path) -> ArgumentationFramework:
    """Read a framework file, picking the format by suffix (.tgf for
    node-edge lists, anything else fact-style)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if path.suffix.lower() == ".tgf":
        return parse_tgf(text)
    return parse_apx(text)


def load_cnf(path: str | Path) -> ThreeCnfTwoFormula:
    """Read a DIMACS CNF file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    return parse_dimacs_cnf(text)
