"""First-order formulas over attack structures: AST, builders, evaluator.

Formulas use one binary relation A (attack) plus problem-specific unary
relations (S, E0, T, E1, E2).  Builders take a predicate, a callable
str -> Formula, and bind every variable they add to a globally fresh name,
so applying a predicate inside them can never capture.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, Mapping, Sequence, Union

from .core import ArgumentationFramework, ArgumentSet, Semantics
from .errors import (
    FormulaTooDeep,
    InvalidArity,
    UnboundVariable,
    UnsupportedSemantics,
)

# -- AST --------------------------------------------------------------------


@dataclass(frozen=True)
class Eq:
    left: str
    right: str


@dataclass(frozen=True)
class App1:
    rel: str
    arg: str


@dataclass(frozen=True)
class Flipped:
    """arg is in the symmetric difference of the unary relations rels (the
    empty set when there are none) with the set of the variables' values
    flipped; the variables name a set, so a repeated value flips once."""

    rels: tuple[str, ...]
    variables: tuple[str, ...]
    arg: str


@dataclass(frozen=True)
class App2:
    rel: str
    left: str
    right: str


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    items: tuple["Formula", ...]


@dataclass(frozen=True)
class Or:
    items: tuple["Formula", ...]


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class AtMost:
    var: str
    k: int  # at most k elements satisfy body
    body: "Formula"


Formula = Union[Eq, App1, Flipped, App2, Not, And, Or, Implies, Exists, Forall, AtMost]
Pred = Callable[[str], Formula]


def conj(items: Iterable[Formula]) -> Formula:
    items = tuple(items)
    return items[0] if len(items) == 1 else And(items)


def disj(items: Iterable[Formula]) -> Formula:
    items = tuple(items)
    return items[0] if len(items) == 1 else Or(items)


def attacks(x: str, y: str) -> Formula:
    return App2("A", x, y)


# -- fresh variables -----------------------------------------------------------

_fresh_counter = itertools.count(1)


def fresh_var(hint: str = "v") -> str:
    return f"{hint}{next(_fresh_counter)}"


def unary_pred(rel: str) -> Pred:
    return lambda v: App1(rel, v)


# -- structures ---------------------------------------------------------------


class Structure:
    """A framework as a finite relational structure: its arguments are the
    universe and its attacks the binary A; named unary sets are kept as
    masks."""

    __slots__ = ("af", "unary")

    def __init__(self, af: ArgumentationFramework, unary: Mapping[str, int]):
        self.af = af
        self.unary = unary


def structure_of(
    af: ArgumentationFramework, **unary: ArgumentSet | Iterable[str]
) -> Structure:
    """Structure with universe X and binary A, plus named unary relations."""
    return Structure(af, {rel: af.mask_of(members) for rel, members in unary.items()})


# -- evaluator ----------------------------------------------------------------
#
# A formula compiles to nested closures, so compiling and evaluating recurse
# once per nested connective; past the interpreter's recursion limit both
# raise FormulaTooDeep.


def _slot(slots: dict[str, int], var: str) -> int:
    try:
        return slots[var]
    except KeyError:
        raise UnboundVariable(f"variable {var!r} is not bound") from None


def _unary(st: Structure, rel: str) -> int:
    try:
        return st.unary[rel]
    except KeyError:
        raise ValueError(f"structure has no unary relation {rel!r}") from None


def _compile(f: Formula, slots: dict[str, int], st: Structure, counter: list[int]):
    if isinstance(f, Eq):
        ia, ib = _slot(slots, f.left), _slot(slots, f.right)
        return lambda env: env[ia] == env[ib]
    if isinstance(f, App1):
        mask = _unary(st, f.rel)
        ix = _slot(slots, f.arg)
        return lambda env: bool(mask >> env[ix] & 1)
    if isinstance(f, Flipped):
        mask = 0
        for rel in f.rels:
            mask ^= _unary(st, rel)
        ix = _slot(slots, f.arg)
        picks = [_slot(slots, v) for v in f.variables]
        if not picks:
            return lambda env: bool(mask >> env[ix] & 1)
        if len(picks) == 1:
            (i,) = picks
            return lambda env: bool(mask >> env[ix] & 1) != (env[ix] == env[i])
        named = itemgetter(*picks)

        def flipped(env):
            v = env[ix]
            return bool(mask >> v & 1) != (v in named(env))
        return flipped
    if isinstance(f, App2):
        if f.rel != "A":
            raise ValueError(f"structure has no binary relation {f.rel!r}")
        rows = st.af.targets
        ia, ib = _slot(slots, f.left), _slot(slots, f.right)
        return lambda env: bool(rows[env[ia]] >> env[ib] & 1)
    if isinstance(f, Not):
        sub = _compile(f.body, slots, st, counter)
        return lambda env: not sub(env)
    if isinstance(f, And):
        subs = [_compile(i, slots, st, counter) for i in f.items]
        if len(subs) == 2:
            a, b = subs
            return lambda env: a(env) and b(env)
        return lambda env: all(s(env) for s in subs)
    if isinstance(f, Or):
        subs = [_compile(i, slots, st, counter) for i in f.items]
        if len(subs) == 2:
            a, b = subs
            return lambda env: a(env) or b(env)
        return lambda env: any(s(env) for s in subs)
    if isinstance(f, Implies):
        a = _compile(f.left, slots, st, counter)
        b = _compile(f.right, slots, st, counter)
        return lambda env: (not a(env)) or b(env)
    # quantifiers and the counting node
    slot = counter[0]
    counter[0] += 1
    body = _compile(f.body, {**slots, f.var: slot}, st, counter)
    rng = range(st.af.n)
    if isinstance(f, Exists):
        def ex(env):
            for val in rng:
                env[slot] = val
                if body(env):
                    return True
            return False
        return ex
    if isinstance(f, AtMost):
        def am(env):
            hits = 0
            for val in rng:
                env[slot] = val
                if body(env):
                    hits += 1
                    if hits > f.k:
                        return False
            return True
        return am

    def fa(env):
        for val in rng:
            env[slot] = val
            if not body(env):
                return False
        return True
    return fa


def _compiled(st: Structure, f: Formula, variables: Sequence[str]):
    """f compiled with variables in the first slots, and an environment."""
    counter = [len(variables)]
    try:
        fn = _compile(f, {v: i for i, v in enumerate(variables)}, st, counter)
    except RecursionError:
        raise FormulaTooDeep() from None
    return fn, [0] * counter[0]


def evaluate(
    st: Structure, f: Formula, assignment: Mapping[str, str] | None = None
) -> bool:
    """Tarskian truth of f in st under the given free-variable assignment;
    a free variable the assignment leaves out raises UnboundVariable."""
    assignment = assignment or {}
    values = [st.af.index_of(element) for element in assignment.values()]
    fn, env = _compiled(st, f, list(assignment))
    env[: len(values)] = values
    try:
        return fn(env)
    except RecursionError:
        raise FormulaTooDeep() from None


def first_model(
    st: Structure, body: Formula, variables: Sequence[str]
) -> tuple[dict[str, str] | None, int]:
    """The first assignment of variables under which body holds, and the
    number of assignments tried.

    body must not tell the variables apart, so only their strictly
    increasing tuples are tried, in lexicographic order: each set of exactly
    len(variables) arguments once.  With no variables, the empty assignment.
    """
    fn, env = _compiled(st, body, variables)
    width = len(variables)
    universe = st.af.arguments
    tried = 0
    try:
        for values in itertools.combinations(range(len(universe)), width):
            tried += 1
            env[:width] = values
            if fn(env):
                return dict(zip(variables, (universe[i] for i in values))), tried
    except RecursionError:
        raise FormulaTooDeep() from None
    return None, tried


# -- semantics transliterations ----------------------------------------------


def set_formula(l: int) -> Formula:
    """Membership in the set named by witness variables x1..xl, free var y."""
    if l < 1:
        raise InvalidArity("set formula needs at least one witness variable")
    return Flipped((), _witness_vars(l), "y")


# The sigma builders test membership before they quantify further, so a
# check over a small set makes one pass over the arguments per member, not
# one per argument.


def cf_of(p: Pred) -> Formula:
    x, y = fresh_var(), fresh_var()
    return Forall(x, Implies(p(x), Forall(y, Implies(p(y), Not(attacks(x, y))))))


def adm_of(p: Pred) -> Formula:
    x, y, z = fresh_var(), fresh_var(), fresh_var()
    defended = Forall(
        x,
        Implies(
            p(x),
            Forall(
                z,
                Implies(
                    And((attacks(z, x), Not(p(z)))),
                    Exists(y, And((attacks(y, z), p(y)))),
                ),
            ),
        ),
    )
    return And((cf_of(p), defended))


def com_of(p: Pred) -> Formula:
    a, x1, x2, z = fresh_var(), fresh_var(), fresh_var(), fresh_var()
    all_attackers_countered = Forall(
        a, Implies(attacks(a, z), Exists(x1, And((p(x1), attacks(x1, a)))))
    )
    no_conflict_with = Forall(
        x2, Implies(p(x2), Not(Or((attacks(x2, z), attacks(z, x2)))))
    )
    closure = Forall(
        z, Or((p(z), Not(And((no_conflict_with, all_attackers_countered)))))
    )
    return And((adm_of(p), closure))


def stb_of(p: Pred) -> Formula:
    z, a = fresh_var(), fresh_var()
    covers = Forall(z, Or((p(z), Exists(a, And((attacks(a, z), p(a)))))))
    return And((cf_of(p), covers))


def sym_diff_of(p1: Pred, p2: Pred) -> Formula:
    """Symmetric difference of two predicates, free variable y."""
    return Or((And((p1("y"), Not(p2("y")))), And((Not(p1("y")), p2("y")))))


def at_most(p: Pred, k: int) -> Formula:
    """At most k elements satisfy p: one counting node, evaluated in one
    pass over the universe that stops at the (k+1)-th hit."""
    if k < 0:
        raise InvalidArity("at_most needs k >= 0")
    v = fresh_var()
    return AtMost(v, k, p(v))


_SIGMA_BUILDERS = {
    Semantics.ADMISSIBLE: adm_of,
    Semantics.COMPLETE: com_of,
    Semantics.STABLE: stb_of,
}


def sigma_of(sigma: Semantics) -> Callable[[Pred], Formula]:
    try:
        return _SIGMA_BUILDERS[sigma]
    except KeyError:
        raise UnsupportedSemantics(
            f"first-order route supports adm, com, stb; got {sigma.value}"
        ) from None


# -- problem sentences ---------------------------------------------------------
#
# Each problem is a sequence of layers, as in delta's walk: the layer of
# distance d flips the d arguments that x1..xd name in an anchor, the
# symmetric difference of some unary relations.  A body builder returns one
# layer's witness variables and its open body; the closed sentence puts the
# body under their existential quantifiers, and the fo engine scans the
# bodies of the layers in order with first_model.  The builder alone adds
# the nonempty conjunct.  x1..xd only name a set, so every body is symmetric
# in them.


def _witness_vars(count: int) -> tuple[str, ...]:
    if count < 0:
        raise InvalidArity("a layer needs d >= 0 witness variables")
    return tuple(f"x{i}" for i in range(1, count + 1))


def _flip_body(
    sigma: Semantics, rels: tuple[str, ...], variables: tuple[str, ...],
    extra: tuple[Formula, ...], require_nonempty: bool,
) -> tuple[tuple[str, ...], Formula]:
    """The extra conjuncts, and: rels' symmetric difference with the
    variables' values flipped is a sigma-extension."""
    def pred(v: str) -> Formula:
        return Flipped(rels, variables, v)
    items = extra + (sigma_of(sigma)(pred),)
    if require_nonempty:
        y = fresh_var()
        items += (Exists(y, pred(y)),)
    return variables, conj(items)


def _closed(variables: tuple[str, ...], body: Formula) -> Formula:
    for v in reversed(variables):
        body = Exists(v, body)
    return body


def small_body(sigma: Semantics, d: int) -> tuple[tuple[str, ...], Formula]:
    """x1..xd name a sigma-extension; that set is never empty."""
    if d < 1:
        raise InvalidArity("small body needs d >= 1")
    return _flip_body(sigma, (), _witness_vars(d), (), False)


def repair_body(
    sigma: Semantics, d: int, require_nonempty: bool = False
) -> tuple[tuple[str, ...], Formula]:
    """S with the values of x1..xd flipped is a sigma-extension; d = 0 is S."""
    return _flip_body(sigma, ("S",), _witness_vars(d), (), require_nonempty)


def adjust_body(
    sigma: Semantics, d: int, require_nonempty: bool = False
) -> tuple[tuple[str, ...], Formula]:
    """None of x1..xd is in T, and E0 with the target in T and the values of
    x1..xd flipped is a sigma-extension: one at distance d + 1 from E0 that
    flips the target."""
    variables = _witness_vars(d)
    outside_t = tuple(Not(App1("T", x)) for x in variables)
    return _flip_body(sigma, ("E0", "T"), variables, outside_t, require_nonempty)


def center_body(
    sigma: Semantics, k: int, d: int, require_nonempty: bool = False
) -> tuple[tuple[str, ...], Formula]:
    """E1 with the values of x1..xd flipped is a sigma-extension that differs
    from E2 in at most k-1 arguments."""
    if k < 2:
        raise InvalidArity("center body needs k >= 2")
    variables = _witness_vars(d)
    near_e2 = at_most(lambda v: Flipped(("E1", "E2"), variables, v), k - 1)
    return _flip_body(sigma, ("E1",), variables, (near_e2,), require_nonempty)


def small_formula(sigma: Semantics, k: int) -> Formula:
    """Some nonempty sigma-extension has at most k members."""
    return _closed(*small_body(sigma, k))


def repair_formula(sigma: Semantics, k: int) -> Formula:
    """Verbatim form: some delta of exactly the named variables works.

    Known gaps (kept on purpose; see corrected_repair_formula): the named
    delta variables always denote a nonempty change, and the resulting
    extension is not required to be nonempty.
    """
    if k < 1:
        raise InvalidArity("repair formula needs k >= 1")
    return _closed(*repair_body(sigma, k))


def corrected_repair_formula(sigma: Semantics, k: int) -> Formula:
    """Exact Repair sentence: nonempty extension within distance k, including 0."""
    if k < 0:
        raise InvalidArity("corrected repair formula needs k >= 0")
    return disj(
        _closed(*repair_body(sigma, l, require_nonempty=True)) for l in range(k + 1)
    )


def adjust_formula(sigma: Semantics, k: int) -> Formula:
    """Some sigma-extension within distance k of E0 flips a target in T:
    the disjunction of the layers d = 0..k-1."""
    if k < 1:
        raise InvalidArity("adjust formula needs k >= 1")
    return disj(_closed(*adjust_body(sigma, d)) for d in range(k))


def center_formula(sigma: Semantics, k: int) -> Formula:
    """Some sigma-extension lies strictly closer than k to both E1 and E2; a
    value named twice flips once, so k-1 variables cover d = 1..k-1."""
    return _closed(*center_body(sigma, k, k - 1))
