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
    masks.  The guarded quantifiers read the framework's index tuples."""

    __slots__ = ("af", "unary", "universe", "__weakref__")

    def __init__(self, af: ArgumentationFramework, unary: Mapping[str, int]):
        self.af = af
        self.unary = unary
        self.universe = range(af.n)


def structure_of(
    af: ArgumentationFramework, **unary: ArgumentSet | Iterable[str]
) -> Structure:
    """Structure with universe X and binary A, plus named unary relations."""
    return Structure(af, {rel: af.mask_of(members) for rel, members in unary.items()})


# -- evaluator ----------------------------------------------------------------
#
# A formula compiles once, for its free variables, to nested closures over an
# environment list, and the closures hold no structure.  Each run fills the
# environment's leading slots from the structure it runs on: the universe
# range, the attack rows, the attacker and the target index tuples.  The free
# variables' slots follow; the slots of the unary masks, and of the symmetric
# differences that Flipped reads, lie among the quantifiers' slots after
# them.  So one program runs on any structure and keeps none alive.
#
# A quantifier whose body starts with an attack atom between its variable v
# and a bound z, other than v, ranges over z's attackers or targets only:
# ∃v (A(v,z) ∧ φ) and ∀v (A(v,z) ∧ φ → ψ), with A(z,v) in place of A(v,z)
# or with no φ.  Every other quantifier ranges over the universe.
#
# Compiling and evaluating recurse about once per nested connective; past
# the interpreter's recursion limit both raise FormulaTooDeep.

_UNIVERSE, _ROWS, _ATTACKERS, _TARGETS = range(4)
_LEADING = 4  # the slots a run fills from the structure


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


def _guard(f: Formula, slots: dict[str, int]):
    """(the neighbour lists' slot, z's slot, φ, ψ) when f is one of the
    guarded shapes, with φ None when absent and ψ None under ∃; else None."""
    if isinstance(f, Exists):
        part, then = f.body, None
    elif isinstance(f, Forall) and isinstance(f.body, Implies):
        part, then = f.body.left, f.body.right
    else:
        return None
    rest = None
    if isinstance(part, And) and part.items:
        part, rest = part.items[0], part.items[1:]
        rest = conj(rest) if rest else None
    if not (isinstance(part, App2) and part.rel == "A"):
        return None
    v = f.var
    if part.left == v and part.right != v and part.right in slots:
        return _ATTACKERS, slots[part.right], rest, then
    if part.right == v and part.left != v and part.left in slots:
        return _TARGETS, slots[part.left], rest, then
    return None


class Program:
    """A formula compiled for the free variables named by `variables`, to
    run on any structure."""

    __slots__ = ("variables", "fn", "size", "masks")

    def __init__(self, variables: Sequence[str], f: Formula):
        self.variables = tuple(variables)
        self.size = _LEADING + len(self.variables)
        # the relations of each mask the formula reads, and its slot
        self.masks: dict[tuple[str, ...], int] = {}
        slots = {v: _LEADING + i for i, v in enumerate(self.variables)}
        try:
            self.fn = self._compile(f, slots)
        except RecursionError:
            raise FormulaTooDeep() from None

    def _new_slot(self) -> int:
        self.size += 1
        return self.size - 1

    def _mask(self, rels: tuple[str, ...]) -> int:
        if rels not in self.masks:
            self.masks[rels] = self._new_slot()
        return self.masks[rels]

    def _compile(self, f: Formula, slots: dict[str, int]):
        if isinstance(f, Eq):
            ia, ib = _slot(slots, f.left), _slot(slots, f.right)
            return lambda env: env[ia] == env[ib]
        if isinstance(f, App1):
            im, ix = self._mask((f.rel,)), _slot(slots, f.arg)
            return lambda env: bool(env[im] >> env[ix] & 1)
        if isinstance(f, Flipped):
            im, ix = self._mask(f.rels), _slot(slots, f.arg)
            picks = [_slot(slots, v) for v in f.variables]
            if not picks:
                return lambda env: bool(env[im] >> env[ix] & 1)
            if len(picks) == 1:
                (i,) = picks
                return lambda env: bool(env[im] >> env[ix] & 1) != (env[ix] == env[i])
            named = itemgetter(*picks)

            def flipped(env):
                v = env[ix]
                return bool(env[im] >> v & 1) != (v in named(env))
            return flipped
        if isinstance(f, App2):
            if f.rel != "A":
                raise ValueError(f"structure has no binary relation {f.rel!r}")
            ia, ib = _slot(slots, f.left), _slot(slots, f.right)
            return lambda env: bool(env[_ROWS][env[ia]] >> env[ib] & 1)
        if isinstance(f, Not):
            sub = self._compile(f.body, slots)
            return lambda env: not sub(env)
        if isinstance(f, And):
            subs = [self._compile(i, slots) for i in f.items]
            if len(subs) == 2:
                a, b = subs
                return lambda env: a(env) and b(env)
            return lambda env: all(s(env) for s in subs)
        if isinstance(f, Or):
            subs = [self._compile(i, slots) for i in f.items]
            if len(subs) == 2:
                a, b = subs
                return lambda env: a(env) or b(env)
            return lambda env: any(s(env) for s in subs)
        if isinstance(f, Implies):
            a = self._compile(f.left, slots)
            b = self._compile(f.right, slots)
            return lambda env: (not a(env)) or b(env)
        # quantifiers and the counting node
        guard = _guard(f, slots)
        slot = self._new_slot()
        inner = {**slots, f.var: slot}
        if guard is not None:
            lists, iz, rest, then = guard
            cond = None if rest is None else self._compile(rest, inner)
            if then is None:
                def guarded_ex(env):
                    for val in env[lists][env[iz]]:
                        env[slot] = val
                        if cond is None or cond(env):
                            return True
                    return False
                return guarded_ex
            body = self._compile(then, inner)

            def guarded_fa(env):
                for val in env[lists][env[iz]]:
                    env[slot] = val
                    if (cond is None or cond(env)) and not body(env):
                        return False
                return True
            return guarded_fa
        body = self._compile(f.body, inner)
        if isinstance(f, Exists):
            def ex(env):
                for val in env[_UNIVERSE]:
                    env[slot] = val
                    if body(env):
                        return True
                return False
            return ex
        if isinstance(f, AtMost):
            k = f.k

            def am(env):
                hits = 0
                for val in env[_UNIVERSE]:
                    env[slot] = val
                    if body(env):
                        hits += 1
                        if hits > k:
                            return False
                return True
            return am

        def fa(env):
            for val in env[_UNIVERSE]:
                env[slot] = val
                if not body(env):
                    return False
            return True
        return fa

    def first_model(
        self, st: Structure, tuples: Iterable[tuple[int, ...]]
    ) -> tuple[dict[str, str] | None, int]:
        """The first of tuples, each the argument indices to give the
        variables, under which the formula holds in st, as an assignment;
        and the number tried."""
        env = [0] * self.size
        af = st.af
        env[:_LEADING] = (
            st.universe, af.targets, af.attacker_indices, af.target_indices
        )
        for rels, slot in self.masks.items():
            mask = 0
            for rel in rels:
                mask ^= _unary(st, rel)
            env[slot] = mask
        fn, variables = self.fn, self.variables
        end = _LEADING + len(variables)
        universe = af.arguments
        tried = 0
        try:
            for values in tuples:
                tried += 1
                env[_LEADING:end] = values
                if fn(env):
                    return dict(zip(variables, (universe[i] for i in values))), tried
        except RecursionError:
            raise FormulaTooDeep() from None
        return None, tried


def evaluate(
    st: Structure, f: Formula, assignment: Mapping[str, str] | None = None
) -> bool:
    """Tarskian truth of f in st under the given free-variable assignment;
    a free variable the assignment leaves out raises UnboundVariable."""
    assignment = assignment or {}
    values = tuple(st.af.index_of(element) for element in assignment.values())
    model, _ = Program(list(assignment), f).first_model(st, (values,))
    return model is not None


def first_model(
    st: Structure,
    body: Formula,
    variables: Sequence[str],
    tuples: Iterable[tuple[int, ...]],
) -> tuple[dict[str, str] | None, int]:
    """The first of tuples, each the argument indices to give variables,
    under which body holds, as an assignment; and the number tried.  The
    caller chooses the tuples: the fo engine passes each set of the
    arguments a layer may flip once, as increasing inside picks plus
    increasing outside picks, fewest outside flips first.
    """
    return Program(variables, body).first_model(st, tuples)


# -- semantics transliterations ----------------------------------------------


# The sigma builders test membership before they quantify further, and put
# the attack atom first under every inner quantifier, so the compiler loops
# that quantifier over one argument's attackers or targets: a check over a
# small set makes one pass over the arguments, plus a walk of each member's
# neighbours.


def cf_of(p: Pred) -> Formula:
    x, y = fresh_var(), fresh_var()
    return Forall(x, Implies(p(x), Forall(y, Implies(attacks(x, y), Not(p(y))))))


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
    a, x1, x2, x3, z = (fresh_var() for _ in range(5))
    all_attackers_countered = Forall(
        a, Implies(attacks(a, z), Exists(x1, And((attacks(x1, a), p(x1)))))
    )
    no_conflict_with = And((
        Forall(x2, Implies(attacks(x2, z), Not(p(x2)))),
        Forall(x3, Implies(attacks(z, x3), Not(p(x3)))),
    ))
    closure = Forall(
        z, Or((p(z), Not(And((no_conflict_with, all_attackers_countered)))))
    )
    return And((adm_of(p), closure))


def stb_of(p: Pred) -> Formula:
    z, a = fresh_var(), fresh_var()
    covers = Forall(z, Or((p(z), Exists(a, And((attacks(a, z), p(a)))))))
    return And((cf_of(p), covers))


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
    """rels' symmetric difference with the variables' values flipped is a
    sigma-extension, and the extra conjuncts hold.  The sigma test comes
    first: it turns most tries down after a pass over few arguments, where
    center's AtMost passes over all of them."""
    def pred(v: str) -> Formula:
        return Flipped(rels, variables, v)
    items = (sigma_of(sigma)(pred),) + extra
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
