"""A seeded parity corpus over every engine, pinned by two digests.

Each case is a question on a small random framework (self-attacks
included): the four problems under the five semantics, k <= 3, adjust and
center both ways of require_nonempty, and prf/sem once more under a cap
one below the argument count, which trips.  Each case runs on every engine
that accepts its problem and semantics, and gives one canonical line:
engine, answer, witness names or error class, then the candidates and
nodes counters.  OUTCOME_DIGEST pins the lines up to the counters and
COUNTER_DIGEST pins the counters, so any change to an answer, a witness,
an error or a counter shows here, and a change that moves only counters
leaves OUTCOME_DIGEST as it was.  The one digest they replace was
recorded before the engines lost their own copies of the question checks,
and again when the fo scan began to try only nondecreasing tuples of its
interchangeable witness variables: 313 lines changed, each only in a lower
fo candidates count.  COUNTER_DIGEST was recorded again when adjust's target
joined its witness variables, so the fo scan lost its product-order
variable: 239 counter lines changed, each an fo adjust line with a lower
candidates count, and OUTCOME_DIGEST stayed.  Both were recorded again
when the fo engine began to walk delta's distance layers with strictly
increasing tuples: 38 outcome lines changed, 18 fo small and 20 fo adjust
lines whose new witness is delta's, and 531 counter lines, all fo lines;
the fo candidates of the corpus fell from 16,210 to 8,760.

Where delta and fo both answer YES, fo's small witness is delta's, and
every fo witness lies at delta's distance from its problem's anchor.
"""

import hashlib
import random

from argudyn import (
    ArgudynError,
    CapExceeded,
    NotAnExtension,
    Semantics,
    adjust_instance,
    center_instance,
    repair_instance,
    small_instance,
    solve_instance,
)
from conftest import random_framework
from oracles import (
    oracle_adjust,
    oracle_center,
    oracle_extensions,
    oracle_repair,
    oracle_small,
)

FRAMEWORKS = 150
OUTCOME_DIGEST = "1f7fd7bb2e6a16eb86aa777ef334a8a8f622a14b869057594ff834f016d862f0"
COUNTER_DIGEST = "1338f2866570c29c6ff75b972f1e2c3597664dea4b5d98b1d748b9e7586773b7"


def _near(rng, af, anchor, pool):
    """A set within distance 1..3 of anchor: from pool when one is, else
    anchor with 1..3 random flips."""
    near = [m for m in pool if 1 <= (m ^ anchor).bit_count() <= 3]
    if near and rng.random() < 0.7:
        return af.set_from_mask(rng.choice(near))
    mask = anchor
    for i in rng.sample(range(af.n), min(af.n, rng.randint(1, 3))):
        mask ^= 1 << i
    return af.set_from_mask(mask)


def _questions():
    """(label, instance, caps, require_nonempty values) in a fixed order."""
    rng = random.Random(2014)
    for f in range(FRAMEWORKS):
        af = random_framework(rng, rng.randint(1, 8))
        for sigma in Semantics:
            exts = oracle_extensions(af.arguments, af.attacks, sigma.value)
            pool = sorted(af.mask_of(e) for e in exts)

            def pick():
                if pool and rng.random() < 0.7:
                    return af.set_from_mask(rng.choice(pool))
                return af.set_from_mask(rng.getrandbits(af.n))

            label = f"{f}:{sigma.value}"
            caps = (None, af.n - 1) if sigma.needs_maximality else (None,)
            k = rng.randint(0, 3)
            yield f"{label}:small:{k}", small_instance(af, sigma, k), caps, (False,)
            k = rng.randint(0, 3)
            s = pick()
            yield (f"{label}:repair:{k}:{s}", repair_instance(af, s, sigma, k),
                   caps, (False,))
            k = rng.randint(0, 3)
            e0 = pick()
            target = rng.choice(af.arguments)
            yield (f"{label}:adjust:{k}:{e0}:{target}",
                   adjust_instance(af, e0, target, sigma, k), caps, (False, True))
            e1 = pick()
            e2 = _near(rng, af, e1.mask, pool)
            yield (f"{label}:center:{e1}:{e2}", center_instance(af, e1, e2, sigma),
                   caps, (False, True))


def _engines(instance):
    if instance.semantics.needs_maximality:
        return ("delta",)
    if instance.kind.value == "repair":
        return ("delta", "branching", "fo")
    return ("delta", "fo")


def _line(label, instance, engine, cap, nonempty):
    """The case's outcome line and its counter line."""
    head = f"{label} cap={cap} nonempty={nonempty} {engine}"
    try:
        result = solve_instance(
            instance, engine=engine, cap=cap, require_nonempty=nonempty
        )
    except ArgudynError as exc:
        return f"{head} error {type(exc).__name__}", f"{head} -"
    witness = ",".join(result.witness.names) if result.answer else "-"
    stats = result.stats
    return (f"{head} {result.answer} {{{witness}}}",
            f"{head} {stats.candidates} {stats.nodes}")


def corpus_lines():
    for label, instance, caps, nonempty in _questions():
        for engine in _engines(instance):
            for cap in caps if engine == "delta" else (None,):
                for flag in nonempty:
                    yield _line(label, instance, engine, cap, flag)


def test_corpus_answers_witnesses_and_counters_are_unchanged():
    outcomes, counters = hashlib.sha256(), hashlib.sha256()
    lines = 0
    for outcome, counter in corpus_lines():
        outcomes.update(outcome.encode() + b"\n")
        counters.update(counter.encode() + b"\n")
        lines += 1
    assert outcomes.hexdigest() == OUTCOME_DIGEST, lines
    assert counters.hexdigest() == COUNTER_DIGEST, lines


def _oracle(instance, nonempty):
    """The oracle's witness list for instance, and the endpoints that an
    engine checks are extensions."""
    af = instance.framework
    question = (af.arguments, af.attacks, instance.semantics.value)
    kind = instance.kind.value
    if kind == "small":
        return oracle_small(*question, instance.k), ()
    if kind == "repair":
        return oracle_repair(*question, frozenset(instance.s.names), instance.k), ()
    if kind == "adjust":
        e0 = instance.e0
        return oracle_adjust(*question, frozenset(e0.names), instance.target,
                             instance.k, nonempty), (e0,)
    e1, e2 = instance.e1, instance.e2
    return oracle_center(*question, frozenset(e1.names), frozenset(e2.names),
                         nonempty), (e1, e2)


def _anchor(instance):
    """The set a problem measures its witness's distance from."""
    kind = instance.kind.value
    if kind == "small":
        return 0
    return {"repair": instance.s, "adjust": instance.e0,
            "center": instance.e1}[kind].mask


def _check_fo_parity(instance, delta, fo, where):
    """fo's small witness is delta's; every fo witness lies at delta's
    distance from the anchor."""
    if not (delta and delta.answer and fo.answer):
        return
    if instance.kind.value == "small":
        assert fo.witness.mask == delta.witness.mask, where
    anchor = _anchor(instance)
    assert (fo.witness.mask ^ anchor).bit_count() == (
        delta.witness.mask ^ anchor
    ).bit_count(), where


def test_corpus_answers_match_the_oracles():
    for label, instance, caps, nonempty in _questions():
        af = instance.framework
        exts = oracle_extensions(af.arguments, af.attacks, instance.semantics.value)
        for flag in nonempty:
            expected, endpoints = _oracle(instance, flag)
            bad = [e for e in endpoints if frozenset(e.names) not in exts]
            delta = None
            for engine in _engines(instance):
                for cap in caps if engine == "delta" else (None,):
                    where = (label, engine, cap, flag)
                    try:
                        result = solve_instance(
                            instance, engine=engine, cap=cap, require_nonempty=flag
                        )
                    except CapExceeded:
                        assert cap is not None and cap < af.n, where
                        continue
                    except NotAnExtension:
                        assert bad, where
                        continue
                    assert not bad, where
                    assert result.answer == bool(expected), where
                    if result.answer:
                        assert frozenset(result.witness.names) in expected, where
                    if engine == "delta" and cap is None:
                        delta = result
                    elif engine == "fo":
                        _check_fo_parity(instance, delta, result, where)
