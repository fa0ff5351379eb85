"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
"criterion N: PASS/FAIL" line directly to the terminal (bypassing
capture) so a full run shows the scorecard at a glance.
"""

import random

import pytest

from argudyn import (
    ArgumentationFramework,
    Semantics,
    distance,
    enumerate_extensions,
    even_k_duplicate,
    gen_adjust_from_small,
    gen_center_from_small,
    gen_cnf_adjust,
    gen_cnf_center,
    gen_cnf_small,
    gen_mcq_small,
    max_degree,
    parse_apx,
    parse_tgf,
    random_kpartite,
    random_three_cnf_two,
    solve_adjust,
    solve_center,
    solve_instance,
    solve_repair,
    solve_small,
    write_apx,
    write_tgf,
)
from argudyn.bench import run_bench
from argudyn.cli import run_cli
from argudyn.firstorder import (
    adm_of,
    com_of,
    evaluate,
    stb_of,
    structure_of,
    unary_pred,
)
from argudyn.solvers import (
    fo_solve_adjust,
    fo_solve_center,
    fo_solve_repair,
    fo_solve_small,
    sigma_member_mask,
    solve_repair_branching,
)
from conftest import random_framework
from oracles import (
    brute_multicolored_clique,
    oracle_adjust,
    oracle_admissible,
    oracle_center,
    oracle_complete,
    oracle_conflict_free,
    oracle_distance,
    oracle_extensions,
    oracle_repair,
    oracle_small,
    oracle_stable,
    sat_table,
)

GADGET_CAP = 200

FO_SIGMAS = (Semantics.ADMISSIBLE, Semantics.COMPLETE, Semantics.STABLE)
MAXIMALITY = (Semantics.PREFERRED, Semantics.SEMI_STABLE)


@pytest.fixture
def announce(capsys):
    def _announce(criterion, ok, detail=""):
        with capsys.disabled():
            verdict = "PASS" if ok else "FAIL"
            suffix = f" ({detail})" if detail and not ok else ""
            print(f"criterion {criterion}: {verdict}{suffix}", flush=True)
        assert ok, f"criterion {criterion} failed {detail}"

    return _announce


def test_criterion_1_semantics_inclusion_chain(announce):
    rng = random.Random(1001)
    detail = ""
    ok = True
    for trial in range(500):
        af = random_framework(rng, rng.randint(1, 8))
        masks = {
            sigma: {e.mask for e in enumerate_extensions(af, sigma)}
            for sigma in Semantics
        }
        chain = (
            masks[Semantics.STABLE]
            <= masks[Semantics.SEMI_STABLE]
            <= masks[Semantics.PREFERRED]
            <= masks[Semantics.COMPLETE]
            <= masks[Semantics.ADMISSIBLE]
        )
        empty_adm = 0 in masks[Semantics.ADMISSIBLE]
        stb_sem = (not masks[Semantics.STABLE]) or (
            masks[Semantics.STABLE] == masks[Semantics.SEMI_STABLE]
        )
        if not (chain and empty_adm and stb_sem):
            ok = False
            detail = f"trial {trial}: {af!r}"
            break
    announce(1, ok, detail)


def test_criterion_2_fo_transliteration(announce):
    rng = random.Random(1002)
    formulas = {
        Semantics.ADMISSIBLE: adm_of(unary_pred("S")),
        Semantics.COMPLETE: com_of(unary_pred("S")),
        Semantics.STABLE: stb_of(unary_pred("S")),
    }
    checkers = {
        Semantics.ADMISSIBLE: lambda af, m: oracle_admissible(
            set(af.attacks), m
        ),
        Semantics.COMPLETE: lambda af, m: oracle_complete(
            af.arguments, set(af.attacks), m
        ),
        Semantics.STABLE: lambda af, m: oracle_stable(
            af.arguments, set(af.attacks), m
        ),
    }
    ok = True
    detail = ""
    for trial in range(200):
        af = random_framework(rng, rng.randint(1, 5))
        for s in af.all_subsets():
            st = structure_of(af, S=s)
            members = frozenset(s.names)
            for sigma, formula in formulas.items():
                if evaluate(st, formula) != checkers[sigma](af, members):
                    ok = False
                    detail = f"trial {trial}, {sigma.value}, S={sorted(members)}"
                    break
            if not ok:
                break
        if not ok:
            break
    announce(2, ok, detail)


def _verified(kind, af, res, sigma, **kw):
    """Answer-independent witness audit against the definitional oracle."""
    if not res.answer:
        return res.witness is None
    w = frozenset(res.witness.names)
    if w not in oracle_extensions(af.arguments, set(af.attacks), sigma.value):
        return False
    if kind == "small":
        return 0 < len(w) <= kw["k"]
    if kind == "repair":
        return bool(w) and oracle_distance(w, kw["s"]) <= kw["k"]
    if kind == "adjust":
        return (
            oracle_distance(w, kw["e0"]) <= kw["k"]
            and kw["target"] in (w ^ kw["e0"])
        )
    d = oracle_distance(kw["e1"], kw["e2"])
    return oracle_distance(w, kw["e1"]) < d and oracle_distance(w, kw["e2"]) < d


def test_criterion_3_three_path_agreement(announce):
    rng = random.Random(1003)
    counts = {"small": 0, "repair": 0, "adjust": 0, "center": 0}
    ok = True
    detail = ""
    while ok and min(counts.values()) < 200:
        af = random_framework(rng, rng.randint(1, 6))
        sigma = rng.choice(FO_SIGMAS)
        k = rng.randint(1, 3)

        if counts["small"] < 200:
            counts["small"] += 1
            a = solve_small(af, sigma, k)
            b = fo_solve_small(af, sigma, k)
            if not (
                a.answer == b.answer
                and _verified("small", af, a, sigma, k=k)
                and _verified("small", af, b, sigma, k=k)
            ):
                ok, detail = False, f"small {af!r} {sigma.value} k={k}"
                break

        if counts["repair"] < 200:
            counts["repair"] += 1
            s = af.set_from_mask(rng.randrange(1 << af.n))
            kr = rng.randint(0, 3)
            sm = frozenset(s.names)
            a = solve_repair(af, s, sigma, kr)
            b = solve_repair_branching(af, s, sigma, kr)
            c = fo_solve_repair(af, s, sigma, kr)
            if not (
                a.answer == b.answer == c.answer
                and all(
                    _verified("repair", af, r, sigma, s=sm, k=kr)
                    for r in (a, b, c)
                )
            ):
                ok, detail = False, f"repair {af!r} {sigma.value} k={kr}"
                break

        exts = list(enumerate_extensions(af, sigma))
        if not exts:
            continue

        if counts["adjust"] < 200:
            counts["adjust"] += 1
            e0 = rng.choice(exts)
            target = rng.choice(af.arguments)
            em = frozenset(e0.names)
            a = solve_adjust(af, e0, target, sigma, k)
            b = fo_solve_adjust(af, e0, target, sigma, k)
            if not (
                a.answer == b.answer
                and all(
                    _verified("adjust", af, r, sigma, e0=em, target=target, k=k)
                    for r in (a, b)
                )
            ):
                ok, detail = False, f"adjust {af!r} {sigma.value} k={k}"
                break

        if counts["center"] < 200:
            pairs = [
                (x, y)
                for x in exts
                for y in exts
                if distance(x, y) <= 3
            ]
            if not pairs:
                continue
            counts["center"] += 1
            e1, e2 = rng.choice(pairs)
            m1, m2 = frozenset(e1.names), frozenset(e2.names)
            a = solve_center(af, e1, e2, sigma)
            b = fo_solve_center(af, e1, e2, sigma)
            if not (
                a.answer == b.answer
                and all(
                    _verified("center", af, r, sigma, e1=m1, e2=m2)
                    for r in (a, b)
                )
            ):
                ok, detail = False, f"center {af!r} {sigma.value}"
                break
    announce(3, ok, detail)


def test_criterion_4_maximality_problem_answers(announce):
    rng = random.Random(1004)
    ok = True
    detail = ""
    per_problem = 50
    done = 0
    while ok and done < per_problem:
        af = random_framework(rng, rng.randint(1, 8))
        sigma = rng.choice(MAXIMALITY)
        args, attacks = af.arguments, set(af.attacks)
        k = rng.randint(1, 3)
        done += 1

        want = bool(oracle_small(args, attacks, sigma.value, k))
        if solve_small(af, sigma, k).answer != want:
            ok, detail = False, f"small {af!r} {sigma.value} k={k}"
            break

        s = af.set_from_mask(rng.randrange(1 << af.n))
        want = bool(
            oracle_repair(args, attacks, sigma.value, frozenset(s.names), k)
        )
        if solve_repair(af, s, sigma, k).answer != want:
            ok, detail = False, f"repair {af!r} {sigma.value} k={k}"
            break

        exts = list(enumerate_extensions(af, sigma))
        e0 = rng.choice(exts)
        target = rng.choice(af.arguments)
        want = bool(
            oracle_adjust(
                args, attacks, sigma.value, frozenset(e0.names), target, k
            )
        )
        if solve_adjust(af, e0, target, sigma, k).answer != want:
            ok, detail = False, f"adjust {af!r} {sigma.value} k={k}"
            break

        e1, e2 = rng.choice(exts), rng.choice(exts)
        want = bool(
            oracle_center(
                args, attacks, sigma.value,
                frozenset(e1.names), frozenset(e2.names),
            )
        )
        if solve_center(af, e1, e2, sigma).answer != want:
            ok, detail = False, f"center {af!r} {sigma.value}"
            break
    announce(4, ok, detail)


def test_criterion_5_clique_gadget_iff(announce):
    rng = random.Random(1005)
    ok = True
    detail = ""
    for trial in range(100):
        g = random_kpartite(
            rng, k=rng.choice((2, 3)), max_part_size=3,
            edge_prob=rng.choice((0.4, 0.6, 0.8)),
        )
        expected = brute_multicolored_clique(g.parts, g.edges)
        for sigma in Semantics:
            out = gen_mcq_small(g, sigma)
            got = solve_instance(out.instance, cap=GADGET_CAP).answer
            if got != expected:
                ok, detail = False, f"trial {trial} {sigma.value}"
                break
        if not ok:
            break
    announce(5, ok, detail)


def test_criterion_6_wrap_reductions(announce):
    rng = random.Random(1006)
    ok = True
    detail = ""
    wrap_sigmas = (
        Semantics.ADMISSIBLE,
        Semantics.COMPLETE,
        Semantics.PREFERRED,
        Semantics.STABLE,
    )
    for trial in range(40):
        af = random_framework(rng, rng.randint(1, 5))
        for sigma in wrap_sigmas:
            for k in (1, 2, 3):
                want = solve_small(af, sigma, k).answer
                out = gen_adjust_from_small(af, k, sigma)
                if not sigma_member_mask(
                    out.instance.framework, out.instance.e0.mask, sigma,
                    GADGET_CAP,
                ):
                    ok, detail = False, f"adjust e0 invalid on trial {trial}"
                    break
                got = solve_instance(
                    out.instance, cap=GADGET_CAP, require_nonempty=True
                ).answer
                if got != want:
                    ok, detail = False, (
                        f"adjust trial {trial} {sigma.value} k={k}"
                    )
                    break
            if not ok:
                break
            for k in (0, 2):
                want = solve_small(af, sigma, k).answer
                out = gen_center_from_small(af, k, sigma)
                inst = out.instance
                if not (
                    sigma_member_mask(inst.framework, inst.e1.mask, sigma,
                                      GADGET_CAP)
                    and sigma_member_mask(inst.framework, inst.e2.mask, sigma,
                                          GADGET_CAP)
                ):
                    ok, detail = False, f"center endpoints invalid, {trial}"
                    break
                got = solve_instance(
                    inst, cap=GADGET_CAP, require_nonempty=True
                ).answer
                if got != want:
                    ok, detail = False, (
                        f"center trial {trial} {sigma.value} k={k}"
                    )
                    break
            if not ok:
                break
        if not ok:
            break
    # odd budgets route through source doubling, which must preserve the
    # source question
    if ok:
        for trial in range(15):
            g = random_kpartite(rng, k=3, max_part_size=2)
            doubled = even_k_duplicate(g)
            before = brute_multicolored_clique(g.parts, g.edges)
            after = brute_multicolored_clique(doubled.parts, doubled.edges)
            if doubled.k != 6 or before != after:
                ok, detail = False, f"doubling broke trial {trial}"
                break
    # wrapped semi-stable questions track the nonempty stable-small
    # question instead of semi-stable-small; see the decisions ledger
    if ok:
        for trial in range(15):
            af = random_framework(rng, rng.randint(1, 4))
            k = rng.randint(1, 2)
            want = solve_small(af, Semantics.STABLE, k).answer
            got = solve_instance(
                gen_adjust_from_small(af, k, Semantics.SEMI_STABLE).instance,
                cap=GADGET_CAP,
                require_nonempty=True,
            ).answer
            if got != want:
                ok, detail = False, f"sem wrap trial {trial}"
                break
        sem_witness = ArgumentationFramework(("a", "b"), [("b", "b")])
        direct = solve_small(sem_witness, Semantics.SEMI_STABLE, 1).answer
        wrapped = solve_instance(
            gen_adjust_from_small(
                sem_witness, 1, Semantics.SEMI_STABLE
            ).instance,
            require_nonempty=True,
        ).answer
        if not (direct and not wrapped):
            ok, detail = False, "sem anomaly witness disappeared"
    announce(6, ok, detail)


def test_criterion_7_cnf_gadget_iff_and_degree(announce):
    rng = random.Random(1007)
    ok = True
    detail = ""
    generators = (
        ("cnf-small", gen_cnf_small, True),
        ("cnf-adjust", gen_cnf_adjust, False),
        ("cnf-center", gen_cnf_center, False),
    )
    for trial in range(100):
        n = rng.randint(1, 4)
        m = rng.randint(1, min(5, 4 * n))
        formula = random_three_cnf_two(rng, n, m)
        unsat = not sat_table(formula.n, formula.clauses)
        for label, gen, nonempty in generators:
            for sigma in MAXIMALITY:
                out = gen(formula, sigma)
                if max_degree(out.instance.framework) > 5:
                    ok, detail = False, f"{label} degree > 5 on trial {trial}"
                    break
                got = solve_instance(
                    out.instance, cap=GADGET_CAP, require_nonempty=nonempty
                ).answer
                if got != unsat:
                    ok, detail = False, (
                        f"{label} {sigma.value} trial {trial}: "
                        f"{formula.canonical_text()!r}"
                    )
                    break
            if not ok:
                break
        if not ok:
            break
    announce(7, ok, detail)


def test_criterion_8_tractability_contrast(announce):
    records = run_bench("repair-degree-sweep", seed=1008)
    by_k: dict[int, list[tuple[int, int]]] = {}
    branch_nodes: dict[int, list[int]] = {}
    for r in records:
        if r.engine == "delta":
            by_k.setdefault(r.k, []).append((r.n_args, r.nodes))
        else:
            branch_nodes.setdefault(r.k, []).append(r.nodes)
    ok = set(by_k) == {1, 2, 3, 4}
    detail = "missing sweep points" if not ok else ""
    import math

    for k, points in sorted(by_k.items()):
        if not ok:
            break
        xs = [math.log(n) for n, _ in points]
        ys = [math.log(c) for _, c in points]
        mx = sum(xs) / len(xs)
        my = sum(ys) / len(ys)
        slope = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum(
            (x - mx) ** 2 for x in xs
        )
        if abs(slope - k) > 0.5:
            ok, detail = False, f"delta slope {slope:.2f} at k={k}"
    for k, nodes in sorted(branch_nodes.items()):
        if not ok:
            break
        if max(nodes) > 4 * min(nodes):
            ok, detail = False, f"branching nodes grew with n at k={k}: {nodes}"
    announce(8, ok, detail)


def test_criterion_9_formats_and_cli(announce, tmp_path, capsys):
    rng = random.Random(1009)
    ok = True
    detail = ""
    for trial in range(100):
        af = random_framework(rng, rng.randint(1, 15))
        if parse_apx(write_apx(af)) != af or parse_tgf(write_tgf(af)) != af:
            ok, detail = False, f"round-trip failed on trial {trial}"
            break
    if ok:
        f1 = ArgumentationFramework(("a", "b"), [("a", "b"), ("b", "a")])
        f4 = ArgumentationFramework(
            ("a", "b", "c", "d"),
            [("a", "b"), ("b", "a"), ("c", "d"), ("d", "c")],
        )
        p1 = tmp_path / "f1.apx"
        p1.write_text(write_apx(f1), encoding="utf-8")
        p4 = tmp_path / "f4.apx"
        p4.write_text(write_apx(f4), encoding="utf-8")
        goldens = [
            (
                ["solve", "small", "--af", str(p1), "--semantics", "stb",
                 "-k", "1"],
                0,
                "YES\nwitness: a\n",
            ),
            (
                ["solve", "center", "--af", str(p4), "--semantics", "stb",
                 "--e1", "a,c", "--e2", "b,d"],
                0,
                "YES\nwitness: a,d\n",
            ),
            (
                ["solve", "adjust", "--af", str(p1), "--semantics", "stb",
                 "--e0", "a", "--target", "b", "-k", "0"],
                0,
                "NO\n",
            ),
            (
                ["enumerate", "--af", str(p1), "--semantics", "adm"],
                0,
                "{}\n{a}\n{b}\n",
            ),
        ]
        for argv, want_code, want_out in goldens:
            code = run_cli(argv)
            out = capsys.readouterr().out
            if code != want_code or out != want_out:
                ok, detail = False, f"golden {argv!r}: code={code} out={out!r}"
                break
    announce(9, ok, detail)
