import json
import sys

import pytest

from argudyn import ArgumentationFramework, parse_apx, write_apx
from argudyn.bench import CSV_COLUMNS
from argudyn.cli import run_cli


@pytest.fixture
def f1_path(tmp_path, f1):
    path = tmp_path / "f1.apx"
    path.write_text(write_apx(f1), encoding="utf-8")
    return str(path)


@pytest.fixture
def f3_path(tmp_path, f3):
    path = tmp_path / "f3.apx"
    path.write_text(write_apx(f3), encoding="utf-8")
    return str(path)


@pytest.fixture
def f4_path(tmp_path, f4):
    path = tmp_path / "f4.apx"
    path.write_text(write_apx(f4), encoding="utf-8")
    return str(path)


@pytest.fixture
def unsat_path(tmp_path):
    path = tmp_path / "unsat.cnf"
    path.write_text(
        "p cnf 4 5\n1 2 0\n-1 -2 0\n1 -2 0\n-1 2 0\n3 4 0\n", encoding="utf-8"
    )
    return str(path)


def test_solve_small_golden(f1_path, capsys):
    code = run_cli(["solve", "small", "--af", f1_path, "--semantics", "stb", "-k", "1"])
    assert code == 0
    assert capsys.readouterr().out == "YES\nwitness: a\n"


def test_solve_center_golden(f4_path, capsys):
    code = run_cli(
        ["solve", "center", "--af", f4_path, "--semantics", "stb",
         "--e1", "a,c", "--e2", "b,d"]
    )
    assert code == 0
    assert capsys.readouterr().out.startswith("YES\n")


def test_solve_adjust_k0_golden(f1_path, capsys):
    code = run_cli(
        ["solve", "adjust", "--af", f1_path, "--semantics", "stb",
         "--e0", "a", "--target", "b", "-k", "0"]
    )
    assert code == 0
    assert capsys.readouterr().out == "NO\n"


def test_strict_exit_codes(f1_path):
    yes = ["solve", "small", "--af", f1_path, "--semantics", "stb", "-k", "1"]
    no = ["solve", "adjust", "--af", f1_path, "--semantics", "stb",
          "--e0", "a", "--target", "b", "-k", "0"]
    assert run_cli(yes + ["--strict"]) == 0
    assert run_cli(no) == 0
    assert run_cli(no + ["--strict"]) == 1


def test_empty_witness_renders_as_bare_label(f3_path, capsys):
    code = run_cli(
        ["solve", "adjust", "--af", f3_path, "--semantics", "adm",
         "--e0", "a,c", "--target", "a", "-k", "2"]
    )
    assert code == 0
    assert capsys.readouterr().out == "YES\nwitness: \n"
    code = run_cli(
        ["solve", "adjust", "--af", f3_path, "--semantics", "adm",
         "--e0", "a,c", "--target", "a", "-k", "2", "--require-nonempty"]
    )
    assert code == 0
    assert capsys.readouterr().out == "NO\n"


def test_json_solve_schema(f1_path, capsys):
    code = run_cli(
        ["solve", "small", "--af", f1_path, "--semantics", "stb", "-k", "1",
         "--format", "json"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["answer"] is True
    assert payload["witness"] == ["a"]
    stats = payload["stats"]
    assert set(stats) == {"candidates", "nodes", "seconds"}
    assert stats["seconds"] >= 0


def test_json_no_witness_is_null(f1_path, capsys):
    run_cli(
        ["solve", "adjust", "--af", f1_path, "--semantics", "stb",
         "--e0", "a", "--target", "b", "-k", "0", "--format", "json"]
    )
    payload = json.loads(capsys.readouterr().out)
    assert payload == {
        "answer": False,
        "witness": None,
        "stats": payload["stats"],
    }


def test_check_and_enumerate(f1_path, f4_path, capsys):
    assert run_cli(["check", "--af", f1_path, "--set", "a", "--semantics", "stb"]) == 0
    assert capsys.readouterr().out == "YES\n"
    assert (
        run_cli(
            ["check", "--af", f1_path, "--set", "a,b", "--semantics", "adm",
             "--strict"]
        )
        == 1
    )
    assert capsys.readouterr().out == "NO\n"
    assert run_cli(["enumerate", "--af", f1_path, "--semantics", "adm"]) == 0
    assert capsys.readouterr().out == "{}\n{a}\n{b}\n"
    run_cli(["enumerate", "--af", f4_path, "--semantics", "stb", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["semantics"] == "stb"
    assert payload["extensions"] == [
        ["a", "c"], ["a", "d"], ["b", "c"], ["b", "d"],
    ]


def test_engine_selection(f1_path, capsys):
    base = ["solve", "repair", "--af", f1_path, "--semantics", "adm",
            "--set", "a,b", "-k", "1"]
    for engine in ("delta", "branching", "fo"):
        assert run_cli(base + ["--engine", engine]) == 0
        assert capsys.readouterr().out.startswith("YES")
    assert (
        run_cli(
            ["solve", "small", "--af", f1_path, "--semantics", "prf",
             "-k", "1", "--engine", "fo"]
        )
        == 2
    )
    err = capsys.readouterr().err
    assert err.startswith("error:") and "prf" in err


def test_usage_errors_exit_two(f1_path, capsys, tmp_path):
    assert run_cli([]) == 2
    assert run_cli(["solve", "small", "--af", f1_path, "--semantics", "stb"]) == 2
    assert "requires -k" in capsys.readouterr().err
    assert (
        run_cli(["solve", "repair", "--af", f1_path, "--semantics", "stb", "-k", "1"])
        == 2
    )
    assert run_cli(["check", "--af", str(tmp_path / "nope.apx"),
                    "--set", "a", "--semantics", "stb"]) == 2
    assert run_cli(["check", "--af", f1_path, "--set", "zz",
                    "--semantics", "stb"]) == 2
    bad = tmp_path / "bad.apx"
    bad.write_text("arg(a). junk", encoding="utf-8")
    assert run_cli(["check", "--af", str(bad), "--set", "a",
                    "--semantics", "stb"]) == 2
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "problem, extra, option",
    [
        ("center", ["--e1", "a", "--e2", "a", "-k", "5"], "-k"),
        ("small", ["-k", "1", "--set", "a"], "--set"),
        ("small", ["-k", "1", "--e0", "a"], "--e0"),
        ("repair", ["--set", "a", "-k", "1", "--target", "a"], "--target"),
        ("adjust", ["--e0", "a", "--target", "b", "-k", "1", "--e1", "a"], "--e1"),
        ("repair", ["--set", "a", "-k", "1", "--e2", "b"], "--e2"),
        ("small", ["-k", "1", "--require-nonempty"], "--require-nonempty"),
        ("repair", ["--set", "a", "-k", "1", "--require-nonempty"],
         "--require-nonempty"),
        ("repair", ["--set", "a", "-k", "1", "--engine", "branching",
                    "--enum-cap", "0"], "--enum-cap with --engine branching"),
        ("repair", ["--set", "a", "-k", "1", "--engine", "fo", "--enum-cap", "5"],
         "--enum-cap with --engine fo"),
    ],
)
def test_solve_refuses_an_option_its_problem_does_not_read(
    f1_path, capsys, problem, extra, option
):
    argv = ["solve", problem, "--af", f1_path, "--semantics", "adm", *extra]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: solve {problem} does not take {option}\n"


@pytest.mark.parametrize(
    "command, option",
    [
        (["gen", "mcq"], ["--strict"]),
        (["gen", "mcq"], ["--enum-cap", "3"]),
        (["enumerate", "--semantics", "adm"], ["--strict"]),
        (["bench", "--suite", "repair-k-sweep"], ["--enum-cap", "3"]),
    ],
)
def test_a_command_refuses_an_option_it_never_reads(
    tmp_path, f1_path, capsys, command, option
):
    out = tmp_path / "out"
    where = ["--out", str(out)] if command[0] in ("gen", "bench") else ["--af", f1_path]
    assert run_cli([*command, *where, *option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"unrecognized arguments: {' '.join(option)}" in captured.err
    assert not out.exists()


def test_a_large_fo_center_answers_under_a_low_recursion_limit(tmp_path, capsys):
    # center from {} to all of 100 isolated arguments: at_most counts in one
    # node, so the formula's depth does not grow with dist(E1, E2); 100
    # nested quantifiers would pass the lowered recursion limit
    names = [f"a{i}" for i in range(100)]
    af = ArgumentationFramework(names, [])
    path = tmp_path / "isolated.apx"
    path.write_text(write_apx(af), encoding="utf-8")
    argv = ["solve", "center", "--af", str(path), "--semantics", "adm",
            "--e1", "", "--e2", ",".join(names), "--engine", "fo"]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(120)
    try:
        code = run_cli(argv)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 0
    assert capsys.readouterr().out.splitlines()[0] == "YES"


def test_a_file_that_is_not_utf8_is_named_in_the_diagnostic(tmp_path, capsys):
    path = tmp_path / "bin.apx"
    path.write_bytes(b"\x8e" * 100)
    assert run_cli(["solve", "repair", "--af", str(path), "--semantics", "adm",
                    "--set", "a", "-k", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {path}:") and err.count("\n") == 1


def test_diagnostics_read_right(tmp_path, f4_path, capsys):
    path = tmp_path / "two.apx"
    path.write_text("arg(a). arg(b). att(a,b).", encoding="utf-8")
    assert run_cli(["enumerate", "--af", str(path), "--semantics", "prf",
                    "--enum-cap", "1"]) == 2
    err = capsys.readouterr().err
    assert "cap 1; the cap must be at least the argument count" in err
    assert "explicit cap" not in err
    assert run_cli(["solve", "center", "--af", f4_path, "--semantics", "adm",
                    "--e1", "", "--e2", "a,b"]) == 2
    assert capsys.readouterr().err == "error: E2 is not an extension under adm\n"


def test_enum_cap_flag(tmp_path, capsys):
    names = [f"x{i}" for i in range(21)]
    text = "".join(f"arg({n}).\n" for n in names)
    for i in range(20):
        text += f"att(x{i},x{i + 1}).\n"
    path = tmp_path / "chain.apx"
    path.write_text(text, encoding="utf-8")
    argv = ["enumerate", "--af", str(path), "--semantics", "stb"]
    assert run_cli(argv) == 2
    assert "cap" in capsys.readouterr().err
    assert run_cli(argv + ["--enum-cap", "25"]) == 0
    assert capsys.readouterr().out.count("{") == 1
    assert run_cli(argv + ["--enum-cap", "-5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "-5" in err and "override" not in err


@pytest.mark.parametrize(
    "command",
    [["solve", "repair", "--set", "a", "-k", "1"], ["check", "--set", "a"]],
)
def test_a_negative_cap_is_refused_under_every_semantics(f1_path, capsys, command):
    argv = [*command, "--af", f1_path, "--semantics", "adm", "--enum-cap", "-5"]
    assert run_cli(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: enumeration cap -5 is not a nonnegative integer\n"


def test_enumerate_many_self_attackers(tmp_path, capsys):
    path = tmp_path / "loops.apx"
    path.write_text(
        "".join(f"arg(a{i}).\natt(a{i},a{i}).\n" for i in range(3001)),
        encoding="utf-8",
    )
    argv = ["enumerate", "--af", str(path), "--semantics", "adm",
            "--enum-cap", "5000"]
    assert run_cli(argv) == 0
    assert capsys.readouterr().out.split() == ["{}"]


def test_gen_writes_apx_and_sidecar(tmp_path, capsys):
    out = tmp_path / "mcq.apx"
    code = run_cli(
        ["gen", "mcq", "--parts", "3", "--part-size", "2", "--edge-prob", "0.8",
         "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    af = parse_apx(out.read_text(encoding="utf-8"))
    sidecar = json.loads((tmp_path / "mcq.apx.json").read_text(encoding="utf-8"))
    assert sidecar["provenance"]["generator"] == "mcq-small"
    assert sidecar["instance"]["kind"] == "small"
    assert sidecar["instance"]["k"] == 3
    assert af.n == sidecar["provenance"]["parameters"]["n_vertices"] * 3
    # same seed regenerates the same instance
    out2 = tmp_path / "mcq2.apx"
    run_cli(
        ["gen", "mcq", "--parts", "3", "--part-size", "2", "--edge-prob", "0.8",
         "--seed", "7", "--out", str(out2)]
    )
    capsys.readouterr()
    assert out2.read_text(encoding="utf-8") == out.read_text(encoding="utf-8")


@pytest.mark.parametrize("prob", ["3", "-0.1", "nan"])
def test_gen_mcq_rejects_an_edge_prob_outside_the_unit_interval(tmp_path, capsys, prob):
    out = tmp_path / "mcq.apx"
    assert run_cli(["gen", "mcq", "--edge-prob", prob, "--out", str(out)]) == 2
    assert "edge_prob" in capsys.readouterr().err
    assert not out.exists()


def test_gen_wraps_and_cnf(tmp_path, f1_path, unsat_path, capsys):
    adj = tmp_path / "adj.apx"
    assert run_cli(
        ["gen", "adjust", "--base-af", f1_path, "-k", "1",
         "--semantics", "stb", "--out", str(adj)]
    ) == 0
    sidecar = json.loads((tmp_path / "adj.apx.json").read_text(encoding="utf-8"))
    assert sidecar["instance"] == {
        "kind": "adjust", "semantics": "stb", "k": 2, "e0": ["t"], "target": "t",
    }
    assert run_cli(
        ["gen", "center", "--base-af", f1_path, "-k", "3", "--out",
         str(tmp_path / "c.apx")]
    ) == 2
    assert "even" in capsys.readouterr().err
    cs = tmp_path / "cs.apx"
    assert run_cli(["gen", "cnf-small", "--cnf", unsat_path, "--out", str(cs)]) == 0
    sidecar2 = json.loads((tmp_path / "cs.apx.json").read_text(encoding="utf-8"))
    assert sidecar2["instance"]["semantics"] == "prf"
    assert sidecar2["provenance"]["max_degree"] <= 5
    capsys.readouterr()
    # the emitted instance is solvable end to end through the CLI
    assert run_cli(
        ["solve", "small", "--af", str(cs), "--semantics", "prf", "-k", "1",
         "--enum-cap", "200"]
    ) == 0
    assert capsys.readouterr().out == "YES\nwitness: e\n"
    assert run_cli(["gen", "cnf-adjust", "--out", str(tmp_path / "x.apx")]) == 2
    assert "--cnf" in capsys.readouterr().err
    assert run_cli(
        ["gen", "adjust", "--base-af", f1_path, "--out", str(tmp_path / "y.apx")]
    ) == 2


def test_bench_cli(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert run_cli(
        ["bench", "--suite", "repair-k-sweep", "--seed", "3", "--out", str(out)]
    ) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 53
    assert run_cli(
        ["bench", "--suite", "nope", "--out", str(out)]
    ) == 2
    capsys.readouterr()
    assert run_cli(
        ["bench", "--suite", "repair-k-sweep",
         "--out", str(tmp_path / "no-dir" / "x.csv")]
    ) == 2
    assert "error:" in capsys.readouterr().err
