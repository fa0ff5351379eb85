import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from argudyn import (
    ArgumentationFramework,
    DuplicateArgument,
    IoError,
    NotThreeCnfTwo,
    ParseError,
    UndeclaredArgument,
    cnf,
    load_cnf,
    load_framework,
    parse_apx,
    parse_dimacs_cnf,
    parse_tgf,
    write_apx,
    write_dimacs_cnf,
    write_tgf,
)
from conftest import random_framework


def test_apx_single_line_facts():
    af = parse_apx("arg(a). arg(b). att(a,b).")
    assert af == ArgumentationFramework(("a", "b"), [("a", "b")])


def test_apx_comments_blanks_and_forward_references():
    text = """
    % declared below, used above
    att(a,b).
    arg(a).

    arg(b).  % trailing comment
    """
    af = parse_apx(text)
    assert af.arguments == ("a", "b")
    assert af.attacks == frozenset({("a", "b")})


def test_apx_error_cases():
    with pytest.raises(UndeclaredArgument) as err:
        parse_apx("arg(a).\natt(a,b).")
    assert err.value.line == 2 and "b" in str(err.value)
    with pytest.raises(DuplicateArgument) as err2:
        parse_apx("arg(a).\narg(a).")
    assert err2.value.line == 2
    with pytest.raises(ParseError) as err3:
        parse_apx("arg(a). nonsense")
    assert err3.value.line == 1 and "line 1" in str(err3.value)
    with pytest.raises(ParseError):
        parse_apx("arg(a)")  # missing period
    assert isinstance(
        pytest.raises(ParseError, parse_apx, "att(a).").value, ParseError
    )


def test_apx_write_orders_declarations_first(f4):
    text = write_apx(f4)
    lines = text.strip().splitlines()
    assert lines[:4] == ["arg(a).", "arg(b).", "arg(c).", "arg(d)."]
    assert sorted(lines[4:]) == lines[4:]
    assert text.endswith("\n")


def test_tgf_examples():
    af = parse_tgf("1\n2\n#\n1 2")
    assert af == ArgumentationFramework(("1", "2"), [("1", "2")])
    # labels after the first token are ignored
    af2 = parse_tgf("a first node\nb second\n#\na b attack-label\n")
    assert af2 == ArgumentationFramework(("a", "b"), [("a", "b")])
    with pytest.raises(ParseError):
        parse_tgf("a\nb\n")  # missing separator
    with pytest.raises(ParseError):
        parse_tgf("a\n#\nb\n#\n")  # two separators
    with pytest.raises(UndeclaredArgument):
        parse_tgf("a\n#\na z\n")
    with pytest.raises(ParseError):
        parse_tgf("a\n#\na\n")  # edge line with one endpoint
    with pytest.raises(ParseError):
        parse_tgf("a$\n#\n")  # bad node name


def test_dimacs_examples():
    f = parse_dimacs_cnf("p cnf 1 2\n1 0\n-1 0")
    assert f.n == 1 and f.m == 2
    assert f.clauses == (frozenset({1}), frozenset({-1}))
    with pytest.raises(NotThreeCnfTwo):
        parse_dimacs_cnf("p cnf 4 1\n1 2 3 4 0\n")
    with pytest.raises(NotThreeCnfTwo) as err:
        parse_dimacs_cnf("p cnf 2 3\n1 0\n1 2 0\n1 -2 0\n")
    assert "1" in str(err.value)


def test_dimacs_error_cases():
    cases = [
        "1 0\np cnf 1 1\n",                  # clause before header
        "p cnf 1 1\np cnf 1 1\n1 0\n",       # second header
        "p dnf 1 1\n1 0\n",                  # wrong format word
        "p cnf 1 1\nx 0\n",                  # junk token
        "p cnf 1 1\n2 0\n",                  # literal out of range
        "p cnf 1 1\n1\n",                    # unterminated clause
        "p cnf 1 2\n1 0\n",                  # clause count mismatch
        "p cnf 0 1\n1 0\n",                  # nonpositive variable count
    ]
    for text in cases:
        with pytest.raises(ParseError):
            parse_dimacs_cnf(text)
    err = pytest.raises(ParseError, parse_dimacs_cnf, "p cnf 1 1\n2 0\n").value
    assert err.line == 2


def test_dimacs_comments_and_roundtrip():
    f = parse_dimacs_cnf("c a comment\np cnf 2 2\nc another\n1 -2 0\n-1 2 0\n")
    assert f.m == 2
    assert parse_dimacs_cnf(write_dimacs_cnf(f)) == f
    g = cnf(4, [(1, 2), (-1, -2), (1, -2), (-1, 2), (3, 4)])
    assert parse_dimacs_cnf(write_dimacs_cnf(g)) == g


def test_roundtrips_on_seeded_frameworks():
    rng = random.Random(314159)
    for _ in range(100):
        af = random_framework(rng, rng.randint(1, 15))
        assert parse_apx(write_apx(af)) == af
        assert parse_tgf(write_tgf(af)) == af


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 12))
def test_roundtrip_property(seed, n):
    rng = random.Random(seed)
    af = random_framework(rng, n)
    assert parse_apx(write_apx(af)) == af
    assert parse_tgf(write_tgf(af)) == af
    # both serializations describe the same framework
    assert parse_tgf(write_tgf(af)) == parse_apx(write_apx(af))


def test_load_dispatch(tmp_path, f1):
    apx = tmp_path / "f.apx"
    apx.write_text(write_apx(f1), encoding="utf-8")
    tgf = tmp_path / "f.tgf"
    tgf.write_text(write_tgf(f1), encoding="utf-8")
    assert load_framework(apx) == f1
    assert load_framework(tgf) == f1
    dim = tmp_path / "f.cnf"
    dim.write_text("p cnf 1 1\n1 0\n", encoding="utf-8")
    assert load_cnf(dim).n == 1
    with pytest.raises(IoError):
        load_framework(tmp_path / "missing.apx")
    with pytest.raises(IoError):
        load_cnf(tmp_path / "missing.cnf")


@pytest.mark.parametrize("load, name", [(load_framework, "bin.apx"),
                                        (load_framework, "bin.tgf"),
                                        (load_cnf, "bin.cnf")])
def test_a_file_that_is_not_utf8_raises_io_error_naming_it(tmp_path, load, name):
    path = tmp_path / name
    path.write_bytes(b"\x8e" * 100)
    with pytest.raises(IoError) as err:
        load(path)
    assert str(err.value).startswith(f"cannot read {path}: ")
