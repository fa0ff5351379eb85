import pytest

from argudyn import ArgudynError, IoError
from argudyn import bench
from argudyn.bench import (
    CSV_COLUMNS,
    SUITES,
    BenchRecord,
    degree_capped_framework,
    format_csv,
    run_bench,
)
from argudyn import max_degree
import random


def test_degree_capped_generator_respects_cap():
    rng = random.Random(17)
    for _ in range(20):
        af = degree_capped_framework(rng, rng.randint(5, 40))
        assert max_degree(af) <= 3


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_bench("nope")


def test_csv_format_and_write(tmp_path):
    records = [
        BenchRecord(
            instance_id="id1",
            generator="g",
            source="s",
            kind="repair",
            semantics="adm",
            k=1,
            n_args=5,
            max_degree=2,
            answer=True,
            engine="delta",
            wall_time_s=0.25,
            nodes=7,
        )
    ]
    text = format_csv(records)
    lines = text.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "id1,g,s,repair,adm,1,5,2,yes,delta,0.250000,7"
    out = tmp_path / "r.csv"
    run_bench("repair-k-sweep", seed=5, out_path=out)
    assert out.read_text(encoding="utf-8").splitlines()[0] == lines[0]
    with pytest.raises(IoError):
        run_bench("repair-k-sweep", seed=5, out_path=tmp_path / "no" / "x.csv")


def _stable_fields(record):
    return tuple(
        getattr(record, name) for name in CSV_COLUMNS if name != "wall_time_s"
    )


def test_k_sweep_is_deterministic_and_covers_engines():
    a = run_bench("repair-k-sweep", seed=9)
    b = run_bench("repair-k-sweep", seed=9)
    assert [_stable_fields(r) for r in a] == [_stable_fields(r) for r in b]
    engines = {r.engine for r in a}
    assert engines == {"delta", "branching", "fo"}
    # per base instance, yes answers are monotone in k
    by_base = {}
    for r in a:
        if r.engine != "delta":
            continue
        base = r.instance_id.rsplit("-", 1)[0]
        by_base.setdefault(base, []).append((r.k, r.answer))
    for base, answers in by_base.items():
        answers.sort()
        seen_yes = False
        for _, ans in answers:
            assert not (seen_yes and not ans), base
            seen_yes = seen_yes or ans


def test_suite_names_exported():
    assert SUITES == ("repair-degree-sweep", "repair-k-sweep")


@pytest.mark.parametrize("flipped", ["branching", "fo"])
def test_engine_disagreement_raises(monkeypatch, flipped):
    real = bench.solve_instance

    def solve(instance, engine="delta"):
        result = real(instance, engine=engine)
        if engine == flipped and instance.k == 0:
            result.answer = not result.answer
        return result

    monkeypatch.setattr(bench, "solve_instance", solve)
    with pytest.raises(ArgudynError) as info:
        run_bench("repair-k-sweep", seed=9)
    message = str(info.value)
    first = "ksweep-0-k0" if flipped == "branching" else "ksweep-fo-k0"
    assert first in message
    assert "delta=" in message and f"{flipped}=" in message
