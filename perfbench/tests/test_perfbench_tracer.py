"""Tests for the benchmark's tracer: self time, restoring, untraced runs."""

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run as bench  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import Workload  # noqa: E402


def test_self_time_of_nested_spans():
    spans = [
        ("root", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("a.inner", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_overlapping_children_count_once():
    spans = [("root", 0.0, 10.0, None), ("x", 1.0, 6.0, 0), ("y", 4.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_wrapped_calls_nest_and_sum():
    tracer = Tracer(clock=_Clock())
    inner = tracer.wrap("inner", lambda x: x + 1)
    outer = tracer.wrap("outer", lambda x: inner(x) * inner(x), outcome=lambda r: r > 3)
    assert outer(1) == 4
    summary = tracer.summary()
    assert summary["outer"]["calls"] == 1
    assert summary["inner"]["calls"] == 2
    # outer spans clock ticks 1..6, each inner span one tick
    assert summary["outer"]["self_s"] == pytest.approx(3.0)
    assert summary["inner"]["self_s"] == pytest.approx(2.0)
    assert tracer.outcomes == {"outer": {True: 1}}


def test_generator_resumptions_are_spans():
    tracer = Tracer(clock=_Clock())
    counted = tracer.wrap("counted", _three)
    assert list(counted()) == [0, 1, 2]
    assert tracer.calls["counted"] == 1
    assert sum(1 for s in tracer.spans if s[0] == "counted") == 4


def _three():
    yield from range(3)


def _layer_attributes(cg):
    """Every (holder, attribute) -> object for the traced functions."""
    out = {}
    modules = [cg.pkg] + [getattr(cg, m) for m in bench.MODULES]
    for _, module, attr, _ in bench.LAYERS:
        if "." in attr:
            cls, name = attr.split(".")
            owner = getattr(getattr(cg, module), cls)
            out[(owner, name)] = owner.__dict__[name]
            continue
        for holder in modules:
            if hasattr(holder, attr):
                out[(holder, attr)] = getattr(holder, attr)
    return out


def _probe_workload(seen):
    def job(cg, inputs, rec):
        seen.append({key: hasattr(fn, "__wrapped__") for key, fn in _layer_attributes(cg).items()})
        g = cg.pkg.Graph.cycle(5)
        return [rec.op("at", cg.pkg.is_f_AT, g, [2] * 5), rec.op("chi", cg.cli.main, ["chi", "Dhc"])]

    def check(cg, inputs, results):
        return [], {}

    return Workload("probe", "tracer test", None, job, check)


def test_traced_run_restores_module_attributes(tmp_path, capsys):
    cg = bench.package_modules()
    before = _layer_attributes(cg)
    seen = []
    metrics, counts, attempted, failures = bench.measure_traced(
        _probe_workload(seen), cg, {}, 0, tmp_path / "spans.json", {}
    )
    assert not failures and attempted == 4
    assert _layer_attributes(cg) == before
    untraced, traced = seen
    assert not any(untraced.values())
    assert all(traced.values())
    assert metrics["coloring.is_f_AT.calls"] == (1, "count")
    assert metrics["coloring.ee_eo.calls"][0] >= 1
    assert metrics["cli.main.exit_0"] == (1, "count")
    assert counts["layers"]["cli.main"]["calls"] == 1


def test_untraced_run_installs_no_wrapper(capsys):
    cg = bench.package_modules()
    seen = []
    bench.measure(_probe_workload(seen), cg, {}, 0)
    assert len(seen) == 1
    assert not any(seen[0].values())
