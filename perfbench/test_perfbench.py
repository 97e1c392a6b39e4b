"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import dataclasses
import json
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hostclock  # noqa: E402
import run  # noqa: E402
import slesim  # noqa: E402
import slesim.cli  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def test_self_time_of_nested_spans():
    # root [0, 10] has children a [1, 4] and b [5, 9]; b has child c [6, 8]
    parents = [-1, 0, 0, 2]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 8.0]
    assert self_times(parents, starts, ends).tolist() == [3.0, 3.0, 2.0, 2.0]


def _snapshot() -> dict:
    """Every attribute of every slesim module and of the classes in them."""
    snap = {("numpy.random", "Philox"): np.random.Philox}
    for name, module in list(sys.modules.items()):
        if name != "slesim" and not name.startswith("slesim."):
            continue
        for key, value in vars(module).items():
            snap[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith(
                    "slesim"):
                for attr, raw in vars(value).items():
                    snap[(name, key, attr)] = raw
    return snap


def _assert_unchanged(before: dict) -> None:
    after = _snapshot()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_tracer_restores_every_attribute(tmp_path, capsys):
    before = _snapshot()
    tracer = run.make_tracer()
    with tracer.installed():
        # aliases bound by ``from .x import f`` are wrapped as well
        assert slesim.cli.build_trace is slesim.trace.build_trace
        assert slesim.trace.build_trace is not before[("slesim.trace",
                                                       "build_trace")]
        code = slesim.cli.main(["trace", "--kappa", "2.5", "--n-init", "8",
                                "--tolerance", "0.2", "--out",
                                str(tmp_path)])
    assert code == 0
    _assert_unchanged(before)
    summary = tracer.summary()
    assert summary["cli.main"]["calls"] == 1
    assert summary["trace.build_trace"]["calls"] == 1
    points = (tmp_path / "trace.csv").read_text().count("\n") - 1
    layers = run.layer_metrics(tracer, 0)
    assert layers["trace.points"] == points
    assert layers["trace.bisections"] == points - 1 - 8
    assert layers["brownian.philox_constructions"] == 1 + points - 1 - 8


def _fake_package(monkeypatch, hook_seconds):
    """Module ``fakepkg`` whose parent() calls child() once."""
    module = types.ModuleType("fakepkg")

    def child():
        return 1

    def parent():
        return module.child()

    for fn in (child, parent):
        fn.__module__ = "fakepkg"
        setattr(module, fn.__name__, fn)
    module.__all__ = ["child", "parent"]
    monkeypatch.setitem(sys.modules, "fakepkg", module)
    tracer = Tracer("fakepkg", on_call={
        "fakepkg.child": lambda counts, args, kwargs: time.sleep(
            hook_seconds)})
    return module, tracer


def test_wrapper_bookkeeping_is_charged_to_no_span(monkeypatch):
    module, tracer = _fake_package(monkeypatch, 0.05)
    with tracer.installed():
        assert module.parent() == 1
    raw = tracer.summary()
    assert raw["fakepkg.parent"]["calls"] == raw["fakepkg.child"]["calls"] == 1
    # the hook slept 50 ms; neither span may see it
    assert raw["fakepkg.parent"]["s"] < 0.01
    assert raw["fakepkg.child"]["s"] < 0.01
    # the calibrated cost comes off each span, and per child off the parent
    tracer.overhead = (1e-3, 2e-3)
    fixed = tracer.summary()
    for name, inclusive, own in [("fakepkg.parent", 4e-3, 3e-3),
                                 ("fakepkg.child", 1e-3, 1e-3)]:
        assert raw[name]["s"] - fixed[name]["s"] == pytest.approx(inclusive)
        assert (raw[name]["self_s"] - fixed[name]["self_s"]
                == pytest.approx(own))


def test_traced_run_writes_its_spans(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_ROOT", tmp_path)
    small = dataclasses.replace(
        run.WORKLOADS["trace"], runs=1,
        args=("trace", "--kappa", "2.5", "--n-init", "8", "--tolerance",
              str(run.TRACE_TOLERANCE)))
    stale = tmp_path / "spans-trace-seed5.csv"
    stale.write_text("from an earlier run\n")
    outdir = tmp_path / "out"
    outdir.mkdir()
    metrics, attempted, failed, correct, info = run.measure(
        small, 3, 0.01, True, outdir)
    assert (correct, attempted, failed) == (True, 2, 0)
    assert not stale.exists()
    rows = (tmp_path / "spans-trace-seed3.csv").read_text().splitlines()
    assert rows[0] == "name,start,end,parent,run"
    assert rows[1].startswith("cli.main,")
    assert rows[1].endswith(",-1,trace-seed3")
    assert sum(row.startswith("trace.build_trace,") for row in rows) == 1
    assert metrics["trace.points"] > 0


def test_tracer_restores_after_an_exception():
    before = _snapshot()
    with pytest.raises(ZeroDivisionError):
        with run.make_tracer().installed():
            slesim.nv_step(1j, 0.1, 0.0, 2.0)
            raise ZeroDivisionError
    _assert_unchanged(before)


def test_trace_check_rejects_one_gap_at_the_tolerance():
    good = "t,re,im\n0.0,0.0,0.0\n0.5,0.0,0.05\n1.0,0.01,0.12\n"
    assert run.check_trace(good, {}, 0.1) == []
    bad = "t,re,im\n0.0,0.0,0.0\n0.5,0.0,0.1\n1.0,0.01,0.12\n"
    assert len(run.check_trace(bad, {}, 0.1)) == 1
    below = "t,re,im\n0.0,0.0,0.0\n1.0,0.0,-0.01\n"
    assert len(run.check_trace(below, {}, 0.1)) == 1


def _fake_cli(codes):
    """A stand-in for slesim.cli whose runs exit with the given codes."""
    results = iter(codes)

    def main(argv):
        code = next(results)
        if code == 0:
            out = Path(argv[argv.index("--out") + 1])
            (out / "trace.csv").write_text("t,re,im\n0.0,0.0,0.0\n")
            (out / "trace.json").write_text("{}")
        return code
    return types.SimpleNamespace(main=main)


def test_failed_runs_are_counted_not_dropped(tmp_path):
    workload = run.WORKLOADS["trace"]
    argvs = workload.argvs(0)[:3]
    # exit 2 is a documented numerical failure: counted, output still valid
    done = run.run_pass(workload, argvs, tmp_path, _fake_cli([0, 2, 0]))
    assert (done.attempted, done.failed, done.items) == (3, 1, 2)
    assert done.problems == []
    # any other exit code, or a change from the first pass, is a problem
    again = run.run_pass(workload, argvs, tmp_path, _fake_cli([0, 1, 2]),
                         reference=done.digests)
    assert (again.attempted, again.failed) == (3, 2)
    assert [p.split(": ", 1)[1][:6] for p in again.problems] == [
        "exit 1", "output", "output"]


def test_host_clock_divides_each_stretch_by_its_probes(monkeypatch):
    durations = iter([1e-3, 3e-3])
    monkeypatch.setattr(hostclock, "probe", lambda: next(durations))
    clock = hostclock.HostClock()
    result, wall, corrected = clock.run(time.sleep, 0.05, interrupt=False)
    assert result is None
    assert 0.04 < wall < 0.5
    assert corrected == pytest.approx(
        wall * hostclock.REFERENCE_PROBE_S / 2e-3)
    assert clock.fastest_probe == 1e-3


def test_host_clock_probes_during_a_call_and_restores_the_alarm():
    before = hostclock.signal.getsignal(hostclock.signal.SIGALRM)
    clock = hostclock.HostClock()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    result, wall, corrected = clock.run(busy, 0.2)
    assert result == "done"
    assert len(clock._marks) > 5  # the two around the call, and timed ones
    assert 0.1 < wall <= 0.2
    assert corrected * clock.fastest_probe <= (
        wall * hostclock.REFERENCE_PROBE_S)
    assert hostclock.signal.getsignal(hostclock.signal.SIGALRM) is before
    assert hostclock.signal.getitimer(hostclock.signal.ITIMER_REAL) == (
        0.0, 0.0)


def test_benchmark_json_matches_the_script():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in run.WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == run.PER_LAYER
