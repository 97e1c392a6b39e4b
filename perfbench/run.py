"""Benchmark for slesim: CLI workloads timed end to end, plus a traced run.

Run from the repository root:

    python3 perfbench/run.py --workload trace --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Each workload drives the public entry point ``slesim.cli.main`` in-process,
in the fresh interpreter that runs this script (``--workload all`` starts
one child interpreter per workload), writing to a temporary directory under
``.perfbench-out/`` that is removed afterwards.  The package is imported
from ``src/`` next to this directory; without it the script exits with 2.

A *pass* is one fixed list of CLI runs on consecutive seeds: 128 trace
builds from seed 8 + s, four scaling runs with seeds s to s + 3, or one
run of the other experiments with seed s, where s is the workload seed; a
pass takes 1-8 s on a 2-vCPU Xeon VM.  Passes repeat, at least twice,
while the next one is expected to end within ``--seconds``; every output
a pass writes is checked and compared with the first pass byte for byte.

``--trace 0`` reports the end-to-end metrics:

    setup_s      launch of a fresh interpreter until ``import slesim``
                 returns, the median of at least nine launches
    wall_s       one pass, including writing its output files, the
                 median of all passes
    items_per_s  accepted trace points (``trace``) or replica paths (the
                 experiments) of one pass, divided by wall_s; a failed
                 trace adds time, no points
    peak_rss_mb  peak resident memory of this process

The program is single threaded and its CPU time equals its wall time, yet
on a shared 2-vCPU VM identical work runs up to twice as fast in one
minute as in the next.  So both times are read on a ``HostClock`` (see
``hostclock.py``): the process is pinned to one CPU, a short probe runs
every 10 ms and around every timed call, and each stretch of program time
is scaled to a fixed probe speed.  The info line gives the plain wall
time of every pass as well, and their median.

``--trace 1`` alternates untraced and traced passes, both timed on plain
wall time without probes, and reports the per-layer metrics of
``PER_LAYER``: counts from one traced pass (they repeat exactly), seconds
as medians, and ``trace_overhead``, the traced over the untraced pass
time.  The traced pass wraps every public function of every
``slesim`` module from outside (see ``tracer.py``).  The copy of the
``sqrt_h`` branch rule inlined in ``trace._eval_chain`` is not a call, so
it is counted in ``trace.build_trace.self_s`` and never in ``halfplane``.
The spans of the last traced pass are written, when the run ends, to
``.perfbench-out/spans-<workload>-seed<s>.csv``, replacing the previous
file of that workload.

Failed operations (one CLI run; for ``trace``, one seed's build) go into
``failed``; fail_ratio is failed / attempted.  A numerical failure (exit 2)
is a documented outcome and leaves ``correct`` true; any other nonzero exit,
a failed output check or CSV bytes that change between passes make it false.
The last line of standard output is the result JSON; the line before it
holds provenance, per-workload detail and the CSV sha256 (information only).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench-out"
ALLOWED_CPUS = os.sched_getaffinity(0)  # before run_one pins one of them

MIN_PASSES = 2  # the byte-identity check needs a repeat
SETUP_PROBES_PER_PASS = 3
MIN_SETUP_SAMPLES = 9
# One trace costs O(N^2) in its point count N, and N varies several-fold
# between seeds, so a few README-sized traces (tolerance 0.02-0.04) time
# very differently from one seed block to the next.  128 small traces
# (N about 70-260, the sweep still ~2/3 of the time) average that out
# and take 2-3.5 s.
TRACE_FIRST_SEED = 8
TRACE_BLOCK = 128
TRACE_TOLERANCE = 0.16
SCALING_EPS = [2.0 ** -k for k in range(3, 8)]
SCALING_REPLICAS = 100
# The reference refinement makes the work of a run vary with its seed
# (Philox constructions: IQR about 10% of the median over twenty seeds);
# four runs per pass halve that spread.
SCALING_RUNS = 4
DIVERGENCE_REPLICAS = 2000
DIVERGENCE_LEVELS = 2  # divergence_probe draws one path per eps and eps/2
MOMENTS_REPLICAS = 500_000  # about 270 MB peak resident memory

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

PER_LAYER = [
    ("trace.build_trace.self_s", "s", "lower"),
    ("trace.points", "count", "lower"),
    ("trace.bisections", "count", "lower"),
    ("trace.accept_ratio", "ratio", "higher"),
    ("trace.map_evaluations", "count", "lower"),
    ("trace.depth_max", "count", "lower"),
    ("trace.output_s", "s", "lower"),
    ("brownian.insert_midpoint.calls", "count", "lower"),
    ("brownian.insert_midpoint.self_s", "s", "lower"),
    ("brownian.refine.calls", "count", "lower"),
    ("brownian.refine.self_s", "s", "lower"),
    ("brownian.sample_uniform.calls", "count", "lower"),
    ("brownian.sample_uniform.s", "s", "lower"),
    ("brownian.philox_constructions", "count", "lower"),
    ("schemes.reference_solve.calls", "count", "lower"),
    ("schemes.reference_solve.self_s", "s", "lower"),
    ("schemes.reference_solve.map_applications", "count", "lower"),
    ("schemes.nv_step.calls", "count", "lower"),
    ("schemes.nv_step.elements", "count", "lower"),
    ("schemes.nv_step.self_s", "s", "lower"),
    ("schemes.taylor_step.calls", "count", "lower"),
    ("schemes.taylor_step.self_s", "s", "lower"),
    ("schemes.euler_step.calls", "count", "lower"),
    ("halfplane.sqrt_h.calls", "count", "lower"),
    ("halfplane.sqrt_h.elements", "count", "lower"),
    ("halfplane.sqrt_h.s", "s", "lower"),
    ("integrals.iterated_integral.calls", "count", "lower"),
    ("integrals.iterated_integral.s", "s", "lower"),
    ("integrals.compute_table.calls", "count", "lower"),
    ("integrals.compute_table.s", "s", "lower"),
    ("integrals.compute_table.grid_points", "count", "lower"),
    ("vfalgebra.compose.calls", "count", "lower"),
    ("vfalgebra.compose.s", "s", "lower"),
    ("vfalgebra.eval_term.calls", "count", "lower"),
    ("vfalgebra.eval_term.s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("experiments.reference_doublings", "count", "lower"),
    ("experiments.reference_doublings_per_replica", "ratio", "lower"),
    ("experiments.reference_useful_ratio", "ratio", "higher"),
    ("experiments.output_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
]

TIMES = {name for name, unit, _ in PER_LAYER if unit == "s"}

EXPERIMENT_FUNCTIONS = ("epsilon_scaling", "divergence_probe",
                        "moment_preservation", "scheme_comparison")


# ---------------------------------------------------------------------------
# output checks: each returns a list of problems, empty when the output holds


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def check_trace(text: str, sidecar: dict, tolerance: float) -> list[str]:
    """First point (0, 0), every gap below tolerance, every im >= 0."""
    points = [(float(r["t"]), complex(float(r["re"]), float(r["im"])))
              for r in _rows(text)]
    if not points or points[0] != (0.0, 0j):
        return ["first point is not (0, 0)"]
    problems = []
    for k in range(1, len(points)):
        gap = abs(points[k][1] - points[k - 1][1])
        if not gap < tolerance:
            problems.append(f"gap {gap!r} >= {tolerance} before t="
                            f"{points[k][0]!r}")
        if points[k][1].imag < 0.0:
            problems.append(f"im < 0 at t={points[k][0]!r}")
    return problems


def check_scaling(text: str, sidecar: dict) -> list[str]:
    """README acceptance 3: log-log slope >= 0.9 with r^2 >= 0.98."""
    fit = sidecar.get("fit") or {}
    slope, r2 = fit.get("slope", float("nan")), fit.get("r2", float("nan"))
    if slope >= 0.9 and r2 >= 0.98:
        return []
    return [f"fit slope {slope!r}, r2 {r2!r}"]


def check_divergence(text: str, sidecar: dict) -> list[str]:
    """README acceptance 4: exponents within 0.1 of theory."""
    return [f"word {r['word']}: exponent {r['exponent']} vs theory "
            f"{r['theory_exponent']}" for r in _rows(text)
            if not abs(float(r["exponent"])
                       - float(r["theory_exponent"])) <= 0.1]


def check_moments(text: str, sidecar: dict) -> list[str]:
    """README acceptance 2: every row within 4 standard errors."""
    return [f"t={r['t']}: deviation {r['deviation_se']} se"
            for r in _rows(text) if not float(r["deviation_se"]) <= 4.0]


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Workload:
    name: str          # also the subcommand, and the basename of its outputs
    why: str
    args: tuple        # CLI arguments before --seed
    item: str          # what items_per_s counts
    replicas: int      # replica paths per run; 0 counts CSV rows instead
    check: Callable[[str, dict], list]
    # CLI runs per pass, on consecutive seeds: enough that the work of a
    # pass varies little with the seed, few enough that a 30 s run
    # repeats the pass at least twice, even on a busy host.
    runs: int = 1
    first_seed: int = 0    # CLI --seed of the first run at workload seed 0

    def argvs(self, seed: int) -> list[list[str]]:
        """The CLI runs of one pass."""
        start = self.first_seed + seed
        return [list(self.args) + ["--seed", str(s)]
                for s in range(start, start + self.runs)]


WORKLOADS = {w.name: w for w in [
    Workload(
        "trace",
        "128 traces at kappa 6, tolerance 0.16: the O(N^2) backward-chain "
        "sweep in slesim.trace is ~2/3 of the time; few bridge draws; no "
        "integrals, vfalgebra or experiments",
        ("trace", "--kappa", "6", "--T", "1", "--tolerance",
         repr(TRACE_TOLERANCE), "--n-init", "64"),
        "points", 0,
        lambda text, side: check_trace(text, side, TRACE_TOLERANCE),
        runs=TRACE_BLOCK, first_seed=TRACE_FIRST_SEED),
    Workload(
        "scaling",
        "acceptance-3 config, 4 runs of 100 replicas: bridge draws in "
        "brownian (one Philox each) ~75% of the time, scalar "
        "reference_solve/nv_step/sqrt_h ~15%",
        ("scaling", "--eps", *map(repr, SCALING_EPS), "--delta", "0.5",
         "--r", "2", "--kappa", "2", "--substeps", "128",
         "--replicas", str(SCALING_REPLICAS)),
        "replicas", len(SCALING_EPS) * SCALING_REPLICAS,
        check_scaling, runs=SCALING_RUNS),
    Workload(
        "divergence",
        "default config, 2000 replicas: integrals.iterated_integral ~70% and "
        "whole-path sample_uniform ~27% of the time; no bridge draws, no "
        "schemes",
        ("divergence", "--replicas", str(DIVERGENCE_REPLICAS)),
        "replicas", DIVERGENCE_LEVELS * DIVERGENCE_REPLICAS,
        check_divergence),
    Workload(
        "moments",
        "500k replicas: the only workload on the array path of nv_step/sqrt_h "
        "(~70% of the time) and the largest memory; scalar-kernel changes "
        "should not move it",
        ("moments", "--kappa", "2", "--steps", "16",
         "--replicas", str(MOMENTS_REPLICAS)),
        "replicas", MOMENTS_REPLICAS, check_moments),
]}


@dataclass
class Pass:
    seconds: float
    corrected: float   # HostClock seconds (0 without a clock)
    items: int
    attempted: int
    failed: int
    problems: list
    digests: list      # sha256 of each run's CSV, or its exit status


def _call(main, argv):
    try:
        return main(argv)
    except Exception as exc:  # noqa: BLE001  counted, never retried
        return f"{type(exc).__name__}: {exc}"


def run_pass(workload: Workload, argvs, outdir: Path, cli_module,
             reference=None, clock=None) -> Pass:
    """Run one pass; time only the CLI calls, then check what they wrote.

    ``reference`` is the first pass's digest list; any byte difference
    from it fails the run.  With a ``HostClock`` each call is also timed
    in its corrected seconds.
    """
    csv_path = outdir / f"{workload.name}.csv"
    sidecar_path = outdir / f"{workload.name}.json"
    result = Pass(0.0, 0.0, 0, 0, 0, [], [])
    sink = io.StringIO()
    for k, argv in enumerate(argvs):
        csv_path.unlink(missing_ok=True)
        sidecar_path.unlink(missing_ok=True)
        args = (cli_module.main, argv + ["--out", str(outdir), "--force"])
        with redirect_stdout(sink), redirect_stderr(sink):
            if clock is None:
                started = time.perf_counter()
                code = _call(*args)
                wall, corrected = time.perf_counter() - started, 0.0
            else:
                code, wall, corrected = clock.run(_call, *args)
        result.seconds += wall
        result.corrected += corrected
        sink.seek(0)
        sink.truncate()
        result.attempted += 1
        problems = []
        if code == 0:
            data = csv_path.read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            text = data.decode("ascii")
            sidecar = json.loads(sidecar_path.read_text(encoding="ascii"))
            problems = workload.check(text, sidecar)
            items = workload.replicas or len(_rows(text))
        else:
            digest = f"exit {code}"
            items = 0
            if code != 2:
                problems = [f"{' '.join(argv)}: exit {code}"]
        if reference is not None and digest != reference[k]:
            problems.append(f"{' '.join(argv)}: output {digest} differs "
                            f"from the first pass ({reference[k]})")
        result.digests.append(digest)
        if code != 0 or problems:
            result.failed += 1
        else:
            result.items += items
        result.problems += problems
    return result


# ---------------------------------------------------------------------------
# measurement

_PROBE = ("import sys, time\nimport slesim\n"
          "print(repr(time.monotonic() - float(sys.argv[1])))")


def setup_probe() -> float:
    """Seconds from launching a fresh interpreter until import returns.

    CLOCK_MONOTONIC is shared between processes, so the child subtracts
    the parent's launch time from its own reading.  The child inherits
    this process's CPU affinity.
    """
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path
                                                  if path else ""))
    launched = time.monotonic()
    proc = subprocess.run([sys.executable, "-c", _PROBE, repr(launched)],
                          env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout.strip())


def setup_corrected(clock) -> float:
    """One set-up time in HostClock seconds, from the probes around it."""
    seconds, wall, corrected = clock.run(setup_probe, interrupt=False)
    return seconds * corrected / wall


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _counts(layer: dict) -> dict:
    return {k: v for k, v in layer.items() if k not in TIMES}


def make_tracer():
    import numpy as np

    from tracer import Tracer

    def add(counts, key, n):
        counts[key] = counts.get(key, 0) + n

    def elements(key):
        def hook(counts, args, kwargs):
            x = args[0] if args else next(iter(kwargs.values()))
            add(counts, key, x.size if isinstance(x, np.ndarray) else 1)
        return hook

    def map_applications(counts, args, kwargs):
        # reference_solve(z0, path, t, ...) steps every interval in [0, t]
        path, t = args[1], args[2]
        add(counts, "schemes.reference_solve.map_applications",
            int(np.searchsorted(path.times, t)))

    def trace_result(counts, result):
        add(counts, "trace.points", len(result.points))
        add(counts, "trace.map_evaluations", result.stats["map_evaluations"])
        counts["trace.depth_max"] = max(counts.get("trace.depth_max", 0),
                                        result.stats["refinement_depth_max"])

    def grid_points(counts, table):
        add(counts, "integrals.compute_table.grid_points",
            table.resolution + 1)

    return Tracer(
        "slesim",
        extra=[(np.random, "Philox", "numpy.Philox")],
        on_call={"schemes.nv_step": elements("schemes.nv_step.elements"),
                 "halfplane.sqrt_h": elements("halfplane.sqrt_h.elements"),
                 "schemes.reference_solve": map_applications},
        on_return={"trace.build_trace": trace_result,
                   "integrals.compute_table": grid_points})


def layer_metrics(tracer, replicas: int) -> dict:
    """The PER_LAYER metrics of one traced pass (without trace_overhead)."""
    spans = tracer.summary()
    counts = tracer.counts

    def get(name, key):
        return spans.get(name, {}).get(key, 0)

    points = counts.get("trace.points", 0)
    bisections = tracer.child_calls("trace.build_trace",
                                    "brownian.insert_midpoint")
    doublings = get("brownian.refine", "calls")
    solves = get("schemes.reference_solve", "calls")
    m = {
        "trace.build_trace.self_s": get("trace.build_trace", "self_s"),
        "trace.points": points,
        "trace.bisections": bisections,
        "trace.accept_ratio": (points / (points + bisections)
                               if points + bisections else 0.0),
        "trace.map_evaluations": counts.get("trace.map_evaluations", 0),
        "trace.depth_max": counts.get("trace.depth_max", 0),
        "trace.output_s": (get("trace.render_svg", "s")
                           + get("trace.write_trace_csv", "s")),
        "brownian.philox_constructions": get("numpy.Philox", "calls"),
        "schemes.reference_solve.map_applications": counts.get(
            "schemes.reference_solve.map_applications", 0),
        "schemes.nv_step.elements": counts.get("schemes.nv_step.elements", 0),
        "halfplane.sqrt_h.elements": counts.get("halfplane.sqrt_h.elements",
                                                0),
        "integrals.compute_table.grid_points": counts.get(
            "integrals.compute_table.grid_points", 0),
        "experiments.self_s": sum(get(f"experiments.{f}", "self_s")
                                  for f in EXPERIMENT_FUNCTIONS),
        "experiments.reference_doublings": doublings,
        "experiments.reference_doublings_per_replica": (
            doublings / replicas if replicas else 0.0),
        "experiments.reference_useful_ratio": (replicas / solves
                                               if solves else 0.0),
        "experiments.output_s": (get("experiments.write_report_csv", "s")
                                 + get("experiments.write_report_sidecar",
                                       "s")),
    }
    out = {}
    for name, _, _ in PER_LAYER[:-1]:  # trace_overhead needs both runs
        span, key = name.rsplit(".", 1)
        out[name] = m[name] if name in m else get(span, key)
    return out


def module_shares(tracer) -> dict:
    """Self time per module (first part of the span name) / all self time.

    The tracer's own bookkeeping is in no span, so the base is the traced
    pass without it.  ``numpy`` is the Philox constructor below brownian.
    """
    shares: dict = {}
    for name, row in tracer.summary().items():
        module = name.split(".", 1)[0]
        shares[module] = shares.get(module, 0.0) + row["self_s"]
    total = sum(shares.values())
    return {k: v / total for k, v in sorted(shares.items())}


def _median(values) -> float:
    return float(statistics.median(values))


def measure(workload: Workload, seed: int, seconds: float, traced: bool,
            outdir: Path):
    """Run passes for about ``seconds``.

    Returns (metrics, attempted, failed, correct, info).
    """
    import slesim.cli as cli_module
    from hostclock import HostClock

    argvs = workload.argvs(seed)
    passes, setup, traced_passes, layers = [], [], [], []
    reference = None
    tracer = make_tracer() if traced else None
    # traced runs compare plain wall times, so no probe interrupts them
    clock = None if traced else HostClock()
    shares = None
    started = time.perf_counter()
    while True:
        passes.append(run_pass(workload, argvs, outdir, cli_module, reference,
                               clock))
        reference = reference or passes[0].digests
        if traced:
            tracer.calibrate()  # host speed drifts; calibrate per pass
            tracer.clear()
            with tracer.installed():
                traced_passes.append(run_pass(workload, argvs, outdir,
                                              cli_module, reference))
            replicas = traced_passes[-1].items if workload.replicas else 0
            layers.append(layer_metrics(tracer, replicas))
            shares = module_shares(tracer)
        else:
            setup += [setup_corrected(clock)
                      for _ in range(SETUP_PROBES_PER_PASS)]
        # stop before a pass that would end past the budget, after >= 2
        cycle = (time.perf_counter() - started) / len(passes)
        if (len(passes) + len(traced_passes) >= MIN_PASSES
                and time.perf_counter() - started + cycle > seconds):
            break
    while not traced and len(setup) < MIN_SETUP_SAMPLES:
        setup.append(setup_corrected(clock))
    if traced:
        for old in OUT_ROOT.glob(f"spans-{workload.name}-seed*.csv"):
            old.unlink()
        tracer.write_spans(spans_file(workload, seed),
                           f"{workload.name}-seed{seed}")

    wall = [p.seconds for p in passes]
    if traced:
        metrics = {name: (_median([layer[name] for layer in layers])
                          if name in TIMES else layers[0][name])
                   for name in layers[0]}
        metrics["trace_overhead"] = (
            _median([p.seconds for p in traced_passes]) / _median(wall))
        detail = {"traced_pass_s": [p.seconds for p in traced_passes],
                  "counts_repeat": all(_counts(x) == _counts(layers[0])
                                       for x in layers),
                  "module_self_share": shares}
    else:
        wall_s = _median([p.corrected for p in passes])
        metrics = {
            "setup_s": _median(setup),
            "wall_s": wall_s,
            "items_per_s": passes[0].items / wall_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        detail = {"setup_samples": setup, "pass_median_s": _median(wall),
                  "fastest_probe_s": clock.fastest_probe}
    all_passes = passes + traced_passes
    attempted = sum(p.attempted for p in all_passes)
    failed = sum(p.failed for p in all_passes)
    problems = [x for p in all_passes for x in p.problems]
    info = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "argv": argvs[0] + ["--out", "<tmp>", "--force"],
        "runs_per_pass": len(argvs),
        "passes": len(passes),
        "pass_s": wall,
        **detail,
        f"{workload.item}_per_pass": passes[0].items,
        "fail_ratio": failed / attempted,
        "csv_sha256": hashlib.sha256(
            "\n".join(passes[0].digests).encode()).hexdigest(),
        "cli_seeds": [int(argvs[0][-1]), int(argvs[-1][-1])],
        "problems": problems[:20],
        "provenance": provenance(),
    }
    return metrics, attempted, failed, not problems, info


def spans_file(workload: Workload, seed: int) -> Path:
    """Where a traced run leaves its last traced pass's spans.

    Only the latest file of each workload is kept: the spans of one
    ``scaling`` pass take about 330 MB.
    """
    return OUT_ROOT / f"spans-{workload.name}-seed{seed}.csv"


def provenance() -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(ALLOWED_CPUS),
            "pinned_cpu": sorted(os.sched_getaffinity(0)), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit()}


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="ascii").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="ascii").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(
                encoding="ascii").splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    except OSError:
        pass
    return None


# ---------------------------------------------------------------------------
# command line


def run_one(args) -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import slesim

    if Path(slesim.__file__).resolve().parent != SRC / "slesim":
        print(f"run.py: imported slesim from {slesim.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    # One CPU for the program, the probes and the set-up children alike,
    # so that the probes see the speed of the core the program runs on.
    os.sched_setaffinity(0, {max(ALLOWED_CPUS)})
    OUT_ROOT.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_ROOT))
    try:
        metrics, attempted, failed, correct, info = measure(
            workload, args.seed, args.seconds, bool(args.trace), outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            OUT_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it
    units = {name: unit
             for name, unit, _ in (PER_LAYER if args.trace else END_TO_END)}
    print(f"{workload.name} seed {args.seed}: {info['passes']} passes, "
          f"fail_ratio {failed}/{attempted}, "
          + ", ".join(f"{k} {v:.6g} {units[k]}" for k, v in metrics.items()))
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter; one table, one JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, workload in WORKLOADS.items():
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        info = json.loads(lines[-2])["info"]
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            label = (f"{workload.item}_per_s" if key == "items_per_s"
                     else key)
            combined["metrics"][f"{name}.{label}"] = value
            print(f"{name:<11} {label:<45} {value['value']:>14.6g} "
                  f"{value['unit']}")
        print(f"{name:<11} {'fail_ratio':<45} {info['fail_ratio']:>14.6g} "
              f"({result['failed']}/{result['attempted']})")
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed, >= 0 (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measure for about this long (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "slesim" / "__init__.py").is_file():
        print(f"run.py: no slesim package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
