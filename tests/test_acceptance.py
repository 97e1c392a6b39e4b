"""Acceptance gates for the whole toolkit, one test per claim.

Every test here runs the full stated sample size and tolerance; the
module tests elsewhere cover the same ground faster and finer-grained.
Each test finishes by printing one PASS line (visible with -s or in the
captured block of a failure).
"""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slesim
from slesim.brownian import BrownianPath
from slesim.experiments import (divergence_probe, epsilon_scaling,
                                moment_preservation)
from slesim.integrals import compute_table, iterated_integral
from slesim.schemes import flow_drift, flow_noise, nv_step
from slesim.trace import build_trace
from slesim.vfalgebra import compose, deg, enumerate_level, eval_term

KAPPAS = (2.0, 8.0 / 3.0, 4.0, 6.0)


def _ok(n, text):
    print(f"PASS criterion {n}: {text}")


def test_criterion_1_splitting_identity():
    # 10^5 random tuples: the closed form equals drift(h/2) then noise
    # then drift(h/2) to 1e-12 relative (it is in fact bitwise equal)
    rng = np.random.default_rng(2026)
    per_kappa = 25000
    worst = 0.0
    for kappa in KAPPAS:
        zs = rng.uniform(-10, 10, per_kappa) + 1j * rng.uniform(
            1e-6, 10, per_kappa)
        hs = rng.uniform(0.0, 1.0, per_kappa)
        dBs = rng.uniform(-3.0, 3.0, per_kappa)
        for z, h, dB in zip(zs.tolist(), hs.tolist(), dBs.tolist()):
            direct = nv_step(z, h, dB, kappa)
            chained = flow_drift(flow_noise(flow_drift(z, h / 2), dB,
                                            kappa), h / 2)
            rel = abs(direct - chained) / max(abs(chained), 1e-300)
            worst = max(worst, rel)
    assert worst <= 1e-12, worst
    _ok(1, f"splitting identity, 100000 samples, max rel err {worst:.3g}")


def test_criterion_2_second_moment_transport():
    # kappa=2 from i over 16 uniform steps to T=1, 10^5 replicas: the
    # sample mean of Z^2 stays within 4 standard errors of
    # z0^2 + (kappa-4) t at every grid time, ending at -3
    report = moment_preservation(2.0, 1j, 1.0, 16, 100000, seed=0)
    assert len(report.rows) == 16
    worst = max(row["deviation_se"] for row in report.rows)
    assert worst <= 4.0, worst
    assert report.rows[-1]["target_re"] == -3.0
    assert report.rows[-1]["target_im"] == 0.0
    _ok(2, f"second moment within {worst:.2f} SE at all 16 times, "
           "target -3 at T=1")


def test_criterion_3_epsilon_scaling():
    # level-2 Taylor error over horizon eps^2.5 from i*eps, eps = 2^-3
    # .. 2^-7, 1000 replicas each: log-log slope >= 0.9 with r^2 >= 0.98
    eps = [2.0 ** -k for k in range(3, 8)]
    report = epsilon_scaling(eps, 0.5, 2, 2.0, 1000, seed=0, substeps=128)
    slope, _, r2 = report.fit
    assert slope >= 0.9, report.fit
    assert r2 >= 0.98, report.fit
    _ok(3, f"short-horizon error scaling: slope {slope:.3f}, r2 {r2:.5f}")


def test_criterion_4_long_horizon_divergence():
    # at horizon eps^1.5 (eps = 2^-6) each nonzero word up to length 4
    # scales like eps^(1 - deg/2): measured exponents within 0.1 of
    # theory, magnitudes strictly increasing in the degree
    words = [(1,), (0,), (1, 0), (0, 0), (1, 0, 0), (0, 0, 0),
             (1, 0, 0, 0), (0, 0, 0, 0)]
    report = divergence_probe(2.0 ** -6, 0.5, words, 10000, seed=0,
                              resolution=256)
    assert len(report.rows) == len(words)
    worst = 0.0
    for row in report.rows:
        gap = abs(row["exponent"] - row["theory_exponent"])
        worst = max(worst, gap)
        assert gap <= 0.1, row
    est = [row["estimate"] for row in report.rows]
    degs = [row["deg"] for row in report.rows]
    assert degs == sorted(degs)
    assert all(a < b for a, b in zip(est, est[1:])), est
    _ok(4, f"divergence ladder: worst exponent gap {worst:.3f}, "
           "magnitudes increasing over degrees 0.5 .. 4")


_STENCIL = [(-3, -1.0 / 60.0), (-2, 3.0 / 20.0), (-1, -3.0 / 4.0),
            (1, 3.0 / 4.0), (2, -3.0 / 20.0), (3, 1.0 / 60.0)]
_H = 0.03


def _operator_chain(word, kappa):
    a = 2.0 / kappa
    f = lambda z: z
    for letter in reversed(word):
        g = f

        def df(z, g=g):
            return sum(c * g(z + k * _H) for k, c in _STENCIL) / _H

        if letter == 1:
            f = df
        else:
            f = (lambda d: lambda z: (-a / z) * d(z))(df)
    return f


def test_criterion_5_word_algebra():
    # enumeration size and the z-power law up to length 10; numerical
    # operator application agrees to 1e-6 relative up to length 4
    for r in range(11):
        table = enumerate_level(r)
        assert len(table) == 2 ** r
        for word, term in table:
            if term.is_zero():
                continue
            m = sum(1 for x in word if x == 0)
            n = len(word) - m
            assert term.z_power == 1 - 2 * m - n
    rng = np.random.default_rng(7)
    points = []
    while len(points) < 5:
        z = complex(rng.uniform(-4, 4), rng.uniform(0.2, 4))
        if abs(z) >= 2.5:
            points.append(z)
    worst = 0.0
    for kappa in (2.0, 8.0 / 3.0):
        for r in range(1, 5):
            for word in itertools.product((0, 1), repeat=r):
                t = compose(word)
                chain = _operator_chain(word, kappa)
                for z in points:
                    numeric = chain(z)
                    exact = eval_term(t, z, kappa)
                    if t.is_zero():
                        assert abs(numeric) <= 1e-6, (word, z)
                    else:
                        rel = abs(numeric - exact) / abs(exact)
                        worst = max(worst, rel)
                        assert rel <= 1e-6, (word, z, kappa, rel)
    _ok(5, f"2^r enumeration to r=10, z-power law, derivative oracle "
           f"worst rel err {worst:.2g}")


def test_criterion_6_integral_identities_and_scaling():
    # pathwise algebra at machine precision, then the L^2 exponents of
    # (0), (1), (0,1) from 10^4 independent replicas per horizon
    for seed in range(5):
        path = BrownianPath.sample_uniform(1.0, 128, seed=seed)
        tab = compute_table(path, 1.0, 2)
        lhs = tab.entries[(0,)] * tab.entries[(1,)]
        rhs = tab.entries[(0, 1)] + tab.entries[(1, 0)]
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        assert abs(tab.entries[(0, 0)] - 0.5) <= 1e-12
        b = path.value_at(1.0)
        assert abs(tab.entries[(1, 1)] - 0.5 * b * b) <= 1e-12

    t, replicas, resolution = 1.0 / 16.0, 10000, 64
    worst = 0.0
    for w_idx, word in enumerate([(0,), (1,), (0, 1)]):
        sq = {}
        for h_idx, (tag, horizon) in enumerate((("t", t), ("one", 1.0))):
            samples = np.empty(replicas)
            base = 1000 * (w_idx + 1) + h_idx  # fixed, independent streams
            for i in range(replicas):
                path = BrownianPath.sample_uniform(horizon, resolution,
                                                   base * replicas + i)
                samples[i] = iterated_integral(path, horizon, word)
            sq[tag] = np.square(samples)
        norm_t, norm_1 = math.sqrt(sq["t"].mean()), math.sqrt(sq["one"].mean())
        expo = math.log(norm_t / norm_1) / math.log(t)
        rel_se_t = sq["t"].std() / sq["t"].mean() / math.sqrt(replicas) / 2.0
        rel_se_1 = (sq["one"].std() / sq["one"].mean()
                    / math.sqrt(replicas) / 2.0)
        se = math.sqrt(rel_se_t ** 2 + rel_se_1 ** 2) / abs(math.log(t))
        gap = abs(expo - float(deg(word)))
        # the all-drift word is deterministic: se and gap are both zero
        worst = max(worst, gap / se if se > 0.0 else 0.0)
        assert gap <= 3.0 * se, (word, expo, se)
    _ok(6, f"shuffle and closed forms at 1e-12; L2 exponents within "
           f"{worst:.2f} SE of deg at 10^4 replicas")


def test_criterion_7_trace_construction():
    # flat driver: the trace is 2i sqrt(t) to 1e-10 everywhere
    flat = BrownianPath.zeros(1.0, 64)
    result = build_trace(flat, 1.0, kappa=2.0, tolerance=0.1)
    worst = max(abs(z - 2j * math.sqrt(t)) for t, z in result.points)
    assert worst <= 1e-10, worst

    # seeded drivers at the two classical roughness levels
    counts = {}
    for kappa in (8.0 / 3.0, 6.0):
        per_tol = []
        for tolerance in (0.1, 0.05, 0.025):
            path = BrownianPath.sample_uniform(1.0, 32, seed=2026)
            res = build_trace(path, 1.0, kappa=kappa, tolerance=tolerance)
            zs = [z for _, z in res.points]
            assert max(abs(b - a) for a, b in zip(zs, zs[1:])) < tolerance
            assert min(z.imag for z in zs) >= 0.0
            per_tol.append(len(res))
        assert per_tol[0] < per_tol[1] < per_tol[2], (kappa, per_tol)
        counts[kappa] = per_tol
    # the rougher trace needs more points at every common tolerance
    assert all(counts[6.0][i] > counts[8.0 / 3.0][i] for i in range(3))
    _ok(7, f"traces: flat within {worst:.2g}, counts {counts[8.0/3.0]} "
           f"(kappa 8/3) vs {counts[6.0]} (kappa 6)")


def _cli(out_dir, *args, hash_seed):
    # the child imports the same slesim as this process, installed or not,
    # and salts its str hashes with hash_seed
    src = str(Path(slesim.__file__).parents[1])
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed),
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "slesim.cli", *args, "--out", str(out_dir)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_criterion_8_cli_byte_determinism(tmp_path):
    # every subcommand, fixed seed, run in two fresh interpreters whose
    # str hashes differ (PYTHONHASHSEED 0 and 1), so no output may hang
    # on set or dict order of strings: all CSV outputs must be
    # byte-identical (the trace SVG is held to the same bar since it
    # derives from the same points)
    runs = {
        "trace": ["trace", "--kappa", "2.6666666666666665", "--n-init",
                  "16", "--tolerance", "0.1", "--seed", "11"],
        "scaling": ["scaling", "--replicas", "25", "--substeps", "32",
                    "--eps", "0.125", "0.0625", "0.03125", "--seed", "11"],
        "divergence": ["divergence", "--replicas", "50", "--resolution",
                       "64", "--seed", "11"],
        "moments": ["moments", "--replicas", "2000", "--steps", "8",
                    "--seed", "11"],
        "compare": ["compare", "--replicas", "25", "--substeps", "32",
                    "--eps", "0.03125", "--seed", "11"],
        "taylor-terms": ["taylor-terms", "--r", "6"],
        "integrals": ["integrals", "--n", "128", "--r", "3", "--seed",
                      "11"],
    }
    checked = 0
    for name, args in runs.items():
        h0 = tmp_path / name / "h0"
        h1 = tmp_path / name / "h1"
        _cli(h0, *args, hash_seed=0)
        _cli(h1, *args, hash_seed=1)
        for produced in sorted(h0.iterdir()):
            if produced.suffix == ".json":
                continue  # sidecars intentionally carry wall-clock times
            twin = h1 / produced.name
            assert produced.read_bytes() == twin.read_bytes(), produced
            checked += 1
    assert checked >= 8
    _ok(8, f"{checked} output files byte-identical across PYTHONHASHSEED "
           "0 vs 1")
