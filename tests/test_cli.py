"""Command line behavior: exit codes, files, determinism."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import slesim
from slesim.brownian import BrownianPath
from slesim.cli import _build_parser, main
from slesim.trace import build_trace


def run(*argv):
    return main(list(argv))


def _fresh_env():
    """Environment for a child interpreter that imports this package."""
    src = str(Path(slesim.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "trace" in capsys.readouterr().out


def test_unknown_subcommand_exits_one(capsys):
    assert run("transmogrify") == 1


def test_unknown_flag_exits_one(capsys):
    assert run("scaling", "--what") == 1


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    # one process, three runs: a bad flag between two valid runs, the
    # last relying on defaults the first overrode; each one exits, prints
    # and writes what it does in a fresh interpreter
    assert _build_parser() is _build_parser()
    runs = [["integrals", "--n", "4", "--r", "1", "--seed", "3"],
            ["integrals", "--n", "4", "--what"],
            ["integrals", "--r", "1"]]
    for k, argv in enumerate(runs):
        here, alone = tmp_path / f"here{k}", tmp_path / f"alone{k}"
        code = run(*argv, "--out", str(here))
        out, err = capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-m", "slesim.cli", *argv, "--out", str(alone)],
            capture_output=True, text=True, env=_fresh_env())
        assert code == proc.returncode == (1 if k == 1 else 0)
        assert err == proc.stderr
        assert out.replace(str(here), str(alone)) == proc.stdout
        assert here.exists() == alone.exists() == (k != 1)
        if k != 1:
            assert ((here / "integrals.csv").read_bytes()
                    == (alone / "integrals.csv").read_bytes())
            config = [json.loads((d / "integrals.json").read_text())["config"]
                      for d in (here, alone)]
            assert config[0] == config[1]


@pytest.mark.parametrize("argv", [
    ["trace", "--kappa", "2", "--threads", "2"],
    ["scaling", "--threads", "2"],
    ["divergence", "--threads", "2"],
    ["moments", "--threads", "2"],
    ["compare", "--threads", "2"],
    ["taylor-terms", "--r", "1", "--threads", "2"],
    ["integrals", "--threads", "2"],
    ["taylor-terms", "--r", "1", "--seed", "3"],
    ["trace", "--kappa", "6", "--max-depth", "2"],
], ids=lambda argv: f"{argv[0]}-{argv[-2].lstrip('-')}")
def test_flags_that_would_do_nothing_are_refused(argv, tmp_path, capsys):
    # every run is serial, taylor-terms draws nothing, and a trace
    # bisects until the float64 resolution of its horizon
    out = tmp_path / "new"
    assert run(*argv, "--out", str(out)) == 1
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not out.exists()


def test_missing_required_flag_exits_one(capsys):
    assert run("trace") == 1
    assert "kappa" in capsys.readouterr().err


def test_trace_writes_three_files(tmp_path, capsys):
    code = run("trace", "--kappa", "2.5", "--n-init", "8",
               "--tolerance", "0.2", "--out", str(tmp_path))
    assert code == 0
    csv = (tmp_path / "trace.csv").read_text()
    svg = (tmp_path / "trace.svg").read_text()
    payload = json.loads((tmp_path / "trace.json").read_text())
    lines = csv.splitlines()
    assert lines[0] == "t,re,im" and lines[1] == "0.0,0.0,0.0"
    # repr round-trip: parsing the rows reproduces every point exactly
    result = build_trace(BrownianPath.sample_uniform(1.0, 8, 0), 1.0, 2.5,
                         tolerance=0.2)
    assert [(float(t), complex(float(re), float(im)))
            for t, re, im in (line.split(",") for line in lines[1:])] \
        == result.points
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert payload["config"]["kappa"] == 2.5
    assert "threads" not in payload["config"]
    assert payload["stats"]["points"] == len(lines) - 1
    assert payload["stats"]["map_evaluations"] > 0
    # wall-clock data stays out of the replayable outputs
    assert "created" not in csv and "created" not in svg
    assert "created_unix" in payload


def test_every_sidecar_has_the_same_keys(tmp_path, capsys):
    tiny = {
        "trace": ["--kappa", "2", "--n-init", "4", "--tolerance", "0.5"],
        "scaling": ["--replicas", "4", "--substeps", "8",
                    "--eps", "0.25", "0.125", "0.0625"],
        "divergence": ["--replicas", "4", "--resolution", "8",
                       "--words", "0"],
        "moments": ["--replicas", "4", "--steps", "2"],
        # some seeds at this config do not settle (see
        # test_unsettled_reference_exits_two); seed 1 does
        "compare": ["--replicas", "2", "--substeps", "8", "--seed", "1"],
        "taylor-terms": ["--r", "1"],
        "integrals": ["--n", "4", "--r", "1"],
    }
    keys = {"name", "seed", "config", "fit", "stats", "runtime_seconds",
            "created_unix"}
    stats = {
        "trace": {"points", "refinement_depth_max", "map_evaluations",
                  "chain_map_applications", "complex_roots"},
        "scaling": {"reference_doublings"},
        "compare": {"reference_doublings"},
        "moments": {"complex_roots"},
        "divergence": set(),
        "taylor-terms": set(),
        "integrals": set(),
    }
    for command, argv in tiny.items():
        name = command.replace("-", "_")
        assert run(command, *argv, "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / f"{name}.json").read_text())
        assert set(payload) == keys, command
        assert (payload["fit"] is not None) == (command == "scaling")
        assert set(payload["stats"]) == stats[command], command
    rows = (tmp_path / "trace.csv").read_text().count("\n") - 1
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["stats"]["points"] == rows


@pytest.mark.parametrize("argv", [
    ["moments", "--kappa", "nan", "--replicas", "100", "--steps", "2"],
    ["moments", "--z0-im", "nan", "--replicas", "100", "--steps", "2"],
    ["trace", "--kappa", "2", "--tolerance", "nan"],
    ["trace", "--kappa", "nan"],
    ["scaling", "--eps", "0.25", "inf", "--replicas", "2"],
], ids=["moments-kappa", "moments-z0", "trace-tolerance", "trace-kappa",
        "scaling-eps"])
def test_non_finite_float_flag_exits_one(argv, tmp_path, capsys):
    assert run(*argv, "--out", str(tmp_path)) == 1
    assert "finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_package_exports_every_module_export():
    names = ["__version__"]
    for info in pkgutil.iter_modules(slesim.__path__):
        if info.name != "cli":  # the front end; only ``main``
            module = importlib.import_module(f"slesim.{info.name}")
            names += module.__all__
    assert sorted(slesim.__all__) == sorted(names)


def test_overwrite_needs_force(tmp_path, capsys):
    args = ("taylor-terms", "--r", "2", "--out", str(tmp_path))
    assert run(*args) == 0
    assert run(*args) == 1
    assert "--force" in capsys.readouterr().err
    assert run(*args, "--force") == 0


def test_out_that_is_a_file_exits_one_before_work(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    # level 13 is refused by the run itself; the path check comes first
    assert run("taylor-terms", "--r", "13", "--out", str(blocker)) == 1
    assert "not a directory" in capsys.readouterr().err
    assert blocker.read_text() == "keep"


def test_out_dir_from_environment(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SLESIM_OUT", str(tmp_path / "nested" / "dir"))
    assert run("taylor-terms", "--r", "1") == 0
    assert (tmp_path / "nested" / "dir" / "taylor_terms.csv").exists()


def test_taylor_terms_row_count(tmp_path):
    assert run("taylor-terms", "--r", "5", "--out", str(tmp_path)) == 0
    lines = (tmp_path / "taylor_terms.csv").read_text().splitlines()
    assert lines[0] == "word,coeff_num,coeff_den,a_power,z_power"
    assert len(lines) == 2 ** 5 + 1


def test_taylor_terms_rejects_negative_level(tmp_path, capsys):
    assert run("taylor-terms", "--r", "-2", "--out", str(tmp_path)) == 1


def test_taylor_terms_above_cap_writes_nothing(tmp_path, capsys):
    out = tmp_path / "new" / "dir"
    assert run("taylor-terms", "--r", "13", "--out", str(out)) == 1
    assert "above cap" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()  # not even the directory
    # no partial file is left behind to block the next run
    assert run("taylor-terms", "--r", "3", "--out", str(out)) == 0


def test_integrals_table_satisfies_shuffle(tmp_path):
    assert run("integrals", "--r", "2", "--n", "64", "--seed", "5",
               "--out", str(tmp_path)) == 0
    rows = {}
    lines = (tmp_path / "integrals.csv").read_text().splitlines()
    assert lines[0] == "word,value"
    for line in lines[1:]:
        word, value = line.split(",")
        rows[word] = float(value)
    lhs = rows["0"] * rows["1"]
    assert abs(lhs - (rows["01"] + rows["10"])) <= 1e-12 * max(1.0, abs(lhs))


def test_numerical_failure_exits_two(tmp_path, capsys):
    # seed 28 at the README configuration: an interval 46 bisections deep
    # reaches the float64 resolution of T = 1 with its gap above the
    # tolerance
    code = run("trace", "--kappa", "6", "--tolerance", "0.02",
               "--seed", "28", "--out", str(tmp_path))
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert ("interval (0.2850462914859617, 0.28504629148596194)" in err
            and "after 46 bisections" in err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    # an estimate underflows to 0 before log(est[0] / est[1])
    ["divergence", "--replicas", "3", "--kappa", "1e300"],
    ["divergence", "--replicas", "2", "--eps", "1e-100"],
    # a ** j of the Taylor coefficient overflows a Python float
    ["divergence", "--replicas", "3", "--kappa", "1e-300"],
    ["scaling", "--replicas", "2", "--kappa", "1e-300"],
    ["compare", "--replicas", "2", "--kappa", "1e-300"],
    # a = 2 / kappa itself is inf
    ["divergence", "--replicas", "3", "--kappa", "5e-324"],
    ["scaling", "--replicas", "2", "--kappa", "5e-324"],
    ["compare", "--replicas", "2", "--kappa", "5e-324"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:1] + argv[3:]))
def test_float_overflow_or_underflow_exits_two(tmp_path, capsys, argv):
    # these runs used to end in an uncaught OverflowError or
    # ZeroDivisionError, a traceback and exit status 1 (at kappa 5e-324,
    # in exit 0 and inf rows, or in a reference "still moving by nan");
    # the message names the parameter whose value failed
    out = tmp_path / "new"
    assert run(*argv, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("slesim: numerical failure: ")
    flag = argv[-2].lstrip("-")
    assert f"{flag} = {float(argv[-1])!r}" in err
    assert not out.exists()


def test_unsettled_reference_exits_two(tmp_path, capsys):
    # about 1% of seeds at this small config leave a reference still
    # moving after every doubling; seed 154 is one, with no monkeypatching
    out = tmp_path / "new"
    assert run("compare", "--replicas", "2", "--substeps", "8",
               "--seed", "154", "--out", str(out)) == 2
    assert "numerical failure: reference still moving" in \
        capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["scaling", "compare"])
def test_reference_doublings_in_sidecar(tmp_path, command):
    # the per-row histogram is deterministic and leaves the CSV alone
    for sub in ("a", "b"):
        assert run(command, "--replicas", "30", "--seed", "4",
                   "--out", str(tmp_path / sub)) == 0
    a, b = ((tmp_path / sub / f"{command}.json") for sub in ("a", "b"))
    stats = json.loads(a.read_text())["stats"]
    assert stats == json.loads(b.read_text())["stats"]
    rows = (tmp_path / "a" / f"{command}.csv").read_text().splitlines()[1:]
    assert len(stats["reference_doublings"]) == len(rows)
    assert all(sum(counts) == 30 for counts in stats["reference_doublings"])
    assert ((tmp_path / "a" / f"{command}.csv").read_bytes()
            == (tmp_path / "b" / f"{command}.csv").read_bytes())


def test_moments_deterministic_bytes(tmp_path):
    for sub in ("a", "b"):
        assert run("moments", "--replicas", "300", "--steps", "4",
                   "--seed", "21", "--out", str(tmp_path / sub)) == 0
    a = (tmp_path / "a" / "moments.csv").read_bytes()
    b = (tmp_path / "b" / "moments.csv").read_bytes()
    assert a == b
    assert run("moments", "--replicas", "300", "--steps", "4",
               "--seed", "22", "--out", str(tmp_path / "c")) == 0
    assert (tmp_path / "c" / "moments.csv").read_bytes() != a


def test_moments_bytes_repeat_with_a_short_last_block(tmp_path):
    # 8197 replicas: one full block of replicas and a last block of 5
    for sub in ("a", "b"):
        assert run("moments", "--replicas", "8197", "--steps", "4",
                   "--seed", "5", "--out", str(tmp_path / sub)) == 0
    assert ((tmp_path / "a" / "moments.csv").read_bytes()
            == (tmp_path / "b" / "moments.csv").read_bytes())


def test_moments_sidecar_counts_complex_roots(tmp_path):
    # one root per lane and step, the same on every run and seed
    for sub, seed in (("a", "21"), ("b", "21"), ("c", "22")):
        assert run("moments", "--replicas", "300", "--steps", "4",
                   "--seed", seed, "--out", str(tmp_path / sub)) == 0
        payload = json.loads((tmp_path / sub / "moments.json").read_text())
        assert payload["stats"] == {"complex_roots": 4 * 300}
    assert ((tmp_path / "a" / "moments.csv").read_bytes()
            == (tmp_path / "b" / "moments.csv").read_bytes())


def test_import_leaves_out_the_executor():
    # replicas run in one serial loop; importing the package must not
    # pull in concurrent.futures
    code = ("import sys, slesim; print(sorted(m for m in sys.modules "
            "if m.startswith('concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=_fresh_env(), check=True)
    assert proc.stdout.strip() == "[]"


def test_scaling_sidecar_carries_fit(tmp_path):
    assert run("scaling", "--replicas", "20", "--substeps", "32",
               "--eps", "0.125", "0.0625", "0.03125",
               "--out", str(tmp_path)) == 0
    payload = json.loads((tmp_path / "scaling.json").read_text())
    assert set(payload["fit"]) == {"slope", "intercept", "r2"}
    assert payload["config"]["replicas"] == 20


def test_compare_uses_default_horizon_ladder(tmp_path):
    assert run("compare", "--replicas", "20", "--substeps", "32",
               "--eps", "0.03125", "--out", str(tmp_path)) == 0
    lines = (tmp_path / "compare.csv").read_text().splitlines()
    assert len(lines) == 5  # header + four default horizons
    horizons = [float(line.split(",")[0]) for line in lines[1:]]
    assert horizons == sorted(horizons)
    assert horizons[0] == 0.03125 ** 2.5


@pytest.mark.parametrize("command", ["scaling", "compare"])
def test_nonpositive_kappa_exits_one(command, tmp_path, capsys):
    out = tmp_path / "new" / "dir"
    assert run(command, "--kappa", "0", "--replicas", "2",
               "--out", str(out)) == 1
    assert "kappa" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_single_replica_scaling_exits_one(tmp_path, capsys):
    # one replica has a standard error of 0, which reads as exact
    out = tmp_path / "new" / "dir"
    assert run("scaling", "--replicas", "1", "--eps", "0.25", "0.125",
               "--substeps", "8", "--out", str(out)) == 1
    assert "replicas" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_repeated_scaling_eps_exits_one(tmp_path, capsys):
    out = tmp_path / "new" / "dir"
    assert run("scaling", "--eps", "0.25", "0.25", "0.25", "--replicas", "4",
               "--substeps", "8", "--out", str(out)) == 1
    assert "distinct" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()


def test_all_vanishing_divergence_words_exit_one(tmp_path, capsys):
    # the run used to fail only at the CSV write, after making the directory
    out = tmp_path / "new" / "nested"
    assert run("divergence", "--words", "01", "11", "--out", str(out)) == 1
    assert "vanishes" in capsys.readouterr().err
    assert not (tmp_path / "new").exists()
