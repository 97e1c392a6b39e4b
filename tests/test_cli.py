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
from slesim.cli import main
from slesim.trace import build_trace


def run(*argv):
    return main(list(argv))


def test_help_exits_zero(capsys):
    assert run("--help") == 0
    assert "trace" in capsys.readouterr().out


def test_unknown_subcommand_exits_one(capsys):
    assert run("transmogrify") == 1


def test_unknown_flag_exits_one(capsys):
    assert run("scaling", "--what") == 1


def test_missing_required_flag_exits_one(capsys):
    assert run("trace") == 1
    assert "kappa" in capsys.readouterr().err


def test_trace_writes_three_files(tmp_path, capsys):
    code = run("trace", "--kappa", "2.5", "--n-init", "8",
               "--tolerance", "0.2", "--threads", "3", "--out", str(tmp_path))
    assert code == 0
    csv = (tmp_path / "trace.csv").read_text()
    svg = (tmp_path / "trace.svg").read_text()
    payload = json.loads((tmp_path / "trace.json").read_text())
    lines = csv.splitlines()
    assert lines[0] == "t,re,im" and lines[1] == "0.0,0.0,0.0"
    # repr round-trip: parsing the rows reproduces every point exactly
    result = build_trace(BrownianPath.sample_uniform(1.0, 8, 0), 1.0, 2.5,
                         n_init=8, tolerance=0.2)
    assert [(float(t), complex(float(re), float(im)))
            for t, re, im in (line.split(",") for line in lines[1:])] \
        == result.points
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert payload["config"]["kappa"] == 2.5
    assert payload["config"]["threads"] == 3  # accepted, echoed, ignored
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
        "compare": ["--replicas", "2", "--substeps", "8"],
        "taylor-terms": ["--r", "1"],
        "integrals": ["--n", "4", "--r", "1"],
    }
    keys = {"name", "seed", "config", "fit", "stats", "runtime_seconds",
            "created_unix"}
    for command, argv in tiny.items():
        name = command.replace("-", "_")
        assert run(command, *argv, "--out", str(tmp_path)) == 0
        payload = json.loads((tmp_path / f"{name}.json").read_text())
        assert set(payload) == keys, command
        assert (payload["fit"] is not None) == (command == "scaling")
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
    code = run("trace", "--kappa", "6", "--n-init", "4",
               "--tolerance", "1e-5", "--max-depth", "2",
               "--out", str(tmp_path))
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


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


def test_threads_flag_does_not_change_bytes(tmp_path):
    for sub, threads in (("t1", "1"), ("t8", "8")):
        assert run("divergence", "--replicas", "40", "--resolution", "32",
                   "--words", "0", "10", "--seed", "3",
                   "--threads", threads,
                   "--out", str(tmp_path / sub)) == 0
    assert ((tmp_path / "t1" / "divergence.csv").read_bytes()
            == (tmp_path / "t8" / "divergence.csv").read_bytes())


def test_import_leaves_out_the_executor():
    # replicas run in one serial loop; importing the package must not
    # pull in concurrent.futures
    src = str(Path(slesim.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, slesim; print(sorted(m for m in sys.modules "
            "if m.startswith('concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, check=True)
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
