"""Command line front end.

Subcommands map one-to-one onto the library: ``trace`` builds and renders
an adaptive trace, ``scaling``/``divergence``/``moments``/``compare`` run
the Monte Carlo experiments, ``taylor-terms`` and ``integrals`` dump the
symbolic operator table and an iterated-integral table.  Every subcommand
writes ``<name>.csv``, with deterministic bytes for fixed seed and config,
plus a ``<name>.json`` sidecar with the full config, run diagnostics and
the only wall-clock metadata; ``trace`` also writes ``trace.svg``.  Every
float flag must be finite.  Every run is serial: ``--threads`` is
accepted on every subcommand and ignored.

Exit codes: 0 success, 1 validation error (bad flags, existing outputs
without --force), 2 numerical failure (a trace interval still too coarse
after its bisection budget or at the float64 limit of time, a reference
that did not converge).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from pathlib import Path

from . import experiments as ex
from .brownian import BrownianPath
from .integrals import compute_table
from .trace import TraceRefinementError, build_trace, render_svg
from .vfalgebra import enumerate_level, format_word, parse_word

__all__ = ["main"]

ENV_OUT = "SLESIM_OUT"

DEFAULT_EPS = [2.0 ** -k for k in range(3, 8)]
DEFAULT_WORDS = ["1", "0", "10", "00", "100", "000", "1000", "0000"]


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; flag problems are validation
    # errors here, so remap them to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"expected a finite number, got {text!r}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="slesim",
                     description="Splitting schemes, stochastic Taylor "
                                 "expansions, and traces for backward "
                                 "Loewner evolutions.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    def common(p):
        p.add_argument("--seed", type=int, default=0,
                       help="stream key (default 0)")
        p.add_argument("--out", default=None,
                       help=f"output directory (default ${ENV_OUT} or .)")
        p.add_argument("--force", action="store_true",
                       help="overwrite existing outputs")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted and ignored; every run is serial "
                            "(default 1)")

    p = sub.add_parser("trace", help="adaptively refined trace plus SVG")
    p.add_argument("--kappa", type=_finite, required=True)
    p.add_argument("--T", type=_finite, default=1.0, dest="horizon")
    p.add_argument("--n-init", type=int, default=64)
    p.add_argument("--tolerance", type=_finite, default=0.02)
    p.add_argument("--max-depth", type=int, default=40)
    p.add_argument("--shift", action="store_true",
                   help="translate by sqrt(kappa) B(T)")
    common(p)

    p = sub.add_parser("scaling", help="Taylor error vs eps at short horizon")
    p.add_argument("--eps", type=_finite, nargs="+", default=DEFAULT_EPS)
    p.add_argument("--delta", type=_finite, default=0.5)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--kappa", type=_finite, default=2.0)
    p.add_argument("--replicas", type=int, default=1000)
    p.add_argument("--substeps", type=int, default=128)
    common(p)

    p = sub.add_parser("divergence",
                       help="Taylor-term magnitudes at long horizon")
    p.add_argument("--eps", type=_finite, default=2.0 ** -6)
    p.add_argument("--delta", type=_finite, default=0.5)
    p.add_argument("--words", nargs="+", default=DEFAULT_WORDS,
                   help="digit strings like 0 1 10 00")
    p.add_argument("--kappa", type=_finite, default=2.0)
    p.add_argument("--replicas", type=int, default=10000)
    p.add_argument("--resolution", type=int, default=256)
    common(p)

    p = sub.add_parser("moments", help="second moment under splitting steps")
    p.add_argument("--kappa", type=_finite, default=2.0)
    p.add_argument("--z0-re", type=_finite, default=0.0)
    p.add_argument("--z0-im", type=_finite, default=1.0)
    p.add_argument("--T", type=_finite, default=1.0, dest="horizon")
    p.add_argument("--steps", type=int, default=16)
    p.add_argument("--replicas", type=int, default=100000)
    common(p)

    p = sub.add_parser("compare", help="one-step errors of all schemes")
    p.add_argument("--kappa", type=_finite, default=2.0)
    p.add_argument("--eps", type=_finite, default=2.0 ** -6)
    p.add_argument("--horizons", type=_finite, nargs="+", default=None,
                   help="default: eps^2.5 eps^2.25 eps^2 eps^1.75")
    p.add_argument("--replicas", type=int, default=1000)
    p.add_argument("--substeps", type=int, default=128)
    common(p)

    p = sub.add_parser("taylor-terms", help="symbolic operator monomials")
    p.add_argument("--r", type=int, required=True, help="word length")
    common(p)

    p = sub.add_parser("integrals", help="iterated-integral table dump")
    p.add_argument("--T", type=_finite, default=1.0, dest="horizon")
    p.add_argument("--n", type=int, default=256, help="driver resolution")
    p.add_argument("--r", type=int, default=3, help="maximum word length")
    common(p)

    return parser


def _targets(args, *names) -> list[Path]:
    out = Path(args.out if args.out is not None
               else os.environ.get(ENV_OUT, "."))
    if out.exists() and not out.is_dir():
        raise ValueError(f"output path {out} is not a directory")
    paths = [out / name for name in names]
    if not args.force:
        clashes = [str(p) for p in paths if p.exists()]
        if clashes:
            raise ValueError("refusing to overwrite " + ", ".join(clashes)
                             + " (pass --force)")
    return paths


def _run_report(args, name: str, runner, *extras: str) -> int:
    # every output name is checked before any work, and the directory is
    # made only once ``runner`` has returned, so a rejected run leaves
    # nothing; ``runner`` returns the report, then one text per extra
    csv_path, json_path, *extra_paths = _targets(
        args, f"{name}.csv", f"{name}.json", *extras)
    started = time.perf_counter()
    report, *texts = runner()
    csv_path.parent.mkdir(parents=True, exist_ok=True)
    for path, text in zip(extra_paths, texts):
        path.write_text(text, encoding="ascii")
    ex.write_report_csv(report, csv_path)
    ex.write_report_sidecar(report, json_path,
                            time.perf_counter() - started)
    line = f"{report.name}: {len(report.rows)} rows, wrote {csv_path}"
    if report.fit is not None:
        line += f" (slope {report.fit[0]:.3f}, r2 {report.fit[2]:.4f})"
    print(line)
    return 0


def _cmd_trace(args) -> int:
    def runner():
        path = BrownianPath.sample_uniform(args.horizon, args.n_init,
                                           args.seed)
        result = build_trace(path, args.horizon, args.kappa,
                             n_init=args.n_init, tolerance=args.tolerance,
                             max_depth=args.max_depth,
                             apply_shift=args.shift)
        rows = [{"t": t, "re": z.real, "im": z.imag}
                for t, z in result.points]
        config = {"kappa": args.kappa, "T": args.horizon,
                  "n_init": args.n_init, "tolerance": args.tolerance,
                  "max_depth": args.max_depth, "shift": args.shift,
                  "threads": args.threads}
        report = ex.ExperimentReport("trace", rows, None, config, args.seed,
                                     {"points": len(rows), **result.stats})
        return report, render_svg(result)
    return _run_report(args, "trace", runner, "trace.svg")


def _cmd_scaling(args) -> int:
    return _run_report(args, "scaling", lambda: (ex.epsilon_scaling(
        args.eps, args.delta, args.r, args.kappa, args.replicas, args.seed,
        substeps=args.substeps),))


def _cmd_divergence(args) -> int:
    words = [parse_word(w) for w in args.words]
    return _run_report(args, "divergence", lambda: (ex.divergence_probe(
        args.eps, args.delta, words, args.replicas, args.seed,
        kappa=args.kappa, resolution=args.resolution),))


def _cmd_moments(args) -> int:
    z0 = complex(args.z0_re, args.z0_im)
    return _run_report(args, "moments", lambda: (ex.moment_preservation(
        args.kappa, z0, args.horizon, args.steps, args.replicas,
        args.seed),))


def _cmd_compare(args) -> int:
    horizons = args.horizons
    if horizons is None:
        horizons = [args.eps ** p for p in (2.5, 2.25, 2.0, 1.75)]
    return _run_report(args, "compare", lambda: (ex.scheme_comparison(
        args.kappa, args.eps, horizons, args.replicas, args.seed,
        substeps=args.substeps),))


def _cmd_taylor_terms(args) -> int:
    def runner():
        rows = [{"word": format_word(word),
                 "coeff_num": term.coeff.numerator,
                 "coeff_den": term.coeff.denominator,
                 "a_power": term.a_power, "z_power": term.z_power}
                for word, term in enumerate_level(args.r)]
        return ex.ExperimentReport("taylor_terms", rows, None,
                                   {"r": args.r}, args.seed),
    return _run_report(args, "taylor_terms", runner)


def _cmd_integrals(args) -> int:
    def runner():
        path = BrownianPath.sample_uniform(args.horizon, args.n, args.seed)
        table = compute_table(path, args.horizon, args.r)
        rows = [{"word": format_word(word), "value": value}
                for word, value in table.entries.items()]
        config = {"T": args.horizon, "n": args.n, "r": args.r}
        return ex.ExperimentReport("integrals", rows, None, config,
                                   args.seed),
    return _run_report(args, "integrals", runner)


_COMMANDS = {
    "trace": _cmd_trace,
    "scaling": _cmd_scaling,
    "divergence": _cmd_divergence,
    "moments": _cmd_moments,
    "compare": _cmd_compare,
    "taylor-terms": _cmd_taylor_terms,
    "integrals": _cmd_integrals,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # remapped argparse errors and --help
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"slesim: error: {exc}", file=sys.stderr)
        return 1
    except (TraceRefinementError, ex.ReferenceConvergenceError) as exc:
        print(f"slesim: numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
