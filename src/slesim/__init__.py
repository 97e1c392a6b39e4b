"""Numerical toolkit for backward Loewner evolutions.

The pieces fit together like this: :mod:`slesim.halfplane` fixes the
square-root branch every map uses, :mod:`slesim.brownian` provides
drivers that refine reproducibly, :mod:`slesim.vfalgebra` expands the
generator words symbolically, :mod:`slesim.integrals` evaluates the
matching iterated integrals on a driver, :mod:`slesim.schemes` assembles
one-step maps (splitting, Euler, truncated Taylor) from those parts,
:mod:`slesim.trace` chains splitting steps into an adaptively refined
trace, and :mod:`slesim.experiments` wraps the Monte Carlo studies the
command line exposes.
"""

from .brownian import BrownianPath, philox_stream, uniform_blocks
from .halfplane import sqrt_h
from .integrals import (IteratedIntegralTable, compute_table, derive_seed,
                        iterated_integral, word_entries)
from .schemes import (REFERENCE_RTOL, SCALED_NOISE, UNIT_NOISE, euler_step,
                      flow_drift, flow_noise, nv_step, reference_solve,
                      taylor_step)
from .trace import TraceRefinementError, TraceResult, build_trace, render_svg
from .vfalgebra import (LEVEL_CAP, LaurentTerm, compose, deg, enumerate_level,
                        eval_term, format_word, parse_word)
from .experiments import (ExperimentReport, ReferenceConvergenceError,
                          divergence_probe, epsilon_scaling,
                          moment_preservation, scheme_comparison,
                          write_report_csv, write_report_sidecar)

__version__ = "0.1.0"

__all__ = [
    "BrownianPath", "philox_stream", "uniform_blocks",
    "sqrt_h",
    "IteratedIntegralTable", "compute_table",
    "derive_seed", "iterated_integral", "word_entries",
    "REFERENCE_RTOL", "SCALED_NOISE", "UNIT_NOISE", "euler_step",
    "flow_drift", "flow_noise", "nv_step", "reference_solve", "taylor_step",
    "TraceRefinementError", "TraceResult", "build_trace", "render_svg",
    "LEVEL_CAP", "LaurentTerm", "compose", "deg", "enumerate_level",
    "eval_term", "format_word", "parse_word",
    "ExperimentReport", "ReferenceConvergenceError", "divergence_probe",
    "epsilon_scaling", "moment_preservation", "scheme_comparison",
    "write_report_csv", "write_report_sidecar",
    "__version__",
]
