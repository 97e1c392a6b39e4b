"""Numerical toolkit for backward Loewner evolutions.

The pieces fit together like this: :mod:`slesim.brownian` provides
drivers that refine reproducibly, :mod:`slesim.vfalgebra` expands the
generator words symbolically, :mod:`slesim.integrals` evaluates the
matching iterated integrals on a driver, :mod:`slesim.schemes` assembles
one-step maps (splitting, Euler, truncated Taylor) from those parts,
:mod:`slesim.trace` chains splitting steps into an adaptively refined
trace, and :mod:`slesim.experiments` wraps the Monte Carlo studies the
command line exposes.

:mod:`slesim.schemes` also fixes the square-root branch every map uses,
``sqrt_h``, and holds each form of its flip once: the scalar flip
(``sqrt_h``), the array flip (``_flip_up``), the scalar fold into the
noise shift (inline in ``_nv_steps``) and the array fold (``_shift_up``).
"""

from .brownian import BrownianPath, philox_stream
from .integrals import (IteratedIntegralTable, compute_table, derive_seeds,
                        iterated_integral, word_entries)
from .schemes import (SCALED_NOISE, UNIT_NOISE, euler_step, flow_drift,
                      flow_noise, nv_step, reference_solve, sqrt_h,
                      taylor_step)
from .trace import TraceRefinementError, TraceResult, build_trace, render_svg
from .vfalgebra import (LEVEL_CAP, LaurentTerm, compose, deg, enumerate_level,
                        eval_term, format_word, parse_word)
from .experiments import (REFERENCE_RTOL, ExperimentReport,
                          ReferenceConvergenceError, divergence_probe,
                          epsilon_scaling, moment_preservation,
                          scheme_comparison, write_report_csv,
                          write_report_sidecar)

__version__ = "0.1.0"

__all__ = [
    "BrownianPath", "philox_stream",
    "sqrt_h",
    "IteratedIntegralTable", "compute_table",
    "derive_seeds", "iterated_integral", "word_entries",
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
