"""Adaptive trace generation by backward composition of slit maps.

The point of the trace at partition time t_k is

    z_k = f_0(f_1(... f_{k-1}(0) ...)),

where f_i is the closed-form splitting step over [t_i, t_{i+1}] driven by
the reversed increment B(t_i) - B(t_{i+1}).  The partition starts as the
driver's own grid on [0, T].  A left-to-right sweep accepts points while
consecutive spatial gaps stay below the tolerance; a violating
interval is bisected through the driver's bridge midpoint and only the
affected suffix is recomputed, since accepted points to the left depend on
nothing to the right.  The refinement draws are keyed by midpoint time, so
tightening the tolerance reuses (not redraws) the coarser run's samples.

Because an accepted point never depends on intervals to its right, the
sweep's values are already the compositions over the final partition, and
each gap is tested once, when its right point is accepted; no second pass
recomputes the points or re-tests the gaps.  The stats report the maps
the sweep spent on accepted points (sum_k k = N(N+1)/2), all maps it
applied, rejected candidates included, and the complex roots those maps
took.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt, ulp

from .brownian import BrownianPath
from .schemes import _nv_steps
from .vfalgebra import _check_nonnegative, _check_positive

__all__ = [
    "TraceRefinementError",
    "TraceResult",
    "build_trace",
    "render_svg",
]


class TraceRefinementError(RuntimeError):
    """Gap condition unreachable on some interval.

    Raised when a rejected interval is no wider than ``ulp(T)``, the
    float64 resolution of the horizon T, or when float64 has no midpoint
    for it (``t0 + t1`` overflows for T above about 9e307; the driver's
    ValueError is then the ``__cause__``).  The fields are the
    exception's args, so it pickles and copies.
    """

    def __init__(self, interval: tuple[float, float], depth: int, gap: float):
        super().__init__(interval, depth, gap)
        self.interval = interval
        self.depth = depth
        self.gap = gap

    def __str__(self) -> str:
        a, b = self.interval
        return (f"interval ({a!r}, {b!r}) still has gap {self.gap:.6g} "
                f"after {self.depth} bisections, at the float64 resolution "
                "of the horizon")


@dataclass
class TraceResult:
    """Accepted ``(t, z)`` trace points with build diagnostics; the
    times are the final partition.  The build's arguments are not kept:
    the caller has them."""

    points: list
    stats: dict

    def __len__(self) -> int:
        return len(self.points)


def build_trace(path: BrownianPath, T: float, kappa: float,
                tolerance: float = 0.02,
                apply_shift: bool = False) -> TraceResult:
    """Adaptively refined trace of the driver on [0, T].

    A rejected interval is bisected unless it is no wider than ulp(T):
    no bisection can resolve its gap in float64 at that horizon.

    Args:
        path: driver, mutated in place by bridge bisections; must carry T
            as a sample time.  Its grid on [0, T] is the initial
            partition.
        T: horizon, finite and > 0.
        kappa: noise strength, finite and >= 0 (0 gives the
            deterministic slit).
        tolerance: accepted spatial gap bound, finite and > 0.
        apply_shift: translate all points by sqrt(kappa) B(T) (maps the
            picture to the coordinate frame anchored at the driver's
            endpoint).

    Returns:
        TraceResult; points[0] is (0, 0) and every consecutive gap is
        below tolerance.  stats holds ``refinement_depth_max``,
        ``map_evaluations`` (N(N+1)/2 for N intervals: the maps behind
        the accepted points), ``chain_map_applications`` (every map
        the sweep applied, rejected candidates included) and
        ``complex_roots`` (one per map applied and one at the end of
        each candidate chain, as ``_nv_steps`` steps W = z^2).

    Raises:
        ValueError: T, kappa or tolerance is outside its range, NaN or
            infinite; the path ends before T; or T is not one of its
            sample times.
        TraceRefinementError: some interval is no wider than ulp(T), or
            has no float64 midpoint, and its gap is still not below the
            tolerance.
    """
    _check_positive("horizon T", T)
    _check_nonnegative("kappa", kappa)
    _check_positive("tolerance", tolerance)
    if path.horizon < T:
        raise ValueError(f"path horizon {path.horizon} is shorter than {T}")

    end = path.index_of(T)
    resolution = ulp(T)
    # steps[i] = (2 h_i, sqrt(kappa) (B_i - B_{i+1})), the (c, d) step of
    # _nv_steps for interval i of the partition, which is the path's grid
    # on [0, T], each part a complex with a +0.0 imaginary part, so every
    # operation of the kernel is complex-complex; depth[i] counts the
    # bisections behind interval i.
    sqkap = sqrt(kappa)
    times, values = path.times[:end + 1], path.values[:end + 1]
    drift = 2.0 * (times[1:] - times[:-1])
    noise = sqkap * (values[:-1] - values[1:])
    steps = list(zip(drift.astype(complex).tolist(),
                     noise.astype(complex).tolist()))
    depth = [0] * end
    zz = [0j]
    applications = chains = 0
    while len(zz) <= end:
        # points 0..i accepted; interval i is the first undecided one
        i = len(zz) - 1
        applications += i + 1
        chains += 1
        # f_0 ... f_i applied to 0, rightmost (innermost) map first
        z_r = _nv_steps(0j, reversed(steps[:i + 1]))
        gap = abs(z_r - zz[i])
        if gap < tolerance:
            zz.append(z_r)
            continue
        (t0, b0), (t1, b1) = path.sample(i), path.sample(i + 1)
        if t1 - t0 <= resolution:
            raise TraceRefinementError((t0, t1), depth[i], gap)
        try:
            path.insert_midpoint(i)
        except ValueError as exc:
            raise TraceRefinementError((t0, t1), depth[i], gap) from exc
        tm, bm = path.sample(i + 1)
        steps[i:i + 1] = [
            (complex(2.0 * (tm - t0)), complex(sqkap * (b0 - bm))),
            (complex(2.0 * (t1 - tm)), complex(sqkap * (bm - b1)))]
        depth[i:i + 1] = [depth[i] + 1] * 2
        end += 1

    shift = sqkap * path.value_at(T) if apply_shift else 0.0
    points = [(t, z + shift)
              for t, z in zip(path.times[:end + 1].tolist(), zz)]
    return TraceResult(points=points,
                       stats={"refinement_depth_max": max(depth),
                              "map_evaluations": end * (end + 1) // 2,
                              "chain_map_applications": applications,
                              "complex_roots": applications + chains})


# size of the SVG canvas in pixels
_WIDTH, _HEIGHT = 800, 600


def render_svg(result: TraceResult) -> str:
    """Standalone SVG, 800 by 600 pixels, of the trace polyline with the
    real axis drawn.

    Output is a deterministic function of the input (fixed formatting,
    no timestamps), so renders of equal traces are byte-identical.
    """
    if len(result.points) == 0:
        raise ValueError("empty trace")
    xs = [z.real for _, z in result.points]
    ys = [z.imag for _, z in result.points]
    xmin, xmax = min(xs), max(xs)
    ymin, ymax = min(0.0, min(ys)), max(ys)
    pad = 0.05 * max(xmax - xmin, ymax - ymin, 1e-9)
    xmin, xmax = xmin - pad, xmax + pad
    ymin, ymax = ymin - pad, ymax + pad
    sx = (_WIDTH - 20) / (xmax - xmin)
    sy = (_HEIGHT - 20) / (ymax - ymin)

    def to_px(x: float, y: float) -> str:
        return (f"{10 + (x - xmin) * sx:.3f},"
                f"{_HEIGHT - 10 - (y - ymin) * sy:.3f}")

    axis_y = f"{_HEIGHT - 10 - (0.0 - ymin) * sy:.3f}"
    pts = " ".join(to_px(x, y) for x, y in zip(xs, ys))
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>\n'
        f'<line x1="0" y1="{axis_y}" x2="{_WIDTH}" y2="{axis_y}" '
        f'stroke="#999999" stroke-width="1"/>\n'
        f'<polyline points="{pts}" fill="none" stroke="#1f4e8c" '
        f'stroke-width="1"/>\n'
        f"</svg>\n"
    )

