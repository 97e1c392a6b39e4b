"""Pinned random streams and CSV bytes.

The values below were recorded before bridge draws switched from one
Philox constructor per draw to a reset per-thread generator; the
``compare`` and ``divergence`` digests before reference solves moved to
one scalar splitting kernel; the ``integrals`` and ``taylor-terms``
digests before replicas moved to one serial loop; the two 300-replica
``divergence`` digests, whose drivers span several blocks, one of them
with a skipped word, before divergence integrals moved to one array pass
per block; the three wide ``scaling`` and ``compare`` digests, whose 240-500
lanes reach the lane-batched reference kernel, before the references of a
run moved from one scalar loop per replica to that kernel.  The trace
point counts and ``stats`` were recorded before
``build_trace`` moved from a recursive closure to one flat loop; the CSV
digest pins the points but not these counters.  The one ``trace``, three
``scaling`` and two ``compare`` digests were re-pinned when the chain
kernels moved from stepping z, two roots a map, to stepping W = z^2, one
root a map: that rounds differently, at the 1e-13 level of the rows, and
the trace ``stats`` gained ``complex_roots`` then, with the other
counters unchanged.  The three ``divergence`` digests were re-pinned
when its drivers moved from one keyed Philox stream per replica to one
sequential SFC64 stream per run, read in order.  The three ``scaling``
and two ``compare`` digests were re-pinned again when a reference
driver's bisection passes moved from one midpoint stream per (sub-seed,
midpoint time) to one per (sub-seed, doubling), each row's midpoints
read in interval order.  The same five were re-pinned once more when a
reference replica stopped drawing from a sub-seed, numpy's seed-sequence
hash of (seed, index), and took its index as the last word of Philox's
starting counter under the key (seed, tag) (replica ``1 + j * replicas
+ i`` of row j; a ``BrownianPath`` is replica 0): ``scaling --replicas
4``, ``compare --replicas 4``, the two wide ``scaling`` runs and
``compare --replicas 100``.  The first draws of one reference stream are
pinned with the other streams'.  A change that alters any random stream,
or the arithmetic on it, fails here; such a change must say so and
update these values on purpose.

``moments`` is not pinned: it steps whole arrays of complex numbers, and
numpy may round complex arithmetic differently per SIMD lane, so its
digest may vary by CPU.  Its increment matrix is drawn from one SFC64
stream, whose first draws are pinned with the Philox ones, as are those
of the ``divergence`` drivers' stream.
"""

import hashlib

import pytest

from slesim.brownian import BrownianPath, _sfc64_stream, philox_stream
from slesim.cli import main
from slesim.trace import build_trace


def test_pinned_stream_values():
    assert philox_stream(0, 0).standard_normal(3).tolist() == [
        0.15929546600623282, -1.7741885208017214, 1.3265118818830892]
    assert philox_stream(2 ** 64 - 1, 2 ** 64 - 1).standard_normal() == \
        0.6313842391058808
    assert philox_stream(-1, 12345).standard_normal() == -1.0195761687083655
    # a reference driver's stream: doubling 1 of replica 1
    assert philox_stream(0, 1, 1).standard_normal(3).tolist() == [
        -0.1396969273187891, -0.8496874865570878, -0.8315804796311557]
    assert philox_stream(2 ** 64 - 1, 1, 1).standard_normal(3).tolist() == [
        -0.660584109453497, 0.4969849057604713, 1.3131145155699449]
    # the sequential stream of the moments increment matrix
    assert _sfc64_stream(0, 0xE1).standard_normal(3).tolist() == [
        -1.2775602832753783, -0.43553827446068805, -0.33002827342377183]
    assert _sfc64_stream(2 ** 64 - 1, 0xE1).standard_normal(3).tolist() == [
        -1.3936185001575887, 0.8174059794039672, 0.9140343268116844]
    # the sequential stream of the divergence drivers
    assert _sfc64_stream(0, 0xD1).standard_normal(3).tolist() == [
        -0.38943539986614867, 0.21342028735436144, -0.04693692283299823]
    assert _sfc64_stream(2 ** 64 - 1, 0xD1).standard_normal(3).tolist() == [
        0.7413136230463842, 0.946137634068592, -1.3489338863203404]


def test_pinned_midpoint_draws():
    p = BrownianPath.sample_uniform(1.0, 2, seed=3)
    p.refine()
    p.insert_midpoint(0)
    assert p.times.tolist() == [0.0, 0.125, 0.25, 0.5, 0.75, 1.0]
    assert p.values.tolist() == [
        0.0, 0.19481280965086836, -0.16638781337564396, 0.7157997410591955,
        1.5589987041401256, 1.2487438442739818]


@pytest.mark.parametrize("argv,name,digest", [
    (["scaling", "--replicas", "4", "--seed", "0"], "scaling.csv",
     "4898523886cde76b66ed18a6ff8a9d5222baf67f69fcaeb00c62488ed71de0fa"),
    (["trace", "--kappa", "6", "--tolerance", "0.16", "--seed", "8"],
     "trace.csv",
     "763d5bd61b8cb985c19913eaa3b851e3d3242611f4075c6eec1aaa3572ebd8a5"),
    (["compare", "--replicas", "4", "--seed", "0"], "compare.csv",
     "8e1bf26a4b8ef16cb9ac4fe2506ec2984a6a933dd0e8bee01332044319b37755"),
    (["divergence", "--replicas", "20", "--seed", "0"], "divergence.csv",
     "52771e2b33f2c20e9bd7a2237c9aecf5f08223f35d4b3e619d8e79547a3f1e55"),
    (["integrals", "--n", "128", "--r", "3", "--seed", "0"], "integrals.csv",
     "d2ab691b4464b738e47263b1c09fb81fc4d7f7f5a277c51eb4a63acd937962db"),
    (["taylor-terms", "--r", "6"], "taylor_terms.csv",
     "f8b442ee32ca5c514e7a68dde24cbfd1727ef8b68ee847b3134a5c438a9d4f0d"),
    (["divergence", "--replicas", "300", "--seed", "1"], "divergence.csv",
     "2041afa7fdae11b0c68de3cdf7bfbd5ef633bcf982a57011d2e94cf2cd2bec58"),
    (["divergence", "--replicas", "300", "--seed", "1",
      "--words", "1", "0", "01", "10"], "divergence.csv",
     "8db26438499cbce05ec4a45ccc48bef9b8c74f85d296bd93918dad282f2dd285"),
    # 240-500 lanes: the first doublings run on the lane kernel
    (["scaling", "--replicas", "100", "--eps", "0.125", "0.0625", "0.03125",
      "--seed", "0"], "scaling.csv",
     "0a2e7d75e929605dcb0e2d5d36878960cc4daf35e7f284b3c3d33c897c5dea8a"),
    (["scaling", "--replicas", "60", "--eps", "0.25", "0.125", "0.0625",
      "0.03125", "--kappa", "6", "--seed", "3"], "scaling.csv",
     "8bdd9c200fda6bc32ffeacd4c8c253327a829596fb41a2af55b8861c2baa8b4f"),
    (["compare", "--replicas", "100", "--seed", "0"], "compare.csv",
     "ef713949f9e77c08b520e5d8d618d8e0548a43bfc0d1cc1c25bdea9d7d57ae08"),
])
def test_pinned_csv_bytes(tmp_path, capsys, argv, name, digest):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    data = (tmp_path / name).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("n,seed,kappa,tolerance,intervals,points,stats", [
    (64, 8, 6.0, 0.16, 64, 145,
     {"refinement_depth_max": 8, "map_evaluations": 10440,
      "chain_map_applications": 14679, "complex_roots": 14903}),
    # a 4-interval driver, refined to 8 intervals before the sweep
    (4, 11, 4.0, 0.1, 5, 61,
     {"refinement_depth_max": 7, "map_evaluations": 1830,
      "chain_map_applications": 3255, "complex_roots": 3367}),
])
def test_pinned_trace_stats(n, seed, kappa, tolerance, intervals, points,
                            stats):
    # whole-path bisection passes until the grid has at least
    # ``intervals`` intervals: the initial partition of the sweep
    path = BrownianPath.sample_uniform(1.0, n, seed)
    while path.n_intervals < intervals:
        path.refine()
    result = build_trace(path, 1.0, kappa, tolerance=tolerance)
    assert len(result.points) == points
    assert result.stats == stats
