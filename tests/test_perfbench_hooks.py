"""The benchmark's span tracer wraps weakkam functions by name: every wrapped
name must exist, a traced kernel build must expose the tables its counter
reads, and the Picard and converge counters must read the shapes those
entry points return."""

import os
import sys

import numpy as np

import weakkam.cli  # noqa: F401  (imports every module the tracer wraps)
from weakkam import semigroup
from weakkam.kernels import StepKernel
from weakkam.models import HamiltonianModel, PiecewiseLinearMap, TrigPotential
from weakkam.torus import Grid, GridField

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
import tracing  # noqa: E402


def test_tracer_installs_and_counts_kernel_builds():
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for dim, n, modes in ((1, 32, (((1,), 1.0),)), (2, 16, (((1, 0), 0.5), ((0, 1), 0.5)))):
            model = HamiltonianModel("quadratic-mechanical", dim=dim,
                                     potential=TrigPotential(dim, modes))
            grid = Grid(dim, n)
            kern = StepKernel(model, grid, 1.0 / 8, 2.0, "left")
            kern.apply(np.zeros(grid.size), np.zeros(grid.size))
    finally:
        tracer.uninstall()
    totals = tracer.totals()
    assert totals["kernels.build"][0] == 2
    assert totals["kernels.apply"][0] == 2
    assert tracer.counts["kernel_table_bytes"] > 0
    assert "__wrapped__" not in vars(StepKernel.__init__)


def test_tracer_counts_picard_passes_and_converge_blocks():
    # fixed_point's pair (the counter reads out[1].iterations) and converge's
    # block_times, read through the wrappers the tracer installs
    model = HamiltonianModel("quadratic-nonlinear-u", potential=TrigPotential(1, (((1,), 1.0),)),
                             f=PiecewiseLinearMap((-1.0, 0.0, 1.0), (-2.0, 0.0, 0.5)))
    grid = Grid(1, 32)
    phi = GridField(grid, 0.3 * np.cos(2 * np.pi * grid.points()[:, 0]))
    kern = StepKernel(model, grid, 1.0 / 16, 2.0)
    _, report = semigroup.fixed_point(kern, phi, 1.0, tol=0.0)
    blocks = semigroup.converge(kern, phi, 6.0, 1e-12).block_times
    tracer = tracing.Tracer()
    try:
        tracer.install()
        semigroup.fixed_point(kern, phi, 1.0, tol=0.0)
        semigroup.converge(kern, phi, 6.0, 1e-12)
    finally:
        tracer.uninstall()
    assert report.iterations > 1 and len(blocks) > 1
    assert tracer.counts["picard_passes"] == report.iterations
    assert tracer.counts["converge_blocks"] == len(blocks)
    assert tracer.totals()["semigroup.fixed_point"][0] == 1
    assert "__wrapped__" not in vars(semigroup.fixed_point)
