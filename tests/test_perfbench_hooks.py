"""The benchmark's span tracer wraps weakkam functions by name: every wrapped
name must exist, and a traced kernel build must expose the tables its
counter reads."""

import os
import sys

import numpy as np

import weakkam.cli  # noqa: F401  (imports every module the tracer wraps)
from weakkam.kernels import StepKernel
from weakkam.models import HamiltonianModel, TrigPotential
from weakkam.torus import Grid

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
