"""Bench: regenerate Figure 8 (traffic offloaded to alternative paths vs
MIFO deployment ratio).  Paper: ~50% of flows ride alternatives at full
deployment; ~9% already at 10% deployment."""

import numpy as np

from repro.experiments import fig8

from .conftest import write_result


def test_fig8(benchmark, results_dir, bench_scale):
    cells = benchmark.pedantic(
        lambda: fig8.run(bench_scale).raw, rounds=1, iterations=1
    )
    write_result(results_dir, "fig8", cells.render())

    offload = fig8.offloads(cells)  # by deployment, ascending
    offloads = list(offload.values())
    # Broadly increasing in deployment (allow small local noise).
    assert offloads[-1] > offloads[0]
    smoothed = np.maximum.accumulate(offloads)
    assert np.all(np.asarray(offloads) >= smoothed - 0.08)
    # Full deployment offloads a substantial share; 10% a visible one.
    assert offload[1.0] > 0.25
    assert offload[0.1] > 0.01
