"""Bench: regenerate Figure 5 (throughput CDFs by deployment, uniform
traffic) and assert the paper's ordering: MIFO >= MIRO >= ~BGP at every
deployment ratio, with gains shrinking as deployment shrinks."""

from repro.experiments import fig5
from repro.experiments.fig5 import throughput_cdf

from .conftest import write_result


def test_fig5(benchmark, results_dir, bench_scale):
    cells = benchmark.pedantic(
        lambda: fig5.run(bench_scale).raw, rounds=1, iterations=1
    )
    write_result(results_dir, "fig5", cells.render())

    def cdf(dep, scheme):
        return throughput_cdf(cells[scheme, dep])

    bgp = cdf(1.0, "BGP")
    for dep in (1.0, 0.5, 0.1):
        mifo = cdf(dep, "MIFO")
        miro = cdf(dep, "MIRO")
        # Multipath never loses to single-path (allowing small noise).
        assert mifo.median >= bgp.median * 0.97, (dep, mifo.median, bgp.median)
        assert miro.median >= bgp.median * 0.97, (dep, miro.median, bgp.median)
    # Full deployment: MIFO leads MIRO (the paper's headline gap).
    assert cdf(1.0, "MIFO").median >= cdf(1.0, "MIRO").median
    # Gains grow with deployment.
    assert cdf(1.0, "MIFO").median >= cdf(0.1, "MIFO").median * 0.97
