"""Bench: regenerate Figure 7 (available paths per AS pair).

Paper headlines asserted: (a) MIFO at 50% deployment offers more paths
than MIRO fully deployed; (b) full-deployment MIFO's diversity is an order
of magnitude beyond MIRO's strict cap; (c) diversity grows with
deployment."""

from repro.experiments import fig7

from .conftest import write_result


def test_fig7(benchmark, results_dir, bench_scale):
    result = benchmark.pedantic(
        lambda: fig7.run(bench_scale).raw, rounds=1, iterations=1
    )
    write_result(results_dir, "fig7", result.render())

    # (a) half-deployed MIFO >= fully-deployed MIRO.
    assert result.median("MIFO", 0.5) >= result.median("MIRO", 1.0)
    # (b) order-of-magnitude gap at full deployment (MIRO is capped at
    # 1 + max_alternatives = 3 paths).
    assert result.median("MIFO", 1.0) >= 3 * result.median("MIRO", 1.0)
    # (c) monotone in deployment.
    assert result.median("MIFO", 1.0) >= result.median("MIFO", 0.5)
    # Most pairs enjoy real multipath under full MIFO.
    assert result.fraction_with_at_least("MIFO", 1.0, 10) > 0.5
    # MIRO never exceeds its negotiated cap.
    assert max(result.counts[("MIRO", 1.0)]) <= 3
