"""Bench: regenerate Figure 9 (path-switch distribution).  Paper: 67.7% of
switching flows switch exactly once; 97.5% at most twice."""

from repro.experiments import fig9

from .conftest import write_result


def test_fig9(benchmark, results_dir, bench_scale):
    cells = benchmark.pedantic(
        lambda: fig9.run(bench_scale).raw, rounds=1, iterations=1
    )
    write_result(results_dir, "fig9", cells.render())

    d = fig9.distribution(cells)
    assert d.switching_flows > 0
    # Paper: 67.7% switch once — accept a generous band around it.
    assert d.fraction_of_switching(1) > 0.45
    # Paper: 97.5% at most twice.
    assert d.fraction_at_most(2) > 0.80
    # Switch counts concentrate at the bottom: monotone-ish decay.
    assert d.fraction_of_switching(1) >= d.fraction_of_switching(3)
