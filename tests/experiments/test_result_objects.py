"""Unit tests for the figure result containers and the grid figures'
metrics and renders over hand-built cells (no simulation needed)."""

import numpy as np
import pytest

from repro.experiments import fig5, fig6, fig8
from repro.experiments.common import Cell, Cells, Grid
from repro.experiments.fig5 import throughput_cdf
from repro.experiments.fig7 import Fig7Result
from repro.flowsim.flow import FlowRecord
from repro.flowsim.simulator import FluidSimResult


def result_with_throughputs(scheme, mbps_list, used_alt=0):
    records = [
        FlowRecord(
            flow_id=i,
            src=1,
            dst=2,
            size_bytes=m * 1e6 / 8.0,  # 1 second at m Mbps
            start_time=0.0,
            finish_time=1.0,
            path_switches=0,
            used_alternative=i < used_alt,
            initial_path_len=3,
            final_path_len=3,
        )
        for i, m in enumerate(mbps_list)
    ]
    return FluidSimResult(scheme, records, 1.0, 1, 1, 0)


def cells_of(grid, results):
    return Cells("unit", grid, {Cell(*k): v for k, v in results.items()})


class TestFig5Result:
    @pytest.fixture
    def result(self):
        bgp = result_with_throughputs("BGP", [100, 200, 300])
        grid = Grid(fig5.SCHEMES, "deployment", (0.5, 1.0), 1, fig5.cdf_metric, fig5.render)
        return cells_of(
            grid,
            {
                ("BGP", 0.5): bgp,
                ("MIRO", 0.5): result_with_throughputs("MIRO", [150, 250, 350]),
                ("MIFO", 0.5): result_with_throughputs("MIFO", [300, 500, 700]),
                ("BGP", 1.0): bgp,
                ("MIRO", 1.0): result_with_throughputs("MIRO", [200, 300, 400]),
                ("MIFO", 1.0): result_with_throughputs("MIFO", [400, 600, 800]),
            },
        )

    def test_fraction_at_least(self, result):
        assert throughput_cdf(result["MIFO", 1.0]).fraction_at_least(500e6) == pytest.approx(2 / 3)
        series, meta = fig5.cdf_metric(result)
        assert meta["frac_ge_500mbps[100% MIFO]"] == pytest.approx(2 / 3)
        assert meta["frac_ge_500mbps[100% BGP]"] == 0.0
        assert meta["median_mbps[50% MIFO]"] == pytest.approx(500.0)
        assert set(series) == {f"{d} {s}" for d in ("50%", "100%") for s in fig5.SCHEMES}

    def test_deployments_property(self, result):
        # Deployments render highest first, whatever order the grid gives.
        out = result.render()
        assert out.index("Fig 5 (100% deployed)") < out.index("Fig 5 (50% deployed)")

    def test_rows_and_render(self, result):
        out = result.render()
        assert "Figure 5" in out and ">=100 Mbps" in out
        rows = [line for line in out.splitlines() if line.lstrip().endswith("%")]
        # BGP is one run shared by both deployments: one row, not two.
        assert len(rows) == 5
        assert sum("BGP" in row for row in rows) == 1


class TestFig6Result:
    def test_alphas_sorted(self):
        grid = Grid(fig5.SCHEMES, "alpha", (1.2, 0.8), 2, fig5.cdf_metric, fig6.render, 0.5)
        r = cells_of(
            grid,
            {
                (scheme, alpha): result_with_throughputs(scheme, [mbps])
                for alpha, mbps in ((1.2, 100), (0.8, 200))
                for scheme in fig5.SCHEMES
            },
        )
        out = r.render()
        assert "alpha" in out and "(50% deployment" in out
        assert out.index("Fig 6 (alpha=0.8)") < out.index("Fig 6 (alpha=1.2)")
        rows = [line for line in out.splitlines() if line.lstrip().endswith("%")]
        assert len(rows) == 6  # every alpha has its own matrix, so its own BGP row
        _series, meta = fig5.cdf_metric(r)
        assert meta["median_mbps[alpha=0.8 MIFO]"] == pytest.approx(200.0)


class TestFig7Result:
    @pytest.fixture
    def result(self):
        return Fig7Result(
            scale_name="unit",
            counts={
                ("MIFO", 1.0): [100, 50, 10, 5],
                ("MIRO", 1.0): [3, 2, 1, 1],
            },
        )

    def test_median_and_fraction(self, result):
        assert result.median("MIFO", 1.0) == pytest.approx(30.0)
        assert result.fraction_with_at_least("MIFO", 1.0, 10) == pytest.approx(0.75)
        assert result.fraction_with_at_least("MIRO", 1.0, 10) == 0.0

    def test_series_log_scale(self, result):
        series = result.series()
        assert "100% MIFO" in series
        pct, logv = zip(*series["100% MIFO"])
        assert max(logv) == pytest.approx(np.log10(100))

    def test_render(self, result):
        assert "Figure 7" in result.render()


class TestFig8Result:
    def test_offload_and_render(self):
        grid = Grid(("MIFO",), "deployment", (1.0, 0.1), 4, fig8.metric, fig8.render)
        r = cells_of(
            grid,
            {
                ("MIFO", 0.1): result_with_throughputs("MIFO", [100] * 10, used_alt=1),
                ("MIFO", 1.0): result_with_throughputs("MIFO", [100] * 10, used_alt=5),
            },
        )
        assert fig8.offloads(r) == {0.1: pytest.approx(0.1), 1.0: pytest.approx(0.5)}
        series, meta = fig8.metric(r)
        assert series == {"offload %": [(10.0, pytest.approx(10.0)), (100.0, pytest.approx(50.0))]}
        assert meta == {"offload[10%]": pytest.approx(0.1), "offload[100%]": pytest.approx(0.5)}
        out = r.render()
        assert "Figure 8" in out and "10%" in out
