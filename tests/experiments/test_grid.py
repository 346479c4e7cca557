"""The grid runner behind Figs. 5, 6, 8 and 9: one simulation per computed
cell, BGP shared per traffic matrix, and axis values that cannot collide."""

import pytest

from repro.errors import ConfigError
from repro.experiments import fig5, fig6, fig8, fig9


@pytest.mark.parametrize(
    "mod, kwargs, computed, bgp_runs",
    [
        (fig5, {"deployments": (1.0, 0.5, 0.1)}, 7, 1),
        (fig6, {"alphas": (0.8, 1.0, 1.2)}, 9, 3),
        (fig8, {}, 10, 0),
        (fig9, {}, 1, 0),
    ],
    ids=["fig5", "fig6", "fig8", "fig9"],
)
def test_one_cell_span_per_computed_cell(mod, kwargs, computed, bgp_runs):
    result = mod.run("test", backend="array", telemetry=True, **kwargs)
    spans = result.meta["telemetry"]["spans"]
    assert spans["experiments.cell"]["count"] == computed
    cells = result.raw.results
    assert len({id(sim) for sim in cells.values()}) == computed
    assert len({id(sim) for cell, sim in cells.items() if cell.scheme == "BGP"}) == bgp_runs


@pytest.mark.parametrize(
    "run, values",
    [
        (lambda: fig5.run("test", deployments=(0.1, 0.104), backend="array"), ("0.1", "0.104")),
        (lambda: fig8.run("test", deployments=(0.1, 0.5, 0.5)), ("0.5", "0.5")),
        (lambda: fig6.run("test", alphas=(1.0, 0.96)), ("1.0", "0.96")),
    ],
    ids=["fig5-labels-collide", "fig8-value-repeats", "fig6-labels-collide"],
)
def test_colliding_axis_values_raise(run, values):
    # Two values that print as one label would overwrite each other's
    # series and meta entries; the run refuses them before simulating.
    with pytest.raises(ConfigError) as err:
        run()
    assert all(v in str(err.value) for v in values), err.value
