"""The routing backend decision is made once, in :mod:`repro.bgp.propagation`.

``DEFAULT_BACKEND`` is the default of every public ``backend=`` parameter
and of the CLI's ``--routing-backend``, and ``check_backend`` is the one
place an unknown name is refused.  These checks run the program: they
read the live signatures, parse real command lines and construct the real
objects, so a literal default re-planted in any signature fails here.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro
from repro import cli
from repro.bgp.propagation import (
    BACKENDS,
    DEFAULT_BACKEND,
    RoutingCache,
    compute_routings,
)
from repro.errors import ConfigError
from repro.scenario.engine import ScenarioEngine
from repro.scenario.events import ScenarioSpec
from repro.scenario.incremental import IncrementalRouting
from repro.service import ServiceSession

#: ``backend`` defaults that are not the decision: on restore an unset
#: backend means the checkpoint's.
RESTORE_DEFAULTS = {
    "repro.service.checkpoint.restore",
    "repro.service.session.ServiceSession.restore",
}


def _callables():
    """``(qualified name, callable)`` for every public function, class and
    class method a ``repro`` module defines."""
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name == "repro.__main__":
            continue
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr_name, attr in vars(obj).items():
                    if isinstance(attr, (staticmethod, classmethod)):
                        attr = attr.__func__
                    if not attr_name.startswith("_") and inspect.isfunction(attr):
                        yield f"{module.__name__}.{name}.{attr_name}", attr
            elif inspect.isfunction(inspect.unwrap(obj)):
                yield f"{module.__name__}.{name}", obj


def _backend_defaults():
    found = {}
    for qualname, fn in _callables():
        try:
            param = inspect.signature(fn).parameters.get("backend")
        except (TypeError, ValueError):
            continue
        if param is not None and param.default is not inspect.Parameter.empty:
            found[qualname] = param.default
    return found


def test_the_default_is_a_backend():
    assert DEFAULT_BACKEND in BACKENDS
    assert DEFAULT_BACKEND == "array"


def test_every_backend_default_is_the_constant():
    defaults = _backend_defaults()
    # The walk sees the entry points the decision used to be restated in.
    for expected in (
        "repro.bgp.propagation.compute_routings",
        "repro.bgp.propagation.RoutingCache",
        "repro.scenario.incremental.IncrementalRouting",
        "repro.scenario.engine.ScenarioEngine",
        "repro.service.session.ServiceSession",
        "repro.experiments.common.SharedContext",
        "repro.experiments.common.SharedContext.get",
        "repro.experiments.export.export_all",
        *(f"repro.experiments.{m}.run" for m in (
            "fig5", "fig6", "fig7", "fig8", "fig9", "fig12", "table1",
            "ribstudy", "overhead", "scenario", "service",
        )),
    ):
        assert expected in defaults, expected
    assert {name for name, d in defaults.items() if d is None} == RESTORE_DEFAULTS
    wrong = {
        name: d
        for name, d in defaults.items()
        if name not in RESTORE_DEFAULTS and d is not DEFAULT_BACKEND
    }
    assert wrong == {}


@pytest.mark.parametrize(
    "argv, handler",
    [
        (["run", "fig7"], "_cmd_run"),
        (["scenario", "run", "link_flap"], "_cmd_scenario_run"),
        (["verify"], "_cmd_verify"),
        (["export"], "_cmd_export"),
        (["simulate"], "_cmd_simulate"),
        (["serve"], "_cmd_serve"),
    ],
    ids=["run", "scenario-run", "verify", "export", "simulate", "serve"],
)
def test_cli_default_is_the_constant(monkeypatch, argv, handler):
    seen = []
    monkeypatch.setattr(cli, handler, lambda args: seen.append(args) or 0)
    assert cli.main(argv) == 0
    # serve leaves it unset: a restore then keeps the checkpoint's backend,
    # a fresh session takes ServiceSession's default.
    assert seen[0].routing_backend is (None if handler == "_cmd_serve" else DEFAULT_BACKEND)


def test_cli_choices_are_the_backends(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--routing-backend", "gpu"])
    err = capsys.readouterr().err
    assert "gpu" in err and all(name in err for name in BACKENDS)


@pytest.mark.parametrize(
    "make",
    [
        lambda g: compute_routings(g, [0], "gpu"),
        lambda g: RoutingCache(g, backend="gpu"),
        lambda g: IncrementalRouting(g, backend="gpu"),
        lambda g: ScenarioEngine(g, [], ScenarioSpec("x", "x", ()), backend="gpu"),
        lambda g: ServiceSession(backend="gpu"),
    ],
    ids=["compute_routings", "RoutingCache", "IncrementalRouting", "ScenarioEngine",
         "ServiceSession"],
)
def test_unknown_backend_is_one_config_error(fig2a_graph, make):
    with pytest.raises(ConfigError) as err:
        make(fig2a_graph)
    assert str(err.value) == "unknown routing backend 'gpu'"
