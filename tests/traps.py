"""Every ambient source of randomness and time, armed to raise: the
``time`` clocks, the global samplers of ``random`` and of numpy's legacy
``RandomState``, and the OS entropy an unseeded ``random.Random()`` or
numpy generator seeds itself from. A seeded simulation reads none of
them; it times itself only through :mod:`repro.telemetry`.
"""

import contextlib
import random
import time
import types
from unittest import mock

import numpy as np
from numpy.random import bit_generator

CLOCKS = ("time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
          "monotonic_ns", "process_time", "process_time_ns")


def trap(label, who="event_at"):
    """A stand-in that raises ``AssertionError("<who> reached <label>")``."""

    def reached(*_args, **_kwargs):
        raise AssertionError(f"{who} reached {label}")

    return reached


def sources(who="event_at"):
    """``(owner, attribute, stand-in)`` of every clock, and of every
    ambient random source."""
    seed = random.Random.seed

    def seeded_only(self, a=None, version=2):
        if a is None:
            raise AssertionError(f"{who} reached random.Random() with no seed")
        seed(self, a, version)

    clocks = [(time, name, trap(f"time.{name}", who)) for name in CLOCKS]
    rngs = [
        (random.Random, "seed", seeded_only),
        (bit_generator, "randbits", trap("OS entropy for a numpy generator", who)),
    ]
    rngs += [(random, n, trap(f"random.{n}", who)) for n in random.__all__ if n != "Random"]
    for n in np.random.mtrand.__all__:
        if not isinstance(getattr(np.random, n), type):
            rngs.append((np.random, n, trap(f"numpy.random.{n}", who)))
    return clocks, rngs


@contextlib.contextmanager
def ambient_state_forbidden(*extra):
    """Every clock and random source, and each ``(owner, attribute,
    label)`` of ``extra``, raises while open."""
    clocks, rngs = sources()
    with contextlib.ExitStack() as stack:
        for owner, name, stand_in in clocks + rngs:
            stack.enter_context(mock.patch.object(owner, name, stand_in))
        for owner, name, label in extra:
            stack.enter_context(mock.patch.object(owner, name, trap(label)))
        yield


def arm_for_good(modules, who):
    """Arm the random sources process-wide, and the clocks in the namespace
    of each of ``modules`` but ``repro.telemetry*``, which owns them. A
    name bound before arming (``from random import shuffle``) is rebound."""
    fake_time = types.ModuleType("time")
    fake_time.__dict__.update(vars(time))
    # id -> (original, stand-in); holding the original keeps its id unique.
    rngs, clocks = {}, {id(time): (time, fake_time)}
    for table, found in zip((clocks, rngs), sources(who)):
        for owner, name, stand_in in found:
            table[id(getattr(owner, name))] = (getattr(owner, name), stand_in)
            setattr(fake_time if owner is time else owner, name, stand_in)
    for module in modules:
        table = rngs if module.__name__.startswith("repro.telemetry") else {**rngs, **clocks}
        for name, value in list(vars(module).items()):
            if id(value) in table:
                setattr(module, name, table[id(value)][1])
