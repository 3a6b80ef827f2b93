"""Discrete-event simulation kernel.

This package implements a small, deterministic, generator-based
discrete-event simulator in the style of SimPy.  All higher-level
subsystems in this repository (the FaaS platform, the metadata store,
the RPC fabric, clients) are expressed as :class:`Process` generators
scheduled by an :class:`Environment`.

Quick example::

    from repro.sim import Environment

    def hello(env):
        yield env.timeout(5.0)
        print("woke at", env.now)

    env = Environment()
    env.process(hello(env))
    env.run()
"""

from repro.sim.core import Environment, StopSimulation
from repro.sim.events import (
    AllOf,
    AnyOf,
    ConditionValue,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from repro.sim.resources import Resource
from repro.sim.rng import RngStreams

__all__ = [
    "AllOf",
    "AnyOf",
    "ConditionValue",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "RngStreams",
    "StopSimulation",
    "Timeout",
]
