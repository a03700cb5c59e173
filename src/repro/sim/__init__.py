"""Discrete-event simulation kernel used by every substrate.

Public surface:

* :class:`Simulator` — event-heap simulator with simulated seconds;
* :class:`Event` — cancellable scheduled callback;
* :func:`spawn`, :class:`Process`, :class:`Timeout`, :class:`WaitFor`,
  :class:`Condition` — generator-based cooperative processes;
* :class:`RandomStreams` — named, independently seeded numpy generators.
"""

from .kernel import Event, SimulationError, Simulator
from .process import Condition, Interrupted, Process, Timeout, WaitFor, spawn
from .rng import RandomStreams, stable_hash

__all__ = [
    "Simulator",
    "Event",
    "SimulationError",
    "Process",
    "Timeout",
    "WaitFor",
    "Condition",
    "Interrupted",
    "spawn",
    "RandomStreams",
    "stable_hash",
]
