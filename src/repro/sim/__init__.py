"""Discrete-event simulation kernel.

The kernel is deliberately small: an integer-nanosecond event loop with
deterministic tie-breaking (`engine`), timer and periodic-task helpers
(`timers`), seeded per-component random streams (`rng`), and the per-switch
circular trace logs used by the paper's merged-log debugging technique
(`trace`).
"""

from repro.sim.engine import Simulator, cancel
from repro.sim.rng import RngRegistry
from repro.sim.timers import Periodic, TaskScheduler
from repro.sim.trace import MergedLog, TraceLog

__all__ = [
    "Simulator",
    "cancel",
    "RngRegistry",
    "Periodic",
    "TaskScheduler",
    "TraceLog",
    "MergedLog",
]
