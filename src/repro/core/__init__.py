"""Autopilot: the paper's core contribution.

Port-state monitoring (status sampler, connectivity monitor, skeptics),
the distributed reconfiguration algorithm with termination detection,
switch-number / short-address assignment, and up*/down* routing.
"""

from repro.core.routing import link_direction

__all__ = ["link_direction"]
