"""Discrete-event simulation kernel.

The kernel is deliberately small: an integer-nanosecond event loop with
deterministic tie-breaking (`engine`), timer and periodic-task helpers
(`timers`), seeded per-component random streams (`rng`), and the per-switch
circular trace logs used by the paper's merged-log debugging technique
(`trace`).
"""
