"""Chaos campaigns: adversarial fault schedules against the reconfiguration
protocol.

The paper's central claim is that Autonet reconfigures automatically under
*any* sequence of link and switch failures (abstract, section 4.4).  Hand
written single-fault tests cannot substantiate "any sequence"; this package
samples seeded, declarative schedules of faults -- link cuts and flap
trains, noisy cables, switch crashes and restarts, host power-offs, and
faults triggered mid-reconfiguration on tracer span events -- runs them
against simulated installations, and checks liveness plus the section
6.6 invariants (:mod:`repro.analysis.invariants`) at every quiescent
point.  Failing schedules are shrunk to minimal reproducers and
serialized for replay.

Layout:

* :mod:`repro.chaos.events`   -- the declarative fault-event vocabulary
* :mod:`repro.chaos.schedule` -- schedules, sampling, and the injector
* :mod:`repro.chaos.campaign` -- the seeded campaign runner + bench export
* :mod:`repro.chaos.shrink`   -- ddmin schedule minimization
* :mod:`repro.chaos.replay`   -- reproducer artifacts and replay

CLI: ``python -m repro.chaos --schedules 50 --topology torus-3x4 --seed 0``
"""

# loaded with the package, so a first campaign pays no import inside its run
from repro.chaos import campaign, events, replay, schedule, shrink  # noqa: F401
