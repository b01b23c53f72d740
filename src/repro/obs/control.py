"""Control-plane cost accounting: what reconfiguration itself costs.

The paper reports reconfiguration *time*; it never accounts for the
control traffic a reconfiguration injects -- the TreePosition floods,
acks, stable reports, and ConfigMsg topology payloads that all ride the
same links as host data.  :class:`ControlAccounting` counts every
control-packet send at the Autopilot transport layer, keyed by

* **epoch** -- the 64-bit epoch stamped on the sending engine at send
  time, so the volume of one reconfiguration is one slice;
* **message type** -- the ``ControlMessage`` subclass name; and
* **phase** -- the sending switch's reconfiguration phase (see
  :meth:`~repro.core.reconfig.ReconfigEngine.phase`): ``election``
  (steps 1-3: table cleared, tree forming), ``loading`` (step 5:
  configuration adopted, forwarding table not yet loaded), or
  ``steady`` (configured and carrying traffic).

Retransmissions (the reliable-delivery retry path in
``core/reconfig.py``) and SRP forwarding/serving (``core/srp.py``) are
counted separately so the overhead of loss recovery and of the
debugging plane are distinguishable from first-transmission volume.

The layer follows the repro.obs null fast path: ``sim.control`` is
``None`` unless a :class:`ControlAccounting` is attached
(``Network(..., control=True)``), and every hot-path hook is one
attribute load plus a ``None`` test (rule RS306 of
``tests/test_discipline.py``).  Enabled,
it is purely observational -- counting allocates no simulator events and
never perturbs schedule order, so enabling it cannot change a run.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

#: control-message phases an engine can report (see ReconfigEngine.phase)
PHASES = ("election", "loading", "steady")


class ControlAccounting:
    """Per-epoch control-packet counters, keyed (epoch, type, phase)."""

    __slots__ = ("_cells", "_retx", "_srp", "packets", "bytes")

    def __init__(self) -> None:
        #: (epoch, message type, phase) -> [packets, wire bytes]
        self._cells: Dict[Tuple[int, str, str], List[int]] = {}
        #: (epoch, message type) -> retransmitted packets
        self._retx: Dict[Tuple[int, str], int] = {}
        #: (command, event) -> SRP occurrences (event: hop/served/reply)
        self._srp: Dict[Tuple[str, str], int] = {}
        self.packets = 0
        self.bytes = 0

    # -- hot-path hooks (see RS306: call via one-load + None-test) ------------------

    def record_send(
        self, epoch: int, msg_type: str, phase: str, wire_bytes: int
    ) -> None:
        """One control packet handed to the switch for transmission."""
        self.packets += 1
        self.bytes += wire_bytes
        cell = self._cells.get((epoch, msg_type, phase))
        if cell is None:
            self._cells[(epoch, msg_type, phase)] = [1, wire_bytes]
        else:
            cell[0] += 1
            cell[1] += wire_bytes

    def record_retx(self, epoch: int, msg_type: str) -> None:
        """A reliable-delivery retransmission (attempt > 1)."""
        key = (epoch, msg_type)
        self._retx[key] = self._retx.get(key, 0) + 1

    def record_srp(self, command: str, event: str) -> None:
        """One SRP processing step: ``hop``, ``served``, or ``reply``."""
        key = (command, event)
        self._srp[key] = self._srp.get(key, 0) + 1

    # -- queries ---------------------------------------------------------------------

    def epochs(self) -> List[int]:
        return sorted({epoch for epoch, _t, _p in self._cells})

    def epoch_packets(self, epoch: int) -> int:
        return sum(
            cell[0] for key, cell in self._cells.items() if key[0] == epoch
        )

    def epoch_bytes(self, epoch: int) -> int:
        return sum(
            cell[1] for key, cell in self._cells.items() if key[0] == epoch
        )

    def retransmissions(self, epoch: Optional[int] = None) -> int:
        if epoch is None:
            return sum(self._retx.values())
        return sum(
            count for key, count in self._retx.items() if key[0] == epoch
        )

    def by_type(self, epoch: Optional[int] = None) -> Dict[str, Dict[str, int]]:
        """``{message type: {"packets": n, "bytes": b}}`` for one epoch
        (or all epochs summed when ``epoch`` is None)."""
        out: Dict[str, Dict[str, int]] = {}
        for (cell_epoch, msg_type, _phase), cell in self._cells.items():
            if epoch is not None and cell_epoch != epoch:
                continue
            entry = out.setdefault(msg_type, {"packets": 0, "bytes": 0})
            entry["packets"] += cell[0]
            entry["bytes"] += cell[1]
        return dict(sorted(out.items()))

    def by_phase(self, epoch: Optional[int] = None) -> Dict[str, Dict[str, int]]:
        """``{phase: {"packets": n, "bytes": b}}``, same slicing rules."""
        out: Dict[str, Dict[str, int]] = {}
        for (cell_epoch, _msg_type, phase), cell in self._cells.items():
            if epoch is not None and cell_epoch != epoch:
                continue
            entry = out.setdefault(phase, {"packets": 0, "bytes": 0})
            entry["packets"] += cell[0]
            entry["bytes"] += cell[1]
        return dict(sorted(out.items()))

    def summary(self) -> Dict[str, Any]:
        """The JSON-ready rollup embedded in ``Network.telemetry()``."""
        return {
            "packets": self.packets,
            "bytes": self.bytes,
            "retransmissions": self.retransmissions(),
            "by_type": self.by_type(),
            "by_phase": self.by_phase(),
            "epochs": {
                str(epoch): {
                    "packets": self.epoch_packets(epoch),
                    "bytes": self.epoch_bytes(epoch),
                    "retransmissions": self.retransmissions(epoch),
                    "by_type": self.by_type(epoch),
                    "by_phase": self.by_phase(epoch),
                }
                for epoch in self.epochs()
            },
            "srp": {
                f"{command}/{event}": count
                for (command, event), count in sorted(self._srp.items())
            },
        }
