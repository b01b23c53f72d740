"""Per-switch circular event logs and the merged-log debugging tool.

Section 6.7 of the paper: each Autopilot keeps an in-memory circular log of
reconfiguration events, timestamped with *local* clock values; an SRP
protocol retrieves the logs, and merging them -- after normalizing the
timestamps -- yields a complete history of a reconfiguration.  We model the
local clocks as the global simulation time plus a per-switch offset, so the
normalization step is a real (and testable) operation rather than a no-op.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, List

#: categories of the section 6.7 events, shared by the hook sites that
#: emit them and the flight recorder (the ``cat`` field of its export)
CAT_MESSAGE = "msg"
CAT_PORT = "port"
CAT_TIMER = "timer"
CAT_EPOCH = "epoch"
CAT_TABLE = "table"
CAT_LOG = "log"  # bridged TraceLog records

#: records one switch's circular log holds
LOG_CAPACITY = 4096


@dataclass(frozen=True)
class TraceEntry:
    """One log record, stamped with the owner's local clock."""

    local_time: int
    component: str
    event: str
    detail: str = ""

    def normalized(self, offset: int) -> "TraceEntry":
        return TraceEntry(self.local_time - offset, self.component, self.event, self.detail)


class TraceLog:
    """Bounded circular log of events for one component (switch)."""

    def __init__(self, component: str, clock_offset: int = 0) -> None:
        self.component = component
        #: difference between this component's clock and global time; the
        #: merge normalizes by it, so a wrong value is a wrong normalization
        self.clock_offset = clock_offset
        self._entries: Deque[TraceEntry] = deque(maxlen=LOG_CAPACITY)
        #: total records ever logged (records beyond capacity are dropped
        #: from the log but still counted, like a real circular buffer)
        self.total_logged = 0

    def log(self, global_time: int, event: str, detail: str = "") -> None:
        self._entries.append(
            TraceEntry(global_time + self.clock_offset, self.component, event, detail)
        )
        self.total_logged += 1

    def entries(self) -> List[TraceEntry]:
        return list(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)


class MergedLog:
    """Merge per-switch logs into one globally ordered history (section 6.7)."""

    def __init__(self) -> None:
        self._logs: Dict[str, TraceLog] = {}

    def attach(self, log: TraceLog) -> None:
        self._logs[log.component] = log

    def merged(self) -> List[TraceEntry]:
        """Return all entries sorted by time normalized by each log's
        ``clock_offset``; merging is only useful when that normalization
        is precise (section 6.7)."""
        entries: List[TraceEntry] = []
        for log in self._logs.values():
            entries.extend(entry.normalized(log.clock_offset) for entry in log.entries())
        entries.sort(key=lambda e: (e.local_time, e.component))
        return entries

    def components(self) -> Iterable[str]:
        return self._logs.keys()
