#!/usr/bin/env python
"""Figure 9, live: the broadcast deadlock and the two-part fix.

Five switches V,W,X,Y,Z; host B's long packet to C holds W-Y while host
A's broadcast holds Z-C and waits for W-Y -- a circular wait under
no-discard flow control.  The fix: broadcast transmitters ignore `stop`
until the packet ends, and the FIFO is enlarged to hold a full broadcast.

Run:  python examples/broadcast_deadlock.py
"""

import os
import sys

# the Figure 9 rig is a bench rig: it lives under benchmarks/, beside examples/
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.rigs.fig9 import build_fig9  # noqa: E402


def show(label: str, fifo_bytes: int, fix: bool) -> None:
    scenario = build_fig9(fifo_bytes=fifo_bytes, ignore_stop_in_broadcast=fix)
    result = scenario.run()
    verdict = "DEADLOCK" if result["deadlocked"] else "completed"
    print(f"{label:<42} -> {verdict}")
    print(f"   unicast B->C : {'delivered' if result['unicast_delivered'] else 'stuck in the fabric'}")
    print(f"   broadcast    : {'delivered' if result['broadcast_delivered'] else 'lost'}")
    if result["fifo_overflow"]:
        print("   !! FIFO overflow: the broadcast was corrupted in transit")
    print()


def main() -> None:
    print(__doc__)
    show("pre-fix hardware (1024-byte FIFO, obey stop)", 1024, False)
    show("the paper's fix (4096-byte FIFO, ignore stop)", 4096, True)
    show("half a fix (1024-byte FIFO, ignore stop)", 1024, True)
    print("Conclusion: ignoring stop breaks the circular wait, but is only\n"
          "safe with a FIFO big enough to absorb any complete broadcast --\n"
          "which is why Autonet uses 4096-byte FIFOs (section 6.2).")


if __name__ == "__main__":
    main()
