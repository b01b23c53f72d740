"""Measurement rigs and comparators the benches (and their tests) drive.

Not part of the system: each module reconstructs one of the paper's
evaluation setups or one of the things Autonet is evaluated against.

* :mod:`fifo_sizing` -- the FIFO worst case behind section 6.2's sizing
  equations.
* :mod:`fig9` -- the exact broadcast-deadlock configuration of Figure 9.
* :mod:`latency` -- the switch-latency and forwarding-rate rigs of
  sections 5.1/6.4.
* :mod:`token_ring` -- an FDDI-like 100 Mbit/s token ring (section 1's
  comparison: aggregate bandwidth limited to link bandwidth, latency
  proportional to the number of stations).
* :mod:`routing_ablation` -- spanning-tree-only forwarding (802.1-bridge
  style) and unrestricted shortest-path forwarding, the two routings
  up*/down* is measured against in E11.

The 10 Mbit/s Ethernet the bridge of section 6.8 attaches to is product
and lives in :mod:`repro.host.ethernet`.
"""
