"""Host-side substrate: controllers, driver, LocalNet, bridges, workloads.

Models the Q-bus controller of section 5.2 (dual network ports, 128 KB
transmit/receive buffers, CRC checking, never sends ``stop``), the
alternate-link management of section 6.8.3, the LocalNet generic-LAN layer
with its UID cache and pipelined decryption (sections 6.8.1, 3.10), and
the bridges of section 6.8.2.  Import the module you need: the package
re-exports nothing.
"""
