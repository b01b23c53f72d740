#!/usr/bin/env python
"""The SRC deployment shape (section 5.5): an Autonet bridged to the
building Ethernet so the two behave as a single extended LAN, with the
bridge proxy-answering ARP for Ethernet hosts.

Run:  python examples/bridged_lan.py
"""

from repro import Network, line, Uid
from repro.host.ethernet import ETHERNET_BROADCAST, Ethernet
from repro.constants import SEC
from repro.host.bridge import Bridge
from repro.host.localnet import LocalNet


def main() -> None:
    net = Network(line(3), seed=3)
    net.add_host("workstation", [(0, 9), (1, 9)])
    ws = LocalNet(net.drivers["workstation"])

    # the bridge is a host with one foot on each network (section 6.8.2)
    bridge_ctrl = net.add_host("firefly-bridge", [(2, 9), (1, 8)])
    ether = Ethernet(net.sim)
    station = ether.attach(bridge_ctrl.uid, "bridge-eth")
    legacy = ether.attach(Uid(0xE7), "legacy-vax")
    bridge = Bridge(net.drivers["firefly-bridge"], station)

    print("bringing up the Autonet and the bridge...")
    assert net.run_until_converged(timeout_ns=60 * SEC)
    net.run_for(5 * SEC)

    # the legacy host announces itself on the Ethernet
    legacy_heard = []
    legacy.on_receive = lambda src, dst, size, p: legacy_heard.append((src, size))
    legacy.send(ETHERNET_BROADCAST, 64)
    net.run_for(1 * SEC)

    # the workstation sends to the legacy host's UID: the first packet
    # goes out on the Autonet broadcast address, the bridge forwards it
    # and proxy-ARPs, and the conversation settles to unicast
    print("workstation -> legacy-vax across the bridge:")
    for i, size in enumerate((900, 900, 900)):
        ws.send(Uid(0xE7), size)
        net.run_for(3 * SEC)
    print(f"  frames delivered on the Ethernet: "
          f"{[s for _src, s in legacy_heard if s == 900]}")

    entry = ws.cache.get(Uid(0xE7))
    print(f"  workstation's cache for legacy-vax -> short address "
          f"{entry.short_address:#05x} (the bridge's is "
          f"{net.drivers['firefly-bridge'].short_address:#05x})")

    # and back the other way
    ws_heard = []
    ws.on_datagram = lambda src, et, size, pkt: ws_heard.append((src, size))
    legacy.send(net.hosts["workstation"].uid, 700)
    net.run_for(2 * SEC)
    print(f"  legacy-vax -> workstation delivered: {ws_heard}")

    print(f"\nbridge counters: {bridge.b.forwarded} -> Ethernet, "
          f"{bridge.a.forwarded} -> Autonet, "
          f"{bridge.proxy_arps} proxy ARPs, {bridge.discarded} discarded")


if __name__ == "__main__":
    main()
