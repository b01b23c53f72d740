"""Physical and protocol constants for the Autonet reproduction.

All times in the simulator are integer nanoseconds.  One byte slot on a
100 Mbit/s TAXI link takes 80 ns (the switch clock period in the paper,
section 5.1).  Propagation delay follows section 6.2: a link of L km holds
W = 64.1 * L bytes in flight one way.
"""

# -- time units (nanoseconds) -------------------------------------------------
NS = 1
US = 1_000
MS = 1_000_000
SEC = 1_000_000_000

# -- link timing (section 5.1 / 6.2) ------------------------------------------
#: one slot (one byte or one command) on a 100 Mbit/s link
BYTE_TIME_NS = 80
#: every 256th slot carries a flow-control directive (section 6.1)
FLOW_CONTROL_SLOT_PERIOD = 256
#: bytes in flight one-way per kilometre of cable (W = 64.1 * L, section 6.2)
BYTES_IN_FLIGHT_PER_KM = 64.1

# -- switch hardware (sections 5.1, 6.2, 6.4) ---------------------------------
#: ports per switch (12 external + port 0 to the control processor)
PORTS_PER_SWITCH = 12
#: internal port number of the control processor
CONTROL_PROCESSOR_PORT = 0
#: receive FIFO size in bytes (enlarged for broadcast deadlock freedom)
DEFAULT_FIFO_BYTES = 4096
#: FIFO issues ``stop`` when more than half full (f = 0.5 in section 6.2)
DEFAULT_STOP_FRACTION = 0.5
#: cut-through forwarding may begin once this many bytes have arrived
CUT_THROUGH_BYTES = 25
#: the router makes one forwarding decision every 6 clocks of 80 ns
ROUTER_DECISION_TIME_NS = 480
#: switch transit latency bounds, in 80 ns clocks (section 5.1)
MIN_TRANSIT_CLOCKS = 26
MAX_TRANSIT_CLOCKS = 32

# -- addressing (section 6.3) --------------------------------------------------
#: width of a short address in the prototype
SHORT_ADDRESS_BITS = 11
#: bits of a short address naming the port within a switch (ports 0..15)
PORT_NUMBER_BITS = 4

#: reserved short addresses (section 6.3, low 11 bits of the listed values)
ADDR_LOCAL_SWITCH = 0x0000        # from a host: control processor of local switch
ADDR_ONE_HOP_BASE = 0x0001        # 0x0001-0x000F: one-hop switch-to-switch
ADDR_ONE_HOP_LIMIT = 0x000F
ADDR_FIRST_ASSIGNABLE = 0x0010    # first short address the root may assign
ADDR_RESERVED_BASE = 0x7F0        # FFF0-FFFB truncated to 11 bits: discarded
ADDR_LOOPBACK = 0x7FC             # FFFC: loop back at the local switch
ADDR_BROADCAST_ALL = 0x7FD        # FFFD: every switch and every host
ADDR_BROADCAST_SWITCHES = 0x7FE   # FFFE: every switch
ADDR_BROADCAST_HOSTS = 0x7FF      # FFFF: every host
ADDR_LAST_ASSIGNABLE = 0x7EF      # FFEF truncated to 11 bits

# -- packets (section 6.8) -----------------------------------------------------
AUTONET_HEADER_BYTES = 32
#: maximum data payload of a normal Autonet packet
MAX_DATA_BYTES = 64 * 1024
#: broadcast and Ethernet-bridged packets respect the Ethernet data limit
MAX_BROADCAST_DATA_BYTES = 1500
CRC_BYTES = 8
#: maximum broadcast packet on the wire (Ethernet max + Autonet header), §6.2
MAX_BROADCAST_PACKET_BYTES = 1550

# -- host driver failover (section 6.8.3) ---------------------------------------
#: normal keep-alive probe period to the local switch
HOST_PROBE_PERIOD_NS = 2 * SEC
#: give up on the active link after this long without a switch response
HOST_FAILOVER_TIMEOUT_NS = 3 * SEC
#: retry the other link after this long if the new link is also dead
HOST_SWITCHBACK_TIMEOUT_NS = 10 * SEC

# -- UID cache (section 6.8.1) ---------------------------------------------------
#: freshness window around a cache use that suppresses ARP traffic
UID_CACHE_FRESH_NS = 2 * SEC
#: ARP response wait before falling back to broadcast
ARP_TIMEOUT_NS = 2 * SEC
