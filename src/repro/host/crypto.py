"""Integrated encryption (sections 3.10, 6.8).

Every Autonet controller carries a pipelined encryption chip (an AMD
8068) that encrypts and decrypts packets at line rate, so secure
communication pays *no* latency or throughput penalty -- the design
argument of section 3.10.  The 26-byte encryption information field in
the packet header tells the receiving controller whether to decrypt,
which key to use, and which part of the packet is covered (Herbison's
master-key scheme; the paper defers details).

The model keeps the paper's observable behaviour: encryption is a
zero-cost transform applied in the controller pipeline; only holders of
the session key recover the payload; headers (short addresses, UIDs)
stay in the clear so switches and the learning cache work unchanged;
bridges refuse to forward encrypted packets to the Ethernet (§6.8.2).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class EncryptedPayload:
    """The ciphertext: a key id plus the (opaque) protected payload."""

    key_id: int
    ciphertext: object

    def __repr__(self) -> str:
        return f"<encrypted key_id={self.key_id}>"
