"""Session-key distribution for the encrypted-communication tests (section 3.10).

The controller's pipelined decryption lives in ``repro.host.localnet``
and the wire form of a sealed payload in ``repro.host.crypto``; which
host holds which key is the installation's master-key infrastructure,
which the paper leaves out and only the tests drive.
"""

from typing import Dict, Set

from repro.host.crypto import EncryptedPayload
from repro.types import Uid


class KeyStore:
    """Session-key distribution for one installation.

    Stands in for the master-key infrastructure: `grant` hands a host
    the session key of the given id; controllers consult `holds` to
    decide whether an arriving packet can be decrypted.
    """

    def __init__(self) -> None:
        self._holders: Dict[int, Set[Uid]] = {}

    def grant(self, key_id: int, uid: Uid) -> None:
        self._holders.setdefault(key_id, set()).add(uid)

    def holds(self, uid: Uid, key_id: int) -> bool:
        return uid in self._holders.get(key_id, set())

    def encrypt(self, key_id: int, payload: object) -> EncryptedPayload:
        """Pipelined: costs nothing extra on the wire or in latency."""
        return EncryptedPayload(key_id=key_id, ciphertext=payload)
