"""Tag-bit carriers — the paper's three deployment vehicles.

Section III-A4: "Multi-Protocol Label Switching (MPLS) is widely deployed
in ASes, where a label is inserted on each incoming packet at entering
point and removed at the exit point.  This is just right for 'Tag-Check'
strategy by consuming an unused bit in the label.  Even for the ASes
without using MPLS, it could be accomplished by taking one reserved bit in
IP header or allocate one bit in IP option field."

Three carriers implement one interface; the forwarding engine is agnostic:

* :class:`ReservedBitCarrier` — one reserved IP-header bit: zero wire
  overhead (the default);
* :class:`MplsLabelCarrier` — push a label at the AS entry point, read and
  pop it at the exit point: 4 bytes on the wire while inside the AS,
  matching real MPLS shim headers;
* :class:`IpOptionCarrier` — an IP option: 4 bytes end-to-end once set
  (options survive past the AS).
"""

from __future__ import annotations

import typing

from ..dataplane.packet import Packet

__all__ = [
    "TagCarrier",
    "ReservedBitCarrier",
    "MplsLabelCarrier",
    "IpOptionCarrier",
]

#: The bit position used inside an MPLS label / option word.
_TAG_BIT = 0x1
#: Base label value marking "MIFO label present".
_MIFO_LABEL = 0x4D0


class TagCarrier(typing.Protocol):
    """How the valley-free bit rides in the packet across one AS."""

    def tag(self, packet: Packet, bit: bool) -> None:
        """Attach/overwrite the bit at the AS entry point."""
        ...  # pragma: no cover

    def read(self, packet: Packet) -> bool:
        """Read the bit at the AS exit point."""
        ...  # pragma: no cover

    def strip(self, packet: Packet) -> None:
        """Remove per-AS state before the packet leaves the AS."""
        ...  # pragma: no cover


class ReservedBitCarrier:
    """One reserved IP-header bit — free, nothing to strip."""

    wire_overhead = 0

    def tag(self, packet: Packet, bit: bool) -> None:
        """Write the deflection bit directly on the packet."""
        packet.tag_bit = bit

    def read(self, packet: Packet) -> bool:
        """Read the deflection bit."""
        return packet.tag_bit

    def strip(self, packet: Packet) -> None:
        """Nothing to remove: the bit travels in the fixed header."""


class MplsLabelCarrier:
    """MPLS shim label pushed at ingress, popped at egress (4 bytes)."""

    wire_overhead = 4

    def tag(self, packet: Packet, bit: bool) -> None:
        """Set the bit on the top MPLS label (push or re-tag)."""
        label = _MIFO_LABEL | (_TAG_BIT if bit else 0)
        if packet.mpls_stack:
            packet.mpls_stack[-1] = label  # re-tag within the same AS
        else:
            packet.mpls_stack.append(label)
            packet.size += self.wire_overhead
        packet.tag_bit = bit  # keep the logical view coherent

    def read(self, packet: Packet) -> bool:
        """Read the bit from the top MPLS label."""
        if packet.mpls_stack:
            return bool(packet.mpls_stack[-1] & _TAG_BIT)
        return packet.tag_bit

    def strip(self, packet: Packet) -> None:
        """Pop the MPLS label and its wire overhead."""
        if packet.mpls_stack:
            packet.mpls_stack.pop()
            packet.size -= self.wire_overhead


class IpOptionCarrier:
    """An IP option word — 4 bytes that stay on the packet once added."""

    wire_overhead = 4

    def tag(self, packet: Packet, bit: bool) -> None:
        """Set the bit in an IP option (adds overhead once)."""
        if not packet.has_tag_option:
            packet.has_tag_option = True
            packet.size += self.wire_overhead
        packet.tag_bit = bit

    def read(self, packet: Packet) -> bool:
        """Read the bit from the IP option."""
        return packet.tag_bit

    def strip(self, packet: Packet) -> None:
        """Nothing to remove: options are end-to-end, and downstream ASes
        overwrite the bit."""
