"""Load and save AS topologies in the CAIDA ``serial-1`` relationship format.

This is the interchange format of the AS-relationship datasets the paper's
topology trace [16] derives from.  Each non-comment line is::

    <as1>|<as2>|<relationship>

where relationship ``-1`` means *as1 is a provider of as2* (P2C) and ``0``
means the ASes are mutual peers.  Comment lines start with ``#``.

Having a real-trace loader means the synthetic-topology substitution
(DESIGN.md Section 2) is drop-in replaceable: point :func:`load_caida` at a
downloaded CAIDA/UCLA file and every experiment runs on the real Internet.
"""

from __future__ import annotations

import io
import os

from ..errors import TopologyError
from .asgraph import ASGraph
from .relationships import Relationship

__all__ = ["load_caida", "loads_caida", "save_caida", "dumps_caida"]

#: the largest AS number (ASNs are 32-bit unsigned, RFC 6793).
_MAX_ASN = 2**32 - 1


def loads_caida(text: str, *, freeze: bool = True) -> ASGraph:
    """Parse a CAIDA serial-1 relationship document from a string.

    An AS number is plain decimal digits in ``0..4294967295`` and the
    relationship is exactly ``-1`` or ``0``; anything else (a sign on an
    AS number, ``1_0``, a space inside a field, a 33-bit number) raises
    :class:`TopologyError` naming the line.
    """
    g = ASGraph()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|")
        if len(parts) < 3:
            raise TopologyError(f"line {lineno}: expected 'as1|as2|rel', got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise TopologyError(f"line {lineno}: non-integer field in {raw!r}") from exc
        for field in parts[:2]:
            if not (field.isascii() and field.isdigit() and int(field) <= _MAX_ASN):
                raise TopologyError(
                    f"line {lineno}: AS number {field!r} is not a plain "
                    f"decimal in 0..{_MAX_ASN}"
                )
        rel = parts[2]
        if rel == "-1":
            g.add_p2c(a, b)
        elif rel == "0":
            g.add_peering(a, b)
        else:
            raise TopologyError(
                f"line {lineno}: unknown relationship code {rel!r} (want -1 or 0)"
            )
    if freeze:
        g.freeze()
    return g


def load_caida(path: str | os.PathLike, *, freeze: bool = True) -> ASGraph:
    """Load a CAIDA serial-1 relationship file from disk."""
    with io.open(path, "r", encoding="utf-8") as fh:
        return loads_caida(fh.read(), freeze=freeze)


def dumps_caida(graph: ASGraph, *, header: str | None = None) -> str:
    """Serialize ``graph`` to the serial-1 format.

    P2C links are written provider-first with code ``-1``; peering links
    with code ``0`` and the smaller AS number first.
    """
    out: list[str] = []
    if header:
        for line in header.splitlines():
            out.append(f"# {line}")
    for u, v, rel in graph.links():
        if rel is Relationship.CUSTOMER:  # v is u's customer => u provider
            out.append(f"{u}|{v}|-1")
        elif rel is Relationship.PROVIDER:  # u is v's customer
            out.append(f"{v}|{u}|-1")
        else:
            out.append(f"{u}|{v}|0")
    return "\n".join(out) + "\n"


def save_caida(graph: ASGraph, path: str | os.PathLike, *, header: str | None = None) -> None:
    """Write ``graph`` to ``path`` in the serial-1 format."""
    with io.open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_caida(graph, header=header))
