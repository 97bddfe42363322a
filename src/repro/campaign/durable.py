"""One durable line format under every append-only file in a store root.

The result store's MANIFEST, WAL and segments and the serve daemon's
task journal are all the same thing on disk: newline-terminated
records, appended and fsynced, whose tail a hard kill can cut at any
byte.  This module is the one reader, repairer and damage classifier
they share (the LevelDB recipe: one log format for the WAL and the
MANIFEST).  It is stateless; file handles, crash hooks and group commit
stay with the owners.

Two line decoders cover both layouts:

* :func:`plain` — one JSON object per line (store MANIFEST, WAL,
  segments);
* :func:`unframe` — the journal's CRC frame ``{"c": <crc>, "j": <entry>}``
  as :func:`frame` writes it.  The CRC-32 is checked over the ``"j"``
  slice exactly as written, never over a re-encoding, so a line not in
  the writer's exact layout counts as damage.

Recovery reads a file with :func:`scan`, which stops at the first line
its decoder rejects; the bytes from there on are a torn tail (hard-kill
debris) or ``corrupt`` (intact records follow the bad line — bit rot),
which :func:`damage_kind` tells apart.  :func:`repair_tail` cuts the
file back to its valid prefix and restores the final newline: a cut can
land exactly at the end of a record but before its newline, and the
next append would otherwise fuse onto that record and lose both.
"""

from __future__ import annotations

import json
import os
import zlib
from collections.abc import Callable
from pathlib import Path
from typing import IO, Any, NamedTuple

#: a line decoder: the entry, or None when the line is damaged
Decode = Callable[[bytes], dict | None]

_HEAD = b'{"c": '
_MID = b', "j": '


def fsync(fh: IO[Any]) -> None:
    """Flush ``fh`` and fsync its file."""
    fh.flush()
    os.fsync(fh.fileno())


def read(path: Path) -> bytes:
    """The file's bytes; empty when it does not exist."""
    try:
        return path.read_bytes()
    except FileNotFoundError:
        return b""


class Scan(NamedTuple):
    """The intact prefix of one file, line by line."""

    #: ``(offset, length, entry)`` per decoded line, newline excluded
    lines: list[tuple[int, int, dict]]
    #: length of the valid prefix
    valid: int
    #: bytes past the valid prefix (0 when the whole file decoded)
    excess: int

    @property
    def entries(self) -> list[dict]:
        return [entry for _, _, entry in self.lines]


def scan(raw: bytes, decode: Decode) -> Scan:
    """Decode ``raw`` line by line, stopping at the first line ``decode``
    rejects; blank lines are skipped."""
    lines: list[tuple[int, int, dict]] = []
    offset = 0
    for line in raw.split(b"\n"):
        length = len(line)
        if line.strip():
            entry = decode(line)
            if entry is None:
                return Scan(lines, offset, len(raw) - offset)
            lines.append((offset, length, entry))
        offset += length + 1  # the newline
    return Scan(lines, len(raw), 0)


def plain(line: bytes) -> dict | None:
    """Decode a plain JSON-object line."""
    try:
        entry = json.loads(line)
    except ValueError:  # JSONDecodeError and UnicodeDecodeError
        return None
    # parseable junk (a bare scalar) is still junk
    return entry if isinstance(entry, dict) else None


def frame(entry: dict) -> bytes:
    """One CRC-framed line, newline included."""
    payload = json.dumps(entry, sort_keys=True).encode()
    return b'{"c": %d, "j": %s}\n' % (zlib.crc32(payload), payload)


def unframe(line: bytes) -> dict | None:
    """Decode a line :func:`frame` wrote; None on any damage."""
    if not line.startswith(_HEAD) or not line.endswith(b"}"):
        return None
    mid = line.find(_MID, len(_HEAD))
    if mid < 0:
        return None
    payload = line[mid + len(_MID):-1]
    if line[len(_HEAD):mid] != b"%d" % zlib.crc32(payload):
        return None  # flipped bit: contained like a torn tail
    return plain(payload)


def damage_kind(tail: bytes, decode: Decode) -> str:
    """Classify the bytes past a valid prefix: ``torn`` (hard-kill
    debris — no intact record follows the bad line) or ``corrupt``
    (intact records after it, which a recovery silently drops)."""
    lines = [line for line in tail.split(b"\n") if line.strip()]
    if any(decode(line) is not None for line in lines[1:]):
        return "corrupt"
    return "torn"


def repair_tail(path: Path, valid: int) -> None:
    """Make ``path`` safe to append to: cut everything past the
    ``valid`` prefix, newline-terminate the last record, and fsync
    whenever the file changed."""
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        return
    with path.open("ab") as fh:
        dirty = size > valid
        if dirty:
            fh.truncate(valid)
            size = valid
        if size:
            with path.open("rb") as rfh:
                rfh.seek(size - 1)
                if rfh.read(1) != b"\n":
                    fh.write(b"\n")
                    dirty = True
        if dirty:
            fsync(fh)
