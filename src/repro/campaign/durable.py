"""One durable line format under every append-only file in a store root.

The result store's record log and the serve daemon's task journal are
the same thing on disk: newline-terminated records, appended and
fsynced, whose tail a hard kill can cut at any byte.  This module is
the one reader, repairer, damage classifier and atomic rewriter they
share.  It is stateless; file handles, crash hooks and group commit
stay with the owners.

Every line is the CRC frame ``{"c": <crc>, "j": <entry>}`` that
:func:`frame` writes, and :func:`decode` is the one reader.  The CRC-32
is checked over the ``"j"`` slice exactly as written, never over a
re-encoding, so a line not in the writer's exact layout counts as
damage.  :func:`decode` also reads the unframed JSON-object lines that
result stores wrote before they framed theirs, but never a line that
starts like a frame and fails its CRC, nor an object that still carries
``"c"`` or ``"j"`` (a frame whose head byte flipped).  :func:`reframe`
turns such a legacy line into a frame, so the store's upgrade of a
legacy directory writes only framed lines.

Recovery reads a file with :func:`scan`, which stops at the first line
its decoder rejects; the bytes from there on are a torn tail (hard-kill
debris) or ``corrupt`` (intact records follow the bad line — bit rot),
which :func:`damage_kind` tells apart.  :func:`repair_tail` cuts the
file back to its valid prefix and restores the final newline: a cut can
land exactly at the end of a record but before its newline, and the
next append would otherwise fuse onto that record and lose both.

Both owners compact by :func:`rewrite`: the new content goes to a temp
file beside the old one, is fsynced and renamed over it, and the
directory is fsynced so the rename itself is durable.  A crash leaves
the old file or the new one, both whole, plus at most a stray temp file
(``<name>.tmp``) that nothing reads.
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

#: suffix of :func:`rewrite`'s temp file
TMP_SUFFIX = ".tmp"

_HEAD = b'{"c": '
_MID = b', "j": '


def fsync(fh: IO[Any]) -> None:
    """Flush ``fh`` and fsync its file."""
    fh.flush()
    os.fsync(fh.fileno())


def sync_dir(path: Path) -> None:
    """fsync the directory ``path``, making a file created or renamed
    in it durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


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


def decode(line: bytes) -> dict | None:
    """Decode one durable line: a frame, or a legacy unframed
    JSON-object line; None on any damage."""
    if line.startswith(_HEAD):
        return unframe(line)
    entry = plain(line)
    # a frame whose head byte flipped still parses: damage, not legacy
    return None if entry is None or "c" in entry or "j" in entry else entry


def reframe(line: bytes, entry: dict) -> bytes:
    """``line``, which :func:`decode` read as ``entry``, as a frame
    without its newline: a frame's own bytes, a legacy line framed."""
    return line if line.startswith(_HEAD) else frame(entry)[:-1]


def damage_kind(tail: bytes, decode: Decode) -> str:
    """Classify the bytes past a valid prefix: ``torn`` (hard-kill
    debris — a cut line, and no intact record after it) or ``corrupt``
    (a bad line that is still a whole JSON object, which no cut leaves
    behind, or intact records after the bad line, which a recovery
    silently drops)."""
    lines = [line for line in tail.split(b"\n") if line.strip()]
    if plain(lines[0]) is not None or any(
            decode(line) is not None for line in lines[1:]):
        return "corrupt"
    return "torn"


def rewrite(path: Path, data: bytes,
            before_rename: Callable[[], None] | None = None) -> None:
    """Replace ``path`` by ``data`` atomically and durably: temp file,
    fsync, rename, fsync of the directory.  ``before_rename`` (a crash
    hook) runs once the temp file is durable."""
    tmp = path.with_name(path.name + TMP_SUFFIX)
    with tmp.open("wb") as fh:
        fh.write(data)
        fsync(fh)
    if before_rename is not None:
        before_rename()
    tmp.replace(path)
    sync_dir(path.parent)


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
