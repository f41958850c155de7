"""The journal codec: how every JSONL file here is written and read back.

The result stream, the checkpoint journal, the telemetry stream and trace
files share one contract (docs/OBSERVABILITY.md, "Journal files"):

* **Header.** Line 1 of a stream, checkpoint or telemetry file is one
  ``json.dumps(header, sort_keys=True)`` object, checked by
  :func:`check_header`.  Trace files have none.
* **One flushed line per record.** :func:`open_journal` returns a
  line-buffered file: each line is one ``write``, flushed by it.  Trace
  sinks stay buffered (a flush per simulated event would be a system call
  per event) and share only the reader.
* **Torn tail.** A final line without its ``\\n`` is a crash mid-append:
  :class:`JournalScan` drops it; its ``offset`` is the valid prefix.
* **Corrupt line.** A complete line that is not a JSON object raises
  :class:`CorruptLineError`.  Blank lines are skipped.

Readers differ only in what they do with that: the stream and trace
readers warn on a torn tail and raise on corruption; the checkpoint warns
on both and keeps the valid prefix (lost trials re-execute); the telemetry
readers tail live files, so a torn tail is silent and corruption raises.
"""

from __future__ import annotations

import json
import os
import warnings
from typing import IO, Any, Iterator, Mapping

from repro.sim.errors import ConfigurationError


class CorruptLineError(ConfigurationError):
    """A complete line of a JSONL file that is not a JSON object."""


class SchemaVersionError(ConfigurationError):
    """A file's schema ``version`` is not one of the ``supported`` ones."""

    def __init__(self, version: Any, supported: tuple[int, ...], message: str) -> None:
        self.version, self.supported = version, tuple(supported)
        super().__init__(message)


def check_header(header: Mapping[str, Any], schema: str,
                 versions: tuple[int, ...], label: str, path: str = "") -> None:
    """Raise unless ``header`` names ``schema`` at one of ``versions``."""
    where = f"{path}: " if path else ""
    if header.get("schema") != schema:
        raise ConfigurationError(
            f"{where}not a {schema} file (schema={header.get('schema')!r})")
    version = header.get("version")
    if version not in versions:
        raise SchemaVersionError(version, versions, (
            f"{where}unsupported {label} version {version!r}; this release "
            f"reads {schema} versions {versions[0]}..{versions[-1]}"))


def open_journal(path: str, header: Mapping[str, Any] | None = None,
                 keep: int | None = None) -> IO[str]:
    """Open ``path`` to append lines: a new file with ``header`` as line 1,
    or — with ``keep`` — the existing file cut back to its first ``keep``
    bytes (its valid prefix).  The file is line-buffered, so writing one
    whole line is one write and one flush."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    journal = open(path, "w" if keep is None else "a", encoding="utf-8",
                   buffering=1)
    if keep is not None:
        journal.truncate(keep)
    elif header is not None:
        journal.write(json.dumps(header, sort_keys=True) + "\n")
    return journal


class JournalScan:
    """Iterates the records (complete lines) of a JSONL file; ``offset`` is
    the length of the valid prefix read so far, ``line`` the count of
    complete lines, ``torn`` the length of a torn tail that ended the pass.
    Iterating again resumes at ``offset``: how a live file is tailed."""

    def __init__(self, path: Any) -> None:
        self.path = str(path)
        self.offset, self.line, self.torn = 0, 0, 0

    def __iter__(self) -> Iterator[dict[str, Any]]:
        self.torn = 0
        with open(self.path, "rb") as handle:
            handle.seek(self.offset)
            for raw in handle:
                if raw[-1] != 10:  # no b"\n"
                    self.torn = len(raw)
                    return
                self.line += 1
                try:
                    record = json.loads(raw.decode())
                except ValueError:
                    record = None  # and a blank line, which is skipped
                if type(record) is not dict and not raw.isspace():
                    where = f"corrupt line {self.line}" if self.line > 1 else "bad first line"
                    raise CorruptLineError(
                        f"{self.path}: {where}: not a JSON object (and not "
                        "the last line, which a torn append would leave)")
                self.offset += len(raw)
                if record is not None:
                    yield record

    def warn_torn(self, kind: str, consequence: str) -> None:
        """The post-mortem readers' warning for a torn tail, if any."""
        if self.torn:
            warnings.warn(
                f"{self.path}: torn final {kind} line dropped ({self.torn} "
                f"bytes; crash mid-append?); {consequence}",
                RuntimeWarning, stacklevel=3)


def encode_value(value: Any) -> Any:
    """JSON-encode event data, marking tuples and frozensets."""
    if isinstance(value, tuple):
        return {"__tuple__": [encode_value(v) for v in value]}
    if isinstance(value, frozenset):
        return {"__frozenset__": sorted((encode_value(v) for v in value), key=repr)}
    if isinstance(value, (list, dict, str, int, float, bool)) or value is None:
        return value
    return {"__repr__": repr(value)}


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value` (best effort for ``__repr__`` markers)."""
    if isinstance(value, dict):
        if "__tuple__" in value:
            return tuple(decode_value(v) for v in value["__tuple__"])
        if "__frozenset__" in value:
            return frozenset(decode_value(v) for v in value["__frozenset__"])
        if "__repr__" in value:
            return value["__repr__"]
        return {key: decode_value(v) for key, v in value.items()}
    return value


def encode_event(time: float, kind: str, data: dict[str, Any]) -> dict[str, Any]:
    """The canonical one-line JSON record for a trace event."""
    return {
        "t": time,
        "k": kind,
        "d": {key: encode_value(value) for key, value in data.items()},
    }
