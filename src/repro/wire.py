"""One wire codec for the declarative specs: the JSON record, presets, ``resolve``
and the rule for malformed input (docs/API.md, "Spec wire format")."""

import json
from contextlib import contextmanager
from dataclasses import fields
from functools import cache
from typing import Any, ClassVar, Collection, Iterator, Mapping

from repro.sim.errors import ConfigurationError


@cache
def field_defaults(cls: type) -> dict[str, Any]:
    """``{name: default}`` of a dataclass, in field order (shared: do not mutate)."""
    return {spec_field.name: spec_field.default for spec_field in fields(cls)}


def mapping(record: Any, label: str) -> dict[str, Any]:
    """A mutable copy of ``record``; ``ConfigurationError`` unless a mapping."""
    if not isinstance(record, Mapping):
        raise ConfigurationError(f"{label} must be a mapping, got {type(record).__name__}")
    return dict(record)


def check_header(record: dict[str, Any], schema: str, version: int, label: str) -> None:
    """Pop the optional ``schema``/``version`` keys; raise on a wrong value."""
    found = record.pop("schema", schema)
    if found != schema:
        raise ConfigurationError(f"not a {schema} document (schema={found!r})")
    found = record.pop("version", version)
    if found != version:
        raise ConfigurationError(f"unsupported {label} version {found!r}; "
                                 f"this release reads version {version}")


def reject_unknown(record: Mapping, known: Collection[str], label: str) -> None:
    """Refuse keys outside ``known``: a typo must not pass silently."""
    unknown = sorted((key for key in record if key not in known), key=str)
    if unknown:
        raise ConfigurationError(f"unknown {label} field(s) {unknown}; "
                                 f"known: {', '.join(sorted(known))}")


@contextmanager
def malformed(label: str) -> Iterator[None]:
    """Turn a wrong-typed value's ``TypeError``/``ValueError`` (``OverflowError``:
    an infinite integer) into a ``ConfigurationError`` naming the family."""
    try:
        yield
    except (TypeError, ValueError, OverflowError) as error:
        raise ConfigurationError(f"bad {label}: {error}") from None


class WireSpec:
    """Base of a frozen-dataclass spec family.  A subclass sets ``LABEL`` and,
    unless it is an element codec, ``SCHEMA``, ``PRESETS`` and ``_active`` (its
    rule for what counts as "off").  It adds no dataclass field, so ``repr``
    (which ``plan_digest`` hashes) is the subclass's own."""

    SCHEMA: ClassVar[str] = ""  # "" = element codec, no header
    VERSION: ClassVar[int] = 1
    LABEL: ClassVar[str]
    PRESETS: ClassVar[dict[str, Any]]
    OMIT_NONE: ClassVar[frozenset[str]] = frozenset()  # off the wire if None

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON form (lossless; see :meth:`from_dict`)."""
        record = {"schema": self.SCHEMA, "version": self.VERSION} if self.SCHEMA else {}
        for name in field_defaults(type(self)):
            value = getattr(self, name)
            if value is not None or name not in self.OMIT_NONE:
                record[name] = _plain(value)
        return record

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, indent 2, trailing newline)."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_dict(cls, record: Any) -> Any:
        """Rebuild a spec; the header and every defaulted field are optional."""
        params = mapping(record, cls.LABEL)
        if cls.SCHEMA:
            check_header(params, cls.SCHEMA, cls.VERSION, cls.LABEL)
        reject_unknown(params, field_defaults(cls), cls.LABEL)
        with malformed(cls.LABEL):
            return cls(**params)

    @classmethod
    def from_json(cls, text: str) -> Any:
        with malformed(f"{cls.LABEL} JSON"):
            record = json.loads(text)
        return cls.from_dict(record)

    @classmethod
    def preset(cls, name: str) -> Any:
        """A builtin preset by name (``ConfigurationError`` if unknown)."""
        try:
            return cls.PRESETS[name]
        except KeyError:
            raise ConfigurationError(f"unknown {cls.LABEL} preset {name!r}; builtin "
                                     f"presets: {', '.join(cls.PRESETS)}") from None

    @classmethod
    def resolve(cls, value: Any) -> Any:
        """A spec, a preset name or ``None`` -> what the family installs."""
        if isinstance(value, str):
            value = cls.preset(value)
        elif value is not None and not isinstance(value, cls):
            raise ConfigurationError(
                f"{cls.LABEL} must be a {cls.__name__}, a builtin preset "
                f"name or None, got {type(value).__name__}")
        return cls._active(value)


def _plain(value: Any) -> Any:
    if isinstance(value, WireSpec):
        return value.to_dict()
    return [_plain(v) for v in value] if isinstance(value, tuple) else value
