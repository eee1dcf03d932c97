"""One decoder for the JSON the program reads from outside.

Fault specs (``repro faults --spec``), chaos specs (``REPRO_CHAOS``) and
serve requests (``POST /v1/simulate``, journal recovery, fsck repair)
arrive as parsed JSON and become frozen dataclasses through
:func:`decode`.  It is the one place that checks such a document's field
names and value types, against the target class's annotations.  Range
and membership checks (a factor in (0, 1], a known model) stay with the
classes and their callers.
"""

from __future__ import annotations

import dataclasses
import functools
import typing
from typing import Callable, Dict, FrozenSet, Tuple, Type, TypeVar, Union

T = TypeVar("T")

_SCALARS = {bool: "a boolean", int: "an integer", float: "a number", str: "a string"}


def decode(
    cls: Type[T], data: object, error: Callable[[str], Exception], what: str
) -> T:
    """Build the frozen dataclass ``cls`` from the parsed JSON ``data``.

    Rejects a value that is not an object, an unknown field, a missing
    required field and a value of the wrong JSON type for its field.
    ``bool`` is never an ``int``; an ``int`` is stored as a ``float`` where
    a float is declared.  Annotations may be ``bool``, ``int``, ``float``,
    ``str``, ``Optional[X]``, ``Tuple[X, ...]`` (a JSON list), a nested
    dataclass, or a union of dataclasses tagged by a ``kind`` class
    variable (the object names its class in a ``"kind"`` field).

    Every failure raises ``error(message)``.  ``what`` names the document
    in messages ("fault spec"); its first word names a tagged union's
    kinds ("unknown fault kind").
    """
    return _object(cls, data, "", error, what)


@functools.cache
def _schema(cls: type) -> Tuple[Dict[str, object], FrozenSet[str]]:
    """``cls``'s field annotations and the names of its required fields."""
    hints = typing.get_type_hints(cls)
    fields = dataclasses.fields(cls)
    return (
        {f.name: hints[f.name] for f in fields},
        frozenset(
            f.name
            for f in fields
            if f.default is dataclasses.MISSING
            and f.default_factory is dataclasses.MISSING
        ),
    )


def _object(cls, data, path, error, what):
    where = f"{what} '{path}'" if path else what
    if type(data) is not dict:
        raise error(f"{where} must be a JSON object, got {type(data).__name__}")
    types, required = _schema(cls)
    unknown = data.keys() - types.keys()
    if unknown:
        raise error(
            f"unknown field(s) {', '.join(sorted(unknown))} in {where} "
            f"(allowed: {', '.join(sorted(types))})"
        )
    prefix = f"{path}." if path else ""
    missing = required - data.keys()
    if missing:
        raise error(f"missing field '{prefix}{min(missing)}' in {what}")
    return cls(
        **{
            name: _value(types[name], value, prefix + name, error, what)
            for name, value in data.items()
        }
    )


def _value(tp, value, path, error, what):
    if tp in _SCALARS:
        if type(value) is tp:
            return value
        if tp is float and type(value) is int:
            try:
                return float(value)
            except OverflowError:
                pass
        raise error(f"{what} '{path}' must be {_SCALARS[tp]}, got {value!r}")
    origin = typing.get_origin(tp)
    if origin is tuple:
        if type(value) not in (list, tuple):
            raise error(f"{what} '{path}' must be a list, got {value!r}")
        item = typing.get_args(tp)[0]
        return tuple(
            _value(item, v, f"{path}[{i}]", error, what) for i, v in enumerate(value)
        )
    if origin is Union:
        members = [m for m in typing.get_args(tp) if m is not type(None)]
        if value is None and len(members) < len(typing.get_args(tp)):
            return None
        if len(members) == 1:
            return _value(members[0], value, path, error, what)
        return _tagged(members, value, path, error, what)
    return _object(tp, value, path, error, what)


def _tagged(members, value, path, error, what):
    """One member of a union of dataclasses, chosen by ``value["kind"]``."""
    if type(value) is not dict:
        raise error(
            f"{what} '{path}' must be a JSON object, got {type(value).__name__}"
        )
    payload = dict(value)
    kind = payload.pop("kind", None)
    kinds = {m.kind: m for m in members}
    if type(kind) is not str or kind not in kinds:
        raise error(
            f"unknown {what.split()[0]} kind {kind!r} in {what} '{path}' "
            f"(kinds: {', '.join(sorted(kinds))})"
        )
    return _object(kinds[kind], payload, path, error, what)
