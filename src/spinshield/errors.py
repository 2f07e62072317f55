"""Exception types, the record checks shared across the package, and the one
codec of its dataclass records, :func:`to_record` and :func:`from_record`."""

import dataclasses
import functools
import json
import typing
from pathlib import Path
from typing import Callable, Collection


class DataFormatError(Exception):
    """A file or record violates one of the serialization schemas."""


class NumericalAbort(Exception):
    """A non-finite value appeared where the pipeline requires finiteness."""


def read_json(path: Path, what: str) -> typing.Any:
    """The JSON document in the file ``path``, which holds a ``what``; a
    missing file or bad JSON is a :class:`DataFormatError` naming the file."""
    path = Path(path)
    if not path.exists():
        raise DataFormatError(f"{what} not found: {path}")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataFormatError(f"bad {what} JSON in {path}: {exc}") from exc


def json_int(value: object, name: str) -> int:
    """``value`` if it is an integer as JSON decodes one.  ``int()`` would
    truncate a float and read a bool or a numeric string, so those are a
    ``TypeError`` here, which a decoder words under its own prefix."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def json_float(value: object, name: str) -> float:
    """``float(value)`` if ``value`` is a number as JSON decodes one, an
    integer included.  A bool or a numeric string, which ``float()`` would
    read, is a ``TypeError`` here, as for :func:`json_int`."""
    number = float(value)  # type: ignore[arg-type]
    if type(value) is bool or type(value) is str:
        raise TypeError(f"{name} must be a number, got {value!r}")
    return number


def json_fields(value: object, known: Collection[str], where: str = "") -> dict:
    """``value`` if it is a JSON object whose every key is one of ``known``.
    A decoder that reads each field with a default would pass over a
    misspelt key, so an unknown one is a ``TypeError`` here, which a decoder
    words under its own prefix."""
    if not isinstance(value, dict):
        raise TypeError(f"{where + ' ' if where else ''}must be a JSON object, got {type(value).__name__}")
    unknown = [key for key in value if key not in known]
    if unknown:
        raise TypeError(f"unknown field{'s' if len(unknown) > 1 else ''} {', '.join(map(repr, unknown))}"
                        + (f" in {where}" if where else ""))
    return value


def _codec(hint: object, name: str | tuple[str, ...]) -> tuple[Callable | None, Callable | None]:
    """How a value of type ``hint`` is written as JSON and read back (None: as it
    is); integers are read as JSON integers, and sequences element by element
    under ``name`` (a tuple of names for the positions of a fixed-length tuple)."""
    if hint is int:
        return None, functools.partial(json_int, name=name)
    if hint is float:
        return None, functools.partial(json_float, name=name)
    if dataclasses.is_dataclass(hint):
        return to_record, functools.partial(from_record, hint, where=name)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is list or origin is tuple and args[-1:] == (Ellipsis,):
        encode, decode = _codec(args[0], name)
        return (list if encode is None else lambda value: list(map(encode, value)),
                origin if decode is None else lambda value: origin(map(decode, value)))
    if origin is not tuple:
        return None, None
    if all(arg is float for arg in args):  # the class checks the length
        return list, lambda value: tuple(json_float(item, name) for item in value)  # type: ignore[arg-type]
    parts = [_codec(arg, part)[1] for arg, part in zip(args, name if isinstance(name, tuple) else (name,) * len(args))]

    def decode_parts(value: object) -> tuple:
        *items, = value  # type: ignore[misc]  # with the errors of unpacking it
        if len(items) != len(parts):
            raise ValueError(f"too many values to unpack (expected {len(parts)})" if len(items) > len(parts)
                             else f"not enough values to unpack (expected {len(parts)}, got {len(items)})")
        return tuple([part(item) for part, item in zip(parts, items)])
    return list, decode_parts


@functools.cache
def _plan(cls: type) -> tuple[frozenset, tuple, tuple]:
    """A record class's field names, the (name, decode, required) of each field in order, and the
    (name, encode) of each field not written as it is; a field's ``metadata`` may name it in errors."""
    hints, fields = typing.get_type_hints(cls), dataclasses.fields(cls)
    codecs = [_codec(hints[f.name], f.metadata.get("name", f.name)) for f in fields]
    bare = [f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING for f in fields]
    return (frozenset(f.name for f in fields),
            tuple((f.name, decode, f.metadata.get("required", b)) for f, (_, decode), b in zip(fields, codecs, bare)),
            tuple((f.name, encode) for f, (encode, _) in zip(fields, codecs) if encode is not None))


def to_record(obj: object) -> dict:
    """The JSON object of a dataclass record: its fields in order, tuples as lists."""
    record = obj.__dict__.copy()  # a record's instance dict holds its fields, in order
    for name, encode in _plan(type(obj))[2]:
        record[name] = encode(record[name])
    return record


def from_record(cls: type, data: object, where: str = "") -> typing.Any:
    """The ``cls`` record of a JSON object.  An unknown key or a value of the wrong
    JSON type is a ``TypeError``; a missing field with no default, or that its
    ``metadata`` marks ``required``, a ``KeyError``.  The class checks the rest."""
    known, fields, _ = _plan(cls)
    if not isinstance(data, dict) or not known.issuperset(data):
        json_fields(data, known, where)
    values = {}
    for name, decode, required in fields:
        if name in data:
            values[name] = data[name] if decode is None else decode(data[name])
        elif required:
            raise KeyError(name)
    return cls(**values)
