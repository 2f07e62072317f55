"""Exception types and the record checks shared across the package."""

from typing import Collection


class DataFormatError(Exception):
    """A file or record violates one of the serialization schemas."""


class NumericalAbort(Exception):
    """A non-finite value appeared where the pipeline requires finiteness."""


def json_int(value: object, name: str) -> int:
    """``value`` if it is an integer as JSON decodes one.  ``int()`` would
    truncate a float and read a bool or a numeric string, so those are a
    ``TypeError`` here, which a decoder words under its own prefix."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


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
