"""Exception types and the record checks shared across the package."""


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
