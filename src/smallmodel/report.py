"""The one report shape every check returns, a status and its details,
and the readers of JSON inputs: a field of an object, and integer, list,
boolean and rational values."""

from __future__ import annotations

from dataclasses import asdict, dataclass, is_dataclass
from fractions import Fraction

VERIFIED = "verified"
VIOLATION = "counterexample"
INCONCLUSIVE = "inconclusive"

# an obstruction check's finding about its input, reported by a verified run
OBSTRUCTED = "OBSTRUCTED"
SATISFIABLE = "SATISFIABLE"
NOT_OBSTRUCTED = "INCONCLUSIVE"


def json_field(obj, name: str, where: str = "the input"):
    """Field ``name`` of ``where``, a JSON object: an input that is not an
    object, or that lacks the field, is refused by name, not with a bare
    ``KeyError`` or a subscript error."""
    if not isinstance(obj, dict):
        raise TypeError(f"{where} must be a JSON object, got {obj!r}")
    try:
        return obj[name]
    except KeyError:
        raise ValueError(f"{where} has no field {name!r}") from None


def json_int(value, field: str, least=None) -> int:
    """An integer field of a JSON input: an int or a string of one, and no
    less than ``least`` if that is given. A float, a bool or any other
    value is refused, naming the field, never truncated."""
    if isinstance(value, str):
        try:
            value = int(value)
        except ValueError:
            pass
    if isinstance(value, int) and not isinstance(value, bool):
        if least is not None and value < least:
            raise ValueError(f"{field} must be at least {least}, got {value}")
        return value
    raise ValueError(f"{field} must be an integer, got {value!r}")


def json_list(value, field: str) -> list:
    """A list field of a JSON input: an array and nothing else (a string
    is refused by name, not read one character at a time)."""
    if isinstance(value, list):
        return value
    raise TypeError(f"{field} must be a list, got {value!r}")


def json_bool(value, field: str) -> bool:
    """A boolean field of a JSON input: ``true`` or ``false`` and nothing
    else (the string ``"false"`` is refused, not read as true)."""
    if isinstance(value, bool):
        return value
    raise ValueError(f"{field} must be true or false, got {value!r}")


def json_rational(value, field: str) -> Fraction:
    """A rational field of a JSON input: an int or a string of an integer,
    a decimal or a ratio (``"3"``, ``"-2/7"``, ``"0.1"``). A float is
    refused, naming the field: ``0.1`` would be read as its binary value,
    with denominator 2**55. So is an exponent (``"1e999999999"`` would
    build a billion-digit integer), a bool or any other value."""
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and "e" not in value.lower():
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{field} must be a rational (an int or a string like \"-2/7\"), "
                     f"got {value!r}")


@dataclass
class Report:
    status: str
    details: dict

    @property
    def passed(self) -> bool:
        return self.status == VERIFIED

    def to_json(self) -> dict:
        """``{"status": status, **details}``, with each dataclass value of
        the details turned into a dict. Nothing else is copied: the rows
        are the details' own, so a caller must not change them."""
        return {"status": self.status,
                **{k: asdict(v) if is_dataclass(v) else v for k, v in self.details.items()}}
