"""The one report shape every check returns, a status and its details,
and the one reader of integer fields in JSON inputs."""

from __future__ import annotations

from dataclasses import asdict, dataclass

VERIFIED = "verified"
VIOLATION = "counterexample"
INCONCLUSIVE = "inconclusive"


def json_int(value, field: str) -> int:
    """An integer field of a JSON input: an int or a string of one. A
    float, a bool or any other value is refused, naming the field, never
    truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
    raise ValueError(f"{field} must be an integer, got {value!r}")


@dataclass
class Report:
    status: str
    details: dict

    @property
    def passed(self) -> bool:
        return self.status == VERIFIED

    def to_json(self) -> dict:
        """``{"status": status, **details}``, with every dataclass in the
        details turned into a dict."""
        out = asdict(self)
        return {"status": out["status"], **out["details"]}
