"""The one report shape every check returns: a status and its details."""

from __future__ import annotations

from dataclasses import asdict, dataclass

VERIFIED = "verified"
VIOLATION = "counterexample"
INCONCLUSIVE = "inconclusive"


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
