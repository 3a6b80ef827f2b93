"""The chaos scenario DSL: timed fault activations.

A :class:`Scenario` is a named schedule of :class:`FaultSpec` entries.
Times are **relative to the instant the engine is started** (not
absolute sim time), so the same scenario file produces the same fault
timeline regardless of how long system prewarm or the workload prelude
took.  Scenarios are plain data — they can be built in code, loaded
from JSON files, and round-tripped — and carry no randomness of their
own: every stochastic decision (drop coin flips, victim picks) is made
by the engine's seeded RNG at injection time.

JSON form::

    {
      "name": "tcp-sever",
      "description": "...",
      "faults": [
        {"kind": "tcp_sever", "at_ms": 1500.0},
        {"kind": "tcp_drop", "at_ms": 1500.0, "duration_ms": 2000.0,
         "params": {"p": 0.3}}
      ]
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault activation.

    ``at_ms`` is when the fault activates, relative to engine start.
    ``duration_ms`` is how long it stays active; zero means a one-shot
    action (e.g. severing connections) or a fault that manages its own
    lifetime.  ``params`` are fault-kind-specific knobs — see the
    catalog in :mod:`repro.chaos.faults`.
    """

    kind: str
    at_ms: float
    duration_ms: float = 0.0
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.at_ms < 0:
            raise ValueError(f"{self.kind}: at_ms must be >= 0")
        if self.duration_ms < 0:
            raise ValueError(f"{self.kind}: duration_ms must be >= 0")

    @property
    def clear_ms(self) -> float:
        """When this fault is over, relative to engine start."""
        return self.at_ms + self.duration_ms

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind, "at_ms": self.at_ms}
        if self.duration_ms:
            out["duration_ms"] = self.duration_ms
        if self.params:
            out["params"] = dict(self.params)
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        unknown = set(data) - {"kind", "at_ms", "duration_ms", "params"}
        if unknown:
            raise ValueError(f"unknown FaultSpec field(s): {sorted(unknown)}")
        if "kind" not in data or "at_ms" not in data:
            raise ValueError("FaultSpec requires 'kind' and 'at_ms'")
        return cls(
            kind=str(data["kind"]),
            at_ms=float(data["at_ms"]),
            duration_ms=float(data.get("duration_ms", 0.0)),
            params=dict(data.get("params", {})),
        )


@dataclass(frozen=True)
class Scenario:
    """A named, ordered schedule of fault activations."""

    name: str
    faults: Tuple[FaultSpec, ...]
    description: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario needs a name")
        object.__setattr__(self, "faults", tuple(self.faults))

    @property
    def first_fault_ms(self) -> float:
        """Activation time of the earliest fault (inf when empty)."""
        if not self.faults:
            return float("inf")
        return min(spec.at_ms for spec in self.faults)

    @property
    def clear_ms(self) -> float:
        """When the last fault has cleared, relative to engine start."""
        if not self.faults:
            return 0.0
        return max(spec.clear_ms for spec in self.faults)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "faults": [spec.to_dict() for spec in self.faults],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Scenario":
        if "name" not in data:
            raise ValueError("scenario JSON requires 'name'")
        faults = data.get("faults", [])
        if not isinstance(faults, (list, tuple)):
            raise ValueError("'faults' must be a list")
        return cls(
            name=str(data["name"]),
            faults=tuple(FaultSpec.from_dict(entry) for entry in faults),
            description=str(data.get("description", "")),
        )


def load_scenario(path: str) -> Scenario:
    """Load one scenario from a JSON file."""
    with open(path) as handle:
        data = json.load(handle)
    return Scenario.from_dict(data)
