"""Pieces shared by the workloads: operation records, outcome encoding and
percentiles."""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import ceil
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


@dataclass
class Record:
    """One attempted operation: what ran, how long it took, what it gave."""

    op: object
    seconds: float
    raw: object = None
    exc: BaseException | None = None


@dataclass
class Round:
    """One pass over a workload's operations."""

    wall: float
    records: list[Record]


def encode(value) -> str:
    """Sorted-key JSON text, the form the golden reference stores."""
    return json.dumps(value, sort_keys=True)


def encode_error(exc: BaseException) -> str:
    return encode({"error": type(exc).__name__, "message": str(exc)})


def load_golden(name: str) -> dict:
    with open(GOLDEN_DIR / name) as fh:
        return json.load(fh)


def percentile(samples: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(samples)
    rank = max(1, ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank
