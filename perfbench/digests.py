"""Outcome digests: a hash per field of a run's simulated outcome.

A digest maps every leaf of the outcome (nested dicts flattened to
dotted paths, lists kept whole) to a short SHA-256 of its canonical
JSON, so two outcomes compare field by field and a mismatch names the
first field that differs.  Pinned digests for the default seed live in
``pinned.json`` next to this file.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional

PINNED = Path(__file__).with_name("pinned.json")


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _flatten(value, prefix: str, out: Dict[str, object]) -> None:
    if isinstance(value, dict) and value:
        for key in sorted(value, key=str):
            _flatten(value[key], f"{prefix}.{key}" if prefix else str(key),
                     out)
    else:
        out[prefix] = value


def digest(outcome: Dict[str, object]) -> Dict[str, str]:
    """``{"*": hash of the whole outcome, field path: hash, ...}``."""
    leaves: Dict[str, object] = {}
    _flatten(outcome, "", leaves)
    fields = {"*": hashlib.sha256(_canonical(outcome).encode()).hexdigest()}
    for path, leaf in leaves.items():
        fields[path] = hashlib.sha256(
            _canonical(leaf).encode()).hexdigest()[:16]
    return fields


def first_difference(expected: Dict[str, str],
                     actual: Dict[str, str]) -> Optional[str]:
    """The first field whose hash differs (``None`` when they agree)."""
    if expected.get("*") == actual.get("*"):
        return None
    for path in list(expected) + [p for p in actual if p not in expected]:
        if path != "*" and expected.get(path) != actual.get(path):
            return path
    return "*"


def load_pinned() -> Dict[str, Dict[str, Dict[str, str]]]:
    """``{workload: {seed: digest}}`` (empty when nothing is pinned)."""
    if not PINNED.exists():
        return {}
    return json.loads(PINNED.read_text())


def save_pinned(pinned: Dict[str, Dict[str, Dict[str, str]]]) -> None:
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
