"""Correctness gate: seed-independent invariants plus a recorded reference per seed.

Against the reference, integers, strings and flags must match exactly and
floats within ``REL_TOL`` relative (``ABS_TOL`` absolute for values that
are rounding noise around zero).  1e-6 tolerates step-size and summation
order changes of ~1e-9 and still catches a broken kernel.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REL_TOL = 1e-6
ABS_TOL = 1e-9
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def matches(got, ref) -> bool:
    if _number(got) and _number(ref) and (isinstance(got, float) or isinstance(ref, float)):
        if math.isnan(got) or math.isnan(ref):
            return math.isnan(got) and math.isnan(ref)
        return math.isclose(got, ref, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    if isinstance(ref, list) and isinstance(got, list):
        return len(got) == len(ref) and all(matches(g, r) for g, r in zip(got, ref))
    if isinstance(ref, dict) and isinstance(got, dict):
        return got.keys() == ref.keys() and all(matches(got[k], ref[k]) for k in ref)
    return type(got) is type(ref) and got == ref


def mismatches(got: dict, ref: dict) -> list[str]:
    out = []
    for key in sorted(ref.keys() | got.keys()):
        if key not in got or key not in ref:
            out.append(f"{key}: present in only one of output and reference")
        elif not matches(got[key], ref[key]):
            out.append(f"{key}: {str(got[key])[:80]} != reference {str(ref[key])[:80]}")
    return out


def load_reference(workload: str, seed: int, path: Path = REFERENCE) -> dict | None:
    if not path.is_file():
        return None
    with open(path) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def gate(workload, inputs: dict, summary: dict, reference: dict | None) -> dict[str, list[str]]:
    """Failure reasons per unit; a unit passes when its list is empty."""
    reasons = workload.check(inputs, summary)
    if reference is not None:
        for unit, ref in reference.items():
            reasons.setdefault(unit, []).extend(mismatches(summary.get(unit, {}), ref))
    return reasons
