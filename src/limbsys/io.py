"""File formats: problem, coupling, duals, system and witness JSON.

All JSON written here is canonical: keys sorted, floats rendered with 17
significant digits, newline terminated.  Identical data therefore produces
byte-identical files on every platform, which keeps golden-file tests and
cross-run diffs honest.  With ``rational=True`` the loaders parse numeric
literals into exact Fractions; writers always emit plain JSON numbers.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .limbs import Limb, NumberedLimbSystem
from .measures import Coupling, CostMatrix, DiscreteMarginal
from .transport import DualPotentials

__all__ = [
    "canonical_json",
    "write_json",
    "load_problem",
    "load_coupling",
    "coupling_payload",
    "duals_payload",
    "load_system",
    "system_payload",
    "witness_payload",
]


def _render(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        try:
            value = float(value)
        except OverflowError:
            raise ValueError(f"cannot serialize {value!r}, beyond the float range") from None
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError("cannot serialize a non-finite number")
        return format(value, ".17g")
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        parts = (f"{json.dumps(str(k))}: {_render(v)}" for k, v in sorted(value.items()))
        return "{" + ", ".join(parts) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(payload) -> str:
    return _render(payload) + "\n"


def write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(payload))


def _load(path, rational: bool, build):
    """Parse a JSON file and build a value from it.  Malformed JSON, a
    layout that does not fit (a list where an object belongs, a short entry,
    a missing key) and data the value rejects (a negative mass, a limb
    numbered 0) raise ValueError naming the file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_float=Fraction) if rational else json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level is a JSON {type(data).__name__}, not an object")
    try:
        return build(data)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, IndexError) as exc:
        raise ValueError(f"{path}: unexpected layout: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _problem(data):
    mu = DiscreteMarginal(tuple(data["mu"]))
    nu = DiscreteMarginal(tuple(data["nu"]))
    cost = CostMatrix(tuple(tuple(row) for row in data["cost"])) if "cost" in data else None
    return mu, nu, cost


def _coupling(data):
    return Coupling.from_entries(
        int(data["m"]), int(data["n"]), [(e[0], e[1], e[2]) for e in data["entries"]]
    )


def _system(data):
    limbs = []
    for item in data["limbs"]:
        limb = Limb(int(item["k"]), tuple((p[0], p[1]) for p in item["map"]))
        if item["kind"] != limb.kind:
            raise ValueError(f"limb {limb.k} must have kind {limb.kind!r}, not {item['kind']!r}")
        limbs.append(limb)
    return NumberedLimbSystem(
        int(data["m"]), int(data["n"]), limbs, tuple(data["I_odd"]), tuple(data["I_even"])
    )


def load_problem(path, rational: bool = False):
    """Read {"mu": [...], "nu": [...], "cost": [[...]]}; cost may be absent
    for operations that only need the marginals."""
    return _load(path, rational, _problem)


def load_coupling(path, rational: bool = False) -> Coupling:
    return _load(path, rational, _coupling)


def coupling_payload(gamma: Coupling) -> dict:
    return {"m": gamma.m, "n": gamma.n, "entries": [[i, j, w] for i, j, w in gamma.entries]}


def duals_payload(p: DualPotentials, value) -> dict:
    return {"q": list(p.q), "r": list(p.r), "value": value}


def load_system(path, rational: bool = False) -> NumberedLimbSystem:
    return _load(path, rational, _system)


def system_payload(system: NumberedLimbSystem) -> dict:
    return {
        "m": system.m,
        "n": system.n,
        "limbs": [
            {"k": limb.k, "kind": limb.kind, "map": [[s, d] for s, d in limb.pairs]}
            for limb in system.limbs
        ],
        "I_odd": list(system.x_levels),
        "I_even": list(system.y_levels),
    }


def witness_payload(cycle, gamma0: Coupling, gamma1: Coupling) -> dict:
    return {
        "cycle": [[i, j] for i, j in cycle.edges],
        "gamma0": coupling_payload(gamma0),
        "gamma1": coupling_payload(gamma1),
    }
