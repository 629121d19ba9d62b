"""File formats: problem, coupling, duals, system and witness JSON.

All JSON written here is canonical: keys sorted, floats rendered with 17
significant digits, newline terminated.  Identical data therefore produces
byte-identical files on every platform, which keeps golden-file tests and
cross-run diffs honest.  With ``rational=True`` the loaders parse numeric
literals into exact Fractions; writers always emit plain JSON numbers.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import stat
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


def write_json(outputs):
    """Write each (path, payload) pair of ``outputs``: a str payload as it
    is, anything else as canonical JSON.  Every payload is rendered and
    every path opened before any is written, so a payload that fails to
    render, a path that fails to open, or two paths naming one regular file
    leave every path as it was.  Other files, such as /dev/stdout, may be
    named twice."""
    texts = [(path, p if isinstance(p, str) else canonical_json(p)) for path, p in outputs]
    with contextlib.ExitStack() as stack:
        files, created, named = [], [], {}
        try:
            for path, _ in texts:
                try:
                    fh = stack.enter_context(open(path, "x", encoding="utf-8"))
                    created.append(path)
                except FileExistsError:
                    fd = os.open(path, os.O_WRONLY)  # no O_TRUNC until every path is open
                    fh = stack.enter_context(open(fd, "w", encoding="utf-8"))
                info = os.fstat(fh.fileno())
                # What O_TRUNC would empty: a regular file, known by its inode.
                inode = (info.st_dev, info.st_ino) if stat.S_ISREG(info.st_mode) else None
                if inode in named:
                    raise ValueError(f"outputs {named[inode]} and {path} name the same file")
                if inode:
                    named[inode] = path
                files.append((fh, inode))
        except (OSError, ValueError):
            stack.close()
            for path in created:
                os.remove(path)
            raise
        for (fh, inode), (_, text) in zip(files, texts):
            if inode:
                fh.truncate(0)
            fh.write(text)


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


# JSON true and false load as the bools True and False, which Python takes
# for the ints 1 and 0, so a size, index, limb number or level that is one
# is rejected here.  No check adds a Python function call per value: index
# pairs holding a boolean are left out by the comprehension that already
# builds the pairs (``type(i) is not bool is not type(j)``), levels are
# scanned by ``bool in map(type, levels)``, and only a list found wanting
# is searched for the culprit.
def _integer(where, value):
    """``value``, an integer at ``where`` in the file, unless it is a JSON
    boolean."""
    if type(value) is bool:
        raise ValueError(
            f"{where} is JSON {json.dumps(value)}, which cannot be interpreted as an integer"
        )
    return value


def _integers(where, values):
    """``values``, a sequence of integers at ``where`` in the file, unless
    one is a JSON boolean."""
    if bool in map(type, values):
        for t, v in enumerate(values):
            _integer(f"{where}[{t}]", v)
    return values


def _index_pairs(where, rows, kept):
    """``kept``, built from ``rows`` leaving out each row whose first two
    items, its indices, hold a JSON boolean, unless it left one out."""
    if len(kept) < len(rows):
        for t, row in enumerate(rows):
            _integers(f"{where}[{t}]", row[:2])
    return kept


def _problem(data):
    mu = DiscreteMarginal(tuple(data["mu"]))
    nu = DiscreteMarginal(tuple(data["nu"]))
    cost = CostMatrix(tuple(tuple(row) for row in data["cost"])) if "cost" in data else None
    return mu, nu, cost


def _coupling(data):
    m, n = _integer("m", data["m"]), _integer("n", data["n"])
    rows = data["entries"]
    entries = [(e[0], e[1], e[2]) for e in rows if type(e[0]) is not bool is not type(e[1])]
    return Coupling.from_entries(m, n, _index_pairs("entries", rows, entries))


def _system(data):
    m, n = _integer("m", data["m"]), _integer("n", data["n"])
    limbs = []
    for t, item in enumerate(data["limbs"]):
        rows = item["map"]
        pairs = [(p[0], p[1]) for p in rows if type(p[0]) is not bool is not type(p[1])]
        k = _integer(f"limbs[{t}].k", item["k"])
        limb = Limb(k, tuple(_index_pairs(f"limbs[{t}].map", rows, pairs)))
        if item["kind"] != limb.kind:
            raise ValueError(f"limb {limb.k} must have kind {limb.kind!r}, not {item['kind']!r}")
        limbs.append(limb)
    levels = (tuple(_integers(key, data[key])) for key in ("I_odd", "I_even"))
    return NumberedLimbSystem(m, n, limbs, *levels)


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
