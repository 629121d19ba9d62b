"""File formats: problem, coupling, duals, system and witness JSON.

All JSON written here is canonical: ``json.dumps`` with sorted keys, each
float printed as its shortest round-trip text (``repr``), a Fraction as
its nearest float, newline terminated.  Identical data therefore produces
byte-identical files on every platform, and every float reads back as the
float written.  With ``rational=True`` the loaders keep integer literals as
ints and build every other numeric literal into the exact Fraction of its
digits by int arithmetic, so a written Fraction reads back exactly when it is
a decimal of at most 15 significant digits in the normal float range;
others, such as 1/3, read back as the decimal of their nearest float.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import sys
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


def _fraction_to_float(value):
    if isinstance(value, Fraction):
        try:
            return float(value)
        except OverflowError:
            raise ValueError(f"cannot serialize {value!r}, beyond the float range") from None
    raise TypeError(f"cannot serialize {type(value).__name__}")


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, allow_nan=False, default=_fraction_to_float) + "\n"


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


def _fraction(literal):
    """Fraction(literal) for a JSON number literal with a fraction part or an
    exponent, built from its digits by int arithmetic.  An exponent beyond
    the limit on integer literal digits raises ValueError: the value holds
    10**e in full, built in time growing with e.  Python before 3.10.7 has
    no such limit; there CPython's default, 4300, holds.  A mantissa of
    more digits than that limit takes Fraction's own parse, which reads its
    whole and fraction digits apart."""
    mantissa, exponent = literal, 0
    if "e" in literal or "E" in literal:
        mantissa, _, exp = literal.lower().partition("e")
        exponent = int(exp)
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 4300
        if limit and abs(exponent) > limit:
            raise ValueError(f"a number's exponent exceeds the limit ({limit}) for integer literals")
    whole, _, digits = mantissa.partition(".")
    shift = exponent - len(digits)
    try:
        value = int(whole + digits)
    except ValueError:
        return Fraction(literal)
    return Fraction(value * 10**shift) if shift >= 0 else Fraction(value, 10**-shift)


def _refuse_booleans(data):
    """Raise ValueError at the first JSON true or false in ``data``, named as
    ``entries[3][0]``; iterative, as the parser nests deeper than Python recurses."""
    stack = [("", iter(data.items()))]
    while stack:
        where, items = stack[-1]
        for key, value in items:
            if isinstance(value, (bool, dict, list)):
                at = f"{where}[{key}]" if type(key) is int else f"{where}.{key}" if where else key
                if type(value) is bool:
                    raise ValueError(
                        f"{at} is JSON {json.dumps(value)}, which cannot be interpreted as an integer"
                    )
                stack.append((at, iter(value.items() if type(value) is dict else enumerate(value))))
                break
        else:
            stack.pop()


def _load(path, rational: bool, build):
    """Parse a JSON file and build a value from it.  Text that does not
    parse (malformed, nested too deep, a number too long), a layout that
    does not fit (a missing key, an entry of the wrong length), data the
    value rejects (a negative mass) and a JSON true or false, which would
    pass for 1 or 0, raise ValueError naming the file.  A boolean mass
    keeps its value's message."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
            data = json.loads(text, parse_float=_fraction) if rational else json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from None
        except (RecursionError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: top level is a JSON {type(data).__name__}, not an object")
    try:
        value = build(data)
        if "true" in text or "false" in text:
            _refuse_booleans(data)
        return value
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: unexpected layout: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _problem(data):
    mu, nu = DiscreteMarginal(data["mu"]), DiscreteMarginal(data["nu"])
    return mu, nu, CostMatrix(data["cost"]) if "cost" in data else None


def _refuse_wrong_lengths(where, rows, size):
    """Raise ValueError at the first array in ``rows`` not of ``size``
    numbers, named as ``entries[0]``.  Called once a build has failed, so a
    file that loads never pays for it."""
    for k, row in enumerate(rows):
        if type(row) is list and len(row) != size:
            raise ValueError(f"{where}[{k}] holds {len(row)} number{'s' * (len(row) != 1)}, not {size}")


def _coupling(data):
    entries = data["entries"]
    try:
        return Coupling.from_entries(data["m"], data["n"], entries)
    except ValueError:
        _refuse_wrong_lengths("entries", entries, 3)
        raise


def _system(data):
    limbs = []
    for at, item in enumerate(data["limbs"]):
        try:
            limb = Limb(item["k"], item["map"])
        except ValueError:
            _refuse_wrong_lengths(f"limbs[{at}].map", item["map"], 2)
            raise
        if item["kind"] != limb.kind:
            raise ValueError(f"limb {limb.k} must have kind {limb.kind!r}, not {item['kind']!r}")
        limbs.append(limb)
    return NumberedLimbSystem(data["m"], data["n"], limbs, data["I_odd"], data["I_even"])


def load_problem(path, rational: bool = False):
    """Read {"mu": [...], "nu": [...], "cost": [[...]]}; cost may be absent
    for operations that only need the marginals."""
    return _load(path, rational, _problem)


def load_coupling(path, rational: bool = False) -> Coupling:
    return _load(path, rational, _coupling)


def coupling_payload(gamma: Coupling) -> dict:
    return {"m": gamma.m, "n": gamma.n, "entries": gamma.entries}


def duals_payload(p: DualPotentials, value) -> dict:
    return {"q": p.q, "r": p.r, "value": value}


def load_system(path, rational: bool = False) -> NumberedLimbSystem:
    return _load(path, rational, _system)


def system_payload(system: NumberedLimbSystem) -> dict:
    return {
        "m": system.m,
        "n": system.n,
        "limbs": [{"k": limb.k, "kind": limb.kind, "map": limb.pairs} for limb in system.limbs],
        "I_odd": system.x_levels,
        "I_even": system.y_levels,
    }


def witness_payload(cycle, gamma0: Coupling, gamma1: Coupling) -> dict:
    return {
        "cycle": cycle.edges,
        "gamma0": coupling_payload(gamma0),
        "gamma1": coupling_payload(gamma1),
    }
