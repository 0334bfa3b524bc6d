"""Certificate checks, report serialization, and deterministic CSV output."""

import json
import math
import os
from dataclasses import asdict, dataclass, field, is_dataclass

import numpy as np


@dataclass
class Check:
    """One named hypothesis check inside a certificate.  ``margin``, how far
    the value lies on the passing side: threshold - value, or for ">=" value - threshold."""

    name: str
    value: float
    threshold: float
    passed: bool
    direction: str = "<="
    margin: float = field(init=False)

    def __post_init__(self):
        self.margin = (self.value - self.threshold if self.direction == ">="
                       else self.threshold - self.value)

    def __bool__(self):
        raise TypeError(f"the truth of Check {self.name!r} is ambiguous; read .passed")

    @classmethod
    def leq(cls, name, value, threshold):
        return cls(name, float(value), float(threshold), bool(value <= threshold), "<=")

    @classmethod
    def lt(cls, name, value, threshold):
        return cls(name, float(value), float(threshold), bool(value < threshold), "<")

    @classmethod
    def geq(cls, name, value, threshold):
        return cls(name, float(value), float(threshold), bool(value >= threshold), ">=")


def checks_in(report):
    """Every ``Check`` in a nested report (dicts, lists, tuples), in order of
    appearance and once each by identity."""
    seen, out = set(), []

    def walk(obj):
        if isinstance(obj, Check):
            if id(obj) not in seen:
                seen.add(id(obj))
                out.append(obj)
        elif isinstance(obj, dict):
            for v in obj.values():
                walk(v)
        elif isinstance(obj, (list, tuple)):
            for v in obj:
                walk(v)

    walk(report)
    return out


def verdict(report, not_certified="withheld"):
    """The one certificate rule: granted exactly when the report holds at
    least one ``Check`` and every ``Check`` in it passed, hypotheses and
    simulation cross-checks alike.  Sets ``certified`` and ``status``
    (``not_certified`` when withheld) and returns the report."""
    checks = checks_in(report)
    report["certified"] = bool(checks) and all(c.passed for c in checks)
    report["status"] = "certified" if report["certified"] else not_certified
    return report


def jsonify(obj):
    """Recursively convert numpy scalars/arrays and dataclasses to plain
    JSON-serializable values; non-finite floats become strings."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonify(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonify(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def write_csv(path, header, columns):
    """CSV with a mandatory header row and repr-stable float formatting;
    byte-identical across runs for identical data."""
    cols = [np.asarray(c) for c in columns]
    if len(set(len(c) for c in cols)) > 1:
        raise ValueError("CSV columns must have equal length")
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    line = ",".join(["%.17g"] * len(cols)) + "\n"     # the table is one %-format
    cells = tuple(x for row in zip(*(c.tolist() for c in cols)) for x in row)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.write((line * len(cols[0])) % cells)
    return path


def write_report(path, report):
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(jsonify(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
