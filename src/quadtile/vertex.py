"""Vertex records that every layer reads: the angle names, vertex
signatures with their catalog order and parity rule, degree vectors, the
Euler counting identities, and the one pass/fail report type.

A leaf: it imports no other ``quadtile`` module and no ``fractions``, so
the map, symmetry and geometry layers load without the exact angle solver
(``angles``) or the AVC search (``combinatorics``), which re-export these
names.
"""

from __future__ import annotations

import re
from typing import Mapping, NamedTuple

__all__ = [
    "ANGLE_NAMES",
    "VertexSignature",
    "parity_admissible",
    "catalog_sort_key",
    "DegreeVector",
    "CheckReport",
    "counting_identities",
]

ANGLE_NAMES = ("alpha", "beta", "gamma", "delta")

_GREEK = {"alpha": "α", "beta": "β", "gamma": "γ", "delta": "δ"}
_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
_SUPERSCRIPTS_INV = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")


class VertexSignature(NamedTuple):
    """Exponent vector alpha^a beta^b gamma^c delta^d of a vertex; it
    hashes, compares and sorts as the plain tuple (a, b, c, d)."""

    a: int
    b: int
    c: int
    d: int

    @property
    def degree(self) -> int:
        return self.a + self.b + self.c + self.d

    @property
    def exponents(self) -> tuple[int, int, int, int]:
        return tuple(self)

    def __str__(self) -> str:
        parts = []
        for name, e in zip(ANGLE_NAMES, self):
            if e == 1:
                parts.append(_GREEK[name])
            elif e > 1:
                parts.append(_GREEK[name] + str(e).translate(_SUPERSCRIPTS))
        return "".join(parts) or "1"

    @staticmethod
    def parse(text: str) -> "VertexSignature":
        """Parse 'αβ²', 'ab2', 'a1b2', 'alpha beta^2'-style signature text."""
        s = text.strip().lower()
        for name, g in _GREEK.items():
            s = s.replace(g, name[0])
        s = s.replace("alpha", "a").replace("beta", "b")
        s = s.replace("gamma", "g").replace("delta", "d")
        s = s.translate(_SUPERSCRIPTS_INV)
        s = re.sub(r"[\s^*]", "", s)
        if not re.fullmatch(r"([abgd]\d*)+", s):
            raise ValueError(f"cannot parse vertex signature: {text!r}")
        exps = {"a": 0, "b": 0, "g": 0, "d": 0}
        for letter, digits in re.findall(r"([abgd])(\d*)", s):
            exps[letter] += int(digits) if digits else 1
        sig = VertexSignature(exps["a"], exps["b"], exps["g"], exps["d"])
        if not sig.degree:
            raise ValueError(f"vertex signature of degree 0: {text!r}")
        return sig


def parity_admissible(sig: VertexSignature) -> bool:
    """Whether the signature can occur at a vertex (degree >= 3 and the
    allowed exponent-parity shapes)."""
    a, b, c, d = sig
    if sig.degree < 3:
        return False
    if a > 0:
        if b % 2 or c % 2 or d % 2:
            return False
        if c > 0 and b == 0 and d == 0:
            return False  # alpha^a gamma^c is never a vertex
        if b > 0 and c > 0 and d > 0:
            return False  # no vertex contains all four angles
        return True
    if b % 2 == 0 and c % 2 == 0 and d % 2 == 0:
        return True
    return b % 2 == 1 and c % 2 == 1 and d % 2 == 1 and b > 0 and c > 0 and d > 0


def catalog_sort_key(sig: VertexSignature) -> tuple:
    """Deterministic catalog order: by degree, then descending exponents."""
    return (sig.degree, -sig.a, -sig.b, -sig.c, -sig.d)


class DegreeVector(NamedTuple):
    """Counts of degree-h vertices, h >= 3, for a tiling with f tiles."""

    f: int
    v: Mapping[int, int]

    @property
    def vertex_count(self) -> int:
        return sum(self.v.values())


class CheckReport:
    """Named pass/fail checks in the order they were made, each with an
    optional detail shown only when the check fails; not a named tuple
    like the other records, since ``add`` appends to its list."""

    __slots__ = ("checks",)

    def __init__(self, checks: list[tuple[str, bool, str]] | None = None):
        self.checks = [] if checks is None else checks

    def __eq__(self, other: object) -> bool:  # leaves __hash__ None
        return isinstance(other, CheckReport) and self.checks == other.checks

    def __repr__(self) -> str:
        return f"CheckReport(checks={self.checks!r})"

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    @property
    def failures(self) -> list[str]:
        """``"name: detail"`` per failed check, or ``"name"`` without one."""
        return [f"{name}: {detail}" if detail else name
                for name, ok, detail in self.checks if not ok]

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))

    def __str__(self) -> str:
        lines = []
        for name, ok, detail in self.checks:
            mark = "PASS" if ok else "FAIL"
            suffix = f" ({detail})" if detail and not ok else ""
            lines.append(f"[{mark}] {name}{suffix}")
        return "\n".join(lines)


def counting_identities(dv: DegreeVector) -> CheckReport:
    """Check the Euler-derived counting identities for a degree vector."""
    report = CheckReport()
    f = dv.f
    v3 = dv.v.get(3, 0)
    high = {h: n for h, n in dv.v.items() if h >= 4}
    report.add("all degree counts nonnegative",
               all(n >= 0 for n in dv.v.values()) and all(h >= 3 for h in dv.v))
    report.add("f even", f % 2 == 0)
    report.add("v3 = 8 + sum (h-4) v_h",
               v3 == 8 + sum((h - 4) * n for h, n in high.items()))
    report.add("f = 6 + sum (h-3) v_h",
               f == 6 + sum((h - 3) * n for h, n in high.items()))
    e = 2 * f
    v = dv.vertex_count
    report.add("sum h v_h = 2e", sum(h * n for h, n in dv.v.items()) == 2 * e)
    report.add("v - e + f = 2", v - e + f == 2)
    return report
