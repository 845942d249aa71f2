"""Exact angle algebra for the a2bc quadrilateral tile.

Tile angles are affine rational expressions in the basis {pi, pi/f}, where f
is the (even, >= 6) number of tiles.  Vertex angle-sum systems are solved
exactly over the rationals, with f kept symbolic; some systems pin f to a
concrete value, which is reported on the solution.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

__all__ = [
    "AngleExpr",
    "VertexSignature",
    "AngleSolution",
    "ANGLE_NAMES",
    "quad_sum_residual",
    "vertex_sum_residual",
    "solve_angle_system",
    "AffineAngles",
    "solve_affine",
]

ANGLE_NAMES = ("alpha", "beta", "gamma", "delta")

_GREEK = {"alpha": "α", "beta": "β", "gamma": "γ", "delta": "δ"}
_SUPERSCRIPTS = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")


def _frac(x: int | Fraction) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


@dataclass(frozen=True)
class AngleExpr:
    """An angle c0*pi + c1*pi/f with rational coefficients."""

    c0: Fraction = Fraction(0)
    c1: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "c0", _frac(self.c0))
        object.__setattr__(self, "c1", _frac(self.c1))

    @staticmethod
    def pi(coeff: int | Fraction = 1) -> "AngleExpr":
        return AngleExpr(_frac(coeff), Fraction(0))

    @staticmethod
    def pi_over_f(coeff: int | Fraction = 1) -> "AngleExpr":
        return AngleExpr(Fraction(0), _frac(coeff))

    def __add__(self, other: "AngleExpr") -> "AngleExpr":
        return AngleExpr(self.c0 + other.c0, self.c1 + other.c1)

    def __sub__(self, other: "AngleExpr") -> "AngleExpr":
        return AngleExpr(self.c0 - other.c0, self.c1 - other.c1)

    def __neg__(self) -> "AngleExpr":
        return AngleExpr(-self.c0, -self.c1)

    def __mul__(self, k: int | Fraction) -> "AngleExpr":
        k = _frac(k)
        return AngleExpr(self.c0 * k, self.c1 * k)

    __rmul__ = __mul__

    def coefficient_of_pi(self, f: int | Fraction) -> Fraction:
        """Exact value divided by pi, at a concrete f."""
        return self.c0 + self.c1 / _frac(f)

    def eval(self, f: int | Fraction) -> float:
        """Numeric value in radians at a concrete f."""
        return float(self.coefficient_of_pi(f)) * math.pi

    def is_zero(self) -> bool:
        return self.c0 == 0 and self.c1 == 0

    def __str__(self) -> str:
        terms = []
        if self.c0:
            terms.append(_pi_term(self.c0, "π"))
        if self.c1:
            terms.append(_pi_term(self.c1, "π/f"))
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += " - " + t[1:] if t.startswith("-") else " + " + t
        return out


def _pi_term(coeff: Fraction, unit: str) -> str:
    sign = "-" if coeff < 0 else ""
    coeff = abs(coeff)
    num, den = coeff.numerator, coeff.denominator
    head = "" if num == 1 else str(num)
    if unit == "π/f":
        body = f"{head}π/f" if den == 1 else f"{head}π/({den}f)"
    else:
        body = f"{head}π" if den == 1 else f"{head}π/{den}"
    return sign + body


@dataclass(frozen=True, order=True)
class VertexSignature:
    """Exponent vector alpha^a beta^b gamma^c delta^d of a vertex."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self) -> None:
        # signatures key the AVC search's caches and dicts, so the hash
        # (the dataclass one, of the exponent tuple) is computed once
        object.__setattr__(self, "_hash", hash(self.exponents))

    def __hash__(self) -> int:
        return self._hash

    @property
    def degree(self) -> int:
        return self.a + self.b + self.c + self.d

    @property
    def exponents(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        parts = []
        for name, e in zip(ANGLE_NAMES, self.exponents):
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
        return VertexSignature(exps["a"], exps["b"], exps["g"], exps["d"])


_SUPERSCRIPTS_INV = {ord(sup): str(i) for i, sup in enumerate(
    "⁰¹²³⁴⁵⁶⁷⁸⁹")}


def quad_sum_residual(
    angles: Sequence[AngleExpr], f: int | Fraction
) -> Fraction:
    """alpha+beta+gamma+delta - (2 + 4/f) pi, as an exact multiple of pi."""
    total = AngleExpr()
    for ang in angles:
        total = total + ang
    target = AngleExpr(Fraction(2), Fraction(4))
    return (total - target).coefficient_of_pi(f)


def vertex_sum_residual(
    sig: VertexSignature, angles: Sequence[AngleExpr], f: int | Fraction
) -> Fraction:
    """a*alpha + b*beta + c*gamma + d*delta - 2 pi, as a multiple of pi."""
    total = AngleExpr()
    for e, ang in zip(sig.exponents, angles):
        total = total + e * ang
    return (total - AngleExpr.pi(2)).coefficient_of_pi(f)


@dataclass(frozen=True)
class AngleSolution:
    """Solution of a vertex angle-sum system.

    kind is 'unique', 'parametric', or 'infeasible'.  For unique solutions,
    ``assignment`` maps each angle name to an AngleExpr (possibly involving
    the symbolic 1/f).  Parametric solutions additionally list ``free`` angle
    names and express the pivot angles in ``relations`` as a constant
    AngleExpr plus rational multiples of the free angles.  ``pinned_f``
    reports the value of f when the system forces one.
    """

    kind: str
    assignment: Mapping[str, AngleExpr] | None = None
    free: tuple[str, ...] = ()
    relations: Mapping[str, tuple[AngleExpr, Mapping[str, Fraction]]] | None = None
    pinned_f: Fraction | None = None

    def angles(self) -> tuple[AngleExpr, AngleExpr, AngleExpr, AngleExpr]:
        if self.kind != "unique" or self.assignment is None:
            raise ValueError("angles() requires a unique solution")
        return tuple(self.assignment[n] for n in ANGLE_NAMES)  # type: ignore[return-value]


def solve_angle_system(
    signatures: Iterable[VertexSignature],
    include_quad_sum: bool = True,
    f: int | None = None,
) -> AngleSolution:
    """Exactly solve the linear system of vertex angle sums.

    Unknowns are (alpha, beta, gamma, delta, x) with x = pi/f, all in units
    of pi: each signature contributes a*alpha+b*beta+c*gamma+d*delta = 2pi,
    and the quadrilateral sum contributes alpha+beta+gamma+delta = 2pi + 4x.
    Passing a concrete ``f`` adds the equation x = pi/f.  The result is a
    view of the integer solution that ``solve_affine`` returns.
    """
    solved = _solve(signatures, include_quad_sum, f)
    if solved is None:
        return AngleSolution(kind="infeasible")
    aff, pinned_f = solved
    relations = {}
    for name, (const, *ks) in zip(ANGLE_NAMES, aff.rows):
        coeffs = {n: Fraction(k, aff.den) for n, k in zip(aff.free, ks) if k}
        relations[name] = (
            AngleExpr(Fraction(const, aff.den), coeffs.pop("x", 0)), coeffs)
    free = tuple(n for n in aff.free if n != "x")
    if free:
        return AngleSolution(kind="parametric", free=free,
                             relations=relations, pinned_f=pinned_f)
    return AngleSolution(
        kind="unique",
        assignment={n: const for n, (const, _) in relations.items()},
        relations=relations,
        pinned_f=pinned_f,
    )


class AffineAngles(NamedTuple):
    """The solution set of an angle-sum system as an exact integer map.

    Each of alpha, beta, gamma, delta (in units of pi) is
    ``(row[0] + sum(row[j] * free[j - 1] for j >= 1)) / den``, one row per
    angle.  ``free`` lists the free angles in alpha, beta, gamma, delta
    order, then ``"x"`` (pi/f) when f is symbolic and not forced.  ``den`` is
    positive and ``den`` and all row entries together have gcd 1, so equal
    solution sets are equal tuples (and hash equal).
    """

    free: tuple[str, ...]
    den: int
    rows: tuple[tuple[int, ...], ...]

    @staticmethod
    def reduced(free: tuple[str, ...], den: int,
                rows: Iterable[Sequence[int]]) -> "AffineAngles":
        """The canonical AffineAngles of (row / den), for any nonzero den."""
        rows = list(rows)
        g = math.gcd(den, *itertools.chain.from_iterable(rows))
        g = -g if den < 0 else g
        if g == 1:
            return AffineAngles(free, den, tuple(map(tuple, rows)))
        return AffineAngles(free, den // g,
                            tuple(tuple(v // g for v in row) for row in rows))

    def equation(self, sig: VertexSignature) -> list[int]:
        """sig's angle sum minus 2pi, as a row (const, k_1..k_m) over den."""
        a, b, c, d = sig.exponents
        eq = [a * ka + b * kb + c * kc + d * kd
              for ka, kb, kc, kd in zip(*self.rows)]
        eq[0] -= 2 * self.den
        return eq

    def pin(self, eq: Sequence[int]) -> "AffineAngles":
        """The solutions that also satisfy ``eq`` = 0, for a row from
        ``equation`` with a nonzero free coefficient: one elimination step
        removes the first free parameter whose coefficient is nonzero."""
        col = next(j for j in range(1, len(eq)) if eq[j])
        rows = [_eliminate(row, eq, col) for row in self.rows]
        for row in rows:
            del row[col]
        return AffineAngles.reduced(
            self.free[:col - 1] + self.free[col:], self.den * eq[col], rows)


def _eliminate(row: Sequence[int], pivot: Sequence[int], col: int) -> list[int]:
    """Fraction-free elimination step: ``row`` scaled by ``pivot[col]``
    minus ``pivot`` scaled by ``row[col]``, which is zero at ``col``."""
    a, b = pivot[col], row[col]
    return [a * r - b * p for r, p in zip(row, pivot)]


def _primitive(row: list[int]) -> list[int]:
    g = math.gcd(*row)
    return [v // g for v in row] if g > 1 else row


def solve_affine(
    signatures: Iterable[VertexSignature],
    include_quad_sum: bool = True,
    f: int | None = None,
) -> AffineAngles | None:
    """The system of ``solve_angle_system`` solved by fraction-free integer
    elimination, as AffineAngles; None if it has no solution."""
    solved = _solve(signatures, include_quad_sum, f)
    return None if solved is None else solved[0]


# Pivot preference: delta, gamma, beta, alpha, then x — so free variables
# surface in the canonical order alpha, beta, gamma, delta, and f stays
# symbolic whenever the system permits.
_PIVOT_ORDER = (3, 2, 1, 0, 4)
_VAR_NAMES = ANGLE_NAMES + ("x",)


def _solve(
    signatures: Iterable[VertexSignature],
    include_quad_sum: bool,
    f: int | None,
) -> tuple[AffineAngles, Fraction | None] | None:
    """The solution and the value of f it forces (None if f stays free);
    None if the system has no solution."""
    sigs = sorted(set(signatures))
    if not sigs:
        raise ValueError("signature set must be nonempty")
    # columns alpha, beta, gamma, delta, x | right-hand side
    rows = [[*s.exponents, 0, 2] for s in sigs]
    if include_quad_sum:
        rows.append([1, 1, 1, 1, -4, 2])
    if f is not None:
        rows.append([0, 0, 0, 0, f, 1])
    pivots: dict[int, list[int]] = {}
    for col in _PIVOT_ORDER:
        pivot = next((row for row in rows if row[col]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        rows = [_primitive(_eliminate(row, pivot, col)) if row[col] else row
                for row in rows]
        pivots = {c: _primitive(_eliminate(row, pivot, col)) if row[col]
                  else row for c, row in pivots.items()}
        pivots[col] = pivot
    # every remaining row is zero left of the right-hand side
    if any(row[5] for row in rows):
        return None

    pinned_f = None
    if 4 in pivots:
        # x is forced to a constant (no angle column survives in its row)
        xrow = pivots[4]
        if not xrow[5]:
            return None
        pinned_f = Fraction(xrow[4], xrow[5])
    free_cols = [c for c in range(5) if c not in pivots]
    den = math.lcm(*(pivots[c][c] for c in range(4) if c in pivots))
    out = []
    for c in range(4):
        if c in pivots:
            row = pivots[c]
            s = den // row[c]
            out.append([row[5] * s] + [-row[j] * s for j in free_cols])
        else:
            out.append([0] + [den if j == c else 0 for j in free_cols])
    free = tuple(_VAR_NAMES[c] for c in free_cols)
    return AffineAngles.reduced(free, den, out), pinned_f
