"""Exact angle algebra for the a2bc quadrilateral tile.

Tile angles are affine rational expressions in the basis {pi, pi/f}, where f
is the (even, >= 6) number of tiles.  Vertex angle-sum systems are solved
exactly over the rationals, with f kept symbolic; some systems pin f to a
concrete value, which is reported on the solution.  ``VertexSignature``
and ``ANGLE_NAMES`` live in ``vertex`` and are re-exported here.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .vertex import ANGLE_NAMES, VertexSignature

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
    "angles_feasible",
]

_ZERO = Fraction(0)


def _frac(x: int | Fraction) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class AngleExpr(NamedTuple("_AngleExprFields",
                            [("c0", Fraction), ("c1", Fraction)])):
    """An angle c0*pi + c1*pi/f with rational coefficients, stored as
    Fractions by the constructor and by ``_make`` (so by ``_replace``)."""

    __slots__ = ()

    def __new__(cls, c0: int | Fraction = _ZERO,
                c1: int | Fraction = _ZERO) -> "AngleExpr":
        return tuple.__new__(cls, (_frac(c0), _frac(c1)))

    _make = classmethod(lambda cls, fields: cls(*fields))

    @staticmethod
    def pi(coeff: int | Fraction = 1) -> "AngleExpr":
        return AngleExpr(coeff)

    @staticmethod
    def pi_over_f(coeff: int | Fraction = 1) -> "AngleExpr":
        return AngleExpr(_ZERO, coeff)

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


def quad_sum_residual(
    angles: Sequence[AngleExpr], f: int | Fraction
) -> Fraction:
    """alpha+beta+gamma+delta - (2 + 4/f) pi, as an exact multiple of pi."""
    return sum((a.coefficient_of_pi(f) for a in angles), -2 - Fraction(4) / f)


def vertex_sum_residual(
    sig: VertexSignature, angles: Sequence[AngleExpr], f: int | Fraction
) -> Fraction:
    """a*alpha + b*beta + c*gamma + d*delta - 2 pi, as a multiple of pi."""
    return sum((e * a.coefficient_of_pi(f)
                for e, a in zip(sig, angles)), Fraction(-2))


class AngleSolution(NamedTuple):
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
            AngleExpr(Fraction(const, aff.den), coeffs.pop("x", _ZERO)), coeffs)
    free = tuple(n for n in aff.free if n != "x")
    assignment = None if free else {
        n: const for n, (const, _) in relations.items()}
    return AngleSolution("parametric" if free else "unique", assignment,
                         free, relations, pinned_f)


class AffineAngles(NamedTuple):
    """The solution set of an angle-sum system as an exact integer map.

    Each of alpha, beta, gamma, delta (in units of pi) is
    ``(row[0] + sum(row[j] * free[j - 1] for j >= 1)) / den``, one row per
    angle.  ``free`` lists the free angles in alpha, beta, gamma, delta
    order, then ``"x"`` (pi/f) when f is symbolic and not forced.  ``den`` is
    positive and ``den`` and all row entries together have gcd 1, so equal
    solution sets are equal tuples (and hash equal).

    Which angles stay free matters only where ``has_witness`` samples them
    on a grid: ``angles_feasible``, the AVC search's first signature, and
    ``step`` from a node with two or more free angles.  ``step`` from a node
    with at most one free angle is exact.  ``solve_affine``'s pivot order
    (delta, gamma, beta, alpha) and ``pin``'s elimination order fix them: at
    a concrete f, delta is a pivot of the quadrilateral sum, so the free
    angles are drawn from alpha, beta and gamma.
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
        a, b, c, d = sig
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

    def angles(self) -> tuple[AngleExpr, ...] | None:
        """The four angles when no parameter is free, else None."""
        return None if self.free else tuple(
            AngleExpr.pi(Fraction(row[0], self.den)) for row in self.rows)

    def has_witness(self) -> bool:
        """Whether some angle assignment with the free angles on the 1/8
        grid (multiples of pi in (0, 2)) has all angles in (0, 2), at most
        one >= 1, and beta != delta unless gamma = 1.

        At grid point free_j = t_j / 8 an angle is n / (8 den) with
        n = 8 row[0] + sum(row[j] t_j), so every test is an integer
        comparison of n against 0, 8 den and 16 den.  The grid is exact
        when no angle is free.
        """
        one = 8 * self.den
        consts = [8 * row[0] for row in self.rows]
        for ts in itertools.product(range(1, 16), repeat=len(self.free)):
            a, b, g, d = (c + sum(k * t for k, t in zip(row[1:], ts))
                          for c, row in zip(consts, self.rows))
            if _valid_angles(a, b, g, d, one):
                return True
        return False

    def step(self, sig: VertexSignature) -> "AffineAngles | None":
        """The node with sig's equation added: the node itself when the
        equation is redundant, the pinned node when it is feasible, else
        None.

        With no free angle, sig fits iff its angle sum is 2pi.  With one
        free angle t, the equation e0 + e1 t = 0 fixes t, so each angle is
        (r0 e1 - r1 e0) / (den e1) and the child is tested exactly, with
        ``has_witness``'s integer comparisons.  With more free angles the
        child is ``pin``'s, kept if it ``has_witness``.
        """
        if not self.free:
            (ka,), (kb,), (kc,), (kd,) = self.rows
            a, b, c, d = sig
            return (self if a * ka + b * kb + c * kc + d * kd == 2 * self.den
                    else None)
        eq = self.equation(sig)
        e0, *coeffs = eq
        if not any(coeffs):
            return None if e0 else self
        if len(coeffs) > 1:
            child = self.pin(eq)
            return child if child.has_witness() else None
        (e1,) = coeffs
        if e1 < 0:
            e0, e1 = -e0, -e1
        nums = [r0 * e1 - r1 * e0 for r0, r1 in self.rows]
        one = self.den * e1
        if not _valid_angles(*nums, one):
            return None
        return AffineAngles.reduced((), one, [(n,) for n in nums])


def _valid_angles(a: int, b: int, g: int, d: int, one: int) -> bool:
    """Whether angles a, b, g, d (integers over ``one`` = pi) all lie in
    (0, 2pi), at most one is >= pi, and beta != delta unless gamma = pi."""
    two = 2 * one
    return (0 < a < two and 0 < b < two and 0 < g < two and 0 < d < two
            and (a >= one) + (b >= one) + (g >= one) + (d >= one) <= 1
            and (b != d or g == one))


def _eliminate(row: Sequence[int], pivot: Sequence[int], col: int) -> list[int]:
    """Fraction-free elimination step: ``row`` scaled by ``pivot[col]``
    minus ``pivot`` scaled by ``row[col]``, which is zero at ``col``."""
    a, b = pivot[col], row[col]
    return [a * r - b * p for r, p in zip(row, pivot)]


def solve_affine(
    signatures: Iterable[VertexSignature], f: int,
) -> AffineAngles | None:
    """The system of ``solve_angle_system`` at a concrete f, quadrilateral
    sum included, as AffineAngles; None if it has no solution."""
    solved = _solve(signatures, True, f)
    return None if solved is None else solved[0]


def angles_feasible(signatures: Iterable[VertexSignature], f: int) -> bool:
    """Whether the vertex angle-sum system at f admits angle values in
    (0, 2pi) with at most one reflex angle (and beta != delta unless
    gamma = pi), by ``AffineAngles.has_witness``."""
    node = solve_affine(signatures, f)
    return node is not None and node.has_witness()


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
    None if the system has no solution.  One Gauss-Jordan pass of inlined
    ``_eliminate`` steps, reduced once at the end: the pivot columns depend
    only on column ranks, so row order and scaling do not matter."""
    # columns alpha, beta, gamma, delta, x | right-hand side
    rows = [[*s, 0, 2] for s in set(signatures)]
    if not rows:
        raise ValueError("signature set must be nonempty")
    if include_quad_sum:
        rows.append([1, 1, 1, 1, -4, 2])
    if f is not None:
        rows.append([0, 0, 0, 0, f, 1])
    cols: list[int] = []  # the pivot columns, in step with done's rows
    done: list[list[int]] = []
    for col in _PIVOT_ORDER:
        for pivot in rows:
            if pivot[col]:
                break
        else:
            continue
        rows.remove(pivot)
        a = pivot[col]
        rows = [[a * r - b * p for r, p in zip(row, pivot)]
                if (b := row[col]) else row for row in rows]
        done = [[a * r - b * p for r, p in zip(row, pivot)]
                if (b := row[col]) else row for row in done]
        cols.append(col)
        done.append(pivot)
    # every remaining row is zero left of the right-hand side
    if any(row[5] for row in rows):
        return None

    pivots = dict(zip(cols, done))
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
