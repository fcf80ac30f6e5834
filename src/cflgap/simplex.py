"""Exact phase-1 simplex for equality systems with nonnegative variables.

Decides feasibility of ``A v = b, v >= 0`` over the rationals with Bland's
anti-cycling rule, returning either a feasible point or a Farkas certificate
``y`` with ``y^T A_j <= 0`` for every column and ``y^T b > 0``.

Each tableau row, the objective row included, is a list of Python ints over
one positive row denominator, reduced by their gcd after every update, so the
pivot loop does integer arithmetic only.  Signs are read off the ints and the
ratio test cross-multiplies, so the pivots are exactly those of the same
tableau kept in fractions.  Inputs may be ints or ``Fraction``s (anything
with ``.numerator`` and ``.denominator``); ``v`` and ``y`` are built as
``Fraction``s once, at the end.  Dimensions here are tiny (dozens of rows),
so a dense tableau is plenty.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Optional, Sequence

__all__ = ["feasible_combination"]


def feasible_combination(
    columns: Sequence[Sequence[Rational]], rhs: Sequence[Rational]
) -> tuple[Optional[list[Fraction]], Optional[list[Fraction]]]:
    """Solve ``sum_j v_j * columns[j] = rhs`` with ``v >= 0`` exactly.

    Returns ``(v, None)`` when feasible, else ``(None, y)`` where ``y`` is a
    Farkas certificate for the original (unnormalized) system.
    """
    n = len(columns)
    r = len(rhs)
    if any(len(col) != r for col in columns):
        raise ValueError("column length mismatch")

    # row i of tab over dens[i] is [flip * A_i | e_i | flip * b_i], flipped
    # so that b >= 0; the artificial basis column holds the row denominator
    tab: list[list[int]] = []
    dens: list[int] = []
    flip = [-1 if b.numerator < 0 else 1 for b in rhs]
    for row in range(r):
        entries = [col[row] for col in columns] + [rhs[row]]
        den = lcm(*(e.denominator for e in entries))
        ints = [flip[row] * e.numerator * (den // e.denominator) for e in entries]
        ints[n:n] = [den if k == row else 0 for k in range(r)]
        tab.append(ints)
        dens.append(den)
    basis = [n + row for row in range(r)]  # artificials, cost 1 each

    # objective row tab[r] holds z_j - c_j: the sum of the rows, whose
    # artificial entries cancel against c_j = 1; entering improves while
    # some entry is > 0
    den = lcm(*dens)
    obj = [0] * (n + r + 1)
    for ints, d in zip(tab, dens):
        scale = den // d
        obj = [a + scale * b for a, b in zip(obj, ints)]
    obj[n : n + r] = [0] * r
    tab.append(obj)
    dens.append(den)
    _reduce(tab, dens, r)

    while True:
        obj = tab[r]
        enter = next((j for j in range(n + r) if obj[j] > 0), None)
        if enter is None:
            break
        # ratio test b_i / a_i over a_i > 0 (the row denominator cancels),
        # Bland tie-break on the leaving basis variable
        leave = None
        for row in range(r):
            coef = tab[row][enter]
            if coef > 0:
                if leave is None:
                    leave = row
                    continue
                lhs = tab[row][-1] * tab[leave][enter]
                best = tab[leave][-1] * coef
                if lhs < best or (lhs == best and basis[row] < basis[leave]):
                    leave = row
        if leave is None:
            raise AssertionError("phase-1 objective is bounded by construction")
        _pivot(tab, dens, leave, enter)
        basis[leave] = enter

    obj, den = tab[r], dens[r]
    if obj[-1] == 0:
        v = [Fraction(0)] * n
        for row, var in enumerate(basis):
            if var < n:
                v[var] = Fraction(tab[row][-1], dens[row])
        return v, None

    # infeasible: prices off the artificial columns give the Farkas direction
    y = [Fraction(flip[row] * (obj[n + row] + den), den) for row in range(r)]
    return None, y


def _reduce(tab: list[list[int]], dens: list[int], row: int) -> None:
    """Divide row ``row`` and its denominator by their gcd."""
    g = gcd(dens[row], *tab[row])
    if g > 1:
        tab[row] = [a // g for a in tab[row]]
        dens[row] //= g


def _pivot(tab: list[list[int]], dens: list[int], row: int, col: int) -> None:
    # the pivot row over its own entry at col has a 1 there; every other
    # row R over d becomes (R * q - R[col] * P) / (d * q)
    dens[row] = tab[row][col]
    _reduce(tab, dens, row)
    pivot, q = tab[row], dens[row]
    for other, ints in enumerate(tab):
        factor = ints[col]
        if other != row and factor != 0:
            tab[other] = [a * q - factor * b for a, b in zip(ints, pivot)]
            dens[other] *= q
            _reduce(tab, dens, other)
