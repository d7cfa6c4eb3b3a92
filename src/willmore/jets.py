"""Second-order forward-mode differentiation in two real variables.

A ``Jet`` carries a value together with its first and second partial
derivatives with respect to the two chart coordinates.  Evaluating a chart
written in ordinary arithmetic on seeded jets produces machine-precision
gradients and Hessians, which is how every catalog surface exposes exact
derivative samples.  Values may be real or complex arrays; complex entries
are treated componentwise (the derivatives are with respect to the two real
coordinates, so ``conj`` acts slotwise).  Slots broadcast like numpy
operands; the charts give each ambient component its own jet, whose slots
are (n_r, n_theta) planes of one (6, m, n_r, n_theta) array.

The arithmetic is what the catalog charts write: ``+`` and ``*`` with a
jet or a constant on either side, ``-`` and ``/`` with the jet on the left,
positive integer powers, and ``log``, ``sin`` and ``cos``.  A non-``Jet``
factor of ``*`` or divisor of ``/`` is a constant: it scales the six slots
(by its reciprocal for ``/``), skipping the product rule, and numpy
operands on the left defer to the jet.
"""

from __future__ import annotations

import numpy as np


class Jet:
    __slots__ = ("f", "fx", "fy", "fxx", "fxy", "fyy")
    __array_ufunc__ = None  # numpy operands defer to __rmul__ / __radd__

    def __init__(self, f, fx=0.0, fy=0.0, fxx=0.0, fxy=0.0, fyy=0.0):
        self.f = f
        self.fx = fx
        self.fy = fy
        self.fxx = fxx
        self.fxy = fxy
        self.fyy = fyy

    @staticmethod
    def seed(x, y):
        """Coordinate jets for the two chart variables."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (Jet(x, 1.0, 0.0), Jet(y, 0.0, 1.0))

    def _wrap(self, other):
        return other if isinstance(other, Jet) else Jet(other)

    # -- ring operations ---------------------------------------------------

    def __add__(self, o):
        o = self._wrap(o)
        return Jet(self.f + o.f, self.fx + o.fx, self.fy + o.fy,
                   self.fxx + o.fxx, self.fxy + o.fxy, self.fyy + o.fyy)

    __radd__ = __add__

    def __neg__(self):
        return Jet(-self.f, -self.fx, -self.fy, -self.fxx, -self.fxy, -self.fyy)

    def __sub__(self, o):
        return self + (-self._wrap(o))

    def __mul__(self, o):
        if not isinstance(o, Jet):
            return self._map(lambda s: s * o)
        return Jet(
            self.f * o.f,
            self.fx * o.f + self.f * o.fx,
            self.fy * o.f + self.f * o.fy,
            self.fxx * o.f + 2 * self.fx * o.fx + self.f * o.fxx,
            self.fxy * o.f + self.fx * o.fy + self.fy * o.fx + self.f * o.fxy,
            self.fyy * o.f + 2 * self.fy * o.fy + self.f * o.fyy,
        )

    __rmul__ = __mul__

    def __truediv__(self, o):
        if not isinstance(o, Jet):
            return self * (1.0 / o)
        return self * o._reciprocal()

    def _reciprocal(self):
        inv = 1.0 / self.f
        return self._compose(inv, -inv * inv, 2 * inv * inv * inv)

    def __pow__(self, n):
        """Repeated products, exact for negative and zero bases too."""
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"jets take positive integer powers, got {n!r}")
        out = self
        for _ in range(n - 1):
            out = out * self
        return out

    # -- chain rule for a scalar function g with g', g'' evaluated at f ------

    def _compose(self, g, g1, g2):
        return Jet(
            g,
            g1 * self.fx,
            g1 * self.fy,
            g2 * self.fx * self.fx + g1 * self.fxx,
            g2 * self.fx * self.fy + g1 * self.fxy,
            g2 * self.fy * self.fy + g1 * self.fyy,
        )

    # -- componentwise real-linear maps -------------------------------------

    def _map(self, fn):
        return Jet(fn(self.f), fn(self.fx), fn(self.fy),
                   fn(self.fxx), fn(self.fxy), fn(self.fyy))

    def conj(self):
        return self._map(np.conj)


def log(u: Jet) -> Jet:
    inv = 1.0 / u.f
    return u._compose(np.log(u.f), inv, -inv * inv)


def sin(u: Jet) -> Jet:
    s, c = np.sin(u.f), np.cos(u.f)
    return u._compose(s, c, -s)


def cos(u: Jet) -> Jet:
    c, s = np.cos(u.f), np.sin(u.f)
    return u._compose(c, -s, -c)

