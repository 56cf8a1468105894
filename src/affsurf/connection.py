"""Rational connection coefficients.

Away from the gluing seams a surface chart develops by a map phi whose
logarithmic derivative of derivative, phi''/phi', is a rational function of
the uniformized coordinate. For finite aspect it has four simple poles at
the prevertices with alternating residues +-log(K)/(2*pi*i); in the limit
the two pole pairs merge into two double poles on the real axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

PREVERTEX_SIGNS = (-1.0, +1.0, -1.0, +1.0)


def prevertex_ring(z1: complex) -> tuple[complex, complex, complex, complex]:
    """The four prevertices in counterclockwise order from the first quadrant."""
    z1 = complex(z1)
    return (z1, -z1.conjugate(), -z1, z1.conjugate())


@dataclass(frozen=True)
class RationalConnection:
    """Either four simple poles (finite aspect) or two double poles (limit).

    Use from_aspect or merged_limit; the raw constructor is an implementation
    detail. value() accepts scalars or arrays.
    """

    kind: str
    beta: complex = 0j
    poles: tuple = ()
    x0: float = 0.0
    tau: float = 0.0

    @classmethod
    def from_aspect(cls, K: float, prevertex: complex) -> "RationalConnection":
        if math.isinf(K):
            raise ValueError("use merged_limit for the limit connection")
        if not K >= 1.0:
            raise ValueError(f"aspect must be >= 1, got {K}")
        z1 = complex(prevertex)
        if not (z1.real > 0 and z1.imag > 0):
            raise ValueError(f"prevertex must lie in the open first quadrant, got {z1}")
        beta = math.log(K) / (2j * math.pi)
        return cls(kind="finite", beta=beta, poles=prevertex_ring(z1))

    @classmethod
    def merged_limit(cls, x0: float, tau: float) -> "RationalConnection":
        if not x0 > 0:
            raise ValueError(f"double poles sit at +-x0 with x0 > 0, got {x0}")
        if not tau > 0:
            raise ValueError(f"strength tau must be positive, got {tau}")
        return cls(kind="limit", poles=(x0 + 0j, -x0 + 0j), x0=float(x0), tau=float(tau))

    @property
    def is_trivial(self) -> bool:
        """True for aspect 1, where the connection vanishes identically."""
        return self.kind == "finite" and self.beta == 0

    def value(self, z):
        """Evaluate at z (scalar or ndarray). Raises within 1e-12 of a pole."""
        arr = np.asarray(z, dtype=complex)
        if self.is_trivial:
            out = np.zeros_like(arr)
            return complex(out) if arr.ndim == 0 else out
        clearance = 1e-12 * (1.0 + max(abs(p) for p in self.poles))
        for p in self.poles:
            if np.any(np.abs(arr - p) < clearance):
                raise ValueError(f"evaluation too close to the pole at {p}")
        if self.kind == "finite":
            out = np.zeros_like(arr)
            for sign, p in zip(PREVERTEX_SIGNS, self.poles):
                out += sign / (arr - p)
            out *= self.beta
        else:
            out = -self.tau / (arr - self.x0) ** 2 + self.tau / (arr + self.x0) ** 2
        return complex(out) if arr.ndim == 0 else out

    def residue_at(self, pole: complex, tol: float = 1e-9) -> complex:
        """Residue at the given pole; double poles have residue zero."""
        for i, p in enumerate(self.poles):
            if abs(complex(pole) - p) <= tol:
                if self.kind == "finite":
                    return PREVERTEX_SIGNS[i] * self.beta
                return 0j
        raise ValueError(f"{pole} is not a pole (have {self.poles})")

    def double_pole_coefficient(self, pole: complex, tol: float = 1e-9) -> float:
        """Coefficient of 1/(z - pole)^2, defined for the limit shape only."""
        if self.kind != "limit":
            raise ValueError("finite-aspect connections have simple poles only")
        if abs(complex(pole) - self.x0) <= tol:
            return -self.tau
        if abs(complex(pole) + self.x0) <= tol:
            return self.tau
        raise ValueError(f"{pole} is not a pole (have {self.poles})")


def connection_limit_check(
    finite_family: Sequence[RationalConnection],
    limit: RationalConnection,
    samples: np.ndarray,
) -> tuple[list[float], bool]:
    """Sup of |finite value - limit value| over the samples, one per member.

    The family should be ordered by increasing aspect; the returned flag
    reports whether the sups are strictly decreasing along it.
    """
    ref = limit.value(samples)
    sups = [float(np.max(np.abs(c.value(samples) - ref))) for c in finite_family]
    decreasing = all(b < a for a, b in zip(sups, sups[1:]))
    return sups, decreasing
