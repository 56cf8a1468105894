"""Orientation-preserving affine maps z -> a*z + b of the complex plane.

Every gluing between charts of the glued surfaces is such a map, so the
corner holonomies and hole monodromies are compositions and inverses of
these.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Similitude:
    """The map z -> a*z + b with a != 0.

    `a` carries rotation and scaling, `b` the translation. Composition is
    written in application order: ``f.compose(g)`` is the map w -> f(g(w)).
    """

    a: complex
    b: complex = 0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        if self.a == 0:
            raise ValueError("degenerate map: a == 0")

    def __call__(self, z: complex) -> complex:
        return self.a * z + self.b

    def compose(self, other: "Similitude") -> "Similitude":
        """Return self after other, i.e. z -> self(other(z))."""
        return Similitude(self.a * other.a, self.a * other.b + self.b)

    def inverse(self) -> "Similitude":
        return Similitude(1.0 / self.a, -self.b / self.a)

    def fixed_point(self) -> complex:
        if self.a == 1.0:
            raise ValueError("translation or identity has no isolated fixed point")
        return self.b / (1.0 - self.a)

    def is_identity(self, tol: float = 0.0) -> bool:
        return abs(self.a - 1.0) <= tol and abs(self.b) <= tol
