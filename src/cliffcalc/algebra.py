"""Complexified Clifford algebra over negative-definite generators.

A blade is a bitmask over the n generators e1..en: bit j-1 set means e_j is
a factor, the empty mask is the identity blade. Generators anticommute and
square to -1; coefficients live in C.

Multivector coefficient arithmetic is duck-typed: any ring element with
+, -, * works. In practice coefficients are either plain complex numbers
(pointwise values) or truncated Taylor jets (see taylor.py), which lets one
product routine drive both exact arithmetic and derivative calculus.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

MAX_DIM = 12


class AlgebraError(ValueError):
    """Ill-formed algebra input: bad dimension, blade, or mixed signatures."""


@dataclass(frozen=True)
class AlgebraSignature:
    """Dimension tag for the algebra generated by e1..en with e_j^2 = -1."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_DIM:
            raise AlgebraError(f"dimension must be an integer in 1..{MAX_DIM}, got {self.n!r}")


def blade_mask(indices) -> int:
    """Bitmask of a canonical blade given strictly increasing 1-based indices."""
    mask = 0
    prev = 0
    for i in indices:
        if not isinstance(i, int) or i <= prev:
            raise AlgebraError(f"blade indices must be strictly increasing positive integers, got {tuple(indices)}")
        mask |= 1 << (i - 1)
        prev = i
    return mask


def blade_indices(mask: int) -> tuple:
    return tuple(j + 1 for j in range(mask.bit_length()) if mask >> j & 1)


def blade_grade(mask: int) -> int:
    return mask.bit_count()


def blade_name(mask: int) -> str:
    """Canonical text form: "1" for the identity blade, else "e1^e3"."""
    if mask == 0:
        return "1"
    return "^".join(f"e{j}" for j in blade_indices(mask))


_BLADE_RE = re.compile(r"^e([1-9]\d*)$")


def parse_blade(name: str) -> int:
    name = name.strip()
    if name == "1":
        return 0
    indices = []
    for part in name.split("^"):
        m = _BLADE_RE.match(part.strip())
        if not m:
            raise AlgebraError(f"bad blade name {name!r}")
        indices.append(int(m.group(1)))
    return blade_mask(indices)


@lru_cache(maxsize=None)
def product_sign(a: int, b: int) -> int:
    """Sign of e_A e_B relative to the canonical blade e_(A xor B).

    Counts the transpositions needed to interleave B into A, plus one sign
    flip per shared generator (e_j^2 = -1).
    """
    swaps = 0
    t = a >> 1
    while t:
        swaps += (t & b).bit_count()
        t >>= 1
    swaps += (a & b).bit_count()
    return -1 if swaps & 1 else 1


def _is_zero(c) -> bool:
    # only numeric zeros are dropped; a jet that vanishes at one point is
    # not the zero coefficient and must be kept
    return isinstance(c, (int, float, complex)) and c == 0


class Multivector:
    """Finitely supported map from blades to coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None):
        AlgebraSignature(n)
        self.n = n
        self.terms = {}
        if terms:
            limit = 1 << n
            for mask, coeff in terms.items():
                if not isinstance(mask, int) or not 0 <= mask < limit:
                    raise AlgebraError(f"blade {mask!r} does not fit in dimension {n}")
                if not _is_zero(coeff):
                    self.terms[mask] = coeff

    @property
    def signature(self) -> AlgebraSignature:
        return AlgebraSignature(self.n)

    @classmethod
    def zero(cls, n):
        return cls(n)

    @classmethod
    def scalar(cls, n, c):
        return cls(n, {0: c})

    @classmethod
    def basis(cls, n, j):
        if not 1 <= j <= n:
            raise AlgebraError(f"basis index {j} out of range 1..{n}")
        return cls(n, {1 << (j - 1): 1.0 + 0j})

    @classmethod
    def blade(cls, n, indices, coeff=1.0 + 0j):
        return cls(n, {blade_mask(indices): coeff})

    def _check_same(self, other):
        if self.n != other.n:
            raise AlgebraError(f"signature mismatch: n={self.n} vs n={other.n}")

    def __add__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_same(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] + c if m in out else c
        return _multivector(self.n, out)

    def __sub__(self, other):
        if not isinstance(other, Multivector):
            return NotImplemented
        self._check_same(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out[m] - c if m in out else -c
        return _multivector(self.n, out)

    def __neg__(self):
        return _multivector(self.n, {m: -c for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Multivector):
            self._check_same(other)
            out = {}
            for a, ca in self.terms.items():
                for b, cb in other.terms.items():
                    m = a ^ b
                    c = ca * cb
                    if product_sign(a, b) < 0:
                        c = -c
                    out[m] = out[m] + c if m in out else c
            return _multivector(self.n, out)
        return _multivector(self.n, {m: c * other for m, c in self.terms.items()})

    def __rmul__(self, other):
        # scalar * multivector; scalars commute with every coefficient ring we use
        return _multivector(self.n, {m: other * c for m, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Multivector) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        return f"Multivector(n={self.n}, {self.render()})"

    def coeff(self, mask: int):
        return self.terms.get(mask, 0j)

    def grade(self, k: int) -> "Multivector":
        """Projection on grade k; zero for k outside 0..n by convention."""
        if k < 0 or k > self.n:
            return _multivector(self.n, {})
        return _multivector(self.n, {m: c for m, c in self.terms.items() if m.bit_count() == k})

    def grades(self):
        return sorted({m.bit_count() for m in self.terms})

    def is_homogeneous(self, k: int) -> bool:
        return all(m.bit_count() == k for m in self.terms)

    def conjugate(self) -> "Multivector":
        """Anti-involution: bar(e_j) = -e_j, bar(ab) = bar(b) bar(a), bar(i) = -i."""
        out = {}
        for m, c in self.terms.items():
            k = m.bit_count()
            cc = c.conjugate()
            if (k * (k + 1) // 2) & 1:
                cc = -cc
            out[m] = cc
        return _multivector(self.n, out)

    def map_coeffs(self, fn) -> "Multivector":
        return _multivector(self.n, {m: fn(c) for m, c in self.terms.items()})

    def norm(self) -> float:
        """Euclidean norm of the coefficient vector (numeric coefficients only)."""
        return math.sqrt(sum(abs(c) ** 2 for c in self.terms.values()))

    def scalar_part(self):
        return self.coeff(0)

    def render(self) -> str:
        """Exact round-trip text form: "(1+0j)*e1 + (0+1j)*e1^e2"."""
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda m: (m.bit_count(), m)):
            parts.append(f"{complex(self.terms[m])!r}*{blade_name(m)}")
        return " + ".join(parts)

    @classmethod
    def parse(cls, n: int, text: str) -> "Multivector":
        text = text.strip()
        if text == "0":
            return cls(n)
        terms = {}
        for part in text.split(" + "):
            coeff_src, _, blade_src = part.partition("*")
            if not blade_src:
                raise AlgebraError(f"bad multivector term {part!r}")
            mask = parse_blade(blade_src)
            terms[mask] = terms.get(mask, 0j) + complex(coeff_src)
        return cls(n, terms)


def _multivector(n, terms):
    """Multivector from terms computed out of checked multivectors.

    Drops numeric zeros, but skips the dimension and blade checks that the
    public constructor makes on outside input.
    """
    mv = object.__new__(Multivector)
    mv.n = n
    mv.terms = {m: c for m, c in terms.items() if not _is_zero(c)}
    return mv


def conjugate(a: Multivector) -> Multivector:
    return a.conjugate()


def dot_and_wedge(x: Multivector, y: Multivector):
    """Split the product of two 1-vectors into (scalar, bivector).

    The scalar part is -<x, y>, the bivector part is the wedge.
    """
    if not (x.is_homogeneous(1) and y.is_homogeneous(1)):
        raise AlgebraError("dot_and_wedge requires pure 1-vectors")
    p = x * y
    return p.scalar_part(), p.grade(2)


def pseudoscalar(n: int) -> Multivector:
    AlgebraSignature(n)
    return Multivector(n, {(1 << n) - 1: 1.0 + 0j})


def linear_combine(coeffs, terms) -> Multivector:
    terms = list(terms)
    if not terms:
        raise AlgebraError("linear_combine needs at least one term")
    n = terms[0].n
    acc = Multivector(n)
    for c, t in zip(coeffs, terms, strict=True):
        acc = acc + c * t
    return acc
