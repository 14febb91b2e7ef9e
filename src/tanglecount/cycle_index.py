"""Truncated cycle-index series in the power-sum basis.

A series is a finite map from partitions to exact rational coefficients
together with a truncation degree N: the degree-n homogeneous component is
sum over lam |- n of c_lam * p_lam, and the series is the formal sum of the
components for 0 <= n <= N.  Coefficients are Fractions throughout; there
is no floating point anywhere in this module.

Species operations map onto these series as follows: species sum is +,
species product is *, composition is plethysm(), Cartesian product is
kronecker(), and multiset powers E_n{G} are inner_plethysm_hn().
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .partitions import EMPTY, Partition, partitions_of, power_type, union, z


class NonZeroConstantTerm(ValueError):
    """Raised when plethysm f[g] is attempted with g(0) != 0, where the
    degreewise substitution need not terminate."""


class DegreeOutOfRange(ValueError):
    """Raised when a degree beyond a series' truncation degree is queried."""


_ZERO = Fraction(0)


class CycleIndexSeries:
    """Sparse truncated series sum of c_lam * p_lam, |lam| <= degree.

    Instances are immutable: every operation returns a new series.  The
    truncation degree of a binary operation is the min of the operands'
    degrees, and terms above it are dropped eagerly.
    """

    __slots__ = ("terms", "degree")

    def __init__(self, terms: Mapping[Partition, Fraction | int], degree: int):
        if degree < 0:
            raise ValueError("truncation degree must be nonnegative")
        clean: dict[Partition, Fraction] = {}
        for lam, c in terms.items():
            if lam.size > degree:
                continue
            c = Fraction(c)
            if c != 0:
                clean[lam] = c
        self.terms = clean
        self.degree = degree

    # -- basic queries ------------------------------------------------

    def coefficient(self, lam: Partition) -> Fraction:
        """Coefficient of p_lam (zero if absent); lam must lie within the
        truncation degree."""
        if lam.size > self.degree:
            raise DegreeOutOfRange(
                f"partition of size {lam.size} exceeds truncation degree {self.degree}"
            )
        return self.terms.get(lam, _ZERO)

    def constant_term(self) -> Fraction:
        return self.terms.get(EMPTY, _ZERO)

    def support_degrees(self) -> set[int]:
        return {lam.size for lam in self.terms}

    def homogeneous_component(self, n: int) -> "CycleIndexSeries":
        """The degree-n piece, kept at the same truncation degree."""
        if n > self.degree:
            raise DegreeOutOfRange(f"degree {n} exceeds truncation degree {self.degree}")
        return CycleIndexSeries(
            {lam: c for lam, c in self.terms.items() if lam.size == n}, self.degree
        )

    def truncate(self, degree: int) -> "CycleIndexSeries":
        """Drop terms above `degree`; cannot extend a truncation."""
        if degree > self.degree:
            raise DegreeOutOfRange(
                f"cannot extend truncation degree {self.degree} to {degree}"
            )
        return CycleIndexSeries(self.terms, degree)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycleIndexSeries)
            and self.degree == other.degree
            and self.terms == other.terms
        )

    __hash__ = None  # mutable-dict backed; not hashable

    def __repr__(self) -> str:
        return f"CycleIndexSeries({self.render()}, degree={self.degree})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "CycleIndexSeries") -> "CycleIndexSeries":
        if not isinstance(other, CycleIndexSeries):
            return NotImplemented
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, _ZERO) + c
        return CycleIndexSeries(out, min(self.degree, other.degree))

    def __neg__(self) -> "CycleIndexSeries":
        return CycleIndexSeries({lam: -c for lam, c in self.terms.items()}, self.degree)

    def __sub__(self, other: "CycleIndexSeries") -> "CycleIndexSeries":
        if not isinstance(other, CycleIndexSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycleIndexSeries(
                {lam: c * other for lam, c in self.terms.items()}, self.degree
            )
        if not isinstance(other, CycleIndexSeries):
            return NotImplemented
        n_max = min(self.degree, other.degree)
        out: dict[Partition, Fraction] = {}
        by_deg_a = _by_degree(self.terms)
        by_deg_b = _by_degree(other.terms)
        for da, items_a in by_deg_a.items():
            for db, items_b in by_deg_b.items():
                if da + db > n_max:
                    continue
                for lam_a, ca in items_a:
                    for lam_b, cb in items_b:
                        key = union(lam_a, lam_b)
                        prod = ca * cb
                        if key in out:
                            out[key] += prod
                        else:
                            out[key] = prod
        return CycleIndexSeries(out, n_max)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    # -- species compositions -------------------------------------------

    def plethysm(self, g: "CycleIndexSeries") -> "CycleIndexSeries":
        """Composition f[g]: replace each p_i by p_i[g] = g(p_i, p_2i, ...).

        g must have zero constant term, so every substituted factor has
        positive minimum degree and the result is well defined degree by
        degree under truncation.
        """
        if g.constant_term() != 0:
            raise NonZeroConstantTerm("plethysm requires g with zero constant term")
        n_max = min(self.degree, g.degree)
        p_sub: dict[int, CycleIndexSeries] = {}

        def substituted(i: int) -> CycleIndexSeries:
            # p_i[g]: multiply every part of every key of g by i
            if i not in p_sub:
                scaled = {
                    Partition(tuple(i * p for p in lam.parts)): c
                    for lam, c in g.terms.items()
                    if lam.size * i <= n_max
                }
                p_sub[i] = CycleIndexSeries(scaled, n_max)
            return p_sub[i]

        total = CycleIndexSeries({}, n_max)
        for lam, c in self.terms.items():
            # the image of p_lam has minimum degree |lam|
            if lam.size > n_max:
                continue
            term = CycleIndexSeries({EMPTY: c}, n_max)
            for part in lam.parts:
                term = term * substituted(part)
            total = total + term
        return total

    def kronecker(self, other: "CycleIndexSeries") -> "CycleIndexSeries":
        """Degree-diagonal Kronecker product: p_lam * p_lam = z_lam p_lam,
        distinct cycle types annihilate."""
        n_max = min(self.degree, other.degree)
        out: dict[Partition, Fraction] = {}
        small, large = self.terms, other.terms
        if len(small) > len(large):
            small, large = large, small
        for lam, c in small.items():
            if lam.size > n_max:
                continue
            co = large.get(lam)
            if co is not None:
                out[lam] = c * co * z(lam)
        return CycleIndexSeries(out, n_max)

    # -- counting specializations ---------------------------------------

    def unlabeled_gf(self) -> list[Fraction]:
        """Coefficients of Z(x, x^2, x^3, ...): entry n is the sum of the
        degree-n coefficients; counts unlabeled structures when self is a
        species cycle index."""
        out = [Fraction(0)] * (self.degree + 1)
        for lam, c in self.terms.items():
            out[lam.size] += c
        return out

    # -- rendering ------------------------------------------------------

    def render(self) -> str:
        """Canonical text form: terms sorted by degree then by parts,
        e.g. `p[1] + 1/2 p[1,1] + 1/2 p[2]`; the zero series renders as `0`."""
        if not self.terms:
            return "0"
        pieces = []
        for lam in sorted(self.terms):
            c = self.terms[lam]
            if lam.size == 0:
                pieces.append(str(c))
            elif c == 1:
                pieces.append(f"p{lam}")
            else:
                pieces.append(f"{c} p{lam}")
        return " + ".join(pieces)


def _by_degree(
    terms: Mapping[Partition, Fraction]
) -> dict[int, list[tuple[Partition, Fraction]]]:
    buckets: dict[int, list[tuple[Partition, Fraction]]] = {}
    for lam, c in terms.items():
        buckets.setdefault(lam.size, []).append((lam, c))
    return buckets


# -- constructors -------------------------------------------------------


def zero_series(degree: int) -> CycleIndexSeries:
    return CycleIndexSeries({}, degree)


def monomial(lam: Partition, degree: int, coeff: Fraction | int = 1) -> CycleIndexSeries:
    """The single term coeff * p_lam at the given truncation degree."""
    return CycleIndexSeries({lam: Fraction(coeff)}, degree)


def p1(degree: int) -> CycleIndexSeries:
    """The series p_1, the cycle index of the singleton species."""
    return monomial(Partition((1,)), degree)


def h_series(n: int, degree: int | None = None) -> CycleIndexSeries:
    """Complete homogeneous h_n = sum over lam |- n of p_lam / z_lam, the
    cycle index of the n-set species; h_0 = 1.  `degree` (default n) sets
    the truncation degree of the returned series."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if degree is None:
        degree = n
    return CycleIndexSeries({lam: Fraction(1, z(lam)) for lam in partitions_of(n)}, degree)


# -- inner plethysm -------------------------------------------------------


def inner_plethysm_pk(k: int, g: CycleIndexSeries) -> CycleIndexSeries:
    """p_k{g}, applied degree by degree: writing the degree-n component of g
    as sum of a_lam p_lam / z_lam, the result's component is the same sum
    with a_lam replaced by a_{lam^k}."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return g
    out: dict[Partition, Fraction] = {}
    for n in g.support_degrees():
        for lam in partitions_of(n):
            mu = power_type(lam, k)
            c = g.terms.get(mu)
            if c is not None:
                out[lam] = c * z(mu) / z(lam)
    return CycleIndexSeries(out, g.degree)


def inner_plethysm_hn(n: int, g: CycleIndexSeries) -> CycleIndexSeries:
    """h_n{g}, the cycle index of multisets of n structures of g on a common
    underlying set.

    Since f -> f{g} turns ordinary products into Kronecker products,
    h_n{g} = sum over mu |- n of (1/z_mu) * Kronecker product over the
    parts k of mu of p_k{g}.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    p_sub: dict[int, CycleIndexSeries] = {}
    total = zero_series(g.degree)
    for mu in partitions_of(n):
        prod: CycleIndexSeries | None = None
        for part in mu.parts:
            if part not in p_sub:
                p_sub[part] = inner_plethysm_pk(part, g)
            factor = p_sub[part]
            prod = factor if prod is None else prod.kronecker(factor)
        assert prod is not None
        total = total + prod * Fraction(1, z(mu))
    return total

