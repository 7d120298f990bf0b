"""Exact dyadic measures of entry-specification events.

Three measures live on partially specified {-1,0,+1} matrices: the lazy
coin flip measure (i.i.d. entries -1, 0, +1 with probabilities 1/4, 1/2,
1/4), the push-forward of the uniform measure on sign matrices through
half Chio condensation, and derived averaged / sign-forgetting variants.

Every value is an exact dyadic probability: zero or a power 2^-e.  The
condensation measure of an event specifying ``B`` is zero unless the
signed graph of ``B`` is balanced, in which case it equals
``2^-(dom + f0 - beta0)`` independently of the ambient index set; its
ratio to the lazy coin flip value is ``2^beta1``.

``recipe_p_chio`` re-derives the same value for at most six specified
entries by a literal case split on matrix circuits and sign parities,
sharing no balance or component-count code with ``p_chio``, so testing
the two against each other is meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable

from .matrix_core import (
    Index2,
    IndexSet,
    PartialTernaryMatrix,
    chio_extend,
    full_inner_box,
)
from .signed_graph import balance_summary, four_circuits, is_six_circuit


@dataclass(frozen=True, order=False)
class DyadicProb:
    """Exact probability that is either zero or a power of one half.

    ``exponent`` is ``None`` for zero, otherwise the non-negative ``e``
    in ``2^-e``.
    """

    exponent: int | None

    def __post_init__(self) -> None:
        if self.exponent is not None and self.exponent < 0:
            raise ValueError("exponent must be non-negative")

    @classmethod
    def zero(cls) -> "DyadicProb":
        return cls(None)

    @classmethod
    def pow_half(cls, e: int) -> "DyadicProb":
        return cls(int(e))

    @classmethod
    def one(cls) -> "DyadicProb":
        return cls(0)

    @classmethod
    def from_fraction(cls, value: Fraction) -> "DyadicProb":
        if value == 0:
            return cls.zero()
        if value.numerator != 1 or value.denominator & (value.denominator - 1):
            raise ValueError(f"{value} is not zero or a power of 1/2")
        return cls(value.denominator.bit_length() - 1)

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def as_fraction(self) -> Fraction:
        if self.exponent is None:
            return Fraction(0)
        return Fraction(1, 2**self.exponent)

    def __mul__(self, other: "DyadicProb") -> "DyadicProb":
        if self.is_zero or other.is_zero:
            return DyadicProb.zero()
        return DyadicProb(self.exponent + other.exponent)

    def __lt__(self, other: "DyadicProb") -> bool:
        return self.as_fraction() < other.as_fraction()

    def __le__(self, other: "DyadicProb") -> bool:
        return self.as_fraction() <= other.as_fraction()

    def ratio_log2(self, other: "DyadicProb") -> int:
        """Exact log2 of self/other; both must be nonzero."""
        if self.is_zero or other.is_zero:
            raise ZeroDivisionError("ratio of dyadic probabilities with a zero")
        return other.exponent - self.exponent

    def to_json_dict(self) -> dict:
        if self.is_zero:
            return {"zero": True}
        return {"log2": -self.exponent}

    def __repr__(self) -> str:
        return "DyadicProb(0)" if self.is_zero else f"DyadicProb(2^-{self.exponent})"


@dataclass(frozen=True)
class Event:
    """Entry-specification event: matrices on ``ambient`` agreeing with ``matrix``.

    The ambient index set defaults to the domain of the matrix and must
    satisfy domain <= ambient <= [s-1] x [t-1].
    """

    matrix: PartialTernaryMatrix
    ambient: IndexSet | None = None

    def __post_init__(self) -> None:
        if self.ambient is None:
            # The matrix constructor already pins its entries inside the
            # inner box, so the default ambient set needs no re-check.
            object.__setattr__(self, "ambient", self.matrix.domain)
            return
        amb = self.ambient
        if amb.dims != self.matrix.dims:
            raise ValueError("ambient index set has mismatched dims")
        if not amb.in_inner_box():
            raise ValueError("ambient index set must lie inside [s-1] x [t-1]")
        if not self.matrix.domain.members <= amb.members:
            raise ValueError("event domain must be contained in the ambient set")

    @classmethod
    def on_full_grid(cls, matrix: PartialTernaryMatrix) -> "Event":
        s, t = matrix.dims
        return cls(matrix, full_inner_box(s, t))

    @property
    def cardinality(self) -> int:
        """Number of matrices in the event: 3^(|ambient| - |domain|)."""
        return 3 ** (len(self.ambient) - self.matrix.dom)


def cover_height(domain: IndexSet, ambient: IndexSet) -> int:
    """Free sign choices when realizing an event by condensation.

    Equals ``|ambient~| - |I| - |p1(I)| - |p2(I)|`` where ``ambient~`` is
    the Chio extension of the ambient set; always at least 1 (the pivot
    sign is always free).
    """
    if not domain.members <= ambient.members:
        raise ValueError("domain must be contained in the ambient set")
    extended = chio_extend(ambient)
    h = len(extended) - len(domain) - len(domain.rows) - len(domain.cols)
    if h < 1:
        raise AssertionError("cover height must be >= 1")
    return h


def p_lcf(event: Event) -> DyadicProb:
    """Lazy coin flip measure: 2^-(dom + supp); never zero."""
    m = event.matrix
    return DyadicProb.pow_half(m.dom + m.supp)


def p_chio(event: Event) -> DyadicProb:
    """Condensation measure of the event.

    Zero iff the signed graph of the matrix is unbalanced, else
    ``2^-(dom + f0 - beta0)``; balance and the component count come out
    of one depth-first search.  The value does not depend on the ambient
    index set.
    """
    m = event.matrix
    balanced, f0, beta0 = balance_summary(m.dims, m.entries)
    if not balanced:
        return DyadicProb.zero()
    return DyadicProb.pow_half(m.dom + f0 - beta0)


def ratio_chio_lcf(event: Event) -> int:
    """Exact ratio p_chio / p_lcf: 0 when p_chio is zero, else 2^beta1.

    Equals 1 exactly when the graph of the matrix is a forest.
    """
    m = event.matrix
    balanced, f0, beta0 = balance_summary(m.dims, m.entries)
    if not balanced:
        return 0
    beta1 = m.supp - f0 + beta0
    return 2**beta1


def fibre_cardinality(event: Event) -> int:
    """Number of sign matrices on the extended ambient set realizing the event.

    Zero when unbalanced, else ``2^(|ambient~| - dom - f0 + beta0)``;
    dividing by ``2^|ambient~|`` recovers the condensation measure.
    """
    m = event.matrix
    balanced, f0, beta0 = balance_summary(m.dims, m.entries)
    if not balanced:
        return 0
    extended = chio_extend(event.ambient)
    return 2 ** (len(extended) - m.dom - f0 + beta0)


def p_chio_averaged(matrix: PartialTernaryMatrix) -> DyadicProb:
    """Support-averaged condensation measure of a fully specified event.

    Averages p_chio over all matrices with the same support, weighting by
    2^-supp.  The sum is computed literally over the 2^supp sign
    patterns; the result is always a single dyadic value (and equals the
    lazy coin flip value).
    """
    support = sorted(matrix.support)
    total = Fraction(0)
    for signs in product((-1, 1), repeat=len(support)):
        entries = dict(matrix.entries)
        for pos, sign in zip(support, signs):
            entries[pos] = sign
        total += p_chio(Event(PartialTernaryMatrix(matrix.dims, entries))).as_fraction()
    return DyadicProb.from_fraction(total / 2 ** len(support))


def p_chio_abs(matrix: PartialTernaryMatrix) -> DyadicProb:
    """Sign-forgetting condensation measure: uniform on {0,1} patterns.

    Raises:
        ValueError: if the matrix has a negative entry.
    """
    if any(v not in (0, 1) for v in matrix.entries.values()):
        raise ValueError("sign-forgetting measure applies to {0,1} patterns")
    return DyadicProb.pow_half(matrix.dom)


# --- independent recipe for at most six specified entries -------------------


def _odd_plus_count(matrix: PartialTernaryMatrix, positions: Iterable[Index2]) -> bool:
    return sum(1 for pos in positions if matrix[pos] == 1) % 2 == 1


def recipe_p_chio(matrix: PartialTernaryMatrix, ambient: IndexSet | None = None) -> DyadicProb:
    """Condensation measure by the literal small-domain case analysis.

    Works for at most six specified entries, using only matrix-circuit
    searches and sign parities on the raw entries; no signed-graph code
    is shared with :func:`p_chio`.

    Raises:
        ValueError: if more than six entries are specified.
    """
    if ambient is not None:
        Event(matrix, ambient)  # bounds validation only
    k = matrix.dom
    if k > 6:
        raise ValueError("recipe applies to at most six specified entries")

    def lcf() -> DyadicProb:
        return DyadicProb.pow_half(k + matrix.supp)

    if k <= 3:
        return lcf()

    domain = frozenset(matrix.entries)
    circuits = [
        c for c in four_circuits(domain) if all(matrix[p] != 0 for p in c)
    ]

    if k == 4:
        if circuits and circuits[0] == domain:
            if _odd_plus_count(matrix, domain):
                return DyadicProb.zero()
            return DyadicProb.pow_half(7)
        return lcf()

    if k == 5:
        if not circuits:
            return lcf()
        circuit = circuits[0]
        if _odd_plus_count(matrix, circuit):
            return DyadicProb.zero()
        (off_pos,) = domain - circuit
        return DyadicProb.pow_half(8 if matrix[off_pos] == 0 else 9)

    # k == 6
    if matrix.supp < 4:
        return lcf()
    if not circuits:
        if is_six_circuit(domain) and matrix.supp == 6:
            if _odd_plus_count(matrix, domain):
                return DyadicProb.zero()
            return DyadicProb.pow_half(11)
        return lcf()
    circuit = min(circuits, key=sorted)
    if _odd_plus_count(matrix, circuit):
        return DyadicProb.zero()
    extras = sorted(domain - circuit)
    zero_count = sum(1 for pos in extras if matrix[pos] == 0)
    if zero_count == 2:
        return DyadicProb.pow_half(9)
    if zero_count == 1:
        return DyadicProb.pow_half(10)
    # Both extra entries nonzero: only the two 2x3 / 3x2 grid layouts can
    # hide further circuits; anywhere else the value is pinned.
    rows = {i for i, _ in domain}
    cols = {j for _, j in domain}
    is_grid = len(rows) * len(cols) == 6 and all(
        (i, j) in domain for i in rows for j in cols
    )
    if not is_grid:
        return DyadicProb.pow_half(11)
    others = [c for c in four_circuits(domain) if c != circuit]
    if any(_odd_plus_count(matrix, c) for c in others):
        return DyadicProb.zero()
    return DyadicProb.pow_half(10)
