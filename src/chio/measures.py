"""Exact dyadic measures of entry-specification events.

Three measures live on partially specified {-1,0,+1} matrices: the lazy
coin flip measure (i.i.d. entries -1, 0, +1 with probabilities 1/4, 1/2,
1/4), the push-forward of the uniform measure on sign matrices through
half Chio condensation, and derived averaged / sign-forgetting variants.

Every value is an exact dyadic probability: zero or a power 2^-e with an
int ``e >= 0``, held in the one shared ``DyadicProb`` instance of that
value, so values compare and hash by identity at C speed.  The
condensation measure of an event specifying ``B`` is zero unless the
signed graph of ``B`` is balanced, in which case it equals
``2^-(dom + f0 - beta0)`` independently of the ambient index set; its
ratio to the lazy coin flip value is ``2^beta1``.  Balance comes from
``signed_graph.balance_summary``, through ``matrix_balance``, which keeps
the triple on the matrix for ``p_chio``, ``ratio_chio_lcf`` and
``fibre_cardinality``: the graph of a support is scanned once, its cycle
basis held in the bounded memo ``signed_graph.support_cycles``, and each
sign pattern on it is decided by the minus-parity of its fundamental
cycles.

``p_chio_sign_patterns`` gives ``p_chio`` of all 2^supp sign patterns on
one support from that memo, through the minus-parity of each
fundamental cycle.  ``p_chio_averaged`` sums that list literally
over the patterns; it never uses the closed form of the lazy coin flip
value.

``recipe_p_chio`` re-derives the same value for at most six specified
entries by a literal case split on matrix circuits and sign parities,
sharing no balance or component-count code with ``p_chio``, so testing
the two against each other is meaningful.  It takes the matrix alone,
since the value does not depend on the ambient index set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from typing import Collection, Iterable, Mapping, Sequence

from .matrix_core import (
    Index2,
    IndexSet,
    PartialTernaryMatrix,
    chio_extend,
    full_inner_box,
)
from .signed_graph import four_circuits, is_six_circuit, matrix_balance, support_cycles


_INSTANCES: dict[int | None, "DyadicProb"] = {}


@dataclass(frozen=True, eq=False, init=False)
class DyadicProb:
    """Exact probability that is either zero or a power of one half.

    ``exponent`` is ``None`` for zero, otherwise the non-negative int ``e``
    in ``2^-e``.  There is one instance per value: the constructor,
    ``zero``, ``pow_half``, unpickling, ``copy`` and
    ``dataclasses.replace`` all return it, so equality and hashing are
    object identity.
    """

    exponent: int | None

    def __new__(cls, exponent: int | None) -> "DyadicProb":
        if exponent is None:
            return DyadicProb.zero()
        return DyadicProb.pow_half(exponent)

    @staticmethod
    @cache
    def zero() -> "DyadicProb":
        return DyadicProb._build(None)

    @staticmethod
    @lru_cache(maxsize=None, typed=True)
    def pow_half(e: int) -> "DyadicProb":
        # Typed, so that 9.0 or True never hits the entry of the int 9.
        if type(e) is not int or e < 0:
            raise ValueError(f"exponent must be a non-negative int, not {e!r}")
        return DyadicProb._build(e)

    @staticmethod
    def _build(exponent: int | None) -> "DyadicProb":
        self = object.__new__(DyadicProb)
        object.__setattr__(self, "exponent", exponent)
        # Two threads may both miss a cache on a first call; setdefault is
        # atomic, so they still get one instance.
        return _INSTANCES.setdefault(exponent, self)

    def __reduce__(self):
        return DyadicProb, (self.exponent,)

    @classmethod
    def from_fraction(cls, value: Fraction) -> "DyadicProb":
        if value == 0:
            return cls.zero()
        if value.numerator != 1 or value.denominator & (value.denominator - 1):
            raise ValueError(f"{value} is not zero or a power of 1/2")
        return cls.pow_half(value.denominator.bit_length() - 1)

    @property
    def is_zero(self) -> bool:
        return self.exponent is None

    def as_fraction(self) -> Fraction:
        if self.exponent is None:
            return Fraction(0)
        return Fraction(1, 2**self.exponent)

    def to_json_dict(self) -> dict:
        if self.is_zero:
            return {"zero": True}
        return {"log2": -self.exponent}

    def __repr__(self) -> str:
        return "DyadicProb(0)" if self.is_zero else f"DyadicProb(2^-{self.exponent})"


class Event:
    """Entry-specification event: matrices on ``ambient`` agreeing with ``matrix``.

    The ambient index set defaults to the domain of the matrix and must
    satisfy domain <= ambient <= [s-1] x [t-1].  Events are immutable.
    The default ambient set is built on the first read of ``ambient``;
    ``p_lcf``, ``p_chio`` and ``ratio_chio_lcf`` never read it.  The
    constructor checks the ambient set, then fills both slots through
    their descriptors.
    """

    __slots__ = ("matrix", "_ambient")

    def __init__(self, matrix: PartialTernaryMatrix, ambient: IndexSet | None = None) -> None:
        if ambient is not None:
            if ambient.dims != matrix.dims:
                raise ValueError("ambient index set has mismatched dims")
            if not ambient.in_inner_box():
                raise ValueError("ambient index set must lie inside [s-1] x [t-1]")
            if not matrix.entries.keys() <= ambient.members:
                raise ValueError("event domain must be contained in the ambient set")
        _set_matrix(self, matrix)
        _set_ambient(self, ambient)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of an Event")

    @property
    def ambient(self) -> IndexSet:
        if self._ambient is None:
            # The matrix constructor already pins its entries inside the
            # inner box, so the default ambient set needs no re-check.
            _set_ambient(self, self.matrix.domain)
        return self._ambient

    def __reduce__(self):
        return Event, (self.matrix, self._ambient)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.matrix == other.matrix and self.ambient == other.ambient

    def __repr__(self) -> str:
        return f"Event(matrix={self.matrix!r}, ambient={self.ambient!r})"

    @classmethod
    def on_full_grid(cls, matrix: PartialTernaryMatrix) -> "Event":
        s, t = matrix.dims
        return cls(matrix, full_inner_box(s, t))


_set_matrix = Event.matrix.__set__
_set_ambient = Event._ambient.__set__


def p_lcf(event: Event) -> DyadicProb:
    """Lazy coin flip measure: 2^-(dom + supp); never zero."""
    m = event.matrix
    return DyadicProb.pow_half(m.dom + m.supp)


def p_chio(event: Event) -> DyadicProb:
    """Condensation measure of the event.

    Zero iff the signed graph of the matrix is unbalanced, else
    ``2^-(dom + f0 - beta0)``; balance and the component count come from
    the memoised cycle basis of the support and are kept on the matrix.
    The value does not depend on the ambient index set.
    """
    m = event.matrix
    balanced, f0, beta0 = matrix_balance(m)
    if not balanced:
        return DyadicProb.zero()
    return DyadicProb.pow_half(m.dom + f0 - beta0)


def ratio_chio_lcf(event: Event) -> int:
    """Exact ratio p_chio / p_lcf: 0 when p_chio is zero, else 2^beta1.

    Equals 1 exactly when the graph of the matrix is a forest.
    """
    m = event.matrix
    balanced, f0, beta0 = matrix_balance(m)
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
    balanced, f0, beta0 = matrix_balance(m)
    if not balanced:
        return 0
    extended = chio_extend(event.ambient)
    return 2 ** (len(extended) - m.dom - f0 + beta0)


def p_chio_sign_patterns(domain: Collection[Index2], support: Sequence[Index2]) -> list[DyadicProb]:
    """p_chio of every sign pattern on one support, from the cycle memo.

    ``domain`` holds the specified positions and ``support`` the nonzero
    ones among them; no grid size is taken, since none of the values
    depends on it.  Entry ``p`` of the result is p_chio of the matrix
    that is -1 on the e-th support position when bit e of ``p`` is set,
    +1 on the other support positions and 0 on the rest of the domain.
    The rank f0 - beta0 of the graph and its fundamental cycles depend on
    the support alone (a domain vertex off the support is a component of
    its own), so they come from :func:`chio.signed_graph.support_cycles`,
    the memo ``balance_summary`` fills.  A pattern is balanced iff every
    fundamental cycle holds an even number of its -1 entries.  Those
    parities are linear in the pattern, so the parity vector of each
    pattern is built from one with a lower bit cleared, one support
    position at a time.

    Raises:
        ValueError: if a support position is not in the domain.
    """
    for pos in support:
        if pos not in domain:
            raise ValueError(f"support position {pos} is not in the domain")
    rank, masks = support_cycles(tuple(support))
    balanced = DyadicProb.pow_half(len(domain) + rank)
    zero = DyadicProb.zero()
    # parities[p] has bit c set when cycle c holds an odd number of the
    # -1 entries of pattern p.
    parities = [0]
    for e in range(len(support)):
        flips = sum(1 << c for c, mask in enumerate(masks) if mask >> e & 1)
        parities += [x ^ flips for x in parities]
    return [zero if x else balanced for x in parities]


def p_chio_averaged(matrix: PartialTernaryMatrix) -> DyadicProb:
    """Support-averaged condensation measure of a fully specified event.

    Averages p_chio over all matrices with the same support, weighting by
    2^-supp.  The sum is computed literally over the 2^supp sign patterns
    of :func:`p_chio_sign_patterns`, exactly, as an integer over the
    largest power of two among the terms; the result is always a single
    dyadic value (and equals the lazy coin flip value).
    """
    # In entries order, the memo key balance_summary uses for this support.
    support = [pos for pos, v in matrix.entries.items() if v]
    values = p_chio_sign_patterns(matrix.entries, support)
    exponents = [v.exponent for v in values if not v.is_zero]
    top = max(exponents, default=0)
    total = sum(1 << (top - e) for e in exponents)
    return DyadicProb.from_fraction(Fraction(total, 2 ** (top + len(support))))


def p_chio_abs(matrix: PartialTernaryMatrix) -> DyadicProb:
    """Sign-forgetting condensation measure: uniform on {0,1} patterns.

    Raises:
        ValueError: if the matrix has a negative entry.
    """
    if any(v not in (0, 1) for v in matrix.entries.values()):
        raise ValueError("sign-forgetting measure applies to {0,1} patterns")
    return DyadicProb.pow_half(matrix.dom)


# --- independent recipe for at most six specified entries -------------------


def _odd_plus_count(entries: Mapping[Index2, int], positions: Iterable[Index2]) -> bool:
    return sum(1 for pos in positions if entries[pos] == 1) % 2 == 1


@lru_cache(maxsize=1 << 10)
def _domain_four_circuits(domain: frozenset[Index2]) -> tuple[frozenset[Index2], ...]:
    """:func:`four_circuits` of a domain, searched once per domain: the
    3^k assignments of one index set share it."""
    return tuple(four_circuits(domain))


def recipe_p_chio(matrix: PartialTernaryMatrix) -> DyadicProb:
    """Condensation measure by the literal small-domain case analysis.

    Works for at most six specified entries, using only matrix-circuit
    searches and sign parities on the raw entries; no signed-graph code
    is shared with :func:`p_chio`.

    Raises:
        ValueError: if more than six entries are specified.
    """
    entries = matrix.entries
    k = len(entries)
    if k > 6:
        raise ValueError("recipe applies to at most six specified entries")

    supp = matrix.supp
    lcf = DyadicProb.pow_half(k + supp)
    if k <= 3:
        return lcf

    domain = frozenset(entries)
    circuits = [
        c for c in _domain_four_circuits(domain) if all(entries[p] != 0 for p in c)
    ]

    if k == 4:
        if circuits and circuits[0] == domain:
            if _odd_plus_count(entries, domain):
                return DyadicProb.zero()
            return DyadicProb.pow_half(7)
        return lcf

    if k == 5:
        if not circuits:
            return lcf
        circuit = circuits[0]
        if _odd_plus_count(entries, circuit):
            return DyadicProb.zero()
        (off_pos,) = domain - circuit
        return DyadicProb.pow_half(8 if entries[off_pos] == 0 else 9)

    # k == 6
    if supp < 4:
        return lcf
    if not circuits:
        if supp == 6 and is_six_circuit(domain):
            if _odd_plus_count(entries, domain):
                return DyadicProb.zero()
            return DyadicProb.pow_half(11)
        return lcf
    circuit = min(circuits, key=sorted)
    if _odd_plus_count(entries, circuit):
        return DyadicProb.zero()
    extras = sorted(domain - circuit)
    zero_count = sum(1 for pos in extras if entries[pos] == 0)
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
    others = [c for c in _domain_four_circuits(domain) if c != circuit]
    if any(_odd_plus_count(entries, c) for c in others):
        return DyadicProb.zero()
    return DyadicProb.pow_half(10)
