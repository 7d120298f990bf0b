"""Matrices over {-1,+1} and {-1,0,+1}, Chio sets, condensation, exact rank.

Positions are 1-based pairs ``(i, j)``.  A *Chio set* inside ``[s] x [t]``
is an index set that contains the pivot position ``(s, t)`` and is closed
under projecting every member onto the pivot row and column.  The Chio
extension of an ``I`` inside ``[s-1] x [t-1]`` is the smallest Chio set
containing it.

Condensation maps a sign matrix on a Chio set to the half 2x2-minor matrix
anchored at the pivot; all determinant and rank computations are exact
integer arithmetic (fraction-free Bareiss elimination, full pivoting).
Floating point is never used.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, fields
from typing import Mapping

Index2 = tuple[int, int]

SIGNS = (-1, 1)
TERNARY = (-1, 0, 1)


@dataclass(frozen=True, slots=True)
class IndexSet:
    """A finite set of matrix positions inside a declared ``[s] x [t]`` box.

    ``dims`` is the pivot pair ``(s, t)``; both must be at least 2.  Members
    may live anywhere in ``[s] x [t]``; most call sites restrict them to
    ``[s-1] x [t-1]`` and the restriction is checked where it matters.

    The inner-box flag and the Chio extension are computed on first use
    and kept; they take no part in equality.
    """

    dims: tuple[int, int]
    members: frozenset[Index2] = field(default_factory=frozenset)
    _inner: bool | None = field(default=None, init=False, repr=False, compare=False)
    _extension: IndexSet | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        s, t = self.dims
        if s < 2 or t < 2:
            raise ValueError(f"dims must both be >= 2, got {self.dims}")
        object.__setattr__(self, "members", frozenset(self.members))
        for i, j in self.members:
            if not (1 <= i <= s and 1 <= j <= t):
                raise ValueError(f"position {(i, j)} outside [{s}] x [{t}]")

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(sorted(self.members))

    def __contains__(self, pos: Index2) -> bool:
        return pos in self.members

    @property
    def rows(self) -> frozenset[int]:
        """First-coordinate projection p1 of the members."""
        return frozenset(i for i, _ in self.members)

    @property
    def cols(self) -> frozenset[int]:
        """Second-coordinate projection p2 of the members."""
        return frozenset(j for _, j in self.members)

    def in_inner_box(self) -> bool:
        """True iff all members lie in ``[s-1] x [t-1]``."""
        if self._inner is None:
            s, t = self.dims
            inner = all(i <= s - 1 and j <= t - 1 for i, j in self.members)
            object.__setattr__(self, "_inner", inner)
        return self._inner


@functools.cache
def full_inner_box(s: int, t: int) -> IndexSet:
    """The full index set ``[s-1] x [t-1]`` with pivot dims ``(s, t)``.

    One shared instance per ``(s, t)``, so its inner-box flag and Chio
    extension are computed once.
    """
    return IndexSet((s, t), frozenset((i, j) for i in range(1, s) for j in range(1, t)))


def chio_extend(index_set: IndexSet) -> IndexSet:
    """Smallest Chio set containing ``index_set``.

    Adds the pivot ``(s, t)``, one pivot-column position ``(i, t)`` per row
    in p1, and one pivot-row position ``(s, j)`` per column in p2, so
    ``|extension| = 1 + |p1| + |p2| + |I|``.

    Built on the first call for an index set and kept on it.

    Raises:
        ValueError: if a member lies outside ``[s-1] x [t-1]``.
    """
    if index_set._extension is not None:
        return index_set._extension
    s, t = index_set.dims
    if not index_set.in_inner_box():
        raise ValueError("Chio extension requires members inside [s-1] x [t-1]")
    extended = {(s, t)}
    extended.update((i, t) for i in index_set.rows)
    extended.update((s, j) for j in index_set.cols)
    extended.update(index_set.members)
    extension = IndexSet((s, t), frozenset(extended))
    object.__setattr__(index_set, "_extension", extension)
    return extension


def is_chio_set(index_set: IndexSet) -> bool:
    """Decide whether ``index_set`` is a Chio set for its declared pivot.

    Equivalent to being the Chio extension of its restriction to the inner
    box ``[s-1] x [t-1]``.
    """
    s, t = index_set.dims
    members = index_set.members
    if (s, t) not in members:
        return False
    return all((i, t) in members and (s, j) in members for i, j in members)


@dataclass(frozen=True)
class SignMatrix:
    """A matrix with entries in {-1,+1} on an arbitrary index set."""

    domain: IndexSet
    entries: Mapping[Index2, int]

    def __post_init__(self) -> None:
        entries = dict(self.entries)
        if set(entries) != set(self.domain.members):
            raise ValueError("entries must cover the domain exactly")
        for pos, value in entries.items():
            if value not in SIGNS:
                raise ValueError(f"entry {value} at {pos} not in {{-1,+1}}")
        object.__setattr__(self, "entries", entries)

    def __getitem__(self, pos: Index2) -> int:
        return self.entries[pos]

    @classmethod
    def from_rows(cls, rows: list[list[int]]) -> "SignMatrix":
        """Build a full-rectangle sign matrix from nested row lists."""
        s = len(rows)
        t = len(rows[0]) if rows else 0
        if any(len(r) != t for r in rows):
            raise ValueError("ragged rows")
        entries = {(i + 1, j + 1): rows[i][j] for i in range(s) for j in range(t)}
        domain = IndexSet((s, t), frozenset(entries))
        return cls(domain, entries)

    @classmethod
    def from_compact(cls, text: str) -> "SignMatrix":
        """Parse the compact row encoding, e.g. ``"++-/-+-"`` ('/' or ',' rows)."""
        rows = []
        for row_text in text.replace(",", "/").split("/"):
            row_text = row_text.strip()
            if not row_text:
                continue
            row = []
            for ch in row_text:
                if ch == "+":
                    row.append(1)
                elif ch == "-":
                    row.append(-1)
                else:
                    raise ValueError(f"invalid sign character {ch!r}")
            rows.append(row)
        return cls.from_rows(rows)


@dataclass(frozen=True, slots=True, init=False)
class PartialTernaryMatrix:
    """A matrix with entries in {-1,0,+1} on a domain inside ``[s-1] x [t-1]``.

    ``dom`` is the number of specified positions, ``supp`` the number of
    nonzero ones; the empty matrix (dom = supp = 0) is allowed.

    The constructor copies the entries, validates the dims, every position
    and every value, counts the support, and then fills its slots directly
    through their descriptors (a frozen dataclass ``__init__`` would go
    through ``object.__setattr__`` once per field).  ``_supp`` holds that
    count.  ``_balance`` keeps the ``(balanced, f0, beta0)`` triple of the
    signed graph once :func:`chio.signed_graph.matrix_balance` has read it
    from :func:`chio.signed_graph.balance_summary`.  Neither takes part in
    equality or ``repr``.
    """

    dims: tuple[int, int]
    entries: Mapping[Index2, int]
    _supp: int = field(init=False, repr=False, compare=False)
    _balance: tuple[bool, int, int] | None = field(init=False, repr=False, compare=False)

    def __init__(self, dims: tuple[int, int], entries: Mapping[Index2, int]) -> None:
        entries = dict(entries)
        s, t = dims
        if s < 2 or t < 2:
            raise ValueError(f"dims must both be >= 2, got {dims}")
        supp = 0
        for pos, value in entries.items():
            i, j = pos
            if not (1 <= i <= s - 1 and 1 <= j <= t - 1):
                raise ValueError(f"position {pos} outside [{s - 1}] x [{t - 1}]")
            if value not in TERNARY:
                raise ValueError(f"entry {value} at {pos} not in {{-1,0,+1}}")
            if value:
                supp += 1
        _set_dims(self, dims)
        _set_entries(self, entries)
        _set_supp(self, supp)
        _set_balance(self, None)

    def __getitem__(self, pos: Index2) -> int:
        return self.entries[pos]

    @property
    def domain(self) -> IndexSet:
        return IndexSet(self.dims, frozenset(self.entries))

    @property
    def support(self) -> frozenset[Index2]:
        return frozenset(pos for pos, v in self.entries.items() if v != 0)

    @property
    def dom(self) -> int:
        return len(self.entries)

    @property
    def supp(self) -> int:
        return self._supp

    @classmethod
    def from_rows(cls, rows: list[list[int | None]], dims: tuple[int, int] | None = None) -> "PartialTernaryMatrix":
        """Build from nested rows; ``None`` marks an unspecified position.

        A full ``(n-1) x (n-1)`` grid of rows yields dims ``(n, n)`` unless
        ``dims`` overrides the inference.
        """
        r = len(rows)
        c = len(rows[0]) if rows else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        if dims is None:
            dims = (r + 1, c + 1)
        entries = {
            (i + 1, j + 1): rows[i][j]
            for i in range(r)
            for j in range(c)
            if rows[i][j] is not None
        }
        return cls(dims, entries)

    @classmethod
    def from_compact(cls, text: str, dims: tuple[int, int] | None = None) -> "PartialTernaryMatrix":
        """Parse rows of ``+ - 0`` with ``.`` for unspecified positions."""
        rows: list[list[int | None]] = []
        lookup: dict[str, int | None] = {"+": 1, "-": -1, "0": 0, ".": None}
        for row_text in text.replace(",", "/").split("/"):
            row_text = row_text.strip()
            if not row_text:
                continue
            try:
                rows.append([lookup[ch] for ch in row_text])
            except KeyError as exc:
                raise ValueError(f"invalid ternary character {exc.args[0]!r}") from None
        return cls.from_rows(rows, dims)

    def to_json_dict(self) -> dict:
        s, t = self.dims
        return {
            "dims": [s, t],
            "entries": [[i, j, self.entries[(i, j)]] for i, j in sorted(self.entries)],
        }


# The slot descriptors the constructor fills.  The unpacking fails at
# import if a field is added and not set there.
_set_dims, _set_entries, _set_supp, _set_balance = (
    PartialTernaryMatrix.__dict__[f.name].__set__ for f in fields(PartialTernaryMatrix)
)


def json_int(value) -> int:
    """``value`` if it is an ``int`` and not a ``bool``, else ``ValueError``."""
    if type(value) is not int:
        raise ValueError(f"{value!r} is not an integer")
    return value


def matrix_from_json_dict(data: dict) -> PartialTernaryMatrix:
    """Inverse of :meth:`PartialTernaryMatrix.to_json_dict`.

    Raises:
        ValueError: if a dim, position or value is not an integer, or a
            position repeats.
    """
    dims = tuple(json_int(d) for d in data["dims"])
    entries = {}
    for i, j, v in data["entries"]:
        pos = (json_int(i), json_int(j))
        if pos in entries:
            raise ValueError(f"position {pos} given twice")
        entries[pos] = json_int(v)
    return PartialTernaryMatrix(dims, entries)


def chio_condense(matrix: SignMatrix) -> PartialTernaryMatrix:
    """Half Chio condensation with pivot at the bottom-right position.

    For each inner position ``(i, j)`` of the domain the result entry is
    ``(a[i,j]*a[s,t] - a[i,t]*a[s,j]) / 2``, a value in {-1,0,+1}.

    Raises:
        ValueError: if the domain of ``matrix`` is not a Chio set.
    """
    if not is_chio_set(matrix.domain):
        raise ValueError("domain is not a Chio set")
    s, t = matrix.domain.dims
    pivot = matrix[(s, t)]
    condensed = {}
    for i, j in matrix.domain.members:
        if i == s or j == t:
            continue
        minor = matrix[(i, j)] * pivot - matrix[(i, t)] * matrix[(s, j)]
        condensed[(i, j)] = minor // 2
    return PartialTernaryMatrix((s, t), condensed)


def abs_condense(matrix: SignMatrix) -> PartialTernaryMatrix:
    """Entrywise absolute value of the half Chio condensation ({0,1}-valued)."""
    condensed = chio_condense(matrix)
    return PartialTernaryMatrix(
        condensed.dims, {pos: abs(v) for pos, v in condensed.entries.items()}
    )


class IntMatrix:
    """Dense rectangular matrix over the integers (arbitrary precision)."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: list[list[int]]):
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0
        if any(len(row) != self.cols for row in data):
            raise ValueError("ragged rows")
        self.data = [list(map(int, row)) for row in data]

    @classmethod
    def from_ternary(cls, matrix: PartialTernaryMatrix) -> "IntMatrix":
        """Dense view of a fully specified ternary matrix (missing -> 0)."""
        s, t = matrix.dims
        data = [[matrix.entries.get((i, j), 0) for j in range(1, t)] for i in range(1, s)]
        return cls(data)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.data == other.data

    def __repr__(self) -> str:
        return f"IntMatrix({self.data!r})"


def _bareiss(data: list[list[int]]) -> tuple[int, int]:
    """Fraction-free elimination (Bareiss 1968) with full pivoting.

    Each step takes the first nonzero entry of the trailing block as pivot
    and updates ``a[i][j] = (a[i][j]*pivot - a[i][k]*a[k][j]) // prev``,
    where ``prev`` is the previous pivot.  Every intermediate value is a
    minor of the input, so each division is exact.  Returns the rank and
    the last pivot signed by the row and column swaps; for a full-rank
    square input that is the determinant.
    """
    a = [row[:] for row in data]
    rows, cols = len(a), len(a[0]) if a else 0
    rank, sign, prev = 0, 1, 1
    for k in range(min(rows, cols)):
        pivot_pos = next(
            ((i, j) for i in range(k, rows) for j in range(k, cols) if a[i][j]), None
        )
        if pivot_pos is None:
            break
        pi, pj = pivot_pos
        if pi != k:
            a[k], a[pi] = a[pi], a[k]
            sign = -sign
        if pj != k:
            for row in a:
                row[k], row[pj] = row[pj], row[k]
            sign = -sign
        head = a[k]
        pivot = head[k]
        for row in a[k + 1 :]:
            factor = row[k]
            for j in range(k + 1, cols):
                row[j] = (row[j] * pivot - factor * head[j]) // prev
        prev = pivot
        rank += 1
    return rank, sign * prev


def det_int(matrix: IntMatrix) -> int:
    """Exact determinant over the integers, by :func:`_bareiss`.

    Raises:
        ValueError: if the matrix is not square.
    """
    if matrix.rows != matrix.cols:
        raise ValueError("determinant requires a square matrix")
    rank, last_pivot = _bareiss(matrix.data)
    return last_pivot if rank == matrix.rows else 0


def rank_int(matrix: IntMatrix) -> int:
    """Exact rank over the integers (equivalently over the rationals).

    The number of :func:`_bareiss` steps that find a nonzero pivot.
    """
    return _bareiss(matrix.data)[0]
