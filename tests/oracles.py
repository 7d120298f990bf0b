"""Independent brute-force oracles for the test suite.

Everything here recomputes quantities from first principles (cofactor
determinants, exhaustive colouring and signing sweeps, matrix circuits
listed by row and column orderings, min-over-permutation canonical forms,
literal preimage counting) and deliberately shares no code with the
library paths it checks.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations, permutations, product


def cofactor_det(rows: list[list[int]]) -> int:
    """Determinant by Laplace expansion along the first row."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def brute_rank(rows: list[list[int]]) -> int:
    """Rank as the largest size of a nonvanishing minor."""
    r, c = len(rows), len(rows[0]) if rows else 0
    for size in range(min(r, c), 0, -1):
        for row_idx in combinations(range(r), size):
            for col_idx in combinations(range(c), size):
                minor = [[rows[i][j] for j in col_idx] for i in row_idx]
                if cofactor_det(minor) != 0:
                    return size
    return 0


# --- signed graphs as (row set, col set, edge -> sign dict) -------------------


def edge_subsets_forming_circuits(edges: list[tuple[int, int]]):
    """All edge subsets that are a single circuit (connected, all degrees 2)."""
    for size in range(4, len(edges) + 1, 2):
        for subset in combinations(edges, size):
            deg: dict = {}
            for i, j in subset:
                deg[("r", i)] = deg.get(("r", i), 0) + 1
                deg[("c", j)] = deg.get(("c", j), 0) + 1
            if any(d != 2 for d in deg.values()):
                continue
            # connectivity over the subset
            verts = list(deg)
            seen = {verts[0]}
            frontier = [verts[0]]
            while frontier:
                v = frontier.pop()
                for i, j in subset:
                    pair = (("r", i), ("c", j))
                    for a, b in (pair, pair[::-1]):
                        if v == a and b not in seen:
                            seen.add(b)
                            frontier.append(b)
            if len(seen) == len(verts):
                yield subset


def brute_is_balanced(sign: dict[tuple[int, int], int]) -> bool:
    """Every circuit carries an even number of negative edges (by definition)."""
    edges = sorted(sign)
    for circuit in edge_subsets_forming_circuits(edges):
        if sum(1 for e in circuit if sign[e] == -1) % 2:
            return False
    return True


def brute_count_colorings(
    rows: set[int], cols: set[int], sign: dict[tuple[int, int], int]
) -> int:
    """Count all vertex 2-colourings constant on minus and proper on plus."""
    vertices = [("r", i) for i in sorted(rows)] + [("c", j) for j in sorted(cols)]
    count = 0
    for colours in product((-1, 1), repeat=len(vertices)):
        cmap = dict(zip(vertices, colours))
        ok = True
        for (i, j), s in sign.items():
            same = cmap[("r", i)] == cmap[("c", j)]
            if (s == -1 and not same) or (s == 1 and same):
                ok = False
                break
        if ok:
            count += 1
    return count


def brute_count_balanced_signings(edges: list[tuple[int, int]]) -> int:
    """Count signings balanced in the circuit-parity sense."""
    count = 0
    for signs in product((-1, 1), repeat=len(edges)):
        if brute_is_balanced(dict(zip(edges, signs))):
            count += 1
    return count


def is_matrix_circuit(positions) -> bool:
    """True iff the all-ones matrix on an index set's positions is a single
    circuit: every row and column it meets holds two positions, and the
    positions form one connected graph.

    Raises:
        ValueError: if the position count is odd.
    """
    members = set(positions.members)
    if len(members) % 2:
        raise ValueError("a matrix circuit needs an even number of positions")
    degree = Counter(v for i, j in members for v in (("r", i), ("c", j)))
    if len(members) < 4 or set(degree.values()) != {2}:
        return False
    start = next(iter(degree))
    seen, frontier = {start}, [start]
    while frontier:
        v = frontier.pop()
        for i, j in members:
            for a, b in ((("r", i), ("c", j)), (("c", j), ("r", i))):
                if v == a and b not in seen:
                    seen.add(b)
                    frontier.append(b)
    return len(seen) == len(degree)


def enumerate_circuits(length: int, s: int, t: int):
    """Yield every matrix circuit of the given length inside [s-1] x [t-1],
    as a frozenset of positions.

    Circuits alternate between a j-subset of rows and a j-subset of columns
    (j = length/2); each is produced exactly once.

    Raises:
        ValueError: unless ``length`` is even and at least 4.
    """
    if length % 2 != 0 or length < 4:
        raise ValueError("circuit length must be an even number >= 4")
    j = length // 2
    for row_set in combinations(range(1, s), j):
        r0, rest = row_set[0], row_set[1:]
        for col_set in combinations(range(1, t), j):
            seen: set[frozenset] = set()
            for row_order_tail in permutations(rest):
                row_order = (r0,) + row_order_tail
                for col_order in permutations(col_set):
                    edges = set()
                    for m in range(j):
                        edges.add((row_order[m], col_order[m]))
                        edges.add((row_order[(m + 1) % j], col_order[m]))
                    key = frozenset(edges)
                    if key not in seen:
                        seen.add(key)
                        yield key


# --- canonical forms of bipartite graphs --------------------------------------


def _component_canonical(rows: list[int], cols: list[int], edges: set) -> tuple:
    """Min over within-part permutations and the side swap."""
    a, b = len(rows), len(cols)
    row_pos = {r: k for k, r in enumerate(rows)}
    col_pos = {c: k for k, c in enumerate(cols)}
    cells = {(row_pos[i], col_pos[j]) for i, j in edges}

    def canon(aa, bb, cell_set):
        best = None
        for rp in permutations(range(aa)):
            for cp in permutations(range(bb)):
                key = tuple(
                    sorted((rp[x], cp[y]) for x, y in cell_set)
                )
                if best is None or key < best:
                    best = key
        return (aa, bb, best if best is not None else ())

    straight = canon(a, b, cells)
    flipped = canon(b, a, {(y, x) for x, y in cells})
    return min(straight, flipped)


def canonical_form(rows: set[int], cols: set[int], edges: set) -> tuple:
    """Canonical key of a bipartite labelled graph, up to graph isomorphism.

    Components are canonicalized independently (each connected bipartite
    component has a unique bipartition up to swap) and collected as a
    sorted multiset together with the isolated-vertex count.
    """
    vertices = [("r", i) for i in rows] + [("c", j) for j in cols]
    adj: dict = {v: [] for v in vertices}
    for i, j in edges:
        adj[("r", i)].append(("c", j))
        adj[("c", j)].append(("r", i))
    seen: set = set()
    comps = []
    isolated = 0
    for start in vertices:
        if start in seen:
            continue
        stack, comp = [start], set()
        seen.add(start)
        while stack:
            u = stack.pop()
            comp.add(u)
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        comp_rows = sorted(i for kind, i in comp if kind == "r")
        comp_cols = sorted(j for kind, j in comp if kind == "c")
        comp_edges = {
            (i, j) for i, j in edges if ("r", i) in comp and ("c", j) in comp
        }
        if not comp_edges:
            isolated += 1
            continue
        comps.append(_component_canonical(comp_rows, comp_cols, comp_edges))
    return (isolated, tuple(sorted(comps)))


def brute_fibre_count(
    dims: tuple[int, int],
    spec: dict[tuple[int, int], int],
    ambient: set[tuple[int, int]],
) -> int:
    """Literally count sign matrices on the extended ambient realizing spec."""
    s, t = dims
    extended = {(s, t)}
    extended.update((i, t) for i, _ in ambient)
    extended.update((s, j) for _, j in ambient)
    extended.update(ambient)
    cells = sorted(extended)
    count = 0
    for signs in product((-1, 1), repeat=len(cells)):
        a = dict(zip(cells, signs))
        ok = True
        for (i, j), want in spec.items():
            if (a[(i, j)] * a[(s, t)] - a[(i, t)] * a[(s, j)]) // 2 != want:
                ok = False
                break
        if ok:
            count += 1
    return count
