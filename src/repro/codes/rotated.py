"""Rotated-surface-code lattice geometry.

Generates the plaquette structure of a rotated (checkerboard) surface
code on an ``R x C`` data grid:

* bulk plaquettes have four corners and alternate Z/X by checkerboard
  parity ``(pr + pc) % 2`` (Z on even);
* weight-2 boundary plaquettes appear on the top/bottom edges for X
  checks and on the left/right edges for Z checks, again following the
  checkerboard;
* the logical X operator is a vertical chain (column 0, weight ``R``)
  terminating on the X boundaries; the logical Z operator is a
  horizontal chain (row 0, weight ``C``) terminating on the Z
  boundaries.

Degenerate geometries fall out naturally: ``(R, 1)`` yields the
bit-flip repetition structure (only Z checks), ``(1, C)`` the
phase-flip one — matching the paper's observation that the XXZZ code at
distance ``(d, 1)`` behaves like a repetition code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass(frozen=True)
class Plaquette:
    """One stabilizer plaquette on the rotated lattice."""

    kind: str                      # "Z" or "X"
    position: Tuple[int, int]      # (pr, pc), plaquette grid coordinates
    data: Tuple[int, ...]          # data-qubit indices (row-major ids)


class RotatedLattice:
    """Plaquette layout for an ``R x C`` rotated surface code."""

    def __init__(self, rows: int, cols: int) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("lattice needs positive dimensions")
        self.rows = int(rows)
        self.cols = int(cols)
        self.z_plaquettes: List[Plaquette] = []
        self.x_plaquettes: List[Plaquette] = []
        self._build()

    # ------------------------------------------------------------------
    def data_index(self, r: int, c: int) -> int:
        """Row-major id of the data qubit at grid position (r, c)."""
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise ValueError(f"({r}, {c}) outside {self.rows}x{self.cols}")
        return r * self.cols + c

    @property
    def num_data(self) -> int:
        return self.rows * self.cols

    # ------------------------------------------------------------------
    def _corners(self, pr: int, pc: int) -> List[int]:
        out = []
        for dr in (0, 1):
            for dc in (0, 1):
                r, c = pr + dr, pc + dc
                if 0 <= r < self.rows and 0 <= c < self.cols:
                    out.append(self.data_index(r, c))
        return out

    def _build(self) -> None:
        for pr in range(-1, self.rows):
            for pc in range(-1, self.cols):
                corners = self._corners(pr, pc)
                kind = "Z" if (pr + pc) % 2 == 0 else "X"
                if len(corners) == 4:
                    pass  # bulk: always kept
                elif len(corners) == 2:
                    top_bottom = pr in (-1, self.rows - 1)
                    left_right = pc in (-1, self.cols - 1)
                    # Degenerate 1-wide lattices: a plaquette can touch
                    # both boundary classes; classify by the longer axis.
                    if top_bottom and left_right:
                        top_bottom = self.cols >= self.rows
                        left_right = not top_bottom
                    if top_bottom and kind != "X":
                        continue
                    if left_right and kind != "Z":
                        continue
                else:
                    continue  # corners (weight 0/1) never host checks
                plaq = Plaquette(kind=kind, position=(pr, pc),
                                 data=tuple(corners))
                (self.z_plaquettes if kind == "Z"
                 else self.x_plaquettes).append(plaq)

    # ------------------------------------------------------------------
    def logical_x_data(self) -> Tuple[int, ...]:
        """Vertical X chain (column 0): weight ``rows``."""
        return tuple(self.data_index(r, 0) for r in range(self.rows))

    def logical_z_data(self) -> Tuple[int, ...]:
        """Horizontal Z chain (row 0): weight ``cols``."""
        return tuple(self.data_index(0, c) for c in range(self.cols))

    def __repr__(self) -> str:
        return (f"RotatedLattice({self.rows}x{self.cols}: "
                f"{len(self.z_plaquettes)} Z, {len(self.x_plaquettes)} X)")
