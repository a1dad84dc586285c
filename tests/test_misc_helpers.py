"""Coverage for remaining helpers: records_equal, heatmap, CLI-adjacent."""

import numpy as np

from repro.analysis.landscape import Landscape
from repro.arch import linear
from repro.circuits import Circuit
from repro.transpile import transpile

from oracles.circuits import records_equal


class TestRecordsEqual:
    def test_deterministic_circuit_equal(self):
        c = Circuit(3).x(0).cx(0, 2).measure(0, 0).measure(2, 1)
        routed = transpile(c, linear(5), layout="best")
        assert records_equal(c, routed)

    def test_detects_broken_routing(self):
        c = Circuit(2).x(0).measure(0, 0).measure(1, 1)
        routed = transpile(c, linear(3), layout="best")
        # Sabotage: claim a different circuit is the routed version.
        import dataclasses

        bad = Circuit(3).x(1).measure(0, 0).measure(1, 1)
        sabotaged = dataclasses.replace(routed, circuit=bad)
        assert not records_equal(c, sabotaged)


class TestAsciiHeatmap:
    def make(self):
        return Landscape("demo", np.array([1e-8, 1e-1]), np.arange(3),
                         np.linspace(1, 0, 3),
                         np.array([[0.5, 0.2, np.nan], [0.6, 0.5, 0.4]]))

    def test_contains_values(self):
        art = self.make().ascii_heatmap()
        assert "50.0" in art
        assert "demo" in art

    def test_handles_nan(self):
        art = self.make().ascii_heatmap()
        assert art  # renders without raising

    def test_row_per_p_value(self):
        art = self.make().ascii_heatmap()
        assert len(art.splitlines()) == 2 + 2  # title + header + 2 rows
