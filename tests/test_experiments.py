"""Tests for the per-figure experiment generators (reduced scale)."""

import numpy as np
import pytest

from repro.analysis.landscape import Landscape
from repro.experiments import (
    fig3_temporal,
    fig4_spatial,
    fig5_landscape,
    fig6_distance,
    fig7_spread,
    fig8_architecture,
    headline,
)
from repro.experiments.common import fitting_mesh, used_physical_qubits
from repro.injection.spec import ArchSpec, CodeSpec


class TestCommon:
    def test_fitting_mesh_paper_sizes(self):
        assert fitting_mesh(30).args == (5, 6)
        assert fitting_mesh(18).args == (3, 6)
        assert fitting_mesh(10).args == (2, 5)
        assert fitting_mesh(6).args == (2, 3)

    def test_fitting_mesh_fits(self):
        for n in range(2, 31):
            rows, cols = fitting_mesh(n).args
            assert rows * cols >= n

    def test_used_physical_qubits(self):
        code = CodeSpec("repetition", (3, 1))
        arch = fitting_mesh(6)
        used = used_physical_qubits(code, arch)
        assert len(used) == 6  # all code qubits present somewhere


class TestFig3:
    def test_curves(self):
        data = fig3_temporal.run(num_points=50)
        assert data.continuous[0] == pytest.approx(1.0)
        assert data.continuous[-1] == pytest.approx(np.exp(-10))
        assert np.all(np.diff(data.continuous) < 0)

    def test_step_function_dominates(self):
        data = fig3_temporal.run(num_points=200)
        assert np.all(data.stepped >= data.continuous - 1e-12)

    def test_sample_table_matches_eq5(self):
        rows = fig3_temporal.sample_table()
        assert len(rows) == 10
        assert rows[0]["injection_prob"] == pytest.approx(1.0)
        assert rows[-1]["injection_prob"] == pytest.approx(np.exp(-10))

    def test_ablation_error_decreases_with_samples(self):
        rows = fig3_temporal.sampling_ablation(candidates=(2, 10, 50))
        errs = [r["mean_abs_error"] for r in rows]
        assert errs[0] > errs[1] > errs[2]

    def test_to_rows(self):
        data = fig3_temporal.run(num_points=5)
        assert len(data.to_rows()) == 5


class TestFig4:
    def test_peak_at_root(self):
        data = fig4_spatial.run(extent=5)
        centre = data.probabilities[5, 5]
        assert centre == pytest.approx(1.0)
        assert np.nanmax(data.probabilities) == pytest.approx(1.0)

    def test_radial_profile_matches_eq6(self):
        data = fig4_spatial.run(extent=5)
        profile = {r["distance"]: r["injection_prob"]
                   for r in data.radial_profile()}
        assert profile[0] == pytest.approx(1.0)
        assert profile[1] == pytest.approx(0.25)
        assert profile[2] == pytest.approx(1 / 9)

    def test_isotropy(self):
        data = fig4_spatial.run(extent=4)
        p = data.probabilities
        np.testing.assert_allclose(p, p.T)          # symmetric
        np.testing.assert_allclose(p, p[::-1, :])   # mirror

    def test_to_rows_grid(self):
        data = fig4_spatial.run(extent=2)
        assert len(data.to_rows()) == 25


@pytest.mark.slow
class TestFig5Small:
    @pytest.fixture(scope="class")
    def landscapes(self):
        # Tiny configuration: one code, two p values, all time samples.
        configs = ((CodeSpec("repetition", (3, 1)), ArchSpec("mesh", (2, 3)),
                    1),)
        return fig5_landscape.analyze(fig5_landscape.build_campaign(
            shots=120, p_values=(1e-8, 1e-1), configs=configs
        ).run(workers=2))

    def test_shape(self, landscapes):
        ls = landscapes["repetition-(3,1)"]
        assert ls.rates.shape == (2, 10)
        assert not np.isnan(ls.rates).any()

    def test_strike_worse_than_tail(self, landscapes):
        ls = landscapes["repetition-(3,1)"]
        assert ls.rates[0, 0] > ls.rates[0, -1]

    def test_summary_rows(self, landscapes):
        rows = fig5_landscape.summarize(landscapes)
        assert rows[0]["peak_ler"] >= rows[0]["radiation_floor_p1e-8"] - 1e-9

    def test_landscape_helpers(self, landscapes):
        ls = landscapes["repetition-(3,1)"]
        assert 0 <= ls.peak <= 1
        assert len(ls.at_strike()) == 2
        assert len(ls.noise_floor_row()) == 10
        assert len(ls.to_rows()) == 20


@pytest.mark.slow
class TestFig6Small:
    def test_rows_structure(self):
        rows = fig6_distance.analyze(fig6_distance.build_campaign(
            shots=60, max_roots=2).run(workers=4))
        families = {(r.family, r.distance) for r in rows}
        assert ("repetition", (3, 1)) in families
        assert ("xxzz", (3, 3)) in families
        for r in rows:
            assert 0.0 <= r.median_ler <= 1.0

    def test_bitflip_advantage_pairs(self):
        rows = fig6_distance.analyze(fig6_distance.build_campaign(
            shots=60, max_roots=2).run(workers=4))
        adv = fig6_distance.bitflip_advantage(rows)
        assert len(adv) == 2


@pytest.mark.slow
class TestFig7Small:
    def test_spread_data(self):
        configs = ((CodeSpec("repetition", (5, 1)), (1, 3, 6)),)
        data = fig7_spread.analyze(fig7_spread.build_campaign(
            shots=80, samples_per_size=2, configs=configs).run(workers=4))
        d = data[0]
        assert d.sizes == [1, 3, 6]
        assert 0 <= d.radiation_ler <= 1
        assert len(d.to_rows()) == 3

    def test_equivalent_erasures(self):
        d = fig7_spread.SpreadData(
            code_label="x", sizes=[1, 5, 10], median_ler=[0.1, 0.3, 0.8],
            q25=[0] * 3, q75=[1] * 3, radiation_ler=0.25, num_qubits=10)
        assert fig7_spread.equivalent_erasures(d) == 5

    def test_equivalent_erasures_none(self):
        d = fig7_spread.SpreadData(
            code_label="x", sizes=[1], median_ler=[0.1],
            q25=[0], q75=[1], radiation_ler=0.9, num_qubits=10)
        assert fig7_spread.equivalent_erasures(d) is None


@pytest.mark.slow
class TestFig8Small:
    @pytest.fixture(scope="class")
    def arch_data(self):
        configs = ((CodeSpec("repetition", (3, 1)),
                    (ArchSpec("mesh", (2, 3)), ArchSpec("linear", (6,)))),)
        return fig8_architecture.analyze(fig8_architecture.build_campaign(
            shots=60, configs=configs, time_indices=(0, 5)).run(workers=4))

    def test_panels(self, arch_data):
        assert len(arch_data) == 2
        for d in arch_data:
            assert len(d.per_qubit) == 6
            assert 0 <= d.median_ler <= 1
            assert d.min_ler <= d.median_ler <= d.max_ler

    def test_roles_assigned(self, arch_data):
        roles = {q.role for d in arch_data for q in d.per_qubit}
        assert "data" in roles

    def test_row_rendering(self, arch_data):
        row = arch_data[0].to_row()
        assert set(row) >= {"code", "arch", "swaps", "median_ler"}


@pytest.mark.slow
class TestHeadlineCampaign:
    def test_one_campaign_matches_the_figure_campaigns(self):
        """Headline runs Figs. 5-8 as one campaign: every point keeps
        the seed, shots and errors it gets in its own figure's run (a
        re-seed under one root seed would move them), and the
        observation rows are the ones the separate runs give."""
        shots = 16
        combined = headline.build_campaign(shots=shots).run(workers=2)
        figures = (fig5_landscape, fig6_distance, fig7_spread,
                   fig8_architecture)
        separate = [
            fig.build_campaign(shots=shots if fig is not fig8_architecture
                               else max(200, shots // 2)).run(workers=2)
            for fig in figures]
        alone = [(r.task.seed, r.shots, r.errors)
                 for results in separate for r in results]
        assert [(r.task.seed, r.shots, r.errors) for r in combined] == alone
        checks = headline.check_all(*(fig.analyze(results) for fig, results
                                      in zip(figures, separate)))
        assert [c.to_row() for c in headline.analyze(combined)] \
            == [c.to_row() for c in checks]
        assert len(checks) == 8


@pytest.mark.slow
class TestHeadlineChecks:
    def test_observation_1_synthetic(self):
        ls = Landscape("c", np.array([1e-8, 1e-1]), np.arange(10),
                       np.linspace(1, 0, 10),
                       np.full((2, 10), 0.5))
        check = headline.check_observation_1({"c": ls})
        assert check.holds

    def test_observation_1_fails_on_low_floor(self):
        ls = Landscape("c", np.array([1e-8]), np.arange(10),
                       np.linspace(1, 0, 10), np.full((1, 10), 0.01))
        assert not headline.check_observation_1({"c": ls}).holds

    def test_observation_3_rising(self):
        rows = [fig6_distance.DistanceRow("repetition", (d, 1), 2 * d,
                                          0.1 + d / 100, 0, 1, 5)
                for d in (3, 5, 7)]
        assert headline.check_observation_3(rows).holds

    def test_observation_4_requires_positive_advantage(self):
        rows = [
            fig6_distance.DistanceRow("xxzz", (3, 1), 6, 0.05, 0, 1, 5),
            fig6_distance.DistanceRow("xxzz", (1, 3), 6, 0.50, 0, 1, 5),
            fig6_distance.DistanceRow("xxzz", (5, 3), 30, 0.20, 0, 1, 5),
            fig6_distance.DistanceRow("xxzz", (3, 5), 30, 0.40, 0, 1, 5),
        ]
        assert headline.check_observation_4(rows).holds

    def test_observation_5_and_6(self):
        d = fig7_spread.SpreadData(
            code_label="repetition-(15,1)", sizes=[1, 10, 16],
            median_ler=[0.2, 0.5, 0.85], q25=[0] * 3, q75=[1] * 3,
            radiation_ler=0.5, num_qubits=30)
        assert headline.check_observation_5([d]).holds
        assert headline.check_observation_6([d]).holds

    def test_check_all_subset(self):
        checks = headline.check_all(distance_rows=[
            fig6_distance.DistanceRow("repetition", (3, 1), 6, 0.1, 0, 1, 5),
            fig6_distance.DistanceRow("repetition", (5, 1), 10, 0.2, 0, 1, 5),
        ])
        assert {c.observation for c in checks} == {"III", "IV"}
