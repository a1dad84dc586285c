"""Tests for the fault-injection toolkit: specs, campaign, results."""

import dataclasses

import pytest

from repro.injection import (
    ArchSpec,
    Campaign,
    CodeSpec,
    FaultSpec,
    InjectionResult,
    InjectionTask,
    ResultSet,
    build_sweep,
    run_task,
    wilson_interval,
)


class TestSpecs:
    def test_code_spec_repetition(self):
        code = CodeSpec("repetition", (5, 1)).build()
        assert code.name == "repetition-(5,1)"

    def test_code_spec_phase_repetition(self):
        code = CodeSpec("repetition", (1, 5)).build()
        assert code.distance == (1, 5)

    def test_code_spec_xxzz(self):
        assert CodeSpec("xxzz", (3, 3)).build().num_qubits == 18

    def test_code_spec_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            CodeSpec("steane", (7, 1)).build()

    def test_code_spec_rejects_bad_repetition(self):
        with pytest.raises(ValueError):
            CodeSpec("repetition", (3, 3)).build()

    def test_arch_spec(self):
        assert ArchSpec("mesh", (5, 6)).build().num_qubits == 30
        assert ArchSpec("cairo").build().num_qubits == 27

    def test_arch_spec_label(self):
        assert ArchSpec("mesh", (5, 6)).label == "mesh-5x6"
        assert ArchSpec("cairo").label == "cairo"

    def test_fault_spec_validation(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="meteor")
        with pytest.raises(ValueError):
            FaultSpec(kind="erasure")           # needs qubits
        with pytest.raises(ValueError):
            FaultSpec(kind="radiation", time_index=99)

    def test_unknown_arch_fails_at_construction(self):
        with pytest.raises(KeyError, match="unknown architecture 'nope'"):
            ArchSpec("nope")

    @pytest.mark.parametrize("kwargs", [
        {"root_qubit": -1},
        {"kind": "erasure", "qubits": (0, -2)},
        {"kind": "erasure", "qubits": (0,), "probability": 1.5},
        {"probability": -0.1},
    ])
    def test_fault_spec_rejects_bad_qubits_and_probability(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    @pytest.mark.parametrize("kwargs", [
        {"rounds": 0}, {"rounds": -1}, {"intrinsic_p": 2.0},
        {"intrinsic_p": -1e-3}, {"intrinsic_p": float("nan")},
    ])
    def test_task_rejects_unrunnable_rounds_and_p(self, kwargs):
        with pytest.raises(ValueError):
            InjectionTask(code=CodeSpec("repetition", (3, 1)), **kwargs)

    @pytest.mark.parametrize("axis", [
        {"archs": ["nope"]}, {"rounds": 0}, {"p_values": [2.0]},
        {"faults": [{"kind": "radiation", "root_qubit": -1}]},
    ])
    def test_sweep_rejects_unrunnable_spec(self, axis):
        with pytest.raises((KeyError, ValueError)):
            build_sweep(dict({"codes": [["repetition", [3, 1]]]}, **axis))

    def test_boundary_values_still_accepted(self):
        """The checks reject only what can never run: p at 0 and 1, one
        round, qubit 0 and certain erasure all build."""
        for p in (0, 0.0, 1, 1.0):
            InjectionTask(code=CodeSpec("repetition", (3, 1)),
                          intrinsic_p=p, rounds=1)
        FaultSpec(kind="erasure", qubits=(0,), probability=1.0)
        FaultSpec(kind="erasure", qubits=(0,), probability=0.0)
        for name in ("linear", "mesh", "cairo", "heavy_hex"):
            ArchSpec(name)

    def test_task_tags(self):
        t = InjectionTask(code=CodeSpec("repetition", (3, 1)))
        t2 = t.with_tags(fig="fig6", root=3)
        assert dict(t2.tags) == {"fig": "fig6", "root": "3"}
        t3 = t2.with_tags(root=4)
        assert dict(t3.tags)["root"] == "4"

    def test_task_label(self):
        t = InjectionTask(
            code=CodeSpec("xxzz", (3, 3)), arch=ArchSpec("mesh", (5, 4)),
            fault=FaultSpec(kind="radiation", root_qubit=2, time_index=0))
        assert "xxzz-(3,3)" in t.label
        assert "mesh-5x4" in t.label
        assert "rad(q2,t0)" in t.label


class TestRunTask:
    def test_noise_free_task_perfect(self):
        t = InjectionTask(code=CodeSpec("repetition", (3, 1)),
                          intrinsic_p=0.0, shots=50, seed=1)
        r = run_task(t)
        assert r.errors == 0
        assert r.shots == 50

    def test_radiation_task_with_arch(self):
        t = InjectionTask(
            code=CodeSpec("repetition", (3, 1)), arch=ArchSpec("mesh", (2, 3)),
            fault=FaultSpec(kind="radiation", root_qubit=1, time_index=0),
            intrinsic_p=0.01, shots=200, seed=2)
        r = run_task(t)
        assert r.errors > 0           # a strike at full intensity hurts
        assert r.swap_count >= 0

    def test_radiation_without_arch_uses_index_distance(self):
        t = InjectionTask(
            code=CodeSpec("repetition", (3, 1)),
            fault=FaultSpec(kind="radiation", root_qubit=0, time_index=0),
            intrinsic_p=0.0, shots=100, seed=3)
        r = run_task(t)
        assert r.shots == 100

    def test_erasure_task(self):
        t = InjectionTask(
            code=CodeSpec("xxzz", (3, 3)),
            fault=FaultSpec(kind="erasure", qubits=(0, 1), probability=1.0),
            intrinsic_p=0.0, shots=100, seed=4)
        r = run_task(t)
        assert 0 <= r.logical_error_rate <= 1

    def test_same_seed_same_result(self):
        t = InjectionTask(
            code=CodeSpec("repetition", (5, 1)),
            fault=FaultSpec(kind="erasure", qubits=(2,), probability=0.5),
            intrinsic_p=0.02, shots=300, seed=77)
        assert run_task(t).errors == run_task(t).errors

    def test_decoder_choice(self):
        t = InjectionTask(code=CodeSpec("repetition", (5, 1)),
                          decoder="union-find", intrinsic_p=0.02,
                          shots=100, seed=5)
        assert run_task(t).shots == 100

    def test_readout_mode_changes_results(self):
        base = InjectionTask(
            code=CodeSpec("repetition", (5, 1)),
            fault=FaultSpec(kind="erasure",
                            qubits=(9,), probability=1.0),  # readout anc
            intrinsic_p=0.0, shots=200, seed=6)
        blind = run_task(dataclasses.replace(base, readout="ancilla"))
        aware = run_task(dataclasses.replace(base, readout="data"))
        assert blind.errors > aware.errors


class TestCampaign:
    def make_tasks(self, n=4):
        return [InjectionTask(code=CodeSpec("repetition", (3, 1)),
                              intrinsic_p=0.05, shots=100
                              ).with_tags(idx=i) for i in range(n)]

    def test_serial_parallel_agree(self):
        tasks = self.make_tasks()
        serial = Campaign(tasks, root_seed=11).run(workers=1)
        parallel = Campaign(tasks, root_seed=11).run(workers=4)
        assert [r.errors for r in serial] == [r.errors for r in parallel]

    def test_distinct_tasks_get_distinct_seeds(self):
        tasks = self.make_tasks()
        rs = Campaign(tasks, root_seed=1).run(workers=1)
        seeds = {r.task.seed for r in rs}
        assert len(seeds) == len(tasks)

    def test_explicit_seed_preserved(self):
        t = InjectionTask(code=CodeSpec("repetition", (3, 1)),
                          shots=10, seed=12345)
        rs = Campaign([t]).run(workers=1)
        assert rs[0].task.seed == 12345

    def test_len(self):
        c = Campaign(self.make_tasks(3) + self.make_tasks(1))
        assert len(c) == 4


class TestResults:
    def make_result(self, errors=10, shots=100, **tags):
        task = InjectionTask(code=CodeSpec("repetition", (3, 1)),
                             shots=shots).with_tags(**tags)
        return InjectionResult(task=task, shots=shots, errors=errors,
                               raw_errors=errors, corrections_applied=0)

    def test_rate_and_ci(self):
        r = self.make_result(25, 100)
        assert r.logical_error_rate == 0.25
        lo, hi = r.confidence_interval
        assert lo < 0.25 < hi

    def test_result_row_contains_tags(self):
        r = self.make_result(1, 10, sweep="a")
        row = r.to_row()
        assert row["sweep"] == "a"
        assert row["errors"] == 1

    def test_filter_tags(self):
        rs = ResultSet([self.make_result(i, 100, grp=i % 2)
                        for i in range(6)])
        sub = rs.filter_tags(grp=0)
        assert len(sub) == 3

    def test_median_mean_pooled(self):
        rs = ResultSet([self.make_result(e, 100) for e in (10, 20, 60)])
        assert rs.median_rate() == pytest.approx(0.2)
        assert rs.mean_rate() == pytest.approx(0.3)
        assert rs.pooled_rate() == pytest.approx(90 / 300)

    def test_group_by(self):
        rs = ResultSet([self.make_result(i, 100, grp=i % 2)
                        for i in range(4)])
        groups = rs.group_by(lambda r: dict(r.task.tags)["grp"])
        assert set(groups) == {"0", "1"}

    def test_json_roundtrip(self, tmp_path):
        rs = ResultSet([self.make_result(5, 50)])
        path = tmp_path / "out.json"
        rs.save(str(path))
        import json

        rows = json.loads(path.read_text())
        assert rows[0]["errors"] == 5


class TestWilson:
    def test_zero_errors(self):
        lo, hi = wilson_interval(0, 100)
        assert lo == 0.0
        assert 0 < hi < 0.05

    def test_all_errors(self):
        lo, hi = wilson_interval(100, 100)
        assert hi == pytest.approx(1.0)
        assert lo > 0.95

    def test_empty_sample(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)

    def test_contains_point_estimate(self):
        for e, n in [(3, 10), (50, 200), (1, 1000)]:
            lo, hi = wilson_interval(e, n)
            assert lo <= e / n <= hi

    def test_narrows_with_samples(self):
        lo1, hi1 = wilson_interval(10, 100)
        lo2, hi2 = wilson_interval(100, 1000)
        assert (hi2 - lo2) < (hi1 - lo1)
