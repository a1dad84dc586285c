"""A point's identity: ``canonical_task``'s field walk against the
``dataclasses.asdict`` oracle, and the one memoised dict that the
resume check, the done record and every lease on the wire share."""

import json
import os

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.decoders.spec import DecoderSpec
from repro.injection import CampaignStore, build_sweep
from repro.injection.spec import (ArchSpec, CodeSpec, FaultSpec,
                                  InjectionTask, task_from_dict)
from repro.injection.store import _identity, canonical_task, task_key
from repro.rare.sampler import SamplerSpec
from repro.service import Dispatcher
from repro.service.dispatcher import execute_lease_wire
from oracles.identity import asdict_canonical_task, asdict_task_key
from test_frames import e2e_specs

DATA = os.path.join(os.path.dirname(__file__), "data")

_text = st.text(st.characters(codec="utf-8"), max_size=8)
_real = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def tasks(draw):
    """Valid ``InjectionTask``s over every field and nested spec."""
    try:
        fault = FaultSpec(
            kind=draw(st.sampled_from(["none", "radiation", "erasure"])),
            root_qubit=draw(st.integers(0, 40)),
            time_index=draw(st.integers(0, 12)),
            spread=draw(st.booleans()),
            qubits=tuple(draw(st.lists(st.integers(0, 40), max_size=4))),
            probability=draw(_real), gamma=draw(st.floats(0.5, 50.0)),
            spatial_n=draw(st.floats(0.5, 4.0)),
            num_samples=draw(st.integers(1, 12)),
            strike_round=draw(st.integers(-1, 4)),
            intensity=draw(_real))
        sampler = SamplerSpec(
            kind=draw(st.sampled_from(["mc", "tilt", "split"])),
            tilt=draw(st.sampled_from([0.0, 1.0, 2.0, 8.5])),
            levels=draw(st.integers(1, 4)),
            pilot_shots=draw(st.integers(64, 4096)))
        task = InjectionTask(
            code=CodeSpec(draw(st.sampled_from(["repetition", "xxzz"])),
                          (draw(st.integers(1, 9)), draw(st.integers(1, 9)))),
            fault=fault,
            arch=draw(st.none() | st.builds(
                ArchSpec, st.sampled_from(["mesh", "almaden", "cairo"]),
                st.lists(st.integers(1, 9), max_size=2).map(tuple))),
            layout=draw(st.sampled_from(["best", "trivial"])),
            intrinsic_p=draw(st.floats(0.0, 0.5) | st.sampled_from([1e-8,
                                                                    0.1])),
            rounds=draw(st.integers(1, 9)),
            basis=draw(st.sampled_from(["Z", "X"])),
            decoder=DecoderSpec(
                kind=draw(st.sampled_from(["mwpm", "uf", "union-find"])),
                weighting=draw(st.sampled_from(["weighted", "uniform"])),
                cache=draw(st.booleans()), hook_edges=draw(st.booleans())),
            readout=draw(st.sampled_from(["ancilla", "data"])),
            backend=draw(st.sampled_from(["auto", "frames", "tableau"])),
            recovery=draw(st.sampled_from(["static", "reweight",
                                           "discard_window"])),
            sampler=sampler,
            shots=draw(st.integers(1, 1 << 22)),
            seed=draw(st.integers(0, (1 << 64) - 1)),
            tags=tuple(draw(st.lists(st.tuples(_text, _text), max_size=4))))
    except ValueError:
        assume(False)
    return task


def _e2e_tasks():
    return [task for specs in e2e_specs(2024).values() for spec in specs
            for task in build_sweep(spec)._seeded()]


class TestCanonicalTask:
    @settings(max_examples=300, deadline=None)
    @given(task=tasks())
    def test_equals_asdict_oracle(self, task):
        got = canonical_task(task)
        assert got == asdict_canonical_task(task)
        assert json.dumps(got, sort_keys=True, default=str) == json.dumps(
            asdict_canonical_task(task), sort_keys=True, default=str)
        assert task_key(task) == asdict_task_key(task)

    def test_e2e_and_cli_shaped_specs(self):
        """The four e2e workloads' points, a tilted sweep and an
        erasure sweep (the CLI's ``campaign`` spec forms)."""
        specs = [{"codes": [["repetition", [3, 1]]], "p_values": [0.05],
                  "sampler": "tilt:2", "decoder": "union-find:hooks",
                  "recovery": "reweight", "root_seed": 31},
                 {"codes": [["xxzz", [3, 3]]], "p_values": [1e-3],
                  "faults": [{"kind": "erasure", "qubits": [0, 4]}],
                  "archs": [{"name": "mesh", "args": [5, 4]}],
                  "root_seed": 5}]
        points = _e2e_tasks() + [task for spec in specs
                                 for task in build_sweep(spec)._seeded()]
        assert len(points) > 400
        for task in points:
            assert canonical_task(task) == asdict_canonical_task(task)
            assert task_key(task) == asdict_task_key(task)

    def test_store_written_by_previous_version_keeps_its_keys(self):
        """The done records of a store written before the field walk
        carry the keys and task dicts the walk gives today."""
        spec = {"codes": [["repetition", [3, 1]]],
                "p_values": [0.05, 0.06], "shots": 4096,
                "backend": "tableau", "sampler": "tilt:2",
                "root_seed": 31}
        with open(os.path.join(DATA, "store_written_by_pr18.jsonl")) as fh:
            done = [rec for rec in map(json.loads, fh)
                    if rec["kind"] == "done"]
        assert done
        by_key = {task_key(t): t for t in build_sweep(spec)._seeded()}
        for rec in done:
            task = by_key[rec["key"]]
            assert rec["task"] == json.loads(json.dumps(
                canonical_task(task), default=str))


class TestSharedIdentity:
    SPEC = {"codes": [["repetition", [3, 1]], ["repetition", [5, 1]]],
            "p_values": [0.01, 0.02], "shots": 1024, "rounds": 2,
            "faults": [{"kind": "none"},
                       {"kind": "radiation", "root_qubit": 1,
                        "time_index": 2}],
            "root_seed": 17}

    def test_lease_ships_the_memoised_dict(self, tmp_path):
        d = Dispatcher(CampaignStore(tmp_path / "store.jsonl"),
                       slice_shots=512)
        d.submit(self.SPEC)
        leases = d.lease(runner="t", max_leases=4)
        assert leases
        for lease in leases:
            assert lease.to_wire()["task"] is _identity(lease.task)[1]

    @pytest.mark.integration
    def test_drain_leaves_the_memoised_dicts_intact(self, tmp_path):
        """A full drain through the service's in-process pool hands the
        shared dict itself to ``task_from_dict`` and the engine (no JSON
        in between): afterwards every task's dict still equals the
        oracle's, and the store's done records hold it."""
        from repro.service import CampaignService, ServiceClient

        _identity.cache_clear()
        svc = CampaignService(str(tmp_path / "store.jsonl"), port=0,
                              workers=1, slice_shots=512)
        svc.start_background()
        try:
            client = ServiceClient(svc.url)
            status = client.wait(client.submit(self.SPEC)["job"],
                                 timeout_s=120)
        finally:
            svc.stop_background()
        assert status["state"] == "done"
        points = build_sweep(self.SPEC)._seeded()
        assert len(status["results"]) == len(points)
        for task in points:
            assert _identity(task)[1] == asdict_canonical_task(task)
            assert task_from_dict(_identity(task)[1]) == task
        with open(tmp_path / "store.jsonl") as fh:
            done = {rec["key"]: rec["task"] for rec in map(json.loads, fh)
                    if rec["kind"] == "done"}
        assert done == {task_key(t): json.loads(json.dumps(
            asdict_canonical_task(t), default=str)) for t in points}

    def test_wire_drain_rebuilds_equal_tasks(self, tmp_path):
        """``execute_lease_wire`` on the unserialised wire form (the
        thread pool's path) leaves the dict as the oracle gives it."""
        store = CampaignStore(tmp_path / "store.jsonl")
        d = Dispatcher(store, slice_shots=512)
        d.submit(self.SPEC)
        while True:
            leases = d.lease(runner="t", max_leases=8)
            if not leases:
                break
            for lease in leases:
                payload = execute_lease_wire(lease.to_wire())
                d.complete(payload["lease"], payload["chunks"],
                           key=payload["key"])
                assert _identity(lease.task)[1] \
                    == asdict_canonical_task(lease.task)
        store.close()
        assert not d.points
