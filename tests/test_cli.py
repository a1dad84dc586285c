"""Tests for the command-line interface (cheap figures only)."""

import json

import pytest

from repro.cli import main


class TestCli:
    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "injection_prob" in out
        assert "ablation" in out

    def test_sibling_csv_ignores_directory_dots(self):
        from repro.cli import _sibling_csv

        assert _sibling_csv("out.csv", "ablation") == "out.ablation.csv"
        assert _sibling_csv("run.d/fig3", "ablation") == "run.d/fig3.ablation"
        assert _sibling_csv("run.d/fig3.csv", "ablation") \
            == "run.d/fig3.ablation.csv"

    def test_fig3_csv_honored(self, capsys, tmp_path):
        """--csv must not be silently dropped for fig3 (regression):
        the sample table lands in the requested file, the ablation in a
        sibling instead of clobbering it."""
        csv_path = tmp_path / "fig3.csv"
        assert main(["fig3", "--csv", str(csv_path)]) == 0
        assert "injection_prob" in csv_path.read_text()
        ablation = tmp_path / "fig3.ablation.csv"
        assert "mean_abs_error" in ablation.read_text()

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "distance" in out

    def test_fig4_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "fig4.csv"
        assert main(["fig4", "--csv", str(csv_path)]) == 0
        assert csv_path.exists()
        assert "injection_prob" in csv_path.read_text()

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    @pytest.mark.parametrize("fig", ["fig3", "fig4"])
    def test_analytic_figures_take_no_shots(self, fig, capsys):
        """fig3/fig4 run no campaign, so a --shots flag would be inert."""
        with pytest.raises(SystemExit) as exc:
            main([fig, "--shots", "100"])
        assert exc.value.code == 2

    def test_help(self):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0


@pytest.mark.slow
class TestFigureCommands:
    @pytest.mark.parametrize("command",
                             ["fig5", "fig6", "fig7", "fig8", "headline"])
    def test_runs_and_writes_csv(self, command, capsys, tmp_path):
        csv_path = tmp_path / f"{command}.csv"
        assert main([command, "--shots", "16", "-j", "1", "--quiet",
                     "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert f"written to {csv_path}]" in out
        lines = csv_path.read_text().splitlines()
        assert len(lines) > 1
        if command == "headline":
            assert len(lines) == 1 + 8  # header + Observations I-VIII


class TestCampaignCommand:
    SPEC = {
        "codes": [["repetition", [3, 1]]],
        "p_values": [0.05],
        "shots": 600,
        "root_seed": 21,
    }

    def write_spec(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        return str(path)

    def test_runs_spec(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        csv_path = tmp_path / "out.csv"
        assert main(["campaign", spec, "--workers", "1",
                     "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "1 points, 600 shots" in out
        assert "ler" in csv_path.read_text()

    def test_j_flag_routes_to_scheduler(self, capsys, tmp_path):
        """-j 2 runs through repro.parallel with identical output."""
        spec = self.write_spec(tmp_path)
        assert main(["campaign", spec, "--workers", "1"]) == 0
        serial = capsys.readouterr().out
        assert main(["campaign", spec, "-j", "2"]) == 0
        parallel = capsys.readouterr().out
        assert "2 worker(s)" in parallel
        # identical result table (counts are worker-count invariant)
        assert serial.splitlines()[-1] == parallel.splitlines()[-1]

    def test_store_resume(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        store = str(tmp_path / "store.jsonl")
        assert main(["campaign", spec, "--workers", "1",
                     "--store", store]) == 0
        # a new, empty store still reports its (zero) banked count
        assert "(0 already complete" in capsys.readouterr().out
        assert main(["campaign", spec, "--workers", "1",
                     "--store", store]) == 0
        assert "1 already complete" in capsys.readouterr().out

    def test_adaptive_reports_savings(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**self.SPEC, "shots": 8192}))
        assert main(["campaign", str(path), "--workers", "1",
                     "--adaptive", "0.3"]) == 0
        assert "saved by early stopping" in capsys.readouterr().out

    def test_shots_override(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path)
        assert main(["campaign", spec, "--workers", "1",
                     "--shots", "512"]) == 0
        assert "512 shots" in capsys.readouterr().out

    def test_closed_pipe_ends_quietly(self, tmp_path):
        """``repro campaign SPEC | head -1``: the reader leaves after
        one line, and the command ends with exit 1 and no traceback.
        Unbuffered (``-u``), the header reaches the pipe before the run
        starts, so the result rows are written after the reader left."""
        import os
        import subprocess
        import sys

        import repro

        spec = self.write_spec(tmp_path)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__))]
            + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
        proc = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro", "campaign", spec,
             "-j", "1"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        assert proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
        assert "Traceback" not in stderr, stderr

    def test_missing_spec_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="^error: cannot read"):
            main(["campaign", str(tmp_path / "nope.json")])

    @pytest.mark.parametrize("command", ["campaign", "submit"])
    @pytest.mark.parametrize("content,message", [
        (None, "cannot read sweep spec"),
        ('{"codes": [["repetition", [3, 1]]', "not valid JSON"),
        ('[1, 2]', "not a JSON object"),
        ('{"codes": [["repetition", [3, 1]]], "colour": 1}',
         "bad sweep spec"),
        ('{"codes": [["repetition", [3, 1]]], '
         '"faults": [{"kind": "erasure", "qubits": [40]}]}',
         "bad sweep spec"),
    ])
    def test_bad_spec_is_an_error_line(self, tmp_path, command, content,
                                       message):
        """A missing, malformed or rejected spec exits with ``error:``
        before any work starts (``submit`` never reaches the URL)."""
        path = tmp_path / "spec.json"
        if content is not None:
            path.write_text(content)
        with pytest.raises(SystemExit) as exc:
            main([command, str(path), "--url", "http://127.0.0.1:9"]
                 if command == "submit" else [command, str(path)])
        assert str(exc.value).startswith("error: ")
        assert message in str(exc.value)

    def test_lookup_reads_spec_like_campaign(self, tmp_path):
        store = tmp_path / "s.jsonl"
        store.write_text("")
        with pytest.raises(SystemExit, match="^error: cannot read"):
            main(["store", "lookup", str(store), "--spec",
                  str(tmp_path / "nope.json")])

    @pytest.mark.parametrize("argv", [
        ["detect"], ["rare", "--pilot-only"], ["campaign", "spec.json"]])
    @pytest.mark.parametrize("decoder", ["bogus", "mwpm:bogus"])
    def test_unknown_decoder_is_a_usage_error(self, capsys, argv, decoder):
        """Every ``--decoder`` shares one parser: a bad kind or modifier
        is argparse's exit 2, before any spec is read or shot run."""
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--decoder", decoder])
        assert exc.value.code == 2
        assert "argument --decoder:" in capsys.readouterr().err

    def test_decoder_flag_keeps_task_keys(self, capsys, tmp_path,
                                          monkeypatch):
        """``--decoder`` parses to the same :class:`DecoderSpec` the
        task would build from the string, so store keys do not move."""
        from repro.decoders import as_decoder
        from repro.injection.store import task_key
        from repro.injection.sweep import build_sweep
        import repro.rare.pilot as pilot

        spec = self.write_spec(tmp_path)
        store = tmp_path / "s.jsonl"
        assert main(["campaign", spec, "-j", "1", "--quiet", "--decoder",
                     "union-find", "--store", str(store)]) == 0
        keys = {json.loads(line)["key"]
                for line in store.read_text().splitlines()}
        task, = build_sweep({**self.SPEC, "decoder": "union-find"})._seeded()
        assert keys == {task_key(task)}

        seen = []

        def capture(task):
            seen.append(task)
            return []

        monkeypatch.setattr(pilot, "pilot_report", capture)
        assert main(["rare", "--pilot-only", "--decoder", "uf:hooks"]) == 0
        assert seen[0].decoder == as_decoder("union-find:hooks")

    def test_flag_overrides_are_the_spec_keys(self, capsys, tmp_path):
        """``--backend/--recovery/--sampler/--decoder`` set the same task
        fields as the spec keys: a spec carrying them finds every point
        the flagged run banked and prints the same rows."""
        base = {**self.SPEC, "rounds": 3, "shots": 512,
                "faults": [{"kind": "none"},
                           {"kind": "radiation", "root_qubit": 1,
                            "strike_round": 1}]}
        fields = {"backend": "tableau", "recovery": "discard_window",
                  "sampler": "tilt:4", "decoder": "union-find"}
        store = str(tmp_path / "store.jsonl")
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps(base))
        flags = [arg for key, value in fields.items()
                 for arg in (f"--{key}", value)]
        assert main(["campaign", str(plain), "-j", "1", "--quiet",
                     "--store", store] + flags) == 0
        first = capsys.readouterr().out.splitlines()
        keyed = tmp_path / "keyed.json"
        keyed.write_text(json.dumps({**base, **fields}))
        assert main(["campaign", str(keyed), "-j", "1", "--quiet",
                     "--store", store]) == 0
        second = capsys.readouterr().out.splitlines()
        assert "(2 already complete" in second[0]
        assert [line.replace(str(keyed), "S") for line in second[1:]] \
            == [line.replace(str(plain), "S") for line in first[1:]]
        assert "tilt:4" in "\n".join(second)

    def test_adaptive_knobs_require_adaptive(self, tmp_path):
        """--min/--max-shots without --adaptive would be silently
        ignored; fail loudly instead."""
        spec = self.write_spec(tmp_path)
        with pytest.raises(SystemExit, match="--adaptive"):
            main(["campaign", spec, "--max-shots", "1000"])
        with pytest.raises(SystemExit, match="--adaptive"):
            main(["campaign", spec, "--min-shots", "64"])

    def test_backend_flag(self, capsys, tmp_path):
        """--backend pins every point's backend and lands in the rows."""
        spec = self.write_spec(tmp_path)
        csv_path = tmp_path / "out.csv"
        assert main(["campaign", spec, "--workers", "1",
                     "--backend", "frames", "--csv", str(csv_path)]) == 0
        assert "frames" in csv_path.read_text()
        with pytest.raises(SystemExit):
            main(["campaign", spec, "--backend", "gpu"])

    def test_backend_keeps_store_results_distinct(self, capsys, tmp_path):
        """Per-backend streams differ, so a store banked under one
        backend must not be reused by another."""
        spec = self.write_spec(tmp_path)
        store = str(tmp_path / "store.jsonl")
        assert main(["campaign", spec, "--workers", "1", "--store", store,
                     "--backend", "frames"]) == 0
        capsys.readouterr()
        assert main(["campaign", spec, "--workers", "1", "--store", store,
                     "--backend", "tableau"]) == 0
        assert "0 already complete" in capsys.readouterr().out
        assert main(["campaign", spec, "--workers", "1", "--store", store,
                     "--backend", "frames"]) == 0
        assert "1 already complete" in capsys.readouterr().out


class TestRareCommand:
    def test_pilot_only_table(self, capsys):
        assert main(["rare", "--distance", "3", "--p", "0.002",
                     "--pilot-shots", "512", "--pilot-only"]) == 0
        out = capsys.readouterr().out
        assert "Rare-event pilot" in out
        assert "var_reduction" in out
        assert "*" in out  # one ladder rung is chosen

    def test_estimate_reports_variance_reduction(self, capsys):
        assert main(["rare", "--distance", "3", "--p", "0.004",
                     "--shots", "2048", "--pilot-shots", "512",
                     "--tilt", "4"]) == 0
        out = capsys.readouterr().out
        assert "tilted estimate" in out

    def test_campaign_sampler_override(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "codes": [["xxzz", [3, 3]]], "p_values": [0.004],
            "readout": "data", "shots": 1024}))
        assert main(["campaign", str(spec), "--workers", "1",
                     "--sampler", "tilt:4"]) == 0
        out = capsys.readouterr().out
        assert "tilt:4" in out
        assert "ess" in out

    def test_tilt_requires_tilt_sampler(self, tmp_path, capsys):
        """Only ``tilt`` and ``split`` take an argument: ``mc:4`` is a
        CLI error, not a traceback."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "codes": [["repetition", [3, 1]]], "shots": 512}))
        with pytest.raises(SystemExit) as exc:
            main(["campaign", str(spec), "--sampler", "mc:4"])
        assert exc.value.code != 0
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_split_on_tableau_fails_cleanly(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "codes": [["repetition", [3, 1]]], "backend": "tableau",
            "shots": 512}))
        with pytest.raises(SystemExit) as exc:
            main(["campaign", str(spec), "--workers", "1",
                  "--sampler", "split"])
        assert "frame backend" in str(exc.value)

    def test_invalid_tilt_fails_cleanly(self, tmp_path, capsys):
        """0 < tilt < 1 exits with a CLI error, not a raw traceback."""
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "codes": [["repetition", [3, 1]]], "shots": 512}))
        with pytest.raises(SystemExit) as exc:
            main(["campaign", str(spec), "--sampler", "tilt:0.5"])
        assert exc.value.code != 0
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
        with pytest.raises(SystemExit) as exc:
            main(["rare", "--tilt", "0.5", "--pilot-only"])
        assert "error:" in str(exc.value)

    def test_unknown_backend_is_a_usage_error(self, capsys):
        """``rare --backend`` takes the engine commands' choices: a typo
        is argparse's exit 2, not a traceback from the task spec."""
        with pytest.raises(SystemExit) as exc:
            main(["rare", "--backend", "tablaeu", "--pilot-only"])
        assert exc.value.code == 2
        assert "invalid choice: 'tablaeu'" in capsys.readouterr().err


class TestStoreCommand:
    SPEC = TestCampaignCommand.SPEC

    def run_shard(self, tmp_path, name, shots):
        spec_path = tmp_path / f"spec-{name}.json"
        spec_path.write_text(json.dumps({**self.SPEC, "shots": shots}))
        store = str(tmp_path / name)
        assert main(["campaign", str(spec_path), "--workers", "1",
                     "--store", store]) == 0
        return store

    def test_merge_subcommand(self, capsys, tmp_path):
        a = self.run_shard(tmp_path, "a.jsonl", 512)
        b = self.run_shard(tmp_path, "b.jsonl", 1024)
        capsys.readouterr()
        out = str(tmp_path / "merged.jsonl")
        assert main(["store", "merge", out, a, b]) == 0
        msg = capsys.readouterr().out
        assert "merged 2 store(s)" in msg
        assert "2 completed points" in msg

    def test_merge_compaction_summary(self, capsys, tmp_path):
        """Sharded runs get dedup visibility: the summary reports
        shards read, records kept, duplicates dropped and malformed
        skipped."""
        a = self.run_shard(tmp_path, "a.jsonl", 512)
        with open(a, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "chunk", "shots": "no key"}\n')
        capsys.readouterr()
        out = str(tmp_path / "merged.jsonl")
        with pytest.warns(RuntimeWarning, match="malformed"):
            # the same shard twice: every record is a duplicate once
            assert main(["store", "merge", out, a, a]) == 0
        msg = capsys.readouterr().out
        assert "shards read:" in msg
        assert "records kept:" in msg
        assert "duplicates dropped:" in msg
        assert "malformed skipped:  2" in msg   # the shard is read twice

    def test_merge_quiet(self, capsys, tmp_path):
        a = self.run_shard(tmp_path, "a.jsonl", 512)
        capsys.readouterr()
        out = str(tmp_path / "merged.jsonl")
        assert main(["store", "merge", out, a, "--quiet"]) == 0
        assert capsys.readouterr().out == ""

    def test_merge_requires_inputs(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["store", "merge", str(tmp_path / "out.jsonl")])

    def test_store_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["store"])


def parser_snapshot(parser, path=("repro",), out=None):
    """Every subcommand's actions as ``[option_strings, dest, default,
    choices, nargs]`` (``type``/``help`` left out), keyed by the
    space-joined command path: positionals in declaration order, then
    options by ``dest`` (their order only shapes ``--help``)."""
    import argparse

    out = {} if out is None else out
    rows = []
    for action in parser._actions:
        if isinstance(action, argparse._HelpAction):
            continue
        choices = action.choices
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in choices.items():
                parser_snapshot(sub, path + (name,), out)
            choices = sorted(choices)
        elif choices is not None:
            choices = list(choices)
        default = action.default
        if isinstance(default, tuple):
            default = list(default)
        rows.append([list(action.option_strings), action.dest, default,
                     choices, action.nargs])
    rows.sort(key=lambda row: (bool(row[0]), row[1] if row[0] else ""))
    out[" ".join(path)] = rows
    return out


class TestParserSnapshot:
    def test_options_unchanged(self):
        """No option was dropped, renamed or re-defaulted: the parser
        matches the recorded fixture action for action."""
        from pathlib import Path

        from repro.cli import build_parser

        fixture = Path(__file__).parent / "data" / "cli_parser.json"
        expected = json.loads(fixture.read_text())
        assert parser_snapshot(build_parser()) == expected
