"""End-to-end command line behavior, run in process through main()."""

import argparse
import dataclasses
import gc
import gzip
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys

import pytest

import ldtruth
from ldtruth import cli, eval_harness, pipeline
from ldtruth.cli import build_parser, main
from ldtruth.mrf import EXACT_NODES

SYNTH_FLAGS = ["--sources", "10", "--entities", "30", "--conflicts", "40",
               "--seed", "6"]


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", *SYNTH_FLAGS, "--out", str(out)]) == 0
    return out


class TestSynthCommand:

    def test_outputs_and_manifest(self, corpus_dir):
        assert (corpus_dir / "corpus.nt").exists()
        assert (corpus_dir / "gold.tsv").exists()
        manifest = json.loads((corpus_dir / "manifest.json").read_text())
        assert manifest["seed"] == 6
        assert manifest["n_sources"] == 10
        assert manifest["gold_slots"] > 0

    @pytest.mark.parametrize("flags, drawn", [
        (SYNTH_FLAGS, [2, 4]),
        (["--sources", "3", "--values", "3", "--claims-min", "2",
          "--claims-max", "10", "--entities", "5", "--conflicts", "20"],
         [2, 3]),
    ], ids=["default", "capped_by_sources"])
    def test_manifest_shows_the_claims_drawn(self, tmp_path, flags, drawn):
        out = tmp_path / "s"
        assert main(["synth", *flags, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["claims_range"] == drawn
        # the most claims any slot got, counted in the corpus itself
        slots = {}
        for line in (out / "corpus.nt").read_text().splitlines():
            if "owl#sameAs" not in line:
                subject, predicate = line.split(" ")[:2]
                slots[subject, predicate] = slots.get((subject, predicate),
                                                      0) + 1
        assert max(slots.values()) <= drawn[1]

    def test_manifest_draws_the_corpus_again(self, tmp_path):
        out = tmp_path / "s"
        assert main(["synth", *SYNTH_FLAGS, "--fidelity", "0.2",
                     "--attachment", "3", "--support-skew", "0",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        names = [f.name for f in dataclasses.fields(eval_harness.SynthConfig)]
        assert manifest.keys() == {*names, "reliability_range",
                                   "claims_range", "gold_slots",
                                   "unanimous_slots"}
        assert (manifest["sameas_fidelity"], manifest["attachment_m"],
                manifest["support_skew"]) == (0.2, 3, 0.0)
        again = eval_harness.generate(
            eval_harness.SynthConfig(**{n: manifest[n] for n in names}))
        assert again.triples.encode("utf-8") == \
            (out / "corpus.nt").read_bytes()

    def test_rerun_is_byte_identical(self, corpus_dir, tmp_path):
        again = tmp_path / "again"
        assert main(["synth", *SYNTH_FLAGS, "--out", str(again)]) == 0
        for name in ("corpus.nt", "gold.tsv", "manifest.json"):
            assert (again / name).read_bytes() == \
                (corpus_dir / name).read_bytes()

    def test_impossible_shape_fails_cleanly(self, tmp_path, capsys):
        code = main(["synth", "--sources", "2", "--values", "5",
                     "--out", str(tmp_path / "x")])
        assert code == 1
        assert "ERROR" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, names", [
        (["--rel-low", "0.9", "--rel-high", "0.2"],
         "reliability_low and reliability_high must be ordered"),
        (["--claims-min", "5", "--claims-max", "3"],
         "claims_min and claims_max must be ordered"),
    ], ids=["reliability", "claims"])
    def test_disordered_range_names_its_settings(self, tmp_path, capsys,
                                                 flags, names):
        code = main(["synth", *flags, "--out", str(tmp_path / "x")])
        assert code == 1
        assert f"ERROR: {names}" in capsys.readouterr().err


class TestConfigPrecedence:

    def test_flag_beats_file_beats_default(self, tmp_path):
        cfgfile = tmp_path / "settings.ini"
        cfgfile.write_text("[synth]\nseed = 9\nn_sources = 10\n"
                           "n_entities = 30\nn_conflict_predicates = 40\n")

        def seed_of(out):
            return json.loads((out / "manifest.json").read_text())["seed"]

        from_file = tmp_path / "o1"
        assert main(["synth", "--config", str(cfgfile),
                     "--out", str(from_file)]) == 0
        assert seed_of(from_file) == 9

        from_flag = tmp_path / "o2"
        assert main(["synth", "--config", str(cfgfile), "--seed", "11",
                     "--out", str(from_flag)]) == 0
        assert seed_of(from_flag) == 11

        from_default = tmp_path / "o3"
        assert main(["synth", "--sources", "10", "--entities", "30",
                     "--conflicts", "40", "--out", str(from_default)]) == 0
        assert seed_of(from_default) == 0

    def test_file_sets_engine_cap_and_flag_overrides(self, corpus_dir,
                                                     tmp_path):
        cfgfile = tmp_path / "engine.ini"
        cfgfile.write_text("[engine]\nouter_max = 1\n")
        capped = main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                       "--config", str(cfgfile), "--out", str(tmp_path / "a")])
        assert capped == 2
        freed = main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                      "--config", str(cfgfile), "--outer-max", "20",
                      "--out", str(tmp_path / "b")])
        assert freed == 0


class TestResolveCommand:

    def test_output_files(self, corpus_dir, tmp_path):
        out = tmp_path / "res"
        code = main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                     "--out", str(out)])
        assert code == 0
        records = [json.loads(line) for line in
                   (out / "decisions.jsonl").read_text().splitlines()]
        assert records
        for record in records:
            assert {"entity", "predicate", "chosen", "objects",
                    "method"} <= set(record)
            assert record["method"] == "ldtruth"
            assert record["chosen"]["kind"] in {"number", "date", "text",
                                                "reference"}
            for obj in record["objects"]:
                assert obj["sources"]
                assert 0.0 <= obj["tau"] <= 1.0
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "iteration,mean_delta_tau,max_delta_tau"
        assert len(trace) == 1 + records[0]["iterations"]
        trust = (out / "source_trust.tsv").read_text().splitlines()
        assert trust[0] == "source\tt\tt_smoothed\tnbr"
        assert all(len(line.split("\t")) == 4 for line in trust[1:])

    def test_thread_count_never_changes_output(self, corpus_dir, tmp_path):
        lines = (corpus_dir / "corpus.nt").read_text().splitlines()
        half = len(lines) // 2
        part_a = tmp_path / "part_a.nt"
        part_b = tmp_path / "part_b.nt"
        part_a.write_text("\n".join(lines[:half]) + "\n")
        part_b.write_text("\n".join(lines[half:]) + "\n")
        outs = []
        for threads in ("1", "4"):
            out = tmp_path / f"threads_{threads}"
            code = main(["resolve", "--input", str(part_a), str(part_b),
                         "--threads", threads, "--out", str(out)])
            assert code == 0
            outs.append(out)
        for name in ("decisions.jsonl", "trace.csv", "source_trust.tsv"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes()

    def test_gzip_input_matches_plain(self, corpus_dir, tmp_path):
        packed = tmp_path / "corpus.nt.gz"
        packed.write_bytes(gzip.compress(
            (corpus_dir / "corpus.nt").read_bytes()))
        plain_out = tmp_path / "plain"
        packed_out = tmp_path / "packed"
        assert main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                     "--out", str(plain_out)]) == 0
        assert main(["resolve", "--input", str(packed),
                     "--out", str(packed_out)]) == 0
        assert (plain_out / "decisions.jsonl").read_bytes() == \
            (packed_out / "decisions.jsonl").read_bytes()

    def test_outer_cap_reports_nonconvergence(self, corpus_dir, tmp_path):
        code = main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                     "--outer-max", "1", "--outer-threshold", "1e-9",
                     "--out", str(tmp_path / "cap")])
        assert code == 2

    @staticmethod
    def _linked_numbers(path, count):
        # linked copies of one entity, one close number each: a single
        # conflict set of ``count`` candidates
        same = "<http://www.w3.org/2002/07/owl#sameAs>"
        integer = "<http://www.w3.org/2001/XMLSchema#integer>"
        hosts = [f"h{n}" for n in range(count)]
        lines = [f"<http://h0.example/e> {same} <http://{h}.example/e> ."
                 for h in hosts[1:]]
        lines += [f'<http://{h}.example/e> <http://p.example/pop> '
                  f'"{100 + n}"^^{integer} .' for n, h in enumerate(hosts)]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_bp_round_cap_reports_nonconvergence(self, tmp_path, capsys):
        # nine close numbers for one slot: a complete field above
        # EXACT_NODES, which runs propagation and needs more than one round
        corpus = self._linked_numbers(tmp_path / "nine.nt", EXACT_NODES + 1)
        cfgfile = tmp_path / "bp.ini"
        cfgfile.write_text("[engine]\nbp_max = 1\n")
        code = main(["resolve", "--input", corpus, "--config",
                     str(cfgfile), "--out", str(tmp_path / "capped")])
        summary = capsys.readouterr().err.splitlines()[-1]
        assert code == 2
        assert "conflict_sets=1 " in summary
        assert "bp_converged=False" in summary
        assert "bp_rounds=" in summary
        code = main(["resolve", "--input", corpus,
                     "--out", str(tmp_path / "free")])
        summary = capsys.readouterr().err.splitlines()[-1]
        assert code == 0
        assert "converged=True bp_converged=True" in summary

    def test_small_set_is_exact_under_any_round_cap(self, tmp_path, capsys):
        # a pair and a triangle alike are summed exactly, so bp_max = 1
        # never binds
        cfgfile = tmp_path / "bp.ini"
        cfgfile.write_text("[engine]\nbp_max = 1\n")
        for count in (2, 3):
            corpus = self._linked_numbers(tmp_path / f"{count}.nt", count)
            code = main(["resolve", "--input", corpus, "--config",
                         str(cfgfile), "--out", str(tmp_path / f"o{count}")])
            summary = capsys.readouterr().err.splitlines()[-1]
            assert code == 0
            assert "conflict_sets=1 " in summary
            assert "bp_converged=True bp_rounds=0" in summary

    def test_prior_sweep_cap_shows_in_summary(self, corpus_dir, tmp_path,
                                              capsys):
        cfgfile = tmp_path / "prior.ini"
        cfgfile.write_text("[prior]\nmax_sweeps = 1\n")
        code = main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                     "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        summary = capsys.readouterr().err.splitlines()[-1]
        assert code == 2
        assert "converged=True bp_converged=True" in summary
        assert summary.endswith(" prior_sweeps=1 prior_converged=False")

    def test_no_identity_links_is_a_converged_prior(self, tmp_path, capsys):
        path = tmp_path / "plain.nt"
        path.write_text('<http://a.example/s> <http://a.example/p> "x" .\n'
                        '<http://b.example/s> <http://a.example/p> "y" .\n')
        code = main(["resolve", "--input", str(path),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 0
        assert err.splitlines()[-1].endswith(
            " prior_sweeps=0 prior_converged=True")
        # the empty prior covers no source, and that is no warning
        assert "endorsement prior" not in err
        nbr = [row.split("\t")[3] for row in
               (tmp_path / "o" / "source_trust.tsv").read_text().splitlines()]
        assert nbr == ["nbr", "0.5", "0.5"]
        code = main(["prior", "--input", str(path),
                     "--out", str(tmp_path / "p")])
        assert code == 1
        assert capsys.readouterr().err == (
            "ERROR: no usable identity links, source graph is empty\n")
        assert not (tmp_path / "p").exists()

    def test_zero_threads_rejected(self, corpus_dir, tmp_path, capsys):
        code = main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                     "--threads", "0", "--out", str(tmp_path / "x")])
        assert code == 1
        assert "threads" in capsys.readouterr().err


class TestParseDiagnostics:

    @staticmethod
    def mixed_file(tmp_path):
        path = tmp_path / "mixed.nt"
        path.write_text(
            '<http://a.example/s> <http://a.example/p> "ok" .\n'
            "this line is not a triple\n"
            '<http://a.example/s> <http://a.example/q> "fine" .\n')
        return path

    def test_lenient_mode_warns_with_location(self, tmp_path, capsys):
        path = self.mixed_file(tmp_path)
        code = main(["resolve", "--input", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert f"WARN {path}:2 " in capsys.readouterr().err

    def test_strict_mode_aborts(self, tmp_path, capsys):
        path = self.mixed_file(tmp_path)
        code = main(["resolve", "--input", str(path), "--strict",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "ERROR" in capsys.readouterr().err

    @pytest.mark.parametrize("escape", [r"\U00110000", r"\uD800"])
    def test_escape_past_unicode_is_one_bad_line(self, tmp_path, capsys,
                                                 escape):
        path = tmp_path / "escape.nt"
        path.write_text(
            '<http://a.example/s> <http://a.example/p> "ok" .\n'
            f'<http://a.example/s> <http://a.example/q> "x{escape}y" .\n')
        key = escape[1]
        code = main(["resolve", "--input", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert f"WARN {path}:2 bad \\{key} escape" in capsys.readouterr().err
        code = main(["resolve", "--input", str(path), "--strict",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert f"ERROR: {path}:2 bad \\{key} escape" in capsys.readouterr().err

    def test_strict_abort_names_the_file(self, tmp_path, capsys):
        good = tmp_path / "good.nt"
        good.write_text('<http://a.example/s> <http://a.example/p> "ok" .\n')
        bad = self.mixed_file(tmp_path)
        argv = ["resolve", "--input", str(good), str(bad),
                "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        warning = capsys.readouterr().err.splitlines()[0]
        assert warning == f"WARN {bad}:2 unexpected character 't'"
        assert main([*argv, "--strict"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ERROR: {bad}:2 unexpected character 't'"]


class TestUnreadableGzip:
    """A .gz input that does not decompress is one error line naming the
    file, exit 1, from every command that reads input."""

    @staticmethod
    def damaged(kind, plain):
        packed = gzip.compress(plain)
        if kind == "truncated":
            return packed[:len(packed) // 2]
        if kind == "corrupt":
            # the first deflate block's header byte: a reserved block type
            return packed[:10] + b"\xff" + packed[11:]
        return plain

    @pytest.mark.parametrize("command", [
        ["resolve"], ["baseline", "--method", "vote"], ["prior"]],
        ids=["resolve", "baseline", "prior"])
    @pytest.mark.parametrize("kind", ["truncated", "corrupt", "not_gzip"])
    def test_one_error_line_and_exit_1(self, corpus_dir, tmp_path, command,
                                       kind):
        path = tmp_path / "corpus.nt.gz"
        path.write_bytes(self.damaged(
            kind, (corpus_dir / "corpus.nt").read_bytes()))
        run = subprocess.run(
            [sys.executable, "-m", "ldtruth.cli", *command, "--input",
             str(path), "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert run.returncode == 1
        assert "Traceback" not in run.stderr
        assert len(run.stderr.splitlines()) == 1
        assert run.stderr.startswith("ERROR: ")
        assert str(path) in run.stderr


class TestCollectorState:
    """main pauses the cyclic collector while it builds, and hands the
    collector back as it found it."""

    @pytest.fixture
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_success_and_error_exits(self, corpus_dir, tmp_path,
                                     restore_collector, enabled):
        (gc.enable if enabled else gc.disable)()
        assert main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                     "--out", str(tmp_path / "o")]) == 0
        assert gc.isenabled() is enabled
        bad = tmp_path / "bad.nt"
        bad.write_text("this line is not a triple\n")
        assert main(["resolve", "--input", str(bad), "--strict",
                     "--out", str(tmp_path / "o")]) == 1
        assert gc.isenabled() is enabled
        assert main(["baseline", "--input", str(tmp_path / "missing.nt"),
                     "--out", str(tmp_path / "o")]) == 1
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_resolve_runs_with_collector_paused(self, corpus_dir, tmp_path,
                                                monkeypatch, restore_collector,
                                                enabled):
        # the collector's first passes over the assembled store would
        # otherwise land in inference
        (gc.enable if enabled else gc.disable)()
        collecting = []
        resolve_all = cli.resolve_all

        def spy(*args):
            collecting.append(gc.isenabled())
            return resolve_all(*args)

        monkeypatch.setattr(cli, "resolve_all", spy)
        assert main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                     "--out", str(tmp_path / "o")]) == 0
        assert collecting == [False]
        assert gc.isenabled() is enabled


class TestDropWarnings:

    @pytest.mark.parametrize("command", [["resolve"],
                                         ["baseline", "--method", "vote"]])
    def test_graph_policy_on_triples(self, corpus_dir, tmp_path, capsys,
                                     command):
        lines = (corpus_dir / "corpus.nt").read_text().splitlines()
        claims = sum("owl#sameAs" not in line for line in lines)
        code = main([*command, "--input", str(corpus_dir / "corpus.nt"),
                     "--policy", "graph", "--out", str(tmp_path / "o")])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert f"WARN dropped {claims} statements: missing_graph" in err
        links = len(lines) - claims
        assert f"WARN dropped {links} identity links: missing_graph" in err
        assert not any("no_source" in line for line in err)

    def test_graph_policy_on_triples_leaves_no_prior(self, corpus_dir,
                                                     tmp_path, capsys):
        # a triple names no graph, so no identity link has an endorser
        lines = (corpus_dir / "corpus.nt").read_text().splitlines()
        links = sum("owl#sameAs" in line for line in lines)
        code = main(["prior", "--input", str(corpus_dir / "corpus.nt"),
                     "--policy", "graph", "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"WARN dropped {links} identity links: missing_graph"
        assert err[1].startswith("ERROR: no usable identity links")

    def test_statement_without_source(self, tmp_path, capsys):
        path = tmp_path / "urn.nt"
        path.write_text('<urn:isbn:1> <http://a.example/p> "x" .\n'
                        '<http://a.example/s> <http://a.example/p> "y" .\n')
        assert main(["resolve", "--input", str(path),
                     "--out", str(tmp_path / "o")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert "WARN dropped 1 statements: no_source" in err
        assert not any("missing_graph" in line for line in err)

    @pytest.mark.parametrize("command", [["resolve"],
                                         ["baseline", "--method", "vote"],
                                         ["prior"]])
    def test_identity_link_without_source(self, tmp_path, capsys, command):
        path = tmp_path / "links.nt"
        same = "<http://www.w3.org/2002/07/owl#sameAs>"
        path.write_text(
            f'<http://a.example/s> {same} <urn:isbn:1> .\n'
            f'<http://a.example/s> {same} <http://b.example/s> .\n'
            '<http://a.example/s> <http://a.example/p> "x" .\n')
        assert main([*command, "--input", str(path),
                     "--out", str(tmp_path / "o")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert "WARN dropped 1 identity links: no_source" in err
        assert not any("statements" in line for line in err
                       if line.startswith("WARN"))

    @pytest.mark.parametrize("command", [["resolve"],
                                         ["baseline", "--method", "vote"]])
    def test_literal_sameas_is_reported(self, tmp_path, capsys, command):
        path = tmp_path / "literal.nt"
        path.write_text(
            '<http://a.example/s> <http://www.w3.org/2002/07/owl#sameAs> '
            '"http://b.example/s" .\n'
            '<http://a.example/s> <http://a.example/p> "x" .\n'
            '<http://b.example/s> <http://a.example/p> "y" .\n')
        assert main([*command, "--input", str(path),
                     "--out", str(tmp_path / "o")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert "WARN dropped 1 statements: literal_sameas" in err

    def test_graph_policy_links_endorse_from_their_graph(self, tmp_path,
                                                         capsys):
        # g1.example states the identity link, as it states claim "1",
        # and endorses b.example, the host of the link's object; nothing
        # endorses g2.example, so it keeps the neutral prior
        path = tmp_path / "graphs.nq"
        path.write_text(
            '<http://a.example/s> <http://www.w3.org/2002/07/owl#sameAs> '
            '<http://b.example/s> <http://g1.example/g> .\n'
            '<http://a.example/s> <http://v.example/p> "1" '
            '<http://g1.example/g> .\n'
            '<http://b.example/s> <http://v.example/p> "2" '
            '<http://g2.example/g> .\n')
        out = tmp_path / "o"
        assert main(["prior", "--input", str(path), "--policy", "graph",
                     "--out", str(out)]) == 0
        rows = (out / "prior.tsv").read_text().splitlines()[1:]
        assert [row.split("\t")[0] for row in rows] == ["b.example",
                                                        "g1.example"]
        assert main(["resolve", "--input", str(path), "--policy", "graph",
                     "--out", str(out)]) == 0
        assert "endorsement prior" not in capsys.readouterr().err
        rows = (out / "source_trust.tsv").read_text().splitlines()[1:]
        nbr = {row.split("\t")[0]: row.split("\t")[3] for row in rows}
        assert nbr == {"g1.example": "0.0", "g2.example": "0.5"}

    def test_links_between_hosts_without_claims(self, tmp_path, capsys):
        path = tmp_path / "apart.nt"
        path.write_text(
            '<http://a.example/s> <http://www.w3.org/2002/07/owl#sameAs> '
            '<http://b.example/s> .\n'
            '<http://c.example/s> <http://v.example/p> "1" .\n'
            '<http://d.example/s> <http://v.example/p> "2" .\n')
        assert main(["resolve", "--input", str(path),
                     "--out", str(tmp_path / "o")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert "WARN no claim source has an endorsement prior" in err

    def test_graph_on_its_subject_host_matches_host_policy(self, corpus_dir,
                                                           tmp_path):
        # each statement sits in a graph on its subject's host, so the
        # graph policy names the same source as the host policy
        quads = []
        for line in (corpus_dir / "corpus.nt").read_text().splitlines():
            host = line[1:].split("/")[2]
            quads.append(f"{line[:-2]} <http://{host}/graph> .")
        path = tmp_path / "graphs.nq"
        path.write_text("\n".join(quads) + "\n")
        outputs = []
        for policy in ("host", "graph"):
            out = tmp_path / policy
            assert main(["resolve", "--input", str(path), "--policy", policy,
                         "--out", str(out)]) == 0
            assert main(["prior", "--input", str(path), "--policy", policy,
                         "--out", str(out), "--sbg-out",
                         str(out / "sbg.tsv")]) == 0
            outputs.append([(out / name).read_bytes() for name in
                            ("decisions.jsonl", "trace.csv",
                             "source_trust.tsv", "prior.tsv", "sbg.tsv")])
        assert outputs[0] == outputs[1]

    def test_endorsed_claim_sources_give_no_prior_warning(self, corpus_dir,
                                                          tmp_path, capsys):
        assert main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                     "--out", str(tmp_path / "o")]) == 0
        assert "endorsement prior" not in capsys.readouterr().err


class TestDeterminism:

    def test_hash_seed_and_statement_order(self, corpus_dir, tmp_path):
        lines = (corpus_dir / "corpus.nt").read_text().splitlines()
        random.Random(3).shuffle(lines)
        shuffled = tmp_path / "shuffled.nt"
        shuffled.write_text("\n".join(lines) + "\n")
        src = os.path.dirname(os.path.dirname(ldtruth.__file__))
        runs = [(corpus_dir / "corpus.nt", seed) for seed in ("0", "1", "2")]
        runs.append((shuffled, "1"))
        outputs = []
        for n, (corpus, seed) in enumerate(runs):
            out = tmp_path / f"out{n}"
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            subprocess.run([sys.executable, "-m", "ldtruth.cli", "resolve",
                            "--input", str(corpus), "--out", str(out)],
                           env=env, check=True, capture_output=True,
                           timeout=120)
            outputs.append([(out / name).read_bytes() for name in
                            ("decisions.jsonl", "trace.csv",
                             "source_trust.tsv")])
        assert all(found == outputs[0] for found in outputs[1:])


class TestPriorCommand:

    def test_ranked_output_and_graph_dump(self, corpus_dir, tmp_path):
        out = tmp_path / "prior"
        sbg_path = tmp_path / "sbg.tsv"
        code = main(["prior", "--input", str(corpus_dir / "corpus.nt"),
                     "--out", str(out), "--sbg-out", str(sbg_path)])
        assert code == 0
        lines = (out / "prior.tsv").read_text().splitlines()
        assert lines[0] == "source\tbr\tnbr"
        scores = [float(line.split("\t")[1]) for line in lines[1:]]
        assert scores == sorted(scores, reverse=True)
        assert sbg_path.read_text().startswith("from\tto\tmultiplicity\n")

    def test_graph_dump_makes_its_directory(self, corpus_dir, tmp_path):
        sbg_path = tmp_path / "new_dir" / "sbg.tsv"
        code = main(["prior", "--input", str(corpus_dir / "corpus.nt"),
                     "--out", str(tmp_path / "prior"),
                     "--sbg-out", str(sbg_path)])
        assert code == 0
        assert sbg_path.read_text().startswith("from\tto\tmultiplicity\n")

    def test_graph_dump_is_sorted(self, tmp_path):
        same = "<http://www.w3.org/2002/07/owl#sameAs>"
        path = tmp_path / "links.nt"
        path.write_text(
            f"<http://b.org/1> {same} <http://a.org/1> .\n"
            f"<http://a.org/2> {same} <http://b.org/2> .\n"
            f"<http://a.org/3> {same} <http://b.org/3> .\n")
        sbg_path = tmp_path / "sbg.tsv"
        assert main(["prior", "--input", str(path), "--out",
                     str(tmp_path / "p"), "--sbg-out", str(sbg_path)]) == 0
        assert sbg_path.read_text() == ("from\tto\tmultiplicity\n"
                                        "a.org\tb.org\t2\n"
                                        "b.org\ta.org\t1\n")

    def test_relative_graph_dump_is_not_under_out(self, corpus_dir, tmp_path,
                                                  monkeypatch):
        # --sbg-out names a path of its own, relative to the working
        # directory like --out, never a file inside --out
        monkeypatch.chdir(tmp_path)
        code = main(["prior", "--input", str(corpus_dir / "corpus.nt"),
                     "--out", "p", "--sbg-out", "graphs/sbg.tsv"])
        assert code == 0
        assert sorted(os.listdir(tmp_path / "p")) == ["prior.tsv"]
        assert (tmp_path / "graphs" / "sbg.tsv").read_text().startswith(
            "from\tto\tmultiplicity\n")

    def test_no_identity_links_is_fatal(self, tmp_path, capsys):
        path = tmp_path / "plain.nt"
        path.write_text('<http://a.example/s> <http://a.example/p> "x" .\n')
        code = main(["prior", "--input", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "identity links" in capsys.readouterr().err


class TestBaselineCommand:

    @pytest.mark.parametrize("method", ["vote", "truthfinder"])
    def test_writes_decisions(self, corpus_dir, tmp_path, method):
        out = tmp_path / method
        code = main(["baseline", "--input", str(corpus_dir / "corpus.nt"),
                     "--method", method, "--out", str(out)])
        assert code == 0
        records = [json.loads(line) for line in
                   (out / "decisions.jsonl").read_text().splitlines()]
        assert records
        assert all(record["method"] == method for record in records)


class TestAlignmentOption:

    @pytest.mark.parametrize("command", [["resolve"],
                                         ["baseline", "--method", "vote"]])
    def test_merges_predicates(self, tmp_path, command):
        corpus = tmp_path / "two.nt"
        corpus.write_text('<http://a.example/e> <http://a.example/p> "1" .\n'
                          '<http://a.example/e> <http://b.example/q> "2" .\n')
        table = tmp_path / "alignment.tsv"
        table.write_text("http://b.example/q\thttp://a.example/p\n")
        counts = []
        for extra in ([], ["--alignment", str(table)]):
            out = tmp_path / f"o{len(extra)}"
            assert main([*command, "--input", str(corpus), *extra,
                         "--out", str(out)]) == 0
            counts.append(len((out / "decisions.jsonl").read_text()
                              .splitlines()))
        assert counts == [0, 1]

    def test_missing_table_is_fatal(self, corpus_dir, tmp_path, capsys):
        code = main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                     "--alignment", str(tmp_path / "absent.tsv"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.startswith("ERROR: ")

    def test_conflicting_rows_are_fatal(self, corpus_dir, tmp_path, capsys):
        table = tmp_path / "alignment.tsv"
        table.write_text("http://a.example/p\tP\nhttp://a.example/p\tQ\n")
        code = main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                     "--alignment", str(table), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ERROR: {table}:2 alignment maps 'http://a.example/p' to both "
            "'P' and 'Q'"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("content, message", [
        (b"\xff\tP\n", ": 'utf-8' codec can't decode byte 0xff"),
        (b"# comment\nonly-one-column\n",
         ":2 bad alignment row: 'only-one-column'"),
    ], ids=["undecodable", "bad_row"])
    def test_table_errors_name_the_file(self, corpus_dir, tmp_path, capsys,
                                        content, message):
        table = tmp_path / "alignment.tsv"
        table.write_bytes(content)
        code = main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                     "--alignment", str(table), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"ERROR: {table}{message}")
        assert not (tmp_path / "o").exists()

    def test_prior_has_no_alignment(self, corpus_dir, tmp_path):
        assert main(["prior", "--input", str(corpus_dir / "corpus.nt"),
                     "--alignment", str(tmp_path / "absent.tsv"),
                     "--out", str(tmp_path / "o")]) == 1


class TestGoldenOutputs:
    """Output bytes on the synth corpus above, recorded once; a refactor
    that claims unchanged behaviour must keep every digest."""

    DIGESTS = {
        ("corpus", "corpus.nt"):
            "6ffc90e6e6de8f5408e95f65faa6cc3f9f3b0ef25718845ddf1d1bbc356eb554",
        ("resolve", "decisions.jsonl"):
            "e22bceb8fe8ef224318f1a88ded20d4357e22e1c940fd2789ca53cabc460f4f0",
        ("resolve", "trace.csv"):
            "3e571c236bbf23ad6475cdb77e9903e6e2e385756162456f06683dcf2b0857ec",
        ("resolve", "source_trust.tsv"):
            "3416937d476e9e2dced864d38b4e1263bf82d01bde5c1172889da48d40333c48",
        ("vote", "decisions.jsonl"):
            "547121ca5d708d562aa3aca5401d97408a654ff0a4f58fe7c1539030be58e32d",
        ("truthfinder", "decisions.jsonl"):
            "d9d0103b2f45f1f654667e43420a89f57d9ed643e605dc3d4eb3f2be63694e48",
        ("prior", "prior.tsv"):
            "2b349ed541e8a5334fc4c850ffbe3f19d7403481adc46e486adcc24ca44c72fd",
        ("prior", "sbg.tsv"):
            "6a343a6223d66b4518868d827198d531fec1dff96a8f31973d90464ef4424d6a",
    }

    def test_digests(self, corpus_dir, tmp_path):
        corpus = str(corpus_dir / "corpus.nt")
        runs = {
            "resolve": ["resolve"],
            "vote": ["baseline", "--method", "vote"],
            "truthfinder": ["baseline", "--method", "truthfinder"],
            "prior": ["prior", "--sbg-out", str(tmp_path / "prior" / "sbg.tsv")],
        }
        for name, args in runs.items():
            (tmp_path / name).mkdir()
            assert main([*args, "--input", corpus,
                         "--out", str(tmp_path / name)]) == 0
        folders = {"corpus": corpus_dir}
        found = {(run, name): hashlib.sha256(
                     (folders.get(run, tmp_path / run) / name).read_bytes()
                 ).hexdigest() for run, name in self.DIGESTS}
        assert found == self.DIGESTS

    # the same corpus as gzip N-Quads: hosts renamed to registrable
    # .co.uk names and each line in its subject's host's graph
    QUAD_DIGESTS = {
        ("pld", "decisions.jsonl"):
            "b7d07a853e04e1d24ba32048193b50ab45928aedb0099060cd6b37de07c11c5d",
        ("pld", "trace.csv"):
            "3e571c236bbf23ad6475cdb77e9903e6e2e385756162456f06683dcf2b0857ec",
        ("pld", "source_trust.tsv"):
            "69c33065bc7ce4681e37bf8a6f944b1686f85c4da02252a96496e028f2591c48",
        ("graph", "decisions.jsonl"):
            "58738166563ee85ea54349551a8dc34d949a977b1e55e0429e38121c23b3ef64",
        ("graph", "trace.csv"):
            "3e571c236bbf23ad6475cdb77e9903e6e2e385756162456f06683dcf2b0857ec",
        ("graph", "source_trust.tsv"):
            "ed18a530b0ef45ec14faf387fa9e74507f608661329c66ac76ce7744e5283190",
    }

    def test_nquads_digests(self, corpus_dir, tmp_path):
        triples = re.sub(r"src(\d{3})\.example\.org", r"data.src\1.co.uk",
                         (corpus_dir / "corpus.nt").read_text())
        quads = tmp_path / "corpus.nq.gz"
        with gzip.open(quads, "wt", encoding="utf-8") as handle:
            for line in triples.splitlines():
                host = line[len("<http://"):line.index("/", len("<http://"))]
                handle.write(f"{line[:-2]} <http://{host}/graph> .\n")
        for policy in ("pld", "graph"):
            assert main(["resolve", "--input", str(quads), "--policy", policy,
                         "--out", str(tmp_path / policy)]) == 0
        found = {(run, name): hashlib.sha256(
                     (tmp_path / run / name).read_bytes()).hexdigest()
                 for run, name in self.QUAD_DIGESTS}
        assert found == self.QUAD_DIGESTS


class TestFoldedSums:
    """From Python 3.12 the builtin ``sum`` compensates float sums; the
    output bytes must not depend on it."""

    def test_digests_under_a_compensating_sum(self, corpus_dir, tmp_path,
                                              monkeypatch):
        builtin_sum = sum

        def compensated(items, start=0):
            items = list(items)
            if any(isinstance(x, float) for x in items):
                return math.fsum([start, *items])
            return builtin_sum(items, start)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("ldtruth"):
                monkeypatch.setattr(module, "sum", compensated, raising=False)
        TestGoldenOutputs().test_digests(corpus_dir, tmp_path)

    def test_eval_mean_folds_left_to_right(self, tmp_path, monkeypatch):
        # three accuracies whose compensated sum differs from the fold
        rows = [{"seed": k, "conflict_sets": 1,
                 "report": {"vote": {"accuracy": acc, "seconds": 0.0}}}
                for k, acc in enumerate((0.1, 0.2, 0.3))]
        monkeypatch.setattr(eval_harness, "run_benchmark",
                            lambda *a, **k: rows)
        assert main(["eval", "--seeds", "0,1,2", "--methods", "vote",
                     "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["mean_vote"] == (0.1 + 0.2 + 0.3) / 3
        assert report["mean_vote"] != math.fsum((0.1, 0.2, 0.3)) / 3


class TestEvalCommand:

    def test_report_structure(self, tmp_path, capsys):
        out = tmp_path / "eval"
        code = main(["eval", *SYNTH_FLAGS, "--seeds", "0,1",
                     "--methods", "ldtruth,vote", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["seeds"] == [0, 1]
        assert len(report["rows"]) == 2
        assert 0.0 <= report["mean_ldtruth"] <= 1.0
        assert 0.0 <= report["mean_vote"] <= 1.0
        assert "mean" in capsys.readouterr().out

    @pytest.mark.parametrize("runs", ["0", "-3"])
    def test_run_count_below_one_fails_cleanly(self, tmp_path, capsys, runs):
        out = tmp_path / "eval"
        assert main(["eval", *SYNTH_FLAGS, "--runs", runs,
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "ERROR: --runs must be at least 1\n"
        assert not out.exists()

    def test_unknown_method_fails_before_any_corpus(self, tmp_path, capsys,
                                                    monkeypatch):
        def generate(cfg):
            raise AssertionError("generated a corpus for a bad method list")

        monkeypatch.setattr(eval_harness, "generate", generate)
        out = tmp_path / "eval"
        assert main(["eval", *SYNTH_FLAGS, "--methods", "ldtruth,bogus",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "ERROR: unknown method: 'bogus'\n"
        assert not out.exists()


    @pytest.mark.parametrize("flags, message", [
        (["--seeds", "1,,2"],
         "ERROR: --seeds: not integers: '1,,2'"),
        (["--seeds", "0", "--methods", "ldtruth,vote,ldtruth"],
         "ERROR: repeated method: 'ldtruth'"),
    ], ids=["empty_seed", "repeated_method"])
    def test_bad_list_names_it_before_any_corpus(self, tmp_path, capsys,
                                                 monkeypatch, flags, message):
        def generate(cfg):
            raise AssertionError("generated a corpus for a bad flag")

        monkeypatch.setattr(eval_harness, "generate", generate)
        out = tmp_path / "eval"
        assert main(["eval", *SYNTH_FLAGS, *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [message]
        assert not out.exists()


class _Stop(Exception):
    """Ends a command once a spied call has seen its arguments."""


class TestEvalCommandSettings:

    def test_prior_settings_reach_assemble(self, tmp_path, monkeypatch):
        seen = {}

        def assemble(statements, **kwargs):
            seen.update(kwargs)
            raise _Stop

        monkeypatch.setattr(eval_harness, "assemble", assemble)
        cfgfile = tmp_path / "prior.ini"
        cfgfile.write_text("[prior]\ntolerance = 1e-5\n")
        with pytest.raises(_Stop):
            main(["eval", *SYNTH_FLAGS, "--seeds", "0", "--damping", "0.0",
                  "--config", str(cfgfile), "--out", str(tmp_path / "e")])
        assert seen["prior_cfg"].damping == 0.0
        assert seen["prior_cfg"].tolerance == 1e-5


class TestCouplingOverflow:

    @pytest.mark.parametrize("flags", [["--coupling", "1000"],
                                       ["--coupling", "inf"]])
    def test_one_error_line_and_exit_1(self, corpus_dir, tmp_path, capsys,
                                       flags):
        code = main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                     *flags, "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "ERROR: coupling * max(1, |dissimilar_false_factor|) "
            "must be at most 709"]
        assert not (tmp_path / "o").exists()

    def test_no_traceback_from_the_command(self, corpus_dir, tmp_path):
        run = subprocess.run(
            [sys.executable, "-m", "ldtruth.cli", "resolve", "--input",
             str(corpus_dir / "corpus.nt"), "--coupling", "1000",
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert run.returncode == 1
        assert run.stderr.count("\n") == 1
        assert run.stderr.startswith("ERROR: ")


class TestNanSettings:
    """NaN fails every range check, as a flag or as a file entry."""

    @pytest.mark.parametrize("argv,ini,message", [
        (["resolve", "--outer-threshold", "nan"], None,
         "thresholds must be positive"),
        (["resolve"], "[prior]\ntolerance = nan\n",
         "[prior] tolerance must be positive"),
        (["synth", "--support-skew", "nan"], None,
         "support_skew must be non-negative"),
    ], ids=["outer_threshold", "prior_tolerance", "support_skew"])
    def test_one_error_line_and_exit_1(self, corpus_dir, tmp_path, capsys,
                                       argv, ini, message):
        if argv[0] == "resolve":
            argv = [*argv, "--input", str(corpus_dir / "corpus.nt")]
        if ini:
            (tmp_path / "nan.ini").write_text(ini)
            argv = [*argv, "--config", str(tmp_path / "nan.ini")]
            message = f"{tmp_path / 'nan.ini'}: {message}"
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"ERROR: {message}"]
        assert not (tmp_path / "o").exists()


class TestConfigFileErrors:

    @pytest.mark.parametrize("text", [
        "[engine]\nouter_mx = 1\n",
        "[run]\npolicy = bogus\n",
        "outer_max = 1\n",
        "[enigne]\nouter_max = 1\n",
        "[DEFAULT]\nouter_max = 1\n",
        "[engine]\nouter_max = many\n",
    ], ids=["unknown_key", "bad_policy", "no_section_header",
            "unknown_section", "default_section", "bad_number"])
    def test_fails_loudly(self, corpus_dir, tmp_path, capsys, text):
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_text(text)
        code = main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                     "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR: ")
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, where", [
        ("outer_max = 1\n", "line: 1"),
        ("[engine]\nouter_max = 1\nouter_max\n", "[line  3]"),
    ], ids=["no_section_header", "not_key_value"])
    def test_syntax_error_is_one_line_naming_the_line(self, tmp_path, capsys,
                                                       text, where):
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_text(text)
        code = main(["resolve", "--input", str(tmp_path / "missing.nt"),
                     "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert code == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith(f"ERROR: {cfgfile}: ")
        assert where in line

    @pytest.mark.parametrize("text, message", [
        ("[engine]\nouter_max = many\n",
         "[engine] outer_max: not a valid int: 'many'"),
        ("[engine]\ncoupling = x\n",
         "[engine] coupling: not a valid float: 'x'"),
        ("[run]\npolicy = bogus\n",
         "[run] policy: 'bogus' is not one of graph, host, pld"),
        ("[run]\nthreads = 0\n", "[run] threads must be at least 1"),
        # a byte order mark is not part of the first section header
        ("\ufeff[engine]\ncoupling = x\n",
         "[engine] coupling: not a valid float: 'x'"),
        # values are read as written: no % interpolation
        ("[engine]\nt0 = 30%\n", "[engine] t0: not a valid float: '30%'"),
        ("[engine]\ncoupling = 0.5\nt0 = %(coupling)s\n",
         "[engine] t0: not a valid float: '%(coupling)s'"),
        # a value out of its config's range
        ("[engine]\ncoupling = 1000\n", "[engine] coupling * "
         "max(1, |dissimilar_false_factor|) must be at most 709"),
        ("[prior]\ndamping = 1.5\n", "[prior] damping must be in [0, 1)"),
    ], ids=["bad_number", "bad_float", "bad_policy", "threads",
            "byte_order_mark", "percent_sign", "interpolation",
            "coupling_range", "damping_range"])
    def test_bad_value_names_the_file(self, corpus_dir, tmp_path, capsys,
                                      text, message):
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_text(text, encoding="utf-8")
        code = main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                     "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ERROR: {cfgfile}: {message}"]
        assert not (tmp_path / "o").exists()

    def test_bad_synth_value_names_the_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_text("[synth]\nn_sources = 0\n", encoding="utf-8")
        code = main(["synth", "--config", str(cfgfile),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ERROR: {cfgfile}: [synth] all counts must be at least 1"]
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("text, flags, message", [
        # the flag alone is out of range: the file is not to blame
        ("[engine]\nt0 = 0.4\n", ["--coupling", "1000"],
         "coupling * max(1, |dissimilar_false_factor|) must be at most 709"),
        # the flag alone is in range; the file's factor takes it past 709
        ("[engine]\ndissimilar_false_factor = -2\n", ["--coupling", "400"],
         "{cfgfile}: [engine] coupling * max(1, |dissimilar_false_factor|) "
         "must be at most 709"),
    ], ids=["flag_at_fault", "file_at_fault"])
    def test_range_error_names_the_file_only_when_it_is_at_fault(
            self, corpus_dir, tmp_path, capsys, text, flags, message):
        cfgfile = tmp_path / "mix.ini"
        cfgfile.write_text(text, encoding="utf-8")
        code = main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                     "--config", str(cfgfile), *flags,
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "ERROR: " + message.format(cfgfile=cfgfile)]
        assert not (tmp_path / "o").exists()

    def test_flag_failing_only_against_a_default_blames_the_file(
            self, tmp_path, capsys):
        # --claims-min 5 fails alone against the default claims_max of 4,
        # which the file raises to 10; the file's fidelity is what fails
        cfgfile = tmp_path / "mix.ini"
        cfgfile.write_text("[synth]\nclaims_max = 10\nsameas_fidelity = 2\n",
                           encoding="utf-8")
        code = main(["synth", "--config", str(cfgfile), "--claims-min", "5",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ERROR: {cfgfile}: [synth] sameas_fidelity must be in [0, 1]"]

    def test_bad_flag_value_keeps_its_message(self, corpus_dir, tmp_path,
                                              capsys):
        code = main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                     "--threads", "0", "--out", str(tmp_path / "o")])
        assert code == 1
        assert capsys.readouterr().err.splitlines() == [
            "ERROR: --threads must be at least 1"]

    def test_undecodable_file_names_it(self, corpus_dir, tmp_path, capsys):
        cfgfile = tmp_path / "bad.ini"
        cfgfile.write_bytes(b"\xff[engine]\n")
        code = main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                     "--config", str(cfgfile), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(
            f"ERROR: {cfgfile}: 'utf-8' codec can't decode byte 0xff")


class TestChecksBeforeParsing:
    """Every setting, the config file, the alignment table and the
    openability of every input are checked before any line is parsed."""

    @pytest.fixture
    def parsed(self, monkeypatch):
        calls = []

        def parse_triples(*args):
            calls.append(args)
            return []

        monkeypatch.setattr(pipeline, "parse_triples", parse_triples)
        return calls

    @pytest.fixture
    def inputs(self, tmp_path):
        present = tmp_path / "present.nt"
        present.write_text('<http://a.org/s> <http://a.org/p> "x" .\n')
        return [str(present), str(tmp_path / "missing.nt")]

    @pytest.mark.parametrize("argv, ini, message", [
        (["resolve", "--coupling", "1000"], None,
         "coupling * max(1, |dissimilar_false_factor|) must be at most 709"),
        (["resolve"], "[engine]\ncoupling = 1000\n", "run.ini: [engine] "
         "coupling * max(1, |dissimilar_false_factor|) must be at most 709"),
        (["prior", "--damping", "1.5"], None, "damping must be in [0, 1)"),
        (["resolve", "--alignment", "missing.tsv"], None,
         "[Errno 2] No such file or directory: 'missing.tsv'"),
    ], ids=["engine_flag", "engine_file", "prior_flag", "alignment"])
    def test_bad_setting_is_reported_before_a_missing_input(
            self, tmp_path, capsys, monkeypatch, parsed, inputs, argv, ini,
            message):
        monkeypatch.chdir(tmp_path)
        if ini:
            (tmp_path / "run.ini").write_text(ini)
            argv = [*argv, "--config", "run.ini"]
        assert main([*argv, "--input", *inputs, "--out", "o"]) == 1
        assert capsys.readouterr().err.splitlines() == [f"ERROR: {message}"]
        assert parsed == []
        assert not (tmp_path / "o").exists()

    def test_missing_later_input_fails_before_parsing(self, tmp_path, capsys,
                                                      parsed, inputs):
        assert main(["resolve", "--input", *inputs,
                     "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"ERROR: [Errno 2] No such file or directory: '{inputs[1]}'"]
        assert parsed == []


class TestUsageErrors:
    """A usage error is fatal (1), never 2, which means results were
    written without convergence."""

    @pytest.mark.parametrize("argv", [
        ["resolve", "--input", "c.nt", "--coupling", "abc"],
        ["resolve"],
        ["resolve", "--input", "c.nt", "--policy", "bogus"],
        ["bogus"],
    ], ids=["bad_number", "missing_input", "bad_choice", "unknown_command"])
    def test_exit_1_with_usage(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: ldtruth")
        assert "error: " in err
        assert not (tmp_path / "o").exists()

    def test_help_exits_0(self, capsys):
        assert main(["resolve", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: ldtruth resolve")


class TestWritePath:
    """Commands compute their files; main writes them, in order."""

    def test_failed_write_follows_the_summary(self, corpus_dir, tmp_path,
                                              capsys):
        blocked = tmp_path / "file"
        blocked.write_text("")
        code = main(["resolve", "--input", str(corpus_dir / "corpus.nt"),
                     "--out", str(blocked / "o")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[0].startswith("statements=")
        assert err[1].startswith("ERROR: ")


# option string -> (type, default, choices) of each subcommand, as
# released; str and untyped options both read None
INGEST = {"--input": (None, None, None),
          "--format": (None, None, ("ntriples", "nquads")),
          "--policy": (None, None, ("graph", "host", "pld")),
          "--strict": (None, False, None),
          "--threads": (int, None, None),
          "--out": (None, "out", None),
          "--config": (None, None, None)}
ENGINE = {"--damping": (float, None, None),
          "--t0": (float, None, None),
          "--outer-max": (int, None, None),
          "--outer-threshold": (float, None, None),
          "--bp-damping": (float, None, None),
          "--coupling": (float, None, None),
          "--edge-threshold": (float, None, None)}
SYNTH = {"--sources": (int, None, None),
         "--entities": (int, None, None),
         "--conflicts": (int, None, None),
         "--values": (int, None, None),
         "--attachment": (int, None, None),
         "--fidelity": (float, None, None),
         "--rel-low": (float, None, None),
         "--rel-high": (float, None, None),
         "--claims-min": (int, None, None),
         "--claims-max": (int, None, None),
         "--support-skew": (float, None, None),
         "--seed": (int, None, None),
         "--config": (None, None, None)}

ALIGNMENT = {"--alignment": (None, None, None)}

SURFACE = {
    "resolve": {**INGEST, **ALIGNMENT, **ENGINE},
    "prior": {**INGEST, "--damping": (float, None, None),
              "--sbg-out": (None, None, None)},
    "synth": {**SYNTH, "--out": (None, "synth", None)},
    "eval": {**SYNTH, **ENGINE, "--runs": (int, 1, None),
             "--seeds": (None, None, None),
             "--methods": (None, "ldtruth,vote", None),
             "--out": (None, "eval", None)},
    "baseline": {**INGEST, **ALIGNMENT,
                 "--method": (None, "vote", ("vote", "truthfinder"))},
}


def _subcommands():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestOptionSurface:

    @pytest.mark.parametrize("command", sorted(SURFACE))
    def test_options_types_and_defaults(self, command):
        got = {}
        for action in _subcommands()[command]._actions:
            if "-h" in action.option_strings:
                continue
            kind = None if action.type in (None, str) else action.type
            choices = tuple(action.choices) if action.choices else None
            for option in action.option_strings:
                got[option] = (kind, action.default, choices)
        assert got == SURFACE[command]
