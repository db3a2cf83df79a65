"""End-to-end command line behavior, run in process through main()."""

import argparse
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
from ldtruth import cli, eval_harness
from ldtruth.cli import build_parser, main

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
        # three close numbers for one slot: a triangle field, which runs
        # propagation and needs more than one round
        corpus = self._linked_numbers(tmp_path / "triangle.nt", 3)
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

    def test_cycle_free_set_is_exact_under_any_round_cap(self, tmp_path,
                                                         capsys):
        # two linked candidates are summed exactly, so bp_max = 1 never binds
        corpus = self._linked_numbers(tmp_path / "pair.nt", 2)
        cfgfile = tmp_path / "bp.ini"
        cfgfile.write_text("[engine]\nbp_max = 1\n")
        code = main(["resolve", "--input", corpus, "--config",
                     str(cfgfile), "--out", str(tmp_path / "capped")])
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
        with pytest.raises(SystemExit):
            main(["prior", "--input", str(corpus_dir / "corpus.nt"),
                  "--alignment", str(tmp_path / "absent.tsv"),
                  "--out", str(tmp_path / "o")])


class TestGoldenOutputs:
    """Output bytes on the synth corpus above, recorded once; a refactor
    that claims unchanged behaviour must keep every digest."""

    DIGESTS = {
        ("corpus", "corpus.nt"):
            "6ffc90e6e6de8f5408e95f65faa6cc3f9f3b0ef25718845ddf1d1bbc356eb554",
        ("resolve", "decisions.jsonl"):
            "b4aaea1ffe937299e8569cfcc0bb873175070ddc9ae46d5f47cf94090cccdbda",
        ("resolve", "trace.csv"):
            "b2a3038be241c5df43fd3e3910ffe3d7804f1c76bde2ab6ae4b2340e225ffe84",
        ("resolve", "source_trust.tsv"):
            "9adff9c1a9e2784b7f3e71375f8ce28359341c752f5eaeb4029b52f25e41755b",
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
            "24bd7d7faebd0dabccdd93ad6e20a4e628083d45b0bab1eb9586350ee9abcfbd",
        ("pld", "trace.csv"):
            "b2a3038be241c5df43fd3e3910ffe3d7804f1c76bde2ab6ae4b2340e225ffe84",
        ("pld", "source_trust.tsv"):
            "aae0008e12b1bc50e47417ca0053b0ff804f2dcfb65b4139fcdb08423aafd594",
        ("graph", "decisions.jsonl"):
            "a670d63e9ae28185e1523b78a4d45bb0811ebbab6262c4d01783363867445f77",
        ("graph", "trace.csv"):
            "b2a3038be241c5df43fd3e3910ffe3d7804f1c76bde2ab6ae4b2340e225ffe84",
        ("graph", "source_trust.tsv"):
            "9544d07ff9b957851413f15c77528da2fea119421df4ccfa32e42e032aa1447a",
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
         "tolerance must be positive"),
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
        assert not (tmp_path / "o").exists()

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
