"""Every row of the settings table: its INI key reaches its config field,
and its flag, where it has one, beats the file."""

import types

import pytest

from ldtruth import cli
from ldtruth.cli import SETTINGS, main
from ldtruth.eval_harness import SynthConfig
from ldtruth.prior_belief import PriorConfig
from ldtruth.truth_engine import EngineConfig

# INI key -> (file value, flag value), both valid and off the default
VALUES = {
    "policy": ("pld", "graph"), "threads": ("0", "2"),
    "damping": ("0.5", "0.25"), "tolerance": ("1e-05", None),
    "max_sweeps": ("7", None),
    "t0": ("0.3", "0.4"), "outer_max": ("3", "4"),
    "outer_threshold": ("0.01", "0.02"), "bp_damping": ("0.1", "0.2"),
    "coupling": ("2.0", "3.0"), "edge_threshold": ("0.2", "0.3"),
    "bp_tol": ("0.0001", None), "bp_max": ("9", None),
    "dissimilar_false_factor": ("-0.25", None),
    "n_sources": ("20", "21"), "n_entities": ("40", "41"),
    "n_conflict_predicates": ("30", "31"), "values_per_conflict": ("4", "5"),
    "attachment_m": ("3", "4"), "sameas_fidelity": ("0.5", "0.6"),
    "reliability_low": ("0.2", "0.25"), "reliability_high": ("0.9", "0.85"),
    "claims_min": ("3", "2"), "claims_max": ("5", "6"),
    "support_skew": ("1.0", "1.5"), "seed": ("3", "4"),
}


class _Stop(Exception):
    """Ends a command once the spied calls have seen its settings."""


@pytest.fixture
def seen(monkeypatch):
    """Spy on the calls that receive settings, then stop the command."""
    calls = {}

    def assemble(statements, **kwargs):
        calls.update(kwargs)
        store = types.SimpleNamespace(drop_counts={})
        return types.SimpleNamespace(store=store, priors=None, link_drops={})

    def stop(name):
        def spy(*args):
            calls[name] = args[-1]
            raise _Stop
        return spy

    monkeypatch.setattr(cli, "assemble", assemble)
    monkeypatch.setattr(cli, "resolve_all", stop("engine"))
    monkeypatch.setattr(cli, "generate", stop("synth"))
    return calls


def _run(section, tmp_path, extra):
    if section == "synth":
        argv = ["synth"]
    else:
        triples = tmp_path / "one.nt"
        triples.write_text('<http://a.example/s> <http://a.example/p> "x" .\n')
        argv = ["resolve", "--input", str(triples)]
    with pytest.raises(_Stop):
        main([*argv, "--out", str(tmp_path / "out"), *extra])


def _field(calls, section, key):
    if key == "policy":
        return calls["policy"]
    cfg = calls["prior_cfg" if section == "prior" else section]
    return getattr(cfg, key)


def test_table_covers_the_accepted_settings():
    assert len(SETTINGS) == 26
    assert {row[1] for row in SETTINGS} == set(VALUES)
    defaults = {"prior_cfg": PriorConfig(), "engine": EngineConfig(),
                "synth": SynthConfig()}
    for section, key, flag, cast in SETTINGS:
        assert (flag is None) == (VALUES[key][1] is None), key
        if section != "run":
            assert type(_field(defaults, section, key)) is cast, key


@pytest.mark.parametrize("row", [r for r in SETTINGS if r[1] != "threads"],
                         ids=lambda row: f"{row[0]}.{row[1]}")
def test_file_sets_field_and_flag_overrides(row, seen, tmp_path):
    section, key, flag, cast = row
    from_file, from_flag = VALUES[key]
    cfgfile = tmp_path / "settings.ini"
    cfgfile.write_text(f"[{section}]\n{key} = {from_file}\n")
    _run(section, tmp_path, ["--config", str(cfgfile)])
    assert _field(seen, section, key) == cast(from_file)
    if flag:
        _run(section, tmp_path, ["--config", str(cfgfile), flag, from_flag])
        assert _field(seen, section, key) == cast(from_flag)


def test_threads_row_is_validated_and_flag_overrides(seen, tmp_path, capsys):
    # files are parsed on one thread whatever the count, so the setting
    # has no field to reach; its check shows where the value came from
    cfgfile = tmp_path / "settings.ini"
    cfgfile.write_text("[run]\nthreads = 0\n")
    triples = tmp_path / "one.nt"
    triples.write_text('<http://a.example/s> <http://a.example/p> "x" .\n')
    argv = ["resolve", "--input", str(triples), "--config", str(cfgfile),
            "--out", str(tmp_path / "out")]
    assert main(argv) == 1
    assert "threads" in capsys.readouterr().err
    with pytest.raises(_Stop):
        main([*argv, "--threads", "2"])
