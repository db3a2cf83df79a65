"""Run ``ldtruth`` in this process under the outside-in tracer.

Usage: ``python3 perfbench/traced.py REPORT.json CLI-ARGS...``

Installs the tracer, calls ``ldtruth.cli.main(CLI-ARGS)``, restores the
wrapped names, then decides every conflict set of the traced run's claim
store by majority vote, and writes the tracer report (spans included),
the exit code and the vote decisions to REPORT.json.  The process exits with ``main``'s
exit code.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import tracer  # noqa: E402
from ldtruth import baselines, cli  # noqa: E402


def main(argv) -> int:
    report_path, cli_args = argv[0], argv[1:]
    run = tracer.Tracer(tracer.RESOLVE_TARGETS)
    with run:
        code = cli.main(cli_args)
    report = run.report()
    report["exit_code"] = code
    try:
        report["vote"] = [
            [d.entity, d.predicate, d.chosen.kind, d.chosen.render()]
            for d in baselines.vote_all(
                run.stats["rdf_ingest.build_claims"].last)]
    except (AttributeError, TypeError) as exc:
        # the store changed shape: only baselines.vote_accuracy goes missing
        report["vote_error"] = repr(exc)
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
