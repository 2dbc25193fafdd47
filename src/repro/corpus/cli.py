"""``repro-corpus``: run a circuit-family corpus end-to-end.

Examples
--------
::

    repro-corpus                          # 110-circuit baseline matrix
    repro-corpus --quick --check          # ~20-circuit CI smoke run
    repro-corpus --spec my_corpus.json --store .repro-store
    repro-corpus --out artifacts/

Writes ``CORPUS_<name>.json`` into ``--out``; ``--check`` validates
the artifact immediately after writing (exit code 1 on violation).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from ..errors import ReproError
from .runner import check_report, run_corpus
from .spec import CorpusSpec

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-corpus",
        description="Run a generated-circuit corpus: dictionary build, "
                    "GA test selection, hard + posterior diagnosis per "
                    "circuit; emit a CORPUS_<name>.json matrix.")
    source = parser.add_mutually_exclusive_group()
    source.add_argument(
        "--quick", action="store_true",
        help="run the ~20-circuit smoke matrix instead of the "
             "110-circuit baseline")
    source.add_argument(
        "--spec", type=Path, metavar="FILE",
        help="load a CorpusSpec JSON file instead of a preset")
    parser.add_argument(
        "--out", type=Path, default=Path("."), metavar="DIR",
        help="directory the CORPUS_<name>.json artifact is written to "
             "(default: current directory)")
    parser.add_argument(
        "--store", type=Path, default=None, metavar="DIR",
        help="artifact-store root enabling resume: completed circuits "
             "(and their dictionary/GA artifacts) are reused on re-run")
    parser.add_argument(
        "--check", action="store_true",
        help="validate the written artifact and exit non-zero on any "
             "violation")
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress per-circuit progress lines")
    return parser


def _load_spec(args: argparse.Namespace) -> CorpusSpec:
    if args.spec is not None:
        try:
            payload = json.loads(args.spec.read_text())
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read spec {args.spec}: {exc}")
        return CorpusSpec.from_json_dict(payload)
    return CorpusSpec.quick() if args.quick else CorpusSpec.baseline()


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _load_spec(args)
    except ReproError as exc:
        raise SystemExit(f"bad corpus spec: {exc}")

    log = None if args.quiet else \
        (lambda message: print(message, file=sys.stderr, flush=True))
    report = run_corpus(spec, store=args.store, log=log)

    args.out.mkdir(parents=True, exist_ok=True)
    artifact = args.out / f"CORPUS_{spec.name}.json"
    artifact.write_text(json.dumps(report, indent=2) + "\n")

    results = report["results"]
    print(f"{artifact}: {results['completed']}/"
          f"{results['total_circuits']} circuits, "
          f"{len(results['failures'])} failures, "
          f"{report['timings']['total_seconds']:.1f}s "
          f"({report['timings']['from_cache']} from cache)")
    for family, aggregate in results["per_family"].items():
        print(f"  {family:16s} n={aggregate['n_circuits']:<3d} "
              f"acc={aggregate['accuracy_mean']:.3f} "
              f"group={aggregate['group_accuracy_mean']:.3f} "
              f"posterior={aggregate['posterior_accuracy_mean']:.3f} "
              f"entropy={aggregate['mean_entropy_bits']:.3f}b")

    if args.check:
        check_report(report, artefact=str(artifact))
        print(f"{artifact}: check passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
