"""Command-line interface.

Subcommands:
    run            full pipeline: ingest, normalize, hops, metrics, graphs, report
    synth          generate a seeded synthetic profile corpus with ground truth
    parse-titles   build the title normalization map and error reports
    extract-hops   extract and classify hops using the normalization map
    metrics        job metrics, promotion tables, cohorts, distributions
    graph          talent-flow graphs, centralities, components, fits
    report         aggregate all tables into one JSON summary

Exit codes: 0 success, 1 configuration error, 2 I/O or missing-artifact
error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .config import ConfigError, PipelineConfig, build_config, read_config_file
from .pipeline import (STAGES, DependencyError, RunState, StageFailure,
                       run_pipeline)
from .synth import SynthSpec, generate, write_profiles_jsonl, write_sidecar

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_IO = 2
EXIT_STAGE = 3

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors (exit code 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


_CONFIG_FLAGS = (
    ("--input", "input", str, "profile JSON Lines file"),
    ("--out", "out", str, "output directory"),
    ("--reference-date", "reference_date", str, "YYYY-MM closing date for ongoing spells"),
    ("--title-min-sup", "title_min_sup", int, "min spell count per title (default 10)"),
    ("--edge-min-sup", "edge_min_sup", int, "min hop count per graph edge (default 2)"),
    ("--cohort-min-sup", "cohort_min_sup", int, "min hops per cohort cell (default 100)"),
    ("--job-min-sup", "job_min_sup", int, "min holders per job for level gains (default 10)"),
    ("--damping", "damping", float, "pagerank damping factor (default 0.85)"),
    ("--tol", "tol", float, "pagerank L1 convergence tolerance (default 1e-10)"),
    ("--max-iter", "max_iter", int, "pagerank iteration cap (default 200)"),
    ("--dicts", "dicts", str, "directory with functions/positions/domains dictionaries"),
    ("--translate-table", "translate_table", str, "tab-separated title substitution file"),
    ("--top-k", "top_k", int, "entries per centrality ranking (default 10)"),
)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None,
                        help="key=value config file; flags override it")
    for flag, dest, kind, help_text in _CONFIG_FLAGS:
        parser.add_argument(flag, dest=dest, type=kind, default=None, help=help_text)


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    file_values = read_config_file(args.config) if args.config else {}
    cli_values = {dest: getattr(args, dest) for _, dest, _, _ in _CONFIG_FLAGS}
    return build_config(file_values, cli_values)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="talentflow",
                     description="Talent-flow analytics over career-history profiles")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
            ("run", "run the whole pipeline"),
            ("parse-titles", "build the title normalization map"),
            ("extract-hops", "extract and classify job hops"),
            ("metrics", "compute job metrics and tables"),
            ("graph", "build graphs and centralities"),
            ("report", "aggregate artifacts into report.json")):
        p = sub.add_parser(name, help=help_text)
        _add_config_flags(p)

    sp = sub.add_parser("synth", help="generate a synthetic profile corpus")
    sp.add_argument("--out", required=True, help="output JSON Lines path")
    sp.add_argument("--sidecar", default=None,
                    help="ground-truth JSON path (default: OUT.truth.json)")
    sp.add_argument("--persons", type=int, default=1000)
    sp.add_argument("--organizations", type=int, default=120)
    sp.add_argument("--industries", type=int, default=8)
    sp.add_argument("--seed", type=int, default=42)
    sp.add_argument("--min-spells", type=int, default=1)
    sp.add_argument("--max-spells", type=int, default=6)
    sp.add_argument("--title-classes", type=int, default=150)
    sp.add_argument("--variant-rate", type=float, default=0.35)
    sp.add_argument("--typo-rate", type=float, default=0.08)
    sp.add_argument("--paren-rate", type=float, default=0.06)
    sp.add_argument("--junk-rate", type=float, default=0.02)
    sp.add_argument("--overlap-prob", type=float, default=0.15)
    sp.add_argument("--reference-date", default="2020-01")
    return parser


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(
        persons=args.persons,
        organizations=args.organizations,
        industries=args.industries,
        seed=args.seed,
        min_spells=args.min_spells,
        max_spells=args.max_spells,
        title_classes=args.title_classes,
        variant_rate=args.variant_rate,
        typo_rate=args.typo_rate,
        paren_rate=args.paren_rate,
        junk_rate=args.junk_rate,
        overlap_prob=args.overlap_prob,
        reference_date=args.reference_date,
    )
    try:
        spec.validate()
    except ValueError as exc:
        print(f"talentflow synth: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    result = generate(spec)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    sidecar = Path(args.sidecar) if args.sidecar else out.with_name(out.name + ".truth.json")
    write_profiles_jsonl(result.profiles, out)
    write_sidecar(result.sidecar, sidecar)
    print(f"wrote {len(result.profiles)} profiles to {out} (ground truth: {sidecar})")
    return EXIT_OK


def _run_stages(config: PipelineConfig, command: str) -> int:
    try:
        if command == "run":
            manifest = run_pipeline(config)
            counts = manifest["counts"]
            print(f"pipeline complete: {counts['profiles']['total']} profiles, "
                  f"{counts['hops']['total']} hops -> {config.out}")
        else:
            config.validate()
            dict(STAGES)[command](RunState(config))
            print(f"stage {command} complete -> {config.out}")
    except ConfigError as exc:
        print(f"talentflow: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DependencyError as exc:
        print(f"talentflow: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"talentflow: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except StageFailure as exc:
        print(f"talentflow: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except Exception as exc:  # stage invoked directly, outside run_pipeline
        print(f"talentflow: stage {command} failed: {exc}", file=sys.stderr)
        return EXIT_STAGE
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "synth":
        return _cmd_synth(args)

    try:
        config = _config_from_args(args)
    except ConfigError as exc:
        print(f"talentflow: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    return _run_stages(config, args.command)


if __name__ == "__main__":
    sys.exit(main())
