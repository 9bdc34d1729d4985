"""Command-line orchestration: stats, enrich, compose, eval, fixtures.

Exit codes: 0 success, 1 partial or data failure, 2 config/usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .bundle import AugmentationBundle, apply_bundles, write_json
from .config import ConfigError, build_gateway, load_config
from .entity import expand_descriptions
from .gateway import GatewayError
from .harness import ab_compare, format_table
from .kg import MODES, DatasetError, dataset_stats, load_dataset, write_dataset, write_text
from .relation import describe_relations
from .structure import extract_structure
from .synth import planted_alias_graph, write_toy_dataset, write_toy_fixture

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2

STRATEGIES = ("E", "R", "S")


def cmd_stats(args: argparse.Namespace) -> int:
    kg = load_dataset(args.root, mode=args.mode)
    stats = dataset_stats(kg)
    if args.json:
        print(json.dumps(stats._asdict()))
    else:
        for name, value in stats._asdict().items():
            print(f"{name:<12} {value}")
        if kg.load_warnings:
            print(f"warnings     {len(kg.load_warnings)}")
    return EXIT_OK


def cmd_enrich(args: argparse.Namespace) -> int:
    # Each config flag's dest is its dotted config key.
    flags = {key: value for key, value in vars(args).items() if "." in key and value is not None}
    cfg = load_config(args.config, flags)

    strategies = list(dict.fromkeys(args.strategy))
    gateway = build_gateway(cfg.gateway)
    kg = load_dataset(cfg.dataset_root, mode=cfg.dataset_mode)
    out_root = Path(args.out) if args.out else cfg.output_dir

    n_errors = 0
    for strategy in strategies:
        if strategy == "E":
            bundle = expand_descriptions(kg, gateway, budget_tokens=cfg.budget_tokens)
        elif strategy == "R":
            bundle = describe_relations(kg, gateway, modes=cfg.relation_modes)
        else:
            bundle = extract_structure(kg, gateway, cfg.structure)
        bundle_dir = bundle.save(out_root / f"bundle_{strategy}", base_kg=kg)
        n_errors += len(bundle.errors)
        print(
            f"{strategy}: wrote {bundle_dir} "
            f"(items={len(bundle.items)}, errors={len(bundle.errors)}, "
            f"extra_triples={len(bundle.extra_triples)})"
        )
    if n_errors and not args.allow_partial:
        print(f"enrichment finished with {n_errors} per-item errors", file=sys.stderr)
        return EXIT_FAILURE
    return EXIT_OK


def cmd_compose(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    kg = load_dataset(cfg.dataset_root, mode=cfg.dataset_mode)
    bundles = [AugmentationBundle.load(path) for path in args.bundle]
    composed = apply_bundles(kg, bundles)
    out = Path(args.out) if args.out else cfg.output_dir / "composed"
    write_dataset(composed, out)
    stats = dataset_stats(composed)
    print(f"composed dataset written to {out} ({stats.n_train} train triples)")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    kg_base = load_dataset(args.base, mode=cfg.dataset_mode)
    kg_augmented = load_dataset(args.augmented, mode=cfg.dataset_mode)
    report = ab_compare(kg_base, kg_augmented, cfg.train, n_seeds=cfg.n_seeds, split=cfg.eval_split)
    print(format_table(report))
    out = Path(args.out) if args.out else cfg.output_dir / "comparison.json"
    write_text(out, [report.to_json()])
    print(f"report written to {out}")
    return EXIT_OK


def cmd_fixtures(args: argparse.Namespace) -> int:
    out = Path(args.out)
    if args.kind == "toy":
        kg = write_toy_dataset(out)
        print(f"toy dataset written to {out} ({len(kg.train)} train triples)")
        if args.replay:
            n = write_toy_fixture(args.replay)
            print(f"replay fixture with {n} records written to {args.replay}")
    else:
        kg, keyword_sets = planted_alias_graph(seed=args.seed)
        write_dataset(kg, out)
        keywords_path = out / "keywords.json"
        write_json(keywords_path, keyword_sets)
        print(f"planted dataset written to {out} (keyword sets in {keywords_path})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kgforge",
        description="Enrich knowledge graph datasets with generated text/structure and evaluate the effect.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_stats = sub.add_parser("stats", help="print dataset statistics")
    p_stats.add_argument("root", help="dataset directory")
    p_stats.add_argument("--mode", choices=MODES, default=MODES[0])
    p_stats.add_argument("--json", action="store_true", help="machine-readable output")
    p_stats.set_defaults(func=cmd_stats)

    p_enrich = sub.add_parser("enrich", help="run enrichment strategies, writing bundles")
    p_enrich.add_argument("--config", required=True)
    p_enrich.add_argument(
        "--strategy",
        action="append",
        choices=STRATEGIES,
        required=True,
        help="strategy to run (repeatable): E entity text, R relation text, S structure",
    )
    p_enrich.add_argument("--out", help="output directory (default: config output_dir)")
    p_enrich.add_argument("--k", dest="structure.k", type=int, help="structure.k (top-k), over the config file's value")
    p_enrich.add_argument(
        "--self-loop",
        dest="structure.self_loop",
        action="store_true",
        default=None,
        help="structure.self_loop: true, over the config file's value",
    )
    p_enrich.add_argument(
        "--budget-tokens", dest="entity.budget_tokens", type=int, help="entity.budget_tokens, over the config file's value"
    )
    p_enrich.add_argument(
        "--modes",
        dest="relation.modes",
        type=lambda text: text.split(","),
        help="relation.modes, comma-separated, over the config file's value",
    )
    p_enrich.add_argument(
        "--allow-partial", action="store_true", help="exit 0 even with per-item errors"
    )
    p_enrich.set_defaults(func=cmd_enrich)

    p_compose = sub.add_parser("compose", help="apply bundles onto the base dataset")
    p_compose.add_argument("--config", required=True)
    p_compose.add_argument(
        "--bundle", action="append", default=[], help="bundle directory (repeatable)"
    )
    p_compose.add_argument("--out", help="output dataset directory")
    p_compose.set_defaults(func=cmd_compose)

    p_eval = sub.add_parser("eval", help="A/B compare base vs augmented dataset")
    p_eval.add_argument("--config", required=True)
    p_eval.add_argument("--base", required=True, help="base dataset directory")
    p_eval.add_argument(
        "--augmented", required=True, help="augmented dataset directory, with the base's entities and valid/test splits"
    )
    p_eval.add_argument("--out", help="JSON report path")
    p_eval.set_defaults(func=cmd_eval)

    p_fixtures = sub.add_parser("fixtures", help="generate bundled synthetic datasets")
    p_fixtures.add_argument("kind", choices=("toy", "planted"))
    p_fixtures.add_argument("--out", required=True, help="dataset output directory")
    p_fixtures.add_argument("--replay", help="also write the toy replay fixture here")
    p_fixtures.add_argument("--seed", type=int, default=13, help="planted graph seed")
    p_fixtures.set_defaults(func=cmd_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetError, GatewayError, FileNotFoundError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
