"""Command-line entry: config validation plus the figure and oracle runners.

Verbs: ``validate-config``, ``fig3``, ``fig4``, ``fig5``, ``oracle``.  Each
accepts ``--config`` (YAML file or a manifest from an earlier run; omitted
means built-in defaults), ``--seed`` and ``--out`` overrides.  Runs write a
per-verb manifest next to their outputs; pointing ``--config`` at that
manifest reproduces the outputs byte for byte.  Failures exit nonzero after
printing a single machine-readable JSON line on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import experiments
from .config import ExperimentConfig, load_config, serialize, write_manifest
from .errors import ConfigError, ModelDomainError


def _effective_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config is None:
        config = ExperimentConfig()
    else:
        config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.out is not None:
        config = replace(config, output_dir=str(args.out))
    return config


def _emit_error(exc: BaseException) -> None:
    payload = {"error": type(exc).__name__, "message": str(exc)}
    key = getattr(exc, "key", None)
    if key is not None:
        payload["key"] = key
    print(json.dumps(payload), file=sys.stderr)


def cmd_validate_config(args: argparse.Namespace) -> int:
    config = _effective_config(args)
    sys.stdout.write(serialize(config))
    print("config ok")
    return 0


def _figure_command(args: argparse.Namespace, name: str, runner) -> int:
    config = _effective_config(args)
    out = Path(config.output_dir)
    write_manifest(config, out / f"{name}_manifest.yaml")
    path = runner(config, out)
    print(f"wrote {path}")
    return 0


def cmd_fig3(args: argparse.Namespace) -> int:
    return _figure_command(args, "fig3", experiments.run_fig3_metrics)


def cmd_fig4(args: argparse.Namespace) -> int:
    return _figure_command(args, "fig4", experiments.run_fig4_sweep)


def cmd_fig5(args: argparse.Namespace) -> int:
    return _figure_command(args, "fig5", experiments.run_fig5_comparison)


def cmd_oracle(args: argparse.Namespace) -> int:
    if args.events < 1:
        raise ConfigError("oracle.events", f"must be >= 1, got {args.events}")
    if args.episodes < 1:
        raise ConfigError("oracle.episodes", f"must be >= 1, got {args.episodes}")
    config = _effective_config(args)
    out = Path(config.output_dir)
    write_manifest(config, out / "oracle_manifest.yaml")
    path, ok = experiments.run_oracle_validation(
        config, out, num_events=args.events, episodes=args.episodes)
    print(f"wrote {path}")
    if not ok:
        _emit_error(ModelDomainError(
            "simulated values disagree with the analytic model beyond "
            f"tolerance; see {path}"))
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="v2i-fairness",
        description="Velocity-adaptive SPS selection-window experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", type=str, default=None,
                       help="YAML config or manifest (default: built-in)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the experiment seed")
        p.add_argument("--out", type=str, default=None,
                       help="override the output directory")
        p.set_defaults(func=func)
        return p

    add("validate-config", cmd_validate_config,
        "load, validate and echo the effective configuration")
    add("fig3", cmd_fig3, "per-generation optimizer metrics CSV")
    add("fig4", cmd_fig4, "optimal window per lane across the speed sweep")
    add("fig5", cmd_fig5, "optimized vs fixed-window objective sums")
    oracle = add("oracle", cmd_oracle,
                 "analytic vs simulated collision/PRR cross-check")
    oracle.add_argument("--events", type=int, default=100_000,
                        help="reselection events per case")
    oracle.add_argument("--episodes", type=int, default=2000,
                        help="independent episodes per case; at most one "
                             "per event, so runs min(episodes, events)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _emit_error(exc)
        return 2
    except (ModelDomainError, RuntimeError, OSError, ValueError) as exc:
        _emit_error(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
