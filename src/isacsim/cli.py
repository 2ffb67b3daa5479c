"""Command-line entry point.

    isac run --config <path|preset> --experiment <name> [--trials N]
             [--seed S] [--out file.csv] [--sweep v1,v2,...] [--timing]
    isac validate --config <path|preset>
    isac presets

Exit codes: 0 success, 1 configuration error (including a ``--sweep`` value
the experiment cannot run), 2 experiment failure (any row carrying an error,
or an unrecoverable run failure).
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .scenario import ConfigError, DegenerateGeometryError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_EXPERIMENT = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isac",
                                     description="Multi-static ISAC experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one experiment and write CSV rows")
    run.add_argument("--config", required=True,
                     help="path to a JSON config, or the name of a shipped preset")
    run.add_argument("--experiment", required=True, choices=harness.EXPERIMENTS)
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--seed", type=int, default=None,
                     help="root seed (default: the config's seed)")
    run.add_argument("--out", default=None, help="CSV output path (default: stdout)")
    run.add_argument("--sweep", default=None,
                     help="comma-separated sweep values overriding the default")
    run.add_argument("--timing", action="store_true",
                     help="record real wall times (breaks byte-determinism)")

    val = sub.add_parser("validate", help="parse and validate a configuration")
    val.add_argument("--config", required=True)

    sub.add_parser("presets", help="list shipped configuration presets")
    return parser


def _cmd_run(args, cfg, layout, base) -> int:
    if args.sweep is None:
        sweep = harness.default_sweep(args.experiment, cfg)
    else:  # an empty --sweep holds no values, which ExperimentSpec rejects
        sweep = tuple(args.sweep.split(",")) if args.sweep else ()
    try:
        spec = harness.ExperimentSpec(
            name=args.experiment, sweep=sweep,
            trials=args.trials if args.trials is not None else harness.default_trials(args.experiment),
            seed=args.seed if args.seed is not None else cfg.seed,
            out=args.out)
        rows = harness.run_experiment(spec, cfg, layout, base=base, timing=args.timing)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - surfaced as exit code
        print(f"experiment failure: {exc}", file=sys.stderr)
        return EXIT_EXPERIMENT
    harness.rows_to_csv(rows, args.out or sys.stdout)
    if any(row.get("error") for row in rows):
        print("experiment finished with per-row failures (see the error column)",
              file=sys.stderr)
        return EXIT_EXPERIMENT
    return EXIT_OK


def _cmd_validate(args, cfg, layout, base) -> int:
    print(f"ok: K={cfg.K} N_t={cfg.N_t} N_r={cfg.N_r} L={cfg.L} "
          f"P_T={cfg.P_T:g} W B={cfg.B:g} Hz pulse={cfg.pulse} seed={cfg.seed}")
    return EXIT_OK


def _cmd_presets() -> int:
    for name in harness.preset_names():
        print(name)
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "presets":
        code = _cmd_presets()
    else:
        try:  # the one error path of every command that loads a config
            cfg, layout, base = harness.load_config(args.config)
            if layout is None:  # random placement: validate the trial-0 draw
                harness.draw_layout(cfg, base, cfg.seed, 0)
        except (ConfigError, DegenerateGeometryError, OSError) as exc:
            print(f"config error: {exc}", file=sys.stderr)
            code = EXIT_CONFIG
        else:
            command = _cmd_run if args.command == "run" else _cmd_validate
            code = command(args, cfg, layout, base)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
