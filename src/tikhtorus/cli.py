"""Command-line front end: batch experiment runs from config files.

Exit codes: 0 success, 2 configuration problems, 3 filesystem problems,
4 numerical/library errors and running out of memory. Failures print the
error class name so batch drivers can triage without parsing messages.
"""

from __future__ import annotations

import argparse
import sys

from .config import load_config
from .errors import ConfigError, TikhtorusError
from .experiments import run_experiment

_SUBCOMMANDS = {
    "deblur": "noisy reconstruction-error study with signal snapshots",
    "rates": "noise-free convergence-rate study",
    "noise-probe": "white-noise Sobolev-regularity probe",
    "gamma": "discretization-refinement (matrix vs spectral) study",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tikhtorus",
        description="spectral Tikhonov regularization experiments on the torus",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, help_text in _SUBCOMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("--config", required=True, help="path to the INI config file")
        sub.add_argument("--out", default=None, help="override the configured output directory")
        sub.add_argument(
            "--seed-offset",
            type=int,
            default=0,
            help="shift every configured seed (for partitioning sweeps)",
        )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    expected = args.command.replace("-", "_")
    try:
        config = load_config(args.config)
        if config.experiment != expected:
            raise ConfigError(
                f"config declares experiment {config.experiment!r}, "
                f"but the {args.command!r} subcommand was invoked"
            )
        config = config.with_overrides(output_dir=args.out, seed_offset=args.seed_offset)
        written = run_experiment(config)
    except ConfigError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except TikhtorusError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        key = "[noise_probe] bandlimits" if expected == "noise_probe" else "[resolution] reference_bandlimit"
        print(f"MemoryError: {str(exc) or 'out of memory'}; lower {key}", file=sys.stderr)
        return 4
    for name in sorted(written):
        print(written[name])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
