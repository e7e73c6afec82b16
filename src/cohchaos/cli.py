"""Command line front end for configured runs.

Each subcommand takes a run description (JSON file, named preset, or
both, with the file's keys overriding the preset) plus optional dotted
KEY=VALUE overrides, and writes CSV output and a manifest to --out.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .algebra import CohChaosError
from .experiments import (
    VERBS,
    ConfigError,
    apply_overrides,
    config_from_dict,
    load_raw,
    run_experiment,
)

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohchaos",
        description="Coherent-state mean-field dynamics of oscillator-spin models",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, run in VERBS.items():
        sv = sub.add_parser(verb, help=run.__doc__.splitlines()[0])
        sv.add_argument("--config", type=Path, help="JSON run description")
        sv.add_argument("--preset", help="named built-in run description (fig1)")
        sv.add_argument("--out", type=Path, required=True, help="output directory")
        sv.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="dotted config override applied before validation, e.g. model.g=0.25",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            raw = load_raw(args.config)
            if args.preset is not None:
                raw.setdefault("preset", args.preset)
        elif args.preset is not None:
            raw = {"preset": args.preset}
        elif args.verb == "fig1":
            raw = {"preset": "fig1"}
        else:
            raise ConfigError("need --config or --preset")
        apply_overrides(raw, args.override)
        cfg = config_from_dict(raw)
        manifest = run_experiment(args.verb, cfg, args.out)
    except CohChaosError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = ", ".join(manifest["outputs"] + ["run_manifest.json"])
    print(f"wrote {names} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
