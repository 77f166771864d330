"""Command-line interface: init / propose / ingest / run / report / slices."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import campaign as camp
from .acquisition import AcquisitionConfig
from .errors import (BoundsViolationError, DataError, DegenerateDataError,
                     InvalidStateError, NumericError, ProtocolError,
                     StateFileError)
from .evaluators import EVALUATORS, write_proposals
from .optim import OptimizerBudget
from .report import emit_slices, emit_table
from .space import ParameterSpace

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PROTOCOL = 3
EXIT_NUMERIC = 4
EXIT_IO = 5
EXIT_STATE = 6

ENV_CAMPAIGN_DIR = "CHAMBEROPT_DIR"

_CONFIG_KEYS = ("space", "acq", "budget", "doe_n", "seed", "evaluator")


def _state_path(dirname: str) -> str:
    return os.path.join(dirname, "state.json")


def _add_dir_arg(p):
    p.add_argument("--dir", default=os.environ.get(ENV_CAMPAIGN_DIR, "."),
                   help="campaign directory (default: $CHAMBEROPT_DIR or cwd)")


def _add_budget_args(p):
    p.add_argument("--raw-samples", type=int, default=256)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--max-iters", type=int, default=200)


def _budget(args) -> OptimizerBudget:
    return OptimizerBudget(raw_samples=args.raw_samples, restarts=args.restarts,
                           max_iters_per_restart=args.max_iters)


def _parser():
    p = argparse.ArgumentParser(
        prog="chamberopt",
        description="Constrained batch Bayesian optimization around an "
                    "expensive black-box evaluator.")
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("init", help="create a campaign from a config file")
    sp.add_argument("--config", required=True, help="JSON campaign config")
    _add_dir_arg(sp)

    sp = sub.add_parser("propose", help="run one BO step in external mode")
    _add_dir_arg(sp)

    sp = sub.add_parser("ingest", help="ingest an external results CSV")
    sp.add_argument("results", help="CSV with header id,k,v_mag")
    _add_dir_arg(sp)

    sp = sub.add_parser("run", help="run an embedded-evaluator campaign")
    _add_dir_arg(sp)
    sp.add_argument("--evaluator", choices=sorted(EVALUATORS), default="proxy")
    sp.add_argument("--doe", type=int, default=10)
    sp.add_argument("--iters", type=int, default=3)
    sp.add_argument("--q", type=int, default=5)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threshold", type=float, default=None,
                    help="constraint threshold (default: evaluator's own)")
    sp.add_argument("--mc-samples", type=int, default=1024)
    _add_budget_args(sp)

    sp = sub.add_parser("report", help="write result tables")
    _add_dir_arg(sp)

    sp = sub.add_parser("slices", help="write surrogate slice grids")
    _add_dir_arg(sp)
    sp.add_argument("--resolution", type=int, default=101)
    return p


def _config_section(cfg: dict, key: str, cls):
    """Build ``cls`` from the optional object ``cfg[key]``; errors name the field."""
    section = cfg.get(key, {})
    if not isinstance(section, dict):
        raise ValueError(f"config field {key!r} must be a JSON object")
    try:
        return cls(**section)
    except TypeError as e:
        raise ValueError(f"config field {key!r}: {e}") from e


def _cmd_init(args):
    with open(args.config) as f:
        cfg = json.load(f)
    if not isinstance(cfg, dict):
        raise ValueError(f"{args.config}: config must be a JSON object")
    unknown = sorted(set(cfg) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"{args.config}: unknown config field(s) {unknown}; "
                         f"expected some of {list(_CONFIG_KEYS)}")
    if not isinstance(cfg.get("space"), list):
        raise ValueError(f"{args.config}: config field 'space' must be a list "
                         "of dimension records")
    for key, kind in (("doe_n", int), ("seed", int), ("evaluator", str)):
        # JSON true/false load as bool, which Python counts as an int
        if key in cfg and (not isinstance(cfg[key], kind)
                           or kind is int and isinstance(cfg[key], bool)):
            raise ValueError(f"config field {key!r} must be of type {kind.__name__}")
    if cfg.get("seed", 0) < 0:
        raise ValueError("config field 'seed' must be a non-negative integer")
    space = ParameterSpace.from_config(cfg["space"])
    acq = _config_section(cfg, "acq", AcquisitionConfig)
    budget = _config_section(cfg, "budget", OptimizerBudget)
    state = camp.init_campaign(space, acq, budget,
                               doe_n=cfg.get("doe_n", 10),
                               seed=cfg.get("seed", 0),
                               evaluator=cfg.get("evaluator", "external"))
    os.makedirs(args.dir, exist_ok=True)
    if state.pending:
        path = os.path.join(args.dir, "proposals_iter0.csv")
        write_proposals(path, space, [list(x) for _, x in state.pending], 0)
        print(f"wrote {path} ({len(state.pending)} DOE proposals)")
    camp.save_state(state, _state_path(args.dir))
    print(f"campaign initialized in {args.dir}")
    return EXIT_OK


def _cmd_propose(args):
    state = camp.load_state(_state_path(args.dir))
    state = camp.step(state, campaign_dir=args.dir)
    camp.save_state(state, _state_path(args.dir))
    path = os.path.join(args.dir, f"proposals_iter{state.iteration + 1}.csv")
    print(f"wrote {path} ({len(state.pending)} proposals)")
    return EXIT_OK


def _cmd_ingest(args):
    state = camp.load_state(_state_path(args.dir))
    state = camp.ingest(state, args.results)
    camp.save_state(state, _state_path(args.dir))
    print(f"ingested {args.results}; dataset now has {len(state.dataset)} rows")
    return EXIT_OK


def _cmd_run(args):
    _, space, default_thr = EVALUATORS[args.evaluator]
    thr = args.threshold if args.threshold is not None else default_thr
    acq = AcquisitionConfig(constraint_threshold=thr,
                            mc_samples=args.mc_samples, batch_size=args.q)
    state = camp.init_campaign(space, acq, _budget(args), doe_n=args.doe,
                               seed=args.seed, evaluator=args.evaluator)
    state = camp.run_campaign(state, args.iters)
    os.makedirs(args.dir, exist_ok=True)
    camp.save_state(state, _state_path(args.dir))
    print(emit_table(state, args.dir))
    return EXIT_OK


def _cmd_report(args):
    state = camp.load_state(_state_path(args.dir))
    print(emit_table(state, args.dir))
    return EXIT_OK


def _cmd_slices(args):
    state = camp.load_state(_state_path(args.dir))
    paths = emit_slices(state, args.dir, resolution=args.resolution)
    for p in paths:
        print(p)
    return EXIT_OK


_COMMANDS = {
    "init": _cmd_init,
    "propose": _cmd_propose,
    "ingest": _cmd_ingest,
    "run": _cmd_run,
    "report": _cmd_report,
    "slices": _cmd_slices,
}


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return e.code if e.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (ProtocolError, DataError) as e:
        print(f"protocol error: {e}", file=sys.stderr)
        return EXIT_PROTOCOL
    except (NumericError, DegenerateDataError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except (StateFileError, OSError) as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except InvalidStateError as e:
        print(f"invalid state: {e}", file=sys.stderr)
        return EXIT_STATE
    except (BoundsViolationError, ValueError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
