"""Command-line interface: init / propose / ingest / run / report / slices."""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import campaign as camp
from .acquisition import AcquisitionConfig
from .errors import InvalidStateError, NumericError, ProtocolError
from .evaluators import EVALUATORS, fsync_dir, proposals_path, write_proposals
from .optim import OptimizerBudget
from .report import DEFAULT_SLICE_RESOLUTION, emit_slices, emit_table
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


def _refuse_a_live_campaign(dirname: str) -> None:
    """Refuse a directory that already holds a campaign's state, so ``init``
    and ``run`` never overwrite its results."""
    path = _state_path(dirname)
    if os.path.exists(path):
        raise InvalidStateError(f"{path} already exists; use another --dir")


def _make_dir(dirname: str) -> None:
    """Create the campaign directory and its missing ancestors, top-down,
    fsyncing the parent of each, so the directory survives a power loss with
    the files a command syncs in it."""
    missing = [os.path.abspath(dirname)]
    while not os.path.isdir(os.path.dirname(missing[-1])):
        missing.append(os.path.dirname(missing[-1]))
    for path in reversed(missing):
        os.makedirs(path, exist_ok=True)
        fsync_dir(os.path.dirname(path))


def _add_dir_arg(p):
    p.add_argument("--dir", default=os.environ.get(ENV_CAMPAIGN_DIR, "."),
                   help="campaign directory (default: $CHAMBEROPT_DIR or cwd)")


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
    sp.add_argument("--q", type=int, default=AcquisitionConfig.batch_size)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threshold", type=float, default=None,
                    help="constraint threshold (default: evaluator's own)")
    sp.add_argument("--mc-samples", type=int, default=AcquisitionConfig.mc_samples)
    sp.add_argument("--raw-samples", type=int, default=OptimizerBudget.raw_samples)
    sp.add_argument("--restarts", type=int, default=OptimizerBudget.restarts)

    sp = sub.add_parser("report", help="write result tables")
    _add_dir_arg(sp)

    sp = sub.add_parser("slices", help="write surrogate slice grids")
    _add_dir_arg(sp)
    sp.add_argument("--resolution", type=int, default=DEFAULT_SLICE_RESOLUTION)
    return p


def _acquisition(evaluator, /, **fields) -> AcquisitionConfig:
    """``AcquisitionConfig(**fields)`` whose constraint threshold defaults to
    a built-in evaluator's own: the quadratic's v = x1 + x2 never reaches
    the class default 25.0."""
    if isinstance(evaluator, str) and evaluator in EVALUATORS:
        fields = {"constraint_threshold": EVALUATORS[evaluator][2], **fields}
    return AcquisitionConfig(**fields)


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
    _refuse_a_live_campaign(args.dir)
    with open(args.config, encoding="utf-8-sig") as f:
        try:
            cfg = json.load(f)
        except RecursionError as e:
            raise ValueError(f"{args.config}: config nests too deeply: {e}") from e
    if not isinstance(cfg, dict):
        raise ValueError(f"{args.config}: config must be a JSON object")
    unknown = sorted(set(cfg) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"{args.config}: unknown config field(s) {unknown}; "
                         f"expected some of {list(_CONFIG_KEYS)}")
    space = ParameterSpace.from_config(cfg.get("space"))
    evaluator = cfg.get("evaluator", "external")
    acq = _config_section(cfg, "acq", lambda **f: _acquisition(evaluator, **f))
    budget = _config_section(cfg, "budget", OptimizerBudget)
    state = camp.init_campaign(space, acq, budget,
                               doe_n=cfg.get("doe_n", 10),
                               seed=cfg.get("seed", 0), evaluator=evaluator)
    _make_dir(args.dir)
    if state.pending:
        path = proposals_path(args.dir, state.batch)
        write_proposals(path, space, state.pending)
        print(f"wrote {path} ({len(state.pending)} DOE proposals)")
    camp.save_state(state, _state_path(args.dir))
    print(f"campaign initialized in {args.dir}")
    return EXIT_OK


def _cmd_propose(args):
    state = camp.step(camp.load_state(_state_path(args.dir)))
    if state.pending:       # before the state: a failed write leaves it as it was
        path = proposals_path(args.dir, state.batch)
        write_proposals(path, state.space, state.pending)
        done = f"wrote {path} ({len(state.pending)} proposals)"
    else:
        done = f"evaluated iteration {state.iteration} ({len(state.dataset)} rows)"
    camp.save_state(state, _state_path(args.dir))
    print(done)
    return EXIT_OK


def _cmd_ingest(args):
    state = camp.load_state(_state_path(args.dir))
    state = camp.ingest(state, args.results)
    camp.save_state(state, _state_path(args.dir))
    print(f"ingested {args.results}; dataset now has {len(state.dataset)} rows")
    return EXIT_OK


def _cmd_run(args):
    _refuse_a_live_campaign(args.dir)
    space = EVALUATORS[args.evaluator][1]
    thr = {} if args.threshold is None else {"constraint_threshold": args.threshold}
    acq = _acquisition(args.evaluator, mc_samples=args.mc_samples,
                       batch_size=args.q, **thr)
    budget = OptimizerBudget(raw_samples=args.raw_samples, restarts=args.restarts)
    state = camp.init_campaign(space, acq, budget, doe_n=args.doe,
                               seed=args.seed, evaluator=args.evaluator)
    state = camp.run_campaign(state, args.iters)
    _make_dir(args.dir)
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
    except ProtocolError as e:
        print(f"protocol error: {e}", file=sys.stderr)
        return EXIT_PROTOCOL
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except MemoryError as e:
        print(f"numeric error: out of memory: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO
    except InvalidStateError as e:
        print(f"invalid state: {e}", file=sys.stderr)
        return EXIT_STATE
    except ValueError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
