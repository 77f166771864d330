import copy
import csv
import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import chamberopt
from chamberopt.campaign import STATE_VERSION, load_state, save_state, step
from chamberopt.cli import (EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_PROTOCOL,
                            EXIT_STATE, EXIT_USAGE, main)
from chamberopt.errors import (BoundsViolationError, DataError,
                              DegenerateDataError, InvalidStateError,
                              NumericError, ProtocolError, StateFileError)
from chamberopt.evaluators import (QUADRATIC_SPACE, Dataset, proxy_prechamber,
                                   read_proposals, write_proposals)
from chamberopt.space import PRECHAMBER_SPACE

FAST = ["--raw-samples", "16", "--restarts", "2", "--mc-samples", "128"]


def _run_args(d, extra=()):
    return (["run", "--dir", str(d), "--evaluator", "proxy", "--doe", "5",
             "--iters", "1", "--q", "2", "--seed", "1"] + FAST + list(extra))


def test_run_emits_state_and_table(tmp_path, capsys):
    assert main(_run_args(tmp_path)) == EXIT_OK
    out = capsys.readouterr().out
    assert "stage" in out and "doe" in out and "iter1" in out
    assert (tmp_path / "state.json").exists()
    assert (tmp_path / "table.csv").exists()
    st = load_state(tmp_path / "state.json")
    assert len(st.dataset) == 7


def test_report_on_run(tmp_path, capsys):
    main(_run_args(tmp_path))
    capsys.readouterr()
    assert main(["report", "--dir", str(tmp_path)]) == EXIT_OK
    with open(tmp_path / "table.csv") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["stage", "k", "v_mag", "d_bottle", "d_bore", "h_neck"]
    assert [r[0] for r in rows[1:]] == ["doe", "iter1"]


def test_slices_written(tmp_path, capsys):
    main(_run_args(tmp_path))
    capsys.readouterr()
    assert main(["slices", "--dir", str(tmp_path), "--resolution", "11"]) == EXIT_OK
    for dim in ("d_bottle", "d_bore", "h_neck"):
        for col in ("mean", "std"):
            p = tmp_path / f"slice_{dim}_{col}.csv"
            assert p.exists()
            with open(p) as f:
                assert len(list(csv.reader(f))) == 12   # header + resolution
    assert (tmp_path / "slice_markers.csv").exists()


@pytest.mark.parametrize("resolution", [1, 2**63 - 2, 2**63 - 1, 2**63])
def test_slices_resolution_out_of_range_is_usage_error(tmp_path, capsys,
                                                       resolution):
    # beyond sys.maxsize refused before the fits; just below it numpy
    # refuses the slice grid
    d = _doe_ingested(tmp_path)
    before = sorted(d.iterdir())
    capsys.readouterr()
    args = ["slices", "--dir", str(d), "--resolution", str(resolution)]
    assert main(args) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and err.count("\n") == 1
    assert sorted(d.iterdir()) == before


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    for flags in (["--bogus"], ["--acquisition", "ucb"]):
        assert main(["run", "--dir", str(tmp_path)] + flags) == EXIT_USAGE


@pytest.mark.parametrize("flags, field", [
    (["--tol", "1e-6"], "--tol"),                 # removed flag
    (["--iters", "-1"], "iters"),
    (["--threshold", "nan"], "constraint_threshold"),
    (["--seed", "-1"], "seed"),
])
def test_invalid_run_value_is_usage_error(tmp_path, capsys, flags, field):
    assert main(_run_args(tmp_path, flags)) == EXIT_USAGE
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not (tmp_path / "state.json").exists()


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE


def test_ingest_without_pending_is_state_error(tmp_path, capsys):
    main(_run_args(tmp_path))
    capsys.readouterr()
    results = tmp_path / "r.csv"
    results.write_text("id,k,v_mag\n")
    assert main(["ingest", str(results), "--dir", str(tmp_path)]) == EXIT_STATE


def _config(tmp_path, evaluator="external"):
    cfg = {
        "space": PRECHAMBER_SPACE.to_config(),
        "acq": {"constraint_threshold": 25.0, "batch_size": 2,
                "mc_samples": 128},
        "budget": {"raw_samples": 16, "restarts": 2},
        "doe_n": 4,
        "seed": 3,
        "evaluator": evaluator,
    }
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


def _answer(ppath, rpath, seed=None, bom=""):
    """Write the proxy's results for a proposals file, shuffled by ``seed``
    if given, after the text ``bom``."""
    rows = read_proposals(ppath, PRECHAMBER_SPACE)
    if seed is not None:
        random.Random(seed).shuffle(rows)
    with open(rpath, "w", encoding="utf-8") as f:
        f.write(bom + "id,k,v_mag\n")
        for pid, x in rows:
            k, v = proxy_prechamber(x)
            f.write(f"{pid},{k:.17g},{v:.17g}\n")


def test_external_workflow_init_propose_ingest(tmp_path, capsys):
    # the second campaign's config and results files start with a UTF-8
    # byte-order mark, as Excel and PowerShell write them
    states = []
    for bom in ("", "\ufeff"):
        cfg = _config(tmp_path)
        cfg.write_text(bom + cfg.read_text(), encoding="utf-8")
        d = tmp_path / f"camp{len(bom)}"
        assert main(["init", "--config", str(cfg), "--dir", str(d)]) == EXIT_OK
        assert (d / "proposals_iter0.csv").exists()

        _answer(d / "proposals_iter0.csv", d / "r0.csv", bom=bom)
        assert main(["ingest", str(d / "r0.csv"), "--dir", str(d)]) == EXIT_OK
        st = load_state(d / "state.json")
        assert len(st.dataset) == 4 and st.iteration == 0

        assert main(["propose", "--dir", str(d)]) == EXIT_OK
        assert (d / "proposals_iter1.csv").exists()
        _answer(d / "proposals_iter1.csv", d / "r1.csv", bom=bom)
        assert main(["ingest", str(d / "r1.csv"), "--dir", str(d)]) == EXIT_OK
        st = load_state(d / "state.json")
        assert len(st.dataset) == 6 and st.iteration == 1

        assert main(["report", "--dir", str(d)]) == EXIT_OK
        states.append((d / "state.json").read_bytes())
    assert states[0] == states[1]


def test_results_line_order_changes_no_output(tmp_path, capsys):
    # a pipeline finishes its runs in any order: results files in proposal
    # order and shuffled give byte-identical state, proposals, tables and
    # slices, as every batch enters the dataset in proposal order
    outputs = []
    for shuffled in (False, True):
        d = tmp_path / f"camp{int(shuffled)}"
        assert main(["init", "--config", str(_config(tmp_path)),
                     "--dir", str(d)]) == EXIT_OK
        for i in range(4):
            if i:
                assert main(["propose", "--dir", str(d)]) == EXIT_OK
            _answer(d / f"proposals_iter{i}.csv", d / f"r{i}.csv",
                    seed=i if shuffled else None)
            assert main(["ingest", str(d / f"r{i}.csv"), "--dir", str(d)]) == EXIT_OK
        assert main(["report", "--dir", str(d)]) == EXIT_OK
        assert main(["slices", "--dir", str(d), "--resolution", "5"]) == EXIT_OK
        outputs.append({p.name: p.read_bytes() for p in d.iterdir()
                        if not p.name.startswith("r")})
    assert len(outputs[0]) == 1 + 4 + 2 + 7      # state, proposals, tables, slices
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("mode", ["embedded", "asktell"])
def test_every_iteration_rederives_from_its_dataset_prefix(tmp_path, capsys,
                                                           mode):
    # the rows before an iteration's first row are the state it started
    # from: a step from them proposes that iteration's rows again, and
    # writes no file; all the rows are the state the pending batch started
    # from
    d, again = tmp_path / "camp", tmp_path / "again.csv"
    if mode == "embedded":
        assert main(_run_args(d, ["--iters", "4"])) == EXIT_OK
    else:
        assert main(["init", "--config", str(_config(tmp_path)),
                     "--dir", str(d)]) == EXIT_OK
        for i in range(5):
            if i:
                assert main(["propose", "--dir", str(d)]) == EXIT_OK
            _answer(d / f"proposals_iter{i}.csv", d / f"r{i}.csv", seed=i)
            assert main(["ingest", str(d / f"r{i}.csv"), "--dir", str(d)]) == EXIT_OK
        assert main(["propose", "--dir", str(d)]) == EXIT_OK
    state = load_state(d / "state.json")
    tags = [obs.tag for obs in state.dataset]
    assert state.iteration == 4
    assert len(state.pending) == (0 if mode == "embedded" else 2)
    files = {p: p.read_bytes() for p in d.iterdir()}
    for i in range(1, state.batch + bool(state.pending)):    # and the pending batch
        issued = [obs.x for obs in state.dataset if obs.tag == f"bo_iter_{i}"]
        start = tags.index(f"bo_iter_{i}") if issued else len(tags)
        prefix = Dataset(space=state.space)
        prefix.append(*state.dataset.rows[:start])
        before = dataclasses.replace(state, dataset=prefix, pending=[])
        assert before.iteration == i - 1
        after = step(before)
        assert {p: p.read_bytes() for p in d.iterdir()} == files
        xs = ([obs.x for obs in after.dataset.rows[start:]] if mode == "embedded"
              else [x for _, x in after.pending])
        assert sorted(xs) == sorted(issued or [x for _, x in state.pending])
        if mode == "asktell":
            write_proposals(again, after.space, after.pending)
            assert again.read_bytes() == (d / f"proposals_iter{i}.csv").read_bytes()


@pytest.mark.parametrize("content", [
    b"id,k,v_mag\nwrong_id,1.0,2.0\n",
    b"id,k,v_mag\n" + b"x" * 131_073 + b",1.0,2.0\n",   # over csv's field limit
    b"\xff\xfe",                                         # not UTF-8
], ids=["wrong_id", "huge_field", "invalid_utf8"])
def test_ingest_mismatched_ids_is_protocol_error(tmp_path, capsys, content):
    cfg = _config(tmp_path)
    d = tmp_path / "camp"
    main(["init", "--config", str(cfg), "--dir", str(d)])
    bad = d / "bad.csv"
    bad.write_bytes(content)
    before = (d / "state.json").read_bytes()
    assert main(["ingest", str(bad), "--dir", str(d)]) == EXIT_PROTOCOL
    assert "Traceback" not in capsys.readouterr().err
    assert (d / "state.json").read_bytes() == before


_DEEP_JSON = b"[" * 100_000 + b"]" * 100_000


def _with_huge_int(path, key):
    """The JSON file at ``path`` with ``key`` an integer literal of 5,000
    digits, past the limit of Python's int parser: ``json.load`` raises a
    plain ValueError."""
    text = json.dumps({**json.loads(path.read_text()), key: 0})
    return text.replace(f'"{key}": 0', f'"{key}": {"9" * 5000}').encode()


@pytest.mark.parametrize("command", ["report", "init"])
def test_deeply_nested_json_gets_its_exit_code(tmp_path, capsys, command):
    # and a too-long integer literal: either fails inside json.load
    cfg, d = _config(tmp_path), tmp_path / "camp"
    if command == "report":
        main(["init", "--config", str(cfg), "--dir", str(d)])
        path, key, code = d / "state.json", "rng_seed", EXIT_IO
        argv = ["report", "--dir", str(d)]
    else:
        path, key, code = cfg, "seed", EXIT_USAGE
        argv = ["init", "--config", str(cfg), "--dir", str(d)]
    for document in (_DEEP_JSON, _with_huge_int(path, key)):
        path.write_bytes(document)
        capsys.readouterr()
        assert main(argv) == code
        assert "Traceback" not in capsys.readouterr().err
        assert path.read_bytes() == document
        assert command == "report" or not (d / "state.json").exists()


def test_report_on_fresh_external_init(tmp_path, capsys):
    cfg = _config(tmp_path)
    d = tmp_path / "camp"
    main(["init", "--config", str(cfg), "--dir", str(d)])
    _answer(d / "proposals_iter0.csv", d / "r0.csv")
    main(["ingest", str(d / "r0.csv"), "--dir", str(d)])
    capsys.readouterr()
    assert main(["report", "--dir", str(d)]) == EXIT_OK
    with open(d / "table.csv") as f:
        rows = list(csv.reader(f))
    assert [r[0] for r in rows[1:]] == ["doe"]


def test_env_var_campaign_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CHAMBEROPT_DIR", str(tmp_path))
    args = _run_args(tmp_path)
    assert main(args[:1] + args[3:]) == EXIT_OK      # no --dir flag
    assert (tmp_path / "state.json").exists()


def _doe_ingested(tmp_path):
    """External campaign directory with its DOE results ingested."""
    d = tmp_path / "camp"
    main(["init", "--config", str(_config(tmp_path)), "--dir", str(d)])
    _answer(d / "proposals_iter0.csv", d / "r0.csv")
    assert main(["ingest", str(d / "r0.csv"), "--dir", str(d)]) == EXIT_OK
    return d


@pytest.mark.parametrize("command", ["init", "run"])
def test_new_campaign_refuses_a_live_one(tmp_path, capsys, command):
    d = _doe_ingested(tmp_path)
    assert main(["propose", "--dir", str(d)]) == EXIT_OK
    before = {p: p.read_bytes() for p in d.iterdir()}
    capsys.readouterr()
    args = (["init", "--config", str(_config(tmp_path)), "--dir", str(d)]
            if command == "init" else _run_args(d))
    assert main(args) == EXIT_STATE
    err = capsys.readouterr().err
    assert "state.json" in err and "Traceback" not in err
    assert {p: p.read_bytes() for p in d.iterdir()} == before


def _edit_state(d, edit):
    doc = json.loads((d / "state.json").read_text())
    edit(doc)
    (d / "state.json").write_text(json.dumps(doc, indent=1))
    return (d / "state.json").read_bytes()


def _out_of_bounds(doc):
    doc["dataset"][1]["x"][0] = 1e6


def _duplicate_row(doc):
    doc["dataset"].append(dict(doc["dataset"][0]))


def _nan_k(doc):
    doc["dataset"][2]["k"] = float("nan")


def _as_old_version(version, kind="cei", tol=1e-6, sweeps=200):
    """Edit a current state file into the given older version's layout."""
    def edit(doc):
        assert doc["version"] == 8 and "iteration" not in doc
        doc["version"] = version
        # versions 1-7 stored the count of bo_iter_ stages
        doc["iteration"] = len({r["tag"] for r in doc["dataset"]
                                if r["tag"].startswith("bo_iter_")})
        if version <= 6:
            # version 6 refused a NaN here; version 7 never reads the key
            doc.update(fitted_hyper_k={"lengthscales": [0.5, 0.5, 0.5],
                                       "signal_variance": float("nan"),
                                       "noise_std": 0.005},
                       fitted_hyper_v=None)
        if version < 6:
            doc["budget"]["max_iters_per_restart"] = sweeps
        if version < 5:
            doc["doe_n"] = 4
            doc["budget"]["convergence_tol"] = tol
        if version < 4:
            doc.update(lhs_midpoint=False,
                       fitted_standardize_k={"center": 1.0, "scale": 2.0},
                       fitted_standardize_v={"center": 0.0, "scale": 3.0})
        if version < 3:
            doc["acq"] = {"kind": kind, **doc["acq"], "ucb_beta": 2.0}
        if version == 1:
            doc.update(kernel_nu=2.5, sampler="sobol-scrambled")
    return edit


def _removed_ucb_kind(doc):
    _as_old_version(2, kind="ucb")(doc)


def _boolean_k(doc):
    doc["dataset"][0]["k"] = True


def _boolean_v(doc):
    doc["dataset"][1]["v"] = False


def _int_tag(doc):
    doc["dataset"][2]["tag"] = 5


def _boolean_coordinate(doc):
    # true is 1.0 to Python, which lies inside d_bore's [0.75, 1.15]
    doc["dataset"][3]["x"][1] = True


def _huge_int_k(doc):
    doc["dataset"][0]["k"] = int("9" * 400)


def _nan_coordinate(doc):
    doc["dataset"][1]["x"][0] = float("nan")


# a state file and a config hold the space in the same layout
def _string_lower(doc):
    doc["space"][0]["lower"] = "8.0"


def _integer_name(doc):
    doc["space"][2]["name"] = 3


def _overflowing_span(doc):
    # each bound is finite, but upper - lower is inf
    doc["space"][0].update(lower=-1e308, upper=1e308)


def _iter_hand_tag(doc):
    # by hand, "iter1" would print as the stage of the program's bo_iter_1
    del doc["dataset"][3:]
    for r, tag in zip(doc["dataset"], ["bo_iter_1", "iter1", "doe"]):
        r["tag"] = tag


def _skipped_iteration_tag(doc):
    # the stage after the DOE is iteration 1, so its tag is bo_iter_1
    doc["dataset"][-1]["tag"] = "bo_iter_2"


def _huge_mc_samples(doc):
    # beyond numpy's index range: refused at load, not after the fits
    doc["acq"]["mc_samples"] = 10**400


@pytest.mark.parametrize("corrupt", [_out_of_bounds, _duplicate_row, _nan_k,
                                     _removed_ucb_kind, _boolean_k, _boolean_v,
                                     _int_tag, _boolean_coordinate,
                                     _huge_int_k, _nan_coordinate, _string_lower,
                                     _integer_name, _overflowing_span,
                                     _huge_mc_samples, _iter_hand_tag,
                                     _skipped_iteration_tag])
def test_corrupt_state_row_is_io_error(tmp_path, capsys, corrupt):
    d = _doe_ingested(tmp_path)
    before = _edit_state(d, corrupt)
    capsys.readouterr()
    assert main(["report", "--dir", str(d)]) == EXIT_IO
    err = capsys.readouterr().err
    assert "I/O error" in err and "Traceback" not in err
    if corrupt in (_boolean_k, _boolean_v, _int_tag, _boolean_coordinate,
                   _out_of_bounds, _duplicate_row, _nan_k, _nan_coordinate):
        assert "dataset[" in err
    if corrupt is _iter_hand_tag:
        assert "dataset[1]: tag 'iter1'" in err
    if corrupt is _skipped_iteration_tag:
        assert "dataset[3]: tag 'bo_iter_2' starts BO iteration 1" in err
    if corrupt is _duplicate_row:
        last = len(json.loads(before)["dataset"]) - 1
        assert f"dataset[{last}]: duplicate" in err and "(matches dataset[0])" in err
    assert (d / "state.json").read_bytes() == before


def test_ingest_refuses_a_batch_that_repeats_a_row(tmp_path, capsys):
    # refused when the state loads, before the batch is evaluated, by every
    # command that loads it
    d = _doe_ingested(tmp_path)
    _edit_state(d, lambda doc: doc["acq"].update(batch_size=3))
    assert main(["propose", "--dir", str(d)]) == EXIT_OK
    _answer(d / "proposals_iter1.csv", d / "r1.csv")

    for source, match in ((lambda doc: doc["dataset"][1], "dataset[1]"),
                          (lambda doc: doc["pending"][0], "pending[0]")):
        before = _edit_state(
            d, lambda doc: doc["pending"][2].update(x=source(doc)["x"]))
        for command in (["ingest", str(d / "r1.csv")], ["propose"], ["report"]):
            capsys.readouterr()
            assert main(command + ["--dir", str(d)]) == EXIT_IO
            err = capsys.readouterr().err
            assert "pending[2]: duplicate design point" in err
            assert f"(matches {match})" in err and "Traceback" not in err
            assert (d / "state.json").read_bytes() == before


def _no_state(d):
    (d / "state.json").unlink()


def _pending_batch(d):
    assert main(["propose", "--dir", str(d)]) == EXIT_OK


def _proposals_path_is_a_directory(d):
    (d / "proposals_iter1.csv").mkdir()


def _one_row(d):
    _edit_state(d, lambda doc: doc.update(dataset=doc["dataset"][:1]))


@pytest.mark.parametrize("command, prepare, code, message", [
    ("propose", _no_state, EXIT_IO, "cannot read state file"),
    ("ingest", _pending_batch, EXIT_PROTOCOL, "cannot read results file"),
    ("propose", _proposals_path_is_a_directory, EXIT_IO,
     "cannot write proposals file"),
    ("propose", _one_row, EXIT_STATE, "need at least 2 observations"),
    ("slices", _one_row, EXIT_STATE, "need at least 2 observations"),
], ids=["propose-no-state", "ingest-no-results", "propose-proposals-dir",
        "propose-one-row", "slices-one-row"])
def test_failed_command_prints_one_line_and_keeps_the_state(
        tmp_path, capsys, command, prepare, code, message):
    d = _doe_ingested(tmp_path)
    prepare(d)
    before = {p: p.read_bytes() for p in d.iterdir() if p.is_file()}
    argv = [command, "--dir", str(d)]
    if command == "ingest":
        argv.insert(1, str(d / "no_results.csv"))
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1 and "Traceback" not in err
    assert {p: p.read_bytes() for p in d.iterdir() if p.is_file()} == before


def test_out_of_memory_is_numeric_error(tmp_path, capsys, monkeypatch):
    d = _doe_ingested(tmp_path)
    before = (d / "state.json").read_bytes()

    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 8.00 TiB for an array")

    monkeypatch.setattr(chamberopt.campaign, "propose_batch", no_memory)
    capsys.readouterr()
    assert main(["propose", "--dir", str(d)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "out of memory" in err and "Traceback" not in err
    assert (d / "state.json").read_bytes() == before


@pytest.mark.parametrize("error, code, prefix", [
    (ValueError, EXIT_USAGE, "usage error: "),
    (BoundsViolationError, EXIT_USAGE, "usage error: "),
    (ProtocolError, EXIT_PROTOCOL, "protocol error: "),
    (DataError, EXIT_PROTOCOL, "protocol error: "),
    (NumericError, EXIT_NUMERIC, "numeric error: "),
    (DegenerateDataError, EXIT_NUMERIC, "numeric error: "),
    (MemoryError, EXIT_NUMERIC, "numeric error: out of memory: "),
    (OSError, EXIT_IO, "I/O error: "),
    (StateFileError, EXIT_IO, "I/O error: "),
    (InvalidStateError, EXIT_STATE, "invalid state: "),
])
def test_each_error_family_has_one_exit_code(tmp_path, capsys, monkeypatch,
                                             error, code, prefix):
    def fail(*args, **kwargs):
        raise error("raised inside the command")

    monkeypatch.setattr(chamberopt.campaign, "load_state", fail)
    assert main(["report", "--dir", str(tmp_path)]) == code
    assert capsys.readouterr().err == prefix + "raised inside the command\n"


def test_results_that_overflow_when_standardized_are_numeric_error(tmp_path, capsys):
    # every value is finite, so ingest takes them, but their std overflows
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"space": QUADRATIC_SPACE.to_config(), "doe_n": 4}))
    d = tmp_path / "camp"
    assert main(["init", "--config", str(cfg), "--dir", str(d)]) == EXIT_OK
    proposals = read_proposals(d / "proposals_iter0.csv", QUADRATIC_SPACE)
    with open(d / "r0.csv", "w") as f:
        f.write("id,k,v_mag\n")
        for (pid, _), k in zip(proposals, ["1e300", "-1e300", "1", "2"]):
            f.write(f"{pid},{k},0.5\n")
    assert main(["ingest", str(d / "r0.csv"), "--dir", str(d)]) == EXIT_OK
    before = (d / "state.json").read_bytes()
    capsys.readouterr()
    assert main(["propose", "--dir", str(d)]) == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric error: the objective values overflow")
    assert "Warning" not in err and "Traceback" not in err
    assert (d / "state.json").read_bytes() == before
    assert not (d / "proposals_iter1.csv").exists()


def test_proposal_at_a_rounding_upper_bound_is_written_at_it(tmp_path, capsys):
    # lower + 1 * (upper - lower) is 105.13100000000001 here, which ingest
    # and propose would refuse as outside the bounds on every retry
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "space": [{"name": "x1", "lower": -29.55, "upper": 105.131},
                  {"name": "x2", "lower": 0, "upper": 1}],
        "acq": {"batch_size": 2, "mc_samples": 64},
        "budget": {"raw_samples": 16, "restarts": 2}, "doe_n": 4}))
    d = tmp_path / "camp"
    assert main(["init", "--config", str(cfg), "--dir", str(d)]) == EXIT_OK
    for i in range(4):
        if i:
            assert main(["propose", "--dir", str(d)]) == EXIT_OK
        with open(d / f"proposals_iter{i}.csv", newline="") as f:
            rows = list(csv.reader(f))[1:]
        (d / f"r{i}.csv").write_text(            # k = x1: the optimum is at the bound
            "id,k,v_mag\n" + "".join(f"{r[0]},{r[1]},0.5\n" for r in rows))
        assert main(["ingest", str(d / f"r{i}.csv"), "--dir", str(d)]) == EXIT_OK
    assert max(obs.x[0] for obs in load_state(d / "state.json").dataset) == 105.131


def test_init_threshold_defaults_to_the_embedded_evaluator_own(tmp_path, capsys):
    path = _config(tmp_path, "quadratic")
    cfg = json.loads(path.read_text())
    cfg["space"] = QUADRATIC_SPACE.to_config()
    for given, stored in ((None, 1.0), (1.5, 1.5)):
        if given is None:
            del cfg["acq"]["constraint_threshold"]
        else:
            cfg["acq"]["constraint_threshold"] = given
        path.write_text(json.dumps(cfg))
        d = tmp_path / f"camp_{given}"
        assert main(["init", "--config", str(path), "--dir", str(d)]) == EXIT_OK
        assert load_state(d / "state.json").acq.constraint_threshold == stored


def test_embedded_propose_reports_the_evaluated_iteration(tmp_path, capsys):
    d = tmp_path / "camp"
    assert main(["init", "--config", str(_config(tmp_path, "proxy")),
                 "--dir", str(d)]) == EXIT_OK
    capsys.readouterr()
    assert main(["propose", "--dir", str(d)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "wrote" not in out and "evaluated iteration 1" in out
    assert sorted(p.name for p in d.iterdir()) == ["state.json"]


def _no_space(cfg):
    del cfg["space"]


def _unknown_acq_key(cfg):
    cfg["acq"]["bogus"] = 1


def _unknown_budget_key(cfg):
    cfg["budget"]["bogus"] = 1


def _dimension_without_upper(cfg):
    del cfg["space"][1]["upper"]


def _string_doe_size(cfg):
    cfg["doe_n"] = "4"


def _boolean_doe_size(cfg):
    cfg["doe_n"] = True


def _boolean_seed(cfg):
    cfg["seed"] = True


def _negative_seed(cfg):
    cfg["seed"] = -1


def _boolean_mc_samples(cfg):
    cfg["acq"]["mc_samples"] = True


def _boolean_restarts(cfg):
    cfg["budget"]["restarts"] = True


def _boolean_threshold(cfg):
    cfg["acq"]["constraint_threshold"] = True


def _string_threshold(cfg):
    cfg["acq"]["constraint_threshold"] = "25"


def _nan_threshold(cfg):
    cfg["acq"]["constraint_threshold"] = float("nan")


# budget.convergence_tol has been removed: init refuses the key whatever
# its value, the 1e-6 every campaign used included
def _fixed_tol(cfg):
    cfg["budget"]["convergence_tol"] = 1e-6


def _boolean_tol(cfg):
    cfg["budget"]["convergence_tol"] = True


def _string_tol(cfg):
    cfg["budget"]["convergence_tol"] = "1e-6"


def _nan_tol(cfg):
    cfg["budget"]["convergence_tol"] = float("nan")


def _lhs_midpoint(cfg):
    cfg["lhs_midpoint"] = True


def _unknown_top_level_key(cfg):
    cfg["bogus"] = 1


def _top_level_list(cfg):
    return [cfg]


def _unknown_evaluator(cfg):
    cfg["evaluator"] = "bogus"


def _null_lower(cfg):
    cfg["space"][1]["lower"] = None


def _list_lower(cfg):
    cfg["space"][1]["lower"] = [0]


def _acq_kind(cfg):
    cfg["acq"]["kind"] = "cei"


def _boolean_upper(cfg):
    cfg["space"][1].update(lower=0, upper=True)


def _huge_raw_samples(cfg):
    cfg["budget"]["raw_samples"] = 10**400


def _quadratic_on_the_prechamber_space(cfg):
    cfg["evaluator"] = "quadratic"


def _quadratic_on_renamed_dimensions(cfg):
    cfg["evaluator"] = "quadratic"
    cfg["space"] = [{"name": name, "lower": 0, "upper": 1} for name in "ab"]


@pytest.mark.parametrize("edit, field", [
    (_no_space, "space"),
    (_unknown_acq_key, "acq"),
    (_unknown_budget_key, "budget"),
    (_dimension_without_upper, "upper"),
    (_string_doe_size, "doe_n"),
    (_boolean_doe_size, "doe_n"),
    (_boolean_seed, "seed"),
    (_negative_seed, "seed"),
    (_boolean_mc_samples, "mc_samples"),
    (_boolean_restarts, "restarts"),
    (_boolean_threshold, "constraint_threshold"),
    (_string_threshold, "constraint_threshold"),
    (_nan_threshold, "constraint_threshold"),
    (_boolean_tol, "convergence_tol"),
    (_string_tol, "convergence_tol"),
    (_nan_tol, "convergence_tol"),
    (_fixed_tol, "convergence_tol"),
    (_lhs_midpoint, "lhs_midpoint"),
    (_unknown_top_level_key, "bogus"),
    (_top_level_list, "JSON object"),
    (_unknown_evaluator, "evaluator"),
    (_null_lower, "space[1]"),
    (_list_lower, "space[1]"),
    (_acq_kind, "kind"),
    (_string_lower, "space[0].lower"),
    (_boolean_upper, "space[1].upper"),
    (_integer_name, "space[2].name"),
    (_overflowing_span, "space[0]"),
    (_huge_raw_samples, "raw_samples"),
    (_quadratic_on_the_prechamber_space, "space"),
    (_quadratic_on_renamed_dimensions, "space"),
])
def test_malformed_init_config_is_usage_error(tmp_path, capsys, edit, field):
    path = _config(tmp_path)
    cfg = json.loads(path.read_text())
    cfg = edit(cfg) or cfg
    path.write_text(json.dumps(cfg))
    d = tmp_path / "camp"
    assert main(["init", "--config", str(path), "--dir", str(d)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err and "Warning" not in err
    assert not (d / "state.json").exists()


@pytest.mark.parametrize("version", [1, 2, 3, 4, 6, 7])
def test_old_state_version_resumes_like_current(tmp_path, capsys, version):
    # a state past its first iteration
    current = _doe_ingested(tmp_path)
    assert main(["propose", "--dir", str(current)]) == EXIT_OK
    _answer(current / "proposals_iter1.csv", current / "r1.csv")
    assert main(["ingest", str(current / "r1.csv"),
                 "--dir", str(current)]) == EXIT_OK
    old = tmp_path / "camp_old"
    shutil.copytree(current, old)
    _edit_state(old, _as_old_version(version))
    assert json.loads((old / "state.json").read_text())["iteration"] == 1
    state = load_state(old / "state.json")
    assert len(state.dataset) == 6 and state.iteration == 1
    for d in (old, current):
        assert main(["propose", "--dir", str(d)]) == EXIT_OK
    assert ((old / "proposals_iter2.csv").read_bytes()
            == (current / "proposals_iter2.csv").read_bytes())
    doc = json.loads((old / "state.json").read_text())
    assert doc == json.loads((current / "state.json").read_text())
    assert doc["version"] == STATE_VERSION and "kind" not in doc["acq"]
    assert "iteration" not in doc
    assert "lhs_midpoint" not in doc and "fitted_standardize_k" not in doc
    assert "doe_n" not in doc and "convergence_tol" not in doc["budget"]
    assert "max_iters_per_restart" not in doc["budget"]
    assert not any(key.startswith("fitted_hyper_") for key in doc)


def test_old_state_with_other_tolerance_is_io_error(tmp_path, capsys):
    d = _doe_ingested(tmp_path)
    before = _edit_state(d, _as_old_version(4, tol=1e-3))
    capsys.readouterr()
    assert main(["propose", "--dir", str(d)]) == EXIT_IO
    err = capsys.readouterr().err
    assert "convergence_tol" in err and "Traceback" not in err
    assert (d / "state.json").read_bytes() == before


def test_version_5_state_resumes_only_at_the_fixed_sweep_cap(tmp_path, capsys):
    current = _doe_ingested(tmp_path)
    old = tmp_path / "camp_old"
    shutil.copytree(current, old)
    _edit_state(old, _as_old_version(5))
    assert load_state(old / "state.json").budget == load_state(
        current / "state.json").budget
    before = _edit_state(current, _as_old_version(5, sweeps=50))
    capsys.readouterr()
    assert main(["propose", "--dir", str(current)]) == EXIT_IO
    err = capsys.readouterr().err
    assert "budget.max_iters_per_restart" in err and "Traceback" not in err
    assert (current / "state.json").read_bytes() == before


@pytest.mark.parametrize("version, section, field", [
    (2, "acq", "foo"),                          # an extra field
    (2, "acq", "ucb_beta"),                     # a field that version wrote
    (4, "budget", "convergence_tol"),
    (5, "budget", "max_iters_per_restart"),
    (7, "acq", "foo"),
])
def test_old_section_holds_exactly_the_fields_its_version_wrote(
        tmp_path, capsys, version, section, field):
    # the field is deleted if that version wrote it, else added
    def edit(doc):
        _as_old_version(version)(doc)
        if doc[section].pop(field, None) is None:
            doc[section][field] = 1.0

    d = _doe_ingested(tmp_path)
    before = _edit_state(d, edit)
    capsys.readouterr()
    assert main(["propose", "--dir", str(d)]) == EXIT_IO
    err = capsys.readouterr().err
    assert repr(section) in err and repr(field) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert (d / "state.json").read_bytes() == before


def _int_id(doc):
    doc["pending"][0]["id"] = 5


def _duplicate_id(doc):
    doc["pending"][1]["id"] = doc["pending"][0]["id"]


def _short_x(doc):
    del doc["pending"][0]["x"][-1]


def _string_coordinate(doc):
    doc["pending"][0]["x"][0] = str(doc["pending"][0]["x"][0])


def _out_of_bounds_x(doc):
    doc["pending"][0]["x"][0] = 1e6


@pytest.mark.parametrize("corrupt, field", [
    (_int_id, "pending[0]"),
    (_duplicate_id, "pending[1]"),
    (_short_x, "pending[0]"),
    (_string_coordinate, "pending[0]"),
    (_out_of_bounds_x, "pending[0]"),
])
def test_corrupt_pending_entry_is_io_error(tmp_path, capsys, corrupt, field):
    d = tmp_path / "camp"
    main(["init", "--config", str(_config(tmp_path)), "--dir", str(d)])
    _answer(d / "proposals_iter0.csv", d / "r0.csv")
    before = _edit_state(d, corrupt)
    capsys.readouterr()
    assert main(["ingest", str(d / "r0.csv"), "--dir", str(d)]) == EXIT_IO
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert (d / "state.json").read_bytes() == before


@pytest.mark.parametrize("command, field, value", [
    ("propose", "rng_seed", "s"),
    ("propose", "rng_seed", -3),
    ("propose", "rng_seed", False),
    ("propose", "rng_seed", None),
    ("propose", "evaluator", 7),
    pytest.param("propose", "evaluator", ["proxy"], id="propose-evaluator-value9"),
    ("propose", "evaluator", "bogus"),
    pytest.param("propose", "rng_seed", 10**400, id="propose-rng_seed-10**400"),
    ("report", "version", True),
    ("report", "version", 1.0),
    ("report", "version", 7.0),
    # a section holds every field save_state writes: no default is filled in
    pytest.param("report", "acq", {}, id="report-acq-empty"),
    pytest.param("propose", "acq", {"constraint_threshold": 25.0},
                 id="propose-acq-threshold-only"),
    pytest.param("report", "acq", [], id="report-acq-list"),
    pytest.param("report", "budget", [], id="report-budget-list"),
    pytest.param("report", "budget", [["raw_samples", 16], ["restarts", 2]],
                 id="report-budget-pairs"),
    pytest.param("propose", "budget", {"restarts": 2},
                 id="propose-budget-restarts-only"),
    pytest.param("report", "dataset", {}, id="report-dataset-empty-object"),
    pytest.param("report", "pending", {}, id="report-pending-empty-object"),
])
def test_mistyped_state_scalar_is_io_error(tmp_path, capsys, command, field,
                                           value):
    d = _doe_ingested(tmp_path)
    before = _edit_state(d, lambda doc: doc.update({field: value}))
    capsys.readouterr()
    assert main([command, "--dir", str(d)]) == EXIT_IO
    err = capsys.readouterr().err
    assert repr(field) in err and "Traceback" not in err
    assert (d / "state.json").read_bytes() == before


def test_state_of_a_builtin_evaluator_on_another_space_is_io_error(tmp_path,
                                                                  capsys):
    # only the names differ from the quadratic's own space
    d = tmp_path / "camp"
    assert main(["run", "--evaluator", "quadratic", "--iters", "0", "--doe", "4",
                 "--dir", str(d)]) == EXIT_OK
    before = _edit_state(d, lambda doc: [dim.update(name=name) for dim, name
                                         in zip(doc["space"], "ab")])
    for command in ("propose", "report"):
        capsys.readouterr()
        assert main([command, "--dir", str(d)]) == EXIT_IO
        err = capsys.readouterr().err
        assert "'space'" in err and "'quadratic'" in err and "Traceback" not in err
        assert (d / "state.json").read_bytes() == before


def test_commands_sync_what_they_wrote_before_exit_0(tmp_path, capsys,
                                                     monkeypatch):
    # a directory that init or run creates, through its parent; then each
    # file it writes (the proposals CSV, state.json, the tables, the slice
    # grids) through its temp file, each followed by the directory that
    # holds the rename
    synced, real_fsync = [], os.fsync

    def fsync(fd):
        synced.append((os.fstat(fd).st_dev, os.fstat(fd).st_ino))
        real_fsync(fd)

    def synced_since(*paths):
        files = [(os.stat(p).st_dev, os.stat(p).st_ino) for p in paths]
        got = synced[:]
        synced.clear()
        return got == files

    monkeypatch.setattr(os, "fsync", fsync)
    d = tmp_path / "camp"
    assert main(["init", "--config", str(_config(tmp_path)), "--dir", str(d)]) == EXIT_OK
    assert synced_since(tmp_path, d / "proposals_iter0.csv", d,
                        d / "state.json", d)
    _answer(d / "proposals_iter0.csv", d / "r0.csv")
    assert main(["ingest", str(d / "r0.csv"), "--dir", str(d)]) == EXIT_OK
    assert synced_since(d / "state.json", d)
    assert main(["propose", "--dir", str(d)]) == EXIT_OK
    assert synced_since(d / "proposals_iter1.csv", d, d / "state.json", d)
    r = tmp_path / "run"
    assert main(_run_args(r)) == EXIT_OK
    assert synced_since(tmp_path, r / "state.json", r, r / "table.csv", r,
                        r / "table_batch.csv", r)
    assert main(["report", "--dir", str(r)]) == EXIT_OK
    assert synced_since(r / "table.csv", r, r / "table_batch.csv", r)
    assert main(["slices", "--dir", str(r), "--resolution", "3"]) == EXIT_OK
    assert synced_since(*(p for dim in PRECHAMBER_SPACE.names for col in
                          ("mean", "std") for p in (r / f"slice_{dim}_{col}.csv", r)),
                        r / "slice_markers.csv", r)
    # missing ancestors too, top-down, each through its parent
    a, c = tmp_path / "a", tmp_path / "a" / "b" / "camp"
    assert main(["init", "--config", str(_config(tmp_path)), "--dir", str(c)]) == EXIT_OK
    assert synced_since(tmp_path, a, a / "b", c / "proposals_iter0.csv", c,
                        c / "state.json", c)


def test_unknown_state_version_is_io_error(tmp_path, capsys):
    d = _doe_ingested(tmp_path)
    bad = STATE_VERSION + 1
    before = _edit_state(d, lambda doc: doc.update(version=bad))
    assert main(["report", "--dir", str(d)]) == EXIT_IO
    assert f"version {bad}" in capsys.readouterr().err
    assert (d / "state.json").read_bytes() == before


_HOSTILE = [float("nan"), float("inf"), float("-inf"), True, "1", None, [], {},
            -1, int("9" * 400)]


def _nodes(node, path=()):
    """The paths to the values of a JSON document, whole objects and lists
    as well as scalars: every node but the root."""
    if not isinstance(node, (dict, list)):
        return []
    items = node.items() if isinstance(node, dict) else enumerate(node)
    return [p for key, value in items
            for p in [path + (key,)] + _nodes(value, path + (key,))]


def _hostile_edit(draw, doc, values):
    """Delete a node of the JSON document ``doc``, or replace it by one of
    ``values``, in place."""
    *path, key = draw(st.sampled_from(_nodes(doc)))
    owner = doc
    for step in path:
        owner = owner[step]
    if draw(st.booleans()):
        del owner[key]
    else:
        owner[key] = draw(st.sampled_from(values))


@pytest.fixture(scope="module")
def valid_states(tmp_path_factory):
    """A state with data, fitted hyperparameters and pending proposals, and
    the state after their results are ingested."""
    d = _doe_ingested(tmp_path_factory.mktemp("valid"))
    assert main(["propose", "--dir", str(d)]) == EXIT_OK
    pending = json.loads((d / "state.json").read_text())
    _answer(d / "proposals_iter1.csv", d / "r1.csv")
    assert main(["ingest", str(d / "r1.csv"), "--dir", str(d)]) == EXIT_OK
    return [pending, json.loads((d / "state.json").read_text())]


@settings(derandomize=True, max_examples=1000, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_hostile_state_value_loads_valid_or_is_io_error(tmp_path, capsys,
                                                        valid_states, data):
    doc = copy.deepcopy(data.draw(st.sampled_from(valid_states)))
    _hostile_edit(data.draw, doc, _HOSTILE)
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(doc))
    before = state_path.read_bytes()
    try:
        state = load_state(state_path)
    except StateFileError:
        state = None
    else:
        for x in [r.x for r in state.dataset] + [x for _, x in state.pending]:
            assert np.isfinite(x).all()
            state.space.to_unit(x)          # raises outside the bounds
        save_state(state, tmp_path / "back.json")
        back = json.loads((tmp_path / "back.json").read_text())
        json.dumps(back, allow_nan=False)
        assert back == doc      # a state loads as it is written or not at all
    capsys.readouterr()
    code = main(["report", "--dir", str(tmp_path)])
    err = capsys.readouterr().err
    # a campaign with no rows yet has no table to report
    assert code == (EXIT_IO if state is None else
                    EXIT_STATE if len(state.dataset) == 0 else EXIT_OK)
    assert "Traceback" not in err
    assert state_path.read_bytes() == before


# decimal bounds, the pair whose span rounds past the upper bound, and
# bounds whose span overflows
_CONFIG_BOUNDS = st.one_of(st.integers(-10**6, 10**6).map(lambda i: i / 1000),
                           st.sampled_from([-29.55, 105.131, -1e308, 1e308]))


@st.composite
def _init_configs(draw):
    """A valid init config on 1-3 generated dimensions with up to two nodes
    deleted or replaced by a wrong type or value, and maybe an unknown key."""
    bounds = draw(st.lists(st.tuples(_CONFIG_BOUNDS, _CONFIG_BOUNDS),
                           min_size=1, max_size=3))
    cfg = {"space": [{"name": f"x{i}", "lower": min(b), "upper": max(b)}
                     for i, b in enumerate(bounds)],
           "acq": {"constraint_threshold": 25.0, "batch_size": 2,
                   "mc_samples": 64},
           "budget": {"raw_samples": 16, "restarts": 2},
           "doe_n": 4, "seed": 3, "evaluator": "external"}
    for _ in range(draw(st.integers(0, 2))):
        _hostile_edit(draw, cfg, _HOSTILE + [0, 2, 2**63, "external", "proxy"])
    if draw(st.integers(0, 3)) == 0:
        draw(st.sampled_from([n for n in (cfg, cfg.get("acq"), cfg.get("budget"))
                              if isinstance(n, dict)]))["bogus"] = 1
    return cfg


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_init_configs())
def test_generated_init_config_starts_a_campaign_or_is_usage_error(
        tmp_path, capsys, cfg):
    path, d = tmp_path / "config.json", tmp_path / "camp"
    shutil.rmtree(d, ignore_errors=True)
    path.write_text(json.dumps(cfg))
    capsys.readouterr()
    code = main(["init", "--config", str(path), "--dir", str(d)])
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_USAGE)
    assert "Traceback" not in err and "Warning" not in err
    if code == EXIT_USAGE:
        assert err.startswith("usage error: ") and not d.exists()
    else:
        state = load_state(d / "state.json")
        assert state.space.to_config() == cfg["space"]
        assert len(state.dataset) + len(state.pending) == cfg.get("doe_n", 10)


@pytest.fixture(scope="module")
def pending_state(tmp_path_factory):
    """The state.json bytes of a campaign awaiting two results, and those results."""
    d = _doe_ingested(tmp_path_factory.mktemp("pending"))
    assert main(["propose", "--dir", str(d)]) == EXIT_OK
    _answer(d / "proposals_iter1.csv", d / "r1.csv")
    with open(d / "r1.csv", newline="") as f:
        results = list(csv.reader(f))[1:]
    return (d / "state.json").read_bytes(), results


_RESULT_VALUES = ["1.5", "-3", "0", "1e308", "1e400", "nan", "inf", "-inf",
                  "abc", "", " 2", "0x10"]


@st.composite
def _results_csvs(draw, results):
    """Results-file text around the valid ``results`` rows: ids shuffled,
    missing, repeated or unknown; values non-finite or not numbers; extra
    columns; or no content at all."""
    if draw(st.integers(0, 19)) == 0:
        return ""
    rows = draw(st.permutations(results))
    rows = rows[:draw(st.integers(0, len(rows)))] + draw(st.lists(
        st.sampled_from(results + [["iter1_2", "1", "2"], ["iter0_0", "1", "2"],
                                   ["bogus", "1", "2"]]), max_size=2))
    rows = [list(r) for r in draw(st.permutations(rows))]
    for r in rows:
        for j in (1, 2):
            if draw(st.integers(0, 5)) == 0:
                r[j] = draw(st.sampled_from(_RESULT_VALUES))
        if draw(st.integers(0, 9)) == 0:
            r.append("extra")
    # the valid header half the time
    header = draw(st.sampled_from(["id,k,v_mag", "id,k,v_mag", "id,k,v_mag,note",
                                   "k,id,v_mag"]))
    return "\n".join([header] + [",".join(r) for r in rows]) + "\n"


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fuzzed_results_csv_ingests_whole_or_is_protocol_error(
        tmp_path, capsys, pending_state, data):
    state_bytes, results = pending_state
    (tmp_path / "state.json").write_bytes(state_bytes)
    (tmp_path / "r.csv").write_text(data.draw(_results_csvs(results)))
    capsys.readouterr()
    code = main(["ingest", str(tmp_path / "r.csv"), "--dir", str(tmp_path)])
    assert code in (EXIT_OK, EXIT_PROTOCOL)
    assert "Traceback" not in capsys.readouterr().err
    if code == EXIT_PROTOCOL:
        assert (tmp_path / "state.json").read_bytes() == state_bytes
    else:
        rows = len(json.loads(state_bytes)["dataset"]) + len(results)
        assert len(load_state(tmp_path / "state.json").dataset) == rows


def test_cli_commands_leave_scipy_unloaded(tmp_path):
    # every CLI call is a fresh process, and any scipy subpackage import
    # costs it a few tenths of a second and tens of MB; with scipy made
    # unimportable the commands and the closed-form acquisitions must still run
    src = os.path.dirname(os.path.dirname(chamberopt.__file__))

    def scipy_modules_after(*argvs):
        code = ("import sys\n"
                "class NoScipy:\n"
                "    def find_spec(self, name, path=None, target=None):\n"
                "        if name.split('.')[0] == 'scipy':\n"
                "            raise ModuleNotFoundError(name)\n"
                "sys.meta_path.insert(0, NoScipy())\n"
                "from chamberopt.cli import main\n"
                + "".join(f"assert main({list(map(str, a))!r}) == 0\n"
                          for a in argvs)
                + "from chamberopt import (PosteriorGaussian, constrained_ei,\n"
                  "    expected_improvement, probability_feasible)\n"
                  "g = PosteriorGaussian(mean=1.0, std=2.0)\n"
                  "assert 0 < probability_feasible(g, 3.0) < 1\n"
                  "assert 0 < constrained_ei(g, g, 0.5, 3.0) "
                  "< expected_improvement(g, 0.5)\n"
                + "print(sorted(m for m in sys.modules "
                  "if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True,
                             env={**os.environ, "PYTHONPATH": src})
        return out.stdout.strip().splitlines()[-1]

    assert scipy_modules_after(_run_args(tmp_path),
                               ["report", "--dir", tmp_path],
                               ["slices", "--dir", tmp_path,
                                "--resolution", "5"]) == "[]"
    d = tmp_path / "camp"
    assert scipy_modules_after(["init", "--config", _config(tmp_path),
                                "--dir", d]) == "[]"
    _answer(d / "proposals_iter0.csv", d / "r0.csv")
    assert scipy_modules_after(["ingest", d / "r0.csv", "--dir", d],
                               ["propose", "--dir", d]) == "[]"
