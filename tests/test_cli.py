import csv
import json
import os
import shutil
import subprocess
import sys

import pytest

import chamberopt
from chamberopt.campaign import STATE_VERSION, load_state
from chamberopt.cli import (EXIT_IO, EXIT_OK, EXIT_PROTOCOL, EXIT_STATE,
                            EXIT_USAGE, main)
from chamberopt.evaluators import proxy_prechamber, read_proposals
from chamberopt.space import PRECHAMBER_SPACE

FAST = ["--raw-samples", "16", "--restarts", "2", "--max-iters", "10",
        "--mc-samples", "128"]


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


def test_unknown_flag_is_usage_error(tmp_path, capsys):
    for flags in (["--bogus"], ["--acquisition", "ucb"]):
        assert main(["run", "--dir", str(tmp_path)] + flags) == EXIT_USAGE


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
        "budget": {"raw_samples": 16, "restarts": 2,
                   "max_iters_per_restart": 10},
        "doe_n": 4,
        "seed": 3,
        "evaluator": evaluator,
    }
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg))
    return p


def _answer(ppath, rpath):
    rows = read_proposals(ppath, PRECHAMBER_SPACE)
    with open(rpath, "w") as f:
        f.write("id,k,v_mag\n")
        for pid, x in rows:
            k, v = proxy_prechamber(x)
            f.write(f"{pid},{k:.17g},{v:.17g}\n")


def test_external_workflow_init_propose_ingest(tmp_path, capsys):
    cfg = _config(tmp_path)
    d = tmp_path / "camp"
    assert main(["init", "--config", str(cfg), "--dir", str(d)]) == EXIT_OK
    assert (d / "proposals_iter0.csv").exists()

    _answer(d / "proposals_iter0.csv", d / "r0.csv")
    assert main(["ingest", str(d / "r0.csv"), "--dir", str(d)]) == EXIT_OK
    st = load_state(d / "state.json")
    assert len(st.dataset) == 4 and st.iteration == 0

    assert main(["propose", "--dir", str(d)]) == EXIT_OK
    assert (d / "proposals_iter1.csv").exists()
    _answer(d / "proposals_iter1.csv", d / "r1.csv")
    assert main(["ingest", str(d / "r1.csv"), "--dir", str(d)]) == EXIT_OK
    st = load_state(d / "state.json")
    assert len(st.dataset) == 6 and st.iteration == 1

    assert main(["report", "--dir", str(d)]) == EXIT_OK


def test_ingest_mismatched_ids_is_protocol_error(tmp_path, capsys):
    cfg = _config(tmp_path)
    d = tmp_path / "camp"
    main(["init", "--config", str(cfg), "--dir", str(d)])
    bad = d / "bad.csv"
    bad.write_text("id,k,v_mag\nwrong_id,1.0,2.0\n")
    before = (d / "state.json").read_bytes()
    assert main(["ingest", str(bad), "--dir", str(d)]) == EXIT_PROTOCOL
    assert (d / "state.json").read_bytes() == before


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


def _as_old_version(version, kind="cei"):
    """Edit a current state file into the given older version's layout."""
    def edit(doc):
        assert doc["version"] == 3 and "kind" not in doc["acq"]
        doc["version"] = version
        doc["acq"] = {"kind": kind, **doc["acq"], "ucb_beta": 2.0}
        if version == 1:
            doc.update(kernel_nu=2.5, sampler="sobol-scrambled")
    return edit


def _removed_ucb_kind(doc):
    _as_old_version(2, kind="ucb")(doc)


@pytest.mark.parametrize("corrupt", [_out_of_bounds, _duplicate_row, _nan_k,
                                     _removed_ucb_kind])
def test_corrupt_state_row_is_io_error(tmp_path, capsys, corrupt):
    d = _doe_ingested(tmp_path)
    before = _edit_state(d, corrupt)
    capsys.readouterr()
    assert main(["report", "--dir", str(d)]) == EXIT_IO
    err = capsys.readouterr().err
    assert "I/O error" in err and "Traceback" not in err
    assert (d / "state.json").read_bytes() == before


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


@pytest.mark.parametrize("edit, field", [
    (_no_space, "space"),
    (_unknown_acq_key, "acq"),
    (_unknown_budget_key, "budget"),
    (_dimension_without_upper, "upper"),
    (_string_doe_size, "doe_n"),
    (_boolean_doe_size, "doe_n"),
    (_boolean_seed, "seed"),
    (_top_level_list, "JSON object"),
    (_unknown_evaluator, "evaluator"),
    (_null_lower, "space[1]"),
    (_list_lower, "space[1]"),
    (_acq_kind, "kind"),
])
def test_malformed_init_config_is_usage_error(tmp_path, capsys, edit, field):
    path = _config(tmp_path)
    cfg = json.loads(path.read_text())
    cfg = edit(cfg) or cfg
    path.write_text(json.dumps(cfg))
    d = tmp_path / "camp"
    assert main(["init", "--config", str(path), "--dir", str(d)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert field in err and "Traceback" not in err
    assert not (d / "state.json").exists()


@pytest.mark.parametrize("version", [1, 2])
def test_old_state_version_resumes_like_current(tmp_path, capsys, version):
    current = _doe_ingested(tmp_path)
    old = tmp_path / "camp_old"
    shutil.copytree(current, old)
    _edit_state(old, _as_old_version(version))
    assert len(load_state(old / "state.json").dataset) == 4
    for d in (old, current):
        assert main(["propose", "--dir", str(d)]) == EXIT_OK
    assert ((old / "proposals_iter1.csv").read_bytes()
            == (current / "proposals_iter1.csv").read_bytes())
    doc = json.loads((old / "state.json").read_text())
    assert doc["version"] == STATE_VERSION and "kind" not in doc["acq"]


def test_unknown_state_version_is_io_error(tmp_path, capsys):
    d = _doe_ingested(tmp_path)
    bad = STATE_VERSION + 1
    before = _edit_state(d, lambda doc: doc.update(version=bad))
    assert main(["report", "--dir", str(d)]) == EXIT_IO
    assert f"version {bad}" in capsys.readouterr().err
    assert (d / "state.json").read_bytes() == before


def test_cli_import_leaves_scipy_stats_unloaded():
    # every CLI call is a fresh process; scipy.stats alone costs ~0.45 s there
    src = os.path.dirname(os.path.dirname(chamberopt.__file__))
    code = ("import sys, chamberopt, chamberopt.cli; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
