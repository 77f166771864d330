"""A stateful test of the ask-tell protocol through ``cli.main``, with crash
points. A derandomized Hypothesis state machine drives one campaign
directory with ``init``, ``propose``, ``report`` and ``ingest`` of a results
file that is complete, shuffled, has an id missing, extra or repeated, or
holds a non-finite value; a crash rule makes the nth ``os.fsync`` or
``os.replace`` of the next command raise OSError. After every rule the
directory must hold no temp file, ``state.json`` must hold the rows and
pending ids the model predicts, and a pending batch must equal its
proposals CSV."""

import contextlib
import io
import json
import math
import os
import shutil
import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, Phase, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant, precondition,
                                 rule)

from chamberopt.campaign import load_state
from chamberopt.cli import (EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_PROTOCOL,
                            EXIT_STATE, EXIT_USAGE, main)
from chamberopt.evaluators import (QUADRATIC_SPACE, benchmark_quadratic,
                                   proposal_ids, proposals_path,
                                   read_proposals)

DOE_N, Q = 4, 2
CONFIG = {"space": QUADRATIC_SPACE.to_config(),
          "acq": {"constraint_threshold": 1.0, "batch_size": Q, "mc_samples": 64},
          "budget": {"raw_samples": 16, "restarts": 2},
          "doe_n": DOE_N, "seed": 5}
EXIT_CODES = {EXIT_OK, EXIT_USAGE, EXIT_PROTOCOL, EXIT_NUMERIC, EXIT_IO,
              EXIT_STATE}


class AskTell(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.root = tempfile.mkdtemp(prefix="asktell-")
        self.dir = os.path.join(self.root, "camp")
        self.state_path = os.path.join(self.dir, "state.json")
        self.config = os.path.join(self.root, "config.json")
        with open(self.config, "w", encoding="utf-8") as f:
            json.dump(CONFIG, f)
        self.crash = None           # (os function, n) for the next command
        self.model = None           # rows, pending ids, next batch; None before init

    def teardown(self):
        shutil.rmtree(self.root)

    def _run(self, *args, expect):
        """Run one command under the crash point, if one is set, and check
        its exit code: ``expect``, or EXIT_IO if the crash point fired. A
        command that renamed no state.json leaves it byte-identical; returns
        whether it renamed one."""
        before = _read(self.state_path)
        crash, self.crash = self.crash, None
        calls, renamed = {"fsync": 0, "replace": 0}, []
        real = {"fsync": os.fsync, "replace": os.replace}

        def counted(name):
            def call(*a):
                calls[name] += 1
                if crash == (name, calls[name]):
                    raise OSError(f"crash point: {name} call {calls[name]}")
                real[name](*a)
                if name == "replace":
                    renamed.append(os.path.abspath(a[1]))
            return call

        err = io.StringIO()
        with mock.patch.object(os, "fsync", counted("fsync")), \
                mock.patch.object(os, "replace", counted("replace")), \
                contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            code = main([*args, "--dir", self.dir])
        fired = crash is not None and calls[crash[0]] >= crash[1]
        assert code in EXIT_CODES and "Traceback" not in err.getvalue()
        assert code == (EXIT_IO if fired else expect), err.getvalue()
        if self.state_path not in renamed:
            assert _read(self.state_path) == before
        return self.state_path in renamed

    @precondition(lambda self: self.model is None)
    @rule()
    def init(self):
        if self._run("init", "--config", self.config,
                     expect=EXIT_OK if self.model is None else EXIT_STATE):
            self.model = (0, proposal_ids(0, DOE_N), 0)

    @precondition(lambda self: self.model is not None)
    @rule()
    def propose(self):
        rows, pending, batch = self.model
        if self._run("propose", expect=EXIT_STATE if pending else EXIT_OK):
            self.model = (rows, proposal_ids(batch, Q), batch)

    @precondition(lambda self: self.model is not None)
    @rule(kind=st.sampled_from(["complete", "shuffled", "missing", "extra",
                                "duplicate", "nonfinite"]))
    def ingest(self, kind):
        results = os.path.join(self.root, "results.csv")
        rows, pending, batch = self.model
        points = (read_proposals(proposals_path(self.dir, batch), QUADRATIC_SPACE)
                  if pending else [("iter9_0", (0.5, 0.5))])
        lines = [f"{pid},{k!r},{v!r}" for pid, (k, v) in
                 ((pid, benchmark_quadratic(x)) for pid, x in points)]
        if kind == "shuffled":
            lines.reverse()
        elif kind == "missing":
            lines.pop()
        elif kind in ("extra", "duplicate"):
            lines.append(lines[0] if kind == "duplicate"
                         else "iter99_0" + lines[0][lines[0].index(","):])
        elif kind == "nonfinite":
            lines[0] = lines[0].rsplit(",", 1)[0] + f",{math.nan}"
        with open(results, "w", encoding="utf-8") as f:
            f.write("\n".join(["id,k,v_mag"] + lines) + "\n")
        if not pending:
            expect = EXIT_STATE
        else:
            expect = EXIT_OK if kind in ("complete", "shuffled") else EXIT_PROTOCOL
        if self._run("ingest", results, expect=expect):
            self.model = (rows + len(pending), [], batch + 1)

    @precondition(lambda self: self.model is not None)
    @rule()
    def report(self):
        assert not self._run("report",
                             expect=EXIT_OK if self.model[0] else EXIT_STATE)

    # init makes 5 fsyncs and 2 renames, the most of any command
    @rule(crash=st.tuples(st.just("fsync"), st.integers(1, 5))
          | st.tuples(st.just("replace"), st.integers(1, 2)))
    def crash_next_command(self, crash):
        self.crash = crash

    @invariant()
    def no_temp_file_remains(self):
        if os.path.isdir(self.dir):
            assert not [p for p in os.listdir(self.dir) if p.startswith(".")]

    @invariant()
    def state_holds_the_model_and_its_proposals(self):
        assert os.path.exists(self.state_path) == (self.model is not None)
        if self.model is None:
            return
        state = load_state(self.state_path)
        rows, pending, batch = self.model
        assert (len(state.dataset), [pid for pid, _ in state.pending],
                state.batch) == (rows, pending, batch)
        if state.pending:
            back = read_proposals(proposals_path(self.dir, batch), QUADRATIC_SPACE)
            assert [(pid, tuple(x)) for pid, x in back] == state.pending


def _read(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except FileNotFoundError:
        return None


# crash points chosen by a derandomized search miss some of a command's, so
# each is also checked in turn below. No shrink phase: a failure prints its
# whole derandomized rule sequence at once, not after minutes of replays.
AskTell.TestCase.settings = settings(
    derandomize=True, database=None, deadline=None, max_examples=20,
    stateful_step_count=25, phases=[Phase.explicit, Phase.generate],
    suppress_health_check=[HealthCheck.too_slow])
TestAskTell = AskTell.TestCase


@pytest.mark.parametrize("crash", [("fsync", n) for n in range(1, 6)]
                         + [("replace", n) for n in (1, 2)],
                         ids=lambda crash: "%s%d" % crash)
def test_each_crash_point_of_a_round_leaves_a_campaign_that_resumes(crash):
    # each command of one ask-tell round under the crash point, then again
    # without it: a retry completes the command, or the model says why not
    machine = AskTell()
    try:
        for command, args in (("init", ()), ("ingest", ("shuffled",)),
                              ("propose", ()), ("ingest", ("complete",)),
                              ("report", ())):
            for crash_point in (crash, None):
                machine.crash = crash_point
                getattr(machine, command)(*args)
                machine.no_temp_file_remains()
                machine.state_holds_the_model_and_its_proposals()
        assert machine.model == (DOE_N + Q, [], 2)
    finally:
        machine.teardown()
