"""Fuzz the command line: whatever the formula text, frame file, ``tune --sets``
value or ``audit`` suite, trial count and seed, ``cli.main`` returns an exit
code in {0, 1, 2} and raises nothing. A command followed by junk prints as
it does when the full tree parses it, with no leaf parser answering."""

import contextlib
import io
import json
import os
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalwb import audit, cli

# grammar fragments, near misses and non-ASCII look-alikes of names and digits
FRAGMENTS = [
    "p0", "p1", "p2", "p", "true", "false", "~", "&", "|", "->", "-", "(", ")",
    "<d0>", "[d0]", "<d9>", "<", "[", ">", "]", "d0", " ", "é", "²", "٣",
]

formula_text = st.lists(st.sampled_from(FRAGMENTS) | st.text(max_size=3), max_size=12).map(
    "".join
)

json_value = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 8) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
names = st.lists(st.sampled_from(["d0", "d1", "", "0d", "é"]) | json_value, max_size=3)
pairs = st.lists(st.lists(st.integers(-2, 8) | json_value, max_size=3) | json_value, max_size=6)
frame_object = st.fixed_dictionaries(
    {},
    optional={
        "alphabet": names | json_value,
        "points": st.integers(-2, 8) | json_value,
        "rel": st.dictionaries(st.sampled_from(["d0", "d1", ""]), pairs | json_value, max_size=3)
        | json_value,
    },
)
frame_text = frame_object.map(json.dumps) | json_value.map(json.dumps) | st.text(max_size=20)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "frame.json").write_text(
        json.dumps({"alphabet": ["d0"], "points": 2, "rel": {"d0": [[0, 1], [1, 1]]}})
    )
    return path


@settings(max_examples=300, deadline=None)
@given(text=formula_text)
def test_check_any_formula_text(workdir, text):
    # a small cap keeps formulas with many variables cheap: they exit 2
    assert cli.main(["check", str(workdir / "frame.json"), text, "--cap", "4096"]) in (0, 1, 2)


@settings(max_examples=300, deadline=None)
@given(text=frame_text)
def test_frame_info_any_frame_file(workdir, text):
    path = workdir / "fuzzed.json"
    path.write_text(text, encoding="utf-8", errors="surrogatepass")
    assert cli.main(["frame", "info", str(path)]) in (0, 1, 2)


# point lists over the 2-point frame, mostly in range, with JSON look-alikes
point_lists = st.lists(
    st.lists(st.integers(-1, 2) | json_value, max_size=3) | json_value, max_size=4
)
sets_fragments = st.sampled_from(["[", "]", ",", "0", "1", "1.5", "true", '"1"', "{}"])
sets_text = (
    point_lists.map(json.dumps)
    | json_value.map(json.dumps)
    | st.lists(sets_fragments, max_size=10).map("".join)
    | st.text(max_size=10)
)


@settings(max_examples=200, deadline=None)
@given(text=sets_text)
def test_tune_any_sets_text(workdir, text):
    assert cli.main(["tune", str(workdir / "frame.json"), "--sets", text]) in (0, 1, 2)


@settings(max_examples=150, deadline=None)
@given(
    suite=st.sampled_from(sorted(audit.SUITES)) | st.text(max_size=12),
    trials=st.integers(-3, 3),
    seed=st.integers(-(2**70), 2**70),
)
def test_audit_any_suite_trials_and_seed(suite, trials, seed):
    argv = ["audit", suite, "--trials", str(trials), "--seed", str(seed), "--json"]
    assert cli.main(argv) in (0, 1, 2)


JUNK = ["info", "md", "dot", "FRAME", "p0", "-k", "1", "--json", "--sets", "[[0]]", "--cap",
        "--bogus", "-h", "--", "-", "--js", "--sa", "-k1"]


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(
        ["frame", "check", "count", "tune", "audit", "export", "frame info", "frame md",
         "export dot"]
    ),
    rest=st.lists(st.sampled_from(JUNK) | st.text(max_size=3), max_size=5),
)
def test_command_then_junk_prints_as_the_full_tree(workdir, command, rest):
    frame = str(workdir / "frame.json")
    # no trials keeps a drawn suite name cheap
    argv = command.split() + (["--trials", "0"] if command == "audit" else [])
    argv += [frame if token == "FRAME" else token for token in rest]
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        got = _run(argv)
        with mock.patch.object(cli, "_parse_leaf", lambda argv: None):
            assert _run(argv) == got
    assert got[0] in (0, 1, 2)
