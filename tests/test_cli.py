import argparse
import json
import os
import random
import subprocess
import sys

import pytest

import modalwb
from modalwb import audit, cli, frames, partitions, semantics
from modalwb.audit import non_adjacent_frame
from modalwb.frames import Frame, dump_frame, skeleton
from modalwb.partitions import DEFAULT_PROFILE_CAP
from modalwb.syntax import default_alphabet


@pytest.fixture
def chain3(tmp_path):
    path = tmp_path / "chain3.json"
    dump_frame(Frame(default_alphabet(1), 3, [{(0, 1), (1, 2)}]), path)
    return str(path)


@pytest.fixture
def cluster2(tmp_path):
    path = tmp_path / "cluster2.json"
    dump_frame(
        Frame(default_alphabet(1), 2, [{(0, 0), (0, 1), (1, 0), (1, 1)}]), path
    )
    return str(path)


@pytest.fixture
def point_refl(tmp_path):
    path = tmp_path / "point_refl.json"
    dump_frame(Frame(default_alphabet(1), 1, [{(0, 0)}]), path)
    return str(path)


def test_frame_info(chain3, capsys):
    assert cli.main(["frame", "info", chain3]) == 0
    out = capsys.readouterr().out
    assert "height: 3" in out
    assert "transitivity index: 2" in out


def test_frame_info_json_golden(chain3, capsys):
    assert cli.main(["frame", "info", chain3, "--json"]) == 0
    out = capsys.readouterr().out
    assert out == (
        '{"alphabet": ["d0"], "clusters": 3, "height": 3,'
        ' "path_reducible_at_index": true, "points": 3, "transitivity_index": 2}\n'
    )


def test_frame_info_clusters_match_skeleton(tmp_path, capsys):
    rng = random.Random(11)
    path = tmp_path / "frame.json"
    for _ in range(60):
        n, mods = rng.randint(0, 8), rng.randint(1, 3)
        density = rng.random() / 2
        rels = [
            {(a, b) for a in range(n) for b in range(n) if rng.random() < density}
            for _ in range(mods)
        ]
        frame = Frame(default_alphabet(mods), n, rels)
        dump_frame(frame, path)
        assert cli.main(["frame", "info", str(path), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["clusters"] == len(skeleton(frame).clusters)


def test_frame_info_text_follows_the_json_keys(tmp_path, capsys):
    # each line is a key with spaces for underscores; no modalities leave
    # "alphabet: " with its trailing space
    path = tmp_path / "point.json"
    path.write_text('{"alphabet": [], "points": 1, "rel": {}}')
    assert cli.main(["frame", "info", str(path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "points: 1",
        "alphabet: ",
        "transitivity index: 0",
        "height: 1",
        "clusters: 1",
        "path reducible at index: True",
    ]


def test_frame_info_past_the_path_budget(chain3, capsys, monkeypatch):
    def over_budget(*args, **kwargs):
        raise frames.PathBudgetExceeded("budget")

    monkeypatch.setattr(frames, "is_path_reducible", over_budget)
    assert cli.main(["frame", "info", chain3]) == 0
    assert capsys.readouterr().out.endswith("\npath reducible at index: None\n")
    assert cli.main(["frame", "info", chain3, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["path_reducible_at_index"] is None


def test_frame_md(chain3, capsys):
    assert cli.main(["frame", "md", chain3, "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"modal_depth": 2, "mode": "exact"}
    assert cli.main(["frame", "md", chain3, "--sample", "20", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "sampled" in out


def test_frame_md_too_large(tmp_path, capsys):
    path = tmp_path / "big.json"
    dump_frame(Frame(default_alphabet(1), partitions.EXACT_DEPTH_LIMIT + 1, [set()]), path)
    assert cli.main(["frame", "md", str(path)]) == 2
    assert "--sample" in capsys.readouterr().err


def test_frame_md_too_large_reports_the_library_limit_with_one_hint(tmp_path, capsys):
    path = tmp_path / "big.json"
    dump_frame(Frame(default_alphabet(1), partitions.EXACT_DEPTH_LIMIT + 1, [set()]), path)
    assert cli.main(["frame", "md", str(path)]) == 2
    err = capsys.readouterr().err
    limit = partitions.EXACT_DEPTH_LIMIT
    assert f"needs n <= {limit}, got {limit + 1}" in err
    assert err.count("--sample") == 1


def test_check_valid(cluster2, capsys):
    code = cli.main(["check", cluster2, "<d0><d0>p0 -> <d0>p0 | p0"])
    assert code == 0
    assert capsys.readouterr().out == "valid\n"


def test_check_invalid_exit_code(chain3, capsys):
    code = cli.main(["check", chain3, "<d0><d0>p0 -> <d0>p0", "--json"])
    assert code == 1
    assert json.loads(capsys.readouterr().out) == {
        "formula": "<d0><d0>p0 -> <d0>p0",
        "valid": False,
    }


def test_check_parse_error(chain3, capsys):
    assert cli.main(["check", chain3, "p0 &"]) == 2
    assert "offset 5" in capsys.readouterr().err


def test_check_cap_exceeded(chain3, capsys):
    assert cli.main(["check", chain3, "p0 & p1 & p2 & p3 & p4", "--cap", "100"]) == 2
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["check", "p0"], ["count", "-k", "1"]])
def test_negative_cap_is_a_usage_error(chain3, capsys, command):
    argv = [command[0], chain3] + command[1:] + ["--cap", "-1"]
    assert cli.main(argv) == 2
    assert "error: cap must be non-negative, got -1" in capsys.readouterr().err


def test_check_cap_on_a_huge_assignment_space(tmp_path, capsys):
    # 8 variables on 2048 points: 2^16384 assignments, a number too long to
    # print in full, so the message names the power
    path = tmp_path / "chain2048.json"
    dump_frame(Frame(default_alphabet(1), 2048, [{(a, a + 1) for a in range(2047)}]), path)
    assert cli.main(["check", str(path), "p0 | p1 | p2 | p3 | p4 | p5 | p6 | p7"]) == 2
    assert "2^16384" in capsys.readouterr().err


def test_count_cap_on_a_huge_profile_count(chain3, tmp_path, capsys):
    assert cli.main(["count", chain3, "-k", "3000"]) == 2
    assert f"2^9000 valuation profiles exceed cap {DEFAULT_PROFILE_CAP}" in capsys.readouterr().err
    # on 0 points every k has one profile, within the cap, and one class
    empty0 = tmp_path / "empty0.json"
    dump_frame(Frame(default_alphabet(1), 0, [set()]), empty0)
    assert cli.main(["count", str(empty0), "-k", str(10**30), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"count": 1, "k": 10**30}


def test_count(point_refl, capsys):
    assert cli.main(["count", point_refl, "-k", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"count": 4, "k": 1}


def test_count_cluster(cluster2, capsys):
    assert cli.main(["count", cluster2, "-k", "1"]) == 0
    assert "16" in capsys.readouterr().out


def test_count_default_cap_stops_before_a_slow_count(tmp_path, capsys):
    # 9 points and one variable: 2^9 = 512 profiles, past the default cap
    path = tmp_path / "empty9.json"
    dump_frame(Frame(default_alphabet(1), 9, [set()]), path)
    assert cli.main(["count", str(path), "-k", "1"]) == 2
    assert "2^9 valuation profiles exceed cap 256" in capsys.readouterr().err
    assert cli.main(["count", str(path), "-k", "1", "--cap", "512", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"count": 4, "k": 1}


@pytest.mark.parametrize("as_json", [False, True])
def test_count_too_long_to_print_exits_2(point_refl, capsys, monkeypatch, as_json):
    # 2^20000 has 6021 digits, past the default int-to-text limit of 4300
    monkeypatch.setattr(partitions, "count_k_formulas", lambda *a, **kw: 2**20000)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    argv = ["count", point_refl, "-k", "1"] + ["--json"] * as_json
    if 0 < limit < 6021:
        assert cli.main(argv) == 2
        assert "2^20000" in capsys.readouterr().err
    else:
        assert cli.main(argv) == 0


def test_tune(chain3, capsys):
    assert cli.main(["tune", chain3, "--sets", "[[0,1,2]]", "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "blocks": [[0], [1], [2]],
        "birth_stages": [2, 2, 1],
        "tuned": True,
    }


def test_tune_bad_sets(chain3, capsys):
    assert cli.main(["tune", chain3, "--sets", "[[9]]"]) == 2


def test_audit_runs_and_writes(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code = cli.main(
        ["audit", "byrd-frame", "--trials", "5", "--seed", "1", "--out", str(out_path)]
    )
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["passes"] == 5
    text = capsys.readouterr().out
    assert "passes: 5" in text


def test_audit_with_errored_trials_exits_1(monkeypatch, capsys):
    def draw(spec, rng, trial):
        if trial == 1:
            raise audit.GenerationError("no frame")
        return non_adjacent_frame(1), lambda pts: (True, "")

    monkeypatch.setitem(audit.SUITES, "flaky", audit.Suite(draw, audit.GenSpec(), 3, 0))
    assert cli.main(["audit", "flaky", "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert data["passes"] == 2 and data["failures"] == []
    assert data["errors"] == [{"trial": 1, "detail": "GenerationError: no frame"}]
    assert cli.main(["audit", "flaky"]) == 1
    assert "errors: 1\n  trial 1: GenerationError: no frame\n" in capsys.readouterr().out


def test_audit_unknown_suite(capsys):
    assert cli.main(["audit", "nonsense"]) == 2
    assert "unknown suite" in capsys.readouterr().err


def test_export_dot(chain3, capsys):
    assert cli.main(["export", "dot", chain3]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "n0 -> n1" in out


def test_export_dot_json(chain3, capsys):
    assert cli.main(["export", "dot", chain3, "--json"]) == 0
    assert "dot" in json.loads(capsys.readouterr().out)


def test_missing_file(capsys):
    assert cli.main(["frame", "info", "/nonexistent/frame.json"]) == 2
    assert "not found" in capsys.readouterr().err


def test_frame_path_that_is_a_directory(tmp_path, capsys):
    for argv in (["frame", "info", str(tmp_path)], ["export", "dot", str(tmp_path)]):
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read frame file {tmp_path}: ")


@pytest.mark.parametrize("where", ["directory", "missing-directory", "empty"])
def test_audit_out_path_that_cannot_be_written(tmp_path, capsys, where):
    out = {
        "directory": tmp_path,
        "missing-directory": tmp_path / "missing" / "report.json",
        "empty": "",
    }[where]
    assert cli.main(["audit", "md-sum", "--trials", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write report {out}: ")


# each subcommand and the library call it makes
LIBRARY_CALLS = {
    "frame-info": (["frame", "info", "FRAME"], frames, "transitivity_index"),
    "frame-md": (["frame", "md", "FRAME"], partitions, "frame_modal_depth"),
    "frame-md-sample": (["frame", "md", "FRAME", "--sample", "1"], partitions, "frame_modal_depth"),
    "check": (["check", "FRAME", "p0"], semantics, "validity_bruteforce"),
    "count": (["count", "FRAME", "-k", "1"], partitions, "count_k_formulas"),
    "tune": (["tune", "FRAME", "--sets", "[[0]]"], partitions, "coarsest_tuned_refinement"),
    "audit": (["audit", "md-sum"], audit, "run_suite"),
    "export-dot": (["export", "dot", "FRAME"], frames, "to_dot"),
}


@pytest.mark.parametrize(
    "error",
    [ValueError, partitions.CapExceeded, frames.PathBudgetExceeded],
    ids=lambda error: error.__name__,
)
@pytest.mark.parametrize("command", LIBRARY_CALLS)
def test_every_subcommand_exits_2_on_a_declared_library_error(
    chain3, capsys, monkeypatch, command, error
):
    argv, module, name = LIBRARY_CALLS[command]

    def boom(*args, **kwargs):
        raise error("boom")

    monkeypatch.setattr(module, name, boom)
    argv = [chain3 if token == "FRAME" else token for token in argv]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    # exact frame md adds its hint to a ValueError
    hint = "; use --sample N" if command == "frame-md" and error is ValueError else ""
    assert err == f"error: boom{hint}\n"


def test_usage_error_exit_code(capsys):
    assert cli.main(["frame"]) == 2
    assert cli.main([]) == 2
    assert cli.main(["check"]) == 2


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        "[]",
        '{"alphabet": "d0", "points": 2, "rel": {"d0": []}}',
        '{"alphabet": [7], "points": 2, "rel": {"7": []}}',
        '{"alphabet": ["d0"], "points": true, "rel": {"d0": []}}',
        '{"alphabet": ["d0"], "points": 2, "rel": {"d0": [], "d9": [[5, 5]]}}',
        '{"alphabet": ["d0"], "points": 2, "rel": {"d0": [[0, 1, 1]]}}',
        '{"alphabet": ["d0"], "points": 2, "rel": {"d0": [[0, 2]]}}',
    ],
)
def test_malformed_frame_file_exit_code(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.main(["frame", "info", str(path)]) == 2
    assert "bad frame file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, code",
    [
        ("~" * 3000 + "p0", 1),
        ("<d0>" * 3000 + "p0", 1),
        ("p0 -> " * 3000 + "p0", 0),
        ("(" * 3000 + "p0" + ")" * 3000, 2),
    ],
    ids=["negations", "diamonds", "implications", "parentheses"],
)
def test_check_deeply_nested_formula(chain3, capsys, text, code):
    assert cli.main(["check", chain3, text]) == code
    if code == 2:
        assert "bad formula: parentheses nested deeper" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sets, message",
    [
        ("[[-1]]", "point -1 out of range"),
        ("[[0], [3]]", "point 3 out of range"),
        ("[[99999999999999999999]]", "out of range"),
        ("[[1e400]]", "bad --sets value"),
    ],
)
def test_tune_point_out_of_range(chain3, capsys, sets, message):
    assert cli.main(["tune", chain3, "--sets", sets]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "sets",
    ['[[1.5]]', '[[true]]', '["12"]', '{"0": [1]}', '[1]', '[[0], 1]', '"[[0]]"', "null"],
    ids=["float", "bool", "string", "dict", "flat-list", "mixed", "json-string", "null"],
)
def test_tune_sets_need_integer_lists(chain3, capsys, sets):
    # these were once read as points (1.5 and true as 1, "12" as {1, 2}, a dict by its keys)
    assert cli.main(["tune", chain3, "--sets", sets]) == 2
    assert "bad --sets value" in capsys.readouterr().err


def test_tune_sets_deeply_nested(chain3, capsys):
    assert cli.main(["tune", chain3, "--sets", "[" * 100000]) == 2
    assert "bad --sets value" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_frame_md_sample_needs_a_trial(chain3, capsys, trials):
    assert cli.main(["frame", "md", chain3, "--sample", trials]) == 2
    assert "--sample needs at least 1 trial" in capsys.readouterr().err


def test_count_negative_k(chain3, capsys):
    assert cli.main(["count", chain3, "-k", "-1"]) == 2
    assert "error: k must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["\u00e9", "p\u00b2", "p\u0663"])
def test_check_non_ascii_formula(chain3, capsys, text):
    assert cli.main(["check", chain3, text]) == 2
    assert "bad formula:" in capsys.readouterr().err


def test_audit_negative_trials(capsys):
    assert cli.main(["audit", "byrd-frame", "--trials", "-1"]) == 2
    assert "error: trials must be non-negative, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (
            json.dumps({"alphabet": ["d0"], "points": 10**9, "rel": {"d0": []}}),
            "points must be at most",
        ),
        ("[" * 100000, "bad frame file"),
    ],
    ids=["points", "nesting"],
)
def test_frame_file_too_large(tmp_path, capsys, text, message):
    path = tmp_path / "big.json"
    path.write_text(text)
    assert cli.main(["frame", "info", str(path)]) == 2
    assert message in capsys.readouterr().err


# argv cases that must print the same whether main parses them with a leaf's
# parser alone or with the full tree; FRAME stands for a frame file
FULL_TREE_CASES = [
    [],
    ["-h"],
    ["--json"],
    ["--json", "check", "FRAME", "p0"],
    ["bogus"],
    ["chec"],
    ["CHECK"],
    ["fr", "info", "FRAME"],
    ["frame"],
    ["frame", "-h"],
    ["frame", "info"],
    ["frame", "info", "-h"],
    ["frame", "info", "FRAME"],
    ["frame", "info", "FRAME", "--json"],
    ["frame", "info", "FRAME", "extra"],
    ["frame", "md", "FRAME", "--json"],
    ["frame", "md", "-h"],
    ["frame", "md", "FRAME", "--sample", "x"],
    ["frame", "bogus", "FRAME"],
    ["frame", "inf", "FRAME"],
    ["check"],
    ["check", "-h"],
    ["check", "FRAME"],
    ["check", "FRAME", "p0"],
    ["check", "FRAME", "p0", "--json"],
    ["check", "FRAME", "p0", "extra"],
    ["check", "FRAME", "p0", "--cap", "z"],
    ["check", "FRAME", "p0", "--bogus"],
    ["check", "FRAME", "p0", "--js"],
    ["check", "FRAME", "p0", "--"],
    ["check", "FRAME", "--", "p0"],
    ["check", "FRAME", "-", "p0"],
    ["count", "-h"],
    ["count", "FRAME"],
    ["count", "FRAME", "-k", "1", "--json"],
    ["count", "FRAME", "-k", "x"],
    ["tune", "-h"],
    ["tune", "FRAME"],
    ["tune", "FRAME", "--sets", "[[0]]"],
    ["audit"],
    ["audit", "-h"],
    ["audit", "md-sum", "--trials", "0", "--json"],
    ["audit", "md-sum", "--trials", "q"],
    ["export"],
    ["export", "-h"],
    ["export", "dot"],
    ["export", "dot", "-h"],
    ["export", "dot", "FRAME", "--json"],
    ["export", "dot", "FRAME", "--"],
    ["export", "png", "FRAME"],
]


@pytest.mark.parametrize("argv", FULL_TREE_CASES, ids=lambda argv: " ".join(argv) or "none")
def test_output_matches_the_full_tree(chain3, capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [chain3 if token == "FRAME" else token for token in argv]
    got = (cli.main(argv), *capsys.readouterr())
    # the reference run: no leaf parser answers, so the full tree parses
    monkeypatch.setattr(cli, "_parse_leaf", lambda argv: None)
    assert (cli.main(argv), *capsys.readouterr()) == got


# a valid argv of each leaf; FRAME stands for a frame file
LEAF_ARGVS = {
    "frame info": ["frame", "info", "FRAME"],
    "frame md": ["frame", "md", "FRAME", "--sample", "2", "--json"],
    "check": ["check", "FRAME", "p0", "--cap", "64"],
    "count": ["count", "FRAME", "-k", "1"],
    "tune": ["tune", "FRAME", "--sets", "[[0]]"],
    "audit": ["audit", "byrd-frame", "--trials", "0"],
    "export dot": ["export", "dot", "FRAME", "--json"],
}


def _parsers_built(monkeypatch, argv):
    """The prog of every ArgumentParser that ``cli.main(argv)`` builds."""
    progs = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        progs.append(self.prog)

    with monkeypatch.context() as patch:
        patch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli.main(argv)
    return progs


@pytest.mark.parametrize("words", LEAF_ARGVS)
def test_a_leaf_argv_builds_one_parser(chain3, capsys, monkeypatch, words):
    argv = [chain3 if token == "FRAME" else token for token in LEAF_ARGVS[words]]
    assert _parsers_built(monkeypatch, argv) == [f"modalwb {words}"]
    assert capsys.readouterr().err == ""


# the progs of the full tree's parsers, in the order _build_parser makes them
FULL_TREE_PROGS = [
    "modalwb", "modalwb frame", "modalwb frame info", "modalwb frame md", "modalwb check",
    "modalwb count", "modalwb tune", "modalwb audit", "modalwb export", "modalwb export dot",
]


@pytest.mark.parametrize(
    "argv, leaf",
    [
        (["check", "FRAME", "p0", "extra"], ["modalwb check"]),
        (["frame", "info", "FRAME", "extra"], ["modalwb frame info"]),
        (["frame"], []),
        (["chec", "FRAME", "p0"], []),
    ],
)
def test_left_over_tokens_or_no_leaf_build_the_full_tree(chain3, capsys, monkeypatch, argv, leaf):
    argv = [chain3 if token == "FRAME" else token for token in argv]
    assert _parsers_built(monkeypatch, argv) == leaf + FULL_TREE_PROGS
    assert capsys.readouterr().err.startswith("usage: modalwb")


@pytest.mark.parametrize("command", ["chec", "CHECK"])
def test_invalid_command_names_the_command_argument(capsys, command):
    assert cli.main([command]) == 2
    assert f"error: argument command: invalid choice: '{command}'" in capsys.readouterr().err


def test_entry_point_reads_sys_argv(chain3, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setattr(sys, "argv", ["modalwb", "check", chain3, "p0", "extra"])
    assert cli.main() == 2
    assert capsys.readouterr().err.startswith(
        "usage: modalwb [-h] {frame,check,count,tune,audit,export} ...\n"
    )


# the usage line of each leaf, whitespace-normalised
LEAF_USAGES = {
    "frame info": "usage: modalwb frame info [-h] [--json] path",
    "frame md": "usage: modalwb frame md [-h] [--sample N] [--seed SEED] [--json] path",
    "check": "usage: modalwb check [-h] [--cap CAP] [--json] path formula",
    "count": "usage: modalwb count [-h] -k K [--cap CAP] [--json] path",
    "tune": "usage: modalwb tune [-h] --sets SETS [--json] path",
    "audit": "usage: modalwb audit [-h] [--trials TRIALS] [--seed SEED] [--out OUT] [--json] suite",
    "export dot": "usage: modalwb export dot [-h] [--json] path",
}


@pytest.mark.parametrize("command", LEAF_USAGES)
def test_every_leaf_prints_its_usage(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli.main([*command.split(), "-h"]) == 0
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert " ".join(usage.split()) == LEAF_USAGES[command]


@pytest.mark.parametrize("argv", [["frame", "bogus"], ["export", "png"]])
def test_invalid_group_command_names_the_group_argument(capsys, argv):
    assert cli.main(argv) == 2
    assert f"error: argument {argv[0]}_command: invalid choice" in capsys.readouterr().err


def run_fresh(code):
    """Run ``code`` in a fresh interpreter that imports this modalwb."""
    root = os.path.dirname(os.path.dirname(modalwb.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path), check=True)


NOT_LOADED = "assert not {'modalwb.audit', 'modalwb.definability'} & set(sys.modules)\n"


def test_frame_info_loads_neither_audit_nor_definability(chain3):
    run_fresh(
        "import sys, modalwb.cli\n"
        + NOT_LOADED
        + f"assert modalwb.cli.main(['frame', 'info', {chain3!r}, '--json']) == 0\n"
        + NOT_LOADED
    )


def test_importing_frames_loads_neither_audit_nor_definability():
    run_fresh("import sys, modalwb.frames\n" + NOT_LOADED)


def test_the_audit_command_loads_audit_and_definability():
    run_fresh(
        "import sys, modalwb.cli\n"
        + NOT_LOADED
        + "assert modalwb.cli.main(['audit', 'byrd-frame', '--trials', '1']) == 0\n"
        "assert {'modalwb.audit', 'modalwb.definability'} <= set(sys.modules)\n"
    )


def test_first_use_imports_one_submodule_and_binds_its_names():
    run_fresh(
        "import sys, modalwb\n"
        "assert not [m for m in sys.modules if m.startswith('modalwb.')]\n"
        "modalwb.lex_sum\n"
        "assert {'frames', 'lex_sum', 'Frame', 'union_relation'} <= set(vars(modalwb))\n"
        # frames imports syntax, so its names are bound too
        "assert {'syntax', 'parse', 'Var'} <= set(vars(modalwb))\n"
        "assert 'run_suite' not in vars(modalwb)\n"
        + NOT_LOADED
    )


def run_limited(argv, megabytes):
    """``modalwb argv`` in a fresh interpreter that imports this modalwb,
    its address space capped by ``RLIMIT_AS``, set in that child only."""
    resource = pytest.importorskip("resource")
    root = os.path.dirname(os.path.dirname(modalwb.__file__))
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    limit = megabytes << 20
    return subprocess.run(
        [sys.executable, "-m", "modalwb.cli", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )


def test_running_out_of_memory_exits_2_and_names_the_command(tmp_path):
    # 2^12 profiles on 12 random points: count's keys outgrow 200 MB
    rng = random.Random(12)
    rel = {(a, b) for a in range(12) for b in range(12) if rng.random() < 0.35}
    path = tmp_path / "random12.json"
    dump_frame(Frame(default_alphabet(1), 12, [rel]), path)
    done = run_limited(["count", str(path), "-k", "1", "--cap", "4096"], 200)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    assert done.stderr == "error: modalwb count ran out of memory\n"


def test_tune_on_the_2048_chain_keeps_no_trace(tmp_path):
    # 2047 stages, one new block each: only the last becomes a Partition,
    # so 120 MB is enough
    n = 2048
    path = tmp_path / "chain2048.json"
    dump_frame(Frame(default_alphabet(1), n, [{(a, a + 1) for a in range(n - 1)}]), path)
    done = run_limited(["tune", str(path), "--sets", f"[[{n - 1}]]", "--json"], 120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {
        "birth_stages": [n - 2] + list(range(n - 2, -1, -1)),
        "blocks": [[a] for a in range(n)],
        "tuned": True,
    }
