"""Command-line surface.

Subcommands: ``frame info``, ``frame md``, ``check``, ``count``, ``tune``,
``audit``, ``export dot``, each declared once as a row of ``_LEAVES``;
``_add_leaf`` adds a row's arguments and ``--json`` to its parser. When argv
starts with a leaf's words and that leaf's parser leaves no token over, a
call builds that one parser; otherwise it parses argv with the full tree
(``_build_parser``), which prints every top-level usage and error, so help
and error output are the same either way. ``main`` loads the frame file, maps
errors to exit 2 and prints the result: each ``_cmd_*(args, frame)``
returns ``(data, exit code, text lines)``, and ``--json`` prints ``data``
as one JSON line in place of the lines. Exit codes: 0 success, 1 property
failure (invalid formula, audit failures or errored trials), 2 usage or
input errors: every ``ValueError``, ``CapExceeded`` or
``PathBudgetExceeded`` that reaches ``main`` prints ``error: <message>``,
and a ``MemoryError`` prints ``error: modalwb <command> ran out of memory``.
Only the ``audit`` command imports ``audit`` (and with it
``definability``), so the other commands never load them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import frames, partitions, semantics, syntax


def _load(path) -> frames.Frame:
    try:
        return frames.load_frame(path)
    except FileNotFoundError:
        raise ValueError(f"frame file not found: {path}") from None
    except OSError as exc:
        raise ValueError(f"cannot read frame file {path}: {exc.strerror or exc}") from None
    except (ValueError, RecursionError) as exc:
        # RecursionError: json gives up on deeply nested arrays or objects
        raise ValueError(f"bad frame file {path}: {exc}") from None


def _cmd_frame_info(args, frame):
    index = frames.transitivity_index(frame)
    try:
        reducible = frames.is_path_reducible(frame, index)
    except frames.PathBudgetExceeded:
        reducible = None
    data = {
        "points": frame.n,
        "alphabet": list(frame.alphabet.names),
        "transitivity_index": index,
        "height": frames.height(frame),
        "clusters": len(frames._cluster_masks(frame)),
        "path_reducible_at_index": reducible,
    }
    return data, 0, [
        f"{key.replace('_', ' ')}: {', '.join(value) if key == 'alphabet' else value}"
        for key, value in data.items()
    ]


def _cmd_frame_md(args, frame):
    if args.sample is not None:
        if args.sample < 1:
            raise ValueError(f"--sample needs at least 1 trial, got {args.sample}")
        md = partitions.frame_modal_depth(
            frame, mode="sampled", trials=args.sample, seed=args.seed
        )
        mode = "sampled"
    else:
        try:
            md = partitions.frame_modal_depth(frame, mode="exact")
        except ValueError as exc:
            raise ValueError(f"{exc}; use --sample N") from None
        mode = "exact"
    note = "" if mode == "exact" else " (lower bound)"
    return {"modal_depth": md, "mode": mode}, 0, [f"modal depth: {md} [{mode}{note}]"]


def _cmd_check(args, frame):
    try:
        formula = syntax.parse(args.formula, frame.alphabet)
    except syntax.ParseError as exc:
        raise ValueError(f"bad formula: {exc}") from None
    valid = semantics.validity_bruteforce(frame, formula, cap=args.cap)
    data = {"formula": args.formula, "valid": valid}
    return data, 0 if valid else 1, ["valid" if valid else "not valid"]


def _cmd_count(args, frame):
    count = partitions.count_k_formulas(frame, args.k, cap=args.cap)
    try:
        text = str(count)
    except ValueError:  # more digits than sys.get_int_max_str_digits allows
        raise ValueError(
            f"the count 2^{count.bit_length() - 1} has too many digits to print"
        ) from None
    return {"k": args.k, "count": count}, 0, [f"nonequivalent {args.k}-formulas: {text}"]


def _cmd_tune(args, frame):
    try:
        sets = json.loads(args.sets)
    except (ValueError, RecursionError) as exc:
        # RecursionError: json gives up on deeply nested arrays or objects
        raise ValueError(f"bad --sets value: {exc}") from None
    # the integer rule of frame files: no floats, booleans or strings
    if not isinstance(sets, list) or not all(
        isinstance(s, list) and all(map(frames._is_int, s)) for s in sets
    ):
        raise ValueError("bad --sets value: expected a JSON list of lists of integers")
    family = [frozenset(s) for s in sets]
    base = partitions.induced_partition(frame.n, family)
    refined = partitions.coarsest_tuned_refinement(frame, base)
    data = {
        "blocks": [sorted(b) for b in refined.blocks],
        "birth_stages": list(refined.birth),
        "tuned": partitions.is_tuned(frame, refined),
    }
    return data, 0, [f"blocks: {data['blocks']}", f"tuned: {data['tuned']}"]


def _cmd_audit(args, frame):
    from . import audit  # only this command loads audit and definability

    try:
        record = audit.SUITES[args.suite]
    except KeyError:
        raise ValueError(
            f"unknown suite {args.suite!r}; known: {', '.join(sorted(audit.SUITES))}"
        ) from None
    spec = record.spec if args.seed is None else dataclasses.replace(record.spec, seed=args.seed)
    trials = record.trials if args.trials is None else args.trials
    report = audit.run_suite(args.suite, spec, trials)
    if args.out is not None:
        try:
            audit.emit_report(report, args.out)
        except OSError as exc:
            raise ValueError(f"cannot write report {args.out}: {exc.strerror or exc}") from None
    lines = [
        f"suite: {report.suite}",
        f"trials: {report.trials}",
        f"passes: {report.passes}",
        f"failures: {len(report.failures)}",
    ]
    lines += [f"  trial {f.trial}: {f.detail}" for f in report.failures]
    if report.errors:
        lines.append(f"errors: {len(report.errors)}")
        lines += [f"  trial {e.trial}: {e.detail}" for e in report.errors]
    return audit.report_to_dict(report), 0 if report.ok() else 1, lines


def _cmd_export_dot(args, frame):
    dot = frames.to_dot(frame)
    # to_dot ends in a newline, which main's print puts back
    return {"dot": dot}, 0, [dot.removesuffix("\n")]


# every leaf command: its words, help, handler and arguments but --json;
# the top-level commands come in help order
_LEAVES = [
    ("frame info", "relational invariants of a frame", _cmd_frame_info, [("path", {})]),
    ("frame md", "modal depth of a frame", _cmd_frame_md, [
        ("path", {}),
        ("--sample", {"type": int, "metavar": "N"}),
        ("--seed", {"type": int, "default": 0}),
    ]),
    ("check", "brute-force validity of a formula", _cmd_check, [
        ("path", {}),
        ("formula", {}),
        ("--cap", {"type": int, "default": semantics.DEFAULT_VALUATION_CAP}),
    ]),
    ("count", "count nonequivalent k-formulas", _cmd_count, [
        ("path", {}),
        ("-k", {"type": int, "required": True}),
        ("--cap", {"type": int, "default": partitions.DEFAULT_PROFILE_CAP}),
    ]),
    ("tune", "coarsest tuned refinement of seed sets", _cmd_tune, [
        ("path", {}),
        ("--sets", {"required": True, "help": "JSON list of point lists"}),
    ]),
    ("audit", "run a property suite", _cmd_audit, [
        ("suite", {}),
        ("--trials", {"type": int}),
        ("--seed", {"type": int}),
        ("--out", {}),
    ]),
    ("export dot", "Graphviz DOT rendering", _cmd_export_dot, [("path", {})]),
]
# the help of each command that groups leaves
_GROUP_HELP = {"frame": "frame inspection", "export": "export a frame"}


def _add_leaf(parser, fn, arguments) -> argparse.ArgumentParser:
    """``parser`` with a leaf's arguments, ``--json`` and handler ``fn``."""
    for name, options in arguments:
        parser.add_argument(name, **options)
    parser.add_argument("--json", action="store_true")
    parser.set_defaults(fn=fn)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The full tree: every command's parser. ``main`` parses with it only
    when argv names no leaf or the leaf's parser leaves tokens over."""
    parser = argparse.ArgumentParser(
        prog="modalwb",
        description="Workbench for finite polymodal Kripke frames.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for words, help, fn, arguments in _LEAVES:
        command, _, leaf = words.partition(" ")
        parent = sub
        if leaf:
            if command not in groups:
                group = sub.add_parser(command, help=_GROUP_HELP[command])
                groups[command] = group.add_subparsers(dest=f"{command}_command", required=True)
            parent = groups[command]
        _add_leaf(parent.add_parser(leaf or command, help=help), fn, arguments)
    return parser


def _parse_leaf(argv):
    """argv parsed by the parser of the leaf whose words start it, as the
    full tree would parse it; None when argv names no leaf or tokens are
    left over, which only the full tree reports."""
    for words, _, fn, arguments in _LEAVES:
        split = words.split()
        if argv[: len(split)] == split:
            parser = _add_leaf(argparse.ArgumentParser(prog="modalwb " + words), fn, arguments)
            args, rest = parser.parse_known_args(argv[len(split):])
            return None if rest else args
    return None


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse_leaf(argv)
        if args is None:
            args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # every command but audit reads a frame file
        frame = _load(args.path) if hasattr(args, "path") else None
        data, code, lines = args.fn(args, frame)
        print(json.dumps(data, sort_keys=True) if args.json else "\n".join(lines))
    except (ValueError, partitions.CapExceeded, frames.PathBudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        words = next(w for w, _, fn, _ in _LEAVES if fn is args.fn)
        print(f"error: modalwb {words} ran out of memory", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
