"""Benchmark of the modalwb workbench: four seeded workloads, end-to-end
metrics from an untraced run, per-layer metrics from a traced run.

    python3 bench/run.py --workload depth --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload cli --seed 3 --seconds 20 --trace 1
    python3 bench/run.py --record     # rewrite expected.json at the default seed

Closed loop, one client, one process, no threads. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the same result, stamped with the environment,
is written under ``bench/results/``. See ``bench/README.md``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
EXPECTED = HERE / "expected.json"
RESULTS = HERE / "results"

SETUP_REPEATS = 5


def add_import_paths() -> None:
    """Put the library, the test oracles and this directory on sys.path;
    exit with code 2 if the checkout lacks them."""
    for need in (SRC / "modalwb" / "__init__.py", TESTS / "oracles.py"):
        if not need.is_file():
            print(f"error: {need.relative_to(ROOT)} not found; run from a full checkout",
                  file=sys.stderr)
            sys.exit(2)
    for path in (HERE, TESTS, SRC):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def call(wl, item):
    """One op; an exception becomes its answer, which no check accepts."""
    try:
        return wl.op(item)
    except Exception as exc:  # a raising op is a failed op, not a crash
        return f"{type(exc).__name__}: {exc}"


def _import_fresh() -> None:
    """Import the library and the oracles afresh, then put the modules the
    run already uses back in place."""
    def ours(name):
        return name == "oracles" or name.split(".")[0] == "modalwb"

    saved = {name: mod for name, mod in sys.modules.items() if ours(name)}
    for name in saved:
        del sys.modules[name]
    try:
        importlib.import_module("modalwb.cli")
        importlib.import_module("oracles")
    finally:
        for name in [name for name in sys.modules if ours(name)]:
            del sys.modules[name]
        sys.modules.update(saved)


def setup_once(wl, seed: int, workdir: str):
    """One full set-up: importing the library and the oracles afresh, input
    generation, frame files, warm-up ops. Each step is timed like an op,
    between reference kernel samples. Returns (raw s, rescaled s, pool)."""
    state = {}
    steps = [
        _import_fresh,
        lambda: state.update(pool=wl.make_pool(seed)),
        lambda: wl.prepare(state["pool"], workdir),
    ] + [lambda i=i: call(wl, state["pool"][i]) for i in range(wl.warmup)]
    done = timed_ops(wl, lambda _, step: step(), enumerate(steps))
    return sum(r[2] for r in done), sum(r[3] for r in done), state["pool"]


def timed_ops(wl, run_one, items):
    """Run ``run_one`` over ``items`` (an iterable that may stop early), with
    a sample of the workload's reference kernel before each op and after
    the last. Returns [(index, answer, raw s, rescaled s)]."""
    clock = time.perf_counter
    refs = [speed.sample(wl.reference)]
    raw = []
    for idx, item in items:
        t0 = clock()
        answer = run_one(idx, item)
        dt = clock() - t0
        refs.append(speed.sample(wl.reference))
        raw.append((idx, answer, dt))
    return [(idx, answer, dt, dt * f)
            for (idx, answer, dt), f in zip(raw, speed.factors(wl.reference, refs))]


def run_untraced(wl, pool, seconds: float):
    """Closed loop over the pool until ``seconds`` have passed. Returns
    [(pool index, answer, raw s, rescaled s)]."""
    clock = time.perf_counter
    start = clock()

    def items():
        i = 0
        while clock() - start < seconds:
            yield i % len(pool), pool[i % len(pool)]
            i += 1

    return timed_ops(wl, lambda idx, item: call(wl, item), items())


def load_expected(name: str):
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)["workloads"][name]


def verify(wl, pool, records, expected):
    """Failed op count and error messages. ``expected`` holds the committed
    answers (default seed only) or is None."""
    verdicts: dict = {}
    failed = 0
    errors = []
    for idx, answer, *_ in records:
        key = (idx, json.dumps(answer, sort_keys=True))
        if key not in verdicts:
            msg = wl.check(pool[idx], answer)
            if msg is None and expected is not None:
                want = expected["answers"][idx]
                if json.loads(json.dumps(wl.record(answer))) != want:
                    msg = f"answer {wl.record(answer)!r} differs from committed {want!r}"
            verdicts[key] = msg
            if msg is not None:
                errors.append(f"{wl.name} item {idx}: {msg}")
        failed += verdicts[key] is not None
    errors += wl.cross_check(pool, {r[0] for r in records})
    return failed, errors


def drift_errors(wl, seed: int, expected) -> list[str]:
    """Input-drift guard: at the default seed the inputs must be exactly the
    committed ones."""
    if expected is None:
        return []
    from workloads import digest

    errors = []
    pool = wl.make_pool(seed)
    if digest(pool) != expected["pool_digest"]:
        errors.append(f"{wl.name}: inputs differ from the committed pool digest")
    counts = wl.drift_counts(pool)
    if counts != expected["drift"]:
        errors.append(f"{wl.name}: input counts {counts} differ from committed {expected['drift']}")
    return errors


def run_traced(wl, pool, seconds: float):
    """Passes over the first ``trace_ops`` pool items, each op once untraced
    and once traced (the order alternates per pass), until ``seconds`` have
    passed. Returns (per-layer metrics, records, last pass's spans)."""
    import modalwb
    import spans
    import workloads
    from modalwb import audit, cli, definability, frames, partitions, semantics, syntax

    layers = {"syntax": syntax, "frames": frames, "semantics": semantics,
              "partitions": partitions, "definability": definability, "audit": audit,
              "cli": cli}
    tracer = spans.Tracer(layers, modalwb, workloads)
    ops = list(enumerate(pool[: wl.trace_ops]))
    records = []
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        tracer.reset()
        op_s = {}
        for traced in (False, True) if len(passes) % 2 == 0 else (True, False):
            if traced:
                tracer.install()
                run_one = lambda j, item: tracer.run_op(j, lambda it: call(wl, it), item)  # noqa: E731
            else:
                run_one = lambda j, item: call(wl, item)  # noqa: E731
            try:
                done = timed_ops(wl, run_one, ops)
            finally:
                if traced:
                    tracer.uninstall()
            records += done
            op_s[traced] = sum(r[3] for r in done)
            if traced:
                scale = {r[0]: r[3] / r[2] for r in done}
        summary = tracer.summary(scale)
        summary["overhead"] = op_s[True] / op_s[False] - 1
        summary["counts"] = dict(tracer.counts)
        summary["accepted"] = tracer.accepted
        passes.append(summary)
    last = passes[-1]
    med = lambda f: statistics.median(f(p) for p in passes)  # noqa: E731
    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.self_ms"] = (med(lambda p: p["self_ms"][layer]), "ms")
        metrics[f"{layer}.calls"] = (last["calls"][layer], "count")
    for name, value in last["counts"].items():
        metrics[name] = (value, "count")
    draws = last["counts"]["audit.draws"]
    metrics["audit.accept_ratio"] = (last["accepted"] / draws if draws else 0.0, "ratio")
    metrics["trace.op_ms"] = (med(lambda p: p["op_ms"]), "ms")
    metrics["trace.overhead_pct"] = (med(lambda p: 100 * p["overhead"]), "%")
    metrics["trace.unattributed_pct"] = (
        med(lambda p: 100 * p["bench_ms"] / p["op_ms"]), "%")
    base = tracer.spans[0][5] if tracer.spans else 0.0
    span_rows = [[op, sid, parent, name, layer,
                  round((s - base) * 1000, 4), round((e - base) * 1000, 4)]
                 for op, sid, parent, name, layer, s, e in tracer.spans]
    return metrics, records, span_rows


def end_to_end(records, failed: int, setups, col: int) -> dict:
    """End-to-end metrics from the op times in column ``col`` of the
    records (2: raw, 3: rescaled to reference speed)."""
    lat = [r[col] * 1000 for r in records]
    return {
        "ops_per_s": ((len(records) - failed) / (sum(lat) / 1000), "1/s"),
        "op_p50_ms": (statistics.median(lat), "ms"),
        "op_p90_ms": (statistics.quantiles(lat, n=10)[-1], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    add_import_paths()
    from workloads import DEFAULT_SEED, WORKLOADS

    wl = WORKLOADS[workload]
    expected = load_expected(workload) if seed == DEFAULT_SEED else None
    RESULTS.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=RESULTS)
    try:
        setups = []
        first_op_at = None
        for _ in range(SETUP_REPEATS):
            *took, pool = setup_once(wl, seed, workdir)
            setups.append(took)
            first_op_at = first_op_at or time.perf_counter() - PROCESS_START
        if trace:
            metrics, records, span_rows = run_traced(wl, pool, seconds)
        else:
            records = run_untraced(wl, pool, seconds)
        failed, errors = verify(wl, pool, records, expected)
        errors += drift_errors(wl, seed, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(records)
    raw = {}
    if not trace:
        metrics = end_to_end(records, failed, [s[1] for s in setups], 3)
        raw_setups = [s[0] for s in setups]
        raw = {k: v for k, (v, _) in end_to_end(records, failed, raw_setups, 2).items()}
    result = {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    stamp = {
        "workload": workload,
        "trace": int(trace),
        "seconds": seconds,
        "environment": environment(seed),
        "ops": attempted,
        "fail_ratio": failed / attempted,
        "distinct_inputs": len({r[0] for r in records}),
        "setup_runs_s": [s[0] for s in setups],
        "raw_end_to_end": raw,
        "process_start_to_first_op_s": first_op_at,
        "errors": errors[:50],
        "result": result,
    }
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    with open(RESULTS / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(stamp, fh, indent=2, sort_keys=True)
    if trace:
        with open(RESULTS / f"{tag}-spans.json", "w", encoding="utf-8") as fh:
            json.dump({"environment": stamp["environment"],
                       "columns": ["op", "id", "parent", "name", "layer", "start_ms", "end_ms"],
                       "spans": span_rows}, fh)
    for msg in errors[:10]:
        print(msg, file=sys.stderr)
    return result


def record_expected() -> None:
    """Run every pool item once at the default seed, require the independent
    checks and oracle cross-checks to pass, and write expected.json."""
    add_import_paths()
    from workloads import DEFAULT_SEED, WORKLOADS, digest

    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for name, wl in WORKLOADS.items():
        pool = wl.make_pool(DEFAULT_SEED)
        pool_digest = digest(pool)
        RESULTS.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
            wl.prepare(pool, workdir)
            answers = [call(wl, item) for item in pool]
            records = [(i, a, 0.0) for i, a in enumerate(answers)]
            failed, errors = verify(wl, pool, records, None)
        if failed or errors:
            sys.exit(f"error: {name}: {failed} ops failed their checks: {errors[:5]}")
        out["workloads"][name] = {
            "pool_digest": pool_digest,
            "drift": wl.drift_counts(wl.make_pool(DEFAULT_SEED)),
            "answers": [wl.record(a) for a in answers],
        }
        print(f"{name}: {len(pool)} answers recorded", file=sys.stderr)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("depth", "validity", "definability", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite expected.json from the current library")
    args = parser.parse_args(argv)
    if args.record:
        record_expected()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
