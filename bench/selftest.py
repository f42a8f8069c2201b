"""Self-test of the benchmark's answer checks: a library that gives wrong
answers must show up as failed ops.

    python3 bench/selftest.py

Patches ``partitions.frame_modal_depth`` to return 0 and
``semantics.validity_bruteforce`` to return True, one at a time, runs the
depth and validity workloads for a few seconds at the default seed and at
one other seed, and requires a fail ratio above 0. The same runs without
the patch must have a fail ratio of 0. Exits with code 1 otherwise.
"""

from __future__ import annotations

import contextlib
import sys
import tempfile

import run

SECONDS = 2.0
OTHER_SEED = 1


@contextlib.contextmanager
def patched(module, name, replacement):
    """Replace a library function under its name in every modalwb module
    that holds it."""
    original = getattr(module, name)
    holders = [
        mod for key, mod in list(sys.modules.items())
        if key.split(".")[0] in ("modalwb", "workloads") and getattr(mod, name, None) is original
    ]
    for mod in holders:
        setattr(mod, name, replacement)
    try:
        yield
    finally:
        for mod in holders:
            setattr(mod, name, original)


def fail_ratio(workload: str, seed: int) -> float:
    from workloads import DEFAULT_SEED, WORKLOADS

    wl = WORKLOADS[workload]
    expected = run.load_expected(workload) if seed == DEFAULT_SEED else None
    run.RESULTS.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.RESULTS) as workdir:
        pool = wl.make_pool(seed)
        wl.prepare(pool, workdir)
        records = run.run_untraced(wl, pool, SECONDS)
        failed, _ = run.verify(wl, pool, records, expected)
    return failed / len(records)


def main() -> int:
    run.add_import_paths()
    from modalwb import partitions, semantics
    from workloads import DEFAULT_SEED

    cases = (
        ("depth", partitions, "frame_modal_depth", lambda *a, **k: 0),
        ("validity", semantics, "validity_bruteforce", lambda *a, **k: True),
    )
    ok = True
    for workload, module, name, wrong in cases:
        for seed in (DEFAULT_SEED, OTHER_SEED):
            clean = fail_ratio(workload, seed)
            with patched(module, name, wrong):
                broken = fail_ratio(workload, seed)
            good = clean == 0 and broken > 0
            ok &= good
            print(f"{workload} seed {seed}: fail_ratio {clean:.3f} as is, "
                  f"{broken:.3f} with {name} patched: {'ok' if good else 'FAILED'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
