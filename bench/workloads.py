"""The four workloads: seeded inputs, the op each input is fed to, and the
checks of each op's answer.

Inputs come from the benchmark's own ``random.Random(seed)``, never from
``modalwb.audit``'s generators, so a change to the library's RNG use cannot
change them. An input is plain data (point count and pair lists); the op
builds the ``Frame`` itself, because users pay that cost once per frame.

Every workload has a fixed schedule of input shapes that its pool cycles
through, so any prefix of the pool has the same mix; the seed only draws the
relations, valuations and upsets.

Checks: at ``DEFAULT_SEED`` each answer must equal the committed one in
``expected.json``. At every seed the answer must also pass the independent
check of its workload (the relational side, a sampled lower bound, the
reports' ``ok()``, or the library API computing the CLI's output).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random

from modalwb import audit, cli, definability, frames, partitions, semantics, syntax
from modalwb.frames import Frame
from modalwb.semantics import Model
from modalwb.syntax import Alphabet

import oracles
from spans import bell

DEFAULT_SEED = 0

# Largest valuation space 2^(k*n) one validity op may enumerate.
VALUATION_CAP = 1 << 12


# -- the benchmark's own constructors (timed as frames / semantics) --------


def build_frame(n: int, rels, prefix: str = "d") -> Frame:
    names = tuple(f"{prefix}{i}" for i in range(len(rels)))
    return Frame(Alphabet(names), n, rels)


def build_model(frame: Frame, valuation) -> Model:
    return Model(frame, len(valuation), valuation)


# -- relation helpers, independent of the library ------------------------


def _rows(n, pairs):
    rows = [0] * n
    for a, b in pairs:
        rows[a] |= 1 << b
    return rows


def _closure(rows, reflexive=False):
    n = len(rows)
    rows = list(rows)
    if reflexive:
        for a in range(n):
            rows[a] |= 1 << a
    for k in range(n):
        for a in range(n):
            if rows[a] >> k & 1:
                rows[a] |= rows[k]
    return rows


def _pairs(rows):
    return [[a, b] for a in range(len(rows)) for b in range(len(rows)) if rows[a] >> b & 1]


def _random_rel(rng, n, density, shape="any"):
    pairs = [[a, b] for a in range(n) for b in range(n) if rng.random() < density]
    if shape == "preorder":
        return _pairs(_closure(_rows(n, pairs), reflexive=True))
    if shape == "wk4":
        closed = _pairs(_closure(_rows(n, pairs)))
        return [[a, b] for a, b in closed if a != b or rng.random() < 0.5]
    return pairs


def _union_rows(n, rels):
    rows = [0] * n
    for rel in rels:
        for a, r in enumerate(_rows(n, rel)):
            rows[a] |= r
    return rows


def _trans_index(n, rels):
    """Least m with R^(m+1) inside R^0 | ... | R^m, for the union R."""
    base = _union_rows(n, rels)
    upto = [1 << a for a in range(n)]
    power = list(base)
    for m in range(n + 1):
        if all(power[a] & ~upto[a] == 0 for a in range(n)):
            return m
        upto = [u | p for u, p in zip(upto, power)]
        power = [_image(base, p) for p in power]
    raise AssertionError("n+1 steps always collapse")


def _image(rows, mask):
    out = 0
    for b, r in enumerate(rows):
        if mask >> b & 1:
            out |= r
    return out


def _height(n, rels):
    """Longest chain of clusters of the union relation."""
    star = _closure(_union_rows(n, rels), reflexive=True)
    cluster = {a: sum(1 << b for b in range(n) if star[a] >> b & star[b] >> a & 1) for a in range(n)}
    memo = {}

    def chain(a):
        if a not in memo:
            above = {min(_bits(cluster[b])) for b in _bits(star[a] & ~cluster[a])}
            memo[a] = 1 + max((chain(b) for b in above), default=0)
        return memo[a]

    return max((chain(a) for a in range(n)), default=0)


def _bits(mask):
    return [p for p in range(mask.bit_length()) if mask >> p & 1]


def _path_reducible(n, rels, m):
    """True iff no path x0 R x1 ... R x(m+1) of distinct points has a
    forward shortcut-free shape (no xi R xj with j >= i + 2)."""
    rows = _union_rows(n, rels)

    def violating(path):
        if len(path) == m + 2:
            return True
        for b in _bits(rows[path[-1]]):
            if b not in path and not any(rows[a] >> b & 1 for a in path[:-1]):
                if violating(path + [b]):
                    return True
        return False

    return not any(violating([a]) for a in range(n))


def _upset(n, rels, seeds):
    star = _closure(_union_rows(n, rels), reflexive=True)
    mask = 0
    for p in seeds:
        mask |= star[p]
    return [p for p in range(n) if mask >> p & 1]


def _frame_data(rng, n, mods, density, shape="any"):
    return {"n": n, "rels": [_random_rel(rng, n, density, shape) for _ in range(mods)]}


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


class Workload:
    name = ""
    pool_size = 0
    trace_ops = 0  # ops per traced pass: the first ``trace_ops`` pool items
    reference = "arith"  # the speed.KERNELS entry whose slowdown matches the op's
    warmup = 3

    def make_pool(self, seed: int) -> list:
        rng = random.Random(f"{self.name}:{seed}")
        return [self.make_item(rng, i) for i in range(self.pool_size)]

    def make_item(self, rng, i: int) -> dict:
        raise NotImplementedError

    def prepare(self, pool: list, workdir: str) -> None:
        """Write any files the ops read (only the CLI workload has some)."""

    def op(self, item):
        raise NotImplementedError

    def record(self, answer):
        """The JSON form of an answer, as committed in ``expected.json``."""
        return answer

    def check(self, item, answer) -> str | None:
        """Independent check of one answer; a message if it is wrong."""
        raise NotImplementedError

    def cross_check(self, pool, indices) -> list[str]:
        """Oracle comparisons over a sample of the items that ran."""
        return []

    def drift_counts(self, pool) -> dict:
        return {"frames.points": sum(item["n"] for item in pool)}


# -- depth ------------------------------------------------------------------


class Depth(Workload):
    name = "depth"
    pool_size = 256
    trace_ops = 40
    N = 7
    # (shape, modalities, density), cycled through by the pool
    SHAPES = (
        ("any", 1, 0.2), ("any", 1, 0.35), ("any", 1, 0.5),
        ("any", 2, 0.2), ("any", 2, 0.35), ("any", 2, 0.5),
        ("preorder", 1, 0.2), ("wk4", 1, 0.25),
    )
    LOWER_SAMPLES = 24

    def make_item(self, rng, i):
        shape, mods, density = self.SHAPES[i % len(self.SHAPES)]
        return _frame_data(rng, self.N, mods, density, shape)

    def op(self, item):
        frame = build_frame(item["n"], item["rels"])
        return partitions.frame_modal_depth(frame)

    def check(self, item, answer):
        if not isinstance(answer, int):
            return f"raised {answer}"
        frame = build_frame(item["n"], item["rels"])
        n = frame.n
        # lower bound: stabilization index of sampled seed partitions
        rng = random.Random(digest(item))
        lower = 0
        for _ in range(self.LOWER_SAMPLES):
            labels = [rng.randrange(n) for _ in range(n)]
            blocks = {}
            for p, l in enumerate(labels):
                blocks.setdefault(l, set()).add(p)
            lower = max(lower, partitions.refine_sequence(frame, blocks.values())[1])
        if answer < lower:
            return f"depth {answer} below a sampled seed partition's index {lower}"
        upper = n - 1
        clusters = frames.cluster_frames(frame)
        if len(clusters) > 1:
            m = frames.transitivity_index(frame)
            dhat = max(partitions.frame_modal_depth(c) for c in clusters) + m + 1
            upper = min(upper, audit.cluster_depth_bound(dhat, m, frames.height(frame)))
        if answer > upper:
            return f"depth {answer} above the bound {upper}"
        return None

    def drift_counts(self, pool):
        return super().drift_counts(pool) | {
            "partitions.set_partitions": sum(bell(item["n"]) for item in pool)
        }


# -- validity ---------------------------------------------------------------


class Validity(Workload):
    name = "validity"
    pool_size = 400
    trace_ops = 60
    # (axiom, points, modalities, density, h, m, verdict): every frame is
    # drawn until its verdict is the scheduled one, so the mix of full
    # enumerations (valid) and early exits (invalid) does not vary by seed
    SHAPES = (
        ("atr", 5, 1, 0.35, None, 1, False),
        ("atr", 5, 2, 0.3, None, 2, True),
        ("atr", 5, 2, 0.3, None, 2, True),
        ("height", 4, 1, 0.35, 2, 2, False),
        ("diff", 6, 1, 0.35, None, None, True),
        ("lex", 3, 1, 0.4, None, None, True),
        ("rpp", 4, 1, 0.35, None, 1, False),
        ("rpp", 3, 2, 0.3, None, 1, False),
    ) + (("height", 4, 1, 0.3, 2, 2, True),) * 6 + (
        ("height", 3, 2, 0.3, 3, 2, True),
        ("height", 3, 2, 0.3, 3, 2, True),
    ) + (("rpp", 4, 1, 0.3, None, 1, True),) * 4

    def make_item(self, rng, i):
        kind, n, mods, density, h, m, verdict = self.SHAPES[i % len(self.SHAPES)]
        if kind == "lex":
            sizes = [rng.randint(1, 2) for _ in range(n)]
            return {
                "kind": kind,
                "n": n,
                "rels": [_random_rel(rng, n, density)],
                "fibers": [{"n": s, "rels": [_random_rel(rng, s, density)]} for s in sizes],
            }
        while True:
            data = _frame_data(rng, n, mods, density)
            rels = data["rels"]
            if kind == "atr":
                valid = _trans_index(n, rels) <= m
            elif kind == "height":
                # the bounded-height correspondence needs m >= transitivity index
                if _trans_index(n, rels) > m:
                    continue
                valid = _height(n, rels) <= h
            elif kind == "rpp":
                valid = _path_reducible(n, rels, m)
            else:
                valid = True
            if valid == verdict:
                return data | {"kind": kind, "h": h, "m": m}

    def _frame_and_axioms(self, item):
        kind = item["kind"]
        frame = build_frame(item["n"], item["rels"])
        mods = tuple(range(len(item["rels"])))
        if kind == "atr":
            return frame, [syntax.pretransitivity_axiom(mods, item["m"])]
        if kind == "height":
            return frame, [syntax.finite_height_axiom_star(item["h"], item["m"], mods)]
        if kind == "rpp":
            return frame, [syntax.reducible_path_axiom(item["m"], mods)]
        if kind == "diff":
            expanded = frames.expand(frame, "difference")
            return expanded, list(syntax.difference_axioms(len(mods), mods))
        index = build_frame(item["n"], item["rels"], prefix="v")
        fibers = [build_frame(f["n"], f["rels"], prefix="h") for f in item["fibers"]]
        total = frames.lex_sum(index, fibers)
        return total, list(syntax.lex_sum_axioms([0], [1]))

    def op(self, item):
        frame, axioms = self._frame_and_axioms(item)
        valid = all(
            semantics.validity_bruteforce(frame, ax, cap=VALUATION_CAP) for ax in axioms
        )
        kind = item["kind"]
        if kind == "atr":
            relational = frames.transitivity_index(frame) <= item["m"]
        elif kind == "height":
            relational = frames.height(frame) <= item["h"]
        elif kind == "rpp":
            relational = frames.is_path_reducible(frame, item["m"])
        else:  # difference expansions and lexicographic sums validate their axioms
            relational = True
        return [valid, relational]

    def check(self, item, answer):
        if not isinstance(answer, list):
            return f"raised {answer}"
        valid, relational = answer
        if valid != relational:
            return f"{item['kind']} verdict {valid} but relational side {relational}"
        return None

    def drift_counts(self, pool):
        nodes = space = 0
        for item in pool:
            frame, axioms = self._frame_and_axioms(item)
            for ax in axioms:
                nodes += sum(1 for _ in syntax.iter_nodes(ax))
                space += (1 << frame.n) ** len(syntax.variables(ax))
        points = sum(item["n"] + sum(f["n"] for f in item.get("fibers", ())) for item in pool)
        return {
            "frames.points": points,
            "syntax.formula_nodes": nodes,
            "semantics.valuation_space": space,
        }


# -- definability -----------------------------------------------------------


class Definability(Workload):
    name = "definability"
    pool_size = 400
    trace_ops = 60
    reference = "mixed"
    # (points, variables, upset size): the cost of an op grows with all
    # three, so frames are drawn until the upset has the scheduled size
    SHAPES = (
        (6, 0, 6), (7, 1, 7), (8, 2, 8), (6, 1, 6), (7, 2, 7), (8, 0, 8),
        (6, 2, 6), (7, 0, 7), (8, 1, 8), (6, 1, 4), (7, 1, 5), (8, 1, 6),
    )
    DENSITY = 0.3
    ORACLE_EVERY = 16

    def make_item(self, rng, i):
        n, k, size = self.SHAPES[i % len(self.SHAPES)]
        while True:
            data = _frame_data(rng, n, 1, self.DENSITY)
            upset = _upset(n, data["rels"], [rng.randrange(n)])
            if len(upset) == size:
                break
        valuation = [[p for p in range(n) if rng.random() < 0.5] for _ in range(k)]
        return data | {"valuation": valuation, "upset": upset}

    def _model(self, item):
        return build_model(build_frame(item["n"], item["rels"]), item["valuation"])

    def op(self, item):
        model = self._model(item)
        rep = definability.verify_definability(model, item["upset"])
        z, cap, top = definability.stable_top(model, item["upset"])
        return [rep.ok(), rep.pairs_checked, rep.max_beta_depth, rep.depth_limit,
                top.ok(), sorted(z), cap]

    def check(self, item, answer):
        if not isinstance(answer, list):
            return f"raised {answer}"
        if not (answer[0] and answer[4]):
            return f"definability report ok={answer[0]}, stable top ok={answer[4]}"
        return None

    def cross_check(self, pool, indices):
        errors = []
        for i in sorted(indices)[:: self.ORACLE_EVERY]:
            model = self._model(pool[i])
            _, _, beta = definability.build_jankov(model, pool[i]["upset"])
            for a, f in beta.items():
                if semantics.extent(model, f) != oracles.naive_extent(model, f):
                    errors.append(f"item {i}: extent of beta({a}) differs from naive_extent")
        return errors

    def drift_counts(self, pool):
        blocks = 0
        for item in pool:
            model = self._model(item)
            blocks += len(partitions.refine_sequence(model.frame, model.valuation)[0][-1])
        return super().drift_counts(pool) | {"partitions.final_blocks": blocks}


# -- cli --------------------------------------------------------------------


class Cli(Workload):
    name = "cli"
    pool_size = 400
    trace_ops = 40
    FORMULAS = (
        "<d0><d0>p0 -> <d0>p0 | p0",
        "p0 -> <d0>p0",
        "[d0]p0 -> p0",
        "p1 -> [d0](<d0>p1 | (p0 -> [d0]<d0>p0))",
    )
    # suites whose cost hardly depends on the seed
    AUDITS = (
        ("tuned-equivalences", 10),
        ("atr-correspondence", 5),
        ("lex-phi", 3),
        ("diff-axioms", 3),
        ("byrd-frame", 3),
    )
    # (command, points, modalities), cycled through by the pool
    SHAPES = (
        ("info", 7, 2), ("md", 6, 1), ("check", 3, 1), ("count1", 5, 1),
        ("dot", 7, 1), ("tune", 8, 2), ("audit", None, None), ("sample", 10, 1),
        ("info", 8, 1), ("check", 4, 1), ("count2", 3, 1), ("audit", None, None),
        ("dot", 8, 2), ("md", 6, 2), ("tune", 7, 1), ("audit", None, None),
        ("count1", 2, 1), ("check", 3, 1), ("md", 6, 1), ("info", 6, 1),
    )
    DENSITY = 0.35
    SAMPLE_TRIALS = 60
    ORACLE_MAX = 64  # counts the vector oracle can enumerate

    def make_item(self, rng, i):
        cmd, n, mods = self.SHAPES[i % len(self.SHAPES)]
        seed = rng.randrange(1000)
        if cmd == "audit":
            suite, trials = self.AUDITS[(i // len(self.SHAPES)) % len(self.AUDITS)]
            return {"cmd": cmd, "n": 0, "suite": suite, "trials": trials, "seed": seed}
        item = _frame_data(rng, n, mods, self.DENSITY) | {"cmd": cmd, "seed": seed}
        if cmd == "check":
            item["formula"] = self.FORMULAS[rng.randrange(len(self.FORMULAS))]
        if cmd == "tune":
            item["sets"] = [sorted(rng.sample(range(n), rng.randint(1, n - 1))) for _ in range(2)]
        return item

    def prepare(self, pool, workdir):
        for i, item in enumerate(pool):
            if item["cmd"] != "audit":
                path = os.path.join(workdir, f"frame{i}.json")
                frames.dump_frame(build_frame(item["n"], item["rels"]), path)
                item["path"] = path

    @staticmethod
    def argv(item):
        cmd = item["cmd"]
        if cmd == "audit":
            return ["audit", item["suite"], "--trials", str(item["trials"]),
                    "--seed", str(item["seed"]), "--json"]
        path = item["path"]
        return {
            "info": ["frame", "info", path],
            "md": ["frame", "md", path],
            "sample": ["frame", "md", path, "--sample", str(Cli.SAMPLE_TRIALS),
                       "--seed", str(item["seed"])],
            "check": ["check", path, item.get("formula", "")],
            "count1": ["count", path, "-k", "1"],
            "count2": ["count", path, "-k", "2"],
            "tune": ["tune", path, "--sets", json.dumps(item.get("sets"))],
            "dot": ["export", "dot", path],
        }[cmd] + ["--json"]

    def op(self, item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv(item))
        return [code, out.getvalue()]

    def record(self, answer):
        code, text = answer
        return [code, hashlib.sha256(text.encode()).hexdigest()]

    def expected_output(self, item):
        """The (exit code, stdout) the CLI must produce, from the library API."""
        cmd = item["cmd"]
        if cmd == "audit":
            return None
        frame = build_frame(item["n"], item["rels"])
        code = 0
        if cmd == "info":
            try:
                reducible = frames.is_path_reducible(frame, frames.transitivity_index(frame))
            except frames.PathBudgetExceeded:
                reducible = None
            data = {
                "points": frame.n,
                "alphabet": list(frame.alphabet.names),
                "transitivity_index": frames.transitivity_index(frame),
                "height": frames.height(frame),
                "clusters": len(frames.skeleton(frame).clusters),
                "path_reducible_at_index": reducible,
            }
        elif cmd == "md":
            data = {"modal_depth": partitions.frame_modal_depth(frame), "mode": "exact"}
        elif cmd == "sample":
            md = partitions.frame_modal_depth(
                frame, mode="sampled", trials=self.SAMPLE_TRIALS, seed=item["seed"]
            )
            data = {"modal_depth": md, "mode": "sampled"}
        elif cmd == "check":
            valid = semantics.validity_bruteforce(
                frame, syntax.parse(item["formula"], frame.alphabet)
            )
            data = {"formula": item["formula"], "valid": valid}
            code = 0 if valid else 1
        elif cmd in ("count1", "count2"):
            data = {"k": int(cmd[-1]), "count": partitions.count_k_formulas(frame, int(cmd[-1]))}
        elif cmd == "tune":
            base = partitions.induced_partition(frame.n, item["sets"])
            refined = partitions.coarsest_tuned_refinement(frame, base)
            data = {
                "blocks": [sorted(b) for b in refined.blocks],
                "birth_stages": list(refined.birth) if refined.birth else [],
                "tuned": partitions.is_tuned(frame, refined),
            }
        else:
            data = {"dot": frames.to_dot(frame)}
        return [code, json.dumps(data, sort_keys=True) + "\n"]

    def check(self, item, answer):
        if not isinstance(answer, list):
            return f"raised {answer}"
        code, text = answer
        if item["cmd"] == "audit":
            try:
                report = json.loads(text)
            except ValueError:
                return f"audit output is not JSON: {text[:80]!r}"
            want = (item["suite"], item["seed"], item["trials"], item["trials"], [])
            got = tuple(report.get(k) for k in ("suite", "seed", "trials", "passes", "failures"))
            if code != 0 or got != want:
                return f"audit exit {code}, report {got} instead of {want}"
            return None
        expected = self.expected_output(item)
        if answer != expected:
            return f"{item['cmd']} gave {answer!r}, expected {expected!r}"
        return None

    def cross_check(self, pool, indices):
        errors = []
        for i in sorted(indices):
            item = pool[i]
            if item["cmd"] not in ("count1", "count2"):
                continue
            frame = build_frame(item["n"], item["rels"])
            k = int(item["cmd"][-1])
            count = partitions.count_k_formulas(frame, k)
            if count <= self.ORACLE_MAX and count != oracles.formula_count_oracle(frame, k):
                errors.append(f"item {i}: count {count} differs from formula_count_oracle")
        return errors

    def drift_counts(self, pool):
        return {
            "frames.points": sum(item["n"] for item in pool),
            "partitions.set_partitions": sum(
                bell(item["n"]) for item in pool if item["cmd"] == "md"
            ),
        }


WORKLOADS = {w.name: w for w in (Depth(), Validity(), Definability(), Cli())}
