"""Polymodal formula language: syntax trees, text grammar, and schema builders.

Formulas are immutable trees over variables ``p0, p1, ...``, falsum, the
Boolean connectives, and one diamond per modality of a finite alphabet.
A box is stored as a flagged diamond node (so it survives printing and
re-parsing); its semantics is the usual dual, not-diamond-not.

The builders at the bottom produce the formula schemas the rest of the
workbench audits: bounded-height axioms, pretransitivity axioms,
reducible-path axioms, lexicographic-sum axioms, and difference-modality
axioms. They share one left fold (``conj``/``disj``) and one bounded box,
the dual of ``diamond_upto``. Large schema instances share subtrees, so
consumers should treat formulas as DAGs (every traversal here is
sharing-aware).
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from functools import partial, reduce
from typing import Iterable, Iterator

VAR_LIMIT = 10**6
# The parser keeps its nesting on explicit stacks, so this bound is an input
# limit, not a stack guard; it stays because README and ``modalwb check``
# promise it.
PAREN_LIMIT = 100

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@dataclass(frozen=True)
class Alphabet:
    """Ordered modality names; the position of a name is its modality id."""

    names: tuple[str, ...]

    def __post_init__(self):
        if isinstance(self.names, str):
            raise TypeError(f"names must be a collection of names, not the str {self.names!r}")
        object.__setattr__(self, "names", tuple(self.names))
        for nm in self.names:
            if not isinstance(nm, str):
                raise TypeError(f"a modality name must be a str, got {nm!r}")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"duplicate modality names: {self.names!r}")
        for nm in self.names:
            if not _NAME_RE.fullmatch(nm):
                raise ValueError(f"invalid modality name {nm!r}")

    def __len__(self):
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def __getitem__(self, i):
        return self.names[i]

    def index(self, name: str) -> int:
        return self.names.index(name)


def default_alphabet(size: int) -> Alphabet:
    """Canonical alphabet d0, d1, ... used when no names are given."""
    return Alphabet(tuple(f"d{i}" for i in range(_nat(size, "size"))))


class Formula:
    """Base class of formula nodes. Nodes are immutable; equality is
    structural. ``==`` and ``hash`` walk the DAG with an explicit stack, so
    neither recurses on deep formulas, and each shared node is visited once."""

    __slots__ = ()

    def __eq__(self, other):
        if not isinstance(other, Formula):
            return NotImplemented
        stack = [(self, other)]
        seen = set()
        while stack:
            f, g = stack.pop()
            if f is g or (id(f), id(g)) in seen:
                continue
            if type(f) is not type(g):
                return False
            seen.add((id(f), id(g)))
            for name in f.__match_args__:
                a, b = getattr(f, name), getattr(g, name)
                if isinstance(a, Formula):
                    stack.append((a, b))
                elif a != b:
                    return False
        return True

    def __hash__(self):
        # the hash of the field tuple, each child standing in by its own hash
        h: dict[int, int] = {}
        for g in iter_nodes(self):
            h[id(g)] = hash(
                tuple(
                    h[id(v)] if isinstance(v, Formula) else v
                    for v in (getattr(g, name) for name in g.__match_args__)
                )
            )
        return h[id(self)]


@dataclass(frozen=True, slots=True, eq=False)
class Var(Formula):
    index: int


@dataclass(frozen=True, slots=True, eq=False)
class Falsum(Formula):
    pass


@dataclass(frozen=True, slots=True, eq=False)
class Neg(Formula):
    child: Formula


@dataclass(frozen=True, slots=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, slots=True, eq=False)
class Dia(Formula):
    """Diamond of one modality; ``boxed=True`` flags the dual (box) reading."""

    mod: int
    child: Formula
    boxed: bool = False


def top() -> Formula:
    return Neg(Falsum())


def box(mod: int, f: Formula) -> Formula:
    return Dia(mod, f, boxed=True)


def conj(parts: Iterable[Formula]) -> Formula:
    """Left-folded conjunction; empty input gives the verum ~false."""
    parts = list(parts)
    return reduce(And, parts) if parts else top()


def disj(parts: Iterable[Formula]) -> Formula:
    """Left-folded disjunction; empty input gives falsum."""
    parts = list(parts)
    return reduce(Or, parts) if parts else Falsum()


def iter_nodes(*roots: Formula) -> Iterator[Formula]:
    """Unique nodes of the formula DAG below the roots, children before
    parents. The roots are walked in order with one ``seen`` set, so a node
    shared by several roots is yielded once."""
    seen = set()
    stack = [(f, False) for f in reversed(roots)]
    while stack:
        g, done = stack.pop()
        if done:
            yield g
            continue
        if id(g) in seen:
            continue
        seen.add(id(g))
        stack.append((g, True))
        if isinstance(g, (Neg, Dia)):
            stack.append((g.child, False))
        elif isinstance(g, (And, Or, Imp)):
            stack.append((g.right, False))
            stack.append((g.left, False))


def _index(v, what: str) -> int:
    """The one rule for an int from outside (a count, an id, a cap or a
    seed): ``operator.index(v)`` that also refuses a bool, which would alias
    0 or 1; its ``TypeError`` names ``what``."""
    if type(v) is int:
        return v
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise TypeError(f"{what} must be an int, got {v!r}")


def variables(f: Formula) -> frozenset[int]:
    return frozenset(_index(g.index, "variable index") for g in iter_nodes(f) if isinstance(g, Var))


def modalities(f: Formula) -> frozenset[int]:
    return frozenset(g.mod for g in iter_nodes(f) if isinstance(g, Dia))


def depth(f: Formula) -> int:
    """Modal depth: the maximal number of nested modalities (boxes count)."""
    d: dict[int, int] = {}
    for g in iter_nodes(f):
        if isinstance(g, (Var, Falsum)):
            d[id(g)] = 0
        elif isinstance(g, Neg):
            d[id(g)] = d[id(g.child)]
        elif isinstance(g, Dia):
            d[id(g)] = 1 + d[id(g.child)]
        else:
            d[id(g)] = max(d[id(g.left)], d[id(g.right)])
    return d[id(f)]


class ParseError(ValueError):
    """Syntax error; ``pos`` is the 1-based offset into the input text."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (offset {pos})")
        self.pos = pos


_LEVEL_IMP, _LEVEL_OR, _LEVEL_AND, _LEVEL_UNARY = 0, 1, 2, 3

# The one operator table of the grammar, read by the parser and the printer:
# infix text, own level, and the levels its left and right operands need.
# A left operand may sit at the operator's own level exactly when the
# operator is left-associative, a right operand when it is right-associative.
_INFIX = {
    And: (" & ", _LEVEL_AND, _LEVEL_AND, _LEVEL_UNARY),
    Or: (" | ", _LEVEL_OR, _LEVEL_OR, _LEVEL_AND),
    Imp: (" -> ", _LEVEL_IMP, _LEVEL_OR, _LEVEL_IMP),
}
_INFIX_OF_TEXT = {op.strip(): cls for cls, (op, *_) in _INFIX.items()}

# One alternative per token kind, each named by its kind; whitespace is
# skipped (unnamed) and any other character is "bad". Names and digits are
# ASCII only.
_TOKEN_RE = re.compile(
    rf"""\s+
    | p(?P<var>[0-9]+)
    | (?P<word>{_NAME_RE.pattern})
    | (?P<infix>{"|".join(re.escape(op) for op in _INFIX_OF_TEXT)})
    | (?P<not>~) | (?P<lparen>\() | (?P<rparen>\))
    | <(?P<dia>{_NAME_RE.pattern})> | \[(?P<box>{_NAME_RE.pattern})\]
    | (?P<bad>.)""",
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind, i = m.lastgroup, m.start()
        if kind is None:
            continue
        val = m.group(kind)
        if kind == "word":
            if val not in ("true", "false"):
                raise ParseError(f"unexpected word {val!r}", i + 1)
            kind = val
        elif kind == "bad":
            if val == "-":
                raise ParseError("expected '->'", i + 1)
            if val in "<[":
                name = _NAME_RE.match(text, i + 1)
                if not name:
                    raise ParseError("expected modality name", i + 2)
                raise ParseError(f"expected {'>' if val == '<' else ']'!r}", name.end() + 1)
            raise ParseError(f"unexpected character {val!r}", i + 1)
        tokens.append((kind, val, i + 1))
    tokens.append(("eof", "", len(text) + 1))
    return tokens


def parse(text: str, alphabet: Alphabet) -> Formula:
    """Parse a formula; raises ParseError with a 1-based offset on bad input.

    Grammar: atoms ``p<digits>``, ``true``, ``false``; prefix ``~``,
    ``<name>``, ``[name]``; infix ``&``, ``|``, ``->`` with precedence
    unary > & > | > -> and right-associative ``->``. Names and digits are
    ASCII. Parentheses nest at most ``PAREN_LIMIT`` deep.
    """
    # One operator-precedence pass over the tokens (Dijkstra's shunting
    # yard) on two explicit stacks, so no input costs Python stack: ``ops``
    # holds prefix builders, "(" marks and infix classes. An atom or a ")"
    # completes an operand, which takes the prefixes in front of it; an
    # infix token first applies the pending infix operators it may not sit
    # under; ")" applies them back to its "(", and "eof", the last token,
    # applies them all.
    args: list[Formula] = []
    ops: list = []
    operand = True  # whether the next token starts an operand
    nesting = 0
    for kind, val, pos in _tokenize(text):
        if operand:
            if kind == "not":
                ops.append(Neg)
                continue
            if kind in ("dia", "box"):
                try:
                    mod = alphabet.index(val)
                except ValueError:
                    raise ParseError(f"unknown modality name {val!r}", pos) from None
                ops.append(partial(Dia, mod, boxed=kind == "box"))
                continue
            if kind == "lparen":
                if nesting == PAREN_LIMIT:
                    raise ParseError(f"parentheses nested deeper than {PAREN_LIMIT}", pos)
                nesting += 1
                ops.append("(")
                continue
            if kind == "var":
                # the length test comes first: int() refuses very long digit strings
                digits = val.lstrip("0") or "0"
                if len(digits) > len(str(VAR_LIMIT)) or int(digits) >= VAR_LIMIT:
                    raise ParseError("variable index overflow", pos)
                args.append(Var(int(digits)))
            elif kind in ("true", "false"):
                args.append(top() if kind == "true" else Falsum())
            else:
                raise ParseError("expected formula", pos)
        else:
            cls = _INFIX_OF_TEXT[val] if kind == "infix" else None
            level = _INFIX[cls][1] if cls else _LEVEL_IMP - 1
            while ops and ops[-1] in _INFIX and level < _INFIX[ops[-1]][3]:
                right = args.pop()
                args.append(ops.pop()(args.pop(), right))
            if cls:
                ops.append(cls)
                operand = True
                continue
            if kind == "rparen" and nesting:
                ops.pop()
                nesting -= 1
            elif nesting:
                raise ParseError("expected ')'", pos)
            elif kind == "eof":
                return args[0]
            else:
                raise ParseError("unexpected trailing input", pos)
        operand = False
        while ops and ops[-1] != "(" and ops[-1] not in _INFIX:
            args.append(ops.pop()(args.pop()))


def print_formula(f: Formula, alphabet: Alphabet | None = None) -> str:
    """Render with minimal parentheses; parse(print_formula(f)) == f."""
    names = None if alphabet is None else alphabet.names

    def name_of(mod):
        mod = _index(mod, "modality id")
        if mod < 0:
            raise ValueError(f"modality id {mod} is negative")
        if names is None:
            return f"d{mod}"
        if mod >= len(names):
            raise ValueError(f"modality id {mod} outside alphabet {names!r}")
        return names[mod]

    # one work list of nodes still to render (with the level their context
    # needs) and literal text, so nesting depth costs no stack
    out: list[str] = []
    todo: list = [(f, _LEVEL_IMP)]
    while todo:
        item = todo.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        g, level = item
        if isinstance(g, Var):
            v = _index(g.index, "variable index")
            if v < 0:
                raise ValueError(f"variable index {v} is negative")
            out.append(f"p{v}")
        elif isinstance(g, Falsum):
            out.append("false")
        elif isinstance(g, Neg):
            out.append("~")
            todo.append((g.child, _LEVEL_UNARY))
        elif isinstance(g, Dia):
            nm = name_of(g.mod)
            out.append(f"[{nm}]" if g.boxed else f"<{nm}>")
            todo.append((g.child, _LEVEL_UNARY))
        elif type(g) in _INFIX:
            op, lv, left_level, right_level = _INFIX[type(g)]
            if lv < level:
                out.append("(")
                todo.append(")")
            todo += [(g.right, right_level), op, (g.left, left_level)]
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)


def _norm_subset(subset) -> tuple[int, ...]:
    out = tuple(sorted({_index(b, "modality id") for b in subset}))
    if any(b < 0 for b in out):
        raise ValueError(f"negative modality id in {out!r}")
    return out


def _nat(v, what: str) -> int:
    """``_index(v, what)`` for a count, which must also be non-negative; its
    ``ValueError`` names ``what`` too."""
    v = _index(v, what)
    if v < 0:
        raise ValueError(f"{what} must be non-negative, got {v}")
    return v


def star_translate(f: Formula, m: int, subset: Iterable[int]) -> Formula:
    """Replace every diamond of a unimodal formula by the bounded
    reachability diamond over ``subset`` (a disjunction of chains of length
    0..m), and every box by its dual."""
    m = _nat(m, "m")
    subset = _norm_subset(subset)
    mods = set()
    out: dict[int, Formula] = {}
    for g in iter_nodes(f):
        if isinstance(g, (Var, Falsum)):
            r = g
        elif isinstance(g, Neg):
            r = Neg(out[id(g.child)])
        elif isinstance(g, Dia):
            mods.add(g.mod)
            r = (_box_upto if g.boxed else _upto)(m, subset, out[id(g.child)])
        else:
            r = type(g)(out[id(g.left)], out[id(g.right)])
        out[id(g)] = r
    if len(mods) > 1:
        raise ValueError(
            f"star translation needs a unimodal formula, found modalities {sorted(mods)}"
        )
    return out[id(f)]


def _union(subset: tuple[int, ...], f: Formula) -> Formula:
    """``diamond_union`` over a subset ``_norm_subset`` has already normalised."""
    return disj([Dia(b, f) for b in subset])


def diamond_union(subset: Iterable[int], f: Formula) -> Formula:
    """Union diamond over a set of modalities; the empty union is falsum."""
    return _union(_norm_subset(subset), f)


def diamond_power(i: int, subset: Iterable[int], f: Formula) -> Formula:
    i = _nat(i, "power")
    subset = _norm_subset(subset)
    for _ in range(i):
        f = _union(subset, f)
    return f


def _upto(m: int, subset: tuple[int, ...], f: Formula) -> Formula:
    """``diamond_upto`` over an m and a subset already checked and normalised."""
    parts = [f]
    for _ in range(m):
        parts.append(_union(subset, parts[-1]))
    return disj(parts)


def diamond_upto(m: int, subset: Iterable[int], f: Formula) -> Formula:
    """Disjunction of union-diamond chains of length 0..m; length 0 is f itself."""
    return _upto(_nat(m, "m"), _norm_subset(subset), f)


def _box_upto(m: int, subset: tuple[int, ...], f: Formula) -> Formula:
    """Bounded box, the dual of ``diamond_upto``: f after every chain of 0..m;
    m and the subset already checked and normalised, as ``_upto`` takes them."""
    return Neg(_upto(m, subset, Neg(f)))


def pretransitivity_axiom(subset: Iterable[int], m: int) -> Formula:
    """Axiom whose frame condition is: m+1 steps collapse into at most m."""
    m = _nat(m, "m")
    subset = _norm_subset(subset)
    return Imp(diamond_power(m + 1, subset, Var(0)), _upto(m, subset, Var(0)))


def finite_height_axiom(h: int) -> Formula:
    """Unimodal bounded-height axiom over modality 0, variables p1..ph.

    Height 0 is falsum; height h is p_h -> [](<>p_h | previous)."""
    h = _nat(h, "h")
    f: Formula = Falsum()
    for i in range(1, h + 1):
        f = Imp(Var(i), box(0, Or(Dia(0, Var(i)), f)))
    return f


def finite_height_axiom_star(h: int, m: int, subset: Iterable[int]) -> Formula:
    """Star-translated bounded-height axiom for m-transitive polymodal frames."""
    return star_translate(finite_height_axiom(h), m, subset)


def reducible_path_axiom(m: int, subset: Iterable[int]) -> Formula:
    """Axiom expressing that every path of m+1 steps has a repeated point or
    a one-step shortcut; variables p0..p(m+1)."""
    m = _nat(m, "m")
    subset = _norm_subset(subset)
    ante: Formula = Var(m + 1)
    for i in range(m, -1, -1):
        ante = And(Var(i), _union(subset, ante))
    parts = []
    for i in range(0, m + 2):
        for j in range(i + 1, m + 2):
            parts.append(diamond_power(i, subset, And(Var(i), Var(j))))
    for i in range(0, m + 1):
        for j in range(i + 1, m + 1):
            parts.append(
                diamond_power(i, subset, And(Var(i), _union(subset, Var(j + 1))))
            )
    return Imp(ante, disj(parts))


def lex_sum_axioms(vertical: Iterable[int], horizontal: Iterable[int]) -> tuple[Formula, ...]:
    """The three interaction axioms of lexicographic sums, per modality pair:
    vertical absorbs horizontal on either side, and vertical reach is stable
    under horizontal steps."""
    v_ = _norm_subset(vertical)
    h_ = _norm_subset(horizontal)
    if set(v_) & set(h_):
        raise ValueError("vertical and horizontal modality sets overlap")
    p = Var(0)
    out = []
    for v in v_:
        for h in h_:
            dv = Dia(v, p)
            out.append(Imp(Dia(h, dv), dv))
            out.append(Imp(Dia(v, Dia(h, p)), dv))
            out.append(Imp(dv, box(h, dv)))
    return tuple(out)


def difference_axioms(diff: int, others: Iterable[int] = ()) -> tuple[Formula, ...]:
    """Axioms of the difference modality ``diff``: symmetry, weak
    transitivity, and inclusion of every other modality into diff-or-here."""
    diff = _nat(diff, "diff")
    others = _norm_subset(others)
    if diff in others:
        raise ValueError("difference modality listed among the others")
    p = Var(0)
    dd = Dia(diff, p)
    out = [
        Imp(p, box(diff, dd)),
        Imp(Dia(diff, dd), Or(dd, p)),
    ]
    out.extend(Imp(Dia(d, p), Or(dd, p)) for d in others)
    return tuple(out)


# each kind's parameters are its builder's, except that the schema calls f formula
_SCHEMAS = {
    "diamond_union": lambda subset, formula: diamond_union(subset, formula),
    "diamond_upto": lambda m, subset, formula: diamond_upto(m, subset, formula),
    "atr": pretransitivity_axiom,
    "B": finite_height_axiom,
    "B_star": finite_height_axiom_star,
    "Rm": reducible_path_axiom,
    "phi_lex": lex_sum_axioms,
    "diff_axioms": difference_axioms,
}


def build_schema(kind: str, **params):
    """Named entry point for every schema; equal parameters always yield
    structurally equal output."""
    try:
        builder = _SCHEMAS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise ValueError(f"unknown schema kind {kind!r}") from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise ValueError(f"invalid parameters for schema {kind!r}: {exc}") from None
