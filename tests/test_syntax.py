import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modalwb import semantics
from modalwb.frames import Frame
from modalwb.syntax import (
    _INFIX,
    _INFIX_OF_TEXT,
    _LEVEL_IMP,
    PAREN_LIMIT,
    VAR_LIMIT,
    Alphabet,
    And,
    Dia,
    Falsum,
    Imp,
    Neg,
    Or,
    ParseError,
    Var,
    _tokenize,
    box,
    build_schema,
    default_alphabet,
    depth,
    diamond_union,
    diamond_upto,
    difference_axioms,
    finite_height_axiom,
    finite_height_axiom_star,
    iter_nodes,
    lex_sum_axioms,
    parse,
    pretransitivity_axiom,
    print_formula,
    reducible_path_axiom,
    star_translate,
    top,
    variables,
)

import oracles

AL1 = default_alphabet(1)
AL2 = default_alphabet(2)


def test_alphabet_rejects_duplicates():
    with pytest.raises(ValueError):
        Alphabet(("d0", "d0"))


def test_alphabet_empty_is_legal():
    assert len(Alphabet(())) == 0


def test_parse_implication():
    assert parse("<d0>p0 -> p1", AL2) == Imp(Dia(0, Var(0)), Var(1))


def test_parse_box_is_sugar_on_diamond():
    assert parse("[d0]~p0", AL1) == Dia(0, Neg(Var(0)), boxed=True)


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("p0 &", AL1)
    assert err.value.pos == 5


def test_parse_unknown_modality():
    with pytest.raises(ParseError, match="unknown modality"):
        parse("<d9>p0", AL1)


def test_parse_variable_overflow():
    with pytest.raises(ParseError, match="overflow"):
        parse("p99999999", AL1)


def test_parse_precedence_and_associativity():
    assert parse("p0 & p1 & p2", AL1) == And(And(Var(0), Var(1)), Var(2))
    assert parse("p0 | p1 & p2", AL1) == Or(Var(0), And(Var(1), Var(2)))
    assert parse("p0 -> p1 -> p2", AL1) == Imp(Var(0), Imp(Var(1), Var(2)))
    assert parse("~<d0>p0 & p1", AL1) == And(Neg(Dia(0, Var(0))), Var(1))
    assert parse("true", AL1) == top()


@pytest.mark.parametrize(
    "text",
    ["~" * 3000 + "p0", "<d0>" * 3000 + "p0", " -> ".join(f"p{i}" for i in range(3000))],
    ids=["negations", "diamonds", "implications"],
)
def test_print_formula_long_chains(text):
    # compared as strings; test_formula_eq_and_hash_long_chains checks == and hash
    assert print_formula(parse(text, AL1)) == text


@pytest.mark.parametrize(
    "text",
    ["~" * 3000 + "p0", "<d0>" * 3000 + "p0", " -> ".join(f"p{i}" for i in range(3000))],
    ids=["negations", "diamonds", "implications"],
)
def test_formula_eq_and_hash_long_chains(text):
    f, g = parse(text, AL1), parse(text, AL1)
    assert f == g and hash(f) == hash(g)
    assert f != parse(text.replace("p0", "p1", 1), AL1)


def test_formula_eq_and_hash_visit_shared_nodes_once():
    # 2**200 paths through 201 distinct nodes
    f, g = Var(0), Var(0)
    for _ in range(200):
        f, g = And(f, f), And(g, g)
    assert f == g and hash(f) == hash(g)
    assert f != Or(f.left, f.right)


def test_parse_nesting_limits():
    # prefix and implication chains cost no stack; parentheses are capped
    assert depth(parse("<d0>" * 5000 + "~p0", AL1)) == 5000
    f = parse("p0 -> " * 5000 + "p1", AL1)
    for _ in range(5000):
        assert f.left == Var(0)
        f = f.right
    assert f == Var(1)
    deepest = "(" * PAREN_LIMIT + "p0" + ")" * PAREN_LIMIT
    assert parse(deepest, AL1) == Var(0)
    with pytest.raises(ParseError, match="nested deeper") as err:
        parse("(" + deepest + ")", AL1)
    assert err.value.pos == PAREN_LIMIT + 1


@pytest.mark.parametrize(
    "text, message, pos",
    [
        ("\u00e9", "unexpected character '\u00e9'", 1),
        ("p\u00b2", "unexpected word 'p'", 1),
        ("p\u0663", "unexpected word 'p'", 1),
        ("p1\u00b2", "unexpected character '\u00b2'", 3),
        ("<d\u00e9>p0", "expected '>'", 3),
    ],
)
def test_parse_names_and_digits_are_ascii(text, message, pos):
    with pytest.raises(ParseError, match=message) as err:
        parse(text, AL1)
    assert err.value.pos == pos


def test_parse_long_digit_strings():
    # longer than int() converts by default
    assert parse("p" + "0" * 5000 + "7", AL1) == Var(7)
    with pytest.raises(ParseError, match="overflow"):
        parse("p" + "9" * 5000, AL1)


@settings(max_examples=500, deadline=None)
@given(st.text())
def test_parse_raises_only_parse_error(text):
    try:
        parse(text, AL2)
    except ParseError:
        pass


def test_parse_whitespace_flexible():
    assert parse("p0&p1->~p2", AL1) == parse("p0 & p1  ->   ~ p2", AL1)


def test_print_examples():
    assert print_formula(Falsum()) == "false"
    assert print_formula(Dia(0, Var(2))) == "<d0>p2"
    nested = box(0, box(1, Var(0)))
    assert parse(print_formula(nested, AL2), AL2) == nested


def test_print_rejects_modality_ids_outside_the_alphabet():
    # a negative id must not alias the last name, nor print as "<d-1>",
    # which parse rejects
    for alphabet in (None, AL2):
        with pytest.raises(ValueError, match="modality id -1 is negative"):
            print_formula(Dia(-1, Var(0)), alphabet)
    with pytest.raises(ValueError, match="modality id 2 outside alphabet"):
        print_formula(box(2, Var(0)), AL2)


def test_print_rejects_negative_variable_indices():
    # "p-1" would not parse back
    for alphabet in (None, AL2):
        with pytest.raises(ValueError, match="variable index -1 is negative"):
            print_formula(Dia(0, Var(-1)), alphabet)


@pytest.mark.parametrize("mod", [True, 0.5], ids=["bool", "float"])
def test_print_rejects_modality_ids_that_are_not_ints(mod):
    # Dia(True, p0) would print as "<dTrue>p0" and Dia(0.5, p0) as
    # "<d0.5>p0", neither of which parses back
    for alphabet in (None, AL2):
        with pytest.raises(TypeError, match=rf"^modality id must be an int, got {mod!r}$"):
            print_formula(Dia(mod, Var(0)), alphabet)


@pytest.mark.parametrize("index", [1.5, True, "1"])
def test_variable_indices_that_are_not_ints_are_rejected(index):
    # Var(1.5) would print as "p1.5" and Var(True) as "pTrue"
    with pytest.raises(TypeError, match="variable index must be an int"):
        print_formula(Dia(0, Var(index)))
    with pytest.raises(TypeError, match="variable index must be an int"):
        variables(Var(index))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Alphabet(("0d",)), ValueError, "invalid modality name '0d'"),
        (lambda: diamond_union([-1], Var(0)), ValueError, "negative modality id"),
        (lambda: difference_axioms(1, [0, 1]), ValueError, "difference modality listed"),
        (lambda: parse("(p0", AL1), ParseError, r"expected '\)' \(offset 4\)"),
        (lambda: print_formula(Neg(object())), TypeError, "not a formula"),
    ],
    ids=["bad-name", "negative-mod", "diff-among-others", "unclosed-paren", "not-a-formula"],
)
def test_syntax_rejects_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_print_parse_identity_on_canonical_text():
    for text in ["p0 & p1 -> <d0>p2 | false", "[d0](p0 -> p1)", "~~p0", "(p0 | p1) & p2"]:
        assert print_formula(parse(text, AL2), AL2) == text


@st.composite
def formulas(draw, max_size=30, mods=2, vars_=4):
    size = draw(st.integers(1, max_size))

    def build(budget):
        if budget <= 1:
            return draw(st.sampled_from([Var(draw(st.integers(0, vars_ - 1))), Falsum()]))
        kind = draw(st.sampled_from(["var", "neg", "and", "or", "imp", "dia", "box"]))
        if kind == "var":
            return Var(draw(st.integers(0, vars_ - 1)))
        if kind in ("neg", "dia", "box"):
            child = build(budget - 1)
            if kind == "neg":
                return Neg(child)
            return Dia(draw(st.integers(0, mods - 1)), child, boxed=(kind == "box"))
        left = build(budget // 2)
        right = build(budget - budget // 2)
        return {"and": And, "or": Or, "imp": Imp}[kind](left, right)

    return build(size)


@settings(max_examples=1000, deadline=None)
@given(formulas())
def test_parse_print_round_trip(f):
    assert parse(print_formula(f, AL2), AL2) == f


class _RecursiveParser:
    """The recursive-descent parser that the one-pass ``parse`` replaced,
    kept (less its comments and annotations) as its differential
    reference: parentheses recurse through formula, unary and atom."""

    def __init__(self, tokens, alphabet):
        self.toks = tokens
        self.i = 0
        self.alphabet = alphabet
        self.nesting = 0

    def peek(self):
        return self.toks[self.i]

    def take(self):
        t = self.toks[self.i]
        self.i += 1
        return t

    def formula(self):
        args = [self.unary()]
        ops = []
        while True:
            kind, val, _ = self.peek()
            cls = _INFIX_OF_TEXT[val] if kind == "infix" else None
            level = _INFIX[cls][1] if cls else _LEVEL_IMP - 1
            while ops and level < _INFIX[ops[-1]][3]:
                right = args.pop()
                args.append(ops.pop()(args.pop(), right))
            if cls is None:
                return args[0]
            self.take()
            ops.append(cls)
            args.append(self.unary())

    def unary(self):
        prefixes = []
        while True:
            kind, val, pos = self.peek()
            if kind == "not":
                prefixes.append(None)
            elif kind in ("dia", "box"):
                try:
                    prefixes.append((self.alphabet.index(val), kind == "box"))
                except ValueError:
                    raise ParseError(f"unknown modality name {val!r}", pos) from None
            else:
                break
            self.take()
        f = self.atom()
        for prefix in reversed(prefixes):
            f = Neg(f) if prefix is None else Dia(prefix[0], f, boxed=prefix[1])
        return f

    def atom(self):
        kind, val, pos = self.take()
        if kind == "var":
            digits = val.lstrip("0") or "0"
            if len(digits) > len(str(VAR_LIMIT)) or int(digits) >= VAR_LIMIT:
                raise ParseError("variable index overflow", pos)
            return Var(int(digits))
        if kind == "false":
            return Falsum()
        if kind == "true":
            return top()
        if kind == "lparen":
            if self.nesting == PAREN_LIMIT:
                raise ParseError(f"parentheses nested deeper than {PAREN_LIMIT}", pos)
            self.nesting += 1
            f = self.formula()
            self.nesting -= 1
            k2, _, pos2 = self.take()
            if k2 != "rparen":
                raise ParseError("expected ')'", pos2)
            return f
        raise ParseError("expected formula", pos)


def recursive_parse(text, alphabet):
    p = _RecursiveParser(_tokenize(text), alphabet)
    f = p.formula()
    kind, _, pos = p.peek()
    if kind != "eof":
        raise ParseError("unexpected trailing input", pos)
    return f


def assert_parses_as_recursive(text):
    def outcome(parser):
        try:
            return parser(text, AL2)
        except ParseError as err:
            return str(err), err.pos

    got, want = outcome(parse), outcome(recursive_parse)
    assert got == want, (text, got, want)


# one text per token kind, with an index past VAR_LIMIT and a name unknown
# to AL2; the tokenizer's own errors are shared by both parsers
FRAGMENTS = [
    "p0", "p1", "p007", "p1000000", "true", "false", "~", "<d0>", "[d1]", "<d9>",
    "(", ")", "&", "|", "->",
]
TOKEN_TEXT = re.compile(r"p[0-9]+|true|false|->|<\w+>|\[\w+\]|[~&|()]")


@settings(max_examples=1500, deadline=None)
@given(st.lists(st.sampled_from(FRAGMENTS), max_size=14), st.data())
def test_parse_matches_recursive_parser_on_fragment_strings(fragments, data):
    spaces = data.draw(st.lists(st.sampled_from(["", " ", "\t"]), min_size=len(fragments), max_size=len(fragments)))
    assert_parses_as_recursive("".join(t + sp for t, sp in zip(fragments, spaces)))


@settings(max_examples=1500, deadline=None)
@given(formulas(), st.data())
def test_parse_matches_recursive_parser_on_edited_formulas(f, data):
    # printed text with extra parentheses around a token span, free spacing,
    # and at most one token dropped or inserted
    tokens = TOKEN_TEXT.findall(print_formula(f, AL2))
    for _ in range(data.draw(st.integers(0, 2))):
        i = data.draw(st.integers(0, len(tokens)))
        j = data.draw(st.integers(i, len(tokens)))
        tokens = tokens[:i] + ["("] + tokens[i:j] + [")"] + tokens[j:]
    edit = data.draw(st.sampled_from(["none", "drop", "insert"]))
    if edit == "drop":
        del tokens[data.draw(st.integers(0, len(tokens) - 1))]
    elif edit == "insert":
        tokens.insert(data.draw(st.integers(0, len(tokens))), data.draw(st.sampled_from(FRAGMENTS)))
    spaces = data.draw(st.lists(st.sampled_from(["", " ", "  "]), min_size=len(tokens), max_size=len(tokens)))
    assert_parses_as_recursive("".join(t + sp for t, sp in zip(tokens, spaces)))


@pytest.mark.parametrize("depth_", [PAREN_LIMIT, PAREN_LIMIT + 1])
@pytest.mark.parametrize(
    "template",
    ["({})", "~({})", "<d0>({} & p1)", "({}", "{})", "(p0 -> {}) | p1", "[d1]({} p0)"],
)
def test_parse_matches_recursive_parser_at_the_nesting_limit(depth_, template):
    # "({})" gives the PAREN_LIMIT + 1 nested parentheses of
    # test_parse_nesting_limits and the deepest text accepted below them
    text = "p0"
    for _ in range(depth_):
        text = template.format(text)
    assert_parses_as_recursive(text)


def test_iter_nodes_walks_many_roots_once():
    shared = Dia(0, And(Var(0), Var(1)))
    f, g = And(shared, Var(2)), Or(Var(2), shared)
    first = list(iter_nodes(f))
    seen = {id(x) for x in first}
    # the roots in order, each shared node only where it is first met
    assert list(iter_nodes(f, g)) == first + [x for x in iter_nodes(g) if id(x) not in seen]
    assert [id(x) for x in iter_nodes(f, g, f)] == [id(x) for x in iter_nodes(f, g)]
    assert len(list(iter_nodes(f, g))) == 8
    assert list(iter_nodes()) == []


def test_depth_examples():
    assert depth(Var(0)) == 0
    assert depth(And(Dia(0, Var(0)), Var(1))) == 1
    assert depth(finite_height_axiom(2)) == 3


def test_depth_of_height_axiom():
    for h in range(1, 6):
        assert depth(finite_height_axiom(h)) == h + 1
    assert depth(finite_height_axiom(0)) == 0


def test_height_axiom_base_case():
    assert build_schema("B", h=0) == Falsum()


def test_height_axiom_uses_upper_variables():
    assert variables(finite_height_axiom(3)) == frozenset({1, 2, 3})


def test_star_translate_single_diamond():
    got = star_translate(Dia(0, Var(0)), 1, [0])
    assert got == Or(Var(0), Dia(0, Var(0)))


def test_star_translate_modality_free():
    f = Imp(Var(0), Neg(Var(1)))
    assert star_translate(f, 3, [0, 1]) == f


def test_star_translate_rejects_bimodal():
    with pytest.raises(ValueError, match="unimodal"):
        star_translate(And(Dia(0, Var(0)), Dia(1, Var(0))), 1, [0, 1])


def test_star_translate_box_becomes_dual():
    got = star_translate(box(0, Var(0)), 1, [0])
    assert got == Neg(Or(Neg(Var(0)), Dia(0, Neg(Var(0)))))


def test_star_translate_extent_matches_bounded_reachability_oracle(rng=None):
    # double diamond, m=2, bimodal target: compare against a two-fold
    # preimage under the R^{<=2} relation computed by path counting
    import random

    rng = random.Random(7)
    for _ in range(25):
        rels = [
            {(a, b) for a in range(4) for b in range(4) if rng.random() < 0.4}
            for _ in range(2)
        ]
        frame = Frame(AL2, 4, rels)
        ext = frozenset(p for p in range(4) if rng.random() < 0.5)
        model = semantics.Model(frame, 1, (ext,))
        starred = star_translate(Dia(0, Dia(0, Var(0))), 2, [0, 1])
        got = semantics.extent(model, starred)
        upto = oracles.reach_upto(frame, 2)
        want = oracles.naive_preimage(upto, oracles.naive_preimage(upto, ext))
        assert got == frozenset(want)


def test_star_depth_laws():
    for j in range(1, 4):
        chain = Var(0)
        for _ in range(j):
            chain = Dia(0, chain)
        for m in range(4):
            assert depth(star_translate(chain, m, [0, 1])) == j * m


@settings(max_examples=150, deadline=None)
@given(formulas(max_size=15, mods=1), st.integers(0, 3))
def test_star_depth_upper_bound(f, m):
    assert depth(star_translate(f, m, [0, 1])) <= m * depth(f)


def test_atr_schema():
    got = build_schema("atr", subset=(0,), m=1)
    assert got == Imp(Dia(0, Dia(0, Var(0))), Or(Var(0), Dia(0, Var(0))))
    for m in range(4):
        assert depth(pretransitivity_axiom((0, 1), m)) == m + 1


def test_reducible_path_depth():
    for m in range(4):
        assert depth(reducible_path_axiom(m, (0,))) == m + 1
        assert depth(reducible_path_axiom(m, (0, 1))) == m + 1


def test_reducible_path_variables():
    assert variables(reducible_path_axiom(2, (0,))) == frozenset({0, 1, 2, 3})


def test_lex_axioms_shape():
    got = build_schema("phi_lex", vertical=(0,), horizontal=(1,))
    assert len(got) == 3
    dv = Dia(0, Var(0))
    assert got[0] == Imp(Dia(1, dv), dv)
    assert got[1] == Imp(Dia(0, Dia(1, Var(0))), dv)
    assert got[2] == Imp(dv, box(1, dv))


def test_lex_axioms_reject_overlap():
    with pytest.raises(ValueError, match="overlap"):
        lex_sum_axioms((0, 1), (1, 2))


def test_diff_axioms_shape():
    got = difference_axioms(1, (0,))
    dd = Dia(1, Var(0))
    assert got[0] == Imp(Var(0), box(1, dd))
    assert got[1] == Imp(Dia(1, dd), Or(dd, Var(0)))
    assert got[2] == Imp(Dia(0, Var(0)), Or(dd, Var(0)))


def test_empty_union_diamond_is_falsum():
    assert diamond_union((), Var(0)) == Falsum()
    # the zero-modality pretransitivity axiom degenerates to a tautology
    assert pretransitivity_axiom((), 0) == Imp(Falsum(), Var(0))


def test_diamond_upto_includes_zero_step():
    got = diamond_upto(2, (0,), Var(1))
    assert got == Or(Or(Var(1), Dia(0, Var(1))), Dia(0, Dia(0, Var(1))))


def test_build_schema_deterministic():
    a = build_schema("B_star", h=2, m=2, subset=(0, 1))
    b = build_schema("B_star", h=2, m=2, subset=(0, 1))
    assert a == b
    assert a == finite_height_axiom_star(2, 2, (0, 1))


def test_build_schema_unknown_kind():
    with pytest.raises(ValueError, match="unknown schema"):
        build_schema("nope")


def test_build_schema_bad_params():
    with pytest.raises(ValueError):
        build_schema("B", h=-1)
    with pytest.raises(ValueError):
        build_schema("atr", subset=(0,))


@pytest.mark.parametrize(
    "call",
    [
        lambda: finite_height_axiom(1.5),
        lambda: diamond_union([0.5], Var(0)),
        lambda: diamond_upto(2.0, (0,), Var(0)),
        lambda: pretransitivity_axiom((0,), 2.9),
        lambda: difference_axioms(1, ["0"]),
    ],
    ids=["height", "subset", "m", "atr", "others"],
)
def test_schema_builders_reject_non_integers(call):
    # int() would truncate 1.5 to 1 and build a different schema
    with pytest.raises(TypeError):
        call()


def test_modality_subsets_reject_bools():
    # diamond_union([True], p0) used to print as <d1>p0
    with pytest.raises(TypeError, match=r"^modality id must be an int, got True$"):
        diamond_union([True], Var(0))
    with pytest.raises(ValueError, match="invalid parameters for schema 'atr'"):
        build_schema("atr", subset=(False,), m=1)


def test_build_schema_rejects_non_integer_parameters():
    with pytest.raises(ValueError, match="invalid parameters for schema 'atr'"):
        build_schema("atr", subset=(0,), m=2.9)
    with pytest.raises(ValueError, match="invalid parameters for schema 'B'"):
        build_schema("B", h=1.5)
    # a bool count is refused like any other non-int; ints and ranges work
    with pytest.raises(ValueError, match="invalid parameters for schema 'atr'"):
        build_schema("atr", subset=(0,), m=True)
    assert build_schema("atr", subset=range(2), m=1) == pretransitivity_axiom((0, 1), 1)
