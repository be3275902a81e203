"""Placement: the segment a distribution key's rows live on.

``hash_values`` places one key and ``hash_columns`` a batch of keys held
column-wise. Both read a per-segment-count memo when every key value has
exact type ``int``, ``str``, ``date`` or ``None``, and run FNV-1a over
the key's text (``_hash_text``, the definition) otherwise. These tests
hold the two entry points to each other and to the definition, pin
literal placements, and hash the values whose ``==`` would let a memo
hand one value another's place.
"""

import datetime
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import schema
from repro.catalog.schema import _hash_text, hash_columns, hash_values
from repro.columnar import ConstVector
from repro.columnar.vector import dict_vector, int_vector
from repro.lint.core import project_from_sources
from repro.lint.rules import get_rules

SCHEMA = Path(schema.__file__)


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty set of placement memos, so a test chooses what is hashed
    first."""
    memos = {}
    monkeypatch.setattr(schema, "_PLACEMENTS", memos)
    return memos


def _both_ways(keys, num_segments):
    """Each key placed by ``hash_values`` and, as one batch, by
    ``hash_columns``."""
    columns = [list(col) for col in zip(*keys)]
    return (
        [hash_values(key, num_segments) for key in keys],
        hash_columns(columns, len(keys), num_segments),
    )


# --------------------------------------------------------------- property
_INTS = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_VALUES = {
    "int": _INTS,
    "str": st.text(max_size=4),
    "date": st.dates(),
    "none": st.none(),
    "bool": st.booleans(),
    "float": st.floats(),
    "decimal": st.decimals(allow_nan=False, places=2, min_value=-99, max_value=99),
}
_VALUES["mixed"] = st.one_of(*_VALUES.values())


@st.composite
def key_columns(draw):
    """(the key columns as plain lists, the same columns as handed to
    ``hash_columns``, row count)."""
    n = draw(st.integers(0, 9))
    plain, held = [], []
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(sorted(_VALUES)))
        nullable = st.one_of(st.none(), _VALUES[kind])
        if draw(st.booleans()):
            value = draw(nullable)
            plain.append([value] * n)
            held.append(ConstVector(value, n))
            continue
        values = draw(st.lists(nullable, min_size=n, max_size=n))
        plain.append(values)
        form = draw(st.sampled_from(["list", "vector"]))
        if form == "vector" and kind == "int":
            mask = [v is None for v in values]
            if not any(mask) and draw(st.booleans()):
                mask = None
            held.append(int_vector([v or 0 for v in values], mask))
        elif form == "vector" and kind == "str":
            dictionary = sorted({v for v in values if v is not None})
            codes = [-1 if v is None else dictionary.index(v) for v in values]
            held.append(dict_vector(codes, dictionary))
        else:
            held.append(values)
    return plain, held, n


@settings(max_examples=300, deadline=None)
@given(key_columns(), st.sampled_from([1, 3, 8]))
def test_columns_place_like_values(columns, num_segments):
    plain, held, n = columns
    rows = list(zip(*plain))
    expected = [_hash_text(row, num_segments) for row in rows]
    assert [hash_values(row, num_segments) for row in rows] == expected
    assert hash_columns(held, n, num_segments) == expected


# ------------------------------------------------------------------- traps
#: Values that are ``==`` to each other but hash different texts.
TRAPS = [
    [1, True, 1.0, Decimal(1)],
    [0.0, -0.0],
    [Decimal("1.0"), Decimal("1.00")],
    [datetime.datetime(1995, 1, 1), datetime.date(1995, 1, 1)],
]


def _separating(values):
    """A segment count at which the values' texts all land apart, so a
    memo that hands one value another's place is caught."""
    return next(
        n for n in range(2, 500)
        if len({_hash_text((v,), n) for v in values}) == len(values)
    )


@pytest.mark.parametrize("order", ["forward", "reversed"])
@pytest.mark.parametrize("trap", TRAPS, ids=lambda t: "-".join(map(repr, t)))
def test_equal_values_keep_their_own_places(fresh_memo, trap, order):
    values = trap if order == "forward" else trap[::-1]
    n = _separating(values)
    for keys in ([(v,) for v in values], [(v, "x") for v in values]):
        expected = [_hash_text(key, n) for key in keys]
        by_value, by_column = _both_ways(keys, n)
        assert by_value == expected
        assert by_column == expected


# ---------------------------------------------------------------- literals
#: Placements over 8 segments, as computed before the memo existed.
PINNED = {
    (1,): 4,
    ("abc",): 7,
    (datetime.date(1995, 1, 1),): 5,
    (None,): 3,
    (7, "x"): 2,
}


@pytest.mark.parametrize("warm", [False, True])
def test_literal_placements_are_pinned(fresh_memo, warm):
    keys = list(PINNED)
    if warm:  # the second pass reads every place from the memo
        _both_ways(keys, 8)
    for key, place in PINNED.items():
        assert _hash_text(key, 8) == place
        assert hash_values(key, 8) == place
        assert hash_values(list(key), 8) == place
        assert hash_columns([[v] for v in key], 1, 8) == [place]


# --------------------------------------------------------------------- cap
def test_answers_stay_right_across_a_clear(fresh_memo, monkeypatch):
    monkeypatch.setattr(schema, "_PLACEMENT_MEMO_CAP", 4)
    keys = [(i % 11, f"k{i % 7}") for i in range(40)]
    expected = [_hash_text(key, 3) for key in keys]
    for _ in range(2):
        by_value, by_column = _both_ways(keys, 3)
        assert by_value == expected
        assert by_column == expected
        assert 0 < len(fresh_memo[3]) <= 4
    singles = hash_columns([list(range(30))], 30, 3)
    assert singles == [_hash_text((i,), 3) for i in range(30)]
    assert len(fresh_memo[3]) <= 4


def test_the_memo_is_one_per_segment_count(fresh_memo):
    assert hash_values((5,), 3) == _hash_text((5,), 3)
    assert hash_values((5,), 8) == _hash_text((5,), 8)
    assert sorted(fresh_memo) == [3, 8]
    assert dict(fresh_memo[8]) == {5: _hash_text((5,), 8)}


def test_values_outside_the_exact_types_never_enter_the_memo(fresh_memo):
    keys = [(v,) for trap in TRAPS for v in trap] + [(1, 2.5), (True, "a")]
    _both_ways(keys, 8)
    assert set(map(type, fresh_memo[8])) <= {int, datetime.date}


def test_long_strings_never_enter_the_memo(fresh_memo):
    """A wide TEXT key is placed on every lookup, not kept for the life
    of the process; a string at the limit is kept."""
    short = "s" * schema._PLACEMENT_STR_MAX
    long = short + "l"
    for keys in ([(long,), (short,)], [(long, 1), (short, 1)]):
        expected = [_hash_text(key, 8) for key in keys]
        for _ in range(2):  # the second pass reads whatever was kept
            by_value, by_column = _both_ways(keys, 8)
            assert by_value == expected
            assert by_column == expected
    assert set(fresh_memo[8]) == {short, (short, 1)}


# --------------------------------------------------------------- registry
def test_lint_accepts_the_memo_only_through_its_registry_entry():
    """R7 flags a write to a module-level mutable; the memo passes
    because the shared-state registry names it, not because a comment
    exempts it."""
    from repro.lint.shared_state import SHARED_STATE

    source = SCHEMA.read_text()
    assert "allow[R7]" not in source
    registry = SCHEMA.parents[1] / "lint" / "shared_state.py"
    sources = {
        "src/repro/catalog/schema.py": source,
        "src/repro/lint/shared_state.py": registry.read_text(),
    }
    rules = get_rules(["R7"])
    assert project_from_sources(sources).run(rules) == []
    others = {k: v for k, v in SHARED_STATE.items() if not k.endswith("::_PLACEMENTS")}
    sources["src/repro/lint/shared_state.py"] = f"SHARED_STATE = {others!r}\n"
    findings = project_from_sources(sources).run(rules)
    assert [(f.rule, f.context) for f in findings] == [("R7", "_placements")]
    assert "schema.py::_PLACEMENTS" in findings[0].message
