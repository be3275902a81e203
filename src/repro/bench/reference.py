"""One outside reference: stdlib ``sqlite3``, answering by PostgreSQL's rules.

HAWQ takes its SQL semantics from PostgreSQL (paper §3), so an answer is
right when it is PostgreSQL's. SQLite is the engine outside this one
that stands in for PostgreSQL, and this module is the only way a check
reaches it. It does three things:

* :meth:`Reference.load` copies an engine table's rows into SQLite under
  the table's catalog schema, coerced by the engine's own row codec
  (CHAR(n) truncation, DECIMAL rounding), DATE as ISO text and DECIMAL
  as REAL.
* :func:`render` writes a statement that :func:`~repro.sql.parser.parse_sql`
  produced — SELECT, CREATE VIEW or DROP VIEW — in SQLite's dialect, from
  the parse tree alone, so no second parser has to be trusted:

  - ``DATE '…'`` becomes ISO text, and ``date ± INTERVAL`` the
    connection's ``pg_date_add``, which clamps to the month's end as
    PostgreSQL does;
  - ``extract(part FROM d)`` becomes ``strftime``, and
    ``substring(s FROM i FOR n)`` becomes ``substr``;
  - every ORDER BY item says ``NULLS FIRST`` or ``NULLS LAST``
    (PostgreSQL sorts NULL as the largest value, SQLite as the smallest);
  - every LIKE says ``ESCAPE '\\'``, PostgreSQL's default escape, and the
    connection's LIKE is case-sensitive;
  - ``/`` and ``%`` are the connection's ``pg_div`` and ``pg_mod``:
    integer division truncates toward zero, a remainder takes the
    dividend's sign, and a zero divisor raises (SQLite would give NULL).

* :func:`mismatch` compares two answers: as multisets, or in order where
  the statement has an ORDER BY, whose keys must all be among its output
  columns. Rows whose keys tie may come in any order, and under a LIMIT
  the last run of tied rows need only agree on its keys. A column the
  engines compute (an aggregate, arithmetic, a subquery) agrees to
  :data:`REL_TOL`; a column read from a table, a view's or a derived
  table's stored column agrees exactly, so a decoder one bit off fails.
"""

from __future__ import annotations

import calendar
import datetime
import math
import sqlite3
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.catalog.schema import DataType, TypeKind
from repro.sql import ast
from repro.sql.parser import parse_sql

#: The one float tolerance, relative, for computed columns: two engines
#: add the same floats in different orders, so their sums differ in the
#: last few bits.
REL_TOL = 1e-9

_SQLITE_TYPES = {
    TypeKind.INT4: "INTEGER",
    TypeKind.INT8: "INTEGER",
    TypeKind.FLOAT8: "REAL",
    TypeKind.DECIMAL: "REAL",
    TypeKind.BOOL: "INTEGER",
    TypeKind.CHAR: "TEXT",
    TypeKind.VARCHAR: "TEXT",
    TypeKind.TEXT: "TEXT",
    TypeKind.DATE: "TEXT",
    TypeKind.BYTEA: "BLOB",
}

#: Functions whose SQLite meaning is PostgreSQL's on the values the
#: engine stores; ``substring`` is spelled ``substr`` there.
_FUNCTIONS = {
    name: name
    for name in (
        "count", "sum", "avg", "min", "max", "abs", "lower", "upper",
        "coalesce", "nullif", "length", "round",
    )
}
_FUNCTIONS["substring"] = "substr"

_EXTRACT = {"year": "%Y", "month": "%m", "day": "%d"}


class DivisionByZero(ArithmeticError):
    """The reference's answer is PostgreSQL's ``division by zero``."""


# ------------------------------------------------------------- PG semantics
def _pg_div(left, right):
    if left is None or right is None:
        return None
    if right == 0:
        raise ZeroDivisionError("division by zero")
    if isinstance(left, int) and isinstance(right, int):
        quotient = abs(left) // abs(right)
        return -quotient if (left < 0) != (right < 0) else quotient
    return left / right


def _pg_mod(left, right):
    if left is None or right is None:
        return None
    if right == 0:
        raise ZeroDivisionError("division by zero")
    if isinstance(left, int) and isinstance(right, int):
        remainder = abs(left) % abs(right)
        return -remainder if left < 0 else remainder
    return math.fmod(left, right)


def _pg_date_add(iso, quantity, unit):
    """``DATE iso + INTERVAL 'quantity' unit``; months past the end of
    the target month clamp to its last day."""
    if iso is None:
        return None
    day = datetime.date.fromisoformat(iso)
    if unit == "day":
        return (day + datetime.timedelta(days=int(quantity))).isoformat()
    months = int(quantity) * (12 if unit == "year" else 1)
    year, month = divmod(day.year * 12 + day.month - 1 + months, 12)
    last = calendar.monthrange(year, month + 1)[1]
    return datetime.date(year, month + 1, min(day.day, last)).isoformat()


# ---------------------------------------------------------------- rendering
def render(stmt: ast.Statement) -> str:
    """``stmt`` in SQLite's dialect, by PostgreSQL's rules."""
    if isinstance(stmt, ast.SelectStmt):
        return _select(stmt)
    if isinstance(stmt, ast.CreateViewStmt):
        return f"CREATE VIEW {stmt.name} AS {_select(stmt.query)}"
    if isinstance(stmt, ast.DropStmt) and stmt.object_kind == "view":
        return f"DROP VIEW {'IF EXISTS ' if stmt.if_exists else ''}{stmt.name}"
    raise ValueError(f"the reference renders no {type(stmt).__name__}")


def _select(stmt: ast.SelectStmt) -> str:
    parts = ["SELECT DISTINCT" if stmt.distinct else "SELECT"]
    parts.append(", ".join(
        _expr(item.expr) + (f" AS {item.alias}" if item.alias else "")
        for item in stmt.items
    ))
    if stmt.from_items:
        parts.append("FROM " + ", ".join(_from(item) for item in stmt.from_items))
    if stmt.where is not None:
        parts.append("WHERE " + _expr(stmt.where))
    if stmt.group_by:
        parts.append("GROUP BY " + ", ".join(_expr(e) for e in stmt.group_by))
    if stmt.having is not None:
        parts.append("HAVING " + _expr(stmt.having))
    if stmt.order_by:
        parts.append("ORDER BY " + ", ".join(_sort(item) for item in stmt.order_by))
    if stmt.limit is not None:
        parts.append(f"LIMIT {stmt.limit}")
    return " ".join(parts)


def _sort(item: ast.SortItem) -> str:
    # PostgreSQL's default: NULL sorts as the largest value.
    nulls_first = not item.ascending if item.nulls_first is None else item.nulls_first
    return (
        f"{_expr(item.expr)} {'ASC' if item.ascending else 'DESC'} "
        f"NULLS {'FIRST' if nulls_first else 'LAST'}"
    )


def _from(item: ast.FromItem) -> str:
    if isinstance(item, ast.TableRef):
        return item.name + (f" AS {item.alias}" if item.alias else "")
    if isinstance(item, ast.SubquerySource):
        return f"({_select(item.query)}) AS {item.alias}"
    if isinstance(item, ast.JoinExpr):
        right = _from(item.right)
        if isinstance(item.right, ast.JoinExpr):
            right = f"({right})"
        if item.join_type == "cross":
            return f"{_from(item.left)} CROSS JOIN {right}"
        kind = {"inner": "JOIN", "left": "LEFT JOIN", "right": "RIGHT JOIN",
                "full": "FULL JOIN"}[item.join_type]
        return f"{_from(item.left)} {kind} {right} ON {_expr(item.condition)}"
    raise ValueError(f"the reference renders no {type(item).__name__}")


def _literal(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, datetime.date):
        value = value.isoformat()
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    raise ValueError(f"the reference renders no literal {value!r}")


def _expr(node: ast.Expr) -> str:
    if isinstance(node, ast.Literal):
        return _literal(node.value)
    if isinstance(node, ast.ColumnRef):
        return f"{node.table}.{node.name}" if node.table else node.name
    if isinstance(node, ast.Star):
        return f"{node.table}.*" if node.table else "*"
    if isinstance(node, ast.BinaryOp):
        op = node.op
        if isinstance(node.right, ast.IntervalLiteral) and op in ("+", "-"):
            interval = node.right
            quantity = interval.quantity if op == "+" else -interval.quantity
            return f"pg_date_add({_expr(node.left)}, {quantity!r}, '{interval.unit}')"
        if op == "/":
            return f"pg_div({_expr(node.left)}, {_expr(node.right)})"
        if op == "%":
            return f"pg_mod({_expr(node.left)}, {_expr(node.right)})"
        return f"({_expr(node.left)} {op.upper()} {_expr(node.right)})"
    if isinstance(node, ast.UnaryOp):
        return f"({node.op.upper()} {_expr(node.operand)})"
    if isinstance(node, ast.FuncCall):
        name = _FUNCTIONS.get(node.name)
        if name is None:
            raise ValueError(f"the reference renders no function {node.name}()")
        if node.star:
            return f"{name}(*)"
        args = ", ".join(_expr(arg) for arg in node.args)
        return f"{name}({'DISTINCT ' if node.distinct else ''}{args})"
    if isinstance(node, ast.CaseExpr):
        whens = " ".join(f"WHEN {_expr(c)} THEN {_expr(r)}" for c, r in node.whens)
        otherwise = "" if node.else_result is None else f" ELSE {_expr(node.else_result)}"
        return f"(CASE {whens}{otherwise} END)"
    if isinstance(node, ast.CastExpr):
        kind = DataType.parse(node.type_name).kind
        return f"CAST({_expr(node.operand)} AS {_SQLITE_TYPES[kind]})"
    if isinstance(node, ast.LikeExpr):
        op = "NOT LIKE" if node.negated else "LIKE"
        return f"({_expr(node.operand)} {op} {_expr(node.pattern)} ESCAPE '\\')"
    if isinstance(node, ast.BetweenExpr):
        op = "NOT BETWEEN" if node.negated else "BETWEEN"
        return f"({_expr(node.operand)} {op} {_expr(node.lower)} AND {_expr(node.upper)})"
    if isinstance(node, ast.InList):
        items = ", ".join(_expr(item) for item in node.items)
        return f"({_expr(node.operand)} {'NOT IN' if node.negated else 'IN'} ({items}))"
    if isinstance(node, ast.IsNullExpr):
        return f"({_expr(node.operand)} IS {'NOT NULL' if node.negated else 'NULL'})"
    if isinstance(node, ast.ExtractExpr):
        return f"CAST(strftime('{_EXTRACT[node.part]}', {_expr(node.operand)}) AS INTEGER)"
    if isinstance(node, ast.SubqueryExpr):
        return f"({_select(node.query)})"
    if isinstance(node, ast.InSubquery):
        op = "NOT IN" if node.negated else "IN"
        return f"({_expr(node.operand)} {op} ({_select(node.query)}))"
    if isinstance(node, ast.ExistsExpr):
        return f"({'NOT ' if node.negated else ''}EXISTS ({_select(node.query)}))"
    raise ValueError(f"the reference renders no {type(node).__name__}")


# ---------------------------------------------------------------- comparing
def order_keys(stmt: ast.SelectStmt, names: Sequence[str]) -> Optional[Tuple[int, ...]]:
    """The output positions ``stmt``'s ORDER BY sorts on, given its output
    column ``names``; None when it has no ORDER BY or sorts on something
    no output column holds."""
    if not stmt.order_by:
        return None
    exprs = [item.expr for item in stmt.items]
    stars = any(isinstance(expr, ast.Star) for expr in exprs)
    positions = []
    for item in stmt.order_by:
        expr = item.expr
        named = [
            index for index, name in enumerate(names)
            if isinstance(expr, ast.ColumnRef) and name.lower() == expr.name.lower()
        ]
        if isinstance(expr, ast.Literal) and type(expr.value) is int:
            positions.append(expr.value - 1)  # an ordinal
        elif not stars and expr in exprs:
            positions.append(exprs.index(expr))
        elif len(named) == 1:
            positions.append(named[0])
        else:
            return None
    return tuple(positions)


def _value(value: object) -> object:
    if isinstance(value, bool):
        return int(value)  # SQLite has no boolean type
    if isinstance(value, datetime.date):
        return value.isoformat()
    return value


def _same(a: object, b: object, tolerant: bool) -> bool:
    a, b = _value(a), _value(b)
    if isinstance(a, float) or isinstance(b, float):
        if not (isinstance(a, (int, float)) and isinstance(b, (int, float))):
            return False
        return a == b or (tolerant and math.isclose(a, b, rel_tol=REL_TOL))
    return type(a) is type(b) and a == b


def _same_row(a: Sequence[object], b: Sequence[object], tolerant: Sequence[bool]) -> bool:
    return len(a) == len(b) == len(tolerant) and all(map(_same, a, b, tolerant))


def _sort_key(row: Sequence[object], tolerant: Sequence[bool]) -> tuple:
    # A tolerant float sorts by 6 digits, so that summation-order noise
    # cannot reorder two rows, then by its value; None sorts apart.
    first, then = [], []
    for v, loose in zip(map(_value, row), tolerant):
        if v is None:
            first.append((0, 0, ""))
        elif isinstance(v, (int, float)):
            first.append((1, float("%.6g" % v) if loose else v, ""))
            then.append(v)
        else:
            first.append((2, 0, repr(v)))
    return first, then


def _multiset_mismatch(
    ours: List[tuple], theirs: List[tuple], tolerant: Sequence[bool]
) -> Optional[str]:
    def key(row):
        return _sort_key(row, tolerant)

    for a, b in zip(sorted(ours, key=key), sorted(theirs, key=key)):
        if not _same_row(a, b, tolerant):
            return f"row {a!r} where the reference has {b!r}"
    return None


def mismatch(
    ours: Sequence[tuple],
    theirs: Sequence[tuple],
    keys: Optional[Tuple[int, ...]] = None,
    limit: Optional[int] = None,
    computed: Optional[Sequence[bool]] = None,
) -> Optional[str]:
    """None when ``ours`` is an answer ``theirs`` allows, else why not.

    Without ``keys`` the two are compared as multisets. With them (the
    select-list positions an ORDER BY sorts on) they are compared in
    order, a run of rows whose keys tie as a multiset; when ``limit``
    cut the answer, the last run need only agree on its keys. With a
    ``limit`` but no keys, only the number of rows is compared. A float
    in a ``computed`` column (every column when None) agrees to
    :data:`REL_TOL`, any other value exactly."""
    ours, theirs = [tuple(r) for r in ours], [tuple(r) for r in theirs]
    if len(ours) != len(theirs):
        return f"{len(ours)} rows where the reference has {len(theirs)}"
    if not theirs:
        return None
    tolerant = [True] * len(theirs[0]) if computed is None else list(computed)
    if keys is None:
        return None if limit is not None else _multiset_mismatch(ours, theirs, tolerant)
    key_tolerant = [tolerant[k] for k in keys]
    start = 0
    while start < len(theirs):
        tie = [theirs[start][k] for k in keys]
        end = start + 1
        while end < len(theirs) and _same_row([theirs[end][k] for k in keys], tie, key_tolerant):
            end += 1
        for row in ours[start:end]:
            if not _same_row([row[k] for k in keys], tie, key_tolerant):
                return f"row {row!r} where the reference sorts {theirs[start]!r}"
        cut = limit is not None and end == len(theirs) == limit
        if not cut:
            found = _multiset_mismatch(ours[start:end], theirs[start:end], tolerant)
            if found:
                return found
        start = end
    return None


@dataclass
class Answer:
    """The reference's rows for a statement, and how to compare with them:
    its ORDER BY positions, its LIMIT and which columns are computed."""

    rows: List[tuple]
    keys: Optional[Tuple[int, ...]] = None
    limit: Optional[int] = None
    computed: Optional[Tuple[bool, ...]] = None

    def mismatch(self, ours: Sequence[tuple]) -> Optional[str]:
        return mismatch(ours, self.rows, self.keys, self.limit, self.computed)


# ---------------------------------------------------------------- reference
class Reference:
    """An in-memory SQLite database that answers as PostgreSQL would."""

    def __init__(self) -> None:
        self.db = sqlite3.connect(":memory:")
        self.db.create_function("pg_div", 2, _pg_div, deterministic=True)
        self.db.create_function("pg_mod", 2, _pg_mod, deterministic=True)
        self.db.create_function("pg_date_add", 3, _pg_date_add, deterministic=True)
        self.db.execute("PRAGMA case_sensitive_like = ON")
        #: Each table's and view's columns: (name, computed).
        self.relations: Dict[str, List[Tuple[Optional[str], bool]]] = {}

    def load(self, engine, table: str, rows: Sequence[Sequence[object]]) -> None:
        """Create ``table`` with its catalog schema in ``engine`` and hold
        ``rows`` in it, coerced by the engine's row codec."""
        with engine.txns.run() as txn:
            schema = engine.catalog.get_schema(table, txn.statement_snapshot())
        columns = schema.columns
        self.relations[schema.name] = [(c.name, False) for c in columns]
        self.db.execute(
            f"CREATE TABLE {schema.name} ("
            + ", ".join(f"{c.name} {_SQLITE_TYPES[c.type.kind]}" for c in columns)
            + ")"
        )
        self.db.executemany(
            f"INSERT INTO {schema.name} VALUES ({', '.join('?' * len(columns))})",
            [tuple(map(_value, row)) for row in schema.row_codec().coerce_rows(rows)],
        )
        if schema.distribution.is_hash:
            # Answers do not depend on it; correlated subqueries on the
            # key (TPC-H Q4, Q21) would otherwise scan once per outer row.
            keys = ", ".join(schema.distribution.columns)
            self.db.execute(f"CREATE INDEX {schema.name}_key ON {schema.name} ({keys})")

    def run(self, sql: str) -> Answer:
        """Run every statement of ``sql``; the answer is its last SELECT's."""
        answer = None
        for stmt in parse_sql(sql):
            try:
                cursor = self.db.execute(render(stmt))
                rows = cursor.fetchall()
            except sqlite3.OperationalError as exc:
                if "user-defined function raised exception" in str(exc):
                    raise DivisionByZero("division by zero") from exc
                raise
            if isinstance(stmt, ast.CreateViewStmt):
                self.relations[stmt.name] = self._outputs(stmt.query)
            elif isinstance(stmt, ast.DropStmt):
                self.relations.pop(stmt.name, None)
            else:
                names = [column[0] for column in cursor.description]
                keys = order_keys(stmt, names)
                if stmt.order_by and keys is None:
                    raise ValueError("an ORDER BY key is no output column: its order goes unchecked")
                computed = tuple(computed for _name, computed in self._outputs(stmt))
                if len(computed) != len(names):
                    raise ValueError(f"{len(names)} output columns, {len(computed)} resolved")
                answer = Answer(rows, keys, stmt.limit, computed)
        if answer is None:
            raise ValueError("no SELECT to answer")
        return answer

    def _outputs(self, stmt: ast.SelectStmt) -> List[Tuple[Optional[str], bool]]:
        """Each output column of ``stmt``: its name, and whether the
        engines compute it rather than read a stored column."""
        sources = list(self._sources(stmt.from_items))
        outputs = []
        for item in stmt.items:
            expr = item.expr
            if isinstance(expr, ast.Star):
                for qualifier, columns in sources:
                    if expr.table in (None, qualifier):
                        outputs.extend(columns)
            elif isinstance(expr, ast.ColumnRef):
                found = [
                    computed
                    for qualifier, columns in sources if expr.table in (None, qualifier)
                    for name, computed in columns if name == expr.name
                ]
                # Not found: an outer statement's column, taken as computed.
                outputs.append((item.alias or expr.name, found != [False]))
            else:
                outputs.append((item.alias, not isinstance(expr, ast.Literal)))
        return outputs

    def _sources(self, items: Sequence[ast.FromItem]):
        """(qualifier, columns) of each relation ``items`` read."""
        for item in items:
            if isinstance(item, ast.JoinExpr):
                yield from self._sources([item.left, item.right])
            elif isinstance(item, ast.SubquerySource):
                yield item.alias, self._outputs(item.query)
            else:
                yield item.alias or item.name, self.relations[item.name]

    def close(self) -> None:
        self.db.close()
