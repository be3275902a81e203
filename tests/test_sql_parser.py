"""Tests for the SQL lexer and parser.

``reference_tokenize`` is the character-loop lexer the compiled pattern
replaced, moved here verbatim: every input must give the same
``(kind, value, position)`` stream, or the same error, from both. The
parser is pinned by a digest of the ASTs it built before tokens carried
a ``key``.
"""

import datetime
import hashlib
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SqlSyntaxError
from repro.sql import ast, parse_sql, parse_statement, tokenize
from repro.sql.lexer import Token, TokenKind
from repro.tpch import QUERIES

_MULTI_CHAR_OPS = ("<=", ">=", "<>", "!=", "||", "::")
_SINGLE_CHAR_OPS = set("+-*/%(),;.=<>[]")


def reference_tokenize(text: str) -> List[Token]:
    """Tokenize SQL text; raises :class:`SqlSyntaxError` on bad input."""
    tokens: List[Token] = []
    i, n = 0, len(text)
    while i < n:
        char = text[i]
        if char.isspace():
            i += 1
            continue
        if text.startswith("--", i):
            newline = text.find("\n", i)
            i = n if newline < 0 else newline + 1
            continue
        if text.startswith("/*", i):
            end = text.find("*/", i + 2)
            if end < 0:
                raise SqlSyntaxError(f"unterminated comment at {i}")
            i = end + 2
            continue
        if char == "'":
            value, i = _read_string(text, i)
            tokens.append(Token(TokenKind.STRING, value, i))
            continue
        if char == '"':
            end = text.find('"', i + 1)
            if end < 0:
                raise SqlSyntaxError(f"unterminated quoted identifier at {i}")
            tokens.append(Token(TokenKind.IDENT, text[i + 1 : end], i))
            i = end + 1
            continue
        if char.isdigit() or (char == "." and i + 1 < n and text[i + 1].isdigit()):
            start = i
            seen_dot = False
            while i < n and (text[i].isdigit() or (text[i] == "." and not seen_dot)):
                if text[i] == ".":
                    # Don't swallow a trailing dot followed by non-digit
                    if i + 1 >= n or not text[i + 1].isdigit():
                        break
                    seen_dot = True
                i += 1
            if i < n and text[i] in "eE":
                j = i + 1
                if j < n and text[j] in "+-":
                    j += 1
                if j < n and text[j].isdigit():
                    i = j
                    while i < n and text[i].isdigit():
                        i += 1
            tokens.append(Token(TokenKind.NUMBER, text[start:i], start))
            continue
        if char.isalpha() or char == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token(TokenKind.IDENT, text[start:i], start))
            continue
        matched = False
        for op in _MULTI_CHAR_OPS:
            if text.startswith(op, i):
                tokens.append(Token(TokenKind.OPERATOR, op, i))
                i += len(op)
                matched = True
                break
        if matched:
            continue
        if char in _SINGLE_CHAR_OPS:
            tokens.append(Token(TokenKind.OPERATOR, char, i))
            i += 1
            continue
        raise SqlSyntaxError(f"unexpected character {char!r} at position {i}")
    tokens.append(Token(TokenKind.EOF, "", n))
    return tokens


def _read_string(text: str, start: int) -> tuple:
    """Read a single-quoted string with '' as the escape for a quote."""
    i = start + 1
    out = []
    n = len(text)
    while i < n:
        char = text[i]
        if char == "'":
            if i + 1 < n and text[i + 1] == "'":
                out.append("'")
                i += 2
                continue
            return "".join(out), i + 1
        out.append(char)
        i += 1
    raise SqlSyntaxError(f"unterminated string literal at {start}")


def _lexed(lexer, text):
    """``(kind, value, position)`` per token, or the error's message."""
    try:
        return [(t.kind, t.value, t.position) for t in lexer(text)]
    except SqlSyntaxError as exc:
        return str(exc)


#: Pieces a token soup is joined from: each token class with its edges.
_FRAGMENTS = st.one_of(
    st.sampled_from(
        [
            # keywords in mixed case, identifiers, unicode letters
            "SELECT", "select", "SeLeCt", "fRoM", "Where", "nulls", "_x1",
            "é", "ß", "ﬁrst", "Ωmega", "жук", "一二", "x²", "a½",
            # unicode digits: decimal, superscript, and numeric non-digits
            "٣", "²", "½", "Ⅻ", "①", "7",
            # numbers and their edges
            "1", "1.", ".5", "1e5", "1e+", "1E-", "1.5e-3", "1..2", "12.34.5",
            # strings, quoted identifiers, comments
            "'a'", "''", "'it''s'", "'''", "'a''", "'open", '"from"', '"a b"',
            '"open', "/* c */", "/*", "/*/", "*/", "-- c\n", "--",
            # operators, near-operators and strays
            "/", "*", "<=", ">=", "<>", "!=", "||", "::", "!", "|", ":", "@",
            "#", "?", ".", ",", "(", ")", ";", "[", "]", "%", "+", "-", "=",
            # whitespace, ASCII and not
            " ", "\t", "\n", "\x0b", "\x1c", "\u00a0", "\u2003",
        ]
    ),
    st.characters(blacklist_categories=("Cs",)),
)


class TestLexer:
    @given(text=st.lists(_FRAGMENTS, max_size=24).map("".join))
    @settings(max_examples=400, deadline=None)
    def test_same_tokens_or_error_as_the_character_loop(self, text):
        assert _lexed(tokenize, text) == _lexed(reference_tokenize, text)

    def test_same_tokens_for_every_character_in_context(self):
        """Each code point up to U+3000 (every space, superscript,
        fraction and Roman numeral among them) where a number, an
        identifier or any token may start or go on."""
        for code in range(0x3001):
            char = chr(code)
            text = f"{char}1{char}.{char}e{char} a{char} .{char}"
            assert _lexed(tokenize, text) == _lexed(reference_tokenize, text), text

    def test_keys(self):
        tokens = tokenize("select \"Sel\", 1.5, 'x' <> sel")
        assert [t.key for t in tokens] == [
            "SELECT", None, ",", None, ",", None, "<>", "SEL", None
        ]

    def test_basic_tokens(self):
        tokens = tokenize("SELECT a, 1.5 FROM t WHERE x <> 'it''s'")
        kinds = [t.kind for t in tokens]
        assert kinds[-1] is TokenKind.EOF
        values = [t.value for t in tokens[:-1]]
        assert "SELECT" in values
        assert "1.5" in values
        assert "<>" in values
        assert "it's" in values

    def test_comments_stripped(self):
        tokens = tokenize("SELECT 1 -- trailing\n/* block */ + 2")
        values = [t.value for t in tokens[:-1]]
        assert values == ["SELECT", "1", "+", "2"]

    def test_quoted_identifier(self):
        tokens = tokenize('SELECT "details:price" FROM t')
        assert tokens[1].kind is TokenKind.IDENT
        assert tokens[1].value == "details:price"

    def test_scientific_notation(self):
        tokens = tokenize("SELECT 1.5e-3")
        assert tokens[1].value == "1.5e-3"

    def test_unterminated_string(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT 'oops")

    def test_unexpected_character(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT @foo")


class TestSelectParsing:
    def test_minimal(self):
        stmt = parse_statement("SELECT 1")
        assert isinstance(stmt, ast.SelectStmt)
        assert isinstance(stmt.items[0].expr, ast.Literal)

    def test_star_and_qualified_star(self):
        stmt = parse_statement("SELECT *, t.* FROM t")
        assert isinstance(stmt.items[0].expr, ast.Star)
        assert stmt.items[1].expr.table == "t"

    def test_aliases(self):
        stmt = parse_statement("SELECT a AS x, b y FROM t")
        assert stmt.items[0].alias == "x"
        assert stmt.items[1].alias == "y"

    def test_from_comma_and_aliases(self):
        stmt = parse_statement("SELECT 1 FROM nation n1, nation AS n2")
        assert stmt.from_items[0].alias == "n1"
        assert stmt.from_items[1].alias == "n2"

    def test_explicit_joins(self):
        stmt = parse_statement(
            "SELECT 1 FROM a JOIN b ON a.x = b.x LEFT OUTER JOIN c ON b.y = c.y"
        )
        top = stmt.from_items[0]
        assert isinstance(top, ast.JoinExpr)
        assert top.join_type == "left"
        assert top.left.join_type == "inner"

    def test_subquery_source(self):
        stmt = parse_statement("SELECT s.a FROM (SELECT a FROM t) AS s")
        assert isinstance(stmt.from_items[0], ast.SubquerySource)
        assert stmt.from_items[0].alias == "s"

    def test_group_having_order_limit(self):
        stmt = parse_statement(
            "SELECT a, count(*) FROM t GROUP BY a HAVING count(*) > 2 "
            "ORDER BY 2 DESC, a ASC NULLS FIRST LIMIT 7"
        )
        assert len(stmt.group_by) == 1
        assert stmt.having is not None
        assert stmt.order_by[0].ascending is False
        assert stmt.order_by[1].nulls_first is True
        assert stmt.limit == 7

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT a FROM t").distinct


class TestExpressionParsing:
    def expr(self, text):
        return parse_statement(f"SELECT {text}").items[0].expr

    def test_precedence_arithmetic(self):
        node = self.expr("1 + 2 * 3")
        assert node.op == "+"
        assert node.right.op == "*"

    def test_precedence_and_or(self):
        node = self.expr("a or b and c")
        assert node.op == "or"
        assert node.right.op == "and"

    def test_not(self):
        node = self.expr("not a = b")
        assert isinstance(node, ast.UnaryOp)

    def test_comparison_chain(self):
        node = self.expr("a <= b")
        assert node.op == "<="

    def test_between(self):
        node = self.expr("x between 1 and 5")
        assert isinstance(node, ast.BetweenExpr)

    def test_not_between(self):
        node = self.expr("x not between 1 and 5")
        assert node.negated

    def test_like(self):
        node = self.expr("name like '%green%'")
        assert isinstance(node, ast.LikeExpr)

    def test_not_like(self):
        assert self.expr("name not like 'a%'").negated

    def test_in_list(self):
        node = self.expr("x in (1, 2, 3)")
        assert isinstance(node, ast.InList)
        assert len(node.items) == 3

    def test_in_subquery(self):
        node = self.expr("x in (select y from t)")
        assert isinstance(node, ast.InSubquery)

    def test_not_in_subquery(self):
        assert self.expr("x not in (select y from t)").negated

    def test_exists(self):
        node = self.expr("exists (select * from t)")
        assert isinstance(node, ast.ExistsExpr)

    def test_scalar_subquery(self):
        node = self.expr("(select max(x) from t)")
        assert isinstance(node, ast.SubqueryExpr)

    def test_is_null(self):
        assert isinstance(self.expr("x is null"), ast.IsNullExpr)
        assert self.expr("x is not null").negated

    def test_case_searched(self):
        node = self.expr("case when a > 1 then 'x' else 'y' end")
        assert isinstance(node, ast.CaseExpr)
        assert node.else_result is not None

    def test_case_simple_form(self):
        node = self.expr("case a when 1 then 'x' end")
        # simple CASE is normalized into searched form
        assert node.whens[0][0].op == "="

    def test_date_literal(self):
        node = self.expr("date '1994-01-01'")
        assert node.value == datetime.date(1994, 1, 1)

    def test_interval_forms(self):
        one = self.expr("interval '3' month")
        two = self.expr("interval '3 month'")
        assert (one.quantity, one.unit) == (3, "month") == (two.quantity, two.unit)

    def test_date_plus_interval(self):
        node = self.expr("date '1994-01-01' + interval '1' year")
        assert node.op == "+"
        assert isinstance(node.right, ast.IntervalLiteral)

    def test_extract(self):
        node = self.expr("extract(year from o_orderdate)")
        assert isinstance(node, ast.ExtractExpr)
        assert node.part == "year"

    def test_substring_from_for(self):
        node = self.expr("substring(c_phone from 1 for 2)")
        assert isinstance(node, ast.FuncCall)
        assert len(node.args) == 3

    def test_substring_commas(self):
        node = self.expr("substring(c_phone, 1, 2)")
        assert len(node.args) == 3

    def test_cast_both_syntaxes(self):
        assert isinstance(self.expr("cast(a as int)"), ast.CastExpr)
        assert isinstance(self.expr("a::decimal(10,2)"), ast.CastExpr)

    def test_count_star_and_distinct(self):
        star = self.expr("count(*)")
        assert star.star
        distinct = self.expr("count(distinct x)")
        assert distinct.distinct

    def test_unary_minus(self):
        node = self.expr("-x")
        assert isinstance(node, ast.UnaryOp)

    def test_concat(self):
        assert self.expr("a || b").op == "||"

    def test_qualified_column(self):
        node = self.expr("t.a")
        assert node.table == "t" and node.name == "a"

    def test_null_true_false(self):
        assert self.expr("null").value is None
        assert self.expr("true").value is True


class TestDdlParsing:
    def test_create_table_with_options(self):
        stmt = parse_statement(
            "CREATE TABLE t (a INT NOT NULL, b VARCHAR(10)) "
            "WITH (appendonly=true, orientation=column, compresstype=zlib, "
            "compresslevel=5) DISTRIBUTED BY (a)"
        )
        assert stmt.options["orientation"] == "column"
        assert stmt.options["compresslevel"] == "5"
        assert stmt.distributed_by == ["a"]

    def test_create_table_randomly(self):
        stmt = parse_statement("CREATE TABLE t (a INT) DISTRIBUTED RANDOMLY")
        assert stmt.distributed_randomly

    def test_partition_by_range(self):
        stmt = parse_statement(
            "CREATE TABLE s (id INT, d DATE) DISTRIBUTED BY (id) "
            "PARTITION BY RANGE (d) (START (date '2008-01-01') INCLUSIVE "
            "END (date '2009-01-01') EXCLUSIVE EVERY (INTERVAL '1 month'))"
        )
        clause = stmt.partition_by
        assert clause.kind == "range"
        assert clause.start_inclusive and not clause.end_inclusive

    def test_partition_by_list(self):
        stmt = parse_statement(
            "CREATE TABLE s (id INT, r TEXT) DISTRIBUTED BY (id) "
            "PARTITION BY LIST (r) (PARTITION asia VALUES ('ASIA'), "
            "PARTITION other VALUES ('EUROPE', 'AFRICA'))"
        )
        assert [p[0] for p in stmt.partition_by.list_parts] == ["asia", "other"]

    def test_create_external_table(self):
        stmt = parse_statement(
            "CREATE EXTERNAL TABLE h (recordkey BYTEA, \"f:q\" INT) "
            "LOCATION ('pxf://svc/sales?profile=HBase') "
            "FORMAT 'CUSTOM' (formatter='pxfwritable_import')"
        )
        assert stmt.location.startswith("pxf://")
        assert stmt.format_options["formatter"] == "pxfwritable_import"

    def test_create_view(self):
        stmt = parse_statement("CREATE VIEW v AS SELECT a FROM t")
        assert isinstance(stmt.query, ast.SelectStmt)

    def test_drop_variants(self):
        assert parse_statement("DROP TABLE t").object_kind == "table"
        assert parse_statement("DROP VIEW IF EXISTS v").if_exists
        assert (
            parse_statement("DROP EXTERNAL TABLE e").object_kind
            == "external table"
        )

    def test_insert_values(self):
        stmt = parse_statement(
            "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)"
        )
        assert stmt.columns == ["a", "b"]
        assert len(stmt.rows) == 2

    def test_insert_select(self):
        stmt = parse_statement("INSERT INTO t SELECT * FROM s")
        assert stmt.select is not None

    def test_transaction_statements(self):
        assert isinstance(parse_statement("BEGIN"), ast.BeginStmt)
        begin = parse_statement("BEGIN ISOLATION LEVEL SERIALIZABLE")
        assert begin.isolation == "SERIALIZABLE"
        assert isinstance(parse_statement("COMMIT"), ast.CommitStmt)
        assert isinstance(parse_statement("ROLLBACK"), ast.RollbackStmt)
        assert isinstance(parse_statement("ABORT"), ast.RollbackStmt)

    def test_set_isolation(self):
        stmt = parse_statement("SET TRANSACTION ISOLATION LEVEL READ COMMITTED")
        assert stmt.name == "transaction_isolation"

    def test_analyze_explain_truncate(self):
        assert parse_statement("ANALYZE lineitem").table == "lineitem"
        assert parse_statement("ANALYZE").table is None
        explained = parse_statement("EXPLAIN SELECT 1")
        assert isinstance(explained.statement, ast.SelectStmt)
        assert parse_statement("TRUNCATE TABLE t").table == "t"

    def test_multi_statement_script(self):
        statements = parse_sql("BEGIN; SELECT 1; COMMIT;")
        assert len(statements) == 3


class TestErrors:
    @pytest.mark.parametrize(
        "text",
        [
            "SELECT",
            "SELECT FROM t",
            "SELECT a FROM",
            "CREATE TABLE t",
            "INSERT t VALUES (1)",
            "SELECT a FROM t WHERE",
            "SELECT case when x then 1",
            "UPDATE t SET a = 1",  # DML updates not in the dialect
        ],
    )
    def test_rejected(self, text):
        with pytest.raises(SqlSyntaxError):
            parse_statement(text)


class TestQuotedIdentifiers:
    """A quoted identifier names a column, table or alias even when its
    text spells a keyword; only an unquoted word is ever a keyword."""

    def test_quoted_keyword_as_a_column(self):
        stmt = parse_statement('SELECT "from" FROM t')
        assert stmt.items[0].expr == ast.ColumnRef(name="from")
        assert stmt.from_items[0] == ast.TableRef(name="t")

    def test_quoted_keyword_as_an_alias(self):
        stmt = parse_statement('SELECT a "order" FROM t')
        assert stmt.items[0] == ast.SelectItem(expr=ast.ColumnRef(name="a"), alias="order")

    def test_quoted_keyword_as_a_qualifier_and_a_table_alias(self):
        stmt = parse_statement('SELECT "select".x FROM t AS "select"')
        assert stmt.items[0].expr == ast.ColumnRef(name="x", table="select")
        assert stmt.from_items[0] == ast.TableRef(name="t", alias="select")

    def test_quoted_null_is_a_column(self):
        assert parse_statement('SELECT "null"').items[0].expr == ast.ColumnRef(name="null")

    @pytest.mark.parametrize("text", ["SELECT from FROM t", "SELECT select.x FROM t"])
    def test_the_same_words_unquoted_are_keywords(self, text):
        with pytest.raises(SqlSyntaxError):
            parse_statement(text)


#: The benchmark's ten point-lookup and tiny-join shapes, with keys filled in.
SHORT_STATEMENTS = (
    "SELECT c_custkey, c_name, c_acctbal FROM customer WHERE c_custkey = 17",
    "SELECT o_orderkey, o_orderstatus, o_totalprice FROM orders WHERE o_orderkey = 1",
    "SELECT p_partkey, p_name, p_retailprice FROM part WHERE p_partkey = 200",
    "SELECT l_linenumber, l_quantity, l_extendedprice FROM lineitem "
    "WHERE l_orderkey = 3 ORDER BY l_linenumber",
    "SELECT c_name, n_name FROM customer, nation "
    "WHERE c_nationkey = n_nationkey AND c_custkey = 42",
    "SELECT s_name, n_name FROM supplier, nation "
    "WHERE s_nationkey = n_nationkey AND s_suppkey = 9",
    "SELECT count(*), sum(o_totalprice) FROM orders WHERE o_custkey = 37",
    "SELECT count(*), max(l_shipdate) FROM lineitem WHERE l_orderkey = 5",
    "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = 37 "
    "ORDER BY o_totalprice DESC, o_orderkey LIMIT 3",
    "SELECT ps_suppkey, ps_supplycost FROM partsupp WHERE ps_partkey = 11 "
    "ORDER BY ps_supplycost, ps_suppkey LIMIT 2",
)

#: The DDL, DML and utility statements ``TestDdlParsing`` parses.
DDL_STATEMENTS = (
    "CREATE TABLE t (a INT NOT NULL, b VARCHAR(10)) "
    "WITH (appendonly=true, orientation=column, compresstype=zlib, "
    "compresslevel=5) DISTRIBUTED BY (a)",
    "CREATE TABLE t (a INT) DISTRIBUTED RANDOMLY",
    "CREATE TABLE s (id INT, d DATE) DISTRIBUTED BY (id) "
    "PARTITION BY RANGE (d) (START (date '2008-01-01') INCLUSIVE "
    "END (date '2009-01-01') EXCLUSIVE EVERY (INTERVAL '1 month'))",
    "CREATE TABLE s (id INT, r TEXT) DISTRIBUTED BY (id) "
    "PARTITION BY LIST (r) (PARTITION asia VALUES ('ASIA'), "
    "PARTITION other VALUES ('EUROPE', 'AFRICA'))",
    "CREATE EXTERNAL TABLE h (recordkey BYTEA, \"f:q\" INT) "
    "LOCATION ('pxf://svc/sales?profile=HBase') "
    "FORMAT 'CUSTOM' (formatter='pxfwritable_import')",
    "CREATE VIEW v AS SELECT a FROM t",
    "DROP TABLE t",
    "DROP VIEW IF EXISTS v",
    "DROP EXTERNAL TABLE e",
    "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)",
    "INSERT INTO t SELECT * FROM s",
    "BEGIN",
    "BEGIN ISOLATION LEVEL SERIALIZABLE",
    "COMMIT",
    "ROLLBACK",
    "ABORT",
    "SET TRANSACTION ISOLATION LEVEL READ COMMITTED",
    "ANALYZE lineitem",
    "ANALYZE",
    "EXPLAIN SELECT 1",
    "TRUNCATE TABLE t",
    "BEGIN; SELECT 1; COMMIT;",
)

#: sha256 of the ASTs' reprs, one statement list per line, as parsed by
#: the character-loop lexer and the ``.upper()``-comparing parser.
AST_DIGEST = "94897468bf5cf4d6f9b559e543dd8f68651629df3437403ab91f81a63442090d"


def test_asts_are_the_ones_pinned():
    texts = [sql for n in sorted(QUERIES) for sql in QUERIES[n]]
    texts += SHORT_STATEMENTS + DDL_STATEMENTS
    reprs = "\n".join(repr(parse_sql(sql)) for sql in texts)
    assert hashlib.sha256(reprs.encode()).hexdigest() == AST_DIGEST
