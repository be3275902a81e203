"""Recursive-descent SQL parser.

Covers the dialect DESIGN.md promises: everything the 22 TPC-H queries
need plus HAWQ's DDL (DISTRIBUTED BY / RANDOMLY, PARTITION BY RANGE and
LIST, storage WITH options, external PXF tables) and transaction control.
"""

from __future__ import annotations

import datetime
from typing import List, Optional, Tuple

from repro.errors import SqlSyntaxError
from repro.sql import ast
from repro.sql.lexer import Token, TokenKind, tokenize

#: Keywords that can never start/be a bare column reference.
_RESERVED_IN_EXPRESSIONS = {
    "SELECT", "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "BY", "LIMIT",
    "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "CROSS", "ON", "AND", "OR",
    "UNION", "AS", "WHEN", "THEN", "ELSE", "END", "DISTINCT", "INTO",
    "VALUES",
}
#: Words that terminate an expression list / FROM item.
_CLAUSE_KEYWORDS = {
    "FROM", "WHERE", "GROUP", "HAVING", "ORDER", "LIMIT", "UNION",
    "ON", "JOIN", "INNER", "LEFT", "RIGHT", "FULL", "CROSS", "AND",
    "OR", "AS",
}
#: Comparison operators, with ``!=`` spelled the way the AST spells it.
_COMPARISONS = {
    "<=": "<=", ">=": ">=", "<>": "<>", "!=": "<>", "=": "=", "<": "<", ">": ">",
}
_ADDITIVE = ("+", "-", "||")
_MULTIPLICATIVE = ("*", "/", "%")
#: Keywords that follow an optional NOT in a comparison.
_NEGATABLE = ("LIKE", "BETWEEN", "IN")


def parse_sql(text: str) -> List[ast.Statement]:
    """Parse a semicolon-separated script into statements."""
    parser = _Parser(tokenize(text))
    statements = []
    while not parser.at_eof():
        if parser.try_consume_op(";"):
            continue
        statements.append(parser.parse_statement())
    return statements


def parse_statement(text: str) -> ast.Statement:
    """Parse exactly one statement."""
    statements = parse_sql(text)
    if len(statements) != 1:
        raise SqlSyntaxError(f"expected one statement, got {len(statements)}")
    return statements[0]


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        #: Each token's ``key``; a keyword or an operator matches by
        #: equality here. The parser never moves past the EOF token, whose
        #: key is ``None``, so ``keys[pos]`` always exists.
        self.keys = tuple(token.key for token in tokens)
        self.pos = 0

    # ----------------------------------------------------------- token plumbing
    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def at_eof(self) -> bool:
        return self.tokens[self.pos].kind is TokenKind.EOF

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def error(self, message: str) -> SqlSyntaxError:
        token = self.peek()
        return SqlSyntaxError(f"{message} (at {token.value!r}, pos {token.position})")

    def at_keyword(self, *words: str) -> bool:
        pos = self.pos
        return self.keys[pos : pos + len(words)] == words

    def consume_keyword(self, *words: str) -> None:
        if not self.try_consume_keyword(*words):
            raise self.error(f"expected {' '.join(words)}")

    def try_consume_keyword(self, *words: str) -> bool:
        end = self.pos + len(words)
        if self.keys[self.pos : end] == words:
            self.pos = end
            return True
        return False

    def at_op(self, op: str) -> bool:
        return self.keys[self.pos] == op

    def consume_op(self, op: str) -> None:
        if self.keys[self.pos] != op:
            raise self.error(f"expected {op!r}")
        self.pos += 1

    def try_consume_op(self, op: str) -> bool:
        if self.keys[self.pos] == op:
            self.pos += 1
            return True
        return False

    def consume_ident(self) -> str:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.IDENT:
            raise self.error("expected identifier")
        self.pos += 1
        return token.value

    def consume_string(self) -> str:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.STRING:
            raise self.error("expected string literal")
        self.pos += 1
        return token.value

    def consume_integer(self) -> int:
        token = self.tokens[self.pos]
        if token.kind is not TokenKind.NUMBER or "." in token.value:
            raise self.error("expected integer")
        self.pos += 1
        return int(token.value)

    # ------------------------------------------------------------- statements
    def parse_statement(self) -> ast.Statement:
        if self.at_keyword("SELECT"):
            return self.parse_select()
        if (
            self.at_keyword("CREATE", "EXTERNAL", "TABLE")
            or self.at_keyword("CREATE", "READABLE", "EXTERNAL", "TABLE")
            or self.at_keyword("CREATE", "WRITABLE", "EXTERNAL", "TABLE")
        ):
            return self.parse_create_external_table()
        if self.at_keyword("CREATE", "TABLE"):
            return self.parse_create_table()
        if self.at_keyword("CREATE", "VIEW") or self.at_keyword(
            "CREATE", "OR", "REPLACE", "VIEW"
        ):
            return self.parse_create_view()
        if self.at_keyword("CREATE", "ROLE") or self.at_keyword("CREATE", "USER"):
            return self.parse_create_role()
        if self.at_keyword("CREATE", "RESOURCE", "QUEUE"):
            return self.parse_create_resource_queue()
        if self.at_keyword("ALTER", "ROLE") or self.at_keyword("ALTER", "USER"):
            return self.parse_alter_role()
        if self.at_keyword("ALTER", "TABLE"):
            return self.parse_alter_table()
        if self.at_keyword("GRANT") or self.at_keyword("REVOKE"):
            return self.parse_grant()
        if self.at_keyword("DROP", "ROLE") or self.at_keyword("DROP", "USER"):
            self.advance()
            self.advance()
            return ast.DropRoleStmt(name=self.consume_ident())
        if self.at_keyword("DROP", "RESOURCE", "QUEUE"):
            self.consume_keyword("DROP", "RESOURCE", "QUEUE")
            return ast.DropResourceQueueStmt(name=self.consume_ident())
        if self.at_keyword("DROP"):
            return self.parse_drop()
        if self.at_keyword("INSERT"):
            return self.parse_insert()
        if self.at_keyword("BEGIN") or self.at_keyword("START", "TRANSACTION"):
            return self.parse_begin()
        if self.at_keyword("COMMIT") or self.at_keyword("END"):
            self.advance()
            self.try_consume_keyword("TRANSACTION")
            return ast.CommitStmt()
        if self.at_keyword("ROLLBACK") or self.at_keyword("ABORT"):
            self.advance()
            self.try_consume_keyword("TRANSACTION")
            return ast.RollbackStmt()
        if self.at_keyword("SET"):
            return self.parse_set()
        if self.at_keyword("ANALYZE"):
            self.advance()
            table = None
            if self.peek().kind is TokenKind.IDENT:
                table = self.consume_ident()
            return ast.AnalyzeStmt(table=table)
        if self.at_keyword("VACUUM"):
            self.advance()
            table = None
            if self.peek().kind is TokenKind.IDENT:
                table = self.consume_ident()
            return ast.VacuumStmt(table=table)
        if self.at_keyword("EXPLAIN"):
            self.advance()
            analyze = False
            verbose = False
            if self.try_consume_op("("):
                # PostgreSQL-style option list: EXPLAIN (ANALYZE, VERBOSE)
                while True:
                    option = self.consume_ident().upper()
                    if option == "ANALYZE":
                        analyze = True
                    elif option == "VERBOSE":
                        verbose = True
                    else:
                        raise self.error(
                            f"unknown EXPLAIN option {option!r}"
                        )
                    if not self.try_consume_op(","):
                        break
                self.consume_op(")")
            else:
                analyze = self.try_consume_keyword("ANALYZE")
                verbose = self.try_consume_keyword("VERBOSE")
            return ast.ExplainStmt(
                statement=self.parse_statement(),
                analyze=analyze,
                verbose=verbose,
            )
        if self.at_keyword("COPY"):
            return self.parse_copy()
        if self.at_keyword("TRUNCATE"):
            self.advance()
            self.try_consume_keyword("TABLE")
            return ast.TruncateStmt(table=self.consume_ident())
        raise self.error("unsupported statement")

    def parse_copy(self) -> ast.CopyStmt:
        self.consume_keyword("COPY")
        table = self.consume_ident()
        if self.try_consume_keyword("FROM"):
            direction = "from"
        elif self.try_consume_keyword("TO"):
            direction = "to"
        else:
            raise self.error("expected FROM or TO")
        path = self.consume_string()
        delimiter = "|"
        if self.try_consume_keyword("WITH"):
            self.try_consume_keyword("DELIMITER")
            delimiter = self.consume_string()
        elif self.try_consume_keyword("DELIMITER"):
            delimiter = self.consume_string()
        return ast.CopyStmt(
            table=table, path=path, direction=direction, delimiter=delimiter
        )

    def parse_begin(self) -> ast.BeginStmt:
        if self.at_keyword("START"):
            self.consume_keyword("START", "TRANSACTION")
        else:
            self.consume_keyword("BEGIN")
            self.try_consume_keyword("TRANSACTION")
            self.try_consume_keyword("WORK")
        isolation = None
        if self.try_consume_keyword("ISOLATION", "LEVEL"):
            words = [self.consume_ident()]
            while self.peek().kind is TokenKind.IDENT and not self.at_op(";"):
                words.append(self.consume_ident())
            isolation = " ".join(words)
        return ast.BeginStmt(isolation=isolation)

    def parse_set(self) -> ast.SetStmt:
        self.consume_keyword("SET")
        if self.try_consume_keyword("TRANSACTION", "ISOLATION", "LEVEL"):
            words = [self.consume_ident()]
            while self.peek().kind is TokenKind.IDENT:
                words.append(self.consume_ident())
            return ast.SetStmt(name="transaction_isolation", value=" ".join(words))
        name = self.consume_ident()
        if not (self.try_consume_op("=") or self.try_consume_keyword("TO")):
            raise self.error("expected = or TO in SET")
        token = self.advance()
        return ast.SetStmt(name=name.lower(), value=token.value)

    def parse_drop(self) -> ast.DropStmt:
        self.consume_keyword("DROP")
        if self.try_consume_keyword("EXTERNAL", "TABLE"):
            kind = "external table"
        elif self.try_consume_keyword("TABLE"):
            kind = "table"
        elif self.try_consume_keyword("VIEW"):
            kind = "view"
        else:
            raise self.error("expected TABLE or VIEW after DROP")
        if_exists = self.try_consume_keyword("IF", "EXISTS")
        name = self.consume_ident()
        return ast.DropStmt(object_kind=kind, name=name, if_exists=if_exists)

    # ------------------------------------------------------------------- DDL
    def parse_column_defs(self) -> List[ast.ColumnDef]:
        self.consume_op("(")
        columns = []
        while True:
            name = self.consume_ident()
            type_name = self.parse_type_name()
            not_null = False
            if self.try_consume_keyword("NOT", "NULL"):
                not_null = True
            elif self.try_consume_keyword("NULL"):
                not_null = False
            columns.append(ast.ColumnDef(name=name, type_name=type_name, not_null=not_null))
            if self.try_consume_op(","):
                continue
            self.consume_op(")")
            return columns

    def parse_type_name(self) -> str:
        parts = [self.consume_ident()]
        # multi-word type names: DOUBLE PRECISION, CHARACTER VARYING
        while self.at_keyword("PRECISION"):
            parts.append(self.consume_ident())
        if self.keys[self.pos - 1] == "CHARACTER" and self.try_consume_keyword("VARYING"):
            parts = ["varchar"]
        name = " ".join(parts)
        if self.at_op("("):
            self.consume_op("(")
            args = [str(self.consume_integer())]
            while self.try_consume_op(","):
                args.append(str(self.consume_integer()))
            self.consume_op(")")
            name += "(" + ",".join(args) + ")"
        return name

    def parse_create_table(self) -> ast.CreateTableStmt:
        self.consume_keyword("CREATE", "TABLE")
        name = self.consume_ident()
        columns = self.parse_column_defs()
        options = {}
        distributed_by = None
        distributed_randomly = False
        partition_by = None
        while True:
            if self.try_consume_keyword("WITH"):
                options.update(self.parse_options())
            elif self.try_consume_keyword("DISTRIBUTED", "RANDOMLY"):
                distributed_randomly = True
            elif self.try_consume_keyword("DISTRIBUTED", "BY"):
                self.consume_op("(")
                distributed_by = [self.consume_ident()]
                while self.try_consume_op(","):
                    distributed_by.append(self.consume_ident())
                self.consume_op(")")
            elif self.at_keyword("PARTITION", "BY"):
                partition_by = self.parse_partition_by()
            else:
                break
        return ast.CreateTableStmt(
            name=name,
            columns=columns,
            distributed_by=distributed_by,
            distributed_randomly=distributed_randomly,
            partition_by=partition_by,
            options=options,
        )

    def parse_options(self) -> dict:
        self.consume_op("(")
        options = {}
        if self.try_consume_op(")"):
            return options
        while True:
            key = self.consume_ident().lower()
            self.consume_op("=")
            token = self.advance()
            options[key] = token.value
            if self.try_consume_op(","):
                continue
            self.consume_op(")")
            return options

    def parse_partition_by(self) -> ast.PartitionByClause:
        self.consume_keyword("PARTITION", "BY")
        if self.try_consume_keyword("RANGE"):
            kind = "range"
        elif self.try_consume_keyword("LIST"):
            kind = "list"
        else:
            raise self.error("expected RANGE or LIST")
        self.consume_op("(")
        column = self.consume_ident()
        self.consume_op(")")
        clause = ast.PartitionByClause(column=column, kind=kind)
        self.consume_op("(")
        if kind == "range":
            while True:
                if self.try_consume_keyword("START"):
                    self.consume_op("(")
                    clause.start = self.parse_expression()
                    self.consume_op(")")
                    if self.try_consume_keyword("INCLUSIVE"):
                        clause.start_inclusive = True
                    elif self.try_consume_keyword("EXCLUSIVE"):
                        clause.start_inclusive = False
                elif self.try_consume_keyword("END"):
                    self.consume_op("(")
                    clause.end = self.parse_expression()
                    self.consume_op(")")
                    if self.try_consume_keyword("INCLUSIVE"):
                        clause.end_inclusive = True
                    elif self.try_consume_keyword("EXCLUSIVE"):
                        clause.end_inclusive = False
                elif self.try_consume_keyword("EVERY"):
                    self.consume_op("(")
                    clause.every = self.parse_expression()
                    self.consume_op(")")
                else:
                    break
                self.try_consume_op(",")
            self.consume_op(")")
        else:
            while True:
                self.consume_keyword("PARTITION")
                part_name = self.consume_ident()
                self.consume_keyword("VALUES")
                self.consume_op("(")
                values = [self.parse_expression()]
                while self.try_consume_op(","):
                    values.append(self.parse_expression())
                self.consume_op(")")
                clause.list_parts.append((part_name, values))
                if self.try_consume_op(","):
                    continue
                self.consume_op(")")
                break
        return clause

    def parse_create_external_table(self) -> ast.CreateExternalTableStmt:
        self.consume_keyword("CREATE")
        writable = self.try_consume_keyword("WRITABLE")
        self.try_consume_keyword("READABLE")
        self.consume_keyword("EXTERNAL", "TABLE")
        name = self.consume_ident()
        columns = self.parse_column_defs()
        self.consume_keyword("LOCATION")
        self.consume_op("(")
        location = self.consume_string()
        self.consume_op(")")
        format_name = "CUSTOM"
        format_options = {}
        if self.try_consume_keyword("FORMAT"):
            format_name = self.consume_string()
            if self.at_op("("):
                format_options = self.parse_options()
        return ast.CreateExternalTableStmt(
            name=name,
            columns=columns,
            location=location,
            format_name=format_name,
            format_options=format_options,
            writable=writable,
        )

    def parse_create_role(self) -> ast.CreateRoleStmt:
        self.consume_keyword("CREATE")
        self.advance()  # ROLE or USER
        name = self.consume_ident()
        superuser = False
        queue = None
        while True:
            if self.try_consume_keyword("SUPERUSER"):
                superuser = True
            elif self.try_consume_keyword("RESOURCE", "QUEUE"):
                queue = self.consume_ident()
            elif self.try_consume_keyword("LOGIN") or self.try_consume_keyword(
                "NOSUPERUSER"
            ):
                continue
            else:
                break
        return ast.CreateRoleStmt(name=name, superuser=superuser, resource_queue=queue)

    def parse_alter_role(self) -> ast.AlterRoleStmt:
        self.consume_keyword("ALTER")
        self.advance()  # ROLE or USER
        name = self.consume_ident()
        queue = None
        if self.try_consume_keyword("RESOURCE", "QUEUE"):
            queue = self.consume_ident()
        return ast.AlterRoleStmt(name=name, resource_queue=queue)

    def parse_alter_table(self) -> ast.AlterTableStmt:
        self.consume_keyword("ALTER", "TABLE")
        name = self.consume_ident()
        self.consume_keyword("SET")
        self.consume_keyword("WITH")
        options = self.parse_options()
        return ast.AlterTableStmt(name=name, options=options)

    def parse_create_resource_queue(self) -> ast.CreateResourceQueueStmt:
        self.consume_keyword("CREATE", "RESOURCE", "QUEUE")
        name = self.consume_ident()
        options = {}
        if self.try_consume_keyword("WITH"):
            options = self.parse_options()
        return ast.CreateResourceQueueStmt(name=name, options=options)

    def parse_grant(self) -> ast.GrantStmt:
        revoke = self.at_keyword("REVOKE")
        self.advance()  # GRANT or REVOKE
        privilege = self.consume_ident().lower()
        self.consume_keyword("ON")
        self.try_consume_keyword("TABLE")
        relation = self.consume_ident()
        if revoke:
            self.consume_keyword("FROM")
        else:
            self.consume_keyword("TO")
        role = self.consume_ident()
        return ast.GrantStmt(
            privilege=privilege, relation=relation, role=role, revoke=revoke
        )

    def parse_create_view(self) -> ast.CreateViewStmt:
        self.consume_keyword("CREATE")
        self.try_consume_keyword("OR", "REPLACE")
        self.consume_keyword("VIEW")
        name = self.consume_ident()
        self.consume_keyword("AS")
        query = self.parse_select()
        return ast.CreateViewStmt(name=name, query=query)

    def parse_insert(self) -> ast.InsertStmt:
        self.consume_keyword("INSERT", "INTO")
        table = self.consume_ident()
        columns = None
        if self.at_op("(") and not self.at_keyword("SELECT"):
            # Distinguish column list from INSERT INTO t (SELECT ...)
            save = self.pos
            self.consume_op("(")
            if self.at_keyword("SELECT"):
                self.pos = save
            else:
                columns = [self.consume_ident()]
                while self.try_consume_op(","):
                    columns.append(self.consume_ident())
                self.consume_op(")")
        if self.try_consume_keyword("VALUES"):
            rows = []
            while True:
                self.consume_op("(")
                row = [self.parse_expression()]
                while self.try_consume_op(","):
                    row.append(self.parse_expression())
                self.consume_op(")")
                rows.append(row)
                if not self.try_consume_op(","):
                    break
            return ast.InsertStmt(table=table, columns=columns, rows=rows)
        wrapped = self.try_consume_op("(")
        select = self.parse_select()
        if wrapped:
            self.consume_op(")")
        return ast.InsertStmt(table=table, columns=columns, select=select)

    # ----------------------------------------------------------------- SELECT
    def parse_select(self) -> ast.SelectStmt:
        self.consume_keyword("SELECT")
        stmt = ast.SelectStmt()
        if self.try_consume_keyword("DISTINCT"):
            stmt.distinct = True
        elif self.try_consume_keyword("ALL"):
            pass
        stmt.items = self.parse_select_items()
        if self.try_consume_keyword("FROM"):
            stmt.from_items = [self.parse_from_item()]
            while self.try_consume_op(","):
                stmt.from_items.append(self.parse_from_item())
        if self.try_consume_keyword("WHERE"):
            stmt.where = self.parse_expression()
        if self.try_consume_keyword("GROUP", "BY"):
            stmt.group_by = [self.parse_expression()]
            while self.try_consume_op(","):
                stmt.group_by.append(self.parse_expression())
        if self.try_consume_keyword("HAVING"):
            stmt.having = self.parse_expression()
        if self.try_consume_keyword("ORDER", "BY"):
            stmt.order_by = [self.parse_sort_item()]
            while self.try_consume_op(","):
                stmt.order_by.append(self.parse_sort_item())
        if self.try_consume_keyword("LIMIT"):
            stmt.limit = self.consume_integer()
        return stmt

    def parse_select_items(self) -> List[ast.SelectItem]:
        items = [self.parse_select_item()]
        while self.try_consume_op(","):
            items.append(self.parse_select_item())
        return items

    def parse_select_item(self) -> ast.SelectItem:
        if self.at_op("*"):
            self.advance()
            return ast.SelectItem(expr=ast.Star())
        # t.* form
        pos = self.pos
        if (
            self.tokens[pos].kind is TokenKind.IDENT
            and self.keys[pos + 1 : pos + 3] == (".", "*")
        ):
            table = self.consume_ident()
            self.pos += 2
            return ast.SelectItem(expr=ast.Star(table=table))
        expr = self.parse_expression()
        alias = None
        if self.try_consume_keyword("AS") or self.at_alias():
            alias = self.consume_ident()
        return ast.SelectItem(expr=expr, alias=alias)

    def at_alias(self) -> bool:
        """An identifier that is no clause keyword: an alias without AS."""
        token = self.tokens[self.pos]
        return token.kind is TokenKind.IDENT and token.key not in _CLAUSE_KEYWORDS

    def parse_sort_item(self) -> ast.SortItem:
        expr = self.parse_expression()
        ascending = True
        if self.try_consume_keyword("ASC"):
            ascending = True
        elif self.try_consume_keyword("DESC"):
            ascending = False
        nulls_first = None
        if self.try_consume_keyword("NULLS", "FIRST"):
            nulls_first = True
        elif self.try_consume_keyword("NULLS", "LAST"):
            nulls_first = False
        return ast.SortItem(expr=expr, ascending=ascending, nulls_first=nulls_first)

    # ------------------------------------------------------------------- FROM
    def parse_from_item(self) -> ast.FromItem:
        item = self.parse_from_primary()
        while True:
            join_type = None
            if self.try_consume_keyword("CROSS", "JOIN"):
                join_type = "cross"
            elif self.try_consume_keyword("INNER", "JOIN"):
                join_type = "inner"
            elif self.try_consume_keyword("LEFT"):
                self.try_consume_keyword("OUTER")
                self.consume_keyword("JOIN")
                join_type = "left"
            elif self.try_consume_keyword("RIGHT"):
                self.try_consume_keyword("OUTER")
                self.consume_keyword("JOIN")
                join_type = "right"
            elif self.try_consume_keyword("FULL"):
                self.try_consume_keyword("OUTER")
                self.consume_keyword("JOIN")
                join_type = "full"
            elif self.try_consume_keyword("JOIN"):
                join_type = "inner"
            else:
                return item
            right = self.parse_from_primary()
            condition = None
            if join_type != "cross":
                self.consume_keyword("ON")
                condition = self.parse_expression()
            item = ast.JoinExpr(
                join_type=join_type, left=item, right=right, condition=condition
            )

    def parse_from_primary(self) -> ast.FromItem:
        if self.try_consume_op("("):
            if self.at_keyword("SELECT"):
                query = self.parse_select()
                self.consume_op(")")
                self.try_consume_keyword("AS")
                alias = self.consume_ident()
                return ast.SubquerySource(query=query, alias=alias)
            item = self.parse_from_item()
            self.consume_op(")")
            return item
        name = self.consume_ident()
        alias = None
        if self.try_consume_keyword("AS") or self.at_alias():
            alias = self.consume_ident()
        return ast.TableRef(name=name, alias=alias)

    # ------------------------------------------------------------ expressions
    def parse_expression(self) -> ast.Expr:
        return self.parse_or()

    def parse_or(self) -> ast.Expr:
        left = self.parse_and()
        while self.keys[self.pos] == "OR":
            self.pos += 1
            left = ast.BinaryOp(op="or", left=left, right=self.parse_and())
        return left

    def parse_and(self) -> ast.Expr:
        left = self.parse_not()
        while self.keys[self.pos] == "AND":
            self.pos += 1
            left = ast.BinaryOp(op="and", left=left, right=self.parse_not())
        return left

    def parse_not(self) -> ast.Expr:
        if self.keys[self.pos] == "NOT":
            self.pos += 1
            return ast.UnaryOp(op="not", operand=self.parse_not())
        return self.parse_comparison()

    def parse_comparison(self) -> ast.Expr:
        left = self.parse_additive()
        keys = self.keys
        while True:
            key = keys[self.pos]
            negated = key == "NOT"
            if negated:
                key = keys[self.pos + 1]
            if key in _NEGATABLE:
                self.pos += 1 + negated
                if key == "LIKE":
                    pattern = self.parse_additive()
                    left = ast.LikeExpr(operand=left, pattern=pattern, negated=negated)
                elif key == "BETWEEN":
                    lower = self.parse_additive()
                    self.consume_keyword("AND")
                    upper = self.parse_additive()
                    left = ast.BetweenExpr(
                        operand=left, lower=lower, upper=upper, negated=negated
                    )
                else:
                    self.consume_op("(")
                    if self.at_keyword("SELECT"):
                        query = self.parse_select()
                        self.consume_op(")")
                        left = ast.InSubquery(operand=left, query=query, negated=negated)
                    else:
                        items = [self.parse_expression()]
                        while self.try_consume_op(","):
                            items.append(self.parse_expression())
                        self.consume_op(")")
                        left = ast.InList(operand=left, items=items, negated=negated)
                continue
            if negated:
                return left  # NOT belongs to something else
            if key == "IS":
                self.pos += 1
                negated = self.try_consume_keyword("NOT")
                self.consume_keyword("NULL")
                left = ast.IsNullExpr(operand=left, negated=negated)
                continue
            op = _COMPARISONS.get(key)
            if op is None:
                return left
            self.pos += 1
            left = ast.BinaryOp(op=op, left=left, right=self.parse_additive())

    def parse_additive(self) -> ast.Expr:
        left = self.parse_multiplicative()
        while self.keys[self.pos] in _ADDITIVE:
            op = self.keys[self.pos]
            self.pos += 1
            left = ast.BinaryOp(op=op, left=left, right=self.parse_multiplicative())
        return left

    def parse_multiplicative(self) -> ast.Expr:
        left = self.parse_unary()
        while self.keys[self.pos] in _MULTIPLICATIVE:
            op = self.keys[self.pos]
            self.pos += 1
            left = ast.BinaryOp(op=op, left=left, right=self.parse_unary())
        return left

    def parse_unary(self) -> ast.Expr:
        key = self.keys[self.pos]
        if key == "-":
            self.pos += 1
            return ast.UnaryOp(op="-", operand=self.parse_unary())
        if key == "+":
            self.pos += 1
            return self.parse_unary()
        return self.parse_postfix()

    def parse_postfix(self) -> ast.Expr:
        expr = self.parse_primary()
        while self.try_consume_op("::"):
            expr = ast.CastExpr(operand=expr, type_name=self.parse_type_name())
        return expr

    def parse_primary(self) -> ast.Expr:
        token = self.tokens[self.pos]
        if token.kind is TokenKind.NUMBER:
            self.pos += 1
            if "." in token.value or "e" in token.value or "E" in token.value:
                return ast.Literal(float(token.value))
            return ast.Literal(int(token.value))
        if token.kind is TokenKind.STRING:
            self.pos += 1
            return ast.Literal(token.value)
        if self.try_consume_op("("):
            if self.at_keyword("SELECT"):
                query = self.parse_select()
                self.consume_op(")")
                return ast.SubqueryExpr(query=query)
            expr = self.parse_expression()
            self.consume_op(")")
            return expr
        if token.kind is not TokenKind.IDENT:
            raise self.error("expected expression")
        # A quoted identifier's key is None: it is never one of these.
        key = token.key
        if key in _RESERVED_IN_EXPRESSIONS:
            raise self.error("expected expression")
        if key == "NULL":
            self.pos += 1
            return ast.Literal(None)
        if key in ("TRUE", "FALSE"):
            self.pos += 1
            return ast.Literal(key == "TRUE")
        if key == "DATE" and self.peek(1).kind is TokenKind.STRING:
            self.advance()
            raw = self.consume_string()
            return ast.Literal(datetime.date.fromisoformat(raw))
        if key == "INTERVAL" and self.peek(1).kind is TokenKind.STRING:
            self.advance()
            return self.parse_interval()
        if key == "CASE":
            return self.parse_case()
        if key == "CAST":
            self.advance()
            self.consume_op("(")
            operand = self.parse_expression()
            self.consume_keyword("AS")
            type_name = self.parse_type_name()
            self.consume_op(")")
            return ast.CastExpr(operand=operand, type_name=type_name)
        if key == "EXTRACT":
            self.advance()
            self.consume_op("(")
            part = self.consume_ident().lower()
            self.consume_keyword("FROM")
            operand = self.parse_expression()
            self.consume_op(")")
            return ast.ExtractExpr(part=part, operand=operand)
        if key == "SUBSTRING":
            return self.parse_substring()
        if key == "EXISTS":
            self.advance()
            self.consume_op("(")
            query = self.parse_select()
            self.consume_op(")")
            return ast.ExistsExpr(query=query)
        # function call?
        if self.keys[self.pos + 1] == "(":
            return self.parse_func_call()
        # qualified or bare column reference
        name = self.consume_ident()
        if self.at_op(".") and self.tokens[self.pos + 1].kind is TokenKind.IDENT:
            self.pos += 1
            column = self.consume_ident()
            return ast.ColumnRef(name=column, table=name)
        return ast.ColumnRef(name=name)

    def parse_interval(self) -> ast.Expr:
        raw = self.consume_string().strip()
        parts = raw.split()
        if len(parts) == 2:
            quantity, unit = float(parts[0]), parts[1]
        elif len(parts) == 1:
            quantity = float(parts[0])
            unit = self.consume_ident()
        else:
            raise self.error(f"bad interval literal {raw!r}")
        unit = unit.lower().rstrip("s")
        if unit not in ("year", "month", "day", "week"):
            raise self.error(f"unsupported interval unit {unit!r}")
        if unit == "week":
            unit, quantity = "day", quantity * 7
        return ast.IntervalLiteral(quantity=quantity, unit=unit)

    def parse_case(self) -> ast.Expr:
        self.consume_keyword("CASE")
        case = ast.CaseExpr()
        operand = None
        if not self.at_keyword("WHEN"):
            operand = self.parse_expression()
        while self.try_consume_keyword("WHEN"):
            condition = self.parse_expression()
            if operand is not None:
                condition = ast.BinaryOp(op="=", left=operand, right=condition)
            self.consume_keyword("THEN")
            result = self.parse_expression()
            case.whens.append((condition, result))
        if self.try_consume_keyword("ELSE"):
            case.else_result = self.parse_expression()
        self.consume_keyword("END")
        if not case.whens:
            raise self.error("CASE needs at least one WHEN")
        return case

    def parse_substring(self) -> ast.Expr:
        self.consume_keyword("SUBSTRING")
        self.consume_op("(")
        operand = self.parse_expression()
        if self.try_consume_keyword("FROM"):
            start = self.parse_expression()
            length = None
            if self.try_consume_keyword("FOR"):
                length = self.parse_expression()
        else:
            self.consume_op(",")
            start = self.parse_expression()
            length = None
            if self.try_consume_op(","):
                length = self.parse_expression()
        self.consume_op(")")
        args = [operand, start]
        if length is not None:
            args.append(length)
        return ast.FuncCall(name="substring", args=args)

    def parse_func_call(self) -> ast.Expr:
        name = self.consume_ident().lower()
        self.consume_op("(")
        if self.try_consume_op("*"):
            self.consume_op(")")
            return ast.FuncCall(name=name, star=True)
        distinct = self.try_consume_keyword("DISTINCT")
        args = []
        if not self.at_op(")"):
            args.append(self.parse_expression())
            while self.try_consume_op(","):
                args.append(self.parse_expression())
        self.consume_op(")")
        return ast.FuncCall(name=name, args=args, distinct=distinct)
