"""Recursive-descent parser for BlinkQL.

Grammar (simplified)::

    query        := SELECT select_list FROM identifier join* [WHERE predicate]
                    [GROUP BY column_list] [bound] [LIMIT number] [';']
    select_list  := select_item (',' select_item)*
    select_item  := aggregate | error_report | column
    aggregate    := FUNC '(' ('*' | column [',' number]) ')' [AS identifier]
    error_report := RELATIVE ERROR AT number '%' CONFIDENCE
    join         := JOIN identifier ON column '=' column
    bound        := ERROR WITHIN number ['%'] AT CONFIDENCE number ['%']
                  | WITHIN number SECONDS
    predicate    := or_expr
    or_expr      := and_expr (OR and_expr)*
    and_expr     := unary (AND unary)*
    unary        := NOT unary | '(' predicate ')' | comparison
    comparison   := column op literal | column IN '(' literal_list ')'
                  | column BETWEEN literal AND literal

Plain column references in the SELECT list are allowed when they also appear
in the GROUP BY clause (they name the output groups, as in standard SQL).
"""

from __future__ import annotations

import functools

from repro.common.errors import ParseError
from repro.sql.ast import (
    AggregateCall,
    AggregateFunction,
    BetweenPredicate,
    BinaryPredicate,
    ColumnRef,
    ComparisonOp,
    CompoundPredicate,
    ErrorBound,
    ExplainQuery,
    InPredicate,
    JoinClause,
    LogicalOp,
    NotPredicate,
    Predicate,
    Query,
    Statement,
    TimeBound,
)
from repro.sql.lexer import AGGREGATE_NAMES, Token, TokenType, tokenize

_FUNCTION_MAP = {
    "COUNT": AggregateFunction.COUNT,
    "SUM": AggregateFunction.SUM,
    "AVG": AggregateFunction.AVG,
    "MEAN": AggregateFunction.AVG,
    "QUANTILE": AggregateFunction.QUANTILE,
    "PERCENTILE": AggregateFunction.QUANTILE,
    "MEDIAN": AggregateFunction.MEDIAN,
    "STDDEV": AggregateFunction.STDDEV,
    "VARIANCE": AggregateFunction.VARIANCE,
}

_COMPARISON_MAP = {
    "=": ComparisonOp.EQ,
    "!=": ComparisonOp.NE,
    "<>": ComparisonOp.NE,
    "<": ComparisonOp.LT,
    "<=": ComparisonOp.LE,
    ">": ComparisonOp.GT,
    ">=": ComparisonOp.GE,
}

#: Statements :func:`parse_statement` remembers, least recently used first
#: out; the same size as the result cache, so a pool of statements that
#: the cache can hold parses once.
PARSE_MEMO_ENTRIES = 512


class _Parser:
    """Stateful cursor over a token list."""

    def __init__(self, tokens: list[Token], text: str) -> None:
        self.tokens = tokens
        self.text = text
        self.pos = 0

    # -- cursor helpers ------------------------------------------------------
    def peek(self, offset: int = 0) -> Token:
        index = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[index]

    def advance(self) -> Token:
        token = self.peek()
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def expect_keyword(self, word: str) -> Token:
        token = self.peek()
        if not token.is_keyword(word):
            raise ParseError(
                f"expected keyword {word!r} at position {token.position}, got {token.value!r}",
                token.position,
            )
        return self.advance()

    def expect_symbol(self, symbol: str) -> Token:
        token = self.peek()
        if not token.is_symbol(symbol):
            raise ParseError(
                f"expected {symbol!r} at position {token.position}, got {token.value!r}",
                token.position,
            )
        return self.advance()

    def accept_keyword(self, word: str) -> bool:
        if self.peek().is_keyword(word):
            self.advance()
            return True
        return False

    def accept_symbol(self, symbol: str) -> bool:
        if self.peek().is_symbol(symbol):
            self.advance()
            return True
        return False

    def expect_identifier(self) -> str:
        token = self.peek()
        if token.type is TokenType.IDENTIFIER:
            self.advance()
            return token.value
        if token.type is TokenType.KEYWORD:
            # Contextual keywords: where the grammar *requires* an identifier
            # (column, table, and alias names) a keyword-like word is an
            # ordinary identifier, so ``SELECT SUM(in) FROM a`` parses.  The
            # lexer uppercases keyword tokens, so the original spelling is
            # recovered from the source text (keywords never change length).
            self.advance()
            return self.text[token.position : token.position + len(token.value)]
        raise ParseError(
            f"expected identifier at position {token.position}, got {token.value!r}",
            token.position,
        )

    def expect_number(self) -> float:
        token = self.peek()
        if token.type is not TokenType.NUMBER:
            raise ParseError(
                f"expected number at position {token.position}, got {token.value!r}",
                token.position,
            )
        self.advance()
        return float(token.value)

    # -- query -------------------------------------------------------------------
    def parse(self) -> Query:
        if self.peek().is_keyword("EXPLAIN"):
            raise ParseError(
                "EXPLAIN is a statement, not a query; parse it with parse_statement()",
                self.peek().position,
            )
        self.expect_keyword("SELECT")
        aggregates, report_error, projected_columns = self._parse_select_list()
        self.expect_keyword("FROM")
        table = self.expect_identifier()

        joins: list[JoinClause] = []
        while self.peek().is_keyword("JOIN"):
            joins.append(self._parse_join())

        where = None
        if self.accept_keyword("WHERE"):
            where = self._parse_or_expr()

        group_by: list[ColumnRef] = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self._parse_column_ref())
            while self.accept_symbol(","):
                group_by.append(self._parse_column_ref())

        error_bound, time_bound, select_confidence = self._parse_bounds()

        limit = None
        if self.accept_keyword("LIMIT"):
            limit = int(self.expect_number())

        self.accept_symbol(";")
        trailing = self.peek()
        if trailing.type is not TokenType.EOF:
            raise ParseError(
                f"unexpected trailing input at position {trailing.position}: {trailing.value!r}",
                trailing.position,
            )

        # Plain columns in the SELECT list must be group-by keys.
        group_names = {c.name for c in group_by}
        for column in projected_columns:
            if column.name not in group_names:
                raise ParseError(
                    f"column {column.name!r} in SELECT list must appear in GROUP BY"
                )

        if select_confidence is not None and error_bound is None and time_bound is None:
            # "RELATIVE ERROR AT c% CONFIDENCE" alone sets the reporting
            # confidence but imposes no bound.
            report_error = True

        if not aggregates:
            raise ParseError("query must contain at least one aggregate function")

        return Query(
            table=table,
            aggregates=tuple(aggregates),
            group_by=tuple(group_by),
            where=where,
            joins=tuple(joins),
            error_bound=error_bound,
            time_bound=time_bound,
            report_error=report_error,
            limit=limit,
            raw_sql=self.text,
        )

    # -- select list ------------------------------------------------------------------
    def _parse_select_list(self) -> tuple[list[AggregateCall], bool, list[ColumnRef]]:
        aggregates: list[AggregateCall] = []
        projected: list[ColumnRef] = []
        report_error = False
        while True:
            token = self.peek()
            if token.is_keyword("RELATIVE") or (
                token.is_keyword("ERROR") and not token.is_symbol("(")
            ):
                self._parse_error_report()
                report_error = True
            elif (
                token.type is TokenType.IDENTIFIER
                and token.value.upper() in AGGREGATE_NAMES
                and self.peek(1).is_symbol("(")
            ):
                aggregates.append(self._parse_aggregate())
            elif token.type in (TokenType.IDENTIFIER, TokenType.KEYWORD):
                # Keywords reach here only when they start no known construct
                # (RELATIVE/ERROR are handled above): treat them as contextual
                # keywords naming a projected column.
                projected.append(self._parse_column_ref())
            else:
                raise ParseError(
                    f"unexpected token {token.value!r} in SELECT list at {token.position}",
                    token.position,
                )
            if not self.accept_symbol(","):
                break
        return aggregates, report_error, projected

    def _parse_error_report(self) -> float:
        """Parse ``RELATIVE ERROR AT c% CONFIDENCE`` and return c (fraction)."""
        self.accept_keyword("RELATIVE")
        self.expect_keyword("ERROR")
        self.expect_keyword("AT")
        value = self.expect_number()
        self.accept_symbol("%")
        self.expect_keyword("CONFIDENCE")
        return value / 100.0

    def _parse_aggregate(self) -> AggregateCall:
        name_token = self.advance()
        function = _FUNCTION_MAP[name_token.value.upper()]
        self.expect_symbol("(")
        column: ColumnRef | None = None
        quantile: float | None = None
        if self.accept_symbol("*"):
            if function is not AggregateFunction.COUNT:
                raise ParseError(f"{name_token.value}(*) is only valid for COUNT")
        else:
            column = self._parse_column_ref()
            if self.accept_symbol(","):
                quantile = self.expect_number()
                if quantile > 1.0:
                    quantile /= 100.0
        self.expect_symbol(")")
        if function is AggregateFunction.MEDIAN:
            function = AggregateFunction.QUANTILE
            quantile = 0.5
        if function is AggregateFunction.QUANTILE and quantile is None:
            quantile = 0.5
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier()
        return AggregateCall(function=function, column=column, quantile=quantile, alias=alias)

    # -- joins -------------------------------------------------------------------------
    def _parse_join(self) -> JoinClause:
        self.expect_keyword("JOIN")
        right_table = self.expect_identifier()
        self.expect_keyword("ON")
        left = self._parse_column_ref()
        self.expect_symbol("=")
        right = self._parse_column_ref()
        return JoinClause(right_table=right_table, left_column=left, right_column=right)

    # -- bounds -------------------------------------------------------------------------
    def _parse_bounds(self) -> tuple[ErrorBound | None, TimeBound | None, float | None]:
        error_bound: ErrorBound | None = None
        time_bound: TimeBound | None = None
        confidence: float | None = None
        if self.peek().is_keyword("ERROR"):
            self.advance()
            self.expect_keyword("WITHIN")
            value = self.expect_number()
            relative = self.accept_symbol("%")
            conf = 0.95
            if self.accept_keyword("AT"):
                self.expect_keyword("CONFIDENCE")
                conf = self.expect_number()
                self.accept_symbol("%")
                if conf > 1.0:
                    conf /= 100.0
            error = value / 100.0 if relative else value
            error_bound = ErrorBound(error=error, confidence=conf, relative=relative)
            confidence = conf
        elif self.peek().is_keyword("WITHIN"):
            self.advance()
            seconds = self.expect_number()
            self.expect_keyword("SECONDS")
            time_bound = TimeBound(seconds=seconds)
        return error_bound, time_bound, confidence

    # -- predicates ----------------------------------------------------------------------
    def _parse_or_expr(self) -> Predicate:
        operands = [self._parse_and_expr()]
        while self.accept_keyword("OR"):
            operands.append(self._parse_and_expr())
        if len(operands) == 1:
            return operands[0]
        return CompoundPredicate(op=LogicalOp.OR, operands=tuple(operands))

    def _parse_and_expr(self) -> Predicate:
        operands = [self._parse_unary()]
        while self.accept_keyword("AND"):
            operands.append(self._parse_unary())
        if len(operands) == 1:
            return operands[0]
        return CompoundPredicate(op=LogicalOp.AND, operands=tuple(operands))

    def _parse_unary(self) -> Predicate:
        if self.accept_keyword("NOT"):
            return NotPredicate(inner=self._parse_unary())
        if self.accept_symbol("("):
            inner = self._parse_or_expr()
            self.expect_symbol(")")
            return inner
        return self._parse_comparison()

    def _parse_comparison(self) -> Predicate:
        column = self._parse_column_ref()
        token = self.peek()
        if token.is_keyword("IN"):
            self.advance()
            self.expect_symbol("(")
            values = [self._parse_literal()]
            while self.accept_symbol(","):
                values.append(self._parse_literal())
            self.expect_symbol(")")
            return InPredicate(column=column, values=tuple(values))
        if token.is_keyword("BETWEEN"):
            self.advance()
            low = self._parse_literal()
            self.expect_keyword("AND")
            high = self._parse_literal()
            return BetweenPredicate(column=column, low=low, high=high)
        if token.type is TokenType.SYMBOL and token.value in _COMPARISON_MAP:
            self.advance()
            value = self._parse_literal()
            return BinaryPredicate(column=column, op=_COMPARISON_MAP[token.value], value=value)
        raise ParseError(
            f"expected a comparison operator at position {token.position}, got {token.value!r}",
            token.position,
        )

    # -- terminals ------------------------------------------------------------------------
    def _parse_column_ref(self) -> ColumnRef:
        name = self.expect_identifier()
        if self.accept_symbol("."):
            column = self.expect_identifier()
            return ColumnRef(name=column, table=name)
        return ColumnRef(name=name)

    def _parse_literal(self) -> object:
        token = self.peek()
        if token.type is TokenType.NUMBER:
            self.advance()
            value = float(token.value)
            return int(value) if value.is_integer() and "." not in token.value else value
        if token.type is TokenType.STRING:
            self.advance()
            return token.value
        if token.is_keyword("TRUE"):
            self.advance()
            return True
        if token.is_keyword("FALSE"):
            self.advance()
            return False
        raise ParseError(
            f"expected a literal at position {token.position}, got {token.value!r}",
            token.position,
        )


def parse_query(text: str) -> Query:
    """Parse a BlinkQL string into a :class:`~repro.sql.ast.Query`."""
    tokens = tokenize(text)
    return _Parser(tokens, text).parse()


@functools.lru_cache(maxsize=PARSE_MEMO_ENTRIES)
def parse_statement(text: str) -> Statement:
    """Parse a top-level BlinkQL statement.

    ``EXPLAIN SELECT ...`` yields an :class:`~repro.sql.ast.ExplainQuery`
    wrapping the inner query (``EXPLAIN ANALYZE SELECT ...`` additionally
    sets its ``analyze`` flag); anything else parses as a plain
    :class:`~repro.sql.ast.Query`.

    Memoised by statement text (the last :data:`PARSE_MEMO_ENTRIES`
    statements): parsing is pure and every AST node is a frozen dataclass,
    so a re-issued statement gets back the very object its first parse
    built.  A :class:`~repro.common.errors.ParseError` is never memoised;
    a bad statement raises on every call.
    """
    tokens = tokenize(text)
    parser = _Parser(tokens, text)
    if parser.peek().is_keyword("EXPLAIN"):
        parser.advance()
        analyze = parser.peek().is_keyword("ANALYZE")
        if analyze:
            parser.advance()
        return ExplainQuery(query=parser.parse(), analyze=analyze)
    return parser.parse()
