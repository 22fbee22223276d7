"""Tests for the BlinkQL lexer and parser."""

import pytest

from repro.common.errors import ParseError
from repro.sql.ast import (
    AggregateFunction,
    BetweenPredicate,
    BinaryPredicate,
    ComparisonOp,
    CompoundPredicate,
    InPredicate,
    LogicalOp,
    NotPredicate,
    to_disjunctive_branches,
)
from repro.sql.lexer import TokenType, tokenize
from repro.sql.parser import PARSE_MEMO_ENTRIES, parse_query, parse_statement


class TestLexer:
    def test_keywords_uppercased(self):
        tokens = tokenize("select from where")
        assert [t.value for t in tokens[:-1]] == ["SELECT", "FROM", "WHERE"]
        assert all(t.type is TokenType.KEYWORD for t in tokens[:-1])

    def test_identifiers_preserve_case(self):
        tokens = tokenize("SELECT Session_Time")
        assert tokens[1].value == "Session_Time"
        assert tokens[1].type is TokenType.IDENTIFIER

    def test_string_literals(self):
        tokens = tokenize("WHERE city = 'New York'")
        strings = [t for t in tokens if t.type is TokenType.STRING]
        assert strings[0].value == "New York"

    def test_double_quoted_strings(self):
        tokens = tokenize('WHERE city = "SF"')
        assert any(t.type is TokenType.STRING and t.value == "SF" for t in tokens)

    def test_numbers_including_decimals(self):
        tokens = tokenize("WITHIN 2.5 SECONDS")
        numbers = [t for t in tokens if t.type is TokenType.NUMBER]
        assert numbers[0].value == "2.5"

    def test_two_char_symbols(self):
        tokens = tokenize("a >= 5 AND b <> 3")
        symbols = [t.value for t in tokens if t.type is TokenType.SYMBOL]
        assert ">=" in symbols
        assert "<>" in symbols

    def test_unterminated_string_raises(self):
        with pytest.raises(ParseError):
            tokenize("WHERE city = 'oops")

    def test_unknown_character_raises(self):
        with pytest.raises(ParseError):
            tokenize("SELECT @foo")

    def test_eof_token_appended(self):
        tokens = tokenize("SELECT")
        assert tokens[-1].type is TokenType.EOF


class TestParserBasics:
    def test_simple_count_star(self):
        query = parse_query("SELECT COUNT(*) FROM sessions")
        assert query.table == "sessions"
        assert query.aggregates[0].function is AggregateFunction.COUNT
        assert query.aggregates[0].column is None

    def test_paper_example_error_bound(self):
        query = parse_query(
            "SELECT COUNT(*) FROM Sessions WHERE Genre = 'western' "
            "GROUP BY OS ERROR WITHIN 10% AT CONFIDENCE 95%"
        )
        assert query.error_bound is not None
        assert query.error_bound.error == pytest.approx(0.10)
        assert query.error_bound.confidence == pytest.approx(0.95)
        assert query.group_by_columns() == {"OS"}
        assert query.where_columns() == {"Genre"}

    def test_paper_example_time_bound_with_error_report(self):
        query = parse_query(
            "SELECT COUNT(*), RELATIVE ERROR AT 95% CONFIDENCE FROM Sessions "
            "WHERE Genre = 'western' GROUP BY OS WITHIN 5 SECONDS"
        )
        assert query.time_bound is not None
        assert query.time_bound.seconds == 5.0
        assert query.report_error is True

    def test_multiple_aggregates_and_aliases(self):
        query = parse_query(
            "SELECT AVG(latency) AS mean_latency, SUM(bytes), COUNT(*) FROM logs"
        )
        names = [a.output_name() for a in query.aggregates]
        assert names == ["mean_latency", "sum_bytes", "count_star"]

    def test_quantile_and_median(self):
        query = parse_query("SELECT QUANTILE(latency, 0.99), MEDIAN(latency) FROM logs")
        q99, median = query.aggregates
        assert q99.function is AggregateFunction.QUANTILE
        assert q99.quantile == pytest.approx(0.99)
        assert median.function is AggregateFunction.QUANTILE
        assert median.quantile == pytest.approx(0.5)

    def test_percentile_integer_form(self):
        query = parse_query("SELECT PERCENTILE(latency, 95) FROM logs")
        assert query.aggregates[0].quantile == pytest.approx(0.95)

    def test_group_by_columns_in_select_list(self):
        query = parse_query("SELECT city, SUM(time) FROM sessions GROUP BY city")
        assert query.group_by_columns() == {"city"}

    def test_select_column_not_in_group_by_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT city, SUM(time) FROM sessions GROUP BY os")

    def test_limit_and_semicolon(self):
        query = parse_query("SELECT COUNT(*) FROM t GROUP BY c LIMIT 5;")
        assert query.limit == 5

    def test_absolute_error_bound(self):
        query = parse_query("SELECT AVG(x) FROM t ERROR WITHIN 2 AT CONFIDENCE 99%")
        assert query.error_bound.relative is False
        assert query.error_bound.error == 2.0
        assert query.error_bound.confidence == pytest.approx(0.99)

    def test_join_clause(self):
        query = parse_query(
            "SELECT AVG(price) FROM lineitem JOIN orders ON orderkey = orderkey "
            "WHERE shipmode = 'AIR'"
        )
        assert len(query.joins) == 1
        assert query.joins[0].right_table == "orders"

    def test_missing_aggregate_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT city FROM sessions GROUP BY city")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_query("SELECT COUNT(*) FROM t nonsense nonsense")

    def test_raw_sql_preserved(self):
        sql = "SELECT COUNT(*) FROM t"
        assert parse_query(sql).raw_sql == sql


class TestPredicates:
    def test_conjunction(self):
        query = parse_query("SELECT COUNT(*) FROM t WHERE a = 1 AND b = 2 AND c = 3")
        assert isinstance(query.where, CompoundPredicate)
        assert query.where.op is LogicalOp.AND
        assert len(query.where.operands) == 3

    def test_disjunction_and_branches(self):
        query = parse_query("SELECT COUNT(*) FROM t WHERE a = 1 OR b = 2")
        assert isinstance(query.where, CompoundPredicate)
        assert query.where.op is LogicalOp.OR
        branches = to_disjunctive_branches(query.where)
        assert len(branches) == 2

    def test_parentheses_override_precedence(self):
        query = parse_query("SELECT COUNT(*) FROM t WHERE (a = 1 OR b = 2) AND c = 3")
        assert isinstance(query.where, CompoundPredicate)
        assert query.where.op is LogicalOp.AND

    def test_not_predicate(self):
        query = parse_query("SELECT COUNT(*) FROM t WHERE NOT a = 1")
        assert isinstance(query.where, NotPredicate)

    def test_in_predicate(self):
        query = parse_query("SELECT COUNT(*) FROM t WHERE city IN ('NY', 'SF', 'LA')")
        assert isinstance(query.where, InPredicate)
        assert query.where.values == ("NY", "SF", "LA")

    def test_between_predicate(self):
        query = parse_query("SELECT COUNT(*) FROM t WHERE x BETWEEN 5 AND 10")
        assert isinstance(query.where, BetweenPredicate)
        assert (query.where.low, query.where.high) == (5, 10)

    def test_comparison_operators(self):
        for symbol, op in [("<", ComparisonOp.LT), (">=", ComparisonOp.GE), ("!=", ComparisonOp.NE)]:
            query = parse_query(f"SELECT COUNT(*) FROM t WHERE x {symbol} 5")
            assert isinstance(query.where, BinaryPredicate)
            assert query.where.op is op

    def test_qualified_column_reference(self):
        query = parse_query("SELECT COUNT(*) FROM t WHERE t.city = 'NY'")
        assert isinstance(query.where, BinaryPredicate)
        assert query.where.column.table == "t"
        assert query.where.column.name == "city"

    def test_template_columns_union_where_and_group_by(self):
        query = parse_query(
            "SELECT COUNT(*) FROM t WHERE a = 1 AND b = 2 GROUP BY c"
        )
        assert query.template_columns() == {"a", "b", "c"}


class TestAstValidation:
    def test_error_and_time_bound_mutually_exclusive(self):
        with pytest.raises(ParseError):
            # The grammar only allows one bound; a second bound is trailing garbage.
            parse_query(
                "SELECT COUNT(*) FROM t ERROR WITHIN 5% AT CONFIDENCE 95% WITHIN 3 SECONDS"
            )

    def test_invalid_error_bound_values(self):
        from repro.sql.ast import ErrorBound

        with pytest.raises(ValueError):
            ErrorBound(error=-0.1)
        with pytest.raises(ValueError):
            ErrorBound(error=0.1, confidence=1.5)

    def test_invalid_time_bound(self):
        from repro.sql.ast import TimeBound

        with pytest.raises(ValueError):
            TimeBound(seconds=0)


class TestContextualKeywords:
    """Keyword-like words are ordinary identifiers in column/table positions."""

    def test_keyword_as_aggregate_column(self):
        query = parse_query("SELECT SUM(in) FROM a")
        assert query.aggregates[0].column.name == "in"

    def test_keyword_spelling_is_preserved(self):
        query = parse_query("SELECT SUM(At) FROM a")
        assert query.aggregates[0].column.name == "At"

    def test_keyword_as_table_name(self):
        query = parse_query("SELECT COUNT(*) FROM group")
        assert query.table == "group"

    def test_keywords_in_where_and_group_by(self):
        query = parse_query(
            "SELECT COUNT(*) FROM t WHERE at >= 1 AND on = 'x' GROUP BY by"
        )
        assert query.where_columns() == {"at", "on"}
        assert query.group_by_columns() == {"by"}

    def test_keyword_column_followed_by_bound(self):
        query = parse_query("SELECT AVG(seconds) FROM t GROUP BY error WITHIN 3 SECONDS")
        assert query.group_by_columns() == {"error"}
        assert query.time_bound is not None and query.time_bound.seconds == 3.0

    def test_keyword_column_in_in_predicate(self):
        query = parse_query("SELECT COUNT(*) FROM t WHERE in IN (1, 2)")
        assert query.where_columns() == {"in"}

    def test_projected_keyword_column(self):
        query = parse_query("SELECT within, COUNT(*) FROM t GROUP BY within")
        assert query.group_by_columns() == {"within"}


class TestParseMemo:
    SQL = "SELECT COUNT(*) FROM sessions WHERE city = 'c1' GROUP BY os"

    def test_same_text_returns_the_same_statement_object(self):
        first = parse_statement(self.SQL)
        assert parse_statement(self.SQL) is first
        # The memo is keyed by text: a respelling parses to an equal, new object.
        respelled = parse_statement(self.SQL.lower())
        assert respelled == first and respelled is not first

    def test_bad_statement_raises_on_every_call(self):
        bad = "SELECT COUNT(*) FROM sessions WHERE"
        for _ in range(3):
            with pytest.raises(ParseError):
                parse_statement(bad)

    def test_explain_variants_are_distinct_entries(self):
        bare = parse_statement(self.SQL)
        explain = parse_statement("EXPLAIN " + self.SQL)
        analyze = parse_statement("EXPLAIN ANALYZE " + self.SQL)
        assert type(explain).__name__ == "ExplainQuery" and not explain.analyze
        assert analyze.analyze
        assert explain.query == bare and analyze.query == bare
        assert explain.query is not bare and analyze.query is not bare
        assert parse_statement("EXPLAIN " + self.SQL) is explain

    def test_memo_is_bounded(self):
        info = parse_statement.cache_info()
        assert info.maxsize == PARSE_MEMO_ENTRIES == 512
        for i in range(PARSE_MEMO_ENTRIES + 8):
            parse_statement(f"SELECT COUNT(*) FROM t WHERE a = {i}")
        assert parse_statement.cache_info().currsize == PARSE_MEMO_ENTRIES
