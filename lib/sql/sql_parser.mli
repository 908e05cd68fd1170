(** Recursive-descent parser for the SQL dialect, including the paper's
    Section 3.1 extension:

    {v select gapply(<query over the group variable>) [as (c1, ...)]
       from ... where ...
       group by g1, ..., gk : var v}

    plus joins, grouping/HAVING, EXISTS / IN / scalar subqueries,
    UNION ALL, ORDER BY, CASE, BETWEEN, derived tables with column
    lists, and CREATE TABLE / INSERT / DROP / EXPLAIN statements.

    All entry points raise {!Errors.Parse_error} with line/column
    positions, also for input nested deeper than {!max_depth}. *)

val max_depth : int
(** 10000: the deepest nesting the parser follows.  A query is one
    level, and so is each expression in it, each parenthesized
    expression, subquery, [NOT] and unary minus.  A flat [AND] or [OR]
    chain is one level however long it is. *)

val parse_statement : string -> Sql_ast.statement
(** Parse one statement (an optional trailing ';' is consumed). *)

val parse_script : string -> (Sql_ast.statement, exn) result list
(** Parse a ';'-separated script statement by statement: each item is a
    statement, or the {!Errors.Parse_error} of a statement that does not
    lex or parse, in which case the text up to the next [';'] is skipped
    and parsing resumes after it.  Empty statements are skipped. *)

val parse_query_string : string -> Sql_ast.query
(** Parse a SELECT query. *)
