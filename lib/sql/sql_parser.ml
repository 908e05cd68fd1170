(* Recursive-descent parser for the dialect of Sql_ast, including the
   paper's gapply / GROUP BY ... : var extension (Section 3.1). *)

type state = {
  tokens : Sql_token.positioned array;
  mutable pos : int;
  mutable depth : int;  (* nested expressions and queries open *)
}

let make tokens = { tokens = Array.of_list tokens; pos = 0; depth = 0 }

let current st = st.tokens.(st.pos)
let peek st = (current st).Sql_token.token

let peek_ahead st n =
  if st.pos + n < Array.length st.tokens then
    Some st.tokens.(st.pos + n).Sql_token.token
  else None

let advance st = if st.pos < Array.length st.tokens - 1 then st.pos <- st.pos + 1

let errorf st fmt =
  let t = current st in
  Format.kasprintf
    (fun msg ->
      Errors.parse_errorf "line %d, column %d (at %S): %s" t.Sql_token.line
        t.Sql_token.column
        (Sql_token.to_string t.Sql_token.token)
        msg)
    fmt

(* [parse st] one level deeper: past [max_depth] levels the input is a
   parse error rather than a stack overflow.  The state of a statement
   that fails is dropped, so only a success has to restore the depth. *)
let max_depth = 10_000

let nested st parse =
  if st.depth >= max_depth then
    errorf st "expressions and subqueries nest deeper than %d levels" max_depth;
  st.depth <- st.depth + 1;
  let v = parse st in
  st.depth <- st.depth - 1;
  v

let expect st token what =
  if peek st = token then advance st else errorf st "expected %s" what

let reserved =
  [
    "select"; "distinct"; "from"; "where"; "group"; "by"; "having"; "order";
    "union"; "all"; "as"; "and"; "or"; "not"; "is"; "null"; "exists";
    "case"; "when"; "then"; "else"; "end"; "gapply"; "create"; "table";
    "insert"; "into"; "values"; "drop"; "explain"; "primary"; "foreign";
    "references"; "asc"; "desc"; "true"; "false"; "in"; "between";
    "index"; "on";
  ]

let is_keyword st kw =
  match peek st with
  | Sql_token.Ident s -> String.equal s kw
  | _ -> false

let accept_keyword st kw =
  if is_keyword st kw then begin
    advance st;
    true
  end
  else false

let expect_keyword st kw =
  if not (accept_keyword st kw) then errorf st "expected %s" (String.uppercase_ascii kw)

(** A non-reserved identifier (usable as a name or alias). *)
let ident st =
  match peek st with
  | Sql_token.Ident s when not (List.mem s reserved) ->
      advance st;
      s
  | Sql_token.Quoted_ident s ->
      advance st;
      s
  | _ -> errorf st "expected an identifier"

let ident_opt st =
  match peek st with
  | Sql_token.Ident s when not (List.mem s reserved) ->
      advance st;
      Some s
  | Sql_token.Quoted_ident s ->
      advance st;
      Some s
  | _ -> None

(* ---------- expressions ---------- *)

let aggregate_functions = [ "count"; "sum"; "avg"; "min"; "max" ]

let rec parse_expr st : Sql_ast.expr = nested st parse_or

(* An [op] chain of [operand]s, gathered by a loop and folded into a
   right-nested tree ([a or (b or c)]): a long flat chain takes no
   parser recursion and no nesting level. *)
and parse_chain st keyword op operand =
  let rec gather rev =
    if accept_keyword st keyword then gather (operand st :: rev) else rev
  in
  match gather [ operand st ] with
  | last :: rev ->
      List.fold_left (fun right left -> Sql_ast.Binop (op, left, right)) last rev
  | [] -> assert false

and parse_or st = parse_chain st "or" Sql_ast.Or parse_and
and parse_and st = parse_chain st "and" Sql_ast.And parse_not

and parse_not st =
  if is_keyword st "not" then begin
    advance st;
    if is_keyword st "exists" then begin
      advance st;
      expect st Sql_token.Lparen "(";
      let q = parse_query st in
      expect st Sql_token.Rparen ")";
      Sql_ast.Exists (q, true)
    end
    else Sql_ast.Not (nested st parse_not)
  end
  else parse_comparison st

and parse_comparison st =
  let left = parse_additive st in
  let binop op =
    advance st;
    Sql_ast.Binop (op, left, parse_additive st)
  in
  let parse_in negated =
    expect st Sql_token.Lparen "(";
    let q = parse_query st in
    expect st Sql_token.Rparen ")";
    Sql_ast.In_subquery (left, q, negated)
  in
  let parse_between () =
    (* x BETWEEN a AND b  desugars to  x >= a AND x <= b *)
    let lo = parse_additive st in
    expect_keyword st "and";
    let hi = parse_additive st in
    Sql_ast.Binop
      ( Sql_ast.And,
        Sql_ast.Binop (Sql_ast.Gte, left, lo),
        Sql_ast.Binop (Sql_ast.Lte, left, hi) )
  in
  match peek st with
  | Sql_token.Eq -> binop Sql_ast.Eq
  | Sql_token.Neq -> binop Sql_ast.Neq
  | Sql_token.Lt -> binop Sql_ast.Lt
  | Sql_token.Lte -> binop Sql_ast.Lte
  | Sql_token.Gt -> binop Sql_ast.Gt
  | Sql_token.Gte -> binop Sql_ast.Gte
  | Sql_token.Ident "in" ->
      advance st;
      parse_in false
  | Sql_token.Ident "between" ->
      advance st;
      parse_between ()
  | Sql_token.Ident "not" when peek_ahead st 1 = Some (Sql_token.Ident "in")
    ->
      advance st;
      advance st;
      parse_in true
  | Sql_token.Ident "not"
    when peek_ahead st 1 = Some (Sql_token.Ident "between") ->
      advance st;
      advance st;
      Sql_ast.Not (parse_between ())
  | Sql_token.Ident "is" ->
      advance st;
      let negated = accept_keyword st "not" in
      expect_keyword st "null";
      if negated then Sql_ast.Is_not_null left else Sql_ast.Is_null left
  | _ -> left

and parse_additive st =
  let rec go left =
    match peek st with
    | Sql_token.Plus ->
        advance st;
        go (Sql_ast.Binop (Sql_ast.Add, left, parse_multiplicative st))
    | Sql_token.Minus ->
        advance st;
        go (Sql_ast.Binop (Sql_ast.Sub, left, parse_multiplicative st))
    | Sql_token.Concat_op ->
        advance st;
        go (Sql_ast.Binop (Sql_ast.Concat, left, parse_multiplicative st))
    | _ -> left
  in
  go (parse_multiplicative st)

and parse_multiplicative st =
  let rec go left =
    match peek st with
    | Sql_token.Star ->
        advance st;
        go (Sql_ast.Binop (Sql_ast.Mul, left, parse_unary st))
    | Sql_token.Slash ->
        advance st;
        go (Sql_ast.Binop (Sql_ast.Div, left, parse_unary st))
    | _ -> left
  in
  go (parse_unary st)

and parse_unary st =
  match peek st with
  | Sql_token.Minus ->
      advance st;
      Sql_ast.Neg (nested st parse_unary)
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | Sql_token.Int_lit i ->
      advance st;
      Sql_ast.Lit_int i
  | Sql_token.Float_lit f ->
      advance st;
      Sql_ast.Lit_float f
  | Sql_token.Str_lit s ->
      advance st;
      Sql_ast.Lit_string s
  | Sql_token.Lparen -> (
      advance st;
      match peek st with
      | Sql_token.Ident "select" ->
          let q = parse_query st in
          expect st Sql_token.Rparen ")";
          Sql_ast.Scalar_subquery q
      | _ ->
          let e = parse_expr st in
          expect st Sql_token.Rparen ")";
          e)
  | Sql_token.Ident "null" ->
      advance st;
      Sql_ast.Lit_null
  | Sql_token.Ident "true" ->
      advance st;
      Sql_ast.Lit_bool true
  | Sql_token.Ident "false" ->
      advance st;
      Sql_ast.Lit_bool false
  | Sql_token.Ident "exists" ->
      advance st;
      expect st Sql_token.Lparen "(";
      let q = parse_query st in
      expect st Sql_token.Rparen ")";
      Sql_ast.Exists (q, false)
  | Sql_token.Ident "case" ->
      advance st;
      let whens = ref [] in
      while is_keyword st "when" do
        advance st;
        let c = parse_expr st in
        expect_keyword st "then";
        let v = parse_expr st in
        whens := (c, v) :: !whens
      done;
      if !whens = [] then errorf st "CASE requires at least one WHEN";
      let els =
        if accept_keyword st "else" then Some (parse_expr st) else None
      in
      expect_keyword st "end";
      Sql_ast.Case (List.rev !whens, els)
  | Sql_token.Ident name when not (List.mem name reserved) -> (
      advance st;
      match peek st with
      | Sql_token.Lparen when List.mem name aggregate_functions ->
          advance st;
          let distinct = accept_keyword st "distinct" in
          let args =
            if peek st = Sql_token.Star then begin
              advance st;
              [ Sql_ast.Star ]
            end
            else
              let rec go acc =
                let e = parse_expr st in
                if peek st = Sql_token.Comma then begin
                  advance st;
                  go (e :: acc)
                end
                else List.rev (e :: acc)
              in
              go []
          in
          expect st Sql_token.Rparen ")";
          Sql_ast.Fun_call (name, distinct, args)
      | Sql_token.Lparen -> errorf st "unknown function %s" name
      | Sql_token.Dot -> (
          advance st;
          match peek st with
          | Sql_token.Ident col when not (List.mem col reserved) ->
              advance st;
              Sql_ast.Col_ref (Some name, col)
          | Sql_token.Quoted_ident col ->
              advance st;
              Sql_ast.Col_ref (Some name, col)
          | _ -> errorf st "expected a column name after %s." name)
      | _ -> Sql_ast.Col_ref (None, name))
  | Sql_token.Quoted_ident name ->
      advance st;
      if peek st = Sql_token.Dot then begin
        advance st;
        let col = ident st in
        Sql_ast.Col_ref (Some name, col)
      end
      else Sql_ast.Col_ref (None, name)
  | _ -> errorf st "expected an expression"

(* ---------- queries ---------- *)

and parse_select_item st : Sql_ast.select_item =
  if peek st = Sql_token.Star then begin
    advance st;
    Sql_ast.Item_star
  end
  else if is_keyword st "gapply" then begin
    advance st;
    expect st Sql_token.Lparen "(";
    let q = parse_query st in
    expect st Sql_token.Rparen ")";
    let cols =
      if accept_keyword st "as" then begin
        expect st Sql_token.Lparen "(";
        let rec go acc =
          let c = ident st in
          if peek st = Sql_token.Comma then begin
            advance st;
            go (c :: acc)
          end
          else List.rev (c :: acc)
        in
        let cols = go [] in
        expect st Sql_token.Rparen ")";
        cols
      end
      else []
    in
    Sql_ast.Item_gapply (q, cols)
  end
  else
    let e = parse_expr st in
    let alias =
      if accept_keyword st "as" then Some (ident st) else ident_opt st
    in
    Sql_ast.Item (e, alias)

and parse_table_ref st : Sql_ast.table_ref =
  if peek st = Sql_token.Lparen then begin
    advance st;
    let q = parse_query st in
    expect st Sql_token.Rparen ")";
    ignore (accept_keyword st "as");
    let alias = ident st in
    (* optional derived-column list: (q) as t(c1, ..., cn) *)
    if peek st = Sql_token.Lparen then begin
      advance st;
      let rec go acc =
        let c = ident st in
        if peek st = Sql_token.Comma then begin
          advance st;
          go (c :: acc)
        end
        else List.rev (c :: acc)
      in
      let cols = go [] in
      expect st Sql_token.Rparen ")";
      Sql_ast.From_subquery (q, alias, Some cols)
    end
    else Sql_ast.From_subquery (q, alias, None)
  end
  else
    let name = ident st in
    let alias =
      if accept_keyword st "as" then Some (ident st) else ident_opt st
    in
    Sql_ast.From_table (name, alias)

and parse_select_core st : Sql_ast.query =
  if peek st = Sql_token.Lparen then begin
    (* parenthesised query, e.g. (select ... union all select ...) *)
    advance st;
    let q = parse_query st in
    expect st Sql_token.Rparen ")";
    q
  end
  else begin
    expect_keyword st "select";
    let distinct = accept_keyword st "distinct" in
    let rec items acc =
      let item = parse_select_item st in
      if peek st = Sql_token.Comma then begin
        advance st;
        items (item :: acc)
      end
      else List.rev (item :: acc)
    in
    let items = items [] in
    let from =
      if accept_keyword st "from" then begin
        let rec go acc =
          let r = parse_table_ref st in
          if peek st = Sql_token.Comma then begin
            advance st;
            go (r :: acc)
          end
          else List.rev (r :: acc)
        in
        go []
      end
      else []
    in
    let where = if accept_keyword st "where" then Some (parse_expr st) else None in
    let group_by, group_var =
      if is_keyword st "group" then begin
        advance st;
        expect_keyword st "by";
        let rec cols acc =
          let q, n =
            let first = ident st in
            if peek st = Sql_token.Dot then begin
              advance st;
              (Some first, ident st)
            end
            else (None, first)
          in
          if peek st = Sql_token.Comma then begin
            advance st;
            cols ((q, n) :: acc)
          end
          else List.rev ((q, n) :: acc)
        in
        let cols = cols [] in
        let var =
          if peek st = Sql_token.Colon then begin
            advance st;
            Some (ident st)
          end
          else None
        in
        (cols, var)
      end
      else ([], None)
    in
    let having =
      if accept_keyword st "having" then Some (parse_expr st) else None
    in
    Sql_ast.Select
      { Sql_ast.distinct; items; from; where; group_by; group_var; having }
  end

and parse_query st : Sql_ast.query = nested st parse_query_body

and parse_query_body st =
  let first = parse_select_core st in
  let rec unions left =
    if is_keyword st "union" then begin
      advance st;
      expect_keyword st "all";
      let right = parse_select_core st in
      unions (Sql_ast.Union_all (left, right))
    end
    else left
  in
  let q = unions first in
  if is_keyword st "order" then begin
    advance st;
    expect_keyword st "by";
    let rec keys acc =
      let e = parse_expr st in
      let dir =
        if accept_keyword st "desc" then Sql_ast.Desc
        else begin
          ignore (accept_keyword st "asc");
          Sql_ast.Asc
        end
      in
      if peek st = Sql_token.Comma then begin
        advance st;
        keys ((e, dir) :: acc)
      end
      else List.rev ((e, dir) :: acc)
    in
    Sql_ast.Order_by (q, keys [])
  end
  else q

(* ---------- statements ---------- *)

let parse_column_type st =
  let t = ident st in
  (* swallow optional length/precision arguments: varchar(32) etc. *)
  if peek st = Sql_token.Lparen then begin
    advance st;
    let rec skip () =
      match peek st with
      | Sql_token.Rparen -> advance st
      | Sql_token.Eof -> errorf st "unterminated type arguments"
      | _ ->
          advance st;
          skip ()
    in
    skip ()
  end;
  match Datatype.of_string t with
  | Some ty -> ty
  | None -> errorf st "unknown type %s" t

let parse_ident_list st =
  expect st Sql_token.Lparen "(";
  let rec go acc =
    let c = ident st in
    if peek st = Sql_token.Comma then begin
      advance st;
      go (c :: acc)
    end
    else List.rev (c :: acc)
  in
  let cols = go [] in
  expect st Sql_token.Rparen ")";
  cols

let parse_create_table st =
  expect_keyword st "table";
  let name = ident st in
  expect st Sql_token.Lparen "(";
  let cols = ref [] and constraints = ref [] in
  let rec go () =
    (if is_keyword st "primary" then begin
       advance st;
       expect_keyword st "key";
       constraints := Sql_ast.Primary_key (parse_ident_list st) :: !constraints
     end
     else if is_keyword st "foreign" then begin
       advance st;
       expect_keyword st "key";
       let fk_cols = parse_ident_list st in
       expect_keyword st "references";
       let ref_table = ident st in
       let ref_cols = parse_ident_list st in
       constraints :=
         Sql_ast.Foreign_key (fk_cols, ref_table, ref_cols) :: !constraints
     end
     else begin
       let col_name = ident st in
       let col_type = parse_column_type st in
       (if is_keyword st "primary" then begin
          advance st;
          expect_keyword st "key";
          constraints := Sql_ast.Primary_key [ col_name ] :: !constraints
        end);
       cols := { Sql_ast.col_name; col_type } :: !cols
     end);
    if peek st = Sql_token.Comma then begin
      advance st;
      go ()
    end
  in
  go ();
  expect st Sql_token.Rparen ")";
  Sql_ast.Stmt_create_table (name, List.rev !cols, List.rev !constraints)

let parse_insert st =
  expect_keyword st "into";
  let name = ident st in
  expect_keyword st "values";
  let rec rows acc =
    expect st Sql_token.Lparen "(";
    let rec vals acc =
      let e = parse_expr st in
      if peek st = Sql_token.Comma then begin
        advance st;
        vals (e :: acc)
      end
      else List.rev (e :: acc)
    in
    let row = vals [] in
    expect st Sql_token.Rparen ")";
    if peek st = Sql_token.Comma then begin
      advance st;
      rows (row :: acc)
    end
    else List.rev (row :: acc)
  in
  Sql_ast.Stmt_insert (name, rows [])

let parse_create_index st =
  expect_keyword st "index";
  let name = ident st in
  expect_keyword st "on";
  let table = ident st in
  let cols = parse_ident_list st in
  Sql_ast.Stmt_create_index (name, table, cols)

let parse_statement_inner st =
  if is_keyword st "create" then begin
    advance st;
    if is_keyword st "index" then parse_create_index st
    else parse_create_table st
  end
  else if is_keyword st "insert" then begin
    advance st;
    parse_insert st
  end
  else if is_keyword st "drop" then begin
    advance st;
    if accept_keyword st "index" then Sql_ast.Stmt_drop_index (ident st)
    else begin
      expect_keyword st "table";
      Sql_ast.Stmt_drop_table (ident st)
    end
  end
  else if is_keyword st "explain" then begin
    advance st;
    (* ANALYZE is a soft keyword: only significant right after EXPLAIN,
       still usable as an ordinary identifier elsewhere *)
    if accept_keyword st "analyze" then
      Sql_ast.Stmt_explain_analyze (parse_query st)
    else Sql_ast.Stmt_explain (parse_query st)
  end
  else if is_keyword st "prepare" then begin
    (* PREPARE / EXECUTE / DEALLOCATE are soft keywords like ANALYZE:
       only significant in statement-head position *)
    advance st;
    let name = ident st in
    expect_keyword st "as";
    Sql_ast.Stmt_prepare (name, parse_query st)
  end
  else if is_keyword st "execute" then begin
    advance st;
    Sql_ast.Stmt_execute (ident st)
  end
  else if is_keyword st "deallocate" then begin
    advance st;
    Sql_ast.Stmt_deallocate (ident st)
  end
  else if is_keyword st "begin" then begin
    (* BEGIN / COMMIT / ROLLBACK are soft statement-head keywords like
       PREPARE; the optional TRANSACTION / WORK noise word follows
       PostgreSQL usage *)
    advance st;
    ignore (accept_keyword st "transaction" || accept_keyword st "work");
    Sql_ast.Stmt_begin
  end
  else if is_keyword st "commit" then begin
    advance st;
    ignore (accept_keyword st "transaction" || accept_keyword st "work");
    Sql_ast.Stmt_commit
  end
  else if is_keyword st "rollback" then begin
    advance st;
    ignore (accept_keyword st "transaction" || accept_keyword st "work");
    Sql_ast.Stmt_rollback
  end
  else if is_keyword st "set" then begin
    (* SET <knob> = <int> | <ident> | DEFAULT — another soft
       statement-head keyword.  DEFAULT resets to the knob's default;
       other identifiers (off, lazy, strict, ...) are passed through
       for the knob's own interpretation — the resource knobs treat OFF
       as unlimited, durability takes a mode name *)
    advance st;
    let name = ident st in
    expect st Sql_token.Eq "=";
    match peek st with
    | Sql_token.Int_lit v ->
        advance st;
        Sql_ast.Stmt_set (name, Sql_ast.Set_int v)
    | Sql_token.Ident "default" ->
        advance st;
        Sql_ast.Stmt_set (name, Sql_ast.Set_default)
    | Sql_token.Ident v ->
        advance st;
        Sql_ast.Stmt_set (name, Sql_ast.Set_ident v)
    | _ -> errorf st "expected an integer, an identifier, or DEFAULT"
  end
  else Sql_ast.Stmt_select (parse_query st)

(** Parse a single statement (an optional trailing ';' is consumed). *)
let parse_statement (src : string) : Sql_ast.statement =
  let st = make (Sql_lexer.tokenize src) in
  let stmt = parse_statement_inner st in
  (if peek st = Sql_token.Semicolon then advance st);
  if peek st <> Sql_token.Eof then errorf st "trailing input after statement";
  stmt

(** Parse a ';'-separated script statement by statement: each item is a
    statement, or the [Errors.Parse_error] of a statement that does not
    lex or parse (trailing input included) — the rest of the text up to
    its ';' is skipped and parsing resumes after it. *)
let parse_script (src : string) : (Sql_ast.statement, exn) result list =
  List.filter_map
    (function
      | Error e -> Some (Error e)
      | Ok tokens -> (
          let st = make tokens in
          match peek st with
          | Sql_token.Eof | Sql_token.Semicolon -> None
          | _ -> (
              match
                let stmt = parse_statement_inner st in
                (match peek st with
                | Sql_token.Eof | Sql_token.Semicolon -> ()
                | _ -> errorf st "trailing input after statement");
                stmt
              with
              | stmt -> Some (Ok stmt)
              | exception (Errors.Parse_error _ as e) -> Some (Error e))))
    (Sql_lexer.statements src)

(** Parse just a query. *)
let parse_query_string (src : string) : Sql_ast.query =
  match parse_statement src with
  | Sql_ast.Stmt_select q -> q
  | _ -> errorf (make (Sql_lexer.tokenize src)) "expected a SELECT query"
