"""Unit tests for the mini-C parser."""

import pytest

from repro.lang import (
    Assign,
    BinaryOp,
    Block,
    Break,
    CallExpr,
    Continue,
    ExprStmt,
    For,
    If,
    IndexExpr,
    IntLiteral,
    ParseError,
    Return,
    Type,
    TypeKind,
    UnaryOp,
    VarDecl,
    VarRef,
    While,
    parse_program,
)


def parse_body(body_source):
    """Parse a statement list wrapped in a void main()."""
    program = parse_program("void main() {" + body_source + "}")
    return program.function("main").body.statements


def parse_expr(expr_source):
    (stmt,) = parse_body(f"x = {expr_source};")
    return stmt.value


# ----------------------------------------------------------------------
# Top level
# ----------------------------------------------------------------------


def test_empty_program():
    program = parse_program("")
    assert program.functions == []
    assert program.globals == []


def test_global_scalar_with_init():
    program = parse_program("int g = 7;")
    (decl,) = program.globals
    assert decl.name == "g"
    assert decl.var_type == Type.int_()
    assert decl.init == 7


def test_global_scalar_negative_init():
    program = parse_program("int g = -3;")
    assert program.globals[0].init == -3


def test_global_without_init():
    program = parse_program("int g;")
    assert program.globals[0].init is None


def test_global_array():
    program = parse_program("int buf[32];")
    decl = program.globals[0]
    assert decl.var_type.kind is TypeKind.ARRAY
    assert decl.var_type.array_size == 32


def test_global_pointer():
    program = parse_program("int *p;")
    assert program.globals[0].var_type == Type.pointer()


def test_function_with_params():
    program = parse_program("int f(int a, int *p) { return a; }")
    fn = program.function("f")
    assert fn.return_type == Type.int_()
    assert [p.name for p in fn.params] == ["a", "p"]
    assert fn.params[0].param_type == Type.int_()
    assert fn.params[1].param_type == Type.pointer()


def test_void_function():
    program = parse_program("void f() { }")
    assert program.function("f").return_type == Type.void()


def test_function_lookup_missing_raises():
    program = parse_program("void f() { }")
    with pytest.raises(KeyError):
        program.function("g")


def test_mixed_globals_and_functions():
    program = parse_program("int a; void f() { } int b = 2; int g() { return 0; }")
    assert [g.name for g in program.globals] == ["a", "b"]
    assert [f.name for f in program.functions] == ["f", "g"]


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------


def test_var_decl_with_init():
    (decl,) = parse_body("int x = 5;")
    assert isinstance(decl, VarDecl)
    assert decl.name == "x"
    assert isinstance(decl.init, IntLiteral)


def test_var_decl_array():
    (decl,) = parse_body("int buf[8];")
    assert decl.var_type.kind is TypeKind.ARRAY
    assert decl.var_type.array_size == 8


def test_array_initializer_rejected():
    with pytest.raises(ParseError):
        parse_body("int buf[8] = 0;")


def test_assignment_to_scalar():
    (stmt,) = parse_body("x = 1;")
    assert isinstance(stmt, Assign)
    assert isinstance(stmt.target, VarRef)


def test_assignment_to_deref():
    (stmt,) = parse_body("*p = 1;")
    assert isinstance(stmt.target, UnaryOp)
    assert stmt.target.op == "*"


def test_assignment_to_index():
    (stmt,) = parse_body("a[i] = 1;")
    assert isinstance(stmt.target, IndexExpr)


def test_assignment_to_rvalue_rejected():
    with pytest.raises(ParseError):
        parse_body("1 = 2;")


def test_assignment_to_call_rejected():
    with pytest.raises(ParseError):
        parse_body("f() = 2;")


def test_if_without_else():
    (stmt,) = parse_body("if (x < 1) { y = 1; }")
    assert isinstance(stmt, If)
    assert stmt.else_body is None


def test_if_with_else():
    (stmt,) = parse_body("if (x < 1) { y = 1; } else { y = 2; }")
    assert isinstance(stmt.else_body, Block)


def test_if_single_statement_bodies_become_blocks():
    (stmt,) = parse_body("if (x) y = 1; else y = 2;")
    assert isinstance(stmt.then_body, Block)
    assert isinstance(stmt.else_body, Block)


def test_dangling_else_binds_to_nearest_if():
    (outer,) = parse_body("if (a) if (b) x = 1; else x = 2;")
    assert outer.else_body is None
    inner = outer.then_body.statements[0]
    assert isinstance(inner, If)
    assert inner.else_body is not None


def test_while_loop():
    (stmt,) = parse_body("while (x < 10) { x = x + 1; }")
    assert isinstance(stmt, While)


def test_for_loop_full_header():
    (stmt,) = parse_body("for (i = 0; i < 10; i = i + 1) { }")
    assert isinstance(stmt, For)
    assert isinstance(stmt.init, Assign)
    assert isinstance(stmt.condition, BinaryOp)
    assert isinstance(stmt.step, Assign)


def test_for_loop_with_decl_init():
    (stmt,) = parse_body("for (int i = 0; i < 10; i = i + 1) { }")
    assert isinstance(stmt.init, VarDecl)


def test_for_loop_empty_header():
    (stmt,) = parse_body("for (;;) { break; }")
    assert stmt.init is None
    assert stmt.condition is None
    assert stmt.step is None


def test_break_and_continue():
    stmts = parse_body("while (1) { break; continue; }")
    body = stmts[0].body.statements
    assert isinstance(body[0], Break)
    assert isinstance(body[1], Continue)


def test_return_with_value():
    program = parse_program("int f() { return 1 + 2; }")
    (stmt,) = program.function("f").body.statements
    assert isinstance(stmt, Return)
    assert isinstance(stmt.value, BinaryOp)


def test_return_without_value():
    (stmt,) = parse_body("return;")
    assert stmt.value is None


def test_expression_statement_call():
    (stmt,) = parse_body("emit(1);")
    assert isinstance(stmt, ExprStmt)
    assert isinstance(stmt.expr, CallExpr)


def test_nested_blocks():
    (outer,) = parse_body("{ { x = 1; } }")
    assert isinstance(outer, Block)
    inner = outer.statements[0]
    assert isinstance(inner, Block)


def test_unterminated_block_rejected():
    with pytest.raises(ParseError):
        parse_program("void f() { x = 1;")


def test_missing_semicolon_rejected():
    with pytest.raises(ParseError):
        parse_body("x = 1")


# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


def test_precedence_mul_over_add():
    expr = parse_expr("1 + 2 * 3")
    assert expr.op == "+"
    assert expr.right.op == "*"


def test_precedence_add_over_cmp():
    expr = parse_expr("1 + 2 < 3 + 4")
    assert expr.op == "<"
    assert expr.left.op == "+"


def test_precedence_cmp_over_and():
    expr = parse_expr("a < 1 && b > 2")
    assert expr.op == "&&"
    assert expr.left.op == "<"
    assert expr.right.op == ">"


def test_precedence_and_over_or():
    expr = parse_expr("a || b && c")
    assert expr.op == "||"
    assert expr.right.op == "&&"


def test_left_associativity_of_subtraction():
    expr = parse_expr("10 - 3 - 2")
    assert expr.op == "-"
    assert expr.left.op == "-"
    assert expr.right.value == 2


def test_parentheses_override_precedence():
    expr = parse_expr("(1 + 2) * 3")
    assert expr.op == "*"
    assert expr.left.op == "+"


def test_chained_comparison_rejected():
    with pytest.raises(ParseError):
        parse_expr("1 < 2 < 3")


def test_unary_minus_and_not():
    expr = parse_expr("-!x")
    assert expr.op == "-"
    assert expr.operand.op == "!"


def test_deref_and_address_of():
    expr = parse_expr("*p + &x")
    assert expr.left.op == "*"
    assert expr.right.op == "&"


def test_address_of_array_element():
    expr = parse_expr("&a[3]")
    assert expr.op == "&"
    assert isinstance(expr.operand, IndexExpr)


def test_address_of_literal_rejected():
    with pytest.raises(ParseError):
        parse_expr("&5")


def test_call_with_arguments():
    expr = parse_expr("f(1, x + 2, g())")
    assert expr.callee == "f"
    assert len(expr.args) == 3
    assert isinstance(expr.args[2], CallExpr)


def test_nested_index():
    expr = parse_expr("a[b[i]]")
    assert isinstance(expr, IndexExpr)
    assert isinstance(expr.index, IndexExpr)


def test_index_binds_tighter_than_deref():
    # *p[i] parses as *(p[i]).
    expr = parse_expr("*p[i]")
    assert expr.op == "*"
    assert isinstance(expr.operand, IndexExpr)


def test_error_message_carries_location():
    with pytest.raises(ParseError) as exc:
        parse_program("void f() {\n  x = ;\n}", filename="srv.c")
    assert "srv.c:2" in str(exc.value)


# ----------------------------------------------------------------------
# The nesting bound
# ----------------------------------------------------------------------


def nested(levels, shape):
    """A program whose deepest point is ``levels`` levels down: the body
    of ``main`` is the first level, ``shape`` opens the rest."""
    inner = levels - 1
    if shape == "ifs":
        body = "if (x == 1) {\n" * inner + "x = 2;\n" + "}\n" * inner + "emit(x);\n"
    elif shape == "unbraced":
        body = "if (x == 1)\n" * inner + "x = 2;\nemit(x);\n"
    else:
        # ``emit(`` opens one level; the shape opens the others.
        open_, close = {
            "parens": ("(", ")"),
            "unary": ("-", ""),
            "index": ("a[", "]"),
            "calls": ("f(", ")"),
        }[shape]
        body = "emit(" + open_ * (inner - 1) + "x" + close * (inner - 1) + ");\n"
    return (
        "int x;\nint a[4];\nint f(int v) { return v; }\n"
        "void main() {\nx = read_int();\na[0] = 0;\n" + body + "}\n"
    )


@pytest.mark.parametrize("shape", ["ifs", "parens", "unary", "index", "calls"])
@pytest.mark.parametrize("opt_level", [0, 3])
def test_source_at_the_nesting_bound_compiles_runs_and_audits(shape, opt_level):
    from repro.lang.parser import MAX_NESTING
    from repro.pipeline import compile_program, monitored_run
    from repro.staticcheck import errors_in, run_passes

    program = compile_program(nested(MAX_NESTING, shape), shape, opt_level)
    result, ipds = monitored_run(program, inputs=[1])
    assert result.status.value == "ok"
    assert result.outputs == [{"ifs": 2, "index": 0}.get(shape, 1)]
    assert not ipds.detected
    assert errors_in(run_passes(program)) == []


@pytest.mark.parametrize(
    "shape", ["ifs", "unbraced", "parens", "unary", "index", "calls"]
)
def test_one_level_past_the_bound_is_a_parse_error(shape):
    from repro.lang.parser import MAX_NESTING

    parse_program(nested(MAX_NESTING, shape))
    with pytest.raises(ParseError, match=f"nesting deeper than {MAX_NESTING}"):
        parse_program(nested(MAX_NESTING + 1, shape))


def test_a_thousand_nested_ifs_is_a_parse_error_at_the_offending_brace():
    from repro.lang.parser import MAX_NESTING

    with pytest.raises(ParseError) as exc:
        parse_program(nested(1000, "ifs"), filename="deep.c")
    # ``main``'s body opens level 1 on line 4 and the ``if`` on line
    # 6 + k opens level k + 1, so the offending ``{`` is on line
    # 6 + MAX_NESTING.
    assert exc.value.location.line == 6 + MAX_NESTING
    assert exc.value.location.column == len("if (x == 1) {")
