"""Recursive-descent parser for the mini-C language.

Grammar (EBNF, informal)::

    program     := (global_decl | function_def)*
    global_decl := "int" ("*")? IDENT ("[" INT "]")? ("=" INT)? ";"
    function    := ("int" | "void") IDENT "(" params? ")" block
    params      := param ("," param)*
    param       := "int" ("*")? IDENT
    block       := "{" stmt* "}"
    stmt        := var_decl | if | while | for | return | break ";"
                 | continue ";" | block | simple_stmt ";"
    simple_stmt := lvalue "=" expr | expr
    expr        := or_expr
    or_expr     := and_expr ("||" and_expr)*
    and_expr    := cmp_expr ("&&" cmp_expr)*
    cmp_expr    := add_expr (("<"|"<="|">"|">="|"=="|"!=") add_expr)?
    add_expr    := mul_expr (("+"|"-") mul_expr)*
    mul_expr    := unary (("*"|"/"|"%") unary)*
    unary       := ("-"|"!"|"*"|"&") unary | postfix
    postfix     := primary ("[" expr "]")*
    primary     := INT | IDENT | IDENT "(" args? ")" | "(" expr ")"

Comparison is non-associative (``a < b < c`` is rejected), matching how
the IPDS analysis consumes single relational branch conditions.

Nesting is bounded by :data:`MAX_NESTING`: source nested deeper is a
:class:`ParseError` at the token that opens the extra level, not a
``RecursionError``.
"""

from __future__ import annotations

from typing import List, Optional

from .ast_nodes import (
    Assign,
    BinaryOp,
    Block,
    Break,
    CallExpr,
    Continue,
    Expr,
    ExprStmt,
    For,
    FunctionDef,
    GlobalDecl,
    If,
    IndexExpr,
    IntLiteral,
    Param,
    Program,
    Return,
    Stmt,
    Type,
    UnaryOp,
    VarDecl,
    VarRef,
    While,
)
from .errors import ParseError
from .lexer import tokenize
from .tokens import Token, TokenType

_CMP_OPS = {
    TokenType.LT: "<",
    TokenType.LE: "<=",
    TokenType.GT: ">",
    TokenType.GE: ">=",
    TokenType.EQ: "==",
    TokenType.NE: "!=",
}

_ADD_OPS = {TokenType.PLUS: "+", TokenType.MINUS: "-"}
_MUL_OPS = {TokenType.STAR: "*", TokenType.SLASH: "/", TokenType.PERCENT: "%"}

#: The deepest nesting a program may have.  A block (a function body, a
#: braced block, or the unbraced body of an ``if``/``else``/``while``/
#: ``for``), a parenthesised expression, a unary operator, an index and
#: a call's argument list each open one level inside the ones around
#: it.  At this depth the parser and the recursive passes after it
#: (lowering, analyses, static checks) stay inside Python's default
#: recursion limit.
MAX_NESTING = 100


class Parser:
    """Parses a token stream into a :class:`Program`."""

    def __init__(self, tokens: List[Token]):
        self._tokens = tokens
        self._pos = 0
        self._depth = 0

    # -- token plumbing -------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._peek()
        if token.type is not TokenType.EOF:
            self._pos += 1
        return token

    def _check(self, token_type: TokenType) -> bool:
        return self._peek().type is token_type

    def _match(self, token_type: TokenType) -> Optional[Token]:
        if self._check(token_type):
            return self._advance()
        return None

    def _enter(self, token: Token) -> None:
        """Open one nesting level at ``token``; the production that
        calls this closes it with ``self._depth -= 1``."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise ParseError(
                f"nesting deeper than {MAX_NESTING} levels", token.location
            )

    def _expect(self, token_type: TokenType, what: str) -> Token:
        if self._check(token_type):
            return self._advance()
        actual = self._peek()
        raise ParseError(
            f"expected {what}, found {actual.type.name}({actual.text!r})",
            actual.location,
        )

    # -- top level ------------------------------------------------------

    def parse_program(self) -> Program:
        """Parse the whole translation unit."""
        program = Program()
        while not self._check(TokenType.EOF):
            if self._is_function_def():
                program.functions.append(self._parse_function())
            else:
                program.globals.append(self._parse_global())
        return program

    def _is_function_def(self) -> bool:
        """Disambiguate ``int f(...)`` from ``int g;`` / ``int g = 1;``."""
        if self._check(TokenType.KW_VOID):
            return True
        if not self._check(TokenType.KW_INT):
            token = self._peek()
            raise ParseError(
                f"expected declaration, found {token.type.name}({token.text!r})",
                token.location,
            )
        offset = 1
        if self._peek(offset).type is TokenType.STAR:
            offset += 1
        if self._peek(offset).type is not TokenType.IDENT:
            return False
        return self._peek(offset + 1).type is TokenType.LPAREN

    def _parse_global(self) -> GlobalDecl:
        start = self._expect(TokenType.KW_INT, "'int'")
        var_type = Type.int_()
        if self._match(TokenType.STAR):
            var_type = Type.pointer()
        name = self._expect(TokenType.IDENT, "global name")
        if self._match(TokenType.LBRACKET):
            size = self._expect(TokenType.INT_LITERAL, "array size")
            self._expect(TokenType.RBRACKET, "']'")
            var_type = Type.array(size.int_value)
        init: Optional[int] = None
        if self._match(TokenType.ASSIGN):
            negative = bool(self._match(TokenType.MINUS))
            literal = self._expect(TokenType.INT_LITERAL, "constant initializer")
            init = -literal.int_value if negative else literal.int_value
        self._expect(TokenType.SEMICOLON, "';'")
        return GlobalDecl(name.text, var_type, init, start.location)

    def _parse_function(self) -> FunctionDef:
        if self._match(TokenType.KW_VOID):
            return_type = Type.void()
        else:
            self._expect(TokenType.KW_INT, "'int' or 'void'")
            return_type = Type.int_()
        name = self._expect(TokenType.IDENT, "function name")
        self._expect(TokenType.LPAREN, "'('")
        params: List[Param] = []
        if not self._check(TokenType.RPAREN):
            params.append(self._parse_param())
            while self._match(TokenType.COMMA):
                params.append(self._parse_param())
        self._expect(TokenType.RPAREN, "')'")
        body = self._parse_block()
        return FunctionDef(name.text, return_type, params, body, name.location)

    def _parse_param(self) -> Param:
        self._expect(TokenType.KW_INT, "'int' in parameter")
        param_type = Type.pointer() if self._match(TokenType.STAR) else Type.int_()
        name = self._expect(TokenType.IDENT, "parameter name")
        return Param(name.text, param_type, name.location)

    # -- statements -----------------------------------------------------

    def _parse_block(self) -> Block:
        open_brace = self._expect(TokenType.LBRACE, "'{'")
        self._enter(open_brace)
        statements: List[Stmt] = []
        while not self._check(TokenType.RBRACE):
            if self._check(TokenType.EOF):
                raise ParseError("unterminated block", open_brace.location)
            statements.append(self._parse_statement())
        self._expect(TokenType.RBRACE, "'}'")
        self._depth -= 1
        return Block(open_brace.location, statements)

    def _parse_statement(self) -> Stmt:
        token = self._peek()
        if token.type is TokenType.KW_INT:
            return self._parse_var_decl()
        if token.type is TokenType.KW_IF:
            return self._parse_if()
        if token.type is TokenType.KW_WHILE:
            return self._parse_while()
        if token.type is TokenType.KW_FOR:
            return self._parse_for()
        if token.type is TokenType.KW_RETURN:
            self._advance()
            value = None
            if not self._check(TokenType.SEMICOLON):
                value = self._parse_expr()
            self._expect(TokenType.SEMICOLON, "';'")
            return Return(token.location, value)
        if token.type is TokenType.KW_BREAK:
            self._advance()
            self._expect(TokenType.SEMICOLON, "';'")
            return Break(token.location)
        if token.type is TokenType.KW_CONTINUE:
            self._advance()
            self._expect(TokenType.SEMICOLON, "';'")
            return Continue(token.location)
        if token.type is TokenType.LBRACE:
            return self._parse_block()
        stmt = self._parse_simple_statement()
        self._expect(TokenType.SEMICOLON, "';'")
        return stmt

    def _parse_var_decl(self) -> VarDecl:
        start = self._expect(TokenType.KW_INT, "'int'")
        var_type = Type.pointer() if self._match(TokenType.STAR) else Type.int_()
        name = self._expect(TokenType.IDENT, "variable name")
        if self._match(TokenType.LBRACKET):
            size = self._expect(TokenType.INT_LITERAL, "array size")
            self._expect(TokenType.RBRACKET, "']'")
            var_type = Type.array(size.int_value)
        init: Optional[Expr] = None
        if self._match(TokenType.ASSIGN):
            if var_type.kind.name == "ARRAY":
                raise ParseError("array initializers are not supported", start.location)
            init = self._parse_expr()
        self._expect(TokenType.SEMICOLON, "';'")
        return VarDecl(start.location, name.text, var_type, init)

    def _parse_if(self) -> If:
        start = self._expect(TokenType.KW_IF, "'if'")
        self._expect(TokenType.LPAREN, "'('")
        condition = self._parse_expr()
        self._expect(TokenType.RPAREN, "')'")
        then_body = self._parse_statement_as_block()
        else_body: Optional[Block] = None
        if self._match(TokenType.KW_ELSE):
            else_body = self._parse_statement_as_block()
        return If(start.location, condition, then_body, else_body)

    def _parse_while(self) -> While:
        start = self._expect(TokenType.KW_WHILE, "'while'")
        self._expect(TokenType.LPAREN, "'('")
        condition = self._parse_expr()
        self._expect(TokenType.RPAREN, "')'")
        body = self._parse_statement_as_block()
        return While(start.location, condition, body)

    def _parse_for(self) -> For:
        start = self._expect(TokenType.KW_FOR, "'for'")
        self._expect(TokenType.LPAREN, "'('")
        init: Optional[Stmt] = None
        if not self._check(TokenType.SEMICOLON):
            if self._check(TokenType.KW_INT):
                init = self._parse_var_decl()
            else:
                init = self._parse_simple_statement()
                self._expect(TokenType.SEMICOLON, "';'")
        else:
            self._advance()
        condition: Optional[Expr] = None
        if not self._check(TokenType.SEMICOLON):
            condition = self._parse_expr()
        self._expect(TokenType.SEMICOLON, "';'")
        step: Optional[Stmt] = None
        if not self._check(TokenType.RPAREN):
            step = self._parse_simple_statement()
        self._expect(TokenType.RPAREN, "')'")
        body = self._parse_statement_as_block()
        return For(start.location, init, condition, step, body)

    def _parse_statement_as_block(self) -> Block:
        """Wrap a single statement in a block so bodies are uniform."""
        if self._check(TokenType.LBRACE):
            return self._parse_block()
        self._enter(self._peek())
        stmt = self._parse_statement()
        self._depth -= 1
        return Block(stmt.location, [stmt])

    def _parse_simple_statement(self) -> Stmt:
        """Assignment or expression statement (no trailing ';' consumed)."""
        expr = self._parse_expr()
        if self._match(TokenType.ASSIGN):
            self._require_lvalue(expr)
            value = self._parse_expr()
            return Assign(expr.location, expr, value)
        return ExprStmt(expr.location, expr)

    @staticmethod
    def _require_lvalue(expr: Expr) -> None:
        if isinstance(expr, (VarRef, IndexExpr)):
            return
        if isinstance(expr, UnaryOp) and expr.op == "*":
            return
        raise ParseError("assignment target is not an lvalue", expr.location)

    # -- expressions ----------------------------------------------------

    def _parse_expr(self) -> Expr:
        return self._parse_or()

    def _parse_or(self) -> Expr:
        expr = self._parse_and()
        while self._check(TokenType.OR_OR):
            op = self._advance()
            right = self._parse_and()
            expr = BinaryOp(op.location, "||", expr, right)
        return expr

    def _parse_and(self) -> Expr:
        expr = self._parse_cmp()
        while self._check(TokenType.AND_AND):
            op = self._advance()
            right = self._parse_cmp()
            expr = BinaryOp(op.location, "&&", expr, right)
        return expr

    def _parse_cmp(self) -> Expr:
        expr = self._parse_add()
        if self._peek().type in _CMP_OPS:
            op = self._advance()
            right = self._parse_add()
            expr = BinaryOp(op.location, _CMP_OPS[op.type], expr, right)
            if self._peek().type in _CMP_OPS:
                raise ParseError(
                    "chained comparisons are not allowed; parenthesize",
                    self._peek().location,
                )
        return expr

    def _parse_add(self) -> Expr:
        expr = self._parse_mul()
        while self._peek().type in _ADD_OPS:
            op = self._advance()
            right = self._parse_mul()
            expr = BinaryOp(op.location, _ADD_OPS[op.type], expr, right)
        return expr

    def _parse_mul(self) -> Expr:
        expr = self._parse_unary()
        while self._peek().type in _MUL_OPS:
            op = self._advance()
            right = self._parse_unary()
            expr = BinaryOp(op.location, _MUL_OPS[op.type], expr, right)
        return expr

    def _parse_unary(self) -> Expr:
        token = self._peek()
        kind = token.type
        if (
            kind is not TokenType.MINUS
            and kind is not TokenType.BANG
            and kind is not TokenType.STAR
            and kind is not TokenType.AMP
        ):
            return self._parse_postfix()
        self._advance()
        self._enter(token)
        operand = self._parse_unary()
        self._depth -= 1
        if kind is TokenType.AMP and not isinstance(operand, (VarRef, IndexExpr)):
            raise ParseError("'&' needs a variable or array element", token.location)
        return UnaryOp(token.location, token.text, operand)

    def _parse_postfix(self) -> Expr:
        expr = self._parse_primary()
        while self._check(TokenType.LBRACKET):
            bracket = self._advance()
            self._enter(bracket)
            index = self._parse_expr()
            self._expect(TokenType.RBRACKET, "']'")
            self._depth -= 1
            expr = IndexExpr(bracket.location, expr, index)
        return expr

    def _parse_primary(self) -> Expr:
        token = self._peek()
        if token.type is TokenType.INT_LITERAL:
            self._advance()
            return IntLiteral(token.location, token.int_value)
        if token.type is TokenType.IDENT:
            self._advance()
            paren = self._match(TokenType.LPAREN)
            if paren is not None:
                self._enter(paren)
                args: List[Expr] = []
                if not self._check(TokenType.RPAREN):
                    args.append(self._parse_expr())
                    while self._match(TokenType.COMMA):
                        args.append(self._parse_expr())
                self._expect(TokenType.RPAREN, "')'")
                self._depth -= 1
                return CallExpr(token.location, token.text, args)
            return VarRef(token.location, token.text)
        if token.type is TokenType.LPAREN:
            self._advance()
            self._enter(token)
            expr = self._parse_expr()
            self._expect(TokenType.RPAREN, "')'")
            self._depth -= 1
            return expr
        raise ParseError(
            f"expected expression, found {token.type.name}({token.text!r})",
            token.location,
        )


def parse_program(source: str, filename: str = "<source>") -> Program:
    """Lex and parse mini-C ``source`` into a :class:`Program`."""
    return Parser(tokenize(source, filename)).parse_program()
