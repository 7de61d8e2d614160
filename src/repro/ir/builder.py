"""AST → IR lowering.

Every named variable becomes a memory-resident :class:`Variable`; every
read of a scalar becomes a ``Load`` and every write a ``Store``.  This
mirrors the paper's machine model: attacks tamper external memory, so
the analysis must see each round-trip through memory explicitly.

Design points that matter to the correlation analysis downstream:

* Condition expressions lower to a ``CondBranch`` *in the same basic
  block* as the loads feeding it, connected only through arithmetic —
  this is the "inference window" the BAT construction relies on.
* Registers are single-assignment temporaries, so a branch operand has
  exactly one defining instruction.
* ``&&`` / ``||`` in condition position lower to short-circuit control
  flow; in value position they lower to arithmetic over the 0/1
  results (both operands are always evaluated there).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..lang import ast_nodes as ast
from ..lang.errors import LoweringError, SourceLocation
from .function import BasicBlock, IRFunction, IRModule
from .instructions import (
    AddrOf,
    BinOp,
    Call,
    Cmp,
    CondBranch,
    Const,
    Instruction,
    Jump,
    Load,
    LoadIndirect,
    Operand,
    Reg,
    RelOp,
    Return,
    Store,
    StoreIndirect,
    Terminator,
    UnOp,
    Variable,
    VarKind,
)

_REL_OPS = {
    "<": RelOp.LT,
    "<=": RelOp.LE,
    ">": RelOp.GT,
    ">=": RelOp.GE,
    "==": RelOp.EQ,
    "!=": RelOp.NE,
}

#: Built-in functions: name -> (arg count, returns a value).
BUILTINS: Dict[str, Tuple[int, bool]] = {
    "read_int": (0, True),
    "emit": (1, False),
}


class _Scope:
    """A lexical scope mapping names to variables."""

    def __init__(self, parent: Optional["_Scope"] = None):
        self.parent = parent
        self.names: Dict[str, Variable] = {}

    def declare(self, var: Variable, location: SourceLocation) -> None:
        if var.name in self.names:
            raise LoweringError(f"redeclaration of {var.name!r}", location)
        self.names[var.name] = var

    def lookup(self, name: str) -> Optional[Variable]:
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.names:
                return scope.names[name]
            scope = scope.parent
        return None


class _FunctionLowering:
    """Lowers one function body into an :class:`IRFunction`."""

    def __init__(self, module_scope: _Scope, program: ast.Program, fn: ast.FunctionDef):
        self._program = program
        self._ast_fn = fn
        self._reg_count = 0
        self._block_count = 0
        self._uid_count = 0
        self._loop_stack: List[Tuple[str, str]] = []  # (continue, break) labels
        params = [
            Variable(
                p.name,
                VarKind.PARAM,
                size=1,
                uid=self._next_uid(),
                is_pointer=p.param_type.kind is ast.TypeKind.POINTER,
            )
            for p in fn.params
        ]
        self.ir = IRFunction(
            fn.name,
            params,
            returns_value=fn.return_type.kind is not ast.TypeKind.VOID,
        )
        self._scope = _Scope(module_scope)
        for param, ast_param in zip(params, fn.params):
            self._scope.declare(param, ast_param.location)
        self._current = self._new_block()

    # -- small helpers ---------------------------------------------------

    def _next_uid(self) -> int:
        self._uid_count += 1
        return self._uid_count

    def _new_reg(self) -> Reg:
        reg = Reg(self._reg_count)
        self._reg_count += 1
        return reg

    def _new_block(self) -> BasicBlock:
        block = BasicBlock(f"bb{self._block_count}")
        self._block_count += 1
        self.ir.add_block(block)
        return block

    def _emit(self, instruction: Instruction) -> Instruction:
        if self._current.instructions and isinstance(
            self._current.instructions[-1], Terminator
        ):
            raise LoweringError(
                "internal: emitting past a terminator", self._ast_fn.location
            )
        self._current.instructions.append(instruction)
        return instruction

    def _terminate(self, terminator: Terminator) -> None:
        if not (
            self._current.instructions
            and isinstance(self._current.instructions[-1], Terminator)
        ):
            self._current.instructions.append(terminator)

    def _switch_to(self, block: BasicBlock) -> None:
        self._current = block

    def _as_reg(self, operand: Operand) -> Reg:
        """Materialize a constant into a register if needed."""
        if isinstance(operand, Reg):
            return operand
        reg = self._new_reg()
        self._emit(Const(reg, operand))
        return reg

    # -- top level ---------------------------------------------------------

    def lower(self) -> IRFunction:
        self._lower_block(self._ast_fn.body, _Scope(self._scope))
        # Fall-off-the-end: void functions return, int functions return 0.
        self._terminate(Return(0 if self.ir.returns_value else None))
        return self.ir

    # -- statements --------------------------------------------------------

    def _lower_block(self, block: ast.Block, scope: _Scope) -> None:
        saved = self._scope
        self._scope = scope
        try:
            for stmt in block.statements:
                self._lower_stmt(stmt)
        finally:
            self._scope = saved

    def _lower_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.VarDecl):
            self._lower_var_decl(stmt)
        elif isinstance(stmt, ast.Assign):
            self._lower_assign(stmt)
        elif isinstance(stmt, ast.ExprStmt):
            self._lower_expr(stmt.expr, want_value=False)
        elif isinstance(stmt, ast.Block):
            self._lower_block(stmt, _Scope(self._scope))
        elif isinstance(stmt, ast.If):
            self._lower_if(stmt)
        elif isinstance(stmt, ast.While):
            self._lower_while(stmt)
        elif isinstance(stmt, ast.For):
            self._lower_for(stmt)
        elif isinstance(stmt, ast.Return):
            self._lower_return(stmt)
        elif isinstance(stmt, ast.Break):
            if not self._loop_stack:
                raise LoweringError("'break' outside a loop", stmt.location)
            self._terminate(Jump(self._loop_stack[-1][1]))
            self._switch_to(self._new_block())
        elif isinstance(stmt, ast.Continue):
            if not self._loop_stack:
                raise LoweringError("'continue' outside a loop", stmt.location)
            self._terminate(Jump(self._loop_stack[-1][0]))
            self._switch_to(self._new_block())
        else:  # pragma: no cover - defensive
            raise LoweringError(f"unknown statement {type(stmt).__name__}", stmt.location)

    def _lower_var_decl(self, decl: ast.VarDecl) -> None:
        kind = decl.var_type.kind
        var = Variable(
            decl.name,
            VarKind.LOCAL,
            size=decl.var_type.array_size if kind is ast.TypeKind.ARRAY else 1,
            uid=self._next_uid(),
            is_pointer=kind is ast.TypeKind.POINTER,
            is_array=kind is ast.TypeKind.ARRAY,
        )
        self._scope.declare(var, decl.location)
        self.ir.locals.append(var)
        if decl.init is not None:
            value = self._lower_expr(decl.init, want_value=True)
            self._emit(Store(var, value))

    def _lower_assign(self, stmt: ast.Assign) -> None:
        target = stmt.target
        if isinstance(target, ast.VarRef):
            var = self._resolve(target.name, target.location)
            if var.is_array:
                raise LoweringError(
                    f"cannot assign to array {var.name!r}", target.location
                )
            value = self._lower_expr(stmt.value, want_value=True)
            self._emit(Store(var, value))
            return
        # Indirect targets: *p = v or a[i] = v.
        address = self._lower_lvalue_address(target)
        value = self._lower_expr(stmt.value, want_value=True)
        self._emit(StoreIndirect(address, value))

    def _lower_if(self, stmt: ast.If) -> None:
        then_block = self._new_block()
        else_block = self._new_block() if stmt.else_body else None
        join_block = self._new_block()
        self._lower_condition(
            stmt.condition,
            then_block.label,
            (else_block or join_block).label,
        )
        self._switch_to(then_block)
        self._lower_block(stmt.then_body, _Scope(self._scope))
        self._terminate(Jump(join_block.label))
        if else_block is not None:
            self._switch_to(else_block)
            self._lower_block(stmt.else_body, _Scope(self._scope))
            self._terminate(Jump(join_block.label))
        self._switch_to(join_block)

    def _lower_while(self, stmt: ast.While) -> None:
        header = self._new_block()
        body = self._new_block()
        exit_block = self._new_block()
        self._terminate(Jump(header.label))
        self._switch_to(header)
        self._lower_condition(stmt.condition, body.label, exit_block.label)
        self._loop_stack.append((header.label, exit_block.label))
        self._switch_to(body)
        self._lower_block(stmt.body, _Scope(self._scope))
        self._terminate(Jump(header.label))
        self._loop_stack.pop()
        self._switch_to(exit_block)

    def _lower_for(self, stmt: ast.For) -> None:
        scope = _Scope(self._scope)
        saved = self._scope
        self._scope = scope
        try:
            if stmt.init is not None:
                self._lower_stmt(stmt.init)
            header = self._new_block()
            body = self._new_block()
            step_block = self._new_block()
            exit_block = self._new_block()
            self._terminate(Jump(header.label))
            self._switch_to(header)
            if stmt.condition is not None:
                self._lower_condition(stmt.condition, body.label, exit_block.label)
            else:
                self._terminate(Jump(body.label))
            self._loop_stack.append((step_block.label, exit_block.label))
            self._switch_to(body)
            self._lower_block(stmt.body, _Scope(self._scope))
            self._terminate(Jump(step_block.label))
            self._loop_stack.pop()
            self._switch_to(step_block)
            if stmt.step is not None:
                self._lower_stmt(stmt.step)
            self._terminate(Jump(header.label))
            self._switch_to(exit_block)
        finally:
            self._scope = saved

    def _lower_return(self, stmt: ast.Return) -> None:
        if self.ir.returns_value:
            value = (
                self._lower_expr(stmt.value, want_value=True)
                if stmt.value is not None
                else 0
            )
            self._terminate(Return(value))
        else:
            if stmt.value is not None:
                raise LoweringError(
                    "void function cannot return a value", stmt.location
                )
            self._terminate(Return(None))
        self._switch_to(self._new_block())

    # -- conditions ----------------------------------------------------------

    def _lower_condition(
        self, expr: ast.Expr, true_label: str, false_label: str
    ) -> None:
        """Lower ``expr`` as a short-circuit branch condition.

        A left-deep ``&&``/``||`` chain is walked in a loop, its blocks
        allocated in the recursion's order, so a chain's length is not
        bounded by the recursion limit."""
        pending: List[Tuple[BasicBlock, ast.Expr, str, str]] = []
        while isinstance(expr, ast.BinaryOp) and expr.op in ("&&", "||"):
            mid = self._new_block()
            pending.append((mid, expr.right, true_label, false_label))
            if expr.op == "&&":
                true_label = mid.label
            else:
                false_label = mid.label
            expr = expr.left
        self._lower_test(expr, true_label, false_label)
        for mid, right, true_label, false_label in reversed(pending):
            self._switch_to(mid)
            self._lower_condition(right, true_label, false_label)

    def _lower_test(self, expr: ast.Expr, true_label: str, false_label: str) -> None:
        """One branch on a condition that is not an ``&&``/``||``."""
        if isinstance(expr, ast.BinaryOp) and expr.op in _REL_OPS:
            lhs = self._lower_expr(expr.left, want_value=True)
            rhs = self._lower_expr(expr.right, want_value=True)
            op = _REL_OPS[expr.op]
            if not isinstance(lhs, Reg):
                if isinstance(rhs, Reg):
                    lhs, rhs, op = rhs, lhs, op.swap()
                else:  # constant condition: fold
                    target = true_label if op.evaluate(lhs, rhs) else false_label
                    self._terminate(Jump(target))
                    return
            self._terminate(CondBranch(lhs, op, rhs, true_label, false_label))
            return
        if isinstance(expr, ast.UnaryOp) and expr.op == "!":
            self._lower_condition(expr.operand, false_label, true_label)
            return
        if isinstance(expr, ast.IntLiteral):
            target = true_label if expr.value != 0 else false_label
            self._terminate(Jump(target))
            return
        # Any other expression: compare against zero.
        value = self._as_reg(self._lower_expr(expr, want_value=True))
        self._terminate(CondBranch(value, RelOp.NE, 0, true_label, false_label))

    # -- expressions -----------------------------------------------------------

    def _lower_expr(self, expr: ast.Expr, want_value: bool) -> Operand:
        """Lower an expression; returns its value operand.

        With ``want_value=False`` (expression statements) the value is
        computed for side effects and the returned operand is unused.
        """
        if isinstance(expr, ast.IntLiteral):
            return expr.value
        if isinstance(expr, ast.VarRef):
            return self._lower_var_read(expr)
        if isinstance(expr, ast.UnaryOp):
            return self._lower_unary(expr)
        if isinstance(expr, ast.BinaryOp):
            return self._lower_binary(expr)
        if isinstance(expr, ast.IndexExpr):
            address = self._lower_lvalue_address(expr)
            dest = self._new_reg()
            self._emit(LoadIndirect(dest, address))
            return dest
        if isinstance(expr, ast.CallExpr):
            return self._lower_call(expr, want_value)
        raise LoweringError(  # pragma: no cover - defensive
            f"unknown expression {type(expr).__name__}", expr.location
        )

    def _lower_var_read(self, expr: ast.VarRef) -> Operand:
        var = self._resolve(expr.name, expr.location)
        dest = self._new_reg()
        if var.is_array:
            # An array name used as a value decays to its address.
            self._emit(AddrOf(dest, var))
        else:
            self._emit(Load(dest, var))
        return dest

    def _lower_unary(self, expr: ast.UnaryOp) -> Operand:
        if expr.op == "&":
            return self._lower_lvalue_address(expr.operand)
        if expr.op == "*":
            address = self._as_reg(self._lower_expr(expr.operand, want_value=True))
            dest = self._new_reg()
            self._emit(LoadIndirect(dest, address))
            return dest
        operand = self._lower_expr(expr.operand, want_value=True)
        if isinstance(operand, int):  # constant fold
            return -operand if expr.op == "-" else int(operand == 0)
        dest = self._new_reg()
        self._emit(UnOp(dest, expr.op, operand))
        return dest

    def _lower_binary(self, expr: ast.BinaryOp) -> Operand:
        """Lower a left-deep operator chain (``1 + 1 + ...``) in a loop
        down its left operands, innermost operator first, so its length
        is not bounded by the recursion limit; registers come out in the
        order the recursion would allocate them."""
        chain: List[ast.BinaryOp] = []
        while isinstance(expr, ast.BinaryOp):
            chain.append(expr)
            expr = expr.left
        lhs = self._lower_expr(expr, want_value=True)
        for expr in reversed(chain):
            lhs = self._apply_binary(expr, lhs)
        return lhs

    def _apply_binary(self, expr: ast.BinaryOp, lhs: Operand) -> Operand:
        """One operator of a chain, on its already-lowered left operand."""
        if expr.op in ("&&", "||"):
            # Value position: evaluate both sides to 0/1 and combine.
            left = self._truth(lhs)
            right = self._truth(self._lower_expr(expr.right, want_value=True))
            total = self._new_reg()
            self._emit(BinOp(total, "+", left, right))
            dest = self._new_reg()
            threshold = RelOp.EQ if expr.op == "&&" else RelOp.GE
            self._emit(Cmp(dest, threshold, total, 2 if expr.op == "&&" else 1))
            return dest
        rhs = self._lower_expr(expr.right, want_value=True)
        if expr.op in _REL_OPS:
            op = _REL_OPS[expr.op]
            if isinstance(lhs, int) and isinstance(rhs, int):
                return int(op.evaluate(lhs, rhs))
            dest = self._new_reg()
            self._emit(Cmp(dest, op, lhs, rhs))
            return dest
        if isinstance(lhs, int) and isinstance(rhs, int):
            return self._fold_arith(expr.op, lhs, rhs, expr.location)
        dest = self._new_reg()
        self._emit(BinOp(dest, expr.op, lhs, rhs))
        return dest

    def _truth(self, value: Operand) -> Operand:
        """``value != 0`` as a 0/1 operand."""
        if isinstance(value, int):
            return int(value != 0)
        dest = self._new_reg()
        self._emit(Cmp(dest, RelOp.NE, value, 0))
        return dest

    @staticmethod
    def _fold_arith(op: str, lhs: int, rhs: int, location: SourceLocation) -> int:
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if rhs == 0:
            raise LoweringError("constant division by zero", location)
        quotient = abs(lhs) // abs(rhs)
        if (lhs < 0) != (rhs < 0):
            quotient = -quotient
        return quotient if op == "/" else lhs - quotient * rhs

    def _lower_call(self, expr: ast.CallExpr, want_value: bool) -> Operand:
        name = expr.callee
        if name in BUILTINS:
            arity, returns = BUILTINS[name]
        elif self._has_user_function(name):
            ast_fn = self._program.function(name)
            arity = len(ast_fn.params)
            returns = ast_fn.return_type.kind is not ast.TypeKind.VOID
        else:
            raise LoweringError(f"call to undefined function {name!r}", expr.location)
        if len(expr.args) != arity:
            raise LoweringError(
                f"{name!r} expects {arity} argument(s), got {len(expr.args)}",
                expr.location,
            )
        args = [self._lower_expr(a, want_value=True) for a in expr.args]
        if want_value and not returns:
            raise LoweringError(
                f"void function {name!r} used as a value", expr.location
            )
        dest = self._new_reg() if returns else None
        self._emit(Call(dest, name, args))
        return dest if dest is not None else 0

    def _has_user_function(self, name: str) -> bool:
        return any(fn.name == name for fn in self._program.functions)

    # -- lvalues ----------------------------------------------------------------

    def _lower_lvalue_address(self, expr: ast.Expr) -> Reg:
        """Compute the data address of an lvalue into a register."""
        if isinstance(expr, ast.VarRef):
            var = self._resolve(expr.name, expr.location)
            dest = self._new_reg()
            self._emit(AddrOf(dest, var))
            return dest
        if isinstance(expr, ast.UnaryOp) and expr.op == "*":
            return self._as_reg(self._lower_expr(expr.operand, want_value=True))
        if isinstance(expr, ast.IndexExpr):
            base = self._lower_base_address(expr.base)
            index = self._lower_expr(expr.index, want_value=True)
            if isinstance(index, int) and index == 0:
                return base
            dest = self._new_reg()
            self._emit(BinOp(dest, "+", base, index))
            return dest
        raise LoweringError("expression is not an lvalue", expr.location)

    def _lower_base_address(self, expr: ast.Expr) -> Reg:
        """Address of the sequence an index applies to (array or pointer)."""
        if isinstance(expr, ast.VarRef):
            var = self._resolve(expr.name, expr.location)
            dest = self._new_reg()
            if var.is_array:
                self._emit(AddrOf(dest, var))
            else:
                # Pointer variable: its *value* is the base address.
                self._emit(Load(dest, var))
            return dest
        return self._as_reg(self._lower_expr(expr, want_value=True))

    def _resolve(self, name: str, location: SourceLocation) -> Variable:
        var = self._scope.lookup(name)
        if var is None:
            raise LoweringError(f"undefined variable {name!r}", location)
        return var


def lower_program(program: ast.Program) -> IRModule:
    """Lower a parsed program into a finalized :class:`IRModule`."""
    module = IRModule()
    module_scope = _Scope()
    uid = 0
    for decl in program.globals:
        uid += 1
        kind = decl.var_type.kind
        var = Variable(
            decl.name,
            VarKind.GLOBAL,
            size=decl.var_type.array_size if kind is ast.TypeKind.ARRAY else 1,
            uid=uid,
            is_pointer=kind is ast.TypeKind.POINTER,
            is_array=kind is ast.TypeKind.ARRAY,
        )
        module_scope.declare(var, decl.location)
        module.globals.append(var)
        if decl.init is not None:
            module.global_inits[var] = decl.init
    seen = set()
    for fn in program.functions:
        if fn.name in seen:
            raise LoweringError(f"duplicate function {fn.name!r}", fn.location)
        if fn.name in BUILTINS:
            raise LoweringError(
                f"function {fn.name!r} shadows a builtin", fn.location
            )
        seen.add(fn.name)
    for fn in program.functions:
        lowering = _FunctionLowering(module_scope, program, fn)
        module.functions.append(lowering.lower())
    module.finalize()
    return module
