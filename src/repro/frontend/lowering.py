"""Lowering mini-C ASTs to the mini-IR.

The code generator follows the classic clang -O0 recipe: every local
variable and parameter lives in an ``alloca`` slot, expressions are lowered
to loads/stores around those slots, and control flow is built with explicit
blocks and branches.  No phi nodes are emitted, which matches the FMSA
precondition that input functions have their phis demoted to memory.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..ir import types as ty
from ..ir import values as vals
from ..ir.basicblock import BasicBlock
from ..ir.builder import IRBuilder
from ..ir.function import Function
from ..ir.module import Module
from ..ir.values import Value
from . import ast_nodes as ast
from .parser import parse


class LoweringError(Exception):
    """Raised when the AST cannot be lowered (unknown name, bad types...)."""


BUILTIN_TYPES: Dict[str, ty.Type] = {
    "void": ty.VOID,
    "bool": ty.I1,
    "char": ty.I8,
    "short": ty.I16,
    "int": ty.I32,
    "long": ty.I64,
    "float": ty.FLOAT,
    "double": ty.DOUBLE,
    # convenience aliases used by the case-study sources
    "float32": ty.FLOAT,
    "float64": ty.DOUBLE,
}


class TypeContext:
    """Resolves syntactic :class:`~repro.frontend.ast_nodes.TypeName` objects
    to IR types, including named structs."""

    def __init__(self):
        self.structs: Dict[str, ty.StructType] = {}
        self.struct_fields: Dict[str, List[Tuple[str, ty.Type]]] = {}

    def declare_struct(self, name: str) -> ty.StructType:
        if name not in self.structs:
            self.structs[name] = ty.StructType((), name=name)
            self.struct_fields[name] = []
        return self.structs[name]

    def define_struct(self, decl: ast.StructDecl) -> ty.StructType:
        struct_type = self.declare_struct(decl.name)
        fields: List[Tuple[str, ty.Type]] = []
        for field in decl.fields:
            fields.append((field.name, self.resolve(field.field_type)))
        struct_type.fields = tuple(f for _, f in fields)
        self.struct_fields[decl.name] = fields
        return struct_type

    def field_index(self, struct_type: ty.StructType, member: str) -> Tuple[int, ty.Type]:
        if struct_type.name is None or struct_type.name not in self.struct_fields:
            raise LoweringError(f"unknown struct type {struct_type}")
        for index, (name, field_type) in enumerate(self.struct_fields[struct_type.name]):
            if name == member:
                return index, field_type
        raise LoweringError(f"struct {struct_type.name} has no member {member!r}")

    def resolve(self, type_name: ast.TypeName) -> ty.Type:
        base_name = type_name.base
        if base_name.startswith("struct "):
            resolved: ty.Type = self.declare_struct(base_name[len("struct "):])
        elif base_name in BUILTIN_TYPES:
            resolved = BUILTIN_TYPES[base_name]
        else:
            raise LoweringError(f"unknown type name {base_name!r}")
        for _ in range(type_name.pointer_depth):
            resolved = ty.pointer(resolved)
        if type_name.array_length is not None:
            resolved = ty.array(resolved, type_name.array_length)
        return resolved


class _LoopContext:
    """Targets for ``break``/``continue`` while lowering loop bodies."""

    def __init__(self, break_block: BasicBlock, continue_block: BasicBlock):
        self.break_block = break_block
        self.continue_block = continue_block


class FunctionLowering:
    """Lowers one function body."""

    def __init__(self, compiler: "Compiler", function: Function,
                 decl: ast.FunctionDecl):
        self.compiler = compiler
        self.types = compiler.types
        self.module = compiler.module
        self.function = function
        self.decl = decl
        self.builder = IRBuilder()
        self.scopes: List[Dict[str, Tuple[Value, ty.Type]]] = [{}]
        self.loops: List[_LoopContext] = []

    # -- scope helpers --------------------------------------------------------------
    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, slot: Value, var_type: ty.Type) -> None:
        self.scopes[-1][name] = (slot, var_type)

    def lookup(self, name: str) -> Tuple[Value, ty.Type]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        gv = self.module.get_global(name)
        if gv is not None:
            return gv, gv.content_type
        raise LoweringError(f"use of undeclared identifier {name!r} in {self.function.name}")

    # -- entry ------------------------------------------------------------------------
    def lower(self) -> None:
        entry = self.function.append_block("entry")
        self.builder.position_at_end(entry)
        for arg, param in zip(self.function.arguments, self.decl.parameters):
            slot = self.builder.alloca(arg.type, name=f"{param.name or arg.name}.addr")
            self.builder.store(arg, slot)
            self.declare(param.name or arg.name, slot, arg.type)
        assert self.decl.body is not None
        self.lower_block(self.decl.body)
        current = self.builder.block
        if current is not None and not current.is_terminated:
            if self.function.return_type.is_void:
                self.builder.ret_void()
            else:
                self.builder.ret(self._zero(self.function.return_type))

    def _new_block(self, name: str) -> BasicBlock:
        return self.function.append_block(name)

    def _zero(self, vtype: ty.Type) -> Value:
        if vtype.is_float:
            return vals.ConstantFloat(vtype, 0.0)
        if vtype.is_pointer:
            return vals.ConstantNull(vtype)
        if vtype.is_integer:
            return vals.ConstantInt(vtype, 0)
        return vals.undef(vtype)

    # -- statements -----------------------------------------------------------------------
    def lower_block(self, block: ast.Block) -> None:
        self.push_scope()
        for statement in block.statements:
            self.lower_statement(statement)
            if self.builder.block is not None and self.builder.block.is_terminated:
                # dead code after return/break: keep lowering into a fresh
                # unreachable block so the rest still type-checks
                self.builder.position_at_end(self._new_block("dead"))
        self.pop_scope()

    def lower_statement(self, statement: ast.Stmt) -> None:
        if isinstance(statement, ast.Block):
            self.lower_block(statement)
        elif isinstance(statement, ast.VarDecl):
            self._lower_var_decl(statement)
        elif isinstance(statement, ast.ExprStmt):
            self.lower_expression(statement.expression)
        elif isinstance(statement, ast.IfStmt):
            self._lower_if(statement)
        elif isinstance(statement, ast.WhileStmt):
            self._lower_while(statement)
        elif isinstance(statement, ast.ForStmt):
            self._lower_for(statement)
        elif isinstance(statement, ast.ReturnStmt):
            self._lower_return(statement)
        elif isinstance(statement, ast.BreakStmt):
            if not self.loops:
                raise LoweringError("break outside of a loop")
            self.builder.br(self.loops[-1].break_block)
        elif isinstance(statement, ast.ContinueStmt):
            if not self.loops:
                raise LoweringError("continue outside of a loop")
            self.builder.br(self.loops[-1].continue_block)
        else:
            raise LoweringError(f"unsupported statement {type(statement).__name__}")

    def _lower_var_decl(self, decl: ast.VarDecl) -> None:
        var_type = self.types.resolve(decl.var_type)
        slot = self.builder.alloca(var_type, name=f"{decl.name}.addr")
        self.declare(decl.name, slot, var_type)
        if decl.initializer is not None:
            value, value_type = self.lower_expression(decl.initializer)
            value = self.convert(value, value_type, var_type)
            self.builder.store(value, slot)

    def _lower_if(self, statement: ast.IfStmt) -> None:
        condition = self.lower_condition(statement.condition)
        then_block = self._new_block("if.then")
        else_block = self._new_block("if.else") if statement.else_branch else None
        end_block = self._new_block("if.end")
        false_target = else_block if else_block is not None else end_block
        self.builder.cond_br(condition, then_block, false_target)

        self.builder.position_at_end(then_block)
        self.lower_statement(statement.then_branch)
        if not self.builder.block.is_terminated:
            self.builder.br(end_block)

        if else_block is not None:
            self.builder.position_at_end(else_block)
            self.lower_statement(statement.else_branch)
            if not self.builder.block.is_terminated:
                self.builder.br(end_block)

        self.builder.position_at_end(end_block)

    def _lower_while(self, statement: ast.WhileStmt) -> None:
        cond_block = self._new_block("while.cond")
        body_block = self._new_block("while.body")
        end_block = self._new_block("while.end")
        self.builder.br(cond_block)

        self.builder.position_at_end(cond_block)
        condition = self.lower_condition(statement.condition)
        self.builder.cond_br(condition, body_block, end_block)

        self.builder.position_at_end(body_block)
        self.loops.append(_LoopContext(end_block, cond_block))
        self.lower_statement(statement.body)
        self.loops.pop()
        if not self.builder.block.is_terminated:
            self.builder.br(cond_block)

        self.builder.position_at_end(end_block)

    def _lower_for(self, statement: ast.ForStmt) -> None:
        self.push_scope()
        if statement.init is not None:
            self.lower_statement(statement.init)
        cond_block = self._new_block("for.cond")
        body_block = self._new_block("for.body")
        step_block = self._new_block("for.step")
        end_block = self._new_block("for.end")
        self.builder.br(cond_block)

        self.builder.position_at_end(cond_block)
        if statement.condition is not None:
            condition = self.lower_condition(statement.condition)
            self.builder.cond_br(condition, body_block, end_block)
        else:
            self.builder.br(body_block)

        self.builder.position_at_end(body_block)
        self.loops.append(_LoopContext(end_block, step_block))
        self.lower_statement(statement.body)
        self.loops.pop()
        if not self.builder.block.is_terminated:
            self.builder.br(step_block)

        self.builder.position_at_end(step_block)
        if statement.step is not None:
            self.lower_expression(statement.step)
        self.builder.br(cond_block)

        self.builder.position_at_end(end_block)
        self.pop_scope()

    def _lower_return(self, statement: ast.ReturnStmt) -> None:
        if statement.value is None:
            if self.function.return_type.is_void:
                self.builder.ret_void()
            else:
                self.builder.ret(self._zero(self.function.return_type))
            return
        value, value_type = self.lower_expression(statement.value)
        if self.function.return_type.is_void:
            self.builder.ret_void()
            return
        value = self.convert(value, value_type, self.function.return_type)
        self.builder.ret(value)

    # -- conversions -----------------------------------------------------------------------
    def convert(self, value: Value, from_type: ty.Type, to_type: ty.Type) -> Value:
        """Insert the conversion needed to use ``value`` as ``to_type``."""
        if from_type == to_type:
            return value
        if from_type.is_integer and to_type.is_integer:
            if from_type.size_bits() < to_type.size_bits():
                op = "zext" if from_type.size_bits() == 1 else "sext"
                return self.builder.cast(op, value, to_type)
            if from_type.size_bits() > to_type.size_bits():
                return self.builder.trunc(value, to_type)
            return value
        if from_type.is_integer and to_type.is_float:
            return self.builder.sitofp(value, to_type)
        if from_type.is_float and to_type.is_integer:
            return self.builder.fptosi(value, to_type)
        if from_type.is_float and to_type.is_float:
            if from_type.size_bits() < to_type.size_bits():
                return self.builder.fpext(value, to_type)
            return self.builder.fptrunc(value, to_type)
        if from_type.is_pointer and to_type.is_pointer:
            return self.builder.bitcast(value, to_type)
        if from_type.is_pointer and to_type.is_integer:
            return self.builder.cast("ptrtoint", value, to_type)
        if from_type.is_integer and to_type.is_pointer:
            return self.builder.cast("inttoptr", value, to_type)
        raise LoweringError(f"cannot convert {from_type} to {to_type}")

    def to_bool(self, value: Value, value_type: ty.Type) -> Value:
        if value_type == ty.I1:
            return value
        if value_type.is_integer:
            return self.builder.icmp("ne", value, vals.ConstantInt(value_type, 0))
        if value_type.is_float:
            return self.builder.fcmp("one", value, vals.ConstantFloat(value_type, 0.0))
        if value_type.is_pointer:
            return self.builder.icmp("ne", value, vals.ConstantNull(value_type))
        raise LoweringError(f"cannot use {value_type} as a boolean")

    def lower_condition(self, expression: ast.Expr) -> Value:
        value, value_type = self.lower_expression(expression)
        return self.to_bool(value, value_type)

    # -- lvalues ----------------------------------------------------------------------------
    def lower_lvalue(self, expression: ast.Expr) -> Tuple[Value, ty.Type]:
        """Return ``(address, pointee_type)`` for an assignable expression."""
        if isinstance(expression, ast.Identifier):
            slot, var_type = self.lookup(expression.name)
            return slot, var_type
        if isinstance(expression, ast.UnaryOp) and expression.op == "*":
            value, value_type = self.lower_expression(expression.operand)
            if not value_type.is_pointer:
                raise LoweringError("cannot dereference a non-pointer")
            return value, value_type.pointee
        if isinstance(expression, ast.IndexExpr):
            return self._lower_index_address(expression)
        if isinstance(expression, ast.MemberExpr):
            return self._lower_member_address(expression)
        raise LoweringError(f"expression is not assignable: {type(expression).__name__}")

    def _lower_index_address(self, expression: ast.IndexExpr) -> Tuple[Value, ty.Type]:
        index, index_type = self.lower_expression(expression.index)
        index = self.convert(index, index_type, ty.I64)
        # arrays decay to pointers; distinguish by the declared type
        if isinstance(expression.base, ast.Identifier):
            slot, var_type = self.lookup(expression.base.name)
            if isinstance(var_type, ty.ArrayType):
                address = self.builder.gep(var_type, slot,
                                           [vals.const_int(0, 64), index],
                                           result_type=ty.pointer(var_type.element))
                return address, var_type.element
        base, base_type = self.lower_expression(expression.base)
        if not base_type.is_pointer:
            raise LoweringError("cannot index a non-pointer value")
        element = base_type.pointee
        address = self.builder.gep(element, base, [index],
                                   result_type=ty.pointer(element))
        return address, element

    def _lower_member_address(self, expression: ast.MemberExpr) -> Tuple[Value, ty.Type]:
        if expression.through_pointer:
            base, base_type = self.lower_expression(expression.base)
            if not base_type.is_pointer or not isinstance(base_type.pointee, ty.StructType):
                raise LoweringError("'->' requires a pointer to a struct")
            struct_type = base_type.pointee
            base_address = base
        else:
            base_address, struct_type = self.lower_lvalue(expression.base)
            if not isinstance(struct_type, ty.StructType):
                raise LoweringError("'.' requires a struct value")
        index, field_type = self.types.field_index(struct_type, expression.member)
        address = self.builder.gep(struct_type, base_address,
                                   [vals.const_int(0, 64), vals.const_int(index, 32)],
                                   result_type=ty.pointer(field_type))
        return address, field_type

    # -- expressions --------------------------------------------------------------------------
    def lower_expression(self, expression: ast.Expr) -> Tuple[Value, ty.Type]:
        if isinstance(expression, ast.IntLiteral):
            return vals.const_int(expression.value, 32), ty.I32
        if isinstance(expression, ast.FloatLiteral):
            literal_type = ty.FLOAT if expression.is_single else ty.DOUBLE
            return vals.ConstantFloat(literal_type, expression.value), literal_type
        if isinstance(expression, ast.BoolLiteral):
            return vals.const_bool(expression.value), ty.I1
        if isinstance(expression, ast.NullLiteral):
            null_type = ty.pointer(ty.I8)
            return vals.ConstantNull(null_type), null_type
        if isinstance(expression, ast.StringLiteral):
            return vals.ConstantString(expression.value), ty.pointer(ty.I8)
        if isinstance(expression, ast.Identifier):
            return self._lower_identifier(expression)
        if isinstance(expression, ast.UnaryOp):
            return self._lower_unary(expression)
        if isinstance(expression, ast.BinaryOp):
            return self._lower_binary(expression)
        if isinstance(expression, ast.Assignment):
            return self._lower_assignment(expression)
        if isinstance(expression, ast.Conditional):
            return self._lower_conditional(expression)
        if isinstance(expression, ast.CallExpr):
            return self._lower_call(expression)
        if isinstance(expression, ast.IndexExpr):
            address, element_type = self._lower_index_address(expression)
            return self.builder.load(address), element_type
        if isinstance(expression, ast.MemberExpr):
            address, field_type = self._lower_member_address(expression)
            return self.builder.load(address), field_type
        if isinstance(expression, ast.CastExpr):
            target = self.types.resolve(expression.target_type)
            value, value_type = self.lower_expression(expression.operand)
            return self.convert(value, value_type, target), target
        if isinstance(expression, ast.SizeofExpr):
            target = self.types.resolve(expression.target_type)
            return vals.const_int(target.size_bytes(), 64), ty.I64
        raise LoweringError(f"unsupported expression {type(expression).__name__}")

    def _lower_identifier(self, expression: ast.Identifier) -> Tuple[Value, ty.Type]:
        slot, var_type = self.lookup(expression.name)
        if isinstance(var_type, ty.ArrayType):
            # arrays decay to a pointer to their first element
            address = self.builder.gep(var_type, slot,
                                       [vals.const_int(0, 64), vals.const_int(0, 64)],
                                       result_type=ty.pointer(var_type.element))
            return address, ty.pointer(var_type.element)
        return self.builder.load(slot, name=expression.name), var_type

    def _lower_unary(self, expression: ast.UnaryOp) -> Tuple[Value, ty.Type]:
        op = expression.op
        if op == "&":
            address, pointee = self.lower_lvalue(expression.operand)
            return address, ty.pointer(pointee)
        if op == "*":
            value, value_type = self.lower_expression(expression.operand)
            if not value_type.is_pointer:
                raise LoweringError("cannot dereference a non-pointer")
            return self.builder.load(value), value_type.pointee
        if op in ("++", "--"):
            address, value_type = self.lower_lvalue(expression.operand)
            old = self.builder.load(address)
            one: Value
            if value_type.is_float:
                one = vals.ConstantFloat(value_type, 1.0)
                new = self.builder.binary("fadd" if op == "++" else "fsub", old, one)
            elif value_type.is_pointer:
                delta = vals.const_int(1 if op == "++" else -1, 64)
                new = self.builder.gep(value_type.pointee, old, [delta],
                                       result_type=value_type)
            else:
                one = vals.ConstantInt(value_type, 1)
                new = self.builder.binary("add" if op == "++" else "sub", old, one)
            self.builder.store(new, address)
            return (old if expression.postfix else new), value_type
        value, value_type = self.lower_expression(expression.operand)
        if op == "-":
            if value_type.is_float:
                return self.builder.fsub(vals.ConstantFloat(value_type, 0.0), value), value_type
            return self.builder.sub(vals.ConstantInt(value_type, 0), value), value_type
        if op == "!":
            as_bool = self.to_bool(value, value_type)
            return self.builder.binary("xor", as_bool, vals.const_bool(True)), ty.I1
        if op == "~":
            return self.builder.binary("xor", value,
                                       vals.ConstantInt(value_type, -1)), value_type
        raise LoweringError(f"unsupported unary operator {op!r}")

    def _arithmetic_type(self, left_type: ty.Type, right_type: ty.Type) -> ty.Type:
        if left_type.is_pointer:
            return left_type
        if right_type.is_pointer:
            return right_type
        if left_type.is_float or right_type.is_float:
            candidates = [t for t in (left_type, right_type) if t.is_float]
            return max(candidates, key=lambda t: t.size_bits())
        bits = max(left_type.size_bits(), right_type.size_bits(), 32)
        return ty.int_type(bits)

    def _lower_binary(self, expression: ast.BinaryOp) -> Tuple[Value, ty.Type]:
        op = expression.op
        if op in ("&&", "||"):
            return self._lower_short_circuit(expression)

        left, left_type = self.lower_expression(expression.left)
        right, right_type = self.lower_expression(expression.right)

        # pointer arithmetic: ptr +/- int
        if op in ("+", "-") and left_type.is_pointer and right_type.is_integer:
            index = self.convert(right, right_type, ty.I64)
            if op == "-":
                index = self.builder.sub(vals.const_int(0, 64), index)
            result = self.builder.gep(left_type.pointee, left, [index],
                                      result_type=left_type)
            return result, left_type

        if op in ("==", "!=", "<", "<=", ">", ">="):
            return self._lower_comparison(op, left, left_type, right, right_type)

        common = self._arithmetic_type(left_type, right_type)
        left = self.convert(left, left_type, common)
        right = self.convert(right, right_type, common)
        if common.is_float:
            opcode = {"+": "fadd", "-": "fsub", "*": "fmul", "/": "fdiv", "%": "frem"}.get(op)
        else:
            opcode = {"+": "add", "-": "sub", "*": "mul", "/": "sdiv", "%": "srem",
                      "&": "and", "|": "or", "^": "xor", "<<": "shl", ">>": "ashr"}.get(op)
        if opcode is None:
            raise LoweringError(f"unsupported binary operator {op!r} for {common}")
        return self.builder.binary(opcode, left, right), common

    def _lower_comparison(self, op: str, left: Value, left_type: ty.Type,
                          right: Value, right_type: ty.Type) -> Tuple[Value, ty.Type]:
        if left_type.is_pointer or right_type.is_pointer:
            pointer_type = left_type if left_type.is_pointer else right_type
            left = self.convert(left, left_type, pointer_type)
            right = self.convert(right, right_type, pointer_type)
            predicate = {"==": "eq", "!=": "ne", "<": "ult", "<=": "ule",
                         ">": "ugt", ">=": "uge"}[op]
            return self.builder.icmp(predicate, left, right), ty.I1
        common = self._arithmetic_type(left_type, right_type)
        left = self.convert(left, left_type, common)
        right = self.convert(right, right_type, common)
        if common.is_float:
            predicate = {"==": "oeq", "!=": "one", "<": "olt", "<=": "ole",
                         ">": "ogt", ">=": "oge"}[op]
            return self.builder.fcmp(predicate, left, right), ty.I1
        predicate = {"==": "eq", "!=": "ne", "<": "slt", "<=": "sle",
                     ">": "sgt", ">=": "sge"}[op]
        return self.builder.icmp(predicate, left, right), ty.I1

    def _lower_short_circuit(self, expression: ast.BinaryOp) -> Tuple[Value, ty.Type]:
        result_slot = self.builder.alloca(ty.I1, name="sc.result")
        rhs_block = self._new_block("sc.rhs")
        end_block = self._new_block("sc.end")

        left = self.lower_condition(expression.left)
        self.builder.store(left, result_slot)
        if expression.op == "&&":
            self.builder.cond_br(left, rhs_block, end_block)
        else:
            self.builder.cond_br(left, end_block, rhs_block)

        self.builder.position_at_end(rhs_block)
        right = self.lower_condition(expression.right)
        self.builder.store(right, result_slot)
        self.builder.br(end_block)

        self.builder.position_at_end(end_block)
        return self.builder.load(result_slot), ty.I1

    def _lower_conditional(self, expression: ast.Conditional) -> Tuple[Value, ty.Type]:
        condition = self.lower_condition(expression.condition)
        then_block = self._new_block("cond.then")
        else_block = self._new_block("cond.else")
        end_block = self._new_block("cond.end")
        self.builder.cond_br(condition, then_block, else_block)

        self.builder.position_at_end(then_block)
        then_value, then_type = self.lower_expression(expression.then_value)
        then_exit = self.builder.block

        self.builder.position_at_end(else_block)
        else_value, else_type = self.lower_expression(expression.else_value)
        else_exit = self.builder.block

        result_type = self._arithmetic_type(then_type, else_type) \
            if not (then_type.is_pointer and else_type.is_pointer) else then_type

        # the result slot must dominate both arms, so allocate it in the
        # function's entry block
        from ..ir.instructions import Alloca
        slot = Alloca(result_type, name="cond.slot")
        self.function.entry_block.insert(0, slot)

        self.builder.position_at_end(then_exit)
        converted = self.convert(then_value, then_type, result_type)
        self.builder.store(converted, slot)
        self.builder.br(end_block)

        self.builder.position_at_end(else_exit)
        converted = self.convert(else_value, else_type, result_type)
        self.builder.store(converted, slot)
        self.builder.br(end_block)

        self.builder.position_at_end(end_block)
        return self.builder.load(slot), result_type

    def _lower_assignment(self, expression: ast.Assignment) -> Tuple[Value, ty.Type]:
        address, target_type = self.lower_lvalue(expression.target)
        if expression.op == "=":
            value, value_type = self.lower_expression(expression.value)
            value = self.convert(value, value_type, target_type)
        else:
            binary_op = expression.op[:-1]
            synthetic = ast.BinaryOp(binary_op, expression.target, expression.value)
            value, value_type = self._lower_binary(synthetic)
            value = self.convert(value, value_type, target_type)
        self.builder.store(value, address)
        return value, target_type

    def _lower_call(self, expression: ast.CallExpr) -> Tuple[Value, ty.Type]:
        args: List[Tuple[Value, ty.Type]] = [self.lower_expression(a) for a in expression.args]
        callee = self.compiler.get_or_declare_function(
            expression.callee, [t for _, t in args])
        fnty = callee.function_type
        converted: List[Value] = []
        for (value, value_type), want in zip(args, fnty.param_types):
            converted.append(self.convert(value, value_type, want))
        # extra args beyond declared parameters (varargs style) pass through
        converted.extend(v for (v, _), __ in zip(args[len(fnty.param_types):],
                                                 range(len(args) - len(fnty.param_types))))
        call = self.builder.call(callee, converted)
        return call, fnty.return_type


class Compiler:
    """Compiles a mini-C translation unit into a :class:`Module`."""

    def __init__(self, module_name: str = "program", internalize: bool = True):
        self.module = Module(module_name)
        self.types = TypeContext()
        #: When True, defined functions other than ``main`` get internal
        #: linkage, modelling the whole-program (LTO) setting of the paper.
        self.internalize = internalize
        self._declarations: Dict[str, ast.FunctionDecl] = {}

    # -- public API -------------------------------------------------------------------
    def compile(self, program: ast.Program) -> Module:
        for struct in program.structs:
            self.types.declare_struct(struct.name)
        for struct in program.structs:
            self.types.define_struct(struct)
        for global_var in program.globals:
            self._lower_global(global_var)
        # declare every function first so calls and recursion resolve
        for function_decl in program.functions:
            self._declare_function(function_decl)
        for function_decl in program.functions:
            if function_decl.body is not None:
                function = self.module.get_function(function_decl.name)
                assert function is not None
                FunctionLowering(self, function, function_decl).lower()
        return self.module

    def compile_source(self, source: str) -> Module:
        return self.compile(parse(source))

    # -- helpers ------------------------------------------------------------------------
    def _lower_global(self, decl: ast.GlobalVarDecl) -> None:
        content_type = self.types.resolve(decl.var_type)
        initializer = None
        if isinstance(decl.initializer, ast.IntLiteral):
            if content_type.is_integer:
                initializer = vals.ConstantInt(content_type, decl.initializer.value)
            elif content_type.is_float:
                initializer = vals.ConstantFloat(content_type, float(decl.initializer.value))
        elif isinstance(decl.initializer, ast.FloatLiteral) and content_type.is_float:
            initializer = vals.ConstantFloat(content_type, decl.initializer.value)
        self.module.add_global(decl.name, content_type, initializer)

    def _declare_function(self, decl: ast.FunctionDecl) -> Function:
        existing = self.module.get_function(decl.name)
        if existing is not None:
            return existing
        return_type = self.types.resolve(decl.return_type)
        param_types = [self.types.resolve(p.param_type) for p in decl.parameters]
        fnty = ty.function_type(return_type, param_types)
        if decl.body is None:
            linkage = "external"
        elif decl.name == "main" or not self.internalize:
            linkage = "external"
        else:
            linkage = "internal"
        function = self.module.create_function(
            decl.name, fnty, linkage=linkage,
            arg_names=[p.name or f"arg{i}" for i, p in enumerate(decl.parameters)])
        self._declarations[decl.name] = decl
        return function

    def get_or_declare_function(self, name: str,
                                arg_types: List[ty.Type]) -> Function:
        """Find a function by name, auto-declaring unknown callees as external
        functions with the observed argument types and an ``int`` result."""
        function = self.module.get_function(name)
        if function is not None:
            return function
        fnty = ty.function_type(ty.I32, arg_types)
        return self.module.create_function(name, fnty, linkage="external")


def compile_source(source: str, module_name: str = "program",
                   internalize: bool = True) -> Module:
    """Compile mini-C source text into an IR module."""
    return Compiler(module_name, internalize).compile_source(source)
