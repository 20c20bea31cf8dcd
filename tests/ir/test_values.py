"""Unit tests for values, constants and use-def tracking."""

from repro.ir import types as ty
from repro.ir import values as vals
from repro.ir.instructions import BinaryOperator


class TestConstants:
    def test_const_int_wraps_to_width(self):
        c = vals.ConstantInt(ty.I8, 300)
        assert c.value == 300 & 0xFF
        assert c.signed_value == 44

    def test_const_int_signed_view(self):
        c = vals.ConstantInt(ty.I8, -1)
        assert c.value == 255
        assert c.signed_value == -1

    def test_const_bool(self):
        assert vals.const_bool(True).value == 1
        assert vals.const_bool(False).value == 0
        assert vals.const_bool(True).type == ty.I1

    def test_constant_equality_by_type_and_value(self):
        assert vals.const_int(5) == vals.const_int(5)
        assert vals.const_int(5) != vals.const_int(6)
        assert vals.const_int(5, 32) != vals.const_int(5, 64)
        assert vals.const_float(1.5) == vals.const_float(1.5)

    def test_constants_hashable(self):
        constants = {vals.const_int(1), vals.const_int(1), vals.const_int(2)}
        assert len(constants) == 2

    def test_undef_and_null(self):
        undef = vals.undef(ty.I32)
        assert undef.type == ty.I32
        null = vals.const_null(ty.I8)
        assert null.type == ty.pointer(ty.I8)

    def test_is_constant_flag(self):
        from repro.ir import Module
        from repro.ir.basicblock import BasicBlock
        module = Module()
        function = module.create_function("f", ty.function_type(ty.I32, [ty.I32]))
        values = [vals.const_int(1), vals.const_float(2.0), vals.const_null(ty.I8),
                  vals.undef(ty.I32), vals.ConstantString("s"),
                  function.arguments[0], function, BasicBlock("bb"),
                  module.add_global("g", ty.I32),
                  BinaryOperator("add", vals.const_int(1), vals.const_int(2))]
        for value in values:
            assert value.is_constant == isinstance(value, vals.Constant), value


class TestUseDef:
    def test_users_tracked_on_construction(self):
        a = vals.Argument(ty.I32, "a", 0)
        b = vals.Argument(ty.I32, "b", 1)
        inst = BinaryOperator("add", a, b)
        assert inst in a.users
        assert inst in b.users

    def test_set_operand_updates_users(self):
        a = vals.Argument(ty.I32, "a", 0)
        b = vals.Argument(ty.I32, "b", 1)
        c = vals.Argument(ty.I32, "c", 2)
        inst = BinaryOperator("add", a, b)
        inst.set_operand(0, c)
        assert inst not in a.users
        assert inst in c.users

    def test_replace_all_uses_with(self):
        a = vals.Argument(ty.I32, "a", 0)
        b = vals.Argument(ty.I32, "b", 1)
        c = vals.Argument(ty.I32, "c", 2)
        add = BinaryOperator("add", a, b)
        mul = BinaryOperator("mul", a, a)
        a.replace_all_uses_with(c)
        assert add.operands[0] is c
        assert mul.operands[0] is c and mul.operands[1] is c
        assert not a.users

    def test_replace_all_uses_with_self_is_noop(self):
        a = vals.Argument(ty.I32, "a", 0)
        inst = BinaryOperator("add", a, a)
        a.replace_all_uses_with(a)
        assert inst.operands == [a, a]

    def test_drop_all_operands(self):
        a = vals.Argument(ty.I32, "a", 0)
        inst = BinaryOperator("add", a, a)
        inst.drop_all_operands()
        assert not a.users
        assert inst.operands == []

    def test_global_variable_is_pointer_valued(self):
        gv = vals.GlobalVariable("counter", ty.I64)
        assert gv.type == ty.pointer(ty.I64)
        assert gv.content_type == ty.I64
