"""Unit tests for the instruction classes."""

import pytest

from repro.ir import types as ty
from repro.ir import values as vals
from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import (ALL_OPCODES, Alloca, BinaryOperator, Branch,
                                   Call, Cast, FCmp, GetElementPtr, ICmp,
                                   Instruction, LandingPad, Load, Phi, Return,
                                   Select, Store, Switch, Unreachable)
from repro.ir.module import Module


def _args(n=2, bits=32):
    return [vals.Argument(ty.int_type(bits), f"a{i}", i) for i in range(n)]


class TestConstruction:
    def test_unknown_opcode_rejected(self):
        with pytest.raises(ValueError):
            Instruction("frobnicate", ty.I32)

    def test_binary_result_type_follows_lhs(self):
        a, b = _args()
        inst = BinaryOperator("add", a, b)
        assert inst.type == ty.I32
        assert inst.lhs is a and inst.rhs is b

    def test_binary_rejects_non_binary_opcode(self):
        a, b = _args()
        with pytest.raises(ValueError):
            BinaryOperator("icmp", a, b)

    def test_icmp_produces_i1_and_checks_predicate(self):
        a, b = _args()
        inst = ICmp("slt", a, b)
        assert inst.type == ty.I1
        assert inst.predicate == "slt"
        with pytest.raises(ValueError):
            ICmp("bogus", a, b)

    def test_fcmp_predicates(self):
        a = vals.const_float(1.0)
        b = vals.const_float(2.0)
        assert FCmp("olt", a, b).predicate == "olt"
        with pytest.raises(ValueError):
            FCmp("slt", a, b)

    def test_alloca_result_is_pointer(self):
        inst = Alloca(ty.I64)
        assert inst.type == ty.pointer(ty.I64)
        assert inst.allocated_type == ty.I64

    def test_load_requires_pointer(self):
        with pytest.raises(TypeError):
            Load(vals.const_int(3))
        pointer = Alloca(ty.I32)
        assert Load(pointer).type == ty.I32

    def test_store_is_void(self):
        pointer = Alloca(ty.I32)
        store = Store(vals.const_int(1), pointer)
        assert store.type.is_void
        assert store.value_operand.is_constant
        assert store.pointer_operand is pointer

    def test_gep_accessors(self):
        pointer = Alloca(ty.array(ty.I32, 4))
        gep = GetElementPtr(ty.array(ty.I32, 4), pointer,
                            [vals.const_int(0, 64), vals.const_int(2, 64)],
                            ty.pointer(ty.I32))
        assert gep.base_pointer is pointer
        assert len(gep.indices) == 2
        assert gep.source_type == ty.array(ty.I32, 4)

    def test_branch_shapes(self):
        b1, b2 = BasicBlock("a"), BasicBlock("b")
        cond = vals.const_bool(True)
        uncond = Branch(b1)
        assert not uncond.is_conditional
        assert uncond.targets() == [b1]
        conditional = Branch(cond, b1, b2)
        assert conditional.is_conditional
        assert conditional.condition is cond
        with pytest.raises(ValueError):
            Branch(cond, b1)

    def test_switch_cases(self):
        b_default, b_one = BasicBlock("d"), BasicBlock("one")
        switch = Switch(vals.const_int(1), b_default, [(vals.const_int(1), b_one)])
        assert switch.default_dest is b_default
        assert switch.cases()[0][1] is b_one
        switch.add_case(vals.const_int(2), b_default)
        assert len(switch.cases()) == 2

    def test_return_with_and_without_value(self):
        assert Return().return_value is None
        assert Return(vals.const_int(3)).return_value == vals.const_int(3)

    def test_select_type(self):
        sel = Select(vals.const_bool(True), vals.const_int(1), vals.const_int(2))
        assert sel.type == ty.I32
        assert sel.true_value == vals.const_int(1)

    def test_cast_checks_opcode(self):
        with pytest.raises(ValueError):
            Cast("add", vals.const_int(1), ty.I64)
        cast = Cast("sext", vals.const_int(1), ty.I64)
        assert cast.type == ty.I64

    def test_phi_incoming(self):
        phi = Phi(ty.I32)
        b1, b2 = BasicBlock("a"), BasicBlock("b")
        phi.add_incoming(vals.const_int(1), b1)
        phi.add_incoming(vals.const_int(2), b2)
        assert phi.incoming() == [(vals.const_int(1), b1), (vals.const_int(2), b2)]

    def test_landingpad_clauses(self):
        lp = LandingPad(clauses=("cleanup", "catch i8*"))
        assert lp.clauses == ("cleanup", "catch i8*")

    def test_call_infers_return_type_from_function(self):
        module = Module()
        callee = module.create_function("callee", ty.function_type(ty.DOUBLE, [ty.I32]))
        call = Call(callee, [vals.const_int(1)])
        assert call.type == ty.DOUBLE
        assert call.callee is callee
        assert len(call.args) == 1


class TestClassification:
    def test_terminators(self):
        assert Return().is_terminator
        assert Branch(BasicBlock("b")).is_terminator
        assert Unreachable().is_terminator
        a, b = _args()
        assert not BinaryOperator("add", a, b).is_terminator

    def test_commutativity(self):
        a, b = _args()
        assert BinaryOperator("add", a, b).is_commutative
        assert BinaryOperator("mul", a, b).is_commutative
        assert not BinaryOperator("sub", a, b).is_commutative
        assert not BinaryOperator("sdiv", a, b).is_commutative

    def test_side_effects(self):
        pointer = Alloca(ty.I32)
        assert Store(vals.const_int(1), pointer).has_side_effects
        assert not Load(pointer).has_side_effects
        a, b = _args()
        assert not BinaryOperator("add", a, b).has_side_effects

    def test_all_opcodes_unique(self):
        assert len(ALL_OPCODES) == len(set(ALL_OPCODES))


class TestClone:
    def test_clone_copies_structure_and_operands(self):
        a, b = _args()
        original = BinaryOperator("add", a, b)
        copy = original.clone()
        assert copy is not original
        assert copy.opcode == "add"
        assert copy.operands == [a, b]
        assert copy in a.users  # clone registers itself as a user

    def test_clone_detached_from_parent(self):
        block = BasicBlock("bb")
        a, b = _args()
        inst = BinaryOperator("add", a, b)
        block.append(inst)
        copy = inst.clone()
        assert copy.parent is None

    def test_clone_copies_attrs_independently(self):
        a, b = _args()
        original = ICmp("slt", a, b)
        copy = original.clone()
        copy.attrs["predicate"] = "sgt"
        assert original.predicate == "slt"

    def test_erase_from_parent(self):
        block = BasicBlock("bb")
        a, b = _args()
        inst = BinaryOperator("add", a, b)
        block.append(inst)
        inst.erase_from_parent()
        assert len(block) == 0
        assert inst not in a.users
