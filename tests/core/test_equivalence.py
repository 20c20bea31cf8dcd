"""Tests for the instruction/label/entry equivalence relation."""

from repro.core import instructions_equivalent, labels_equivalent, types_equivalent
from repro.core.equivalence import entries_equivalent
from repro.core.linearizer import LinearEntry
from repro.ir import Module
from repro.ir import types as ty
from repro.ir import values as vals
from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import (Alloca, BinaryOperator, Call, GetElementPtr,
                                   ICmp, LandingPad, Load, Store)


def _args(t=ty.I32, n=2):
    return [vals.Argument(t, f"a{i}", i) for i in range(n)]


class TestTypeEquivalence:
    def test_identical_and_pointer_types(self):
        assert types_equivalent(ty.I32, ty.I32)
        assert types_equivalent(ty.pointer(ty.FLOAT), ty.pointer(ty.I64))
        assert types_equivalent(ty.I64, ty.DOUBLE)
        assert not types_equivalent(ty.I32, ty.I64)
        assert not types_equivalent(ty.FLOAT, ty.DOUBLE)


class TestInstructionEquivalence:
    def test_same_opcode_same_types_match(self):
        a1, b1 = _args()
        a2, b2 = _args()
        assert instructions_equivalent(BinaryOperator("add", a1, b1),
                                       BinaryOperator("add", a2, b2))

    def test_different_opcode_rejected(self):
        a, b = _args()
        assert not instructions_equivalent(BinaryOperator("add", a, b),
                                           BinaryOperator("sub", a, b))

    def test_operands_may_differ_in_value_but_not_type(self):
        a, b = _args()
        one = BinaryOperator("add", a, vals.const_int(1))
        two = BinaryOperator("add", b, vals.const_int(9))
        assert instructions_equivalent(one, two)
        wide = BinaryOperator("add", *_args(ty.I64))
        assert not instructions_equivalent(one, wide)

    def test_icmp_requires_same_predicate(self):
        a, b = _args()
        assert instructions_equivalent(ICmp("slt", a, b), ICmp("slt", a, b))
        assert not instructions_equivalent(ICmp("slt", a, b), ICmp("sgt", a, b))

    def test_result_type_must_be_bitcastable(self):
        p_int = Alloca(ty.I32)
        p_float = Alloca(ty.FLOAT)
        # loads of same width through different pointers are equivalent
        assert instructions_equivalent(Load(p_int), Load(p_float))
        p_double = Alloca(ty.DOUBLE)
        assert not instructions_equivalent(Load(p_int), Load(p_double))

    def test_alloca_requires_same_size(self):
        assert instructions_equivalent(Alloca(ty.I32), Alloca(ty.FLOAT))
        assert not instructions_equivalent(Alloca(ty.I32), Alloca(ty.I64))

    def test_store_width_must_match(self):
        slot32, slot64 = Alloca(ty.I32), Alloca(ty.I64)
        s32 = Store(vals.const_int(1, 32), slot32)
        s64 = Store(vals.const_int(1, 64), slot64)
        assert not instructions_equivalent(s32, s64)
        other32 = Store(vals.const_int(7, 32), Alloca(ty.I32))
        assert instructions_equivalent(s32, other32)

    def test_gep_requires_same_source_type(self):
        base = Alloca(ty.array(ty.I32, 4))
        gep1 = GetElementPtr(ty.array(ty.I32, 4), base, [vals.const_int(0, 64)],
                             ty.pointer(ty.I32))
        gep2 = GetElementPtr(ty.array(ty.I32, 4), base, [vals.const_int(1, 64)],
                             ty.pointer(ty.I32))
        gep3 = GetElementPtr(ty.array(ty.I64, 4), Alloca(ty.array(ty.I64, 4)),
                             [vals.const_int(0, 64)], ty.pointer(ty.I64))
        assert instructions_equivalent(gep1, gep2)
        assert not instructions_equivalent(gep1, gep3)

    def test_calls_require_identical_callee_function_types(self):
        module = Module()
        f_int = module.create_function("fi", ty.function_type(ty.I32, [ty.I32]),
                                       linkage="external")
        g_int = module.create_function("gi", ty.function_type(ty.I32, [ty.I32]),
                                       linkage="external")
        h_float = module.create_function("hf", ty.function_type(ty.I32, [ty.DOUBLE]),
                                         linkage="external")
        call1 = Call(f_int, [vals.const_int(1)])
        call2 = Call(g_int, [vals.const_int(2)])
        call3 = Call(h_float, [vals.const_float(1.0)])
        assert instructions_equivalent(call1, call2)
        assert not instructions_equivalent(call1, call3)

    def test_operand_count_must_match(self):
        from repro.ir.instructions import Return
        assert not instructions_equivalent(Return(), Return(vals.const_int(1)))
        assert instructions_equivalent(Return(vals.const_int(1)), Return(vals.const_int(2)))


class TestLabelEquivalence:
    def test_normal_labels_always_match(self):
        assert labels_equivalent(BasicBlock("a"), BasicBlock("b"))

    def test_landing_vs_normal_rejected(self):
        landing = BasicBlock("lp")
        landing.append(LandingPad())
        assert not labels_equivalent(landing, BasicBlock("n"))

    def test_landing_blocks_need_identical_pads(self):
        lp1 = BasicBlock("a")
        lp1.append(LandingPad(clauses=("cleanup",)))
        lp2 = BasicBlock("b")
        lp2.append(LandingPad(clauses=("cleanup",)))
        lp3 = BasicBlock("c")
        lp3.append(LandingPad(clauses=("catch i8*",)))
        assert labels_equivalent(lp1, lp2)
        assert not labels_equivalent(lp1, lp3)

    def test_entry_kinds_never_cross_match(self):
        block = BasicBlock("bb")
        a, b = _args()
        inst = BinaryOperator("add", a, b)
        label_entry = LinearEntry(LinearEntry.LABEL, block, block)
        inst_entry = LinearEntry(LinearEntry.INSTRUCTION, inst, block)
        assert not entries_equivalent(label_entry, inst_entry)
        assert entries_equivalent(label_entry, LinearEntry(LinearEntry.LABEL, BasicBlock("c"), block))
