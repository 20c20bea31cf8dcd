"""Unit tests for the IR type system."""

import pytest

from repro.ir import types as ty


class TestScalarTypes:
    def test_int_width_and_str(self):
        assert ty.I32.bits == 32
        assert str(ty.I32) == "i32"
        assert str(ty.IntType(7)) == "i7"

    def test_int_invalid_width(self):
        with pytest.raises(ValueError):
            ty.IntType(0)

    def test_float_widths(self):
        assert str(ty.FLOAT) == "float"
        assert str(ty.DOUBLE) == "double"
        with pytest.raises(ValueError):
            ty.FloatType(20)

    def test_void_properties(self):
        assert ty.VOID.is_void
        assert not ty.VOID.is_first_class
        assert ty.VOID.size_bits() == 0

    def test_structural_equality(self):
        assert ty.IntType(32) == ty.I32
        assert ty.IntType(32) != ty.IntType(64)
        assert ty.FloatType(32) != ty.IntType(32)

    def test_hashable(self):
        bucket = {ty.I32: "a", ty.FLOAT: "b"}
        assert bucket[ty.IntType(32)] == "a"
        assert bucket[ty.FloatType(32)] == "b"

    def test_int_type_factory_returns_singletons(self):
        assert ty.int_type(32) is ty.I32
        assert ty.int_type(8) is ty.I8
        assert ty.int_type(17).bits == 17


class TestDerivedTypes:
    def test_pointer_size_and_equality(self):
        p = ty.pointer(ty.I32)
        assert p.size_bits() == ty.POINTER_BITS
        assert p == ty.pointer(ty.I32)
        assert p != ty.pointer(ty.I64)
        assert str(p) == "i32*"

    def test_array_size(self):
        a = ty.array(ty.I32, 10)
        assert a.size_bits() == 320
        assert a.size_bytes() == 40
        assert str(a) == "[10 x i32]"

    def test_array_negative_length_rejected(self):
        with pytest.raises(ValueError):
            ty.array(ty.I8, -1)

    def test_struct_layout(self):
        s = ty.struct([ty.I32, ty.DOUBLE, ty.I8], name="mix")
        assert s.size_bytes() == 4 + 8 + 1
        assert s.field_offset_bytes(0) == 0
        assert s.field_offset_bytes(1) == 4
        assert s.field_offset_bytes(2) == 12

    def test_named_struct_identity_by_name(self):
        a = ty.struct([ty.I32], name="node")
        b = ty.struct([ty.I64, ty.I64], name="node")
        assert a == b  # named structs compare by name
        anon1 = ty.struct([ty.I32])
        anon2 = ty.struct([ty.I32])
        assert anon1 == anon2

    def test_function_type(self):
        f = ty.function_type(ty.I32, [ty.I32, ty.DOUBLE])
        assert f.return_type == ty.I32
        assert f.param_types == (ty.I32, ty.DOUBLE)
        assert f == ty.function_type(ty.I32, [ty.I32, ty.DOUBLE])
        assert f != ty.function_type(ty.I32, [ty.DOUBLE, ty.I32])

    def test_function_type_vararg_distinct(self):
        f1 = ty.function_type(ty.VOID, [ty.I32])
        f2 = ty.function_type(ty.VOID, [ty.I32], is_vararg=True)
        assert f1 != f2


class TestBitcastEquivalence:
    def test_identical_types(self):
        assert ty.can_losslessly_bitcast(ty.I32, ty.I32)

    def test_pointers_always_castable(self):
        assert ty.can_losslessly_bitcast(ty.pointer(ty.I8), ty.pointer(ty.DOUBLE))

    def test_same_width_scalars(self):
        assert ty.can_losslessly_bitcast(ty.I32, ty.FLOAT)
        assert ty.can_losslessly_bitcast(ty.I64, ty.DOUBLE)

    def test_different_width_rejected(self):
        assert not ty.can_losslessly_bitcast(ty.I32, ty.I64)
        assert not ty.can_losslessly_bitcast(ty.FLOAT, ty.DOUBLE)

    def test_void_and_label_not_castable(self):
        assert not ty.can_losslessly_bitcast(ty.VOID, ty.I32)
        assert not ty.can_losslessly_bitcast(ty.LABEL, ty.LABEL) or ty.LABEL == ty.LABEL

    def test_aggregates_not_castable(self):
        s = ty.struct([ty.I32], name="s")
        assert not ty.can_losslessly_bitcast(s, ty.I32)

    def test_larger_type(self):
        assert ty.larger_type(ty.I32, ty.I64) == ty.I64
        assert ty.larger_type(ty.DOUBLE, ty.FLOAT) == ty.DOUBLE
        assert ty.larger_type(ty.VOID, ty.I32) == ty.I32
        assert ty.larger_type(ty.I32, ty.VOID) == ty.I32
        # ties favour the first argument
        assert ty.larger_type(ty.FLOAT, ty.I32) == ty.FLOAT


class TestClassificationFlags:
    """The ``is_*`` predicates are class attributes; each must equal the
    ``isinstance`` definition the properties used to compute."""

    @staticmethod
    def isinstance_flags(t):
        return {
            "is_void": isinstance(t, ty.VoidType),
            "is_integer": isinstance(t, ty.IntType),
            "is_float": isinstance(t, ty.FloatType),
            "is_pointer": isinstance(t, ty.PointerType),
            "is_aggregate": isinstance(t, (ty.ArrayType, ty.StructType)),
            "is_label": isinstance(t, ty.LabelType),
            "is_function": isinstance(t, ty.FunctionType),
            "is_first_class": not isinstance(
                t, (ty.VoidType, ty.FunctionType, ty.LabelType)),
        }

    @pytest.mark.parametrize("t", [
        ty.I1, ty.IntType(7), ty.FLOAT, ty.DOUBLE, ty.pointer(ty.I8),
        ty.TOKEN, ty.VOID, ty.LABEL,
        ty.struct([ty.I32, ty.DOUBLE], name="pair"),
        ty.struct([ty.I32, ty.pointer(ty.I32)]),
        ty.array(ty.I32, 4),
        ty.function_type(ty.I32, [ty.I32], is_vararg=True),
    ], ids=str)
    def test_flags_match_isinstance(self, t):
        assert {name: getattr(t, name) for name in self.isinstance_flags(t)} \
            == self.isinstance_flags(t)

    def test_every_concrete_type_class_is_covered(self):
        covered = {ty.IntType, ty.FloatType, ty.PointerType, ty.TokenType,
                   ty.VoidType, ty.LabelType, ty.StructType, ty.ArrayType,
                   ty.FunctionType}
        assert set(ty.Type.__subclasses__()) == covered

    def test_token_stays_first_class(self):
        assert ty.TOKEN.is_first_class
        assert not ty.TOKEN.is_aggregate
