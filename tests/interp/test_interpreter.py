"""Tests for the IR interpreter."""

import pytest

from repro.ir import IRBuilder, Module
from repro.ir import types as ty
from repro.ir import values as vals
from repro.interp import Interpreter, InterpreterError, Timeout, standard_externals

from tests.helpers import make_accumulator_function, make_binary_chain_function


class TestArithmetic:
    def _unary_int_fn(self, opcode, a, b, bits=32):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.int_type(bits), []),
                                          linkage="external")
        builder = IRBuilder(function.append_block("entry"))
        builder.ret(builder.binary(opcode, vals.const_int(a, bits), vals.const_int(b, bits)))
        return Interpreter(module).run("f", [])

    def test_integer_ops(self):
        assert self._unary_int_fn("add", 7, 5) == 12
        assert self._unary_int_fn("sub", 7, 5) == 2
        assert self._unary_int_fn("mul", 7, 5) == 35
        assert self._unary_int_fn("and", 0b1100, 0b1010) == 0b1000
        assert self._unary_int_fn("or", 0b1100, 0b1010) == 0b1110
        assert self._unary_int_fn("xor", 0b1100, 0b1010) == 0b0110
        assert self._unary_int_fn("shl", 3, 2) == 12
        assert self._unary_int_fn("lshr", 16, 2) == 4

    def test_signed_division_and_remainder(self):
        assert self._unary_int_fn("sdiv", -7, 2) == (-3) & 0xFFFFFFFF
        assert self._unary_int_fn("srem", -7, 2) == (-1) & 0xFFFFFFFF
        assert self._unary_int_fn("udiv", 7, 2) == 3
        assert self._unary_int_fn("urem", 7, 2) == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(InterpreterError):
            self._unary_int_fn("sdiv", 1, 0)

    def test_overflow_wraps(self):
        assert self._unary_int_fn("add", 0xFFFFFFFF, 1) == 0
        assert self._unary_int_fn("mul", 1 << 31, 2) == 0

    def test_ashr_sign_extends(self):
        assert self._unary_int_fn("ashr", -8, 1) == (-4) & 0xFFFFFFFF

    def test_float_ops(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.DOUBLE, [ty.DOUBLE, ty.DOUBLE]),
                                          linkage="external")
        builder = IRBuilder(function.append_block("entry"))
        a, b = function.arguments
        builder.ret(builder.fdiv(builder.fmul(builder.fadd(a, b), b), vals.const_float(2.0)))
        assert Interpreter(module).run("f", [1.0, 3.0]) == pytest.approx(6.0)

    def test_icmp_predicates(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.I1, [ty.I32, ty.I32]),
                                          linkage="external")
        builder = IRBuilder(function.append_block("entry"))
        builder.ret(builder.icmp("slt", function.arguments[0], function.arguments[1]))
        interp = Interpreter(module)
        assert interp.run("f", [1, 2]) == 1
        assert interp.run("f", [2, 1]) == 0
        assert interp.run("f", [(-1) & 0xFFFFFFFF, 1]) == 1  # signed view of -1

    def test_select_and_casts(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.I64, [ty.I32]),
                                          linkage="external")
        builder = IRBuilder(function.append_block("entry"))
        cond = builder.icmp("sgt", function.arguments[0], vals.const_int(0))
        wide = builder.sext(function.arguments[0], ty.I64)
        chosen = builder.select(cond, wide, vals.const_int(0, 64))
        builder.ret(chosen)
        interp = Interpreter(module)
        assert interp.run("f", [5]) == 5
        assert interp.run("f", [(-5) & 0xFFFFFFFF]) == 0


class TestControlFlowAndMemory:
    def test_loop_accumulator(self):
        module = Module()
        make_accumulator_function(module, "acc")
        assert Interpreter(module).run("acc", [5]) == 0 + 1 + 2 + 3 + 4

    def test_branchy_function(self):
        module = Module()
        make_binary_chain_function(module, "chain", ["add"], constant=2)
        interp = Interpreter(module)
        assert interp.run("chain", [3, 4]) == 14
        assert interp.run("chain", [-10 & 0xFFFFFFFF, 1]) == 18  # negated branch

    def test_gep_struct_and_array(self):
        module = Module()
        node = ty.struct([ty.I32, ty.DOUBLE], name="node")
        function = module.create_function("f", ty.function_type(ty.DOUBLE, []),
                                          linkage="external")
        builder = IRBuilder(function.append_block("entry"))
        array_slot = builder.alloca(ty.array(node, 3))
        second = builder.gep(ty.array(node, 3), array_slot,
                             [vals.const_int(0, 64), vals.const_int(1, 64)],
                             result_type=ty.pointer(node))
        field = builder.gep(node, second, [vals.const_int(0, 64), vals.const_int(1, 32)],
                            result_type=ty.pointer(ty.DOUBLE))
        builder.store(vals.const_float(2.5), field)
        builder.ret(builder.load(field))
        assert Interpreter(module).run("f", []) == 2.5

    def test_switch_dispatch(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.I32, [ty.I32]),
                                          linkage="external")
        entry = function.append_block("entry")
        default = function.append_block("default")
        one = function.append_block("one")
        two = function.append_block("two")
        builder = IRBuilder(entry)
        builder.switch(function.arguments[0], default,
                       [(vals.const_int(1), one), (vals.const_int(2), two)])
        IRBuilder(default).ret(vals.const_int(-1))
        IRBuilder(one).ret(vals.const_int(100))
        IRBuilder(two).ret(vals.const_int(200))
        interp = Interpreter(module)
        assert interp.run("f", [1]) == 100
        assert interp.run("f", [2]) == 200
        assert interp.run("f", [9]) == (-1) & 0xFFFFFFFF

    def test_phi_selection(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.I32, [ty.I32]),
                                          linkage="external")
        entry = function.append_block("entry")
        left = function.append_block("left")
        right = function.append_block("right")
        join = function.append_block("join")
        builder = IRBuilder(entry)
        cond = builder.icmp("sgt", function.arguments[0], vals.const_int(0))
        builder.cond_br(cond, left, right)
        IRBuilder(left).br(join)
        IRBuilder(right).br(join)
        join_builder = IRBuilder(join)
        phi = join_builder.phi(ty.I32)
        phi.add_incoming(vals.const_int(1), left)
        phi.add_incoming(vals.const_int(2), right)
        join_builder.ret(phi)
        interp = Interpreter(module)
        assert interp.run("f", [5]) == 1
        assert interp.run("f", [0]) == 2

    def test_fuel_limit(self):
        module = Module()
        function = module.create_function("spin", ty.function_type(ty.VOID, []),
                                          linkage="external")
        block = function.append_block("entry")
        IRBuilder(block).br(block)
        with pytest.raises(Timeout):
            Interpreter(module, fuel=1000).run("spin", [])

    def test_unreachable_raises(self):
        module = Module()
        function = module.create_function("f", ty.function_type(ty.VOID, []),
                                          linkage="external")
        IRBuilder(function.append_block("entry")).unreachable()
        with pytest.raises(InterpreterError):
            Interpreter(module).run("f", [])


class TestCallsAndExceptions:
    def test_direct_call(self):
        module = Module()
        callee = module.create_function("callee", ty.function_type(ty.I32, [ty.I32]))
        builder = IRBuilder(callee.append_block("entry"))
        builder.ret(builder.mul(callee.arguments[0], vals.const_int(3)))
        caller = module.create_function("caller", ty.function_type(ty.I32, [ty.I32]),
                                        linkage="external")
        builder = IRBuilder(caller.append_block("entry"))
        builder.ret(builder.call(callee, [caller.arguments[0]]))
        assert Interpreter(module).run("caller", [7]) == 21

    def test_external_call_registered(self):
        module = Module()
        ext = module.create_function("twice", ty.function_type(ty.I32, [ty.I32]),
                                     linkage="external")
        caller = module.create_function("caller", ty.function_type(ty.I32, [ty.I32]),
                                        linkage="external")
        builder = IRBuilder(caller.append_block("entry"))
        builder.ret(builder.call(ext, [caller.arguments[0]]))
        interp = Interpreter(module, {"twice": lambda i, args: args[0] * 2})
        assert interp.run("caller", [21]) == 42

    def test_unresolved_external_raises(self):
        module = Module()
        ext = module.create_function("mystery", ty.function_type(ty.I32, []),
                                     linkage="external")
        caller = module.create_function("caller", ty.function_type(ty.I32, []),
                                        linkage="external")
        builder = IRBuilder(caller.append_block("entry"))
        builder.ret(builder.call(ext, []))
        with pytest.raises(InterpreterError):
            Interpreter(module).run("caller", [])

    def test_standard_externals_malloc(self):
        module = Module()
        malloc = module.create_function("mymalloc",
                                        ty.function_type(ty.pointer(ty.I8), [ty.I64]),
                                        linkage="external")
        function = module.create_function("f", ty.function_type(ty.I32, []),
                                          linkage="external")
        builder = IRBuilder(function.append_block("entry"))
        raw = builder.call(malloc, [vals.const_int(8, 64)])
        typed = builder.bitcast(raw, ty.pointer(ty.I32))
        builder.store(vals.const_int(99), typed)
        builder.ret(builder.load(typed))
        interp = Interpreter(module, standard_externals())
        assert interp.run("f", []) == 99

    def test_invoke_normal_and_unwind_paths(self):
        module = Module()
        thrower = module.create_function("__throw_exception",
                                         ty.function_type(ty.VOID, [ty.I32]),
                                         linkage="external")
        safe = module.create_function("safe", ty.function_type(ty.VOID, [ty.I32]),
                                      linkage="external")
        function = module.create_function("f", ty.function_type(ty.I32, [ty.I1]),
                                          linkage="external")
        entry = function.append_block("entry")
        do_throw = function.append_block("throw")
        normal = function.append_block("normal")
        landing = function.append_block("landing")
        builder = IRBuilder(entry)
        builder.cond_br(function.arguments[0], do_throw, normal)
        throw_builder = IRBuilder(do_throw)
        throw_builder.invoke(thrower, [vals.const_int(7)], normal, landing)
        IRBuilder(normal).ret(vals.const_int(1))
        landing_builder = IRBuilder(landing)
        landing_builder.landingpad()
        landing_builder.ret(vals.const_int(2))
        externals = standard_externals()
        externals["safe"] = lambda i, args: None
        interp = Interpreter(module, externals)
        assert interp.run("f", [0]) == 1
        assert interp.run("f", [1]) == 2

    def test_profile_collection(self):
        module = Module()
        make_accumulator_function(module, "acc")
        interp = Interpreter(module)
        interp.run("acc", [10])
        profile = interp.profile.for_function("acc")
        assert profile.call_count == 1
        assert profile.dynamic_instructions > 10
        interp.profile.normalize()
        assert profile.relative_weight == pytest.approx(1.0)
