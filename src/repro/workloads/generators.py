"""Synthetic function/module generators.

The paper evaluates on SPEC CPU2006 and MiBench, whose sources cannot be
shipped here.  What the merging techniques actually react to is the
*population* of functions: how many there are, how big they are, and how
similar they are to each other.  These generators produce seeded, verifiable
IR modules with exactly those knobs:

* a deterministic base-function generator (:func:`build_function`) that emits
  multi-block functions mixing integer/float arithmetic, memory traffic and
  calls;
* *family* derivation: identical clones (template-instantiation style),
  structurally similar variants (same CFG and signature, different opcodes /
  constants - mergeable by the SOA baseline), and partially similar variants
  (extra blocks, extra parameters - mergeable only by FMSA);
* :func:`clone_function` plus a set of mutation operators used to derive the
  variants.

Everything is driven by :class:`random.Random` instances seeded per
benchmark so module generation is fully reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..ir import types as ty
from ..ir import values as vals
from ..ir.basicblock import BasicBlock
from ..ir.builder import IRBuilder
from ..ir.function import Function
from ..ir.instructions import Instruction
from ..ir.module import Module
from ..ir.values import Constant, Value


# ---------------------------------------------------------------------------
# Base function generation
# ---------------------------------------------------------------------------

#: Interchangeable opcode classes used both for generation and mutation.
INT_OP_POOL = ("add", "sub", "mul", "and", "or", "xor", "shl")
FLOAT_OP_POOL = ("fadd", "fsub", "fmul", "fdiv")
CMP_POOL = ("slt", "sgt", "sle", "sge", "eq", "ne")

SCALAR_TYPES: Tuple[ty.Type, ...] = (ty.I32, ty.I64, ty.FLOAT, ty.DOUBLE)


@dataclass
class FunctionSpec:
    """Shape parameters of one synthetic function."""

    name: str
    num_blocks: int = 3
    instructions_per_block: int = 8
    num_int_params: int = 2
    num_float_params: int = 1
    num_pointer_params: int = 1
    returns_float: bool = False
    returns_void: bool = False
    #: Probability that a generated instruction is floating point.
    float_ratio: float = 0.3
    #: Probability of emitting a call to one of the shared helpers.
    call_ratio: float = 0.1
    #: Probability of emitting a load/store through the pointer parameter.
    memory_ratio: float = 0.2
    seed: int = 0


def _ensure_helpers(module: Module) -> List[Function]:
    """Shared external helper functions callable from generated code."""
    specs = [
        ("helper_log", ty.function_type(ty.I32, [ty.I32])),
        ("helper_fclamp", ty.function_type(ty.DOUBLE, [ty.DOUBLE])),
        ("helper_notify", ty.function_type(ty.VOID, [ty.I32])),
    ]
    helpers = []
    for name, fnty in specs:
        existing = module.get_function(name)
        if existing is None:
            existing = module.create_function(name, fnty, linkage="external")
        helpers.append(existing)
    return helpers


def _param_types(spec: FunctionSpec) -> List[ty.Type]:
    params: List[ty.Type] = []
    params.extend([ty.I32] * spec.num_int_params)
    params.extend([ty.DOUBLE] * spec.num_float_params)
    params.extend([ty.pointer(ty.I32)] * spec.num_pointer_params)
    return params


def build_function(module: Module, spec: FunctionSpec,
                   rng: Optional[random.Random] = None) -> Function:
    """Generate one synthetic function according to ``spec``.

    The CFG is a chain of blocks where each block conditionally skips the
    next one (a chain of diamonds), which is representative of real branchy
    code while remaining reducible and easy to reason about.
    """
    rng = rng or random.Random(spec.seed)
    helpers = _ensure_helpers(module)

    if spec.returns_void:
        return_type: ty.Type = ty.VOID
    else:
        return_type = ty.DOUBLE if spec.returns_float else ty.I32
    fnty = ty.function_type(return_type, _param_types(spec))
    function = module.create_function(spec.name, fnty, linkage="internal")

    arg_ints: List[Value] = [a for a in function.arguments if a.type == ty.I32]
    arg_floats: List[Value] = [a for a in function.arguments if a.type == ty.DOUBLE]
    pointer_values: List[Value] = [a for a in function.arguments if a.type.is_pointer]
    if not arg_ints:
        arg_ints = [vals.const_int(rng.randrange(1, 64), 32)]
    if not arg_floats:
        arg_floats = [vals.const_float(rng.uniform(0.5, 4.0))]

    blocks = [function.append_block(f"b{i}") for i in range(max(1, spec.num_blocks))]
    exit_block = function.append_block("exit")

    # Cross-block data flow goes through entry-block accumulator slots so the
    # generated code is dominance-correct without phi nodes (matching the
    # phi-demoted form FMSA expects).
    entry_builder = IRBuilder(blocks[0])
    int_acc = entry_builder.alloca(ty.I32, "acc.i")
    float_acc = entry_builder.alloca(ty.DOUBLE, "acc.f")
    entry_builder.store(arg_ints[0], int_acc)
    entry_builder.store(arg_floats[0], float_acc)

    for block_index, block in enumerate(blocks):
        builder = IRBuilder(block)
        block_ints = list(arg_ints) + [builder.load(int_acc)]
        block_floats = list(arg_floats) + [builder.load(float_acc)]
        for _ in range(spec.instructions_per_block):
            roll = rng.random()
            if roll < spec.call_ratio:
                helper = helpers[rng.randrange(len(helpers))]
                args = []
                for want in helper.function_type.param_types:
                    if want == ty.I32:
                        args.append(rng.choice(block_ints))
                    elif want == ty.DOUBLE:
                        args.append(rng.choice(block_floats))
                call = builder.call(helper, args)
                if helper.function_type.return_type == ty.I32:
                    block_ints.append(call)
                elif helper.function_type.return_type == ty.DOUBLE:
                    block_floats.append(call)
            elif roll < spec.call_ratio + spec.memory_ratio and pointer_values:
                pointer = rng.choice(pointer_values)
                offset = vals.const_int(rng.randrange(0, 8), 64)
                address = builder.gep(ty.I32, pointer, [offset])
                if rng.random() < 0.5:
                    block_ints.append(builder.load(address))
                else:
                    builder.store(rng.choice(block_ints), address)
            elif rng.random() < spec.float_ratio:
                opcode = rng.choice(FLOAT_OP_POOL)
                lhs = rng.choice(block_floats)
                rhs = (rng.choice(block_floats) if rng.random() < 0.7
                       else vals.const_float(round(rng.uniform(0.5, 9.5), 2)))
                block_floats.append(builder.binary(opcode, lhs, rhs))
            else:
                opcode = rng.choice(INT_OP_POOL)
                lhs = rng.choice(block_ints)
                rhs = (rng.choice(block_ints) if rng.random() < 0.7
                       else vals.const_int(rng.randrange(1, 32), 32))
                block_ints.append(builder.binary(opcode, lhs, rhs))
        builder.store(block_ints[-1], int_acc)
        builder.store(block_floats[-1], float_acc)

        next_block = blocks[block_index + 1] if block_index + 1 < len(blocks) else exit_block
        if block_index + 2 <= len(blocks) and rng.random() < 0.7:
            skip_block = (blocks[block_index + 2]
                          if block_index + 2 < len(blocks) else exit_block)
            condition = builder.icmp(rng.choice(CMP_POOL), rng.choice(block_ints),
                                     vals.const_int(rng.randrange(0, 16), 32))
            builder.cond_br(condition, next_block, skip_block)
        else:
            builder.br(next_block)

    exit_builder = IRBuilder(exit_block)
    if return_type.is_void:
        exit_builder.ret_void()
    elif return_type.is_float:
        exit_builder.ret(exit_builder.load(float_acc))
    else:
        exit_builder.ret(exit_builder.load(int_acc))
    return function


# ---------------------------------------------------------------------------
# Cloning and mutation operators
# ---------------------------------------------------------------------------

def clone_function(module: Module, original: Function, new_name: str,
                   extra_param_types: Sequence[ty.Type] = (),
                   param_permutation: Optional[List[int]] = None) -> Function:
    """Deep-copy ``original`` into a new function in the same module.

    ``extra_param_types`` appends unused parameters (changing the signature);
    ``param_permutation`` reorders the original parameters (the clone's
    parameter ``i`` corresponds to the original's ``param_permutation[i]``).
    """
    original_params = [a.type for a in original.arguments]
    if param_permutation is not None:
        new_params = [original_params[i] for i in param_permutation]
    else:
        param_permutation = list(range(len(original_params)))
        new_params = list(original_params)
    new_params.extend(extra_param_types)

    fnty = ty.function_type(original.return_type, new_params)
    clone = module.create_function(module.unique_name(new_name), fnty,
                                   linkage=original.linkage,
                                   arg_names=[f"p{i}" for i in range(len(new_params))])

    value_map: Dict[int, Value] = {}
    for new_index, old_index in enumerate(param_permutation):
        value_map[id(original.arguments[old_index])] = clone.arguments[new_index]

    for block in original.blocks:
        new_block = clone.append_block(block.name)
        value_map[id(block)] = new_block
    for block in original.blocks:
        new_block = value_map[id(block)]
        assert isinstance(new_block, BasicBlock)
        for inst in block.instructions:
            copy = inst.clone()
            new_block.append(copy)
            value_map[id(inst)] = copy
    # remap operands
    for block in original.blocks:
        for inst in block.instructions:
            copy = value_map[id(inst)]
            assert isinstance(copy, Instruction)
            for index, operand in enumerate(inst.operands):
                mapped = value_map.get(id(operand))
                if mapped is not None:
                    copy.set_operand(index, mapped)
    return clone


def mutate_opcodes(function: Function, rng: random.Random, fraction: float = 0.25) -> int:
    """Swap a fraction of arithmetic opcodes within their type class.

    Keeps the CFG, block sizes, types and operand structure intact, so the
    result stays mergeable by the structural (SOA) baseline.
    """
    changed = 0
    for inst in function.instructions():
        if not inst.is_binary or rng.random() > fraction:
            continue
        pool = FLOAT_OP_POOL if inst.opcode.startswith("f") else INT_OP_POOL
        choices = [op for op in pool if op != inst.opcode]
        if inst.opcode in ("shl",):
            choices = [op for op in choices if op not in ("fdiv",)]
        inst.opcode = rng.choice(choices)
        changed += 1
    return changed


def mutate_constants(function: Function, rng: random.Random, fraction: float = 0.3) -> int:
    """Replace a fraction of constant operands with different constants of
    the same type (template-specialisation style differences)."""
    changed = 0
    for inst in function.instructions():
        for index, operand in enumerate(inst.operands):
            if not isinstance(operand, Constant) or rng.random() > fraction:
                continue
            if isinstance(operand, vals.ConstantInt) and operand.type.size_bits() > 1:
                inst.set_operand(index, vals.ConstantInt(
                    operand.type, operand.value + rng.randrange(1, 7)))
                changed += 1
            elif isinstance(operand, vals.ConstantFloat):
                inst.set_operand(index, vals.ConstantFloat(
                    operand.type, round(operand.value + rng.uniform(0.5, 3.0), 3)))
                changed += 1
    return changed


def add_guard_block(module: Module, function: Function, rng: random.Random) -> None:
    """Prepend an early-exit guard block, like the ``quantum_objcode_put``
    check in the libquantum example: an extra basic block and call that break
    CFG isomorphism with the original."""
    guard_name = "guard_check"
    guard = module.get_function(guard_name)
    if guard is None:
        guard = module.create_function(
            guard_name, ty.function_type(ty.I32, [ty.I32]), linkage="external")

    old_entry = function.entry_block
    new_entry = BasicBlock("guard.entry", function)
    bail = BasicBlock("guard.bail", function)
    function.blocks.insert(0, new_entry)
    function.blocks.insert(1, bail)

    builder = IRBuilder(new_entry)
    int_args = [a for a in function.arguments if a.type == ty.I32]
    probe = int_args[0] if int_args else vals.const_int(rng.randrange(1, 9), 32)
    call = builder.call(guard, [probe])
    condition = builder.icmp("ne", call, vals.const_int(0, 32))
    builder.cond_br(condition, bail, old_entry)

    bail_builder = IRBuilder(bail)
    if function.return_type.is_void:
        bail_builder.ret_void()
    elif function.return_type.is_float:
        bail_builder.ret(vals.const_float(0.0))
    else:
        bail_builder.ret(vals.ConstantInt(function.return_type, 0)
                         if function.return_type.is_integer
                         else vals.undef(function.return_type))


def add_extra_instructions(function: Function, rng: random.Random, count: int = 4) -> int:
    """Insert extra *live* arithmetic instructions into random blocks,
    breaking the equal-block-length requirement of the SOA baseline.

    Each inserted instruction is woven into an existing instruction's operand
    so that dead-code elimination cannot remove it again.  Returns how many
    instructions were actually inserted.
    """
    inserted = 0
    for _ in range(count):
        anchors = []
        for block in function.blocks:
            for inst in block.instructions:
                if inst.is_phi or inst.opcode == "landingpad":
                    continue
                for index, operand in enumerate(inst.operands):
                    if operand.type == ty.I32 and not isinstance(operand, BasicBlock):
                        anchors.append((block, inst, index, operand))
        if not anchors:
            break
        block, anchor, operand_index, operand = rng.choice(anchors)
        extra = Instruction(rng.choice(INT_OP_POOL), ty.I32,
                            [operand, vals.const_int(rng.randrange(1, 9), 32)])
        block.insert_before(anchor, extra)
        anchor.set_operand(operand_index, extra)
        inserted += 1
    return inserted


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------

@dataclass
class FamilySpec:
    """How many of each kind of sibling to derive from one base function."""

    identical: int = 0
    structural: int = 0
    partial: int = 0


def make_family(module: Module, base_spec: FunctionSpec, family: FamilySpec,
                rng: random.Random) -> List[Function]:
    """Generate a base function plus its identical / structural / partial
    siblings, returning all of them."""
    base = build_function(module, base_spec, random.Random(base_spec.seed))
    members = [base]

    for index in range(family.identical):
        members.append(clone_function(module, base, f"{base.name}_ident{index}"))

    for index in range(family.structural):
        sibling = clone_function(module, base, f"{base.name}_struct{index}")
        mutate_opcodes(sibling, rng, fraction=0.2)
        mutate_constants(sibling, rng, fraction=0.25)
        members.append(sibling)

    for index in range(family.partial):
        extra_types: List[ty.Type] = [ty.DOUBLE] if index % 2 == 0 else [ty.I32, ty.I64]
        sibling = clone_function(module, base, f"{base.name}_part{index}",
                                 extra_param_types=extra_types)
        mutate_opcodes(sibling, rng, fraction=0.1)
        mutate_constants(sibling, rng, fraction=0.2)
        if index % 2 == 0:
            add_guard_block(module, sibling, rng)
        else:
            add_extra_instructions(sibling, rng, count=3 + index % 4)
        members.append(sibling)

    return members


def add_call_sites(module: Module, functions: Sequence[Function],
                   rng: random.Random, callers: int = 2) -> Function:
    """Create a driver function that calls each generated function once or
    twice, so call-graph updates and thunk decisions have real call sites."""
    driver = module.get_function("driver_main")
    if driver is None:
        driver = module.create_function("driver_main",
                                        ty.function_type(ty.I32, [ty.I32]),
                                        linkage="external", arg_names=["n"])
        block = driver.append_block("entry")
        IRBuilder(block)
    block = driver.blocks[0]
    if block.is_terminated:
        block.instructions[-1].erase_from_parent()
    builder = IRBuilder(block)
    accumulator: Value = driver.arguments[0]
    buffer_alloca = builder.alloca(ty.array(ty.I32, 16), name="buf")
    buffer = builder.gep(ty.array(ty.I32, 16), buffer_alloca,
                         [vals.const_int(0, 64), vals.const_int(0, 64)],
                         result_type=ty.pointer(ty.I32))
    for function in functions:
        for _ in range(max(1, callers)):
            args: List[Value] = []
            for want in function.function_type.param_types:
                if want == ty.I32:
                    args.append(accumulator)
                elif want == ty.I64:
                    args.append(vals.const_int(rng.randrange(1, 9), 64))
                elif want == ty.DOUBLE:
                    args.append(vals.const_float(1.5))
                elif want == ty.FLOAT:
                    args.append(vals.ConstantFloat(ty.FLOAT, 0.5))
                elif want.is_pointer:
                    args.append(buffer if want == ty.pointer(ty.I32)
                                else vals.ConstantNull(want))
                else:
                    args.append(vals.undef(want))
            call = builder.call(function, args)
            if call.type == ty.I32:
                accumulator = builder.add(accumulator, call)
    builder.ret(accumulator)
    return driver
