"""Merged-function code generation (Section III-E of the paper).

Given two functions and the alignment of their linearized bodies, the code
generator produces a single merged function that is semantically equivalent
to either original, selected by an extra boolean *function identifier*
parameter (``func_id``: true selects the first function, false the second).

The four responsibilities described in the paper:

* merge the parameter lists (with type-based reuse and an optional
  select-minimising pairing),
* merge the return types (largest type as the base, with conversions at
  returns and call sites),
* generate ``select`` instructions to choose operands of merged instructions
  that differ between the two originals (or divergent control flow when the
  operands are labels), and
* construct the CFG of the merged function in two passes over the aligned
  sequence: the first creates blocks and cloned instructions together with
  the guarding "diamonds" around non-matching segments, the second assigns
  operands through the value maps.

All of these decisions live in one walk, :class:`MergeCodeGenerator`, which
emits what it decides into a *sink*.  There are two sinks:

* the IR sink builds the merged :class:`Function` (:func:`merge_functions`,
  returning a :class:`MergeResult` with value maps);
* the counting sink builds nothing.  Its blocks and values are small
  records carrying just what the walk inspects (a type, a terminated flag,
  a leading landing pad), and it adds up the target cost of every emitted
  instruction (:func:`merge_cost`, returning ``(size_merged,
  merged_param_count)``).

Because both sinks are driven by the same walk, the counted cost equals
``TargetCostModel.function_cost`` of the body the IR sink would build, and
both raise :class:`CodegenError` at the same points.  The merge engine costs
every candidate with the counting sink and builds IR only for the winner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..ir import types as ty
from ..ir import values as vals
from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Branch, Cast, Instruction, Select
from ..ir.values import Argument, Constant, GlobalVariable, Value
from ..targets.cost_model import TargetCostModel
from .alignment import AlignmentResult, ScoringScheme, align
from .equivalence import entries_equivalent, types_equivalent
from .linearizer import LinearEntry, linearize


class CodegenError(Exception):
    """Raised when the aligned sequence cannot be turned into valid code
    (malformed input IR or a degenerate alignment)."""


@dataclass
class MergeOptions:
    """Tunable knobs of the merger; defaults follow the paper."""

    #: Reuse parameters of identical type between the two functions
    #: (Figure 6).  Disabling this is the "never merge parameters" ablation.
    reuse_parameters: bool = True
    #: Choose parameter pairs that minimise the number of selects by
    #: analysing matched instruction operands (worth up to 7% in the paper).
    smart_parameter_pairing: bool = True
    #: Reorder operands of commutative instructions to maximise matches.
    reorder_commutative: bool = True
    #: Sequence alignment algorithm ("needleman-wunsch" or "hirschberg").
    alignment_algorithm: str = "needleman-wunsch"
    #: Scoring scheme for the aligner.
    scoring: ScoringScheme = field(default_factory=ScoringScheme)
    #: Linearization traversal order ("rpo", "layout" or "dfs").
    traversal: str = "rpo"
    #: Name to give the merged function (auto-generated when None).
    merged_name: Optional[str] = None


class MergeResult:
    """Outcome of merging two functions.

    Attributes:
        merged: the new merged :class:`Function` (not yet added to a module).
        function1 / function2: the original functions.
        func_id: the merged ``i1`` parameter selecting between the originals,
            or ``None`` when the originals turned out to be identical and the
            parameter was dropped.
        arg_maps: per side, a mapping from original arguments to merged
            arguments.
        alignment: the :class:`AlignmentResult` the merge was generated from.
    """

    def __init__(self, merged: Function, function1: Function, function2: Function,
                 func_id: Optional[Argument],
                 arg_map1: Dict[Argument, Argument],
                 arg_map2: Dict[Argument, Argument],
                 alignment: AlignmentResult):
        self.merged = merged
        self.function1 = function1
        self.function2 = function2
        self.func_id = func_id
        self.arg_maps: Tuple[Dict[Argument, Argument], Dict[Argument, Argument]] = (
            arg_map1, arg_map2)
        self.alignment = alignment

    # -- helpers used when rewriting call sites / building thunks ----------------
    def side_of(self, function: Function) -> int:
        if function is self.function1:
            return 0
        if function is self.function2:
            return 1
        raise ValueError(f"{function.name} is not part of this merge")

    def func_id_constant(self, side: int) -> Value:
        """The constant passed as ``func_id`` when calling on behalf of the
        original function on the given side (0 = first, 1 = second)."""
        return vals.const_bool(side == 0)

    def call_arguments(self, side: int, original_args: List[Value]) -> List[Value]:
        """Build the merged call argument list for a call that originally
        targeted side ``side`` with ``original_args``.

        Unbound merged parameters receive ``undef`` values, exactly as the
        paper describes for parameters not used by the called original.
        """
        function = (self.function1, self.function2)[side]
        arg_map = self.arg_maps[side]
        merged_args: List[Value] = []
        for merged_param in self.merged.arguments:
            if merged_param is self.func_id:
                merged_args.append(self.func_id_constant(side))
                continue
            source: Optional[Value] = None
            for orig_arg, mapped in arg_map.items():
                if mapped is merged_param:
                    source = original_args[orig_arg.index]
                    break
            if source is None:
                merged_args.append(vals.undef(merged_param.type))
            else:
                merged_args.append(source)
        return merged_args

    @property
    def uses_func_id(self) -> bool:
        return self.func_id is not None

    def needs_return_conversion(self, side: int) -> bool:
        original = (self.function1, self.function2)[side]
        return (not original.return_type.is_void
                and original.return_type != self.merged.return_type)


# ---------------------------------------------------------------------------
# Parameter-list merging (Figure 6)
# ---------------------------------------------------------------------------

def _co_occurrence_counts(alignment: AlignmentResult) -> Dict[Tuple[int, int], int]:
    """Count, over matched instruction pairs, how often argument ``i`` of the
    first function appears in the same operand slot as argument ``j`` of the
    second.  Used by the select-minimising parameter pairing."""
    counts: Dict[Tuple[int, int], int] = {}
    for entry in alignment.entries:
        if not entry.is_match:
            continue
        left, right = entry.left, entry.right
        if not (left.is_instruction and right.is_instruction):
            continue
        for o1, o2 in zip(left.value.operands, right.value.operands):
            if isinstance(o1, Argument) and isinstance(o2, Argument):
                key = (o1.index, o2.index)
                counts[key] = counts.get(key, 0) + 1
    return counts


def merge_parameter_lists(function1: Function, function2: Function,
                          alignment: AlignmentResult,
                          options: MergeOptions) -> Tuple[List[ty.Type], List[str],
                                                          Dict[int, int], Dict[int, int]]:
    """Compute the merged parameter list.

    Returns ``(param_types, param_names, binding1, binding2)`` where the
    bindings map original argument indices to merged parameter indices.
    Index 0 is always the function identifier at this stage (it may be
    removed later if it ends up unused).
    """
    param_types: List[ty.Type] = [ty.I1]
    param_names: List[str] = ["func_id"]
    binding1: Dict[int, int] = {}
    binding2: Dict[int, int] = {}

    for arg in function1.arguments:
        binding1[arg.index] = len(param_types)
        param_types.append(arg.type)
        param_names.append(arg.name or f"a{arg.index}")

    if not function2.arguments:
        return param_types, param_names, binding1, binding2

    co_occurrence = (_co_occurrence_counts(alignment)
                     if options.smart_parameter_pairing and options.reuse_parameters
                     else {})
    taken: set = set()

    for arg in function2.arguments:
        chosen: Optional[int] = None
        if options.reuse_parameters:
            candidates = [a1 for a1 in function1.arguments
                          if a1.type == arg.type and binding1[a1.index] not in taken]
            if candidates:
                if co_occurrence:
                    candidates.sort(
                        key=lambda a1: (-co_occurrence.get((a1.index, arg.index), 0),
                                        a1.index))
                chosen = binding1[candidates[0].index]
        if chosen is None:
            chosen = len(param_types)
            param_types.append(arg.type)
            param_names.append(arg.name or f"b{arg.index}")
        taken.add(chosen)
        binding2[arg.index] = chosen

    return param_types, param_names, binding1, binding2


def merge_return_types(function1: Function, function2: Function) -> ty.Type:
    """Merged return type: identical types stay, a void side defers to the
    non-void one, otherwise the larger type is the base type."""
    r1, r2 = function1.return_type, function2.return_type
    if r1 == r2:
        return r1
    return ty.larger_type(r1, r2)


# ---------------------------------------------------------------------------
# Value conversion helpers
# ---------------------------------------------------------------------------

def _conversion_opcode(from_type: ty.Type, to_type: ty.Type) -> str:
    if from_type.is_pointer and to_type.is_pointer:
        return "bitcast"
    if from_type.is_integer and to_type.is_integer:
        if from_type.size_bits() < to_type.size_bits():
            return "zext"
        if from_type.size_bits() > to_type.size_bits():
            return "trunc"
        return "bitcast"
    if from_type.is_float and to_type.is_float:
        return "fpext" if from_type.size_bits() < to_type.size_bits() else "fptrunc"
    if from_type.is_integer and to_type.is_pointer:
        return "inttoptr"
    if from_type.is_pointer and to_type.is_integer:
        return "ptrtoint"
    if from_type.is_integer and to_type.is_float:
        return "sitofp" if from_type.size_bits() != to_type.size_bits() else "bitcast"
    if from_type.is_float and to_type.is_integer:
        return "fptosi" if from_type.size_bits() != to_type.size_bits() else "bitcast"
    return "bitcast"


def convert_value(value: Value, to_type: ty.Type, block: BasicBlock,
                  before: Optional[Instruction] = None) -> Value:
    """Convert ``value`` to ``to_type``, inserting a cast when necessary.

    Used for merged return values and for operands whose two sides have
    bitcast-equivalent but unequal types.
    """
    if value.type == to_type:
        return value
    if isinstance(value, vals.UndefValue):
        return vals.undef(to_type)
    cast = Cast(_conversion_opcode(value.type, to_type), value, to_type)
    if before is not None:
        block.insert_before(before, cast)
    else:
        block.append(cast)
    return cast


# ---------------------------------------------------------------------------
# The merger itself: one decision walk over the alignment, two sinks
# ---------------------------------------------------------------------------

class _IRSink:
    """Builds the merged :class:`Function` the walk describes."""

    def __init__(self, name: str):
        self.name = name
        self.merged: Optional[Function] = None

    def begin(self, return_type: ty.Type, param_types: List[ty.Type],
              param_names: List[str]) -> List[Argument]:
        fnty = ty.function_type(return_type, param_types)
        self.merged = Function(self.name, fnty, linkage="internal",
                               arg_names=param_names)
        return self.merged.arguments

    def new_block(self, name: str) -> BasicBlock:
        return self.merged.append_block(name)

    def clone(self, block: BasicBlock, original: Instruction) -> Instruction:
        return block.append(original.clone())

    def branch(self, block: BasicBlock, *operands: Value) -> None:
        block.append(Branch(*operands))

    def move_to_front(self, block: BasicBlock) -> None:
        blocks = self.merged.blocks
        if blocks[0] is not block:
            blocks.remove(block)
            blocks.insert(0, block)

    def dispatch(self, func_id: Value, entry1: BasicBlock,
                 entry2: BasicBlock) -> None:
        dispatch = BasicBlock("entry.dispatch", self.merged)
        dispatch.append(Branch(func_id, entry1, entry2))
        self.merged.blocks.insert(0, dispatch)

    def set_operand(self, inst: Instruction, index: int, value: Value) -> None:
        inst.set_operand(index, value)

    def cast(self, opcode: str, value: Value, to_type: ty.Type,
             before: Instruction) -> Value:
        cast = Cast(opcode, value, to_type)
        before.parent.insert_before(before, cast)
        return cast

    def select(self, cond: Value, v1: Value, v2: Value,
               before: Instruction) -> Value:
        select = Select(cond, v1, v2, name="op.sel")
        before.parent.insert_before(before, select)
        return select

    @staticmethod
    def leads_with_landing_pad(block: BasicBlock) -> bool:
        return block.is_landing_block

    def hoist_landing_pads(self, router: BasicBlock, block1: BasicBlock,
                           block2: BasicBlock) -> None:
        lp1, lp2 = block1.instructions[0], block2.instructions[0]
        hoisted = router.append(lp1.clone())
        for lp, block in ((lp1, block1), (lp2, block2)):
            lp.replace_all_uses_with(hoisted)
            block.remove(lp)
            lp.drop_all_operands()

    def add_return_operand(self, ret: Instruction, value: Value) -> None:
        ret.append_operand(value)

    def abandon(self) -> None:
        """Release the partial body's uses of the originals' values."""
        if self.merged is not None:
            self.merged.drop_body()

    def finish(self, walk: "MergeCodeGenerator", alignment: AlignmentResult,
               uses_func_id: bool) -> MergeResult:
        merged = self.merged
        func_id: Optional[Argument] = merged.arguments[0]
        if not uses_func_id:
            merged.arguments.pop(0)
            for i, arg in enumerate(merged.arguments):
                arg.index = i
            new_type = ty.function_type(merged.function_type.return_type,
                                        [a.type for a in merged.arguments])
            merged.function_type = new_type
            merged.type = ty.pointer(new_type)
            func_id = None
        f1, f2 = walk.f1, walk.f2
        arg_map1 = {arg: walk.value_map1[id(arg)] for arg in f1.arguments}
        arg_map2 = {arg: walk.value_map2[id(arg)] for arg in f2.arguments}
        merged.merged_from = (f1.name, f2.name)
        return MergeResult(merged, f1, f2, func_id, arg_map1, arg_map2,
                           alignment)


class _CostBlock:
    """Counting-sink stand-in for a merged block."""

    __slots__ = ("is_terminated", "empty", "landing_pad")

    def __init__(self):
        self.is_terminated = False
        self.empty = True
        #: the original landing pad this block starts with, if any
        self.landing_pad: Optional[Instruction] = None


class _CostValue:
    """Counting-sink stand-in for a merged parameter, select or cast."""

    __slots__ = ("type",)

    def __init__(self, vtype: ty.Type):
        self.type = vtype


class _CostSink:
    """Adds up the target code-size cost of the merged function the walk
    describes, building no IR.

    A clone costs what its original costs (same opcode, same operand
    count), so the original itself stands in for its clone: it carries the
    right type and is a distinct object per clone, which is all the walk's
    identity and type checks need.  Every extra ``br``, ``select`` or cast
    adds its opcode cost; hoisting two landing pads into a router keeps one.
    """

    def __init__(self, target: TargetCostModel):
        self.target = target
        self.instruction_cost = target.instruction_cost
        self.opcode_costs = target.opcode_costs
        self.default_cost = target.default_cost
        self.branch_cost = self.opcode_costs.get("br", self.default_cost)
        self.select_cost = self.opcode_costs.get("select", self.default_cost)
        self.size = 0
        self.param_count = 0

    def begin(self, return_type: ty.Type, param_types: List[ty.Type],
              param_names: List[str]) -> List[_CostValue]:
        self.param_count = len(param_types)
        return [_CostValue(t) for t in param_types]

    def new_block(self, name: str) -> _CostBlock:
        return _CostBlock()

    def clone(self, block: _CostBlock, original: Instruction) -> Instruction:
        self.size += self.instruction_cost(original)
        if block.empty:
            block.empty = False
            if original.opcode == "landingpad":
                block.landing_pad = original
        block.is_terminated = original.is_terminator
        return original

    def branch(self, block: _CostBlock, *operands) -> None:
        self.size += self.branch_cost
        block.empty = False
        block.is_terminated = True

    def move_to_front(self, block: _CostBlock) -> None:
        pass

    def dispatch(self, func_id, entry1, entry2) -> None:
        self.size += self.branch_cost

    def set_operand(self, inst, index: int, value) -> None:
        pass

    def cast(self, opcode: str, value, to_type: ty.Type, before) -> _CostValue:
        self.size += self.opcode_costs.get(opcode, self.default_cost)
        return _CostValue(to_type)

    def select(self, cond, v1, v2, before) -> _CostValue:
        self.size += self.select_cost
        return _CostValue(v1.type)

    @staticmethod
    def leads_with_landing_pad(block: _CostBlock) -> bool:
        return block.landing_pad is not None

    def hoist_landing_pads(self, router: _CostBlock, block1: _CostBlock,
                           block2: _CostBlock) -> None:
        # the router gains a clone of the first pad; both pads leave
        self.size -= self.instruction_cost(block2.landing_pad)
        router.empty = False
        router.landing_pad = block1.landing_pad
        block1.landing_pad = block2.landing_pad = None

    def add_return_operand(self, ret, value) -> None:
        pass

    def abandon(self) -> None:
        pass

    def finish(self, walk: "MergeCodeGenerator", alignment: AlignmentResult,
               uses_func_id: bool) -> Tuple[int, int]:
        params = self.param_count if uses_func_id else self.param_count - 1
        return self.target.defined_function_cost(self.size, params), params


class MergeCodeGenerator:
    """Merges one pair of originals: the decision walk over their alignment.

    :meth:`generate` runs the walk into the IR sink and returns the
    :class:`MergeResult`; :meth:`cost` runs the same walk into the counting
    sink and returns ``(size_merged, merged_param_count)`` without building
    anything.  Both raise :class:`CodegenError` at the same points.
    """

    def __init__(self, function1: Function, function2: Function,
                 options: Optional[MergeOptions] = None,
                 alignment: Optional[AlignmentResult] = None):
        self.f1 = function1
        self.f2 = function2
        self.options = options or MergeOptions()
        self._given_alignment = alignment

        # per-walk state, reset by every generate() / cost()
        self.value_map1: Dict[int, Value] = {}
        self.value_map2: Dict[int, Value] = {}
        self.sink = None
        self.func_id = None
        self.return_type: Optional[ty.Type] = None
        # instructions emitted on func_id; none means the originals are
        # identical and the parameter is dropped
        self._func_id_uses = 0

    # -- public API ----------------------------------------------------------
    def generate(self) -> MergeResult:
        name = self.options.merged_name or f"__merged_{self.f1.name}_{self.f2.name}"
        return self._walk(_IRSink(name))

    def cost(self, target: TargetCostModel) -> Tuple[int, int]:
        """``(size_merged, merged_param_count)`` of the merge
        :meth:`generate` would build, under ``target``'s cost model."""
        return self._walk(_CostSink(target))

    def align(self) -> AlignmentResult:
        """Linearize both functions and align the sequences."""
        entries1 = linearize(self.f1, self.options.traversal)
        entries2 = linearize(self.f2, self.options.traversal)
        return align(entries1, entries2, entries_equivalent,
                     self.options.scoring, self.options.alignment_algorithm)

    def _walk(self, sink):
        alignment = self._given_alignment or self.align()
        param_types, param_names, binding1, binding2 = merge_parameter_lists(
            self.f1, self.f2, alignment, self.options)
        self.return_type = merge_return_types(self.f1, self.f2)
        self.sink = sink
        self.value_map1, self.value_map2 = {}, {}
        self._func_id_uses = 0
        arguments = sink.begin(self.return_type, param_types, param_names)
        self.func_id = arguments[0]

        # seed the value maps with argument bindings
        for arg in self.f1.arguments:
            self.value_map1[id(arg)] = arguments[binding1[arg.index]]
        for arg in self.f2.arguments:
            self.value_map2[id(arg)] = arguments[binding2[arg.index]]

        try:
            self._build_skeleton(alignment)
            self._fix_entry_block()
            self._assign_operands(alignment)
        except Exception:
            sink.abandon()
            raise
        return sink.finish(self, alignment, self._func_id_uses > 0)

    # -- pass 1: blocks, clones and guard diamonds ------------------------------
    def _build_skeleton(self, alignment: AlignmentResult) -> None:
        sink = self.sink
        cur_merged = cur_left = cur_right = None

        def unterminated(block) -> bool:
            return block is not None and not block.is_terminated

        for entry in alignment.entries:
            if entry.is_match:
                left: LinearEntry = entry.left
                right: LinearEntry = entry.right
                if left.is_label:
                    # a new merged block shared by both functions
                    new_block = sink.new_block(f"m.{left.value.name or 'bb'}")
                    for block in (cur_merged, cur_left, cur_right):
                        if unterminated(block):
                            sink.branch(block, new_block)
                    self.value_map1[id(left.value)] = new_block
                    self.value_map2[id(right.value)] = new_block
                    cur_merged, cur_left, cur_right = new_block, None, None
                else:
                    if cur_merged is None or cur_merged.is_terminated:
                        # re-convergence point after a divergent region
                        join = sink.new_block("m.join")
                        for block in (cur_left, cur_right):
                            if unterminated(block):
                                sink.branch(block, join)
                        if cur_left is None and cur_right is None and unterminated(cur_merged):
                            sink.branch(cur_merged, join)
                        cur_merged, cur_left, cur_right = join, None, None
                    clone = sink.clone(cur_merged, left.value)
                    self.value_map1[id(left.value)] = clone
                    self.value_map2[id(right.value)] = clone
            elif entry.is_left_only:
                cur_left, cur_right, cur_merged = self._emit_one_sided(
                    entry.left, side=0, cur=cur_left, other=cur_right,
                    cur_merged=cur_merged)
            else:
                cur_right, cur_left, cur_merged = self._emit_one_sided(
                    entry.right, side=1, cur=cur_right, other=cur_left,
                    cur_merged=cur_merged)

    def _emit_one_sided(self, lentry: LinearEntry, side: int, cur, other,
                        cur_merged):
        """Emit a non-matching entry for one side.

        Returns the updated ``(cur, other, cur_merged)`` triple (from the
        perspective of the side being processed).
        """
        sink = self.sink
        value_map = self.value_map1 if side == 0 else self.value_map2
        prefix = "l" if side == 0 else "r"

        if lentry.is_label:
            new_block = sink.new_block(f"{prefix}.{lentry.value.name or 'bb'}")
            value_map[id(lentry.value)] = new_block
            return new_block, other, cur_merged

        # an instruction unique to this side
        if cur is None or cur.is_terminated:
            if cur_merged is not None and not cur_merged.is_terminated:
                # transition from a matched region: guard with a diamond
                left_block = sink.new_block("guard.l")
                right_block = sink.new_block("guard.r")
                sink.branch(cur_merged, self.func_id, left_block, right_block)
                self._func_id_uses += 1
                if side == 0:
                    cur, other = left_block, right_block
                else:
                    cur, other = right_block, left_block
                cur_merged = None
            else:
                raise CodegenError(
                    f"dangling instruction for {'first' if side == 0 else 'second'} "
                    f"function: {lentry.value.opcode} has no block to live in")
        value_map[id(lentry.value)] = sink.clone(cur, lentry.value)
        return cur, other, cur_merged

    def _fix_entry_block(self) -> None:
        """Ensure the merged function's first block transfers control to the
        right code for both originals."""
        entry1 = self.value_map1[id(self.f1.entry_block)]
        entry2 = self.value_map2[id(self.f2.entry_block)]
        if entry1 is entry2:
            self.sink.move_to_front(entry1)
            return
        self.sink.dispatch(self.func_id, entry1, entry2)
        self._func_id_uses += 1

    # -- pass 2: operands ---------------------------------------------------------
    def _assign_operands(self, alignment: AlignmentResult) -> None:
        for entry in alignment.entries:
            if entry.is_match:
                if entry.left.is_instruction:
                    self._assign_matched_operands(entry.left.value, entry.right.value)
            elif entry.is_left_only:
                if entry.left.is_instruction:
                    self._assign_single_operands(entry.left.value, side=0)
            else:
                if entry.right.is_instruction:
                    self._assign_single_operands(entry.right.value, side=1)

    def _resolve(self, value: Value, side: int) -> Value:
        """Map an original value to its merged counterpart."""
        mapped = (self.value_map1 if side == 0 else self.value_map2).get(id(value))
        if mapped is not None:
            return mapped
        if isinstance(value, (Constant, GlobalVariable, Function)):
            return value
        raise CodegenError(f"value {value!r} was never mapped during pass 1")

    def _convert(self, value: Value, to_type: ty.Type, before) -> Value:
        """``convert_value`` through the sink: the cast (if any) goes right
        before the merged instruction ``before``."""
        if value.type == to_type:
            return value
        if isinstance(value, vals.UndefValue):
            return vals.undef(to_type)
        return self.sink.cast(_conversion_opcode(value.type, to_type), value,
                              to_type, before)

    def _assign_single_operands(self, original: Instruction, side: int) -> None:
        clone = self._resolve(original, side)
        resolved = None
        for index, operand in enumerate(original.operands):
            resolved = self._resolve(operand, side)
            if not isinstance(operand, BasicBlock):
                have, want = resolved.type, operand.type
                if have is not want and have != want and types_equivalent(have, want):
                    resolved = self._convert(resolved, want, clone)
            self.sink.set_operand(clone, index, resolved)
        if original.opcode == "ret" and not self.return_type.is_void:
            if original.operands:
                self._fixup_return(clone, resolved)
            else:
                # the original returned void but the merged function does not
                self.sink.add_return_operand(clone, vals.undef(self.return_type))

    def _assign_matched_operands(self, inst1: Instruction, inst2: Instruction) -> None:
        clone = self._resolve(inst1, 0)
        operands2 = inst2.operands

        if (self.options.reorder_commutative and inst1.is_commutative
                and len(inst1.operands) >= 2 and len(operands2) >= 2):
            operands2 = self._reorder_commutative(inst1, operands2)

        merged_operand = None
        for index, operand1 in enumerate(inst1.operands):
            operand2 = operands2[index]
            v1 = self._resolve(operand1, 0)
            v2 = self._resolve(operand2, 1)
            if isinstance(operand1, BasicBlock) or isinstance(operand2, BasicBlock):
                merged_operand = self._merge_label_operand(v1, v2)
            else:
                merged_operand = self._merge_value_operand(v1, v2, clone)
            self.sink.set_operand(clone, index, merged_operand)

        if (inst1.opcode == "ret" and not self.return_type.is_void
                and inst1.operands):
            self._fixup_return(clone, merged_operand)

    def _reorder_commutative(self, inst1: Instruction, operands2: List[Value]) -> List[Value]:
        """Swap the first two operands of the second instruction when doing so
        turns two select-requiring operands into direct matches."""
        try:
            v1a = self._resolve(inst1.operands[0], 0)
            v1b = self._resolve(inst1.operands[1], 0)
            v2a = self._resolve(operands2[0], 1)
            v2b = self._resolve(operands2[1], 1)
        except CodegenError:
            return operands2
        direct = (v1a is v2a) + (v1b is v2b)
        swapped = (v1a is v2b) + (v1b is v2a)
        if swapped > direct:
            operands2 = list(operands2)
            operands2[0], operands2[1] = operands2[1], operands2[0]
        return operands2

    def _merge_label_operand(self, block1, block2):
        """Operand selection for labels: identical targets pass through,
        different targets are routed through a new block that branches on the
        function identifier (with landing-pad hoisting when needed)."""
        if block1 is block2:
            return block1
        sink = self.sink
        router = sink.new_block("route")
        if sink.leads_with_landing_pad(block1) and sink.leads_with_landing_pad(block2):
            # hoist the landing pad into the router block (Section III-E)
            sink.hoist_landing_pads(router, block1, block2)
        sink.branch(router, self.func_id, block1, block2)
        self._func_id_uses += 1
        return router

    def _merge_value_operand(self, v1: Value, v2: Value, clone) -> Value:
        """Operand selection for regular values: identical values (or equal
        constants) pass through, anything else becomes a select on the
        function identifier."""
        if v1 is v2:
            return v1
        if isinstance(v1, Constant) and isinstance(v2, Constant) and v1 == v2:
            return v1
        type1, type2 = v1.type, v2.type
        if type2 is not type1 and type2 != type1 and types_equivalent(type2, type1):
            v2 = self._convert(v2, type1, clone)
        self._func_id_uses += 1
        return self.sink.select(self.func_id, v1, v2, clone)

    # -- return handling ---------------------------------------------------------
    def _fixup_return(self, ret, value: Value) -> None:
        """Convert a returned ``value`` to the merged return type."""
        if value.type != self.return_type:
            converted = self._convert(value, self.return_type, ret)
            self.sink.set_operand(ret, 0, converted)


def merge_functions(function1: Function, function2: Function,
                    options: Optional[MergeOptions] = None,
                    alignment: Optional[AlignmentResult] = None) -> MergeResult:
    """Merge two functions by sequence alignment and return the result.

    This is the main algorithmic entry point; it does not modify the module.
    Use :func:`repro.core.thunks.apply_merge` (or the
    :class:`~repro.core.pass_.FunctionMergingPass` driver) to commit a merge
    into a module, replace call sites and create thunks.
    """
    generator = MergeCodeGenerator(function1, function2, options, alignment)
    return generator.generate()


def merge_cost(function1: Function, function2: Function,
               target: TargetCostModel,
               options: Optional[MergeOptions] = None,
               alignment: Optional[AlignmentResult] = None) -> Tuple[int, int]:
    """``(size_merged, merged_param_count)`` of ``merge_functions`` on the
    same arguments, under ``target``'s cost model, with no IR built.

    Raises :class:`CodegenError` exactly when ``merge_functions`` does.
    """
    return MergeCodeGenerator(function1, function2, options, alignment).cost(target)
