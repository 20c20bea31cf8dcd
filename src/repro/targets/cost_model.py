"""Target-transformation-interface-like code-size cost models.

The paper's profitability analysis queries LLVM's TTI for a per-instruction
*code-size* cost, i.e. an estimate of how many bytes (here: abstract size
units) an IR instruction contributes to the final object file on a given
target.  We reproduce that interface: a :class:`TargetCostModel` maps
instructions to integer size costs and aggregates them over blocks, functions
and modules.

Two concrete targets are provided, mirroring the paper's evaluation targets:

* :class:`~repro.targets.x86_64.X86CostModel` — a CISC-like target where most
  instructions lower to 3-5 bytes and memory operands are folded cheaply.
* :class:`~repro.targets.arm_thumb.ArmThumbCostModel` — a compact RISC
  encoding where most instructions are 2-4 bytes but calls, selects and
  branches are comparatively more expensive.

Absolute numbers are not meant to match real encoders byte-for-byte; only the
relative structure matters for the merging decisions and reported reductions,
which is also how the paper uses TTI.
"""

from __future__ import annotations

from typing import Dict

from ..ir.basicblock import BasicBlock
from ..ir.function import Function
from ..ir.instructions import Instruction
from ..ir.module import Module


class TargetCostModel:
    """Base class for per-target code-size cost models."""

    #: Human-readable target name (e.g. ``"x86-64"``).
    name: str = "generic"

    #: Default cost (size units) of an instruction with no specific entry.
    default_cost: int = 4

    #: Per-opcode size costs.
    opcode_costs: Dict[str, int] = {}

    #: Fixed per-function overhead: prologue/epilogue, alignment padding and
    #: symbol-table footprint.  Removing a whole function saves this too.
    function_overhead: int = 8

    #: Extra bytes contributed per formal parameter beyond the register
    #: budget (models stack-passing/reload code at call boundaries).
    per_argument_overhead: int = 1

    #: Number of parameters passed in registers "for free".
    free_argument_registers: int = 4

    def instruction_cost(self, inst: Instruction) -> int:
        """Code-size cost of one IR instruction when lowered."""
        cost = self.opcode_costs.get(inst.opcode, self.default_cost)
        if inst.opcode in ("call", "invoke"):
            # argument marshalling beyond the register budget
            arg_count = len(inst.operands) - 1
            if inst.opcode == "invoke":
                arg_count -= 2
            extra = max(0, arg_count - self.free_argument_registers)
            cost += extra * self.per_argument_overhead
        if inst.opcode == "switch":
            cases = max(0, (len(inst.operands) - 2) // 2)
            cost += cases * 2
        if inst.opcode == "phi":
            # phi nodes usually lower to register copies on edges
            cost += max(0, len(inst.operands) // 2 - 1)
        return cost

    def block_cost(self, block: BasicBlock) -> int:
        return sum(self.instruction_cost(inst) for inst in block.instructions)

    def function_cost(self, function: Function) -> int:
        """Size of a defined function including fixed overhead; declarations
        are free (they live in other objects)."""
        if function.is_declaration:
            return 0
        body = sum(self.block_cost(block) for block in function.blocks)
        return self.defined_function_cost(body, len(function.arguments))

    def defined_function_cost(self, body_cost: int, num_args: int) -> int:
        """Size of a defined function whose instructions cost ``body_cost``
        in total and which takes ``num_args`` parameters."""
        args = max(0, num_args - self.free_argument_registers)
        return body_cost + self.function_overhead + args * self.per_argument_overhead

    def module_cost(self, module: Module) -> int:
        return sum(self.function_cost(f) for f in module.functions)

    def call_site_cost(self, num_args: int) -> int:
        """Cost of one call site with ``num_args`` arguments; used by the
        profitability model for thunks and updated call sites."""
        base = self.opcode_costs.get("call", self.default_cost)
        extra = max(0, num_args - self.free_argument_registers)
        return base + extra * self.per_argument_overhead

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TargetCostModel {self.name}>"


_REGISTRY: Dict[str, TargetCostModel] = {}


def register_target(model: TargetCostModel) -> TargetCostModel:
    _REGISTRY[model.name] = model
    return model


def get_target(name: str) -> TargetCostModel:
    """Look up a registered target cost model by name.

    Accepted names include ``"x86-64"``/``"x86"``/``"intel"`` and
    ``"arm-thumb"``/``"arm"``/``"thumb"``.
    """
    # import concrete targets lazily so registration happens on first use
    from . import arm_thumb, x86_64  # noqa: F401  (side effect: registration)

    canonical = {
        "x86": "x86-64", "intel": "x86-64", "x86-64": "x86-64", "x86_64": "x86-64",
        "arm": "arm-thumb", "thumb": "arm-thumb", "arm-thumb": "arm-thumb",
        "arm_thumb": "arm-thumb",
    }.get(name.lower())
    if canonical is None or canonical not in _REGISTRY:
        raise KeyError(f"unknown target: {name!r}")
    return _REGISTRY[canonical]


def available_targets() -> list:
    from . import arm_thumb, x86_64  # noqa: F401

    return sorted(_REGISTRY)
