"""Committing a merge: thunks, call-site updates and function removal.

After the code generator produces a merged function, the bodies of the two
originals are replaced by a single call to it (a *thunk*).  When it is valid
to do so - internal linkage and no address-taken uses - the originals are
deleted entirely and every direct call site is remapped to the merged
function instead (Section III-A and IV of the paper).

``apply_merge`` maintains the caller-provided :class:`CallGraph`
*incrementally*: the merged function is registered, rewritten call sites are
swapped edge by edge, and consumed bodies are unregistered before they are
dropped - no O(module) ``rebuild()`` scans.  The returned
:class:`AppliedMerge` records exactly which functions the commit touched
(``rewritten_callers``, ``touched_callees``): the engine invalidates those
functions' cached state, and an incremental session knows which memoized
plans the commit spoiled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..ir import types as ty
from ..ir import values as vals
from ..ir.builder import IRBuilder
from ..ir.callgraph import CallGraph
from ..ir.function import Function
from ..ir.instructions import Call, Instruction, Invoke
from ..ir.module import Module
from .codegen import MergeResult, convert_value


@dataclass
class AppliedMerge:
    """Record of one committed merge operation."""

    merged_name: str
    function1: str
    function2: str
    #: Per original function: "deleted" (call sites remapped, body removed)
    #: or "thunk" (body replaced by a single call to the merged function).
    disposition: List[str] = field(default_factory=list)
    updated_call_sites: int = 0
    #: Functions whose bodies were rewritten because they contained direct
    #: call sites of a deleted original (their linearizations and
    #: fingerprints are stale after this commit).
    rewritten_callers: List[str] = field(default_factory=list)
    #: Functions called by either original: their caller sets / direct call
    #: sites changed (old bodies dropped, clones live in the merged function).
    touched_callees: List[str] = field(default_factory=list)


def build_thunk(original: Function, result: MergeResult) -> None:
    """Replace the body of ``original`` with a single tail-call to the merged
    function, forwarding its own parameters (and undef for the rest)."""
    side = result.side_of(original)
    merged = result.merged
    original.drop_body()
    block = original.append_block("thunk")
    builder = IRBuilder(block)
    call_args = result.call_arguments(side, list(original.arguments))
    call = builder.call(merged, call_args)
    if original.return_type.is_void:
        builder.ret_void()
    else:
        value: vals.Value = call
        if value.type != original.return_type:
            value = convert_value(value, original.return_type, block)
        builder.ret(value)


def _replace_call_site(site: Instruction, original: Function,
                       result: MergeResult) -> Instruction:
    """Rewrite one direct call/invoke of ``original`` to call the merged
    function instead, preserving invoke destinations and converting the
    result back to the caller-visible type when needed."""
    side = result.side_of(original)
    merged = result.merged
    block = site.parent
    assert block is not None

    if site.opcode == "call":
        original_args = site.operands[1:]
        new_site: Instruction = Call(merged, result.call_arguments(side, original_args),
                                     name=site.name)
    else:  # invoke
        original_args = site.operands[1:-2]
        new_site = Invoke(merged, result.call_arguments(side, original_args),
                          site.operands[-2], site.operands[-1], name=site.name)
    block.insert_before(site, new_site)

    replacement: vals.Value = new_site
    if not site.type.is_void and site.users:
        if new_site.type != site.type:
            replacement = convert_value(new_site, site.type, block, site)
        site.replace_all_uses_with(replacement)
    site.erase_from_parent()
    return new_site


def apply_merge(module: Module, result: MergeResult,
                call_graph: Optional[CallGraph] = None,
                allow_deletion: bool = True) -> AppliedMerge:
    """Commit a merge into ``module``.

    The merged function is added to the module; each original either becomes
    a thunk or - when deletion is safe and ``allow_deletion`` holds - has all
    of its direct call sites redirected and is removed from the module.

    ``call_graph`` must be accurate for the current module state; it is
    updated in place as the commit mutates the module and is exactly equal
    to a from-scratch rebuild when ``apply_merge`` returns.
    """
    graph = call_graph or CallGraph(module)
    merged = result.merged
    merged_name = module.unique_name(merged.name)
    merged.name = merged_name
    module.add_function(merged)

    record = AppliedMerge(merged_name, result.function1.name, result.function2.name)
    touched = set()
    for original in (result.function1, result.function2):
        touched.update(graph.callees.get(original.name, ()))
    record.touched_callees = sorted(touched)

    graph.add_function(merged)
    rewritten = set()

    for original in (result.function1, result.function2):
        sites = graph.direct_call_sites(original)
        deletable = (allow_deletion and original.can_be_deleted()
                     and not graph.is_address_taken(original))
        if deletable:
            for site in sites:
                caller = site.parent.parent if site.parent is not None else None
                if caller is not None:
                    # before the rewrite: erasing the site drops its operands
                    graph.unregister_instruction(caller.name, site)
                new_site = _replace_call_site(site, original, result)
                if caller is not None:
                    graph.register_instruction(caller.name, new_site)
                    rewritten.add(caller.name)
                record.updated_call_sites += 1
            if not original.users:
                graph.remove_function(original)
                module.remove_function(original)
                record.disposition.append("deleted")
                continue
            # a stray non-call reference appeared: fall back to a thunk
        graph.unregister_body(original)
        build_thunk(original, result)
        graph.register_body(original)
        record.disposition.append("thunk")

    record.rewritten_callers = sorted(rewritten)
    return record
