"""Call graph construction, queries and incremental maintenance.

The exploration framework updates the call graph after each committed merge
(Figure 7 of the paper).  The thunk machinery uses it to find all direct call
sites of the original functions and to detect address-taken functions.

Historically every merge triggered full :meth:`CallGraph.rebuild` scans -
O(module) work per commit, three times per merge (twice inside
``apply_merge``, once in the engine).  The graph now supports *incremental*
maintenance: bodies are registered/unregistered instruction by instruction
with reference-counted edges and address-taken counts, so a commit only
touches the functions a merge actually changed.  Two passes maintain the
graph this way: the FMSA commit path (``core/thunks.py:apply_merge``) and
the Identical pre-merge, whose folds (``IdenticalFunctionMergingPass._fold``)
redirect call sites and delete or thunk duplicates against one graph built
at the first fold (none without folds).  ``rebuild()`` remains available
and is the reference semantics: after any sequence of incremental updates
the graph is element-wise equal to a freshly built one (the engine's and
the Identical pass's test suites assert this after every commit and every
fold).  Dead-function elimination reads ``Function.users`` instead.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from .function import Function
from .instructions import Instruction
from .module import Module


class CallGraph:
    """Direct-call graph of a module.

    Only direct calls (``call``/``invoke`` whose callee operand is a
    :class:`Function`) create edges.  Functions whose value appears as a
    non-callee operand anywhere are flagged as *address taken*, which makes
    them ineligible for removal after merging.
    """

    def __init__(self, module: Module):
        self.module = module
        self.callees: Dict[str, Set[str]] = {}
        self.callers: Dict[str, Set[str]] = {}
        self.call_sites: Dict[str, List[Instruction]] = {}
        self.address_taken: Set[str] = set()
        #: Reference counts backing the incremental updates: how many live
        #: call sites realise each (caller, callee) edge, and how many live
        #: non-callee operand references take each function's address.
        self._edge_counts: Dict[Tuple[str, str], int] = {}
        self._address_counts: Dict[str, int] = {}
        self.rebuild()

    # -- full reconstruction (reference semantics) ------------------------------
    def rebuild(self) -> None:
        self.callees = {f.name: set() for f in self.module.functions}
        self.callers = {f.name: set() for f in self.module.functions}
        self.call_sites = {f.name: [] for f in self.module.functions}
        self.address_taken = set()
        self._edge_counts = {}
        self._address_counts = {}
        for function in self.module.functions:
            self._register_body(function)

    # -- incremental maintenance -------------------------------------------------
    def _ensure_node(self, name: str) -> None:
        self.callees.setdefault(name, set())
        self.callers.setdefault(name, set())
        self.call_sites.setdefault(name, [])

    def add_function(self, function: Function) -> None:
        """Register a function newly added to the module (node + body)."""
        self._ensure_node(function.name)
        self._register_body(function)

    def remove_function(self, function: Function) -> None:
        """Unregister a function about to be removed from the module.

        Must be called while the body is still intact (before
        ``Module.remove_function`` / ``drop_body``).
        """
        self._unregister_body(function)
        name = function.name
        self.callees.pop(name, None)
        self.callers.pop(name, None)
        self.call_sites.pop(name, None)

    def register_body(self, function: Function) -> None:
        """Account every instruction of ``function`` (e.g. after a body was
        rebuilt as a thunk)."""
        self._ensure_node(function.name)
        self._register_body(function)

    def unregister_body(self, function: Function) -> None:
        """Remove every instruction of ``function`` from the graph's counts;
        call *before* mutating or dropping the body."""
        self._unregister_body(function)

    def register_instruction(self, caller_name: str, inst: Instruction) -> None:
        """Account one newly inserted instruction of ``caller_name``."""
        self._scan_instruction(caller_name, inst, add=True)

    def unregister_instruction(self, caller_name: str, inst: Instruction) -> None:
        """Remove one (possibly already erased) instruction from the counts.
        The instruction's operand list must still be intact."""
        self._scan_instruction(caller_name, inst, add=False)

    def _register_body(self, function: Function) -> None:
        for inst in function.instructions():
            self._scan_instruction(function.name, inst, add=True)

    def _unregister_body(self, function: Function) -> None:
        for inst in function.instructions():
            self._scan_instruction(function.name, inst, add=False)

    def _scan_instruction(self, caller_name: str, inst: Instruction,
                          add: bool) -> None:
        """Mirror of the per-instruction logic of :meth:`rebuild`, applied as
        +1/-1 reference-count deltas."""
        if inst.opcode in ("call", "invoke"):
            callee = inst.operands[0]
            if isinstance(callee, Function):
                if add:
                    self._add_edge(caller_name, callee.name, inst)
                else:
                    self._drop_edge(caller_name, callee.name, inst)
                extra_operands = inst.operands[1:]
            else:
                extra_operands = inst.operands
            for op in extra_operands:
                if isinstance(op, Function):
                    self._count_address(op, +1 if add else -1)
        else:
            for op in inst.operands:
                if isinstance(op, Function):
                    self._count_address(op, +1 if add else -1)

    def _add_edge(self, caller: str, callee: str, site: Instruction) -> None:
        key = (caller, callee)
        count = self._edge_counts.get(key, 0)
        self._edge_counts[key] = count + 1
        if count == 0:
            self.callees.setdefault(caller, set()).add(callee)
            self.callers.setdefault(callee, set()).add(caller)
        self.call_sites.setdefault(callee, []).append(site)

    def _drop_edge(self, caller: str, callee: str, site: Instruction) -> None:
        key = (caller, callee)
        count = self._edge_counts.get(key, 0) - 1
        if count <= 0:
            self._edge_counts.pop(key, None)
            callees = self.callees.get(caller)
            if callees is not None:
                callees.discard(callee)
            callers = self.callers.get(callee)
            if callers is not None:
                callers.discard(caller)
        else:
            self._edge_counts[key] = count
        sites = self.call_sites.get(callee)
        if sites is not None:
            for index, existing in enumerate(sites):
                if existing is site:
                    del sites[index]
                    break

    def _count_address(self, function: Function, delta: int) -> None:
        name = function.name
        count = self._address_counts.get(name, 0) + delta
        if count <= 0:
            self._address_counts.pop(name, None)
            self.address_taken.discard(name)
        else:
            self._address_counts[name] = count
            self.address_taken.add(name)
            # the sticky per-function flag matches rebuild(), which sets it
            # for current takers and never clears it
            function.address_taken = True

    # -- queries -----------------------------------------------------------------
    def callees_of(self, function: Function) -> List[Function]:
        return [self.module.get_function(n) for n in sorted(self.callees.get(function.name, ()))
                if self.module.get_function(n) is not None]

    def callers_of(self, function: Function) -> List[Function]:
        return [self.module.get_function(n) for n in sorted(self.callers.get(function.name, ()))
                if self.module.get_function(n) is not None]

    def direct_call_sites(self, function: Function) -> List[Instruction]:
        """All call/invoke instructions in the module that directly call
        ``function`` and are still attached to a block."""
        return [site for site in self.call_sites.get(function.name, [])
                if site.parent is not None]

    def is_address_taken(self, function: Function) -> bool:
        return function.name in self.address_taken

    def is_leaf(self, function: Function) -> bool:
        return not self.callees.get(function.name)

    def is_dead(self, function: Function) -> bool:
        """True when an internal, non-address-taken function has no callers."""
        return (function.linkage == "internal"
                and not self.is_address_taken(function)
                and not self.callers.get(function.name))
