"""Modules: top-level containers of functions and global variables."""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from . import types as ty
from .function import Function
from .values import Constant, GlobalVariable


class Module:
    """A translation unit (or, under LTO, the whole program)."""

    def __init__(self, name: str = "module"):
        self.name = name
        self._functions: Dict[str, Function] = {}
        self._globals: Dict[str, GlobalVariable] = {}

    # -- functions -------------------------------------------------------------
    @property
    def functions(self) -> List[Function]:
        return list(self._functions.values())

    def add_function(self, function: Function) -> Function:
        if function.name in self._functions:
            raise ValueError(f"duplicate function name: {function.name}")
        function.module = self
        self._functions[function.name] = function
        return function

    def create_function(self, name: str, function_type: ty.FunctionType,
                        linkage: str = "internal",
                        arg_names: Optional[List[str]] = None) -> Function:
        return self.add_function(Function(name, function_type, self, linkage, arg_names))

    def get_function(self, name: str) -> Optional[Function]:
        return self._functions.get(name)

    def remove_function(self, function: Function) -> None:
        function.drop_body()
        self._functions.pop(function.name, None)
        function.module = None

    def rename_function(self, function: Function, new_name: str) -> None:
        if new_name in self._functions:
            raise ValueError(f"duplicate function name: {new_name}")
        self._functions.pop(function.name, None)
        function.name = new_name
        self._functions[new_name] = function

    def defined_functions(self) -> List[Function]:
        return [f for f in self.functions if not f.is_declaration]

    def declarations(self) -> List[Function]:
        return [f for f in self.functions if f.is_declaration]

    # -- globals ---------------------------------------------------------------
    @property
    def globals(self) -> List[GlobalVariable]:
        return list(self._globals.values())

    def add_global(self, name: str, content_type: ty.Type,
                   initializer: Optional[Constant] = None,
                   is_constant: bool = False) -> GlobalVariable:
        if name in self._globals:
            raise ValueError(f"duplicate global name: {name}")
        gv = GlobalVariable(name, content_type, initializer, is_constant)
        self._globals[name] = gv
        return gv

    def get_global(self, name: str) -> Optional[GlobalVariable]:
        return self._globals.get(name)

    # -- misc --------------------------------------------------------------------
    def unique_name(self, base: str) -> str:
        """Return a function name not currently used in the module."""
        if base not in self._functions:
            return base
        i = 1
        while f"{base}.{i}" in self._functions:
            i += 1
        return f"{base}.{i}"

    def instruction_count(self) -> int:
        return sum(f.instruction_count() for f in self.functions)

    def __iter__(self) -> Iterator[Function]:
        return iter(self.functions)

    def __str__(self) -> str:
        from .printer import module_to_str
        return module_to_str(self)
