"""Execution substrate: memory map, IR interpreter, tamper injection."""

from .interpreter import (
    Interpreter,
    InterpreterError,
    LazyTamper,
    RunResult,
    RunStatus,
    TamperSpec,
)
from .state import FrameLayout, GLOBAL_BASE, MemoryMap, STACK_BASE, layout_frame

__all__ = [
    "FrameLayout",
    "GLOBAL_BASE",
    "Interpreter",
    "InterpreterError",
    "LazyTamper",
    "MemoryMap",
    "RunResult",
    "RunStatus",
    "STACK_BASE",
    "TamperSpec",
    "layout_frame",
]
