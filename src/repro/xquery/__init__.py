"""A from-scratch XQuery 1.0 engine with XQUF updates and the XRPC extension.

This package implements the substrate the paper assumes: a working XQuery
processor.  It contains a lexer, a recursive-descent parser producing an
AST (:mod:`repro.xquery.xast`), static/dynamic evaluation contexts, a
builtin function library, a module system, and a tree-walking evaluator.

The XRPC language extension of the paper —
``execute at { Expr } { FunctionCall }`` — is parsed as a primary
expression and evaluated through a pluggable handler installed by the
RPC layer (:mod:`repro.rpc`).
"""

from repro.xquery.parser import parse_main_module, parse_library_module
from repro.xquery.context import (StaticContext, DynamicContext,
                                  ExecutionContext, XRPC_NS, FN_NS, XS_NS)
from repro.xquery.evaluator import CompiledQuery, Evaluator
from repro.xquery.modules import Module, ModuleRegistry

__all__ = [
    "parse_main_module",
    "parse_library_module",
    "StaticContext",
    "DynamicContext",
    "ExecutionContext",
    "CompiledQuery",
    "Evaluator",
    "Module",
    "ModuleRegistry",
    "XRPC_NS",
    "FN_NS",
    "XS_NS",
]
