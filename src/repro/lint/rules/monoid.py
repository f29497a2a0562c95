"""RPR003 — monoid completeness: identity/merge pairs that cover every field.

The sharded runner and the sweep scheduler fold per-worker partials with
``identity()``/``merge()`` monoids (``RunResult``, ``UplinkStats``,
``DownlinkStats``, ``Counters``); byte-identical
"sharded == sequential" results hold only while every field participates
in the merge.  The regression this rule exists for: add a field to a
stats dataclass, forget to thread it through ``merge()``, and sharded
runs silently drop that field's contribution — nothing crashes, the
differential tests only catch it if a fixture happens to exercise the
new field.

Checks, on every class in ``src/``:

* A class defining ``identity()`` must define ``merge()`` and vice
  versa — half a monoid merges nowhere or cannot seed a fold.
* When the class declares its fields statically (``@dataclass`` or
  ``__slots__``), the body of ``merge()`` must reference every declared
  field by name.  Iterating ``dataclasses.fields(...)`` (or using
  ``asdict``/``astuple``/``__dict__``/``vars``) counts as referencing
  all of them — that is the future-proof spelling.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint import astutil
from repro.lint.engine import ModuleInfo
from repro.lint.model import Finding, Rule
from repro.lint.registry import register

CODE = "RPR003"
NAME = "monoid"

#: Any of these inside merge() means "every field, whatever they are".
_FIELD_WILDCARDS = {"fields", "asdict", "astuple", "__dict__", "vars"}


def _methods(node: ast.ClassDef) -> dict[str, ast.FunctionDef]:
    return {
        stmt.name: stmt
        for stmt in node.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _declared_fields(node: ast.ClassDef) -> list[str]:
    slots = astutil.slots_fields(node)
    if slots is not None:
        return slots
    if astutil.is_dataclass(node):
        return astutil.dataclass_fields(node)
    return []


class _Visitor(ast.NodeVisitor):
    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.findings: list[Finding] = []
        self.wildcards = _FIELD_WILDCARDS | astutil.field_wildcard_aliases(
            module.tree
        )

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append(
            Finding(
                rule=CODE,
                path=self.module.display,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0),
                message=message,
            )
        )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        methods = _methods(node)
        has_identity = "identity" in methods
        has_merge = "merge" in methods
        if has_identity and not has_merge:
            self._flag(
                node,
                f"class {node.name} defines identity() but no merge(); "
                "half a monoid cannot fold worker partials",
            )
        if has_merge and not has_identity:
            self._flag(
                node,
                f"class {node.name} defines merge() but no identity(); "
                "folds have nothing to start from (and the sharded runner "
                "assumes both)",
            )
        if has_merge:
            self._check_merge_coverage(node, methods["merge"])
        self.generic_visit(node)

    def _check_merge_coverage(
        self, cls: ast.ClassDef, merge: ast.FunctionDef
    ) -> None:
        declared = _declared_fields(cls)
        if not declared:
            return
        referenced = astutil.identifiers_in(merge)
        if referenced & self.wildcards:
            return
        missing = [name for name in declared if name not in referenced]
        if missing:
            self._flag(
                merge,
                f"{cls.name}.merge() never references field(s) "
                f"{', '.join(missing)} — a field was added without "
                "threading it through the merge (sharded runs would "
                "silently drop it); handle it or iterate "
                "dataclasses.fields(...)",
            )


def check(module: ModuleInfo) -> Iterator[Finding]:
    """Run the monoid-completeness checks over one module."""
    visitor = _Visitor(module)
    visitor.visit(module.tree)
    return iter(visitor.findings)


register(
    Rule(
        code=CODE,
        name=NAME,
        summary=(
            "identity()/merge() come in pairs, and merge() references every "
            "declared dataclass/__slots__ field"
        ),
        check=check,
    )
)
