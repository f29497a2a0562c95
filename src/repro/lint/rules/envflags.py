"""RPR002 — env-flag discipline: call-time reads through one accessor layer.

Two regression classes motivate this rule (both shipped, both fixed by
hand):

* **Import-time reads.**  A boolean ``REPRO_*`` switch was once read at
  module import, so exporting it *after* ``import repro`` was silently
  ignored.  Any ``os.environ``/``os.getenv`` read at module scope —
  whatever the variable — is flagged: module bodies run once, at import,
  which freezes the environment into the process.

* **Scattered ad-hoc parsing.**  Before ``repro.perf.env_flag``, setting
  that switch to ``FALSE`` *enabled* it because the local parser only
  recognized ``0/false/no``.  Every ``REPRO_*`` read must
  therefore go through the registered accessor modules
  (:data:`ACCESSOR_MODULES`) — ``repro.perf`` for booleans and counts,
  the codec registry/toolchain and store-backend accessors for their own
  variables — so parsing rules stay centralized.  Indirecting the
  variable name through a module-level string constant does not evade
  the check.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint import astutil
from repro.lint.engine import ModuleInfo
from repro.lint.model import Finding, Rule
from repro.lint.registry import register

CODE = "RPR002"
NAME = "envflags"

#: Modules allowed to read ``REPRO_*`` directly (at call time): these ARE
#: the accessor layer every other module must go through.  Matching is on
#: trailing path components.  Growing this list is a reviewed code change,
#: which is the point.
ACCESSOR_MODULES: tuple[tuple[str, ...], ...] = (
    ("repro", "perf.py"),
    ("repro", "codec", "registry.py"),
    ("repro", "codec", "_ckernels.py"),
    ("repro", "store", "backend.py"),
    ("repro", "imagery", "sensor.py"),
)

#: Dotted callee names that read the environment.
_ENV_GETTERS = {"os.environ.get", "os.getenv", "environ.get", "getenv"}


def _is_accessor_module(module: ModuleInfo) -> bool:
    parts = module.path.parts
    return any(
        parts[-len(suffix):] == suffix for suffix in ACCESSOR_MODULES
    )


def _env_var_name(
    node: ast.expr | None, constants: dict[str, str]
) -> str | None:
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Name):
        return constants.get(node.id)
    return None


class _Visitor(ast.NodeVisitor):
    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.findings: list[Finding] = []
        self.constants = astutil.string_constants(module.tree)
        self.is_accessor = _is_accessor_module(module)
        self._depth = 0  # nesting inside function/lambda scopes

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

    def _enter_function(self, node: ast.AST) -> None:
        self._depth += 1
        self.generic_visit(node)
        self._depth -= 1

    visit_FunctionDef = _enter_function
    visit_AsyncFunctionDef = _enter_function
    visit_Lambda = _enter_function

    def _check_read(self, node: ast.AST, name_node: ast.expr | None) -> None:
        var = _env_var_name(name_node, self.constants)
        if self._depth == 0:
            shown = var or "the environment"
            self._flag(
                node,
                f"module-scope read of {shown}: import-time environment "
                "reads freeze the variable into the process — read at call "
                "time through repro.perf (env_flag) or a registered accessor",
            )
            return
        if (
            var is not None
            and var.startswith("REPRO_")
            and not self.is_accessor
        ):
            self._flag(
                node,
                f"direct read of {var}: REPRO_* variables must go through "
                "repro.perf.env_flag or a registered accessor so parsing "
                "stays centralized (see repro.lint.rules.envflags."
                "ACCESSOR_MODULES)",
            )

    def visit_Call(self, node: ast.Call) -> None:
        name = astutil.call_name(node)
        if name in _ENV_GETTERS:
            self._check_read(node, node.args[0] if node.args else None)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        # os.environ["X"] reads; stores/deletes (os.environ["X"] = ...)
        # configure child processes and are allowed.
        if isinstance(node.ctx, ast.Load):
            base = astutil.dotted_name(node.value)
            if base in ("os.environ", "environ"):
                self._check_read(node, node.slice)
        self.generic_visit(node)

    def visit_Compare(self, node: ast.Compare) -> None:
        # "REPRO_X" in os.environ is still an environment read.
        for op, comparator in zip(node.ops, node.comparators):
            if isinstance(op, (ast.In, ast.NotIn)):
                base = astutil.dotted_name(comparator)
                if base in ("os.environ", "environ"):
                    self._check_read(node, node.left)
        self.generic_visit(node)


def check(module: ModuleInfo) -> Iterator[Finding]:
    """Run the env-flag discipline checks over one module."""
    visitor = _Visitor(module)
    visitor.visit(module.tree)
    return iter(visitor.findings)


register(
    Rule(
        code=CODE,
        name=NAME,
        summary=(
            "no import-time environment reads; REPRO_* reads only through "
            "repro.perf.env_flag / registered accessor modules"
        ),
        check=check,
    )
)
