"""The doc snippets bind to the real signatures.

Every ```` ```python ```` block in ``README.md`` and ``docs/*.md`` is
parsed (not run: snippets lean on frames and calls the prose around
them defines), and each call to a serving constructor, options record
or the call scheduler is bound against the callee's real signature
with ``inspect.signature(...).bind_partial`` -- a keyword the code
does not take fails here instead of in a reader's terminal.
"""

import ast
import inspect
import re
import textwrap
from pathlib import Path

import pytest

from repro.api import (AdmissionPolicy, EnginePool, EngineService,
                       ServicePolicy, SubmitOptions, TenantPolicy)
from repro.host import CallScheduler
from repro.service import AdmissionController, MicroBatcher, RequestQueue

ROOT = Path(__file__).resolve().parents[2]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

#: Callee as spelled in a snippet -> the callable its call must bind to.
CALLEES = {
    "EngineService": EngineService,
    "EnginePool.of_engines": EnginePool.of_engines,
    "ServicePolicy": ServicePolicy,
    "TenantPolicy": TenantPolicy,
    "AdmissionPolicy": AdmissionPolicy,
    "SubmitOptions": SubmitOptions,
    "RequestQueue": RequestQueue,
    "MicroBatcher": MicroBatcher,
    "AdmissionController": AdmissionController,
    "CallScheduler": CallScheduler,
}

_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _snippets():
    for doc in DOCS:
        blocks = _BLOCK.findall(doc.read_text(encoding="utf-8"))
        for index, source in enumerate(blocks):
            yield pytest.param(source, id=f"{doc.name}-{index}")


def _parse(source):
    """The snippet's AST; one with top-level ``await``/``async with``
    is wrapped in an ``async def`` so it parses."""
    source = textwrap.dedent(source)
    try:
        return ast.parse(source)
    except SyntaxError:
        return ast.parse("async def _snippet():\n"
                         + textwrap.indent(source, "    "))


def _callee(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and isinstance(func.value,
                                                      ast.Name):
        return f"{func.value.id}.{func.attr}"
    return None


def _checked_calls(source):
    """(call node, callable) for every checked call in one snippet."""
    for node in ast.walk(_parse(source)):
        if isinstance(node, ast.Call):
            target = CALLEES.get(_callee(node.func))
            if target is not None:
                yield node, target


@pytest.mark.parametrize("source", _snippets())
def test_snippet_calls_bind_to_real_signatures(source):
    for node, target in _checked_calls(source):
        positional = [None] * sum(not isinstance(arg, ast.Starred)
                                  for arg in node.args)
        keywords = {kw.arg: None for kw in node.keywords
                    if kw.arg is not None}
        try:
            inspect.signature(target).bind_partial(*positional,
                                                   **keywords)
        except TypeError as exc:
            pytest.fail(f"line {node.lineno}: {ast.unparse(node)}: "
                        f"{exc}")


def test_snippets_reach_the_serving_entry_points():
    """Guards the parse itself: the docs' snippets do construct the
    service, its pool, its policy and per-request options."""
    seen = {_callee(node.func)
            for param in _snippets()
            for node, _ in _checked_calls(param.values[0])}
    assert {"EngineService", "EnginePool.of_engines", "ServicePolicy",
            "SubmitOptions"} <= seen
