"""The names the docs cite exist.

Every backticked ``module.name`` in docs/math_to_code.md and the README
must resolve: ``module`` a confgames submodule, the package itself
(``confgames`` or its README alias ``cg``), or a class the package
exports.  Every ``test_*.py::TestX`` they cite must be a test class in
that file.
"""

import dataclasses
import importlib
import pathlib
import pkgutil
import re

import confgames

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = (ROOT / "docs" / "math_to_code.md", ROOT / "README.md")
SUBMODULES = {m.name for m in pkgutil.iter_modules(confgames.__path__)}
SPAN = re.compile(r"`([^`]+)`")
QUALIFIED = re.compile(r"([A-Za-z_]\w*)\.([A-Za-z_]\w*)")
CITED_TEST = re.compile(r"(test_\w+\.py)::(Test\w+)")


def _spans():
    for doc in DOCS:
        for span in SPAN.findall(doc.read_text(encoding="utf-8")):
            yield doc.name, span


def _owner(prefix):
    if prefix in ("confgames", "cg"):
        return confgames
    if prefix in SUBMODULES:
        return importlib.import_module(f"confgames.{prefix}")
    exported = getattr(confgames, prefix, None)
    return exported if isinstance(exported, type) else None


def _resolves(owner, name):
    if hasattr(owner, name):
        return True
    if owner is confgames:
        return name in SUBMODULES
    return dataclasses.is_dataclass(owner) and name in {f.name for f in dataclasses.fields(owner)}


def test_cited_names_resolve():
    missing, checked = [], 0
    for doc, span in _spans():
        match = QUALIFIED.match(span)
        owner = _owner(match.group(1)) if match else None
        if owner is None:
            continue
        checked += 1
        if not _resolves(owner, match.group(2)):
            missing.append(f"{doc}: `{span}`")
    assert checked > 40
    assert not missing, missing


def test_cited_test_classes_exist():
    missing, checked = [], 0
    for doc, span in _spans():
        for path, cls in CITED_TEST.findall(span):
            checked += 1
            source = ROOT / "tests" / path
            if not (source.exists()
                    and re.search(rf"^class {cls}\b", source.read_text(encoding="utf-8"), re.M)):
                missing.append(f"{doc}: {path}::{cls}")
    assert checked > 5
    assert not missing, missing
