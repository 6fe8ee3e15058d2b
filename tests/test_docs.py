"""README.md names code as `module.name`; every such name must exist, so a
renamed or deleted function, constant or file cannot linger in the docs."""

import importlib
import pathlib
import pkgutil
import re

import sterngf

PACKAGE = pathlib.Path(sterngf.__file__).parent
README = PACKAGE.parents[1] / "README.md"
MODULES = {info.name for info in pkgutil.iter_modules(sterngf.__path__)}


def readme_references() -> list[tuple[str, str]]:
    """(module, name) for each backticked span of README.md, outside its
    fenced blocks, that starts with a sterngf module name and a dot."""
    prose = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    spans = re.findall(r"`([^`]+)`", prose)
    refs = [re.match(r"(\w+)\.(\w+)", span) for span in spans]
    return [m.groups() for m in refs if m and m.group(1) in MODULES]


def test_readme_module_references_resolve():
    refs = readme_references()
    assert len(refs) > 10
    missing = [f"{mod}.{name}" for mod, name in refs
               if not (name == "py" and (PACKAGE / f"{mod}.py").is_file()
                       or hasattr(importlib.import_module(f"sterngf.{mod}"), name))]
    assert missing == []
