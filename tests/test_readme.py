import importlib
import pkgutil
import re
from pathlib import Path

import orbitlab

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name for m in pkgutil.iter_modules(orbitlab.__path__)}

# a code span that opens with `module.name` or `orbitlab.module.name`, the
# name possibly dotted further (`BasisMap.gamma`) or followed by text
_REFERENCE = re.compile(r"`(?:orbitlab\.)?([a-z_]+)((?:\.[A-Za-z_]\w*)+)")


def _readme_references():
    """(module, dotted attribute path) of every such span in README.md."""
    return [(m.group(1), m.group(2).lstrip("."))
            for m in _REFERENCE.finditer(README.read_text())
            if m.group(1) in MODULES]


def test_readme_names_resolve():
    refs = _readme_references()
    assert len(refs) >= 20
    missing = []
    for module, path in refs:
        obj = importlib.import_module(f"orbitlab.{module}")
        try:
            for attr in path.split("."):
                obj = getattr(obj, attr)
        except AttributeError:
            missing.append(f"{module}.{path}")
    assert missing == []
