import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "orbitlab"


def _function_level_relative_imports():
    """(module.function, imported module) for every relative import inside a
    function body of the package."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.ImportFrom) and node.level > 0:
                    found.add((f"{path.stem}.{fn.name}", node.module))
    return found


def test_only_cycle_breaking_imports_sit_inside_functions():
    """Module-level imports everywhere else.  The two that stay break import
    cycles: operators imports basis, and polynet imports schedule."""
    assert _function_level_relative_imports() == {
        ("basis.measure_frame_constant", "operators"),
        ("schedule._parse_poly_list", "polynet"),
    }
