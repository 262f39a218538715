"""The library layout: each public name is imported from its own module."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import axisphere
from axisphere import errors


def test_every_listed_name_belongs_to_its_module():
    """A name in a module's ``__all__`` is defined there, so it has one import path."""
    for info in pkgutil.iter_modules(axisphere.__path__):
        mod = importlib.import_module(f"axisphere.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert getattr(mod, name).__module__ == mod.__name__, (mod.__name__, name)


def _raised_or_caught(tree: ast.AST) -> set[str]:
    """Names in ``raise Name(...)``, ``raise Name`` and ``except`` clauses, bare or in a tuple."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exprs = [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            exprs = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
        else:
            continue
        names.update(e.id for e in exprs if isinstance(e, ast.Name))
    return names


def test_every_error_class_is_raised_or_caught_in_the_library():
    """Each error class is raised or caught by name in the library, or is a base of one that is: none is test-only."""
    used = set()
    for path in Path(axisphere.__file__).parent.glob("*.py"):
        used |= _raised_or_caught(ast.parse(path.read_text()))
    classes = {name: cls for name, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.AxisphereError)}
    assert len(classes) == 11
    for name, cls in classes.items():
        assert any(issubclass(classes[u], cls) for u in used & classes.keys()), name


def _calls(name: str):
    """(module, enclosing function, call node) for each call of ``name`` in the library, bare or as an attribute."""
    calls = []
    for path in sorted(Path(axisphere.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                calls += [(path.stem, fn.name, node) for node in ast.walk(fn) if isinstance(node, ast.Call)
                          and getattr(node.func, "id", getattr(node.func, "attr", None)) == name]
    return calls


def _negated(node: ast.Call) -> bool:
    """Whether the call's coupling, its second argument, is written as -x."""
    coupling = node.args[1] if len(node.args) > 1 else next(k.value for k in node.keywords if k.arg == "gamma")
    return isinstance(coupling, ast.UnaryOp) and isinstance(coupling.op, ast.USub)


def test_the_criticality_sign_has_one_owner():
    """Only ``criticality._critical_frame`` negates the coupling for ``_frame_hessian``; the solver and the gate call it."""
    frame_calls = _calls("_frame_hessian")
    assert [(mod, fn) for mod, fn, node in frame_calls if _negated(node)] == [("criticality", "_critical_frame")]
    owners = {(mod, fn) for mod, fn, _ in _calls("_critical_frame")}
    for site in (("criticality", "solve_critical"), ("stability", "assemble_J")):
        assert site in owners and site not in {(mod, fn) for mod, fn, _ in frame_calls}, site


def test_the_residual_rows_have_one_owner():
    """``kappa_g`` is called only where the rows' parts and the multipliers are built; ``v_diff`` also in verify's quadrature oracle."""
    assert {(mod, fn) for mod, fn, _ in _calls("kappa_g")} == {("criticality", "_row_parts"),
                                                               ("criticality", "lambda_values")}
    assert {(mod, fn) for mod, fn, _ in _calls("v_diff")} == {("criticality", "_row_parts"), ("verify", "run_verify")}


def test_the_kernel_has_one_closed_form():
    """The library has no chord-form kernel; ``_kernel`` serves the assembly, the two-cap identity and verify."""
    for path in Path(axisphere.__file__).parent.glob("*.py"):
        assert "fourier_log_integral" not in path.read_text(), path.name
    assert {(mod, fn) for mod, fn, _ in _calls("_kernel")} == {("stability", "assemble_J"),
                                                              ("stability", "doublecap_kernel_integral"),
                                                              ("verify", "run_verify")}


def _numpy_sites() -> set[tuple[str, str]]:
    """(module, place) of each numpy import in the library: its function, ``TYPE_CHECKING`` or ``<module>``."""
    sites = set()

    def visit(module: str, node: ast.AST, place: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import) and any(a.name.split(".")[0] == "numpy" for a in child.names) or (
                    isinstance(child, ast.ImportFrom) and (child.module or "").split(".")[0] == "numpy"):
                sites.add((module, place))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(module, child, child.name)
            elif isinstance(child, ast.If) and getattr(child.test, "id", None) == "TYPE_CHECKING":
                visit(module, child, "TYPE_CHECKING")
            else:
                visit(module, child, place)

    for path in sorted(Path(axisphere.__file__).parent.glob("*.py")):
        visit(path.stem, ast.parse(path.read_text()), "<module>")
    return sites


def test_numpy_is_imported_only_where_arrays_are_the_data():
    """Module-wide in the array modules; elsewhere only inside the functions whose inputs or outputs are arrays."""
    assert _numpy_sites() == {
        ("stability", "<module>"),
        ("verify", "<module>"),
        ("quadrature", "_rules"),
        ("quadrature", "_panel_estimate"),
        ("quadrature", "TYPE_CHECKING"),
    }
