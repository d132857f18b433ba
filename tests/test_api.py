"""An inventory of the package's settable values.

Every parameter with a default and every dataclass field with a default is a
value a caller may set or leave alone, and each one doubles what the tests
could have to cover.  The list below is written out by hand, so adding or
removing such a value takes a deliberate edit here.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "oschet"

SETTABLE = [
    "dirichlet.max_principle_check.n_samples",
    "dirichlet.regularity_bounds.n_samples",
    "dirichlet.residual_check.n_samples",
    "heteroclinic.LatticeProfile.symmetry",
    "heteroclinic.SolverOptions.max_iters",
    "heteroclinic.SolverOptions.tol",
    "heteroclinic._BoxProblem.__init__.mu",
    "heteroclinic.shoot_heteroclinic.horizon",
    "heteroclinic.shoot_heteroclinic.symmetry",
    "heteroclinic.shoot_heteroclinic.tol",
    "heteroclinic.solve_discrete_dirichlet.opts",
    "heteroclinic.solve_symmetric_bond.opts",
    "heteroclinic.solve_symmetric_node.opts",
    "potential.custom.dw",
    "potential.validate_double_well.grid_step",
    "quadrature.adaptive_simpson.tol",
    "sampled.SampledFunction.eval.extend",
    "sampled.SampledFunction.eval_array.extend",
    "sampled.snap_count.what",
]


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _field_has_default(value: ast.expr) -> bool:
    """A field(...) call sets a default only through default or default_factory."""
    if isinstance(value, ast.Call) and getattr(value.func, "id", None) == "field":
        return any(kw.arg in ("default", "default_factory") for kw in value.keywords)
    return True


def _settable(tree: ast.Module, module: str) -> list:
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                name = f"{prefix}.{child.name}"
                if _is_dataclass(child):
                    found.extend(
                        f"{name}.{st.target.id}"
                        for st in child.body
                        if isinstance(st, ast.AnnAssign)
                        and st.value is not None
                        and _field_has_default(st.value)
                    )
                visit(child, name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}.{child.name}"
                args = child.args
                positional = args.posonlyargs + args.args
                found.extend(
                    f"{name}.{a.arg}" for a in positional[len(positional) - len(args.defaults) :]
                )
                found.extend(
                    f"{name}.{a.arg}"
                    for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None
                )
                visit(child, name)
            else:
                visit(child, prefix)

    visit(tree, module)
    return found


def test_settable_values_are_the_listed_ones():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found.extend(_settable(ast.parse(path.read_text()), path.stem))
    assert sorted(found) == SETTABLE
