"""Static audits of `src/amnmodes` and of the tests' chain routes, read with
`ast` and never run.

A definition reaches every package name its code refers to, resolved
through its module's imports and its own (`from . import roots` in
`cli.cmd_verify`); annotations run no code and are skipped.  Reaching a
class reaches only its own `__init__` and `__post_init__`.  `self.x` and
`cls.x` resolve in the enclosing class, `module.x` and `Class.x` by name;
`value.x` on any other value reaches every instance method or property
named x.

Independence: the exact checks of `verify` never reach the route that
they check, nor the predicted roots where they must find them.

The reference routes that read a pair chain, `system_polynomials`,
`evaluate_pairs` and `reference_root_solutions` of `tests/reference.py`,
never name the production chain `coefficient_polynomials`, and no test
hands them pairs made by it: they run on the matrix chain's pairs.

Reachability: every function, class, method and module-level name is
reached from `cli.main`, whose parser names each command through
`set_defaults(func=...)`, or from a name the bench harness calls: the
`SPANNED` and `AGGREGATED` names of `perfbench/tracer.py` and the
package calls of `perfbench/worker.py`.  Five are reached from the
harness alone, and ROADMAP plans to remove them with a change to
`perfbench/`: `fields._sigma_d`, `fields.weyl_dirac_residual`,
`fields.ZeroModeField.vector_potential`, `fields.ZeroModeField.designated`
and `fields.l2_norm_squared`.

Imports: no module but `cli` imports inside a function, so `cli` alone
decides which command loads numpy, and no stage time that a report gives
includes an import.
"""

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "amnmodes"
TESTS = ROOT / "tests"
PERFBENCH = ROOT / "perfbench"

HARNESS_ONLY = {
    "fields._sigma_d",
    "fields.weyl_dirac_residual",
    "fields.ZeroModeField.vector_potential",
    "fields.ZeroModeField.designated",
    "fields.l2_norm_squared",
}
EXEMPT = {"__init__.__version__"}
CHAIN_ROUTES = ("system_polynomials", "evaluate_pairs", "reference_root_solutions")


def code(node):
    """`node` and every node below it, annotations left out."""
    yield node
    for field, value in ast.iter_fields(node):
        if field not in ("annotation", "returns"):
            for child in value if isinstance(value, list) else [value]:
                if isinstance(child, ast.AST):
                    yield from code(child)


def package_imports(nodes) -> dict:
    """The local names that the `from ... import` statements among `nodes`
    bind to package names: `from . import roots` binds roots to "roots",
    `from amnmodes.fields import sample_grid` binds sample_grid to
    "fields.sample_grid"."""
    bound = {}
    for node in nodes:
        if not isinstance(node, ast.ImportFrom):
            continue
        source = node.module or ""
        if not node.level:
            if source.split(".")[0] != "amnmodes":
                continue
            source = source.removeprefix("amnmodes").lstrip(".")
        for alias in node.names:
            bound[alias.asname or alias.name] = f"{source}.{alias.name}".lstrip(".")
    return bound


class Package:
    """The definitions of a package directory and the names each reaches."""

    def __init__(self, src: Path):
        self.modules = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
        self.defs = {}  # "module.name" or "module.Class.method" -> (module, node, class or None)
        self.members = {}  # instance method or property name -> its "module.Class.name"s
        self.scopes = {}
        for module, tree in self.modules.items():
            for node in tree.body:
                if isinstance(node, (ast.Assign, ast.AnnAssign)):
                    for target in code(node):
                        if isinstance(target, ast.Name) and isinstance(target.ctx, ast.Store):
                            self.defs[f"{module}.{target.id}"] = (module, node, None)
                elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    self.defs[f"{module}.{node.name}"] = (module, node, None)
                    for item in node.body if isinstance(node, ast.ClassDef) else ():
                        if isinstance(item, ast.FunctionDef):
                            name = f"{module}.{node.name}.{item.name}"
                            self.defs[name] = (module, item, f"{module}.{node.name}")
                            bound = {d.id for d in item.decorator_list if isinstance(d, ast.Name)}
                            if not bound & {"classmethod", "staticmethod"}:
                                self.members.setdefault(item.name, []).append(name)
            own = {name.split(".")[1]: name for name in self.defs
                   if name.startswith(f"{module}.") and name.count(".") == 1}
            self.scopes[module] = {**package_imports(tree.body), **own}

    def _target(self, expr, scope: dict, owner):
        """The package name that a Name or a chain of attributes stands for, or None."""
        if isinstance(expr, ast.Name):
            return owner if expr.id in ("self", "cls") else scope.get(expr.id)
        if isinstance(expr, ast.Attribute):
            base = self._target(expr.value, scope, owner)
            if base in self.modules or f"{base}.{expr.attr}" in self.defs:
                return f"{base}.{expr.attr}"
        return None

    def edges(self, name: str) -> set:
        """The definitions that `name`'s own code refers to."""
        module, node, owner = self.defs[name]
        if isinstance(node, ast.ClassDef):
            return {f"{name}.{init}" for init in ("__init__", "__post_init__")} & set(self.defs)
        body = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else node
        scope = {**self.scopes[module], **package_imports(code(body))}
        out = set()
        for n in code(body):
            if isinstance(n, ast.Name) and n.id != "self":
                out.add(self._target(n, scope, owner))
            elif isinstance(n, ast.Attribute):
                target = self._target(n, scope, owner)
                if target is None and self._target(n.value, scope, owner) is None:
                    out.update(self.members.get(n.attr, ()))
                out.add(target)
        return out & set(self.defs)

    def reach(self, *names: str) -> set:
        """`names` and every definition reached from them."""
        missing = set(names) - set(self.defs)
        assert not missing, f"no such definition: {sorted(missing)}"
        seen, todo = set(), list(names)
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(self.edges(name))
        return seen


@pytest.fixture(scope="module")
def package():
    return Package(SRC)


def harness_names(monkeypatch) -> set:
    """The package names the bench harness calls: the tracer's spanned and
    aggregated names, and the attribute chains of worker.py on the modules
    it imports from the package."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    worker = ast.parse((PERFBENCH / "worker.py").read_text())
    imported = package_imports(worker.body)

    def chain(expr):
        if isinstance(expr, ast.Name):
            return imported.get(expr.id)
        base = chain(expr.value) if isinstance(expr, ast.Attribute) else None
        return base and f"{base}.{expr.attr}"

    calls = {chain(n) for n in ast.walk(worker) if isinstance(n, ast.Attribute)}
    return {*tracer.SPANNED, *tracer.AGGREGATED, *(c for c in calls if c and "." in c)}


@pytest.mark.parametrize("check, forbidden", [
    ("roots.rational_root_oracle",
     ["roots.predicted_roots", "recurrence.family_b0", "recurrence.closed_form_extremes",
      "recurrence.coefficient_polynomials", "recurrence.build_amn_polynomial"]),
    ("roots.check_root_solutions", ["recurrence.build_amn_polynomial", "roots.rational_root_oracle"]),
    ("roots.verify_factorization", ["roots.rational_root_oracle", "recurrence.coefficient_polynomials"]),
    ("recurrence.root_theorem_failures",
     ["recurrence.build_amn_polynomial", "recurrence.coefficient_polynomials", "roots.predicted_roots"]),
], ids=["oracle", "system", "factorization", "certificate"])
def test_checks_stay_independent(package, check, forbidden):
    assert package.reach(check) & set(forbidden) == set()


def test_oracle_reach_is_resolved(package):
    # the audit follows imports: the oracle reaches its kernel through
    # `from .polynomials import ...`
    reached = package.reach("roots.rational_root_oracle")
    assert {"roots._lift", "roots.root_product", "polynomials.times_linear",
            "polynomials.IntPoly.__post_init__"} <= reached
    # and the local `from . import roots` of the verify command
    assert "roots.rational_root_oracle" in package.reach("cli.cmd_verify")


def test_src_imports_no_test_module(package):
    for module, tree in package.modules.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                parts = {p for name in names for p in name.split(".")}
                assert not any(p in ("reference", "tests") or p.startswith("test_") for p in parts), (
                    module, ast.unparse(node))


def test_only_cli_imports_inside_a_function(package):
    """`cli` alone decides, command by command, which modules a request loads."""
    for module, tree in package.modules.items():
        if module != "cli":
            functions = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
            imports = [n for f in functions for n in ast.walk(f)
                       if isinstance(n, (ast.Import, ast.ImportFrom))]
            assert not imports, (module, [ast.unparse(n) for n in imports])


def test_src_holds_only_what_a_request_or_the_bench_runs(package, monkeypatch):
    requests = package.reach("cli.main")
    bench = package.reach(*harness_names(monkeypatch))
    assert set(package.defs) - requests - bench - EXEMPT == set()
    assert bench - requests == HARNESS_ONLY


def named(node) -> set:
    """The identifiers that `node` names, as variables or as attributes."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def test_chain_routes_never_name_the_production_chain():
    tree = ast.parse((TESTS / "reference.py").read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    for route in CHAIN_ROUTES:
        seen, todo = set(), [route]  # the route and the reference.py definitions it reaches
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo += named(defs[name]) & set(defs)
        assert "coefficient_polynomials" not in set().union(*map(named, map(defs.get, seen))), route


def test_chain_routes_get_no_production_pairs():
    """No call of a chain route passes an argument that names
    `coefficient_polynomials`, or a name its module assigns from one."""
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text())
        assigned = {}  # local name -> what the values assigned to it name
        for node in ast.walk(tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.For)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                value = node.iter if isinstance(node, ast.For) else node.value
                for name in (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)):
                    assigned.setdefault(name, set()).update(named(value) if value else ())
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and named(call.func) & set(CHAIN_ROUTES):
                for arg in [*call.args, *(k.value for k in call.keywords)]:
                    reads = named(arg).union(*(assigned.get(n, ()) for n in named(arg)))
                    assert "coefficient_polynomials" not in reads, (path.name, call.lineno)
