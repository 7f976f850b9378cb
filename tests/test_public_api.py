"""Each module's ``__all__`` is exact: every listed name resolves, and
every public class or function the module defines is listed.  The census
tests below hold the public surface of ``src/`` to its callers outside
the tests: defaulted parameters, public functions, CLI flags and
dataclass field defaults each need a caller in ``src/``, ``perfbench/``
or ``tools/``, and class members a reader anywhere."""

import argparse
import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hopflab
from hopflab import (barriers, cli, convex_geometry, decay_analysis,
                     elliptic_operator, fd_solver, modulus)

MODULES = [hopflab, barriers, convex_geometry, decay_analysis,
           elliptic_operator, fd_solver, modulus]
PACKAGE = Path(hopflab.__file__).resolve().parent

# the package's __all__ and those of its names that ``from hopflab import
# *`` leaves unbound, seen by a fresh interpreter
_STAR_IMPORT = """
import json
from hopflab import *
import hopflab
unbound = [name for name in hopflab.__all__ if name not in globals()]
print(json.dumps([hopflab.__all__, unbound]))
"""


def _fresh_package_all():
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _STAR_IMPORT],
                          capture_output=True, text=True, check=True,
                          env={**os.environ, "PYTHONPATH": path})
    return json.loads(proc.stdout)


@pytest.mark.parametrize("module", [pytest.param(m, id=m.__name__)
                                    for m in MODULES])
def test_all_is_exact(module):
    if module is hopflab:
        # in this process another test may have imported a module that
        # ``import hopflab`` leaves unloaded.  Every module of the
        # package but the command line is listed
        listed, unbound = _fresh_package_all()
        assert unbound == []
        assert sorted(listed) == sorted(
            p.stem for p in PACKAGE.glob("*.py")
            if p.stem not in ("__init__", "cli"))
        return
    listed = module.__all__
    assert len(set(listed)) == len(listed)
    assert [name for name in listed if not hasattr(module, name)] == []
    defined = sorted(
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__)
    assert [name for name in defined if name not in listed] == []


# ------------------------------------------------------------ parameter census

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src", "tests", "perfbench", "tools")   # readers of a member
# defaulted parameters that no call outside the tests sets and that stay,
# each with the paper input, manufactured solution or negative control it
# carries
UNSET_ALLOWED = {
    "barriers.cylinder_barrier(frame)":
        "evaluates the barrier in an extremal frame's coordinates",
    "barriers.cylinder_barrier_certificate(gamma_scale)":
        "negative control: a perturbed aspect breaks the bracket",
    "barriers.growth_chain(drift_term)":
        "the drift loss per step that can break the chain",
    "convex_geometry.preset_profile(ambient_dim)":
        "profiles in n >= 3 dimensions for the ball and frame checks",
    "decay_analysis.growth_recursion_bound(m1)":
        "the recursion's starting bound M_1",
    "elliptic_operator.local_norm(region)":
        "the ball or subdomain that the L2 norm is taken over",
    "fd_solver.convergence_study(exact)":
        "the manufactured solution that errors are measured against",
    "fd_solver.discretize(source)":
        "the right-hand side f of L u = f",
}
NONE = ast.dump(ast.Constant(None))


def _parse(dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _defaulted(fn, in_class):
    """(name, position after self/cls or None, default) of each defaulted
    parameter, leaving out closure bindings such as ``b=b``."""
    a = fn.args
    pos = a.posonlyargs + a.args
    skip = int(in_class and bool(pos) and pos[0].arg in ("self", "cls"))
    pairs = [(arg, i - skip, d) for i, (arg, d) in
             enumerate(zip(pos[len(pos) - len(a.defaults):], a.defaults),
                       len(pos) - len(a.defaults))]
    pairs += [(arg, None, d) for arg, d in zip(a.kwonlyargs, a.kw_defaults)
              if d is not None]
    return [(arg.arg, i, d) for arg, i, d in pairs
            if not isinstance(d, ast.Name)]


def _census():
    """Defaulted parameters in src/ that no call in src/, perfbench/ or
    tools/ passes, by keyword or at its position; a test does not make an
    option.  Calls are matched by the bare called name, so any call of
    that name counts: ``pytest.main([...])`` in tools/ sets
    ``cli.main(argv)``.  An explicit None for a None default, or
    forwarding the caller's own unset parameter of equal default, sets
    nothing."""
    params = {}          # (function, parameter) -> (label, position, default)
    for path, tree in _parse(["src"]):
        module = path.stem

        def visit(node, in_class):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    if not any(isinstance(b, ast.Name)
                               and b.id.endswith("Error")
                               for b in child.bases):
                        visit(child, True)
                elif isinstance(child, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                    for name, i, d in _defaulted(child, in_class):
                        params[(child.name, name)] = (
                            f"{module}.{child.name}({name})", i, ast.dump(d))
                    visit(child, False)
                else:
                    visit(child, in_class)
        visit(tree, False)

    sets = []            # (key set, key of the parameter it forwards or None)

    def scan(node, enclosing):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan(child, child.name)
                continue
            if isinstance(child, ast.Call):
                f = child.func
                called = getattr(f, "id", None) or getattr(f, "attr", None)
                keywords = {k.arg: k.value for k in child.keywords}
                for (fn, name), (_, i, _) in params.items():
                    if fn != called:
                        continue
                    if None in keywords or any(isinstance(v, ast.Starred)
                                               for v in child.args):
                        value = None
                    elif name in keywords:
                        value = keywords[name]
                    elif i is not None and i < len(child.args):
                        value = child.args[i]
                    else:
                        continue
                    default = params[(fn, name)][2]
                    if (default == NONE and isinstance(value, ast.Constant)
                            and value.value is None):
                        continue
                    forwarded = (enclosing, getattr(value, "id", None))
                    sets.append(((fn, name), forwarded
                                 if forwarded in params
                                 and params[forwarded][2] == default
                                 else None))
            scan(child, enclosing)

    for _, tree in _parse(("src", "perfbench", "tools")):
        scan(tree, None)
    passed = set()
    while True:
        grown = {key for key, via in sets if via is None or via in passed}
        if grown == passed:
            break
        passed = grown
    return sorted(label for key, (label, _, _) in params.items()
                  if key not in passed)


def _check(census, allowed, what):
    """Every entry of ``census`` is allowed, and every allowed one found."""
    unlisted = [c for c in census if c not in allowed]
    assert not unlisted, f"{len(unlisted)} {what}: {unlisted}"
    stale = [c for c in allowed if c not in census]
    assert not stale, f"allowed but used outside the tests or gone: {stale}"


def test_every_default_is_set_by_some_caller():
    _check(_census(), UNSET_ALLOWED, "defaults no caller sets")


# ------------------------------------------------------------ test-only census

# public functions of src/ that no code outside the tests calls, each with
# the reason it stays in src/ and not among the tests' helpers
TEST_ONLY_ALLOWED = {
    "elliptic_operator.approximate":
        "the approximating operator of the paper's approximation step, "
        "whose convergence an acceptance criterion measures",
    "elliptic_operator.local_norm":
        "the L_n norm (n = 2) of the paper's estimate, which the "
        "approximation criterion measures its convergence in",
    "fd_solver.convergence_study":
        "the solver's observed order, which the solver-validation "
        "acceptance criterion bounds",
    "modulus.dini_integral_report":
        "a closed-form J cross-checked against the quadrature, which the "
        "modulus-suite acceptance criterion reads",
}


def _test_only():
    """Functions listed in a src/ module's ``__all__`` whose name no code
    in src/, perfbench/ or tools/ loads, as a name or an attribute.  As in
    `_census`, names match bare, so a load of any object of that name
    counts."""
    public = {}
    for path, tree in _parse(["src"]):
        listed = next((ast.literal_eval(node.value) for node in tree.body
                       if isinstance(node, ast.Assign)
                       and [getattr(t, "id", None) for t in node.targets]
                       == ["__all__"]), [])
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name in listed:
                public[node.name] = f"{path.stem}.{node.name}"
    loaded = set()
    for _, tree in _parse(("src", "perfbench", "tools")):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                loaded.add(node.attr)
    return sorted(label for name, label in public.items()
                  if name not in loaded)


def test_every_public_function_is_called_outside_the_tests():
    _check(_test_only(), TEST_ONLY_ALLOWED, "public functions only tests call")


# ----------------------------------------------------------------- flag census

# flags of a subcommand that no command line outside the tests passes and
# that stay, each with its reason
FLAG_UNPASSED_ALLOWED = {}


def _unpassed_flags():
    """"subcommand --flag" for each flag of ``cli.build_parser()`` that no
    command line in perfbench/ or tools/ passes.  A command line is a list
    literal that starts with the subcommand's name, spelling out the
    module-level lists it unpacks; a list naming the module
    ``hopflab.cli`` (the line that launches the others) passes its flags
    to every subcommand."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {f"{name} {flag}" for name, parser in sub.choices.items()
             for action in parser._actions
             if not isinstance(action, argparse._HelpAction)
             for flag in action.option_strings}
    passed = set()
    for _, tree in _parse(("perfbench", "tools")):
        lists = {t.id: node.value.elts for node in tree.body
                 if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.List)
                 for t in node.targets if isinstance(t, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.List):
                continue
            elts = [e for x in node.elts for e in
                    (lists.get(getattr(x.value, "id", None), [x])
                     if isinstance(x, ast.Starred) else [x])]
            words = [e.value if isinstance(e, ast.Constant)
                     and isinstance(e.value, str) else None for e in elts]
            if words and words[0] in sub.choices:
                commands = [words[0]]
            elif "hopflab.cli" in words:
                commands = sub.choices
            else:
                continue
            passed |= {f"{c} {w}" for c in commands for w in words
                       if w and w.startswith("--")}
    return sorted(flags - passed)


def test_every_flag_is_passed_outside_the_tests():
    _check(_unpassed_flags(), FLAG_UNPASSED_ALLOWED,
           "flags no command line outside the tests passes")


# -------------------------------------------------------- field-default census

# dataclass field defaults that no code outside the tests relies on and
# that stay, each with its reason
DEFAULT_UNUSED_ALLOWED = {
    "convex_geometry.RadialProfile.ambient_dim":
        "only a hand-built profile leaves it unset: a planar one with no "
        "preset, the case the numeric Dini verdict serves",
    "convex_geometry.RadialProfile.preset":
        "only a hand-built profile leaves it unset: one with no preset, "
        "whose modulus the numeric Dini verdict classifies",
}


def _unused_field_defaults():
    """Fields of src/ dataclasses whose default no code in src/,
    perfbench/ or tools/ relies on: no constructor call leaves the field
    unset, and no read of the class's attribute takes the default (the
    CLI's parser reads ``HopfExperiment.K`` and the like).  As in
    `_census`, a constructor matches by its bare class name; one that
    unpacks its arguments sets every field."""
    fields = {}          # class -> its fields, in order
    defaults = {}        # (class, field) -> label
    for path, tree in _parse(["src"]):
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and any(
                    ast.unparse(getattr(d, "func", d)).endswith("dataclass")
                    for d in cls.decorator_list)):
                continue
            body = [s for s in cls.body if isinstance(s, ast.AnnAssign)]
            fields[cls.name] = [s.target.id for s in body]
            defaults.update({(cls.name, s.target.id):
                             f"{path.stem}.{cls.name}.{s.target.id}"
                             for s in body if s.value is not None})
    relied = set()
    for _, tree in _parse(("src", "perfbench", "tools")):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                owner = node.value
                relied.add((getattr(owner, "id", None)
                            or getattr(owner, "attr", None), node.attr))
            elif isinstance(node, ast.Call):
                f = node.func
                called = getattr(f, "id", None) or getattr(f, "attr", None)
                keywords = {k.arg for k in node.keywords}
                if (called not in fields or None in keywords
                        or any(isinstance(a, ast.Starred)
                               for a in node.args)):
                    continue
                given = keywords | set(fields[called][:len(node.args)])
                relied |= {(called, name) for name in fields[called]
                           if name not in given}
    return sorted(label for key, label in defaults.items()
                  if key not in relied)


def test_every_field_default_is_relied_on_outside_the_tests():
    _check(_unused_field_defaults(), DEFAULT_UNUSED_ALLOWED,
           "field defaults every call outside the tests overrides")


# ---------------------------------------------------------------- field census

def _member_name(stmt):
    """The name an annotated field, method or property of a class body
    defines; None for anything else and for dunder methods, which Python
    calls itself."""
    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        return stmt.target.id
    if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (stmt.name.startswith("__")
                     and stmt.name.endswith("__"))):
        return stmt.name
    return None


def _unread_fields():
    """Members of src/ classes, annotated fields (dataclasses and
    NamedTuples), methods and properties, whose name no code in src/,
    tests/, perfbench/ or tools/ reads as an attribute or spells as a
    string (``getattr`` over dict keys counts)."""
    fields = {}
    for path, tree in _parse(["src"]):
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for name in filter(None, map(_member_name, cls.body)):
                    fields.setdefault(name, []).append(
                        f"{path.stem}.{cls.name}.{name}")
    read = set()
    for _, tree in _parse(CALLERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                              ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value,
                                                               str):
                read.add(node.value)
    return sorted(label for name, labels in fields.items()
                  if name not in read for label in labels)


def test_every_report_field_is_read():
    unread = _unread_fields()
    assert not unread, f"{len(unread)} members nothing reads: {unread}"
