"""Each module's ``__all__`` is exact: every listed name resolves, and
every public class or function the module defines is listed."""

import inspect

import pytest

import hopflab
from hopflab import (barriers, convex_geometry, decay_analysis,
                     elliptic_operator, fd_solver, modulus)

MODULES = [hopflab, barriers, convex_geometry, decay_analysis,
           elliptic_operator, fd_solver, modulus]


@pytest.mark.parametrize("module", [pytest.param(m, id=m.__name__)
                                    for m in MODULES])
def test_all_is_exact(module):
    listed = module.__all__
    assert len(set(listed)) == len(listed)
    assert [name for name in listed if not hasattr(module, name)] == []
    defined = sorted(
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isclass(obj) or inspect.isfunction(obj))
        and obj.__module__ == module.__name__)
    assert [name for name in defined if name not in listed] == []
