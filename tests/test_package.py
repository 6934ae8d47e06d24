"""The package namespace: names bound on first use, and what each command loads."""

import importlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

import k3cm

SRC = str(Path(k3cm.__file__).parent.parent)
LIST_MODULES = (
    "\nprint(' '.join(sorted(m for m in sys.modules if m == 'k3cm' or m.startswith('k3cm.'))))"
)
QUIET_CLI = "import contextlib, io\nfrom k3cm.cli import main\nwith contextlib.redirect_stdout(io.StringIO()):\n"


def fresh(code: str) -> str:
    """The last stdout line of `code` run in a new interpreter that imports k3cm from SRC."""
    proc = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {SRC!r})\n{code}"],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def loaded(code: str) -> set[str]:
    return set(fresh(code + LIST_MODULES).split())


def test_every_public_name_is_the_object_of_its_defining_module():
    for name in k3cm.__all__:
        home = importlib.import_module(f"k3cm.{k3cm._HOME[name]}")
        obj = getattr(k3cm, name)
        assert obj is getattr(home, name), name
        if isinstance(obj, (type, types.FunctionType)):
            assert obj.__module__ == home.__name__, name
        assert k3cm.__dict__[name] is obj   # cached after first use


def test_dir_lists_all_public_names():
    assert set(k3cm.__all__) <= set(dir(k3cm))


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        k3cm.no_such_name


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from k3cm import *", namespace)
    assert set(k3cm.__all__) <= set(namespace)
    assert "search" not in k3cm.__all__


def test_submodules_resolve_after_a_bare_import():
    assert fresh("import k3cm\nprint(k3cm.lift.solve_mod_p.__module__)") == "k3cm.lift"


@pytest.mark.parametrize("code", [
    "import k3cm.search as m",
    "import k3cm.search\nfrom k3cm import search as m",
    "from k3cm import search as m",
    "import k3cm\nm = k3cm.search",
    "from k3cm import scan_prime\nimport k3cm.search as m",
])
def test_k3cm_search_is_always_the_module(code):
    assert fresh(f"{code}\nprint(type(m).__name__, m.__name__, m.search.__module__)") \
        == "module k3cm.search k3cm.search"


def test_the_set_up_loads_six_modules():
    assert loaded("import k3cm\nk3cm.registry().family('xlm').bad_primes(200)") == {
        "k3cm", "k3cm.exact", "k3cm.quadforms", "k3cm.surfaces", "k3cm.families", "k3cm.fixtures"}


def test_verify_loads_no_counting_search_lift_or_newforms():
    mods = loaded(QUIET_CLI + "    assert main(['verify', '--surface', 'ex_627']) == 0")
    assert "k3cm.sections" in mods
    assert not mods & {"k3cm.counting", "k3cm.search", "k3cm.lift", "k3cm.newforms"}


def test_search_loads_no_sections_lattices_lift_or_regression():
    mods = loaded(QUIET_CLI + "    assert main(['search', '--disc', '-88', '--primes', '4']) == 0")
    assert "k3cm.search" in mods
    assert not mods & {"k3cm.sections", "k3cm.lattices", "k3cm.lift", "k3cm.regression"}
