"""Cold start: package front doors and what a fresh process imports.

Every package ``__init__`` binds its re-exports through
:func:`repro._lazy.lazy_exports` (PEP 562 ``__getattr__``/``__dir__``),
so importing a package imports none of its submodules.  The first half
pins what that keeps from the old eager imports: every ``__all__`` name
resolves to the defining module's own object, ``dir`` lists it, unknown
names still raise ``AttributeError`` and star imports bind everything.

The second half runs fresh interpreters, since this one has long since
imported everything.  A serial rp-growth ``mine`` uses none of NumPy,
the process pool, the daemon, the sweep, shard or streaming stacks, the
baselines, the dataset generators or the QA gate, so a process that
runs one must finish without having imported them.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.workloads import quest_workload
from repro.timeseries.io import save_transactional_database

SRC = str(Path(__file__).resolve().parent.parent / "src")

LAZY_PACKAGES = (
    "repro",
    "repro.baselines",
    "repro.bench",
    "repro.core",
    "repro.datasets",
    "repro.obs",
    "repro.parallel",
    "repro.qa",
    "repro.service",
    "repro.shard",
    "repro.streaming",
    "repro.sweep",
    "repro.timeseries",
)


def _defining_module(name, value):
    """The module whose top level binds ``value`` as ``name``."""
    owner = getattr(value, "__module__", None)
    if isinstance(owner, str) and owner.startswith("repro."):
        return sys.modules[owner]
    # Constants (ints, strings, tuples) carry no ``__module__``: find
    # the plain module, not a package, that binds them.
    for module in list(sys.modules.values()):
        if (
            getattr(module, "__name__", "").startswith("repro.")
            and not hasattr(module, "__path__")
            and vars(module).get(name) is value
        ):
            return module
    raise AssertionError(f"no module defines {name!r}")


@pytest.mark.parametrize("package_name", LAZY_PACKAGES)
class TestLazyPackage:
    def test_every_public_name_is_its_definition(self, package_name):
        package = importlib.import_module(package_name)
        for name in package.__all__:
            if name.startswith("__"):
                continue  # ``__version__`` is bound eagerly
            value = getattr(package, name)
            home = _defining_module(name, value)
            assert home is not package
            assert getattr(home, name) is value, (package_name, name)
            # The first access caches it: a second read is a plain one.
            assert vars(package)[name] is value

    def test_dir_lists_every_public_name(self, package_name):
        package = importlib.import_module(package_name)
        assert set(package.__all__) <= set(dir(package))

    def test_unknown_name_raises_attribute_error(self, package_name):
        package = importlib.import_module(package_name)
        with pytest.raises(AttributeError, match=repr(package_name)):
            package.no_such_name
        assert not hasattr(package, "no_such_name")
        assert getattr(package, "no_such_name", "default") == "default"

    def test_from_import_names_each_public_name(self, package_name):
        package = importlib.import_module(package_name)
        for name in package.__all__:
            namespace = {}
            exec(f"from {package_name} import {name}", namespace)
            assert namespace[name] is getattr(package, name)


def test_star_import_binds_every_public_name():
    import repro

    namespace = {}
    exec("from repro import *", namespace)
    missing = set(repro.__all__) - set(namespace)
    assert not missing
    for name in repro.__all__:
        assert namespace[name] is getattr(repro, name)


def test_submodule_import_still_works():
    # ``from pkg import submodule`` falls back to the import system when
    # the lazy table does not name it.
    from repro.core import rp_tree
    from repro.timeseries import columnar

    assert rp_tree.__name__ == "repro.core.rp_tree"
    assert columnar.__name__ == "repro.timeseries.columnar"


#: Modules the serial rp-growth ``mine`` path never uses.
NOT_ON_THE_MINE_PATH = (
    "numpy",
    "multiprocessing",
    "concurrent.futures",
    "asyncio",
    "repro.parallel",
    "repro.sweep",
    "repro.streaming",
    "repro.shard",
    "repro.service",
    "repro.baselines",
    "repro.datasets",
    "repro.qa",
)


def _modules_after(code: str, cwd: Path) -> set:
    """``sys.modules`` at the end of ``code`` in a fresh interpreter."""
    script = code + "import json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(json.loads(proc.stdout.strip().splitlines()[-1]))


def test_mine_imports_only_what_it_runs(tmp_path):
    data = tmp_path / "quest.tsv"
    # 500 transactions; minPS 2% keeps the mine to a few hundred
    # patterns (at 0.2% it is 1 transaction and the lattice explodes).
    save_transactional_database(quest_workload(scale=0.005, seed=3), data)
    patterns = tmp_path / "patterns.tsv"
    argv = [
        "mine", "--input", str(data), "--per", "360", "--min-ps", "0.02",
        "--top", "5", "--save-patterns", str(patterns),
    ]
    loaded = _modules_after(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n",
        tmp_path,
    )
    assert patterns.read_text(encoding="utf-8").count("\n") > 1
    assert "repro.core.rp_growth" in loaded  # the mine did run
    assert sorted(m for m in NOT_ON_THE_MINE_PATH if m in loaded) == []


def test_client_does_not_load_the_daemon(tmp_path):
    loaded = _modules_after(
        "import repro.cli\nfrom repro.service import ServiceClient\n",
        tmp_path,
    )
    assert "repro.service.client" in loaded
    unwanted = ("asyncio", "numpy", "repro.service.daemon")
    assert sorted(m for m in unwanted if m in loaded) == []


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_package_init_imports_no_submodule(package, tmp_path):
    loaded = _modules_after(f"import {package}\n", tmp_path)
    ours = {m for m in loaded if m == "repro" or m.startswith("repro.")}
    # Only the package, its parent and the helper that binds the table.
    parents = {package, package.rsplit(".", 1)[0]}
    assert ours == parents | {"repro._lazy"}
