"""The package's public names, which load with their module on first access."""

import subprocess
import sys

import pytest

import stuttersim
from conftest import child_env


def test_every_public_name_resolves():
    for name in stuttersim.__all__:
        value = getattr(stuttersim, name)
        assert value.__name__ == name
        assert value.__module__.startswith("stuttersim.")


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from stuttersim import *", namespace)
    assert set(stuttersim.__all__) <= set(namespace)
    for name in stuttersim.__all__:
        assert namespace[name] is getattr(stuttersim, name)


def test_from_import_and_dir():
    from stuttersim import CheckVerdict, compute_preorder, pos_naive  # noqa: F401

    assert set(stuttersim.__all__) <= set(dir(stuttersim))
    assert stuttersim.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        stuttersim.no_such_name  # noqa: B018
    assert not hasattr(stuttersim, "no_such_name")
    with pytest.raises(ImportError):
        exec("from stuttersim import no_such_name", {})


def test_importing_the_package_loads_no_submodule():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, stuttersim; print(' '.join(m for m in sys.modules if m.startswith('stuttersim')))"],
        capture_output=True, text=True, env=child_env(), check=True,
    )
    assert proc.stdout.split() == ["stuttersim"]
