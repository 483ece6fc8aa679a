"""Importing the CLI loads no HTTP or email module; sync loads them on use.
Every name a package exports resolves."""

import json
import os
import subprocess
import sys

import pytest

import glucokit
import glucokit.regressors
import glucokit.telemetry

SRC_DIR = os.path.dirname(os.path.dirname(glucokit.__file__))

PROBE = """
import json, sys
def web():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("http", "email"))
import glucokit.cli
at_import = web()
from glucokit.telemetry import MockEndpoint, sync
print(json.dumps([at_import, web(), MockEndpoint.__name__, sync.__name__]))
"""


def test_cli_import_loads_no_http_or_email_module():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC_DIR, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    at_import, after, endpoint, sync = json.loads(out)
    assert at_import == []
    assert "http.client" in after and "http.server" not in after
    assert (endpoint, sync) == ("MockEndpoint", "sync")


@pytest.mark.parametrize("package", [glucokit.regressors, glucokit.telemetry],
                         ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    for name in package.__all__:
        getattr(package, name)  # a stale export raises AttributeError here
