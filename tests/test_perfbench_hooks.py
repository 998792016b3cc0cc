"""The benchmark's tracer (perfbench/spans.py) hooks minkring by name.

A traced pass wraps every function and method that ``spans.WRAPPED``
lists, reads the ``cache_info()`` of ``geometry.decompose_cells`` and
``geometry.faces``, and puts every original back.  A renamed or deleted
hooked name breaks the traced benchmark, so this test runs one pass over
the loaded minkring modules and checks that it installs and restores.
"""

from __future__ import annotations

import importlib
import io
import sys
from pathlib import Path

import minkring.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PAYLOAD = "z^2 - y3^2"


def _owners(spans, modules) -> list:
    """(namespace, attribute) of every WRAPPED name: a class for a method,
    else every minkring module that binds the function."""
    out = []
    for mod_name, attr, _, _ in spans.WRAPPED:
        module = modules[f"minkring.{mod_name}"]
        owner, _, name = attr.rpartition(".")
        if owner:
            out.append((getattr(module, owner), name))
        else:
            original = getattr(module, name)
            out += [(m, n) for m in modules.values()
                    for n, v in vars(m).items() if v is original]
    return out


def test_a_traced_pass_hooks_every_name_and_restores_it(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    for mod_name in {mod_name for mod_name, *_ in spans.WRAPPED}:
        importlib.import_module(f"minkring.{mod_name}")
    modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "minkring"}
    owners = _owners(spans, modules)
    originals = [vars(owner)[name] for owner, name in owners]

    tracer = spans.Tracer(modules)
    tracer.begin_pass()
    try:
        assert all(vars(owner)[name] is not original
                   for (owner, name), original in zip(owners, originals))
        # one verb, and one phi, whose hook asks geometry.dim of the generators;
        # each parses the payload once
        assert minkring.cli.main(["member", "--ring", "coxeter", PAYLOAD], io.StringIO()) == 0
        pres = modules["minkring.presentations"]
        pres.coxeter_ring().phi(minkring.cli.parse_poly(PAYLOAD))
        tracer.end_pass(0.0)
    finally:
        tracer.uninstall()

    assert all(vars(owner)[name] is original
               for (owner, name), original in zip(owners, originals))
    metrics = tracer.pass_metrics[-1]
    assert metrics["cli.payload_chars"] == 2 * len(PAYLOAD)
    assert metrics["presentations.terms_in"] == 2
