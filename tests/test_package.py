"""The package's public export list, and the package names the benchmark
reads."""

import ast
import importlib
import importlib.util
from pathlib import Path

import macmahon


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from macmahon import *", namespace)
    assert len(set(macmahon.__all__)) == len(macmahon.__all__)
    for name in macmahon.__all__:
        assert namespace[name] is getattr(macmahon, name), name


# -- names the benchmark under perfbench/ reads ----------------------------------

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_boundary_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    t = tracer.Tracer()
    try:
        t.install(tracer.LIBRARY_BOUNDARIES + tracer.CLI_BOUNDARIES)
        assert t.missing == set()
    finally:
        t.uninstall()


def test_every_module_attribute_the_reference_generator_reads_exists():
    tree = ast.parse((PERFBENCH / "gen_reference.py").read_text(encoding="utf-8"))
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("families", "partitions", "identities")
    }
    assert read
    for module, name in sorted(read):
        assert hasattr(importlib.import_module(f"macmahon.{module}"), name), f"{module}.{name}"
