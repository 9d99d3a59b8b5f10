"""The package's public export list, the package names the benchmark reads,
the value semantics of its records, and what importing the CLI loads."""

import ast
import copy
import importlib
import importlib.util
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import macmahon
from macmahon.families import MacmahonFamily
from macmahon.identities import Mismatch, VerificationReport
from macmahon.partitions import PartitionOracleResult
from macmahon.series import TruncatedSeries


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


# -- the records are immutable values ----------------------------------------------

ONE, ZERO = TruncatedSeries.one(3), TruncatedSeries.zero(3)
MISMATCH = Mismatch(3, 5, 7)

# (record class, every field in order, the same fields by keyword with the
# defaults left out, the repr)
RECORDS = [
    (
        TruncatedSeries,
        ((1, 2, 0, -3), 3),
        dict(truncation_order=3, coeffs=(1, 2, 0, -3)),
        "TruncatedSeries('1 + 2q - 3q^3', order=3)",
    ),
    (
        MacmahonFamily,
        ("A", (ONE, ZERO), 3, 1, 0),
        dict(family="A", members=(ONE, ZERO), truncation_order=3, degree_cap=1),
        "MacmahonFamily(family='A', members=(TruncatedSeries('1', order=3), "
        "TruncatedSeries('0', order=3)), truncation_order=3, degree_cap=1, lowest=0)",
    ),
    (Mismatch, (3, 5, 7), dict(rhs=7, lhs=5, exponent=3), "Mismatch(exponent=3, lhs=5, rhs=7)"),
    (
        VerificationReport,
        ("thm-a", 1, None, 30, MISMATCH, 4, 0.5),
        dict(identity="thm-a", k=1, j=None, order=30, first_mismatch=MISMATCH,
             terms_used=4, elapsed_ms=0.5),
        "VerificationReport(identity='thm-a', k=1, j=None, order=30, "
        "first_mismatch=Mismatch(exponent=3, lhs=5, rhs=7), terms_used=4, elapsed_ms=0.5)",
    ),
    (
        PartitionOracleResult,
        (2, 5, 9, False),
        dict(k=2, n=5, value=9, odd_parts_only=False),
        "PartitionOracleResult(k=2, n=5, value=9, odd_parts_only=False)",
    ),
]


@pytest.mark.parametrize("cls,fields,keywords,text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_records_are_immutable_values(cls, fields, keywords, text):
    record = cls(*fields)
    twin = cls(**keywords)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert record != fields and not record == fields
    assert repr(record) == text

    name = next(iter(keywords))
    value = getattr(record, name)
    with pytest.raises(AttributeError):
        setattr(record, name, value)
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert getattr(record, name) == value

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(record, protocol))
        assert type(back) is cls and back == record and hash(back) == hash(record), protocol
    for clone in (copy.copy(record), copy.deepcopy(record)):
        assert type(clone) is cls and clone == record


# -- start-up cost -------------------------------------------------------------------


def _modules_after(statement):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    code = f"import sys\n{statement}\nprint('\\n'.join(sys.modules))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return set(out.split())


def test_cli_import_loads_no_introspection_modules():
    # dataclasses pulls in inspect, ast and dis and execs generated methods
    # for every record, all paid again by each one-shot CLI call.  A site
    # hook that loads one of them in a bare interpreter does not count
    added = _modules_after("import macmahon.cli") - _modules_after("pass")
    assert not added & {"dataclasses", "inspect", "ast", "dis"}
