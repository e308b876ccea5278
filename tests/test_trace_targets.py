"""The benchmark's traced mode (perfbench/run.py --trace 1) wraps quadrec
functions by name.  perfbench/spans.py is read here with ast and never
imported; every name in its TARGETS, GENERATORS and PREDICATE_FACTORIES
must still resolve in its quadrec module, so a rename fails this suite and
not only a traced benchmark run.  The traced ring.factorize, ring.is_prime
and search.iter_primes are quadrec.factor's own functions, so rebinding them
in every module also traces the calls made inside factor."""
import ast
import importlib
import pathlib

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
TABLES = ("TARGETS", "GENERATORS", "PREDICATE_FACTORIES")


def _traced_names(spans: pathlib.Path) -> list[tuple[str, str]]:
    """(module, function) for every name the tables list; the predicate
    factories are looked up in quadrec.search."""
    tables = {node.targets[0].id: ast.literal_eval(node.value)
              for node in ast.parse(spans.read_text(encoding="utf-8")).body
              if isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)
              and node.targets[0].id in TABLES}
    assert set(tables) == set(TABLES), f"tables found: {sorted(tables)}"
    names = [(mod, f) for table in ("TARGETS", "GENERATORS")
             for mod, fs in tables[table].items() for f in fs]
    return names + [("search", f) for f in tables["PREDICATE_FACTORIES"]]


def test_every_traced_name_resolves(spans: pathlib.Path = SPANS):
    missing = [f"quadrec.{mod}.{f}" for mod, f in _traced_names(spans)
               if not callable(getattr(importlib.import_module(f"quadrec.{mod}"),
                                       f, None))]
    assert missing == [], f"traced names that no longer resolve: {missing}"


def test_the_check_catches_a_renamed_target(tmp_path):
    spans = tmp_path / "spans.py"
    spans.write_text('TARGETS = {"ring": ("reduce", "reduce_old")}\n'
                     'GENERATORS = {"search": ("iter_primes",)}\n'
                     'PREDICATE_FACTORIES = ("wall_predicate", "gone")\n',
                     encoding="utf-8")
    with pytest.raises(AssertionError, match=r"\['quadrec\.ring\.reduce_old', "
                                             r"'quadrec\.search\.gone'\]"):
        test_every_traced_name_resolves(spans)


def test_traced_integer_functions_are_factors_own():
    from quadrec import factor, ring, search
    assert ring.factorize is factor.factorize
    assert ring.is_prime is factor.is_prime
    assert search.iter_primes is factor.iter_primes
