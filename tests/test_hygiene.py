"""Static checks on the library source, read with ast and never imported.

An `assert` in src/ vanishes under `python -O`, so every invariant there must
raise instead.  An imported name that the module never uses is dead weight
that hides the module's real dependencies.  The period formula and its
brute-force oracle must stay apart, so no formula-side function may name the
oracle's state loops or embeddings, the companion orbit that is compared
with the formula may name nothing of the formula route, and the second
Wall-Sun-Sun detector may name nothing from periods.  The scans' screens sit on the formula side: the
Wall-Sun-Sun screen and the Lucas screen of quadratic bases may name neither
the oracle, nor that detector, nor the ideal route that verifies a
quadratic base's hits.  Every function, class and method in src/ must be
named by some code or by README.md; one that nothing names is dead weight.
An element carries its field, so outside ring.py no function takes a field
as a defaulted `field` parameter, and heights run at one fixed precision, so
no function takes a `precision` option at all.  Nor does any function take
the factorization budget, the sieve segment or a state loop's budget as an
option: the first two are module constants and the last is derived from the
modulus; a required parameter of those names stays allowed.  The free rank
of a group is exact, so `multiplicative_rank` and its helpers name no log,
float, rational approximation or archimedean place.  The test oracles must
not share code with what they check, so tests/oracles.py imports only
`math` and `fractions`.  Every command pays for what `import quadrec` loads,
and mpmath and the process pool made up about a third of a cold start
though only heights and `--workers` above 1 use them, so no module body
imports mpmath, `concurrent.futures` or `multiprocessing`; the functions that
need them import them.  The integer number theory in factor.py sits beneath
every other module, so it imports only the standard library and `.errors`.
The race of factoring stages is registered in one place: only factor.py's
`_STAGES` names the stages, and only p-1 names its stage-2 sweep.
"""
import ast
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "quadrec"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_the_source_modules_are_found():
    assert {p.name for p in MODULES} >= {"certificates.py", "ring.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    lines = sorted(node.lineno for node in ast.walk(_tree(path))
                   if isinstance(node, ast.Assert))
    assert lines == [], f"{path.name}: assert at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = _tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items()
                    if name not in used)
    assert unused == [], f"{path.name}: unused imports {unused}"


LAZY = ("mpmath", "concurrent.futures", "multiprocessing")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_heavy_dependencies_load_on_first_use(path):
    found, stack = [], list(_tree(path).body)
    while stack:  # the module body, and class bodies, but no function body
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [(node.lineno, name) for name in names
                  if any(name == m or name.startswith(m + ".") for m in LAZY)]
    assert found == [], f"{path.name}: module-body imports {sorted(found)}"


FORMULA_ROUTE = ("period_formula", "multiplicative_order", "least_period",
                 "pisano_prime_power", "pisano", "_fib_pair", "_is_fib_period")
ORACLE = {"period_bruteforce", "_state_period", "_int_state_period",
          "_pair_state_period", "_pair_embedding", "_to_pair"}
WSS_DETECTOR = ("wss_divisibility_test", "_mat_mul2")
SCREENS = ("_lucas_v", "unit_screen", "wss_screen", "lucas_screen")
IDEAL_ROUTE = {"fermat_quotient_residue", "reduce", "residue_pow",
               "_prime_ideals_above"}


def _mentions(tree: ast.Module, funcs) -> dict[str, set[str]]:
    """Every name and attribute that each of the top-level `funcs` mentions."""
    found = {node.name: {n.id if isinstance(n, ast.Name) else n.attr
                         for n in ast.walk(node)
                         if isinstance(n, (ast.Name, ast.Attribute))}
             for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name in funcs}
    assert set(funcs) <= found.keys(), f"missing {sorted(set(funcs) - found.keys())}"
    return found


def test_formula_route_never_names_the_oracle(src: pathlib.Path = SRC):
    periods, wieferich = _tree(src / "periods.py"), _tree(src / "wieferich.py")
    from_periods = {"periods"} | {
        alias.asname or alias.name for node in ast.walk(wieferich)
        if isinstance(node, ast.ImportFrom) and node.module == "periods"
        for alias in node.names}
    leaks = {f: sorted(names & ORACLE)
             for f, names in _mentions(periods, FORMULA_ROUTE).items()}
    leaks.update({f: sorted(names & from_periods)
                  for f, names in _mentions(wieferich, WSS_DETECTOR).items()})
    leaks.update({f: sorted(names & (ORACLE | set(WSS_DETECTOR) | IDEAL_ROUTE))
                  for f, names in _mentions(wieferich, SCREENS).items()})
    leaks.update({f: sorted(names & set(FORMULA_ROUTE)) for f, names in
                  _mentions(_tree(src / "dynamics.py"), ("orbit_period",)).items()})
    leaks = {f: names for f, names in leaks.items() if names}
    assert leaks == {}, f"formula side names the oracle: {leaks}"


RANK_PATH = {"dynamics.py": ("multiplicative_rank", "_coerce_generators",
                             "_nullspace", "_product", "_unit_exponent",
                             "_fundamental_unit"),
             "heights.py": ("_valuation_rows",)}
INEXACT = {"log", "float", "limit_denominator", "_infinite_places"}


def test_the_rank_path_names_nothing_inexact(src: pathlib.Path = SRC):
    leaks = {f: sorted(names & INEXACT)
             for module, funcs in RANK_PATH.items()
             for f, names in _mentions(_tree(src / module), funcs).items()}
    leaks = {f: names for f, names in leaks.items() if names}
    assert leaks == {}, f"the rank path names inexact arithmetic: {leaks}"


# option name -> the modules whose functions may still take it with a default
BANNED_OPTIONS = {"field": {"ring.py"}, "field_d": {"cli.py"},
                  "precision": set(), "rho_budget": set(), "segment": set(),
                  "budget": set()}


def test_only_ring_takes_a_field_option(src: pathlib.Path = SRC):
    found = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            defaulted = positional[len(positional) - len(a.defaults):] + [
                arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
            found += [f"{path.name}:{node.name}:{arg.arg}" for arg in defaulted
                      if arg.arg in BANNED_OPTIONS
                      and path.name not in BANNED_OPTIONS[arg.arg]]
    assert found == [], f"banned options: {found}"


def test_the_oracles_import_only_math_and_fractions(
        path: pathlib.Path = ROOT / "tests" / "oracles.py"):
    modules = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    extra = sorted(modules - {"math", "fractions"})
    assert extra == [], f"{path.name} imports {extra}"


def test_factor_imports_only_the_stdlib_and_errors(
        path: pathlib.Path = SRC / "factor.py"):
    modules = set()
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            modules.add("." * node.level + (node.module or ""))
    extra = sorted(m for m in modules if m != ".errors" and (
        m.startswith(".") or m.split(".")[0] not in sys.stdlib_module_names))
    assert extra == [], f"{path.name} imports {extra}"


# name -> the one top-level definition in factor.py that may name it
STAGE_OWNERS = {"_pollard_brent": "_STAGES", "_pollard_pm1": "_STAGES",
                "_pm1_sweep": "_pollard_pm1"}


def test_only_the_stage_tuple_names_a_stage(src: pathlib.Path = SRC):
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                owner = node.name
            elif isinstance(node, ast.Assign):
                owner = ",".join(t.id for t in node.targets
                                 if isinstance(t, ast.Name))
            else:
                owner = ""
            found |= {(path.name, owner, name) for n in ast.walk(node)
                      if (name := n.id if isinstance(n, ast.Name) else
                          n.attr if isinstance(n, ast.Attribute) else None)
                      in STAGE_OWNERS}
    stray = sorted(f"{module}:{owner}:{name}" for module, owner, name in found
                   if (module, owner) != ("factor.py", STAGE_OWNERS[name]))
    assert stray == [], f"stages named outside their one place: {stray}"


def _definitions(tree: ast.Module) -> list[str]:
    """Top-level functions and classes, and every non-dunder method."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append(node.name)
        if isinstance(node, ast.ClassDef):
            out += [f"{node.name}.{m.name}" for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not (m.name.startswith("__") and m.name.endswith("__"))]
    return out


def _names_used(tree: ast.Module) -> set[str]:
    """Names, attributes and imports in code, and strings that are one name."""
    used = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.alias):
            used.add(n.name.rsplit(".", 1)[-1])
        elif (isinstance(n, ast.Constant) and isinstance(n.value, str)
              and n.value.isidentifier()):
            used.add(n.value)
    return used


def test_every_definition_is_named_somewhere(root: pathlib.Path = ROOT):
    sources = sorted((root / "src" / "quadrec").glob("*.py"))
    code = (sources + sorted((root / "tests").rglob("*.py"))
            + sorted((root / "perfbench").rglob("*.py")))
    used = set().union(*(_names_used(_tree(path)) for path in code))
    used |= set(re.findall(r"\w+", (root / "README.md").read_text(encoding="utf-8")))
    dead = {path.name: unnamed for path in sources
            if (unnamed := [d for d in _definitions(_tree(path))
                            if d.rsplit(".", 1)[-1] not in used])}
    assert dead == {}, f"defined but never named: {dead}"


def test_the_checks_catch_what_they_look_for(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import os\nfrom math import gcd, lcm\n"
                   "assert lcm(2, 3) == 6\n", encoding="utf-8")
    with pytest.raises(AssertionError, match=r"assert at lines \[3\]"):
        test_no_assert_statements(bad)
    with pytest.raises(AssertionError,
                       match=r"unused imports \[\(1, 'os'\), \(2, 'gcd'\)\]"):
        test_no_unused_imports(bad)
    lazy = tmp_path / "lazy.py"
    lazy.write_text("import mpmath as mp\nfrom concurrent import futures\n"
                    "from .mpmath import log\n"
                    "def pool():\n    import multiprocessing\n"
                    "class Shard:\n    from concurrent.futures import Future\n"
                    "if mp:\n    import multiprocessing.pool\n",
                    encoding="utf-8")
    with pytest.raises(AssertionError, match=re.escape(
            "lazy.py: module-body imports [(1, 'mpmath'), "
            "(2, 'concurrent.futures'), (7, 'concurrent.futures.Future'), "
            "(9, 'multiprocessing.pool')]")):
        test_heavy_dependencies_load_on_first_use(lazy)
    (tmp_path / "periods.py").write_text("".join(
        f"def {f}(m):\n    return {'period_bruteforce(m)' if f == 'pisano' else 1}\n"
        for f in FORMULA_ROUTE), encoding="utf-8")
    (tmp_path / "wieferich.py").write_text(
        "from .periods import pisano_prime_power\n"
        "def _mat_mul2(A, B, m):\n    return A\n"
        "def wss_divisibility_test(p):\n    return pisano_prime_power(p, 1)\n"
        "def _lucas_v(s, k, m):\n    return _mat_mul2(s, k, m)\n"
        "def unit_screen(p, t, n, sym):\n    return reduce(p, (t, n))\n"
        "def wss_screen(p):\n    return wss_divisibility_test(p)\n"
        "def lucas_screen(p, P):\n    return fermat_quotient_residue(p, P)\n",
        encoding="utf-8")
    (tmp_path / "dynamics.py").write_text(
        "def orbit_period(t, m):\n    return period_formula(t, m).period\n",
        encoding="utf-8")
    with pytest.raises(AssertionError, match=re.escape(
            "{'pisano': ['period_bruteforce'], "
            "'wss_divisibility_test': ['pisano_prime_power'], "
            "'_lucas_v': ['_mat_mul2'], "
            "'unit_screen': ['reduce'], "
            "'wss_screen': ['wss_divisibility_test'], "
            "'lucas_screen': ['fermat_quotient_residue'], "
            "'orbit_period': ['period_formula']}")):
        test_formula_route_never_names_the_oracle(tmp_path)
    (tmp_path / "dynamics.py").write_text(
        "def multiplicative_rank(x):\n    return float(x)\n"
        "def _unit_exponent(x):\n    return _infinite_places(x)\n" + "".join(
            f"def {f}(x):\n    return x\n" for f in RANK_PATH["dynamics.py"]
            if f not in ("multiplicative_rank", "_unit_exponent")),
        encoding="utf-8")
    (tmp_path / "heights.py").write_text(
        "import math\ndef _valuation_rows(x):\n    return math.log(x)\n",
        encoding="utf-8")
    with pytest.raises(AssertionError, match=re.escape(
            "{'multiplicative_rank': ['float'], "
            "'_unit_exponent': ['_infinite_places'], "
            "'_valuation_rows': ['log']}")):
        test_the_rank_path_names_nothing_inexact(tmp_path)
    (tmp_path / "ring.py").write_text(
        "def as_element(v, field=None):\n    return v\n"
        "def log_norm(x, precision=128):\n    return x\n"
        "def factorize(n, rho_budget=2, index=1):\n    return n\n"
        "def iter_primes(lo, hi, *, segment=64):\n    return lo\n"
        "def _state_period(cs, mod, budget=None):\n    return mod\n"
        "def _pollard_brent(n, budget):\n    return n\n", encoding="utf-8")
    (tmp_path / "heights.py").write_text(
        "def radical(x, field=None):\n    return x\n"
        "def height(x, *, field=None, precision=128):\n    return x\n"
        "def degree(field):\n    return 2\n"
        "def wieferich_predicate(base, field_d=None):\n    return base\n",
        encoding="utf-8")
    (tmp_path / "cli.py").write_text(
        "def parse_quadratic(text, field_d=None):\n    return text\n",
        encoding="utf-8")
    with pytest.raises(AssertionError, match=re.escape(
            "['heights.py:radical:field', 'heights.py:height:field', "
            "'heights.py:height:precision', "
            "'heights.py:wieferich_predicate:field_d', "
            "'ring.py:log_norm:precision', "
            "'ring.py:factorize:rho_budget', 'ring.py:iter_primes:segment', "
            "'ring.py:_state_period:budget']")):
        test_only_ring_takes_a_field_option(tmp_path)
    (tmp_path / "oracles.py").write_text(
        "import math\nfrom fractions import Fraction\n"
        "from quadrec.ring import factorize\nimport sympy.ntheory\n"
        "def brute(n):\n    from . import conftest\n", encoding="utf-8")
    with pytest.raises(AssertionError, match=re.escape(
            "oracles.py imports ['.', 'quadrec.ring', 'sympy.ntheory']")):
        test_the_oracles_import_only_math_and_fractions(tmp_path / "oracles.py")
    (tmp_path / "factor.py").write_text(
        "import math\nfrom itertools import islice\n"
        "from .errors import UsageError\nfrom .ring import qelem\n"
        "import sympy.ntheory\nfrom . import periods\n", encoding="utf-8")
    with pytest.raises(AssertionError, match=re.escape(
            "factor.py imports ['.', '.ring', 'sympy.ntheory']")):
        test_factor_imports_only_the_stdlib_and_errors(tmp_path / "factor.py")
    (tmp_path / "factor.py").write_text(
        "def _pollard_pm1(n):\n    return _pm1_sweep(n)\n"
        "def _split(n):\n    return _pollard_brent(n) or _pm1_sweep(n)\n"
        "_STAGES = (_pollard_brent, _pollard_pm1)\n", encoding="utf-8")
    (tmp_path / "ring.py").write_text(
        "from . import factor\nRACE = factor._pollard_pm1\n", encoding="utf-8")
    with pytest.raises(AssertionError, match=re.escape(
            "['factor.py:_split:_pm1_sweep', 'factor.py:_split:_pollard_brent', "
            "'ring.py:RACE:_pollard_pm1']")):
        test_only_the_stage_tuple_names_a_stage(tmp_path)
    # spare is only in a docstring, helper only in README.md, orphan only in
    # a test's import, and Elt.used only in code
    (tmp_path / "src" / "quadrec").mkdir(parents=True)
    (tmp_path / "tests").mkdir()
    (tmp_path / "src" / "quadrec" / "ring.py").write_text(
        "class Elt:\n"
        "    def __eq__(self, other):\n        return True\n"
        "    def used(self):\n        return 1\n"
        "    def spare(self):\n        return 2\n"
        "def helper():\n    \"\"\"Not spare.\"\"\"\n"
        "def orphan():\n    return Elt().used()\n", encoding="utf-8")
    (tmp_path / "tests" / "test_ring.py").write_text(
        "from quadrec.ring import orphan\n", encoding="utf-8")
    (tmp_path / "README.md").write_text("Call `helper()`.\n", encoding="utf-8")
    with pytest.raises(AssertionError,
                       match=re.escape("{'ring.py': ['Elt.spare']}")):
        test_every_definition_is_named_somewhere(tmp_path)
