"""The two argument rules of the public API.  Every integer parameter takes
an int, never a bool or a float, at or above its bound, and a rejected
value raises that parameter's library error with the value printed in
full.  Every record or text parameter takes an instance of its type,
never coerced, and anything else raises a DomainError naming both types."""

import ast
import importlib
from fractions import Fraction
from pathlib import Path

import pytest

import radixroot
from radixroot import (
    DomainError,
    PositionalRepr,
    PreconditionError,
    Rational,
    ResidueClass,
    additive_order,
    classify,
    convert,
    digit_sum,
    digit_sum_of_digits,
    digital_root,
    divisors,
    factorize,
    format_repr,
    fuzz_main1,
    fuzz_main2,
    gcd,
    gcd_class,
    min_exponent,
    multiplicative_order,
    orbit,
    orbit_of,
    orbit_partition,
    parse,
    period,
    pow_rational,
    residue,
    solve_missing_digit,
    tf_digit_sum,
    tf_digital_root,
    to_finite,
    to_repeating,
    totient,
    unit_group_is_cyclic,
    units,
    value_of,
    verify_cor1,
    verify_lemma_dr,
    verify_main1,
    verify_main2,
)

HUGE_NEGATIVE = -10**5000  # past the interpreter's int-to-str limit

# (label, call with the bad value in one integer parameter, error class,
# whether that parameter has a lower bound)
PARAMETERS = [
    ("gcd.a", lambda x: gcd(x, 4), DomainError, True),
    ("gcd.b", lambda x: gcd(4, x), DomainError, True),
    ("factorize.n", factorize, DomainError, True),
    ("divisors.n", divisors, DomainError, True),
    ("totient.n", totient, DomainError, True),
    ("Rational.num", lambda x: Rational(x, 3), DomainError, True),
    ("Rational.den", lambda x: Rational(1, x), DomainError, True),
    ("pow_rational.base", lambda x: pow_rational(x, 2), DomainError, True),
    ("pow_rational.exponent", lambda x: pow_rational(2, x), DomainError, False),
    ("digit_sum.n", lambda x: digit_sum(x, 10), DomainError, True),
    ("digit_sum.k", lambda x: digit_sum(19, x), DomainError, True),
    ("digital_root.n", lambda x: digital_root(x, 10), DomainError, True),
    ("digital_root.k", lambda x: digital_root(19, x), DomainError, True),
    ("tf_digit_sum.k", lambda x: tf_digit_sum(Rational(1, 2), x), DomainError, True),
    ("tf_digital_root.k", lambda x: tf_digital_root(Rational(1, 2), x), DomainError, True),
    ("digit_sum_of_digits.digit", lambda x: digit_sum_of_digits([1, x], 10), DomainError, True),
    ("digit_sum_of_digits.k", lambda x: digit_sum_of_digits([1, 2], x), DomainError, True),
    ("ResidueClass.value", lambda x: ResidueClass(x, 7), DomainError, True),
    ("ResidueClass.modulus", lambda x: ResidueClass(1, x), DomainError, True),
    ("residue.x", lambda x: residue(x, 7), DomainError, False),
    ("residue.n", lambda x: residue(3, x), DomainError, True),
    ("units.n", units, DomainError, True),
    ("gcd_class.n", lambda x: gcd_class(x, 2), DomainError, True),
    ("gcd_class.d", lambda x: gcd_class(6, x), DomainError, False),
    ("orbit.n", lambda x: orbit(x, ResidueClass(1, 6)), DomainError, True),
    ("orbit_of.n", lambda x: orbit_of(x, 1), DomainError, True),
    ("orbit_of.x", lambda x: orbit_of(7, x), DomainError, True),
    ("orbit_partition.n", orbit_partition, DomainError, True),
    ("unit_group_is_cyclic.n", unit_group_is_cyclic, DomainError, True),
    ("classify.k", lambda x: classify(Rational(1, 3), x), DomainError, True),
    ("min_exponent.k", lambda x: min_exponent(Rational(1, 2), x), DomainError, True),
    ("PositionalRepr.base", lambda x: PositionalRepr(x, (1,)), DomainError, True),
    ("PositionalRepr.digit", lambda x: PositionalRepr(10, (1,), (x,)), DomainError, True),
    ("multiplicative_order.k", lambda x: multiplicative_order(x, 7), DomainError, True),
    ("multiplicative_order.p", lambda x: multiplicative_order(10, x), DomainError, True),
    ("to_finite.k", lambda x: to_finite(Rational(1, 2), x), DomainError, True),
    ("to_repeating.k", lambda x: to_repeating(Rational(1, 3), x), DomainError, True),
    ("period.k", lambda x: period(Rational(1, 3), x), DomainError, True),
    ("convert.k2", lambda x: convert(parse("[0.5]_10"), x), DomainError, True),
    ("verify_lemma_dr.k", lambda x: verify_lemma_dr(Rational(1, 2), x), DomainError, True),
    ("verify_main1.r", lambda x: verify_main1(Rational(1, 2), x, 10, 3), PreconditionError, True),
    ("verify_main1.k", lambda x: verify_main1(Rational(1, 2), 2, x, 3), DomainError, True),
    ("verify_main1.terms_max", lambda x: verify_main1(Rational(1, 2), 2, 10, x),
     PreconditionError, True),
    ("verify_cor1.r", lambda x: verify_cor1(Rational(9), x, 10), PreconditionError, True),
    ("verify_cor1.k", lambda x: verify_cor1(Rational(9), 2, x), DomainError, True),
    ("verify_main2.n", lambda x: verify_main2(x, 7, 10), PreconditionError, True),
    ("verify_main2.s", lambda x: verify_main2(1, x, 10), PreconditionError, True),
    ("verify_main2.k", lambda x: verify_main2(1, 7, x), DomainError, True),
    ("fuzz_main1.base", lambda x: fuzz_main1([10, x], 3), DomainError, True),
    ("fuzz_main1.bound", lambda x: fuzz_main1([10], x), PreconditionError, True),
    ("fuzz_main1.terms_max", lambda x: fuzz_main1([10], 3, x), PreconditionError, True),
    ("fuzz_main1.workers", lambda x: fuzz_main1([10], 3, workers=x), PreconditionError, True),
    ("fuzz_main2.base", lambda x: fuzz_main2([10, x], 3, 3), DomainError, True),
    ("fuzz_main2.n_bound", lambda x: fuzz_main2([10], x, 3), PreconditionError, True),
    ("fuzz_main2.s_bound", lambda x: fuzz_main2([10], 3, x), PreconditionError, True),
    ("fuzz_main2.workers", lambda x: fuzz_main2([10], 3, 3, workers=x), PreconditionError, True),
    ("solve_missing_digit.k", lambda x: solve_missing_digit("1?3", x), DomainError, True),
]

CASES = [
    pytest.param(call, bad, error, id=f"{label}={bad_id}")
    for label, call, error, bounded in PARAMETERS
    for bad, bad_id in ((2.0, "2.0"), (True, "True"), (HUGE_NEGATIVE, "-10**5000"))
    if bounded or bad is not HUGE_NEGATIVE
]


@pytest.mark.parametrize("call, bad, error", CASES)
def test_integer_parameters_raise_their_library_error(call, bad, error):
    with pytest.raises(error) as excinfo:
        call(bad)
    assert excinfo.type is error


HALF = Rational(1, 2)
TENTHS = parse("[0.5]_10")
THREE = ResidueClass(3, 6)

# (label, call with the bad value in one record or text parameter, the
# parameter's name, its type)
TYPED_PARAMETERS = [
    ("classify.q", lambda x: classify(x, 10), "q", Rational),
    ("min_exponent.q", lambda x: min_exponent(x, 10), "q", Rational),
    ("to_finite.q", lambda x: to_finite(x, 10), "q", Rational),
    ("to_repeating.q", lambda x: to_repeating(x, 10), "q", Rational),
    ("period.q", lambda x: period(x, 10), "q", Rational),
    ("tf_digit_sum.q", lambda x: tf_digit_sum(x, 10), "q", Rational),
    ("tf_digital_root.q", lambda x: tf_digital_root(x, 10), "q", Rational),
    ("verify_lemma_dr.q", lambda x: verify_lemma_dr(x, 10), "q", Rational),
    ("verify_main1.q", lambda x: verify_main1(x, 2, 10, 3), "q", Rational),
    ("verify_cor1.q", lambda x: verify_cor1(x, 2, 10), "q", Rational),
    ("value_of.r", value_of, "r", PositionalRepr),
    ("convert.r", lambda x: convert(x, 10), "r", PositionalRepr),
    ("format_repr.r", format_repr, "r", PositionalRepr),
    ("additive_order.x", additive_order, "x", ResidueClass),
    ("orbit.x", lambda x: orbit(6, x), "x", ResidueClass),
    ("parse.text", parse, "text", str),
    ("solve_missing_digit.pattern", lambda x: solve_missing_digit(x, 10), "pattern", str),
]

# Near misses of each type: numbers, text, a fraction of another class,
# bytes, a tuple of a record's fields, and each record where another is due.
WRONG_VALUES = [5, 0.5, True, None, "1/2", b"[0.5]_10", Fraction(1, 2), (1, 2),
                HALF, TENTHS, THREE]

TYPE_CASES = [
    pytest.param(call, bad, f"{name} must be a {cls.__name__}, got {type(bad).__name__}",
                 id=f"{label}={type(bad).__name__}")
    for label, call, name, cls in TYPED_PARAMETERS
    for bad in WRONG_VALUES
    if not isinstance(bad, cls)
]


@pytest.mark.parametrize("call, bad, message", TYPE_CASES)
def test_record_and_text_parameters_take_only_their_type(call, bad, message):
    with pytest.raises(DomainError) as excinfo:
        call(bad)
    assert excinfo.type is DomainError and str(excinfo.value) == message


def test_cached_functions_reject_values_equal_to_cached_ints():
    """A float or bool equal to a cached int argument must not hit its entry."""
    factorize(2), factorize(1), multiplicative_order(10, 7)
    for call in (lambda: factorize(2.0), lambda: factorize(True),
                 lambda: multiplicative_order(10, 7.0)):
        with pytest.raises(DomainError):
            call()


def test_messages_print_integers_past_the_str_limit():
    rep = verify_main2(10**5000 + 1, 2**20, 10)
    assert not rep.preconditions_ok
    assert rep.reason == "1" + "0" * 4999 + "1/1048576 terminates in base 10: no repetend"
    with pytest.raises(DomainError, match=r"num must be >= 0, got -10{5000}$"):
        Rational(HUGE_NEGATIVE)
    with pytest.raises(DomainError, match=r"^10 and 20{5000} are not coprime$"):
        multiplicative_order(10, 2 * 10**5000)
    with pytest.raises(DomainError, match=r"^digit 10{5000} out of range for base 10$"):
        PositionalRepr(10, (10**5000,))
    huge_base = PositionalRepr(10**5000, (10**4999, 7))
    assert format_repr(huge_base) == "[1" + "0" * 4999 + ",7]_1" + "0" * 5000


def test_private_functions_call_no_public_function():
    """Validation runs once, at the public name: no private function of the
    package (a leading underscore, dunders aside) calls a public function
    (one named in ``radixroot.__all__``), whether by name or through a
    module of the package, as ``radix.classify``."""
    package = Path(radixroot.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    public = {name for name in radixroot.__all__
              if callable(getattr(radixroot, name)) and not isinstance(getattr(radixroot, name), type)}

    def callee(call):
        f = call.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in modules:
            return f.attr
        return f.id if isinstance(f, ast.Name) else None

    callers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_") \
                    and not node.name.endswith("__"):
                callers += [f"{path.name}: {node.name} calls {callee(call)}"
                            for call in ast.walk(node)
                            if isinstance(call, ast.Call) and callee(call) in public]
    assert callers == []
    assert {"classify", "factorize", "multiplicative_order", "totient"} <= public


def test_package_leaves_no_unused_import_or_private_name():
    """What a deletion leaves behind: no module of the package but
    ``__init__.py`` imports a name it never reads, and every module-level
    private name (a leading underscore, dunders aside) is read, or imported
    by name, somewhere in the package."""
    package = Path(radixroot.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(package.glob("*.py"))}
    read = set()  # each name the package reads, bare or as an attribute, or imports by name
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    unused, unread = [], []
    for module, tree in trees.items():
        module_reads = {node.id for node in ast.walk(tree)
                        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
        for node in ast.walk(tree):  # imports inside functions too
            if isinstance(node, (ast.Import, ast.ImportFrom)) and module != "__init__.py" \
                    and getattr(node, "module", None) != "__future__":
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
                unused += [f"{module}: {name}" for name in bound if name not in module_reads]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = {node.name}
            else:  # the names the statement stores, as an assignment's targets
                defined = {n.id for n in ast.walk(node)
                           if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            unread += [f"{module}: {name}" for name in sorted(defined - read)
                       if name.startswith("_") and not name.endswith("__")]
    assert unused == []
    assert unread == []


def test_public_surface_is_pinned():
    """``radixroot.__all__`` is exactly this list, so a name added or
    removed is a decision a test records.  perfbench/tracer.py wraps each
    function its ``LAYERS`` names, by module, and must find every one."""
    assert sorted(radixroot.__all__) == [
        "DigitRootResult", "DomainError", "Factorization", "FuzzSummary", "Kind",
        "MagicDigitResult", "Main1Report", "Main1Term", "Main2Report", "OrbitPartition",
        "ParseError", "PositionalRepr", "PreconditionError", "RadixClassification", "Rational",
        "ResidueClass", "additive_order", "classify", "convert", "digit_sum",
        "digit_sum_of_digits", "digital_root", "divisors", "factorize",
        "format_repr", "fuzz_main1", "fuzz_main2", "gcd", "gcd_class", "min_exponent",
        "multiplicative_order", "orbit", "orbit_of", "orbit_partition", "parse", "period",
        "pow_rational", "residue", "solve_missing_digit", "tf_digit_sum",
        "tf_digital_root", "to_finite", "to_repeating", "totient",
        "unit_group_is_cyclic", "units", "value_of", "verify_cor1", "verify_lemma_dr",
        "verify_main1", "verify_main2",
    ]
    # Read, not imported: the tracer is the benchmark's, and its LAYERS is a literal.
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    layers, = (ast.literal_eval(node.value)
               for node in ast.parse(tracer.read_text(encoding="utf-8")).body
               if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS")
    assert "modring" in layers and "orbit_of" in layers["modring"]
    missing = [f"{module}.{name}" for module, names in layers.items() for name in names
               if not callable(getattr(importlib.import_module(f"radixroot.{module}"), name, None))]
    assert missing == []
