"""The package surface: the README's library example runs as written, the
names ``descon`` re-exports match the ``__all__`` of their modules, the value
classes build, compare, hash, print, pickle and copy by their fields as
frozen dataclasses do, and importing the CLI leaves dataclasses, fractions,
json and csv unloaded."""

import ast
import copy
import dataclasses
import importlib
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import descon
from descon.matrices import SubsetMatrix, gamma_matrix, inverse_closed, zeta_matrix
from descon.permutations import MultisetWord, Permutation
from descon.rings import LaurentPolynomial
from descon.subsets import SubsetMask
from descon.verify import CheckResult

_ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs():
    readme = (_ROOT / "README.md").read_text(encoding="utf-8")
    library = readme[readme.index("## Library"):]
    block = re.search(r"```python\n(.*?)```", library, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_reexports_match_module_all():
    tree = ast.parse(Path(descon.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"descon.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, f"descon.{node.module}.{alias.name}"
    for path in sorted(Path(descon.__file__).parent.glob("[!_]*.py")):
        module = importlib.import_module(f"descon.{path.stem}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ lists {name!r}"


def test_cli_import_leaves_out_dataclasses_and_fractions():
    # json and csv are imported by the CLI's JSON and CSV writers only
    # a fresh interpreter, so that no other test's imports count, and
    # without site, so that no .pth file's imports count either
    code = (
        "import sys, descon.cli\n"
        "print(sorted({'dataclasses', 'inspect', 'fractions', 'json', 'csv'} & set(sys.modules)))"
    )
    src = str(Path(descon.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True, cwd=src
    )
    assert proc.stdout == "[]\n"


# each value class: an instance, its repr, its fields in order, and one
# field set to a value its validation refuses
VALUES = [
    (SubsetMask(3, 1), "SubsetMask(n=3, mask=1)", {"n": 3, "mask": 1}, {"mask": 4}),
    (MultisetWord((2, 1)), "MultisetWord(word=(2, 1))", {"word": (2, 1)}, {"word": (0, 1)}),
    (Permutation((2, 3, 1)), "Permutation(word=(2, 3, 1))", {"word": (2, 3, 1)}, {"word": (1, 1)}),
    (
        zeta_matrix(2),
        "SubsetMatrix(n=2)",
        {"n": 2, "rows": ((1, 0), (1, 1))},
        {"rows": ((1,),)},
    ),
]


def _round_trips(value):
    """Copies of a value by every pickle protocol, copy and deepcopy."""
    pickled = [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    return [*pickled, copy.copy(value), copy.deepcopy(value)]


def test_values_print_compare_and_hash_by_fields():
    for value, text, fields, _invalid in VALUES:
        cls = type(value)
        assert repr(value) == text
        assert value == cls(*fields.values()) == cls(**fields), text
        assert hash(value) == hash(cls(**fields)) == hash(tuple(fields.values())), text
        assert value != tuple(fields.values()), text
        assert value.__eq__(tuple(fields.values())) is NotImplemented, text
    assert Permutation((1, 2)) != MultisetWord((1, 2))
    assert MultisetWord((1, 2)) != Permutation((1, 2))
    assert len({Permutation((1, 2)), MultisetWord((1, 2))}) == 2


def test_values_build_by_position_or_keyword_and_validate():
    for value, text, fields, invalid in VALUES:
        cls = type(value)
        first = next(iter(fields))
        with pytest.raises(ValueError):
            cls(**dict(fields, **invalid))
        for args, kwargs in (
            ((*fields.values(),), {first: fields[first]}),  # a field given twice
            ((*fields.values(),)[1:], {}),  # one missing
            ((*fields.values(), None), {}),  # one too many
            ((), dict(fields, extra=1)),  # an unknown keyword
        ):
            with pytest.raises(TypeError):
                cls(*args, **kwargs)
    assert Permutation(word=[2, 1]).word == (2, 1)


def test_values_are_frozen():
    for value, text, fields, _invalid in VALUES:
        for name in fields:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(value, name)
        with pytest.raises(AttributeError):
            value.unknown = 1
        assert repr(value) == text


def test_values_pickle_and_copy():
    for value, text, _fields, _invalid in VALUES:
        for back in _round_trips(value):
            assert type(back) is type(value)
            assert back == value and hash(back) == hash(value) and repr(back) == text


def test_a_matrix_takes_no_ring_tag():
    # a matrix is n and its cells; the cells' type is its ring
    with pytest.raises(TypeError):
        SubsetMatrix(2, "integer", [[1, 0], [0, 1]])


def test_a_matrix_has_one_cell_type():
    # the zero that @ takes from cell (0, 0), and the ring that the CLI
    # reads there, hold for every cell
    with pytest.raises(ValueError, match="all int or all LaurentPolynomial"):
        SubsetMatrix(2, [[0, LaurentPolynomial((0, 1))], [0, LaurentPolynomial((1,))]])
    for cells in ([[1, 0], [0, True]], [[1, 0], [0, 1.0]], [[1, 0], [0, "1"]]):
        with pytest.raises(ValueError):
            SubsetMatrix(2, cells)
    assert SubsetMatrix(2, [[LaurentPolynomial((1,)), LaurentPolynomial()]] * 2).n == 2


def test_matrices_compare_by_value_whatever_the_cell_type():
    # gamma(q) times its inverse has polynomial cells, each a constant that
    # equals its int: the product is the integer identity, hash included
    product = gamma_matrix(3, q=True) @ inverse_closed("gamma", 3, q=True)
    identity = SubsetMatrix.identity(3)
    assert product == identity
    assert hash(product) == hash(identity)


def test_check_result_is_a_mutable_record():
    result = CheckResult("demo", 3, True, 0.5)
    assert result.detail == ""
    assert repr(result) == "CheckResult(name='demo', max_n=3, passed=True, seconds=0.5, detail='')"
    assert result == CheckResult(name="demo", max_n=3, passed=True, seconds=0.5, detail="")
    assert result != CheckResult("demo", 3, True, 0.5, "n=3")
    assert result != ("demo", 3, True, 0.5, "")
    result.passed, result.detail = False, "n=2"
    assert result == CheckResult("demo", 3, False, 0.5, "n=2")
    with pytest.raises(TypeError):
        hash(result)
    for back in _round_trips(result):
        assert back == result and back is not result
