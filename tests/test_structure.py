"""One site per shared facility in ``src/``.

``np.random.Philox`` and ``np.random.Generator`` may appear only inside
``sampler._uniform_stream`` (one keyed uniform stream), ``fftfreq`` only
inside ``poisson.PoissonWorkspace.__post_init__`` (one wavenumber table), a
``ThreadPoolExecutor`` is built only in ``sampler._map_chunks`` (one thread
pool), CLI flags are added only in ``cli.build_parser``, from
``cli._COMMANDS`` (one flag table), a path is opened for writing only in
``fileio._output`` (one opener), a density field is read from a file or
range-shifted only in ``densities.make_density`` (one density pipeline),
``np.mod`` wraps coordinates only in ``grid.wrap_angle`` (one general
wrap), a reader's ``FileFormatError`` gets its path only in
``fileio._reading`` (one file namer), a ``--density`` spec is told to be a
file (``.endswith(".oitf")``, ``.is_file()``) only in
``densities.names_field_file`` (one density-file rule), and the geodesic's
square-root ratio is read only in ``geodesic.GeodesicPath.amplitude`` (one
amplitude).

Every field the package transforms is real, so ``src/`` calls no
complex-input FFT (``fft2``, ``ifft2``, ``fftn``, ``ifftn``, ``fft``,
``ifft``) anywhere: one transform convention, the real half spectrum.  And
``np.fft.`` appears in no file but ``poisson.py``: one Fourier module.
``src/`` calls ``np.roll`` nowhere: every read across the periodic seam
reads ``grid._pad``, one periodic extension, and ``n_x + 2`` or ``n_y + 2``
appears in no file but ``grid.py``: one pad layout.  And only ``DiffeoMap``'s
construction pads a map's forward displacement: one padded map, whose pads
every reader gathers through.  One place forms a map's four cell-corner
determinants, ``grid._reduce_corner_dets``, with two reductions: their
minimum ``grid._corner_det`` is the one orientation test, which only
``DiffeoMap``'s construction and the build loop call, and their mean
``grid._corner_mean`` gives the cell masses, which only
``validate.inverse_law_mass`` reads.  The nodal ``_jacobian_det_arrays``
serves only the two Jacobian values, ``jacobian_det`` and the pushforward
residual.  Float text has one encoder: a ``.17g``
conversion appears in code only in ``fileio._write_csv_rows``, which every
sample, scatter and warp-mesh CSV goes through.  A command has one
contract: ``cli.main`` checks the inputs ``cli._COMMANDS`` says it needs,
and no ``cmd_*`` function nor ``_resolve_density`` raises ``UsageError``.
No line of ``src/`` imports or calls ``warnings``: the package reports
through return values, exceptions and ``cli``'s stderr lines, so a
condition such as a coarse build is flagged in one place and worded in one.
Whether two names are one file (``samefile``, ``samestat``, ``realpath``,
``fstat``, ``os.stat(``) is asked in no file but ``fileio.py``, whose
``same_file`` both ``cli`` and the output opener call: one file-identity
test.

The value types take only the data that fixes them and compute the rest:
``Density`` takes its field (its mass is computed), ``GeodesicPath`` its two
endpoints (angle and square-root ratio are computed), ``DiffeoMap`` its
displacements (its grid is theirs) and ``BinnedHistogram`` its counts (the
binning is their shape).

The package exports only what it is used through: every function in
``oitsample.__all__`` is named in ``cli.py``, in the acceptance suite or in
a README ```python block (classes, exceptions included, pass as types), and
``__init__.py`` imports exactly the names ``__all__`` lists.
"""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

import oitsample
from oitsample import BinnedHistogram, Density, DiffeoMap
from oitsample.geodesic import GeodesicPath

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# rule -> (pattern, (file name, function) of its one allowed site)
RULES = {
    "keyed-stream": (r"np\.random\.Philox|np\.random\.Generator",
                     ("sampler.py", "_uniform_stream")),
    "wavenumbers": (r"fftfreq", ("poisson.py", "__post_init__")),
    "thread-pool": (r"ThreadPoolExecutor\(", ("sampler.py", "_map_chunks")),
    "flag-table": (r"add_argument\(", ("cli.py", "build_parser")),
    "output-opener": (r"""open\(.*?,\s*(mode=)?["'][rbt+]*[wax]|\.write_(text|bytes)\(""",
                      ("fileio.py", "_output")),
    "density-pipeline": (r"(?<!def )\b(read_field_oitf|set_dynamic_range)\(",
                         ("densities.py", "make_density")),
    "general-wrap": (r"np\.mod\(", ("grid.py", "wrap_angle")),
    "file-namer": (r'FileFormatError\(f"\{path\}', ("fileio.py", "_reading")),
    "density-file-rule": (r'endswith\("\.oitf"\)|\.is_file\(\)',
                          ("densities.py", "names_field_file")),
    "geodesic-amplitude": (r"sqrt_ratio\.values", ("geodesic.py", "amplitude")),
}


def matching_lines(pattern):
    """(file name, innermost enclosing function or None, "path:line: text")
    for each line of ``src/`` that matches ``pattern``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        funcs = [f for f in ast.walk(ast.parse(text)) if isinstance(f, ast.FunctionDef)]
        for no, line in enumerate(text.splitlines(), 1):
            if re.search(pattern, line):
                # ast.walk meets outer functions first: the last match is innermost
                owner = [f.name for f in funcs if f.lineno <= no <= f.end_lineno]
                found.append((path.name, owner[-1] if owner else None,
                              f"{path}:{no}: {line.strip()}"))
    return found


@pytest.mark.parametrize("rule", sorted(RULES))
def test_one_site(rule):
    pattern, allowed = RULES[rule]
    found = matching_lines(pattern)
    assert any((name, owner) == allowed for name, owner, _ in found)
    assert [where for name, owner, where in found if (name, owner) != allowed] == []


def test_no_complex_input_transform():
    assert [where for _, _, where in matching_lines(r"\bi?fft[2n]?\(")] == []


def test_one_fourier_module():
    found = matching_lines(r"np\.fft\.")
    assert any(name == "poisson.py" for name, _, _ in found)
    assert [where for name, _, where in found if name != "poisson.py"] == []


def test_one_periodic_extension():
    assert [where for _, _, where in matching_lines(r"np\.roll\(")] == []


def test_no_python_warning():
    assert [where for _, _, where in
            matching_lines(r"\bimport warnings\b|\bfrom warnings\b|\bwarnings\.")] == []


def test_one_file_identity():
    """Whether two names are one file is decided only in ``fileio``, by
    ``fileio.same_file``."""
    found = matching_lines(r"samefile|samestat|realpath|fstat|os\.stat\(")
    assert any(name == "fileio.py" for name, _, _ in found)
    assert [where for name, _, where in found if name != "fileio.py"] == []


def test_one_pad_layout():
    found = matching_lines(r"n_[xy] \+ 2")
    assert any(name == "grid.py" for name, _, _ in found)
    assert [where for name, _, where in found if name != "grid.py"] == []


def pads_of_a_map_displacement():
    """(file name, function) of each function in ``src/`` with a ``_pad(``
    call whose argument reads a ``.disp`` attribute, directly or through a
    local name assigned from one; methods are named ``Class.method``."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
        funcs += [(f"{c.name}.{f.name}", f) for c in tree.body if isinstance(c, ast.ClassDef)
                  for f in c.body if isinstance(f, ast.FunctionDef)]
        for name, func in funcs:
            nodes = list(ast.walk(func))
            tainted: set[str] = set()

            def reads_disp(expr):
                return any(isinstance(n, ast.Attribute) and n.attr == "disp"
                           or isinstance(n, ast.Name) and n.id in tainted
                           for n in ast.walk(expr))

            while True:  # names assigned from .disp, or from such a name
                more = {n.id for node in nodes
                        if isinstance(node, ast.Assign) and reads_disp(node.value)
                        for target in node.targets for n in ast.walk(target)
                        if isinstance(n, ast.Name)}
                if more <= tainted:
                    break
                tainted |= more
            if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                   and node.func.id == "_pad" and any(map(reads_disp, node.args))
                   for node in nodes):
                found.append((path.name, name))
    return found


def test_one_padded_map():
    assert pads_of_a_map_displacement() == [("grid.py", "DiffeoMap.__post_init__")]


def call_sites(name):
    return {(file, owner) for file, owner, _ in matching_lines(rf"(?<!def )\b{name}\(")}


def test_one_command_contract():
    """``cli.main`` checks what each command needs, from ``cli._COMMANDS``:
    no command function and not ``_resolve_density`` raises ``UsageError``,
    so a command runs only once its contract holds."""
    assert [(owner, where) for name, owner, where in matching_lines(r"raise UsageError\b")
            if name == "cli.py" and owner is not None
            and (owner.startswith("cmd_") or owner == "_resolve_density")] == []


def test_one_fold_test():
    assert call_sites("_reduce_corner_dets") == {("grid.py", "_corner_det"),
                                                 ("grid.py", "_corner_mean")}
    assert call_sites("_corner_det") == {("grid.py", "__post_init__"),
                                         ("transport.py", "_integrate")}
    assert call_sites("_corner_mean") == {("validate.py", "inverse_law_mass")}
    assert call_sites("_jacobian_det_arrays") == {("grid.py", "jacobian_det"),
                                                  ("transport.py", "pushforward_residual")}


def float_text_sites():
    """(file name, innermost enclosing function) of each string constant in
    ``src/`` code that holds a ``.17g`` conversion; a string that stands
    alone as a statement (a docstring) is not code, nor is a comment."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text())
        funcs = [f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef)]
        docs = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Expr)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Constant) and isinstance(node.value, (str, bytes))
                    and ".17g" in str(node.value) and id(node) not in docs):
                # ast.walk meets outer functions first: the last match is innermost
                owner = [f.name for f in funcs if f.lineno <= node.lineno <= f.end_lineno]
                found.append((path.name, owner[-1] if owner else None))
    return found


def test_one_csv_float_encoder():
    assert set(float_text_sites()) == {("fileio.py", "_write_csv_rows")}


# value type -> its constructor fields, in order
INIT_FIELDS = {
    Density: ("field",),
    GeodesicPath: ("mu0", "mu1"),
    DiffeoMap: ("disp", "inv_disp"),
    BinnedHistogram: ("counts",),
}


@pytest.mark.parametrize("cls", INIT_FIELDS, ids=lambda cls: cls.__name__)
def test_value_types_take_only_their_data(cls):
    assert tuple(f.name for f in dataclasses.fields(cls) if f.init) == INIT_FIELDS[cls]


def caller_text():
    """The CLI, the acceptance suite and the README's python blocks."""
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(),
                        re.S | re.M)
    files = (SRC / "oitsample" / "cli.py", ROOT / "tests" / "test_acceptance.py")
    return "\n".join([path.read_text() for path in files] + blocks)


def test_every_export_has_a_caller():
    text = caller_text()
    uncalled = [name for name in oitsample.__all__
                if not isinstance(getattr(oitsample, name), type)
                and not re.search(rf"\b{name}\b", text)]
    assert uncalled == []


def test_init_imports_are_all():
    tree = ast.parse((SRC / "oitsample" / "__init__.py").read_text())
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(imported) == sorted(oitsample.__all__)
