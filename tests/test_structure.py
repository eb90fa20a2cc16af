"""One site per shared facility in ``src/``.

``np.random.Philox`` and ``np.random.Generator`` may appear only inside
``sampler._uniform_stream`` (one keyed uniform stream), ``fftfreq`` only
inside ``grid._wavenumbers`` (one wavenumber table), a ``ThreadPoolExecutor``
is built only in ``sampler._map_chunks`` (one thread pool), CLI flags are
added only in ``cli.build_parser``, from ``cli._COMMANDS`` (one flag table),
a path is opened for writing only in ``fileio._output`` (one opener), and a
density field is read from a file or range-shifted only in
``densities.make_density`` (one density pipeline).
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# rule -> (pattern, (file name, function) of its one allowed site)
RULES = {
    "keyed-stream": (r"np\.random\.Philox|np\.random\.Generator",
                     ("sampler.py", "_uniform_stream")),
    "wavenumbers": (r"fftfreq", ("grid.py", "_wavenumbers")),
    "thread-pool": (r"ThreadPoolExecutor\(", ("sampler.py", "_map_chunks")),
    "flag-table": (r"add_argument\(", ("cli.py", "build_parser")),
    "output-opener": (r"""open\(.*?,\s*(mode=)?["'][rbt+]*[wax]|\.write_(text|bytes)\(""",
                      ("fileio.py", "_output")),
    "density-pipeline": (r"(?<!def )\b(read_field_oitf|set_dynamic_range)\(",
                         ("densities.py", "make_density")),
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
