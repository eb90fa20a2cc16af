import ast
import inspect
import os
import stat
import subprocess
import sys
import textwrap
import threading
import warnings
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from oitsample import fileio
from oitsample.cli import _COMMANDS, _KEY_TYPES, RunConfig, build_parser, main, parse_config_text
from oitsample.fileio import (
    read_map_oitm,
    read_samples_csv,
    write_field_oitf,
    write_samples_csv,
    write_samples_oitf,
)
from oitsample import PeriodicGrid, ScalarField, sample_target
from oitsample.grid import _POINT_BLOCK
from conftest import nan_velocities, singular_newton_diff


def run(*args):
    return main(list(args))


def run_process(*args, stdout=subprocess.PIPE, stderr=subprocess.PIPE):
    """The CLI as a child process whose stdout and stderr are pipes, or the
    open files given, which it inherits as a shell's ``>`` or ``>>`` gives
    them."""
    src = str(Path(fileio.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "oitsample.cli", *args], stdout=stdout,
                          stderr=stderr, env={**os.environ, "PYTHONPATH": path}, check=False)


def assert_left_as_it_was(out, before):
    """``out`` holds ``before`` (None: ``out`` does not exist), and nothing
    else is left beside it."""
    assert os.listdir(out.parent) == ([] if before is None else [out.name])
    if before is not None:
        assert out.read_bytes() == before


def write_through_symlink(tmp_path, write, target_exists):
    """Call ``write(link)`` on a link to data/target, which may be an
    existing file of mode 0640.  The link must stay a link, the target keep
    its permission bits, and no other file appear beside it.  Returns the
    target's bytes."""
    target = tmp_path / "data" / "target"
    target.parent.mkdir()
    if target_exists:
        target.write_bytes(b"old")
        target.chmod(0o640)
    link = tmp_path / "link"
    link.symlink_to(target)
    write(link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    if target_exists:
        assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert os.listdir(target.parent) == [target.name]
    return target.read_bytes()


def read_through_fifo(path, write):
    """The bytes a reader of a FIFO made at ``path`` gets while
    ``write(path)`` runs; the FIFO must stay a FIFO."""
    os.mkfifo(path)
    got = []

    def read_all():
        with open(path, "rb") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=read_all, daemon=True)
    reader.start()
    write(path)
    reader.join(60)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(os.stat(path).st_mode)
    return got[0]


@pytest.fixture(scope="module")
def sine_map(tmp_path_factory):
    """Small prebuilt map shared by the CLI tests."""
    path = tmp_path_factory.mktemp("maps") / "sine.oitm"
    code = run("build", "--density", "sine-perturbation:0.4", "--grid", "64",
               "--steps", "10", "--out", str(path))
    assert code == 0
    return path


class TestConfig:
    def test_parse_rejects_unknown_keys(self):
        from oitsample.cli import UsageError
        with pytest.raises(UsageError):
            parse_config_text("nope=1\n")

    @pytest.mark.parametrize("text", ["\n", "   \n", "# a comment\n", "  # indented\n"])
    def test_blank_and_comment_lines_are_skipped(self, text):
        assert parse_config_text(f"{text}grid=16\n{text}") == {"grid": 16}

    @pytest.mark.parametrize("line", ["grid 16", "=16"])
    def test_line_without_key_and_equals_sign(self, line):
        from oitsample.cli import UsageError
        with pytest.raises(UsageError) as info:
            parse_config_text(f"steps=2\n{line}\n")
        assert str(info.value) == f"config line 2: expected key=value, got {line!r}"

    def test_config_file_with_flag_override(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("density=sine-perturbation:0.4\ngrid=64\nsteps=4\nseed=9\n")
        out = tmp_path / "map.oitm"
        code = run("build", "--config", str(conf), "--steps", "6", "--out", str(out))
        assert code == 0
        _, meta = read_map_oitm(out)
        assert meta.steps == 6  # flag wins over config file

    def test_out_key_would_overwrite_the_map(self, sine_map, tmp_path, capsys):
        """One file with map= and out= for build and sample: sample would
        write its CSV over the map it read."""
        shared = tmp_path / "run.oitm"
        shared.write_bytes(sine_map.read_bytes())
        conf = tmp_path / "run.conf"
        conf.write_text(f"map={shared}\nout={shared}\nn=100\n")
        assert run("sample", "--config", str(conf)) == 1
        assert "config line 2: pass --out as a flag" in capsys.readouterr().err
        assert shared.read_bytes() == sine_map.read_bytes()

    def test_table_key_would_overwrite_the_table(self, sine_map, tmp_path, capsys):
        """One file with table= for two validate runs: the second would
        write its per-bin table over the first one's."""
        table = tmp_path / "bins.csv"
        table.write_bytes(b"old")
        conf = tmp_path / "run.conf"
        conf.write_text(f"map={sine_map}\ndensity=sine-perturbation:0.4\nn=1000\n"
                        f"bins=16\ntable={table}\n")
        assert run("validate", "--config", str(conf), "--out", str(tmp_path / "r.txt")) == 1
        assert "config line 5: pass --table as a flag" in capsys.readouterr().err
        assert table.read_bytes() == b"old"

    def test_samples_key_is_the_csv_export_reads(self, sine_map, tmp_path):
        pts = tmp_path / "pts.csv"
        assert run("sample", "--map", str(sine_map), "--n", "100", "--out", str(pts)) == 0
        conf = tmp_path / "run.conf"
        conf.write_text(f"samples={pts}\nn=10\n")
        sub = tmp_path / "sub.csv"
        assert run("export", "--config", str(conf), "--out", str(sub)) == 0
        assert np.array_equal(read_samples_csv(sub), read_samples_csv(pts)[:10])


class TestBuild:
    def test_uniform_is_identity(self, tmp_path):
        out = tmp_path / "uniform.oitm"
        code = run("build", "--density", "uniform", "--grid", "32", "--steps", "5",
                   "--out", str(out))
        assert code == 0
        mapping, meta = read_map_oitm(out)
        assert np.all(mapping.disp.u_x.values == 0.0)
        assert np.all(mapping.disp.u_y.values == 0.0)
        assert meta.residual <= 1e-10

    def test_zero_steps_is_usage_error(self, tmp_path):
        code = run("build", "--density", "uniform", "--grid", "32", "--steps", "0",
                   "--out", str(tmp_path / "x.oitm"))
        assert code == 1

    def test_unknown_density_is_usage_error(self, tmp_path):
        code = run("build", "--density", "nonesuch", "--grid", "32", "--steps", "2",
                   "--out", str(tmp_path / "x.oitm"))
        assert code == 1

    def test_missing_out_is_usage_error(self):
        assert run("build", "--density", "uniform") == 1

    def test_empty_density_parameter_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x.oitm"
        assert run("build", "--density", "two-bump:", "--grid", "16", "--steps", "2",
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            "error: density 'two-bump' takes no parameter, got ''\n")
        assert not out.exists()

    def test_overflowing_ratio_names_a_plain_float(self, tmp_path, capsys):
        """The range shift underflows the floor to 0; the error prints it as
        ``0.0`` under every numpy."""
        assert run("build", "--density", "two-bump", "--ratio", "1e300", "--grid", "16",
                   "--steps", "2", "--out", str(tmp_path / "x.oitm")) == 1
        assert capsys.readouterr().err == "error: field has non-positive value 0.0\n"

    def test_orientation_loss_is_exit_two(self, tmp_path):
        code = run("build", "--density", "two-bump", "--grid", "64", "--steps", "1",
                   "--out", str(tmp_path / "x.oitm"))
        assert code == 2

    def test_numerical_blowup_is_exit_two(self, tmp_path, monkeypatch, capsys):
        import oitsample.transport as transport

        monkeypatch.setattr(transport, "_solve_gradient", nan_velocities)
        out = tmp_path / "x.oitm"
        assert run("build", "--density", "two-bump", "--grid", "16", "--steps", "2",
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "numerical failure: numerical blow-up at step 0: velocity field is not finite\n")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_newton_jacobian_is_exit_two(self, tmp_path, monkeypatch, capsys):
        import oitsample.transport as transport

        monkeypatch.setattr(transport, "_central_diff", singular_newton_diff)
        out = tmp_path / "x.oitm"
        assert run("build", "--density", "sine-perturbation", "--grid", "16", "--steps", "2",
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "numerical failure: numerical blow-up at step 0: "
            "forward-map Newton Jacobian is singular or not finite\n")
        assert not out.exists()

    def test_fold_between_nodes_is_exit_two(self, tmp_path, capsys):
        """At ratio 300 the forward map's bilinear interpolant folds at step
        98 of 100 while its nodal determinant stays positive; the CFL number
        is about 0.18, so the error does not advise more steps, and no map
        is written."""
        out = tmp_path / "x.oitm"
        assert run("build", "--density", "two-bump", "--ratio", "300", "--grid", "64",
                   "--steps", "100", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: orientation lost at step 98 "
                              "(t = 0.990, CFL 0.182)")
        assert "try more time steps" not in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_residual_above_tolerance_warns_on_stderr(self, tmp_path, capsys):
        """A coarse build that misses the residual tolerance still writes its
        map and exits 0, and says so on stderr in one line, worded here and
        nowhere else: the library only sets ``residual_above_tol``.  The
        stdout report is as for any build."""
        out = tmp_path / "coarse.oitm"
        code = run("build", "--density", "two-bump", "--grid", "64", "--steps", "12",
                   "--out", str(out))
        assert code == 0
        captured = capsys.readouterr()
        residual = read_map_oitm(out)[1].residual
        assert f"residual: {residual:.6e}\n" in captured.out
        assert captured.err == (
            f"warning: residual {residual:.6e} above tolerance 5.000000e-02\n")

    def test_other_runtime_warnings_pass(self, tmp_path, monkeypatch):
        from oitsample import cli

        real = cli.build_transport_map

        def noisy(target, tcfg):
            warnings.warn("something else", RuntimeWarning)
            return real(target, tcfg)

        monkeypatch.setattr(cli, "build_transport_map", noisy)
        with pytest.warns(RuntimeWarning, match="something else"):
            assert run("build", "--density", "uniform", "--grid", "16", "--steps", "2",
                       "--out", str(tmp_path / "u.oitm")) == 0

    def test_default_build_prints_no_warning(self, tmp_path, capsys):
        assert run("build", "--density", "two-bump", "--out", str(tmp_path / "m.oitm")) == 0
        assert "warning:" not in capsys.readouterr().err

    def test_density_from_oitf_file(self, tmp_path):
        g = PeriodicGrid(32, 32)
        f = ScalarField.from_function(g, lambda x, y: 1.0 + 0.3 * np.cos(y))
        field_path = tmp_path / "target.oitf"
        write_field_oitf(field_path, f)
        out = tmp_path / "m.oitm"
        code = run("build", "--density", str(field_path), "--grid", "32",
                   "--steps", "8", "--out", str(out))
        assert code == 0
        _, meta = read_map_oitm(out)
        assert meta.density_id == "target.oitf"

    def test_density_file_id_records_the_ratio(self, tmp_path):
        g = PeriodicGrid(32, 32)
        field_path = tmp_path / "t.oitf"
        write_field_oitf(field_path, ScalarField.from_function(g, lambda x, y: 2.0 + np.cos(y)))
        out = tmp_path / "m.oitm"
        assert run("build", "--density", str(field_path), "--ratio", "3", "--grid", "32",
                   "--steps", "8", "--out", str(out)) == 0
        assert read_map_oitm(out)[1].density_id == "t.oitf@ratio=3.0"

    def test_density_file_brings_its_own_grid(self, tmp_path):
        """--grid sizes built-ins only: a 32x32 field builds a 32x32 map
        without it, and the same map with any --grid."""
        field_path = tmp_path / "t32.oitf"
        write_field_oitf(field_path, ScalarField.from_function(
            PeriodicGrid(32, 32), lambda x, y: 1.0 + 0.3 * np.cos(y)))
        maps = []
        for grid in ((), ("--grid", "32"), ("--grid", "64")):
            out = tmp_path / f"m{len(maps)}.oitm"
            assert run("build", "--density", str(field_path), "--steps", "4", *grid,
                       "--out", str(out)) == 0
            maps.append(out.read_bytes())
        assert read_map_oitm(out)[0].grid == PeriodicGrid(32, 32)
        assert maps[0] == maps[1] == maps[2]

    def test_builtin_name_is_not_shadowed_by_a_file(self, tmp_path, monkeypatch):
        """A file named like a built-in in the working directory does not
        stand in for it."""
        monkeypatch.chdir(tmp_path)
        write_field_oitf("uniform", ScalarField.constant(PeriodicGrid(8, 8), 1.0))
        code = run("build", "--density", "uniform", "--grid", "32", "--steps", "2",
                   "--out", "m.oitm")
        assert code == 0
        mapping, meta = read_map_oitm("m.oitm")
        assert meta.density_id == "uniform"
        assert np.all(mapping.disp.u_x.values == 0.0)


class TestSample:
    def test_deterministic_csv(self, sine_map, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code = run("sample", "--map", str(sine_map), "--n", "500", "--seed", "12",
                       "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "oitf"])
    def test_reports_write_time_after_sampling_time(self, sine_map, tmp_path, capsys, fmt):
        code = run("sample", "--map", str(sine_map), "--n", "100", "--seed", "1",
                   "--out", str(tmp_path / "pts"), "--format", fmt)
        assert code == 0
        keys = [line.partition(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert keys[keys.index("sampling_time_s") + 1] == "write_time_s"

    def test_negative_n_is_usage_error(self, sine_map, tmp_path):
        code = run("sample", "--map", str(sine_map), "--n", "-5",
                   "--out", str(tmp_path / "x.csv"))
        assert code == 1

    def test_corrupt_map_is_config_error(self, tmp_path):
        bad = tmp_path / "bad.oitm"
        bad.write_bytes(b"garbage")
        code = run("sample", "--map", str(bad), "--n", "10",
                   "--out", str(tmp_path / "x.csv"))
        assert code == 1

    def test_missing_map_file(self, tmp_path):
        code = run("sample", "--map", str(tmp_path / "none.oitm"), "--n", "10",
                   "--out", str(tmp_path / "x.csv"))
        assert code == 1

    def test_oitf_format(self, sine_map, tmp_path):
        out = tmp_path / "pts.oitf"
        code = run("sample", "--map", str(sine_map), "--n", "100", "--seed", "1",
                   "--out", str(out), "--format", "oitf")
        assert code == 0
        from oitsample.fileio import read_samples_oitf
        assert read_samples_oitf(out).shape == (100, 2)

    def test_zero_workers_is_config_error(self, sine_map, tmp_path):
        out = tmp_path / "x.csv"
        code = run("sample", "--map", str(sine_map), "--n", "10",
                   "--out", str(out), "--workers", "0")
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "oitf"])
    def test_stdout_out_holds_only_the_samples(self, sine_map, tmp_path, fmt):
        """With --out /dev/stdout the samples are the whole of stdout, byte for
        byte the file the same command writes to a path; the report goes to
        stderr."""
        args = ["sample", "--map", str(sine_map), "--n", "300", "--seed", "4", "--format", fmt]
        ref = tmp_path / f"ref.{fmt}"
        assert run(*args, "--out", str(ref)) == 0
        done = run_process(*args, "--out", "/dev/stdout")
        assert done.returncode == 0
        assert done.stdout == ref.read_bytes()
        report = done.stderr.decode().splitlines()
        assert report[0] == "samples: 300" and report[-1] == "out: /dev/stdout"

    def test_workers_do_not_change_bytes(self, sine_map, tmp_path):
        a = tmp_path / "w1.csv"
        b = tmp_path / "w4.csv"
        run("sample", "--map", str(sine_map), "--n", "2000", "--seed", "3",
            "--out", str(a), "--workers", "1")
        run("sample", "--map", str(sine_map), "--n", "2000", "--seed", "3",
            "--out", str(b), "--workers", "4")
        assert a.read_bytes() == b.read_bytes()


class TestRedirectedStandardStream:
    """An output that is the command's own stdout or stderr, redirected by
    the shell to a regular file, is written through the shell's descriptor,
    not replaced: ``>>`` appends, a later write to the same redirect stays,
    and a failed command leaves the file as it was."""

    @pytest.fixture(params=["csv", "oitf"])
    def sample(self, request, sine_map, tmp_path):
        """(sample arguments but --out, the bytes they write to a path)."""
        args = ["sample", "--map", str(sine_map), "--n", "300", "--seed", "4",
                "--format", request.param]
        ref = tmp_path / "ref"
        assert run(*args, "--out", str(ref)) == 0
        return args, ref.read_bytes()

    def test_append_keeps_the_earlier_bytes(self, sample, tmp_path):
        args, ref = sample
        log = tmp_path / "log"
        log.write_bytes(b"kept\n")
        with open(log, "ab") as fh:
            done = run_process(*args, "--out", "/dev/stdout", stdout=fh)
        assert done.returncode == 0
        assert log.read_bytes() == b"kept\n" + ref
        assert done.stderr.decode().splitlines()[-1] == "out: /dev/stdout"
        assert sorted(os.listdir(tmp_path)) == ["log", "ref"]

    def test_a_later_write_to_the_redirect_stays(self, sample, tmp_path):
        """As in ``{ oitsample sample ... --out /dev/stdout; echo after; } > grp``."""
        args, ref = sample
        grp = tmp_path / "grp"
        with open(grp, "wb") as fh:
            assert run_process(*args, "--out", "/dev/stdout", stdout=fh).returncode == 0
            os.write(fh.fileno(), b"after\n")
        assert grp.read_bytes() == ref + b"after\n"

    def test_stderr_append_keeps_the_earlier_bytes(self, sample, tmp_path):
        args, ref = sample
        log = tmp_path / "log"
        log.write_bytes(b"kept\n")
        with open(log, "ab") as fh:
            done = run_process(*args, "--out", "/dev/stderr", stderr=fh)
        assert done.returncode == 0
        assert log.read_bytes() == b"kept\n" + ref
        assert done.stdout.decode().splitlines()[-1] == "out: /dev/stderr"

    def test_the_report_follows_the_output_under_2_and_1(self, sample, tmp_path):
        args, ref = sample
        both = tmp_path / "both"
        with open(both, "wb") as fh:
            done = run_process(*args, "--out", "/dev/stdout", stdout=fh,
                               stderr=subprocess.STDOUT)
        assert done.returncode == 0
        text = both.read_bytes()
        assert text[:len(ref)] == ref
        report = text[len(ref):].decode().splitlines()
        assert report[0] == "samples: 300" and report[-1] == "out: /dev/stdout"

    def test_out_naming_the_redirect_target_gets_the_samples(self, sample, tmp_path):
        args, ref = sample
        out = tmp_path / "out"
        with open(out, "wb") as fh:
            done = run_process(*args, "--out", str(out), stdout=fh)
        assert done.returncode == 0
        assert out.read_bytes() == ref
        assert done.stderr.decode().splitlines()[-1] == f"out: {out}"

    def test_a_failed_command_leaves_the_redirect_as_it_was(self, sine_map, tmp_path):
        """The table is complete when the report cannot be opened: no byte
        of it may reach stdout's file."""
        log = tmp_path / "log"
        log.write_bytes(b"kept\n")
        with open(log, "ab") as fh:
            done = run_process("validate", "--map", str(sine_map), "--density",
                               "sine-perturbation:0.4", "--n", "1000", "--bins", "8",
                               "--out", str(tmp_path / "none" / "r.txt"),
                               "--table", "/dev/stdout", stdout=fh)
        assert done.returncode == 1
        assert done.stderr.decode().startswith("error: [Errno 2] No such file or directory")
        assert_left_as_it_was(log, b"kept\n")


class TestSampleStreaming:
    """sample writes each chunk as the sampling driver emits it, into a
    temporary file beside --out that replaces --out after the last chunk."""

    B = _POINT_BLOCK

    @pytest.fixture
    def wavy_cli(self, monkeypatch, wavy_map):
        """sample pushes its points through the wrapping wavy map, whatever
        --map names."""
        from oitsample import cli

        monkeypatch.setattr(cli.fileio, "read_map_oitm", lambda path: (wavy_map, None))
        return wavy_map

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    @pytest.mark.parametrize("fmt", ["csv", "oitf"])
    def test_bytes_equal_the_whole_batch_writers(self, wavy_cli, tmp_path, fmt, n, workers):
        out = tmp_path / f"pts.{fmt}"
        code = run("sample", "--map", "wavy.oitm", "--n", str(n), "--seed", "17",
                   "--format", fmt, "--workers", str(workers), "--out", str(out))
        assert code == 0
        ref = tmp_path / f"ref.{fmt}"
        writer = write_samples_csv if fmt == "csv" else write_samples_oitf
        writer(ref, sample_target(wavy_cli, n, seed=17))
        assert out.read_bytes() == ref.read_bytes()
        assert sorted(os.listdir(tmp_path)) == sorted([out.name, ref.name])

    @pytest.mark.parametrize("before", [None, b"x,y\n0.5,0.25\n"])
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("fmt", ["csv", "oitf"])
    def test_a_failed_chunk_leaves_out_as_it_was(self, wavy_cli, monkeypatch, tmp_path,
                                                 fmt, workers, before):
        """Chunks 0-2 are written when chunk 3 raises: neither they nor a
        zero-filled rest may reach --out."""
        import oitsample.sampler as sampler

        transform = sampler._transform_chunk
        lock = threading.Lock()
        calls = []

        def failing_transform(mapping, pts, out):
            with lock:
                calls.append(len(pts))
                k = len(calls) - 1
            if k == 3:
                raise RuntimeError("chunk 3 failed")
            transform(mapping, pts, out)

        monkeypatch.setattr(sampler, "_transform_chunk", failing_transform)
        out = tmp_path / "pts.out"
        if before is not None:
            out.write_bytes(before)
        with pytest.raises(RuntimeError, match="chunk 3 failed"):
            run("sample", "--map", "wavy.oitm", "--n", str(6 * self.B), "--seed", "2",
                "--format", fmt, "--workers", str(workers), "--out", str(out))
        assert_left_as_it_was(out, before)

    def test_missing_directory_is_named_as_out(self, sine_map, tmp_path, capsys):
        out = tmp_path / "none" / "pts.csv"
        assert run("sample", "--map", str(sine_map), "--n", "10", "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{out}'\n")

    @pytest.mark.parametrize("fmt", ["csv", "oitf"])
    def test_negative_n_leaves_out_as_it_was(self, sine_map, tmp_path, fmt):
        out = tmp_path / "pts.out"
        out.write_bytes(b"old")
        assert run("sample", "--map", str(sine_map), "--n", "-5", "--format", fmt,
                   "--out", str(out)) == 1
        assert os.listdir(tmp_path) == [out.name]
        assert out.read_bytes() == b"old"

    @pytest.mark.parametrize("target_exists", [True, False])
    def test_symlinked_out_replaces_its_target(self, wavy_cli, tmp_path, target_exists):
        """The link stays a link; the file it names gets the samples and
        keeps its permission bits."""
        def write(link):
            assert run("sample", "--map", "wavy.oitm", "--n", "1000", "--seed", "5",
                       "--out", str(link)) == 0

        got = write_through_symlink(tmp_path, write, target_exists)
        ref = tmp_path / "ref.csv"
        write_samples_csv(ref, sample_target(wavy_cli, 1000, seed=5))
        assert got == ref.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "oitf"])
    def test_pipe_out_is_written_in_place(self, wavy_cli, tmp_path, fmt):
        """A FIFO is not a regular file: sample opens it and writes through it,
        as a plain open would, and the FIFO stays a FIFO."""
        n = 2 * self.B + 3

        def write(fifo):
            assert run("sample", "--map", "wavy.oitm", "--n", str(n), "--seed", "6",
                       "--format", fmt, "--workers", "2", "--out", str(fifo)) == 0

        got = read_through_fifo(tmp_path / f"pts.{fmt}", write)
        ref = tmp_path / "ref"
        writer = write_samples_csv if fmt == "csv" else write_samples_oitf
        writer(ref, sample_target(wavy_cli, n, seed=6))
        assert got == ref.read_bytes()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("fmt", ["csv", "oitf"])
    def test_peak_memory_stays_below_a_whole_batch(self, sine_map, tmp_path, fmt, workers):
        """2^20 points are a 16 MiB batch.  Streamed, the peak is a few chunks
        of 512 KiB.  Serially it stays under 4 MB: one chunk in the map
        evaluation (about 3 MB of draws, copies, stencil and gather
        temporaries) or in the writer.  At 2 workers two chunks are in the map
        evaluation at once and finished chunks wait for the writer, which
        takes about twice that, so only the whole batch bounds it."""
        import tracemalloc

        tracemalloc.start()
        try:
            code = run("sample", "--map", str(sine_map), "--n", str(1 << 20), "--seed", "3",
                       "--format", fmt, "--workers", str(workers),
                       "--out", str(tmp_path / f"pts.{fmt}"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < (4_000_000 if workers == 1 else 16 << 20)


class _WriteThenRaise:
    """A file whose first write goes through and then raises."""

    def __init__(self, fh):
        self._fh = fh

    def __getattr__(self, name):
        return getattr(self._fh, name)

    def write(self, data):
        self._fh.write(data)
        raise RuntimeError("write failed")


class TestWholeOrUntouched:
    """Every other file the package writes reaches its path as sample's
    output does: whole or not at all, through a symlink into its target,
    and in place into a FIFO."""

    @pytest.fixture(scope="class")
    def scatter_input(self, sine_map, tmp_path_factory):
        pts = tmp_path_factory.mktemp("scatter") / "pts.csv"
        assert run("sample", "--map", str(sine_map), "--n", "1000", "--out", str(pts)) == 0
        return pts

    @pytest.fixture(params=["build", "field", "validate-report", "validate-table",
                            "export-mesh", "export-heatmap", "export-scatter"])
    def write(self, request, sine_map, scatter_input):
        """``write(path)`` writes one kind of file to ``path``."""
        if request.param == "field":
            grid = PeriodicGrid(8, 8)
            field = ScalarField.from_function(grid, lambda x, y: 1.0 + 0.3 * np.cos(y))
            return lambda path: write_field_oitf(path, field)
        validate = ("validate", "--map", str(sine_map), "--density", "sine-perturbation:0.4",
                    "--n", "1000", "--seed", "2", "--bins", "8")
        args = {
            "build": ("build", "--density", "sine-perturbation:0.4", "--grid", "16",
                      "--steps", "4", "--out"),
            "validate-report": validate + ("--out",),
            "validate-table": validate + ("--table",),
            "export-mesh": ("export", "--map", str(sine_map), "--out"),
            "export-heatmap": ("export", "--density", "sine-perturbation:0.4", "--grid", "32",
                               "--out"),
            "export-scatter": ("export", "--samples", str(scatter_input), "--n", "100",
                               "--out"),
        }[request.param]

        def write(path):
            assert run(*args, str(path)) == 0

        return write

    @pytest.mark.parametrize("before", [None, b"old"])
    def test_a_failed_write_leaves_out_as_it_was(self, write, monkeypatch, tmp_path, before):
        """The first bytes are written when the write raises: they must not
        reach the path."""
        output = fileio._output

        @contextmanager
        def failing_output(path):
            with output(path) as fh:
                yield _WriteThenRaise(fh)

        monkeypatch.setattr(fileio, "_output", failing_output)
        out = tmp_path / "out"
        if before is not None:
            out.write_bytes(before)
        with pytest.raises(RuntimeError, match="write failed"):
            write(out)
        assert_left_as_it_was(out, before)

    @pytest.mark.parametrize("target_exists", [True, False])
    def test_symlinked_out_replaces_its_target(self, write, tmp_path, target_exists):
        got = write_through_symlink(tmp_path, write, target_exists)
        write(tmp_path / "ref")
        assert got == (tmp_path / "ref").read_bytes()

    def test_pipe_out_is_written_in_place(self, write, tmp_path):
        got = read_through_fifo(tmp_path / "fifo", write)
        write(tmp_path / "ref")
        assert got == (tmp_path / "ref").read_bytes()

    @pytest.mark.parametrize("before", [None, b"old"])
    def test_a_table_that_cannot_be_opened_leaves_the_report(self, sine_map, tmp_path,
                                                            capsys, before):
        """validate writes its report and table as one: when --table cannot
        be opened, --out is not replaced and no report is printed."""
        out = tmp_path / "report" / "r.txt"
        out.parent.mkdir()
        if before is not None:
            out.write_bytes(before)
        table = tmp_path / "none" / "t.csv"
        assert run("validate", "--map", str(sine_map), "--density", "sine-perturbation:0.4",
                   "--n", "1000", "--bins", "8", "--out", str(out), "--table", str(table)) == 1
        assert capsys.readouterr() == (
            "", f"error: [Errno 2] No such file or directory: '{table}'\n")
        assert_left_as_it_was(out, before)


class TestValidate:
    def test_sine_map_passes(self, sine_map, tmp_path):
        report = tmp_path / "report.txt"
        code = run("validate", "--map", str(sine_map), "--density",
                   "sine-perturbation:0.4", "--n", "20000", "--seed", "2",
                   "--bins", "16", "--out", str(report))
        assert code == 0
        text = report.read_text()
        assert "result: pass" in text
        assert "gof_p_value:" in text

    def test_wrong_density_fails_with_exit_three(self, sine_map, tmp_path):
        code = run("validate", "--map", str(sine_map), "--density",
                   "sine-perturbation:0.9", "--n", "20000", "--seed", "2",
                   "--bins", "16", "--out", str(tmp_path / "r.txt"))
        assert code == 3

    def test_bin_resolution_mismatch(self, sine_map, tmp_path):
        code = run("validate", "--map", str(sine_map), "--density",
                   "sine-perturbation:0.4", "--n", "1000", "--bins", "48",
                   "--out", str(tmp_path / "r.txt"))
        assert code == 1

    def test_empty_sample_names_the_empty_histogram(self, sine_map, tmp_path, capsys):
        out = tmp_path / "r.txt"
        code = run("validate", "--map", str(sine_map), "--density",
                   "sine-perturbation:0.4", "--n", "0", "--bins", "16", "--out", str(out))
        assert code == 1
        assert capsys.readouterr().err == (
            "error: goodness-of-fit test needs a nonempty histogram\n")
        assert not out.exists()

    def test_stdout_out_holds_the_report_once(self, sine_map, tmp_path):
        args = ["validate", "--map", str(sine_map), "--density", "sine-perturbation:0.4",
                "--n", "2000", "--seed", "2", "--bins", "16"]
        ref = tmp_path / "r.txt"
        assert run(*args, "--out", str(ref)) == 0
        done = run_process(*args, "--out", "/dev/stdout")
        assert done.returncode == 0
        assert done.stdout == ref.read_bytes() == done.stderr

    def test_stdout_table_holds_only_the_table(self, sine_map, tmp_path):
        """With --table /dev/stdout the per-bin table is the whole of stdout,
        byte for byte the table the same command writes to a path; the report
        goes to --out and to stderr."""
        args = ["validate", "--map", str(sine_map), "--density", "sine-perturbation:0.4",
                "--n", "2000", "--seed", "2", "--bins", "8"]
        ref, table = tmp_path / "ref.txt", tmp_path / "table.csv"
        assert run(*args, "--out", str(ref), "--table", str(table)) == 0
        out = tmp_path / "r.txt"
        done = run_process(*args, "--out", str(out), "--table", "/dev/stdout")
        assert done.returncode == 0
        assert done.stdout == table.read_bytes()
        assert len(done.stdout.decode().splitlines()) == 1 + 8 * 8
        assert done.stderr == out.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("spelling", ["same", "dot", "hard link", "stdout"])
    def test_out_and_table_naming_one_file_are_refused(self, sine_map, tmp_path, monkeypatch,
                                                       capsys, spelling):
        """The table would overwrite the report: exit 1 before the map is
        sampled and before any file is written."""
        monkeypatch.chdir(tmp_path)
        out, table = {"same": ("r.txt", "r.txt"), "dot": ("r.txt", "./r.txt"),
                      "hard link": ("r.txt", "t.csv"),
                      "stdout": ("/dev/stdout", "/dev/stdout")}[spelling]
        if spelling == "hard link":
            Path("r.txt").write_bytes(b"old")
            os.link("r.txt", "t.csv")
        before = sorted(os.listdir(tmp_path))
        monkeypatch.setattr("oitsample.cli.sample_target", None)  # a call would raise
        code = run("validate", "--map", str(sine_map), "--density", "sine-perturbation:0.4",
                   "--n", "2000", "--seed", "2", "--bins", "8", "--out", out, "--table", table)
        assert code == 1
        assert capsys.readouterr().err == "error: --out and --table name the same file\n"
        assert sorted(os.listdir(tmp_path)) == before
        if spelling == "hard link":
            assert Path("r.txt").read_bytes() == b"old"

    def test_per_bin_table(self, sine_map, tmp_path):
        table = tmp_path / "bins.csv"
        code = run("validate", "--map", str(sine_map), "--density",
                   "sine-perturbation:0.4", "--n", "20000", "--seed", "2",
                   "--bins", "16", "--out", str(tmp_path / "r.txt"),
                   "--table", str(table))
        assert code == 0
        lines = table.read_text().splitlines()
        assert lines[0] == "bin_x,bin_y,observed,expected,oracle"
        assert len(lines) == 1 + 16 * 16

    def test_density_file_on_another_grid(self, sine_map, tmp_path):
        """A 32x32 field checks a 64x64 map through its own interpolant."""
        field_path = tmp_path / "t32.oitf"
        write_field_oitf(field_path, ScalarField.from_function(
            PeriodicGrid(32, 32), lambda x, y: 1.0 + 0.4 * np.sin(x)))
        report = tmp_path / "r.txt"
        code = run("validate", "--map", str(sine_map), "--density", str(field_path),
                   "--n", "20000", "--seed", "2", "--bins", "16", "--out", str(report))
        assert code in (0, 3)
        assert "density: t32.oitf\n" in report.read_text()

    def test_certificate_follows_the_map_residual(self, sine_map, tmp_path):
        report = tmp_path / "r.txt"
        code = run("validate", "--map", str(sine_map), "--density", "sine-perturbation:0.4",
                   "--n", "2000", "--seed", "2", "--bins", "16", "--out", str(report))
        assert code == 0
        lines = report.read_text().splitlines()
        keys = [line.partition(": ")[0] for line in lines]
        assert keys[5:9] == ["map_residual", "inverse_law_tv", "inverse_law_n50",
                             "gof_statistic"]
        tv, n50 = (float(line.partition(": ")[2]) for line in lines[6:8])
        assert 0.0 < tv < 0.01 and n50 > 1e5

    def test_certificate_is_na_when_the_bins_do_not_divide_the_map(self, tmp_path):
        """A 32x32 field at --bins 16 checks a 40x40 map: the chi-squared
        tests run, and the inverse law has no masses on those bins."""
        field_path = tmp_path / "t32.oitf"
        write_field_oitf(field_path, ScalarField.from_function(
            PeriodicGrid(32, 32), lambda x, y: 1.0 + 0.4 * np.sin(x)))
        m40 = tmp_path / "m40.oitm"
        assert run("build", "--density", "sine-perturbation:0.4", "--grid", "40",
                   "--steps", "10", "--out", str(m40)) == 0
        report = tmp_path / "r.txt"
        code = run("validate", "--map", str(m40), "--density", str(field_path),
                   "--n", "5000", "--seed", "2", "--bins", "16", "--out", str(report))
        assert code in (0, 3)
        text = report.read_text()
        assert "\ninverse_law_tv: n/a\ninverse_law_n50: n/a\ngof_statistic: " in text

    def test_samples_flag_leaves_the_sample_csv(self, sine_map, tmp_path, capsys):
        """--samples names the CSV export reads; validate reads no samples,
        so the flag is refused and the CSV keeps its rows."""
        pts = tmp_path / "pts.csv"
        assert run("sample", "--map", str(sine_map), "--n", "1000", "--out", str(pts)) == 0
        before = pts.read_bytes()
        code = run("validate", "--map", str(sine_map), "--density", "sine-perturbation:0.4",
                   "--n", "1000", "--bins", "8", "--samples", str(pts))
        assert code == 1
        assert "unrecognized arguments: --samples" in capsys.readouterr().err
        assert pts.read_bytes() == before


class TestExport:
    def test_heatmap(self, tmp_path):
        out = tmp_path / "heat.pgm"
        code = run("export", "--density", "uniform", "--grid", "32", "--out", str(out))
        assert code == 0
        data = out.read_bytes()
        assert data.startswith(b"P5\n32 32\n255\n")
        assert set(data.split(b"255\n", 1)[1]) == {0}

    def test_heatmap_of_a_density_file_on_its_own_grid(self, tmp_path):
        field_path = tmp_path / "t32.oitf"
        write_field_oitf(field_path, ScalarField.constant(PeriodicGrid(32, 32), 2.0))
        out = tmp_path / "heat.pgm"
        assert run("export", "--density", str(field_path), "--out", str(out)) == 0
        assert out.read_bytes() == b"P5\n32 32\n255\n" + bytes(32 * 32)

    def test_mesh(self, sine_map, tmp_path):
        out = tmp_path / "mesh.csv"
        code = run("export", "--map", str(sine_map), "--out", str(out))
        assert code == 0
        assert out.read_text().splitlines()[0] == "direction,line_index,vertex_index,x,y"

    def test_scatter_subsample(self, sine_map, tmp_path):
        pts = tmp_path / "pts.csv"
        run("sample", "--map", str(sine_map), "--n", "1000", "--seed", "4",
            "--out", str(pts))
        sub = tmp_path / "sub.csv"
        code = run("export", "--samples", str(pts), "--n", "100", "--out", str(sub))
        assert code == 0
        kept = read_samples_csv(sub)
        assert kept.shape == (100, 2)
        assert np.array_equal(kept, read_samples_csv(pts)[:100])

    def test_scatter_of_zero_rows_is_the_header(self, sine_map, tmp_path):
        """--n 0 means zero points here too, as it does for sample and validate."""
        pts = tmp_path / "pts.csv"
        run("sample", "--map", str(sine_map), "--n", "1000", "--seed", "4",
            "--out", str(pts))
        sub = tmp_path / "sub.csv"
        code = run("export", "--samples", str(pts), "--n", "0", "--out", str(sub))
        assert code == 0
        assert sub.read_bytes() == b"x,y\n"

    @pytest.mark.filterwarnings("error")
    def test_scatter_of_a_csv_with_blank_lines_writes_nothing_to_stderr(self, tmp_path, capfd):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n0.1,0.2\n\n0.3,0.4\n\n")
        sub = tmp_path / "sub.csv"
        code = run("export", "--samples", str(pts), "--n", "5", "--out", str(sub))
        assert code == 0
        assert capfd.readouterr().err == ""
        assert np.array_equal(read_samples_csv(sub), [[0.1, 0.2], [0.3, 0.4]])

    def test_scatter_rejects_nan_rows(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n0.5,0.1\nnan,0.1\n")
        sub = tmp_path / "sub.csv"
        code = run("export", "--samples", str(pts), "--out", str(sub))
        assert code == 1
        assert not sub.exists()

    def test_scatter_rejects_negative_count(self, tmp_path):
        pts = tmp_path / "pts.csv"
        pts.write_text("x,y\n0,0\n")
        code = run("export", "--samples", str(pts), "--n", "-1",
                   "--out", str(tmp_path / "sub.csv"))
        assert code == 1

    def test_exactly_one_input_required(self, sine_map, tmp_path):
        code = run("export", "--map", str(sine_map), "--density", "uniform",
                   "--out", str(tmp_path / "x.csv"))
        assert code == 1

    def test_missing_subcommand_usage(self):
        assert run() == 1


class TestOutputNamesAnInput:
    """An output path that names a file the command reads would replace it
    before or while it is read: exit 1 before anything is written."""

    # (arguments, the output flag, the input flag it names); m.oitm, s.csv,
    # f.oitf and c.txt exist, and h.oitm is a hard link to m.oitm
    CASES = [
        (["sample", "--map", "m.oitm", "--out", "m.oitm"], "out", "map"),
        (["sample", "--map", "m.oitm", "--out", "./h.oitm"], "out", "map"),
        (["validate", "--map", "m.oitm", "--density", "sine-perturbation:0.4",
          "--bins", "8", "--out", "m.oitm"], "out", "map"),
        (["validate", "--map", "m.oitm", "--density", "sine-perturbation:0.4",
          "--bins", "8", "--out", "r.txt", "--table", "m.oitm"], "table", "map"),
        (["validate", "--map", "m.oitm", "--density", "f.oitf", "--bins", "8",
          "--out", "f.oitf"], "out", "density"),
        (["export", "--map", "m.oitm", "--out", "m.oitm"], "out", "map"),
        (["export", "--samples", "s.csv", "--n", "5", "--out", "s.csv"], "out", "samples"),
        (["export", "--density", "f.oitf", "--out", "f.oitf"], "out", "density"),
        (["build", "--density", "f.oitf", "--steps", "2", "--out", "f.oitf"], "out", "density"),
        (["build", "--config", "c.txt", "--out", "c.txt"], "out", "config"),
    ]

    @pytest.mark.parametrize("args, out, source", CASES,
                             ids=[f"{a[0]}-{o}-{s}-{a[-1]}" for a, o, s in CASES])
    def test_is_refused(self, sine_map, tmp_path, monkeypatch, capsys, args, out, source):
        monkeypatch.chdir(tmp_path)
        Path("m.oitm").write_bytes(sine_map.read_bytes())
        os.link("m.oitm", "h.oitm")
        write_samples_csv("s.csv", sample_target(read_map_oitm("m.oitm")[0], 20, 0))
        write_field_oitf("f.oitf", ScalarField.constant(PeriodicGrid(16, 16), 1.0))
        Path("c.txt").write_text("density=sine-perturbation:0.4\ngrid=16\nsteps=2\n")
        before = {name: Path(name).read_bytes() for name in os.listdir(tmp_path)}
        assert run(*args) == 1
        assert capsys.readouterr().err == f"error: --{out} and --{source} name the same file\n"
        assert {name: Path(name).read_bytes() for name in os.listdir(tmp_path)} == before

    def test_an_unknown_name_is_no_input(self, tmp_path, monkeypatch, capsys):
        """A spec that is neither a built-in nor a file names no input, so
        it is reported as an unknown density, not as a clash with --out."""
        monkeypatch.chdir(tmp_path)
        assert run("build", "--density", "typo", "--grid", "16", "--steps", "2",
                   "--out", "typo") == 1
        assert capsys.readouterr().err == (
            "error: unknown density 'typo' (built-ins: one-gaussian-bump, "
            "sine-perturbation, two-bump, uniform)\n")
        assert os.listdir(tmp_path) == []

    def test_a_builtin_name_is_no_input(self, tmp_path, monkeypatch):
        """A built-in density reads no file, so an output may take its name."""
        monkeypatch.chdir(tmp_path)
        assert run("build", "--density", "uniform", "--grid", "16", "--steps", "2",
                   "--out", "uniform") == 0
        assert read_map_oitm("uniform")[0].grid == PeriodicGrid(16, 16)


class TestConfigKeyTypes:
    # the key tables parse_config_text used before it read RunConfig's
    # annotations, less the two keys of files a command writes, which are
    # flags only
    INT_KEYS = {"grid", "steps", "seed", "n", "bins", "workers"}
    FLOAT_KEYS = {"ratio"}
    STR_KEYS = {"density", "map", "samples", "format"}
    FLAG_ONLY_KEYS = {"out", "table"}

    def test_every_key_keeps_its_type(self):
        from dataclasses import fields

        for keys, kind in ((self.INT_KEYS, int), (self.FLOAT_KEYS, float),
                           (self.STR_KEYS, str)):
            for key in keys:
                value = parse_config_text(f"{key}=7\n")[key]
                assert type(value) is kind and value == kind("7")
        assert {f.name for f in fields(RunConfig)} == (
            self.INT_KEYS | self.FLOAT_KEYS | self.STR_KEYS | self.FLAG_ONLY_KEYS)

    def test_unknown_key_message(self):
        from oitsample.cli import UsageError
        with pytest.raises(UsageError, match=r"^config line 2: unknown key 'nope'$"):
            parse_config_text("seed=1\nnope=1\n")

    def test_bad_int_value_is_usage_error(self, tmp_path):
        conf = tmp_path / "bad.conf"
        conf.write_text("grid=1.5\n")
        assert run("build", "--config", str(conf), "--density", "uniform",
                   "--out", str(tmp_path / "x.oitm")) == 1

    @pytest.mark.parametrize("body,where", [(b"seed=1\nnope=1\n", "config line 2: "),
                                            (b"seed=1\ngrid=1.5\n", "config line 2: "),
                                            (b"seed=1\n\xff=2\n", "")])
    def test_config_error_names_the_file_and_line(self, tmp_path, capsys, body, where):
        """Not UTF-8 has no line to name, but still one error line, exit 1."""
        conf = tmp_path / "bad.conf"
        conf.write_bytes(body)
        assert run("build", "--config", str(conf), "--density", "uniform",
                   "--out", str(tmp_path / "x.oitm")) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {conf}: {where}") and "Traceback" not in err


class TestMalformedInputFiles:
    """A file that fails to parse ends as one error line and exit code 1."""

    def check(self, capsys, *args):
        assert run(*args) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        return err

    def test_map_identifier_not_utf8(self, sine_map, tmp_path, capsys):
        data = bytearray(sine_map.read_bytes())
        data[39] = 0xFF
        bad = tmp_path / "bad.oitm"
        bad.write_bytes(bytes(data))
        self.check(capsys, "sample", "--map", str(bad), "--n", "10",
                   "--out", str(tmp_path / "s.csv"))

    @pytest.mark.parametrize("body", [b"x,y\n0.3,abc\n", b"x,y\n0.3,0.1\n\xff,0.2\n"])
    def test_scatter_of_unparsable_csv(self, tmp_path, capsys, body):
        pts = tmp_path / "pts.csv"
        pts.write_bytes(body)
        self.check(capsys, "export", "--samples", str(pts), "--out", str(tmp_path / "sub.csv"))

    def test_truncated_map(self, sine_map, tmp_path, capsys):
        bad = tmp_path / "short.oitm"
        bad.write_bytes(sine_map.read_bytes()[:-8])
        err = self.check(capsys, "validate", "--map", str(bad),
                         "--density", "sine-perturbation:0.4", "--n", "1000", "--bins", "8")
        assert str(bad) in err and "truncated" in err

    def test_map_with_nan_value(self, sine_map, tmp_path, capsys):
        data = bytearray(sine_map.read_bytes())
        data[-8:] = np.float64(np.nan).tobytes()  # the last inverse y value
        bad = tmp_path / "nan.oitm"
        bad.write_bytes(bytes(data))
        err = self.check(capsys, "sample", "--map", str(bad), "--n", "10",
                         "--out", str(tmp_path / "s.csv"))
        assert str(bad) in err and "finite" in err

    def test_density_field_with_nan_value(self, tmp_path, capsys):
        field_path = tmp_path / "target.oitf"
        write_field_oitf(field_path, ScalarField.constant(PeriodicGrid(32, 32), 1.0))
        data = bytearray(field_path.read_bytes())
        data[-8:] = np.float64(np.nan).tobytes()
        field_path.write_bytes(bytes(data))
        err = self.check(capsys, "build", "--density", str(field_path), "--grid", "32",
                         "--steps", "2", "--out", str(tmp_path / "m.oitm"))
        assert str(field_path) in err and "finite" in err

    @pytest.mark.parametrize("fill,entry,ratio,message", [
        (1.0, -1.0, None, "field has non-positive value -1.0"),
        (0.0, 0.0, None, "cannot normalize the zero field"),
        (1.0, 1.0, "5", "constant field has no dynamic range to set"),
    ], ids=["negative-entry", "all-zero", "constant-with-ratio"])
    def test_density_field_that_cannot_be_normalized(self, tmp_path, capsys, fill, entry,
                                                     ratio, message):
        """A field with a -1 entry, an all-zero field and a constant field
        given a ratio: the error names the file, as a malformed one does."""
        values = np.full((16, 16), fill)
        values[3, 4] = entry
        field_path = tmp_path / "target.oitf"
        write_field_oitf(field_path, ScalarField(PeriodicGrid(16, 16), values))
        args = ["build", "--density", str(field_path), "--steps", "2",
                "--out", str(tmp_path / "m.oitm")]
        err = self.check(capsys, *args, *(["--ratio", ratio] if ratio else []))
        assert err == f"error: {field_path}: {message}\n"


def cfg_reads(func):
    """The RunConfig keys a command function reads: its ``cfg.<key>``
    attributes, plus density and ratio when it calls _resolve_density."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    keys = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "cfg"}
    if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
           and node.func.id == "_resolve_density" for node in ast.walk(tree)):
        keys |= {"density", "ratio"}
    return keys


# key -> a value for a command line that sets it; no file exists at any of these paths
_NEED_VALUES = {"density": "uniform", "map": "none.oitm", "samples": "none.csv",
                "out": "out.bin"}


def _needs():
    """(command, need) for each input each command needs, from ``_COMMANDS``."""
    return [(name, need) for name, (*_, needs) in _COMMANDS.items() for need in needs]


class TestCommandNeeds:
    """``main`` refuses a command that lacks an input it needs before any
    file is read."""

    @pytest.mark.parametrize("name,need", _needs(),
                             ids=lambda v: v if isinstance(v, str) else "|".join(v))
    def test_leaving_a_need_out_is_usage_error(self, tmp_path, monkeypatch, capsys, name,
                                               need):
        monkeypatch.chdir(tmp_path)
        args = [name]
        for other in _COMMANDS[name][3]:
            if other != need:  # a group is met by its first key
                key = other if isinstance(other, str) else other[0]
                args += [f"--{key}", _NEED_VALUES[key]]
        assert run(*args) == 1
        if isinstance(need, str):
            assert capsys.readouterr().err == f"error: {name} requires --{need}\n"
        else:
            flags = ", ".join(f"--{k}" for k in need)
            assert capsys.readouterr().err == f"error: {name} needs exactly one of {flags}\n"
        assert os.listdir(tmp_path) == []

    def test_missing_density_is_named_before_the_map_is_read(self, tmp_path, capsys):
        assert run("validate", "--map", str(tmp_path / "none.oitm"), "--n", "10") == 1
        assert capsys.readouterr().err == "error: validate requires --density\n"


class TestCommandFlags:
    """Each command takes --config and one flag per setting it reads."""

    @pytest.mark.parametrize("name", sorted(_COMMANDS))
    def test_flags_are_the_keys_the_command_reads(self, name):
        func, _, keys, _ = _COMMANDS[name]
        assert len(set(keys)) == len(keys)
        assert cfg_reads(func) == set(keys)

    @pytest.mark.parametrize("name", sorted(_COMMANDS))
    def test_flag_help_names_its_default(self, name):
        """Each flag's help ends with its RunConfig default, taken from the
        one place it is defined; a flag without a default names none."""
        subs = next(a for a in build_parser()._actions if a.dest == "command")
        helps = {action.dest: action.help for action in subs.choices[name]._actions}
        for key in _COMMANDS[name][2]:
            default = getattr(RunConfig(), key)
            if default is None:
                assert "default" not in helps[key], key
            else:
                assert helps[key].endswith(f" (default {default})"), key

    def test_flag_slot_count(self):
        subs = next(a for a in build_parser()._actions if a.dest == "command")
        flags = {name: {opt for action in sub._actions for opt in action.option_strings
                        if opt not in ("-h", "--help")}
                 for name, sub in subs.choices.items()}
        assert flags == {name: {"--config"} | {f"--{key}" for key in keys}
                         for name, (_, _, keys, _) in _COMMANDS.items()}
        assert sum(len(f) for f in flags.values()) == 31

    @pytest.mark.parametrize("name,prefix", [
        (name, prefix) for name, (_, _, keys, _) in _COMMANDS.items()
        for prefix, key in (("--wor", "workers"), ("--ma", "map"), ("--o", "out"),
                            ("--conf", "config"))
        if key in keys + ("config",)])
    def test_flag_prefix_is_usage_error(self, name, prefix, capsys):
        """A prefix that only one of the command's flags starts with is no flag."""
        keys = ("config",) + _COMMANDS[name][2]
        assert len([key for key in keys if f"--{key}".startswith(prefix)]) == 1
        assert run(name, prefix, "1") == 1
        assert f"unrecognized arguments: {prefix} 1" in capsys.readouterr().err

    @pytest.mark.parametrize("name,key", [
        (name, key) for name, (_, _, keys, _) in _COMMANDS.items()
        for key in _KEY_TYPES if key not in keys])
    def test_unread_flag_is_usage_error(self, name, key, capsys):
        assert run(name, f"--{key}", "1") == 1
        assert f"unrecognized arguments: --{key} 1" in capsys.readouterr().err
