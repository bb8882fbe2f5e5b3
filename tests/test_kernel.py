"""The loader of the compiled search kernel (``zerosum._kernel``): one build
per source, published whole, a marker after a failed build, no build where
the cache cannot be written, cheap imports on a hit, and the Python kernel
wherever no module loads, with the goldens unchanged."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from importlib.machinery import EXTENSION_SUFFIXES
from pathlib import Path

import pytest

import zerosum
from zerosum.search import _ExtremaAcc

SRC = str(Path(zerosum.__file__).resolve().parents[1])
TESTS = str(Path(__file__).resolve().parent)


def python(code: str, env: dict, *args: str) -> str:
    """What ``code`` prints in a fresh interpreter run under ``env``."""
    return subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": SRC, **env},
                          capture_output=True, text=True, check=True).stdout.strip()


LOAD = "from zerosum import _kernel; print(_kernel.load() is not None)"


def compiler(tmp_path: Path, fails: bool) -> tuple[dict, Path]:
    """Environment whose ``CC`` logs one line per run to the returned log,
    then fails or runs the interpreter's C compiler; the cache is empty."""
    import shlex
    import sysconfig
    log = tmp_path / "cc.log"
    script = tmp_path / "cc.py"
    real = shlex.split(sysconfig.get_config_var("CC") or "cc")
    script.write_text("import subprocess, sys\n"
                      f"open({str(log)!r}, 'a').write('run\\n')\n"
                      + ("sys.exit(1)\n" if fails else
                         f"sys.exit(subprocess.run({real!r} + sys.argv[1:]).returncode)\n"))
    env = {"CC": f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}",
           "XDG_CACHE_HOME": str(tmp_path / "cache")}
    return env, log


def runs(log: Path) -> int:
    return len(log.read_text().splitlines()) if log.exists() else 0


def cached(tmp_path: Path) -> list[str]:
    directory = tmp_path / "cache" / "zerosum"
    return sorted(p.name for p in directory.iterdir()) if directory.exists() else []


def test_first_runs_build_once_and_later_runs_start_no_compiler(tmp_path, compiled_kernel):
    env, log = compiler(tmp_path, fails=False)
    # two first runs at once: each publishes a whole file, the same name
    first = [subprocess.Popen([sys.executable, "-c", LOAD], env={**os.environ,
                              "PYTHONPATH": SRC, **env}, stdout=subprocess.PIPE, text=True)
             for _ in range(2)]
    assert [p.communicate(timeout=120)[0].strip() for p in first] == ["True", "True"]
    built = cached(tmp_path)
    assert len(built) == 1 and built[0].endswith(EXTENSION_SUFFIXES[0])
    builds = runs(log)
    assert 1 <= builds <= 2
    for argv in (["invariants", "--group", "3,3", "--method", "search"],
                 ["check", "--group", "2,4", "--name", "cross-number"]):
        python("import sys; from zerosum.cli import main; sys.exit(main(sys.argv[1:]))",
               env, *argv)
    assert python(LOAD, env) == "True"
    assert runs(log) == builds
    assert cached(tmp_path) == built
    # a hit imports none of the modules only the build needs
    hit = python("import sys; before = set(sys.modules)\n" + LOAD + "\n"
                 "print(sorted({'hashlib', 'shlex', 'subprocess', 'sysconfig'}"
                 " & (set(sys.modules) - before)))", env)
    assert hit.splitlines() == ["True", "[]"]


def test_only_a_searching_command_builds_the_kernel(tmp_path, compiled_kernel):
    # a cold cache: commands that do not search start no compiler and leave
    # the cache empty; the first that searches builds the kernel, once
    env, log = compiler(tmp_path, fails=False)
    cli = "import sys; from zerosum.cli import main; sys.exit(main(sys.argv[1:]))"
    for argv in (["construct", "--group", "3,9", "--kind", "dstar"],
                 ["invariants", "--group", "2,4", "--method", "formula"]):
        python(cli, env, *argv)
        assert runs(log) == 0 and cached(tmp_path) == [], argv
    for argv in (["invariants", "--group", "3,3", "--method", "search"],
                 ["check", "--group", "2,4", "--name", "cross-number"]):
        python(cli, env, *argv)
    assert runs(log) == 1
    (built,) = cached(tmp_path)
    assert built.endswith(EXTENSION_SUFFIXES[0])


def test_failed_build_leaves_a_marker(tmp_path):
    env, log = compiler(tmp_path, fails=True)
    assert python(LOAD, env) == "False"
    assert runs(log) == 1
    (marker,) = cached(tmp_path)
    assert marker.endswith(EXTENSION_SUFFIXES[0] + ".failed")
    assert python(LOAD, env) == "False"
    assert runs(log) == 1


def test_unwritable_cache_attempts_no_build(tmp_path):
    env, log = compiler(tmp_path, fails=False)
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    env["XDG_CACHE_HOME"] = str(blocker)
    assert python(LOAD, env) == "False"
    assert runs(log) == 0


def test_relative_cache_home_is_ignored(tmp_path):
    # a relative XDG_CACHE_HOME is ignored, as the XDG Base Directory spec
    # says: the marker of a failed build goes under $HOME/.cache, not
    # under the working directory
    env, log = compiler(tmp_path, fails=True)
    home, work = tmp_path / "home", tmp_path / "work"
    work.mkdir()
    env.update(HOME=str(home), XDG_CACHE_HOME="relcache")
    out = subprocess.run([sys.executable, "-c", LOAD], env={**os.environ, "PYTHONPATH": SRC,
                         **env}, cwd=work, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "False"
    assert runs(log) == 1
    assert list(work.iterdir()) == []
    (marker,) = (home / ".cache" / "zerosum").iterdir()
    assert marker.name.endswith(EXTENSION_SUFFIXES[0] + ".failed")


def test_goldens_are_identical_without_a_compiler(tmp_path):
    # CC=false and an empty cache: every scan takes the Python kernel
    code = ("import sys, tempfile\n"
            f"sys.path.insert(0, {TESTS!r})\n"
            "from pathlib import Path\n"
            "from test_golden import CASES, GOLDEN, run_case\n"
            "from zerosum import _kernel\n"
            "assert _kernel.load() is None\n"
            "out = Path(tempfile.mkdtemp())\n"
            "for name, (argv, want) in sorted(CASES.items()):\n"
            "    code, stdout = run_case(argv, out / 'cert.json')\n"
            "    same = (code == want\n"
            "            and stdout == (GOLDEN / f'{name}.txt').read_text(encoding='utf-8')\n"
            "            and (out / 'cert.json').read_bytes()\n"
            "                == (GOLDEN / f'{name}.json').read_bytes())\n"
            "    print(name, same)\n")
    out = python(code, {"CC": "false", "XDG_CACHE_HOME": str(tmp_path / "cache")})
    lines = out.splitlines()
    assert len(lines) == 17
    assert all(line.endswith(" True") for line in lines), out


@pytest.mark.skipif(not hasattr(signal, "SIGINT") or os.name != "posix",
                    reason="needs POSIX signals")
def test_interrupt_stops_a_long_compiled_walk(compiled_kernel):
    # Ctrl-C stops a long walk within the kernel's 2048-node cadence. At
    # width 1, gamma C9xC9 at delta 5 walks 161,776,647 nodes in this
    # thread. At width 2, with the thread gate at 0, gamma C4xC4xC8 at
    # delta 3 runs its last task here and the four left on two threads, one
    # of them 135,322,411 nodes; the main thread waits for them.
    for width, factors, delta in ((1, (9, 9), 5), (2, (4, 4, 8), 3)):
        code = ("import sys\n"
                "from zerosum import AbelianGroup, SearchBudget, _kernel, search\n"
                "assert _kernel.load() is not None\n"
                f"search._usable_cpus = lambda: {width}\n"
                "search._THREAD_GATE_NODES = 0\n"
                "print('walking', flush=True)\n"
                f"search._gamma_scan(AbelianGroup({factors}), {delta},"
                " SearchBudget(max_nodes=10**9, max_seconds=600), symmetric=True)\n")
        proc = subprocess.Popen([sys.executable, "-c", code],
                                env={**os.environ, "PYTHONPATH": SRC},
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            assert proc.stdout.readline().strip() == "walking"
            time.sleep(0.5)
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=3)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode != 0, width
        assert "KeyboardInterrupt" in err, (width, err)


EXTREMA = _ExtremaAcc().kernel_rule()  # its mode, with no rule


def test_scan_walks_one_task_at_a_time(compiled_kernel):
    # a walk that fetches a state of the cut is reentered from it: refused
    def fetch(state):
        return scan.walk(1, 10, 1.0)

    scan = compiled_kernel.Scan((4,), bytes([1]) + bytes(7), bytes(16), (1, fetch), *EXTREMA)
    with pytest.raises(RuntimeError, match="one task at a time"):
        scan.walk(1, 10, 1.0)


def test_scan_takes_four_bytes_of_weight_per_rank(compiled_kernel):
    # the weights come packed as native int32, as search._compiled packs them
    compiled_kernel.Scan((4,), bytes(8), bytes(16), None, *EXTREMA)
    for weights in (bytes(12), bytes(20)):
        with pytest.raises(ValueError, match="4 bytes per rank"):
            compiled_kernel.Scan((4,), bytes(8), weights, None, *EXTREMA)
    with pytest.raises(TypeError):
        compiled_kernel.Scan((4,), bytes(8), [0] * 4, None, *EXTREMA)


def test_scan_refuses_an_unknown_mode_and_a_root_outside_the_group(compiled_kernel):
    from zerosum.search import _CountAcc, _MinMaxOrderAcc, _ViolationAcc
    modes = {cls.kernel_mode for cls in (_CountAcc, _ExtremaAcc, _MinMaxOrderAcc, _ViolationAcc)}
    assert modes == {0, 1, 2, 3}
    for mode in (-1, 4):
        with pytest.raises(ValueError, match="unknown mode"):
            compiled_kernel.Scan((4,), bytes(8), bytes(16), None, mode, 0, 0)
    scan = compiled_kernel.Scan((4,), bytes([1]) + bytes(7), bytes(16), None, *EXTREMA)
    for root in (-1, 4):
        with pytest.raises(ValueError, match="root out of range"):
            scan.walk(root, 10, 1.0)
    assert scan.walk(3, 10, 1.0)[0] == 3  # (3,), (3, 3), (3, 3, 3)


def test_scan_refuses_malformed_cut_data(compiled_kernel):
    # on C4, a state's mask is one 64-bit word and its row 4 int32 states;
    # fetch(1) gives state 1 (classes {0}, {1, 3}, {2}) and its row
    from array import array
    mask, row = (0b0111).to_bytes(8, "little"), array("i", [1, 0, 1, 0]).tobytes()

    def walk(fetched, root_state=1):
        scan = compiled_kernel.Scan((4,), bytes([1]) + bytes(7), bytes(16),
                                    (root_state, lambda state: fetched), *EXTREMA)
        return scan.walk(1, 10, 1.0)

    # 4 nodes, the longest path (1, 1, 1); no weights, so no largest total
    assert walk((mask, row)) == (4, 3, 0, array("i", [1, 1, 1]).tobytes(), b"", b"")
    for bad in ((bytes(16), row), (bytes(4), row), (mask, row[:12]), (mask, row + bytes(4)),
                (mask, array("i", [1, -1, 1, 0]).tobytes()), (mask,), [mask, row]):
        with pytest.raises(ValueError):
            walk(bad)
    with pytest.raises(ValueError, match="a state"):
        walk((mask, row), root_state=-1)


def test_scan_refuses_to_walk_uninitialised(compiled_kernel):
    scan = compiled_kernel.Scan.__new__(compiled_kernel.Scan)
    with pytest.raises(TypeError, match="initialised"):
        scan.walk(1, 1, 1.0)
    # an initialisation that fails part way leaves a Scan that cannot walk
    with pytest.raises(ValueError, match="4 bytes per rank"):
        scan.__init__((4,), bytes(8), bytes(12), None, *EXTREMA)
    with pytest.raises(TypeError, match="initialised"):
        scan.walk(1, 1, 1.0)
