"""Build and load the compiled search kernel, ``_kernel.c``.

``load()`` returns the extension module, or None where there is none, and
then the search runs its Python kernel. The module is built at most once
per source and interpreter: with the C compiler that ``$CC`` names, else
the one ``sysconfig`` names, into a per-user cache directory
(``$XDG_CACHE_HOME/zerosum`` where that path is absolute, else
``~/.cache/zerosum``, as the XDG Base Directory spec says), under a name
keyed by a CRC-32 of the source and the interpreter's extension suffix.
It needs no package and no download, only a compiler and the
interpreter's headers.

- The build writes a temporary file in the cache directory and publishes
  it with ``os.replace``, so two first runs never load a half-written
  module.
- Where the cache directory cannot be created or written, no build is
  attempted. Where its path is relative (no home directory, so ``~`` does
  not expand), nothing is built or loaded under the working directory.
- A failed build leaves a marker under the same key, so no later process
  starts the compiler for that source again; delete the marker to retry.

A cache hit imports only ``zlib`` and ``importlib.machinery``; the build
alone imports ``contextlib``, ``shlex``, ``subprocess`` and ``sysconfig``.
"""

from __future__ import annotations

import os
import sys
import zlib
from functools import lru_cache
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, ModuleSpec

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_kernel.c")
_MODULE = "zerosum._ckernel"


@lru_cache(maxsize=None)
def load():
    """The compiled kernel module, built first if need be; None where it
    cannot be built or loaded. Only ``search.run_scan`` calls it, before
    its clock starts: the build is set-up."""
    try:
        with open(SOURCE, "rb") as fh:
            source = fh.read()
    except OSError:
        return None
    suffix = EXTENSION_SUFFIXES[0]
    cache = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(cache):
        cache = os.path.join(os.path.expanduser("~"), ".cache")
    if not os.path.isabs(cache):  # "~" left unexpanded: no home directory
        return None
    key = zlib.crc32(source + suffix.encode())
    path = os.path.join(cache, "zerosum", f"kernel-{key:08x}{suffix}")
    if not os.path.exists(path) and (os.path.exists(path + ".failed") or not _build(path)):
        return None
    loader = ExtensionFileLoader(_MODULE, path)
    try:
        module = loader.create_module(ModuleSpec(_MODULE, loader, origin=path))
        loader.exec_module(module)
    except ImportError:
        return None
    return module


def _build(path: str) -> bool:
    """Compile ``SOURCE`` to ``path``; on failure leave ``path + ".failed"``."""
    directory = os.path.dirname(path)
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError:
        return False
    if not os.access(directory, os.W_OK | os.X_OK):
        return False
    import contextlib
    import shlex
    import subprocess
    import sysconfig
    compiler = shlex.split(os.environ.get("CC") or sysconfig.get_config_var("CC") or "cc")
    link = ["-bundle", "-undefined", "dynamic_lookup"] if sys.platform == "darwin" else ["-shared"]
    tmp = f"{path}.{os.getpid()}.tmp"
    command = [*compiler, "-O2", "-fPIC", *link, f"-I{sysconfig.get_paths()['include']}",
               SOURCE, "-o", tmp]
    try:
        built = subprocess.run(command, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                               stderr=subprocess.DEVNULL).returncode == 0
        if built:
            os.replace(tmp, path)
    except OSError:
        built = False
    if not built:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        with contextlib.suppress(OSError):
            open(path + ".failed", "wb").close()
    return built
