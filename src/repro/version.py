"""The package version, and the code digest every stored result carries.

``__version__`` is the one package version (``pyproject.toml`` reads
it from here). It names a release in reports; it identifies no code.
:func:`code_digest` does: every grid cache key hashes it and every
fleet checkpoint carries it, so editing any package source misses
every cached result and rejects every checkpoint written before.
"""

import functools
import hashlib
import os

__version__ = "1.5.0"


@functools.lru_cache(maxsize=None)
def code_digest():
    """sha256 hex over every ``.py`` file of the package, each keyed by
    its ``/``-separated path relative to the package, so the digest
    names the code, not where it is installed. No file is excluded.
    Computed once per process (forked workers inherit it)."""
    root = os.path.dirname(os.path.abspath(__file__))
    files = []
    for directory, __, names in os.walk(root):
        files.extend(
            (os.path.relpath(os.path.join(directory, name), root)
             .replace(os.sep, "/"), os.path.join(directory, name))
            for name in names if name.endswith(".py"))
    digest = hashlib.sha256()
    for relative, path in sorted(files):
        with open(path, "rb") as handle:
            content = hashlib.sha256(handle.read()).digest()
        digest.update(relative.encode("utf-8") + b"\0" + content)
    return digest.hexdigest()
