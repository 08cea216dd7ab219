"""Compile, cache, and load the native C kernel.

The kernel ships as a single dependency-free ``kernel.c`` next to this
module.  At first use it is compiled with the system C compiler (``cc``,
or ``$CC``) into a shared library named after the SHA-256 of the source
— so editing the kernel can never run a stale binary — and kept in a
small on-disk cache directory (``$REPRO_NATIVE_CACHE`` or
``~/.cache/repro-native``).  Loading goes through :mod:`ctypes`; an ABI
handshake symbol doubles as the corrupt-entry probe, and any entry that
fails to load (truncated, garbage, wrong ABI) is deleted and rebuilt
instead of crashing — the same self-repair contract as the experiment
cache's ``load_cached``.

The cache directory is bounded: after every build the ``kernel-*.so``
entries are pushed oldest-first through a :class:`repro.lru.LRUDict` of
:data:`CACHE_LIMIT` slots and whatever the policy evicts is unlinked, so
a long-lived host accumulating kernels across source revisions keeps
only the most recently used handful.  Loads touch their entry's mtime,
which is the recency the policy orders by.

Hosts without a C compiler raise :class:`NativeUnavailableError` — the
typed signal :class:`~repro.engine.native.backend.NativeBackend` turns
into a clean fall-back onto the bit-packed backend.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
from pathlib import Path

from ...errors import ReproError
from ...lru import LRUDict

__all__ = [
    "CACHE_LIMIT",
    "NativeUnavailableError",
    "cache_dir",
    "compiler_path",
    "kernel_source_hash",
    "load_kernel",
    "native_availability",
    "prune_cache",
]

#: The single C source file of the kernel.
KERNEL_SOURCE = Path(__file__).with_name("kernel.c")

#: ABI version the loaded library must report (see kernel.c).
KERNEL_ABI = 1

#: Compiled-library cache entries kept resident on disk (LRU-evicted).
CACHE_LIMIT = 8

#: Flags for the one compile invocation: optimised, position-independent
#: shared object, no host-specific ISA flags (the cache may be shared
#: between containers on heterogeneous fleets).
_CFLAGS = ("-O3", "-shared", "-fPIC", "-fno-math-errno", "-std=c99")

#: Exported symbols the loader binds (name -> (restype, argtypes)).
#: Kept next to the loader so a kernel.c/py drift fails at load, not at
#: the first kernel call mid-simulation.
_SYMBOLS: "dict[str, tuple[object, list]]" = {
    "repro_native_abi": (ctypes.c_uint64, []),
    "repro_pack_rows": (
        None,
        [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64],
    ),
    "repro_unpack_rows": (
        None,
        [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64],
    ),
    "repro_xor_flips": (
        None,
        [ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64],
    ),
    "repro_csr_or_batch_i32": (
        None,
        [
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int32,
        ],
    ),
    "repro_csr_or_batch_i64": (
        None,
        [
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int32,
        ],
    ),
    "repro_max_fused_words": (ctypes.c_uint64, []),
    "repro_heard_batch_i32": (
        None,
        [
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int32,
        ],
    ),
    "repro_heard_batch_i64": (
        None,
        [
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_void_p,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int64,
            ctypes.c_int32,
        ],
    ),
}

#: Loaded libraries, keyed by resolved .so path — dlopen once per
#: process; workers each load their own copy from the shared disk cache.
_LOADED: "dict[Path, ctypes.CDLL]" = {}

#: Sticky failure reason once a load attempt failed (cleared by tests).
_FAILED_REASON: "str | None" = None


class NativeUnavailableError(ReproError):
    """The native kernel cannot be built or loaded on this host.

    Raised when no C compiler is on ``PATH`` or the one compile attempt
    fails; :class:`~repro.engine.native.backend.NativeBackend` catches it
    and falls back to the bit-packed backend (results are bit-identical
    either way — only throughput differs).
    """


def compiler_path() -> "str | None":
    """Absolute path of the C compiler (``$CC`` or ``cc``), or ``None``."""
    return shutil.which(os.environ.get("CC") or "cc")


#: Memoized source hash: the kernel source is fixed for the process
#: lifetime, and hashing it sits on the per-call path of every backend
#: entry point (load_kernel resolves the cache name through it).
_SOURCE_HASH: "str | None" = None


def kernel_source_hash() -> str:
    """Short SHA-256 of ``kernel.c`` — the compiled cache entry's identity."""
    global _SOURCE_HASH
    if _SOURCE_HASH is None:
        _SOURCE_HASH = hashlib.sha256(KERNEL_SOURCE.read_bytes()).hexdigest()[:16]
    return _SOURCE_HASH


def cache_dir() -> Path:
    """The compiled-library cache directory (env-overridable, created lazily)."""
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-native"


def native_availability() -> "tuple[bool, str]":
    """Whether the native tier can run here, and why (for diagnostics).

    Reports the memoized load state when a load was already attempted
    this process (success or the sticky failure reason), else the cheap
    compiler probe — never triggers a compile by itself.
    """
    if _LOADED:
        return True, "loaded"
    if _FAILED_REASON is not None:
        return False, _FAILED_REASON
    compiler = compiler_path()
    if compiler is None:
        return False, "no C compiler (cc) on PATH"
    return True, f"compiler: {compiler}"


def prune_cache(directory: "Path | None" = None, limit: int = CACHE_LIMIT) -> list[str]:
    """Bound the ``.so`` cache via the shared LRU policy; return evictions.

    Entries are replayed oldest-mtime-first through a
    :class:`repro.lru.LRUDict` of ``limit`` slots — exactly the eviction
    order every other working cache in the library uses — and files the
    policy drops are unlinked.  Loads refresh their entry's mtime, so
    recency here is use-recency, not build-recency.
    """
    directory = cache_dir() if directory is None else directory
    try:
        entries = sorted(
            (path for path in directory.glob("kernel-*.so")),
            key=lambda path: path.stat().st_mtime,
        )
    except OSError:
        return []
    policy: "LRUDict[str, Path]" = LRUDict(limit)
    for path in entries:
        policy[path.name] = path
    evicted = [path.name for path in entries if path.name not in policy]
    for path in entries:
        if path.name not in policy:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing prune
                pass
    return evicted


def _bind(library: ctypes.CDLL, so_path: Path) -> ctypes.CDLL:
    """Resolve and type every kernel symbol; verify the ABI handshake."""
    for name, (restype, argtypes) in _SYMBOLS.items():
        symbol = getattr(library, name)  # AttributeError on truncated .so
        symbol.restype = restype
        symbol.argtypes = argtypes
    abi = library.repro_native_abi()
    if abi != KERNEL_ABI:
        raise OSError(f"{so_path} reports ABI {abi}, expected {KERNEL_ABI}")
    return library


def _compile(compiler: str, so_path: Path) -> None:
    """One ``cc`` invocation into a tmp file, atomically renamed in place."""
    so_path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = so_path.with_name(f".{so_path.name}.{os.getpid()}.tmp")
    command = [compiler, *_CFLAGS, "-o", str(tmp_path), str(KERNEL_SOURCE)]
    try:
        completed = subprocess.run(
            command, capture_output=True, text=True, timeout=120
        )
    except (OSError, subprocess.TimeoutExpired) as error:
        raise NativeUnavailableError(
            f"native kernel compile failed to run ({command[0]}): {error}"
        ) from None
    if completed.returncode != 0:
        tail = (completed.stderr or completed.stdout or "").strip()
        raise NativeUnavailableError(
            f"native kernel compile failed (exit {completed.returncode}): "
            f"{tail.splitlines()[-1] if tail else 'no compiler output'}"
        )
    # Atomic publish: concurrent builders (e.g. parallel experiment workers
    # racing on a cold cache) each rename a complete library; last writer wins and
    # every loader only ever sees a whole file.
    os.replace(tmp_path, so_path)


def load_kernel() -> ctypes.CDLL:
    """The process's handle to the compiled kernel (building if needed).

    Flow: resolve the per-source-hash ``.so`` path; reuse the library if
    this process already loaded it; otherwise try to load a cached entry
    — deleting and rebuilding corrupt ones — and compile from source when
    no (valid) entry exists.  Raises :class:`NativeUnavailableError` when
    the host has no compiler or the compile fails; the failure reason is
    memoized so every subsequent call (and the diagnostics in
    :func:`native_availability`) answers without re-probing.
    """
    global _FAILED_REASON
    so_path = cache_dir() / f"kernel-{kernel_source_hash()}.so"
    library = _LOADED.get(so_path)
    if library is not None:
        return library
    if _FAILED_REASON is not None:
        raise NativeUnavailableError(_FAILED_REASON)
    try:
        library = _load_or_build(so_path)
    except NativeUnavailableError as error:
        _FAILED_REASON = str(error)
        raise
    _LOADED[so_path] = library
    return library


def _load_or_build(so_path: Path) -> ctypes.CDLL:
    """Load a cached entry (self-repairing corrupt ones) or compile fresh."""
    if so_path.exists():
        try:
            library = _bind(ctypes.CDLL(str(so_path)), so_path)
        except (OSError, AttributeError):
            # Corrupt or truncated cache entry: delete and rebuild, the
            # same self-repair contract as api.load_cached.
            try:
                so_path.unlink()
            except OSError:  # pragma: no cover - racing repair
                pass
        else:
            _touch(so_path)
            return library
    compiler = compiler_path()
    if compiler is None:
        raise NativeUnavailableError(
            "no C compiler (cc) on PATH; install one or run "
            "--backend bitpacked (bit-identical, slower)"
        )
    _compile(compiler, so_path)
    try:
        library = _bind(ctypes.CDLL(str(so_path)), so_path)
    except (OSError, AttributeError) as error:  # pragma: no cover - toolchain bug
        raise NativeUnavailableError(
            f"freshly built native kernel failed to load: {error}"
        ) from None
    prune_cache(so_path.parent)
    return library


def _touch(so_path: Path) -> None:
    """Refresh an entry's mtime — the LRU recency :func:`prune_cache` uses."""
    try:
        os.utime(so_path, None)
    except OSError:  # pragma: no cover - read-only cache is still usable
        pass
