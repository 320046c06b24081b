"""The machine record that goes with every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
import re
import sys


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_kib(level: int) -> int | None:
    """Size of one unified cache at ``level`` as the kernel reports it for cpu0."""
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = os.listdir(base)
    except OSError:
        return None
    for entry in entries:
        try:
            with open(f"{base}/{entry}/level") as fh:
                if int(fh.read()) != level:
                    continue
            with open(f"{base}/{entry}/type") as fh:
                if fh.read().strip() == "Instruction":
                    continue
            with open(f"{base}/{entry}/size") as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        match = re.fullmatch(r"(\d+)([KMG]?)", size)
        if match:
            number, unit = int(match.group(1)), match.group(2)
            return number * {"K": 1, "M": 1024, "G": 1024**2}[unit] if unit else number // 1024
    return None


def _ram_mib() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20
    except (ValueError, OSError):
        return None


def _blas_threads() -> int | None:
    """Threads of the OpenBLAS that numpy loaded, asked through its C API."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def machine_record(seed: int) -> dict:
    """nproc, CPU, caches, RAM, interpreter and library versions, BLAS threads, seed.

    Call after numpy and scipy are imported, so the BLAS library is loaded.
    """
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_kib": _cache_kib(2),
        "l3_kib": _cache_kib(3),
        "ram_mib": _ram_mib(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "seed": seed,
    }
