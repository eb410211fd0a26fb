"""Tests for the driver-heap derivation of the Spark bootstrap
(repro.session.driver_memory), without starting Spark."""
import pytest

from repro.session import driver_memory

GIB = 2**30
MEMINFO_16G = "MemTotal:       16384000 kB\nMemFree:         9000000 kB\n"
V1_UNLIMITED = "9223372036854771712"


@pytest.mark.parametrize(
    "env, cgroup, meminfo, expected",
    [
        # The environment variable wins over everything.
        ("3g", [str(8 * GIB)], MEMINFO_16G, "3g"),
        # 75 % of a bounded cgroup limit; v2's "max" is no bound.
        (None, [str(8 * GIB), ""], "", "6g"),
        (None, ["max", str(8 * GIB)], MEMINFO_16G, "6g"),
        # Neither are v1's "unlimited" sentinel or an unreadable file.
        (None, ["", V1_UNLIMITED], MEMINFO_16G, "7g"),
        # MemTotal / 2, clamped to [2, 8] GiB.
        (None, [], "MemTotal: 67108864 kB\n", "8g"),
        (None, [], "MemTotal: 2097152 kB\n", "2g"),
        (None, [], "", "2g"),
    ],
    ids=[
        "env",
        "cgroup",
        "cgroup-v2-max",
        "cgroup-v1-unlimited",
        "meminfo-clamp-high",
        "meminfo-clamp-low",
        "no-meminfo",
    ],
)
def test_driver_memory(env, cgroup, meminfo, expected):
    assert driver_memory(env, cgroup, meminfo) == expected
