"""Parsing of /proc files and the live readings built on them."""

import os
import time

import pytest

from perfbench import procfs

STAT = ("4242 (python3 (a) b) S 1 4242 4242 0 -1 4194304 900 0 0 0 "
        "250 75 0 0 20 0 9 0 12345 123456789 4000 18446744073709551615")

SCHED = """python3 (4242, #threads: 9)
-------------------------------------------------------------------
se.exec_start                                :       4931384.292567
se.vruntime                                  :             1.434382
se.sum_exec_runtime                          :          1234.500250
se.nr_migrations                             :                    3
"""

STATUS = """Name:\tpython3
VmPeak:\t  300000 kB
VmHWM:\t   51200 kB
VmRSS:\t   40960 kB
"""


def test_stat_cpu_counts_fields_after_the_command_name():
    assert procfs.parse_stat_cpu_s(STAT, clk_tck=100) == pytest.approx(3.25)


def test_sched_runtime_in_milliseconds():
    assert procfs.parse_sched_runtime_ms(SCHED) == pytest.approx(1234.50025)
    assert procfs.parse_sched_runtime_ms("no such field\n") is None


def test_status_fields_in_kb():
    assert procfs.parse_status_kb(STATUS, "VmHWM") == 51200
    assert procfs.parse_status_kb(STATUS, "VmSwap") is None


def test_live_cpu_reading_grows_with_work():
    before = procfs.process_cpu_s(os.getpid())
    started = time.process_time()
    while time.process_time() - started < 0.05:
        pass
    after = procfs.process_cpu_s(os.getpid())
    assert after - before >= 0.03


def test_live_peak_rss_is_positive():
    assert procfs.peak_rss_mb(os.getpid()) > 1.0


def test_provenance_outside_a_git_checkout(tmp_path):
    stamp = procfs.provenance(tmp_path, [0], "fast")
    assert stamp["commit"] == "unknown"
    assert stamp["nproc"] == os.cpu_count()
    assert stamp["crypto_backend"] == "fast"
    assert stamp["server_affinity"] == [0]


def test_steal_is_the_eighth_value_of_the_cpu_line():
    text = ("cpu  89348 0 6590 1021661 538 0 292 5242 0 0\n"
            "cpu0 44674 0 3295 510830 269 0 146 2621 0 0\n")
    assert procfs.parse_steal_s(text, clk_tck=100) == pytest.approx(52.42)
