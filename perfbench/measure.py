"""Quantiles, process accounting and host contention, from /proc."""

import math
import os
import statistics


def quantile(values, q):
    """The q-quantile (0 < q < 1) with linear interpolation between
    order statistics, and the sample count it rests on."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no samples")
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo), len(xs)


def beyond(values, q):
    """How many samples lie strictly above the q-quantile."""
    v, _ = quantile(values, q)
    return sum(1 for x in values if x > v)


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def proc_cpu_s(pid):
    """User + system CPU seconds of a live process."""
    with open("/proc/%d/stat" % pid) as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_rss_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError("no VmHWM for pid %d" % pid)


def steal_ticks():
    with open("/proc/stat") as f:
        fields = f.readline().split()
    return int(fields[8]) if len(fields) > 8 else 0


def loadavg():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def nproc():
    return len(os.sched_getaffinity(0))
