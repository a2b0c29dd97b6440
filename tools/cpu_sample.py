#!/usr/bin/env python3
"""Where a running process's threads spend their CPU, kernel included.

Opens one `PERF_COUNT_SW_CPU_CLOCK` sampling event per thread of PID
(`perf_event_open`, software clock: it needs no hardware PMU, so it works on
VMs that expose none), with the kernel part of each sample's callchain,
drains each event's mmap'd ring while the window runs, and resolves the
sampled instruction pointers with `nm` (the executable and the shared
objects it maps; a stripped object reads as its file name) and
`/proc/kallsyms` (the kernel). Threads are grouped by name with the trailing number dropped
(`oasis-wire-worker-3` reads `oasis-wire-work` in /proc: the kernel keeps
15 bytes of a name) and, when their CPU affinities differ, by the CPUs
they may run on. Each group prints its share of all samples, the
kernel's share of its own, the share of the scheduler's switch and wake-up
paths, its voluntary and involuntary context switches over the window
(from `/proc/PID/task/*/status`), its time by syscall (the entry point
found in a kernel sample's callchain; user-space samples count apart) and
its hottest symbols.

Standard library only. Sampling the kernel needs root (or CAP_PERFMON, or
`kernel.perf_event_paranoid` <= 1); reading kernel addresses needs
`kernel.kptr_restrict` = 0 or root. Threads started after the window opens
are not sampled.

    python3 tools/cpu_sample.py PID [--seconds 3] [--freq 1000] [--top 12]

Example: sample the deployment threads of a benchmark run 5 s in, after
setup, for 3 s:

    target/release/e2e run --workload single_node --seed 3 --seconds 20 --trace 0 &
    sleep 5; python3 tools/cpu_sample.py $! --seconds 3
"""

import argparse
import bisect
import collections
import ctypes
import fcntl
import mmap
import os
import platform
import re
import struct
import subprocess
import sys
import time

PERF_TYPE_SOFTWARE = 1
PERF_COUNT_SW_CPU_CLOCK = 0
PERF_SAMPLE_IP = 1 << 0
PERF_SAMPLE_TID = 1 << 1
PERF_SAMPLE_CALLCHAIN = 1 << 5
ATTR_DISABLED = 1 << 0
ATTR_EXCLUDE_HV = 1 << 6
ATTR_FREQ = 1 << 10
ATTR_EXCLUDE_CALLCHAIN_USER = 1 << 22
PERF_CONTEXT_MAX = (1 << 64) - 4095  # callchain entries from here up are markers
PERF_FLAG_FD_CLOEXEC = 1 << 3
PERF_EVENT_IOC_ENABLE = 0x2400
PERF_EVENT_IOC_DISABLE = 0x2401
PERF_RECORD_LOST = 2
PERF_RECORD_SAMPLE = 9
PERF_RECORD_MISC_CPUMODE_MASK = 7
PERF_RECORD_MISC_KERNEL = 1
SYS_PERF_EVENT_OPEN = {"x86_64": 298, "aarch64": 241}

PAGE = mmap.PAGESIZE
RING_PAGES = 128  # data pages per thread, a power of two
# `struct perf_event_mmap_page`: data_head, data_tail, data_offset, data_size.
HEAD_AT, TAIL_AT = 1024, 1032

# The scheduler's context-switch and wake-up paths. With a software clock
# a sample lands where interrupts come back on, so time spent with them off
# inside the scheduler shows up on the unlock that re-enables them.
SWITCH_WAKE = re.compile(
    r"^(finish_task_switch|__schedule|schedule|_raw_spin_unlock_irq|"
    r"_raw_spin_unlock_irqrestore|try_to_wake_up|ttwu_|__switch_to|"
    r"enqueue_task|dequeue_task|pick_next_task|select_task_rq|"
    r"__wake_up|wake_up_q|futex_wake|futex_wait|ep_poll_callback)"
)
# A syscall's entry point, the outermost frame of a kernel callchain.
SYSCALL = re.compile(r"^__(?:x64|arm64)_sys_(\w+)$")


class PerfEventAttr(ctypes.Structure):
    """The first 64 bytes of `struct perf_event_attr` (PERF_ATTR_SIZE_VER0)."""

    _fields_ = [
        ("type", ctypes.c_uint32),
        ("size", ctypes.c_uint32),
        ("config", ctypes.c_uint64),
        ("sample_freq", ctypes.c_uint64),
        ("sample_type", ctypes.c_uint64),
        ("read_format", ctypes.c_uint64),
        ("flags", ctypes.c_uint64),
        ("wakeup_events", ctypes.c_uint32),
        ("bp_type", ctypes.c_uint32),
        ("config1", ctypes.c_uint64),
    ]


def perf_open(tid, freq):
    """A disabled cpu-clock sampling event on thread `tid`, and its ring."""
    libc = ctypes.CDLL(None, use_errno=True)
    attr = PerfEventAttr(
        type=PERF_TYPE_SOFTWARE,
        size=ctypes.sizeof(PerfEventAttr),
        config=PERF_COUNT_SW_CPU_CLOCK,
        sample_freq=freq,
        sample_type=PERF_SAMPLE_IP | PERF_SAMPLE_TID | PERF_SAMPLE_CALLCHAIN,
        flags=ATTR_DISABLED | ATTR_EXCLUDE_HV | ATTR_FREQ | ATTR_EXCLUDE_CALLCHAIN_USER,
    )
    number = SYS_PERF_EVENT_OPEN[platform.machine()]
    fd = libc.syscall(number, ctypes.byref(attr), tid, -1, -1, PERF_FLAG_FD_CLOEXEC)
    if fd < 0:
        err = ctypes.get_errno()
        raise OSError(err, f"perf_event_open(tid {tid}): {os.strerror(err)}")
    ring = mmap.mmap(fd, (1 + RING_PAGES) * PAGE, mmap.MAP_SHARED,
                     mmap.PROT_READ | mmap.PROT_WRITE)
    return fd, ring


def drain(ring, chunks):
    """Copies the records waiting in `ring` onto `chunks` and frees their
    space; parsing waits until the window closes, so that the sampler takes
    as little CPU from the sampled process as it can."""
    head = struct.unpack_from("<Q", ring, HEAD_AT)[0]
    tail = struct.unpack_from("<Q", ring, TAIL_AT)[0]
    size = RING_PAGES * PAGE
    if head == tail:
        return
    start, end = PAGE + tail % size, PAGE + head % size
    if start < end:
        chunks.append(ring[start:end])
    else:  # the waiting records wrap around the end of the ring
        chunks.append(ring[start:PAGE + size] + ring[PAGE:end])
    struct.pack_into("<Q", ring, TAIL_AT, head)


def parse(stream):
    """The samples [(ip, kernel?, kernel callchain)] in one thread's record
    stream, and the number of samples the kernel reported lost."""
    samples, lost, at = [], 0, 0
    while at + 8 <= len(stream):
        kind, misc, length = struct.unpack_from("<IHH", stream, at)
        if length == 0:
            break
        if kind == PERF_RECORD_SAMPLE:
            ip, _, depth = struct.unpack_from("<QQQ", stream, at + 8)
            chain = struct.unpack_from(f"<{depth}Q", stream, at + 32)
            mode = misc & PERF_RECORD_MISC_CPUMODE_MASK
            samples.append((ip, mode == PERF_RECORD_MISC_KERNEL,
                            [f for f in chain if f < PERF_CONTEXT_MAX]))
        elif kind == PERF_RECORD_LOST:
            lost += struct.unpack_from("<QQ", stream, at + 8)[1]
        at += length
    return samples, lost


def thread_groups(pid):
    """{tid: group}: the thread's name without its trailing number (the
    pool it belongs to), and, when the process's threads are not all
    allowed the same CPUs, `@` and the CPUs this one is allowed."""
    names, cpus = {}, {}
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/comm") as f:
                name = f.read().strip()
            with open(f"/proc/{pid}/task/{tid}/status") as f:
                allowed = [l.split(":")[1].strip() for l in f if l.startswith("Cpus_allowed_list")]
        except OSError:
            continue  # exited
        names[int(tid)] = re.sub(r"[-_ ]?\d+$", "", name) or name
        cpus[int(tid)] = allowed[0] if allowed else "?"
    if len(set(cpus.values())) > 1:
        return {tid: f"{name}@{cpus[tid]}" for tid, name in names.items()}
    return names


def switches(pid):
    """{tid: (voluntary, involuntary)} context switches so far."""
    out = {}
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/status") as f:
                fields = dict(line.split(":", 1) for line in f if ":" in line)
        except OSError:
            continue
        out[int(tid)] = (int(fields["voluntary_ctxt_switches"]),
                         int(fields["nonvoluntary_ctxt_switches"]))
    return out


class Symbols:
    """Instruction pointer -> symbol name, for one process and the kernel."""

    def __init__(self, pid):
        self.maps = []  # (start, end, file offset, path)
        with open(f"/proc/{pid}/maps") as f:
            for line in f:
                parts = line.split()
                if len(parts) >= 6 and "x" in parts[1]:
                    start, end = (int(x, 16) for x in parts[0].split("-"))
                    self.maps.append((start, end, int(parts[2], 16), parts[5]))
        self.tables = {}
        self.kernel = self._table_from(self._kallsyms())

    @staticmethod
    def _table_from(pairs):
        pairs.sort()
        return [a for a, _ in pairs], [n for _, n in pairs]

    @staticmethod
    def _kallsyms():
        pairs = []
        with open("/proc/kallsyms") as f:
            for line in f:
                addr, kind, name = line.split()[:3]
                if kind in "tTwW" and int(addr, 16):
                    pairs.append((int(addr, 16), name))
        return pairs

    @staticmethod
    def _loads(path):
        """The ELF file's PT_LOAD segments: [(file offset, vaddr, size)]."""
        with open(path, "rb") as f:
            ident = f.read(64)
            if ident[:4] != b"\x7fELF" or ident[4] != 2:
                return []
            phoff, = struct.unpack_from("<Q", ident, 32)
            phentsize, phnum = struct.unpack_from("<HH", ident, 54)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
        loads = []
        for i in range(phnum):
            kind, _, offset, vaddr = struct.unpack_from("<IIQQ", table, i * phentsize)
            filesz, = struct.unpack_from("<Q", table, i * phentsize + 32)
            if kind == 1:
                loads.append((offset, vaddr, filesz))
        return loads

    def _file(self, path):
        """The file's static symbols (none for a stripped object: the
        nearest exported symbol would name the wrong function) and loads."""
        if path not in self.tables:
            pairs, loads = [], []
            try:
                out = subprocess.run(["nm", "-C", "--defined-only", path],
                                     capture_output=True, text=True, check=False).stdout
                loads = self._loads(path)
            except OSError:
                out = ""
            for line in out.splitlines():
                parts = line.split(" ", 2)
                if len(parts) == 3 and parts[1] in "tTwW" and parts[0]:
                    name = re.sub(r"::h[0-9a-f]{16}$", "", parts[2])
                    pairs.append((int(parts[0], 16), name))
            self.tables[path] = (self._table_from(pairs), loads)
        return self.tables[path]

    @staticmethod
    def _lookup(table, addr):
        addrs, names = table
        i = bisect.bisect_right(addrs, addr) - 1
        return names[i] if i >= 0 else None

    def syscall(self, chain):
        """What a kernel sample was doing: the syscall its callchain entered
        by, or `(no syscall)` (interrupts, softirqs, kernel threads' work)."""
        for ip in reversed(chain):
            found = SYSCALL.match(self._lookup(self.kernel, ip) or "")
            if found:
                return found.group(1)
        return "(no syscall)"

    def name(self, ip, kernel):
        if kernel:
            return "[k] " + (self._lookup(self.kernel, ip) or hex(ip))
        for start, end, offset, path in self.maps:
            if start <= ip < end:
                if not path.startswith("/"):
                    return path  # [vdso] and the like
                table, loads = self._file(path)
                file_offset = ip - start + offset
                for seg_offset, vaddr, size in loads:
                    if seg_offset <= file_offset < seg_offset + size:
                        found = self._lookup(table, file_offset - seg_offset + vaddr)
                        if found:
                            return found
                return f"[{os.path.basename(path)}]"
        return "[unknown]"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pid", type=int)
    parser.add_argument("--seconds", type=float, default=3.0)
    parser.add_argument("--freq", type=int, default=1000, help="samples per CPU-second")
    parser.add_argument("--top", type=int, default=12, help="symbols shown per group")
    args = parser.parse_args()

    groups_of = thread_groups(args.pid)
    events = {}
    for tid in groups_of:
        try:
            events[tid] = perf_open(tid, args.freq)
        except OSError as e:
            print(f"skipping thread {tid} ({groups_of[tid]}): {e}", file=sys.stderr)
    if not events:
        sys.exit("no thread could be sampled")
    symbols = Symbols(args.pid)  # before the window: nm takes CPU of its own

    chunks = {tid: [] for tid in events}
    before = switches(args.pid)
    for fd, _ in events.values():
        fcntl.ioctl(fd, PERF_EVENT_IOC_ENABLE, 0)
    deadline = time.monotonic() + args.seconds
    while time.monotonic() < deadline:
        time.sleep(min(0.1, max(0.0, deadline - time.monotonic())))
        for tid, (_, ring) in events.items():
            drain(ring, chunks[tid])
    for fd, _ in events.values():
        fcntl.ioctl(fd, PERF_EVENT_IOC_DISABLE, 0)
    after = switches(args.pid)
    for tid, (fd, ring) in events.items():
        drain(ring, chunks[tid])
        ring.close()
        os.close(fd)

    groups = collections.defaultdict(lambda: {
        "threads": 0, "samples": 0, "kernel": 0, "switch": 0,
        "vol": 0, "invol": 0, "symbols": collections.Counter(),
        "syscalls": collections.Counter()})
    total = lost = 0
    for tid, pieces in chunks.items():
        taken, missed = parse(b"".join(pieces))
        lost += missed
        g = groups[groups_of[tid]]
        g["threads"] += 1
        if tid in before and tid in after:
            g["vol"] += after[tid][0] - before[tid][0]
            g["invol"] += after[tid][1] - before[tid][1]
        for ip, kernel, chain in taken:
            name = symbols.name(ip, kernel)
            g["samples"] += 1
            g["kernel"] += kernel
            g["switch"] += kernel and bool(SWITCH_WAKE.match(name[4:]))
            g["symbols"][name] += 1
            g["syscalls"][symbols.syscall(chain) if kernel else "(user space)"] += 1
        total += len(taken)

    period_ms = 1000.0 / args.freq
    print(f"pid {args.pid}: {total} samples over {args.seconds:g} s at {args.freq} Hz "
          f"(~{total * period_ms / 1000 / args.seconds:.2f} CPUs busy), {lost} lost")
    print(f"{'group':<18} {'thr':>3} {'samples':>8} {'share':>6} {'kernel':>7} "
          f"{'switch':>7} {'vol cs':>8} {'invol cs':>8}")
    ordered = sorted(groups.items(), key=lambda kv: -kv[1]["samples"])
    for group, g in ordered:
        n = max(g["samples"], 1)
        print(f"{group:<18} {g['threads']:>3} {g['samples']:>8} "
              f"{100 * g['samples'] / max(total, 1):>5.1f}% {100 * g['kernel'] / n:>6.1f}% "
              f"{100 * g['switch'] / n:>6.1f}% {g['vol']:>8} {g['invol']:>8}")
    for group, g in ordered:
        if not g["samples"]:
            continue
        for title, key in (("by syscall", "syscalls"), ("hottest symbols", "symbols")):
            print(f"\n{group}: {title} (share of the group's samples)")
            for name, count in g[key].most_common(args.top):
                print(f"  {100 * count / g['samples']:5.1f}%  {name}")


if __name__ == "__main__":
    main()
