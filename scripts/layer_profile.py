#!/usr/bin/env python3
"""Share of the simulator's host time per layer, from PC samples.

    scripts/layer_profile.py [--workload repair-hostkill] [--seconds 8]
                             [--seed 42] [--root CHECKOUT] [--save FILE]
                             [--top N]
    scripts/layer_profile.py --from-samples FILE [FILE ...] [--top N]

The first form builds perfbench as perfbench/run.py does (into
<root>/.bench_build/perfbench; nothing under perfbench/ changes), builds
scripts/pc_sampler.c with the system C compiler into
<root>/.bench_build/pc_sampler.so, and runs one workload for --seconds with
that library preloaded: a timer_create timer on CLOCK_MONOTONIC interrupts
it every 100 us and records the program counter (ITIMER_PROF fired only
about every 3.7 ms on a 4-core virtual machine). It prints a markdown table
of each layer's share of the samples. --root profiles another checkout (a
parent commit, say) with this script; --save keeps the named samples, one
`count<TAB>object<TAB>function` line each. The second form reads saved
samples instead, one table column per file.

Each PC is named with `nm`. A function in the program is charged to a layer
read from its `sanfault::` namespace and class: `sim::Scheduler` and its
`sim::BucketRing` are the event queue, the rest of `sim` is "sim other",
the mappers (`OnDemandMapper`, `FullMapper`, `MapperIface`,
`UpDownRouting`) are split out of `firmware`, and every other namespace is
its own layer. A lambda is charged to its enclosing class through its
trampoline (`InlineFn::invoke_inline<...>`, `std::_Function_handler<...>`);
a standard-library template to the first `sanfault::` type among its
arguments; anything else is unattributed. A sample in a shared library is
charged to a row of its own (libc, libm, libstdc++, ...).

perfbench's calibration kernel is left out: the samples in
perfbench::reference_kernel_s and those in the heap functions instantiated
for its events alone (a std::priority_queue of std::pair<unsigned long,
unsigned int> under std::greater<void>, which no simulator code uses).

Limits, printed above every table: a sample names the function it
interrupted, so a function inlined into its caller is charged to the
caller, and a library's internal functions, which its dynamic symbol table
does not list, carry the name of the exported symbol before them (libc's
memmove reads as `__nss_database_lookup`); their library's row is right
either way. Above the table the script prints each profile's sample count,
and, when it ran the profile itself, the profiled process's CPU seconds
(user + sys, from its rusage) beside them; the user/sys split is
meaningless under the sampler, whose signal path charges ticks to the
kernel.

--top N also lists the N functions with the largest share of each
profile's samples, the calibration kernel left out.

Exit status: 0 on success, 2 when the build, the run or the profile failed.
"""

import argparse
import bisect
import os
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SAMPLER = ROOT / "scripts" / "pc_sampler.c"
KERNEL = "perfbench::reference_kernel_s()"
# The calibration kernel's event heap, instantiated for it alone.
KERNEL_HEAP = ("std::pair<unsigned long, unsigned int>", "std::greater<void>")
LAYERS = ["event queue", "sim other", "net", "nic", "firmware", "mapper",
          "vmmc", "kv", "membership", "traffic", "chaos", "ec", "obs"]
UNATTRIBUTED = "unattributed"
QUEUE_CLASSES = {"Scheduler", "BucketRing"}
MAPPER_CLASSES = {"OnDemandMapper", "FullMapper", "MapperIface",
                  "UpDownRouting"}
LIMITS = ("Shares of PC samples, perfbench's calibration kernel excluded. "
          "A sample is charged to the function it interrupted: an inlined "
          "function to its caller, a shared library to its own row.")
SAMPLES_HEADER = re.compile(r"^# pc samples every (\d+) us; (\d+) dropped$")

OPERATOR = re.compile(r"operator(<=>|<<=|>>=|<<|>>|<=|>=|->\*|->|<|>|\(\))")
NAMESPACE = re.compile(r"sanfault::(\w+)::(\w+)")


def fail(msg):
    print(f"layer_profile: {msg}", file=sys.stderr)
    sys.exit(2)


# --- charging a symbol to a layer -----------------------------------------

def split_top(s, sep):
    """Split `s` at `sep` characters outside <> and ()."""
    out, depth, cur = [], 0, []
    for ch in s:
        if ch in "<(":
            depth += 1
        elif ch in ">)":
            depth -= 1
        if ch == sep and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out


def template_args(s, opener):
    """Top-level template arguments of the first `opener<...>` in `s`."""
    start = s.find(opener + "<")
    if start < 0:
        return []
    depth = 0
    for i in range(start + len(opener), len(s)):
        if s[i] in "<(":
            depth += 1
        elif s[i] in ">)":
            depth -= 1
            if depth == 0:
                return split_top(s[start + len(opener) + 1:i], ",")
    return []


def qualified_name(symbol):
    """The function's qualified name: no return type, no parameter list."""
    s = OPERATOR.sub("operatorX", symbol).replace("(anonymous namespace)",
                                                  "anonymous")
    depth = 0
    for i, ch in enumerate(s):
        if ch == "<":
            depth += 1
        elif ch == ">":
            depth -= 1
        elif ch == "(" and depth == 0:
            s = s[:i]
            break
    return split_top(s, " ")[-1].strip()


def layer_of(symbol):
    name = qualified_name(symbol)
    target = name
    if "::invoke_inline<" in name:
        args = template_args(name, "invoke_inline")
        target = args[0] if args else name
    elif name.startswith("std::_Function_handler<"):
        args = template_args(name, "std::_Function_handler")
        target = args[1] if len(args) > 1 else name
    elif not name.startswith("sanfault::"):
        target = symbol  # a library template: its first sanfault:: type
    m = NAMESPACE.search(target)
    if not m:
        return UNATTRIBUTED
    ns, cls = m.group(1), m.group(2)
    if ns == "sim":
        return "event queue" if cls in QUEUE_CLASSES else "sim other"
    if ns == "firmware" and cls in MAPPER_CLASSES:
        return "mapper"
    return ns


def table(columns, counts, notes):
    """Markdown table: one row per layer, one share column per profile,
    below the `counts` lines and the `notes`."""
    extra = sorted({k for _, shares in columns for k in shares
                    if k not in LAYERS and k != UNATTRIBUTED})
    rows = LAYERS + extra + [UNATTRIBUTED]
    out = counts + notes + ["",
           "| Layer | " + " | ".join(label for label, _ in columns) + " |",
           "|---|" + "---:|" * len(columns)]
    for layer in rows:
        cells = [f"{100.0 * shares.get(layer, 0.0):.1f} %"
                 for _, shares in columns]
        out.append(f"| {layer} | " + " | ".join(cells) + " |")
    return "\n".join(out)


def top_table(label, weights, n):
    """Markdown table of the `n` heaviest functions' shares of `weights`."""
    total = sum(weights.values())
    out = ["", f"Top {n} functions of {label}:", "",
           "| Function | Share |", "|---|---:|"]
    for name, w in sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))[:n]:
        out.append(f"| `{name}` | {100.0 * w / total:.1f} % |")
    return "\n".join(out)


# --- PC samples --------------------------------------------------------------

def symbol_table(path):
    """Sorted [(address, name)] of the functions `nm` lists in `path`: its
    symbol table, or its dynamic one when the first is stripped."""
    for extra in ([], ["-D"]):
        proc = subprocess.run(["nm", "-C", "-n", "--defined-only", *extra,
                               path], capture_output=True, text=True)
        syms = []
        for line in proc.stdout.splitlines():
            parts = line.split(" ", 2)
            if len(parts) == 3 and parts[1] in "TtWwi":
                syms.append((int(parts[0], 16), parts[2]))
        if syms:
            return syms
    return []


def name_samples(raw):
    """The sampler's raw output -> the saved format: a header line, then one
    `count<TAB>object<TAB>function` line per function, heaviest first."""
    period, dropped, objects, counts = None, 0, [], {}
    for line in raw.splitlines():
        parts = line.split(" ", 4)
        if parts[0] == "period_us":
            period = int(parts[1])
        elif parts[0] == "dropped":
            dropped = int(parts[1])
        elif parts[0] == "object" and len(parts) == 5:
            objects.append((int(parts[1], 16), int(parts[2], 16),
                            int(parts[3], 16), parts[4]))
        elif parts[0] == "pc" and len(parts) == 3:
            counts[int(parts[1], 16)] = int(parts[2])
    if period is None:
        fail("the sampler wrote no period_us line")
    tables, named = {}, {}
    for pc, n in counts.items():
        where = ("?", "?")
        for lo, hi, base, path in objects:
            if lo <= pc < hi:
                if path not in tables:
                    tables[path] = symbol_table(path)
                syms = tables[path]
                i = bisect.bisect_right(syms, (pc - base, chr(0x10ffff))) - 1
                where = (Path(path).name, syms[i][1] if i >= 0 else "?")
                break
        named[where] = named.get(where, 0) + n
    lines = [f"# pc samples every {period} us; {dropped} dropped"]
    for (obj, fn), n in sorted(named.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(f"{n}\t{obj}\t{fn}")
    return "\n".join(lines) + "\n"


def read_samples(text):
    """(period in us, dropped, {(object, function): samples})."""
    lines = text.splitlines()
    m = SAMPLES_HEADER.match(lines[0]) if lines else None
    if not m:
        fail("not a named-samples file (no '# pc samples every' header)")
    counts = {}
    for line in lines[1:]:
        parts = line.split("\t", 2)
        if len(parts) != 3 or not parts[0].isdigit():
            fail(f"bad sample line: {line!r}")
        key = (parts[1], parts[2])
        counts[key] = counts.get(key, 0) + int(parts[0])
    return int(m.group(1)), int(m.group(2)), counts


def is_kernel(fn):
    return fn.startswith(KERNEL) or all(t in fn for t in KERNEL_HEAP)


def sample_layer(obj, fn):
    """A shared library's samples are its own row; the program's follow the
    namespace rules."""
    if ".so" in obj:
        return obj.split(".so", 1)[0]
    return UNATTRIBUTED if fn == "?" else layer_of(fn)


def sample_weights(text):
    """{function: samples} and {layer: share}, calibration kernel left out."""
    _, _, counts = read_samples(text)
    weights, by_layer = {}, {}
    for (obj, fn), n in counts.items():
        if is_kernel(fn):
            continue
        name = qualified_name(fn) if ".so" not in obj else f"{fn} ({obj})"
        weights[name] = weights.get(name, 0) + n
        layer = sample_layer(obj, fn)
        by_layer[layer] = by_layer.get(layer, 0) + n
    total = sum(by_layer.values())
    if total <= 0:
        fail("the samples hold no simulator samples")
    return weights, {k: v / total for k, v in by_layer.items()}


def sampled(label, text, cpu_s=None):
    """One line: how many samples, how many were the calibration kernel."""
    period, dropped, counts = read_samples(text)
    n = sum(counts.values())
    kernel = sum(c for (_, fn), c in counts.items() if is_kernel(fn))
    line = (f"{label}: {n} PC samples every {period} us "
            f"({n * period / 1e6:.2f} s)")
    if cpu_s is not None:
        line += f" of the profiled process's {cpu_s:.2f} s CPU (user + sys)"
    return (line + f", {kernel} of them perfbench's calibration kernel, "
            f"{dropped} dropped.")


# --- building and running the profiled benchmark --------------------------

def run(cmd, **kw):
    proc = subprocess.run(cmd, **kw)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(map(str, cmd))}")
    return proc


def build_perfbench(root, build):
    if not (root / "perfbench" / "CMakeLists.txt").is_file():
        fail(f"no perfbench/ under {root}")
    if not (build / "CMakeCache.txt").is_file():
        run(["cmake", "-S", str(root / "perfbench"), "-B", str(build),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", str(build), "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr)
    return build / "perfbench"


def run_workload(binary, build, workload, seconds, seed, env):
    """Runs perfbench in `build`; returns the run's CPU seconds."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    run([str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--out", str(build / "result.json")],
        cwd=build, stdout=sys.stderr, env=env)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime -
                                                 before.ru_stime)


def sample(root, workload, seconds, seed):
    for tool in ("cmake", "cc", "nm"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    build = root / ".bench_build" / "perfbench"
    binary = build_perfbench(root, build)
    shim = root / ".bench_build" / "pc_sampler.so"
    run(["cc", "-O2", "-shared", "-fPIC", "-o", str(shim), str(SAMPLER),
         "-lrt"], stdout=sys.stderr)
    raw = root / ".bench_build" / "pc_samples.txt"
    if raw.exists():
        raw.unlink()
    env = dict(os.environ, LD_PRELOAD=str(shim), SANFAULT_PC_SAMPLES=str(raw))
    cpu_s = run_workload(binary, build, workload, seconds, seed, env)
    if not raw.is_file():
        fail("the sampled run wrote no samples")
    return name_samples(raw.read_text()), cpu_s


def read(path):
    try:
        return path.read_text()
    except OSError as e:
        fail(f"cannot read {path}: {e}")


def main():
    ap = argparse.ArgumentParser(
        description="Share of the simulator's host time per layer.")
    ap.add_argument("--workload", default="repair-hostkill")
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout to build and profile (default: this one)")
    ap.add_argument("--save", type=Path,
                    help="also write the named samples to this file")
    ap.add_argument("--top", type=int, default=0, metavar="N",
                    help="also list the N heaviest functions")
    ap.add_argument("--from-samples", nargs="+", type=Path, metavar="FILE",
                    help="read saved named samples instead of profiling")
    args = ap.parse_args()

    # (label, text, CPU seconds or None) per profile.
    profiles = []
    if args.from_samples:
        for path in args.from_samples:
            profiles.append((path.name, read(path), None))
    else:
        text, cpu_s = sample(args.root.resolve(), args.workload, args.seconds,
                             args.seed)
        if args.save:
            args.save.write_text(text)
        profiles.append((args.workload, text, cpu_s))

    columns, counts, tops = [], [], []
    for label, text, cpu_s in profiles:
        weights, shares = sample_weights(text)
        counts.append(sampled(label, text, cpu_s))
        columns.append((label, shares))
        if args.top > 0:
            tops.append(top_table(label, weights, args.top))
    print(table(columns, counts, ["", LIMITS]))
    for t in tops:
        print(t)
    return 0


if __name__ == "__main__":
    sys.exit(main())
