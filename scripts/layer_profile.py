#!/usr/bin/env python3
"""Share of the simulator's host time per layer, from gprof or PC samples.

    scripts/layer_profile.py [--workload repair-hostkill] [--seconds 8]
                             [--seed 42] [--root CHECKOUT] [--save FILE]
                             [--sample] [--top N]
    scripts/layer_profile.py --from-gprof FILE [FILE ...] [--top N]
    scripts/layer_profile.py --from-samples FILE [FILE ...] [--top N]

The first form builds perfbench with -pg into <root>/.bench_build/profile
(`cmake -S perfbench -B ... -DCMAKE_CXX_FLAGS=-pg
-DCMAKE_EXE_LINKER_FLAGS=-pg`; nothing under perfbench/ changes), runs one
workload for --seconds, reads the profile with `gprof -b` and prints a
markdown table of each layer's share of the simulator's samples. --root
profiles another checkout (a parent commit, say) with this script; --save
keeps the `gprof -b` text. The second form reads saved `gprof -b` texts
instead, one table column per file.

Each function's self time is charged to a layer read from its `sanfault::`
namespace and class: `sim::Scheduler` and its `sim::BucketRing` are the
event queue, the rest of `sim` is "sim other", the mappers (`OnDemandMapper`, `FullMapper`,
`MapperIface`, `UpDownRouting`) are split out of `firmware`, and every
other namespace is its own layer. A lambda is charged to its enclosing
class through its trampoline (`InlineFn::invoke_inline<...>`,
`std::_Function_handler<...>`); a standard-library template to the first
`sanfault::` type among its arguments; anything else is unattributed.
perfbench's calibration kernel (`perfbench::reference_kernel_s` and, per
the call graph, the time its callees spend on its behalf) is left out:
gprof also charges one of those callees to a wrongly named symbol
(`std::vector<std::string>::_M_realloc_insert`).

Limits, printed above every table: -pg adds a counting call to every
function, which inflates call-heavy code, and gprof can charge a coroutine
body to a neighbouring symbol of its class (seen: `SwimAgent::next_target`,
`KvClientHost::KvClientHost`). So the table gives layer shares only, not
functions or seconds.

The shares are of the seconds gprof's flat profile attributes, which can be
half of the run or less: time in shared libraries (memcpy, malloc, libm),
in -pg's mcount and in the kernel falls in no row. So above the table the
script prints the seconds the flat profile holds and the calibration
kernel's part of them, and, when it ran the profile itself, the profiled
process's CPU seconds (user + sys, from its rusage) beside them.

--sample profiles without -pg. It builds perfbench as perfbench/run.py does
(into <root>/.bench_build/perfbench), builds scripts/pc_sampler.c with the
system C compiler into <root>/.bench_build/pc_sampler.so, and runs
perfbench with that library preloaded: a timer_create timer on
CLOCK_MONOTONIC interrupts it every 100 us and records the program counter
(ITIMER_PROF fired only about every 3.7 ms on a 4-core virtual machine).
Each PC is named with `nm` and charged by the same namespace rules; a
sample in a shared library is charged to a row of its own (libc, libm,
libstdc++, ...). Samples in perfbench::reference_kernel_s are left out, and
so are those in the heap functions instantiated for its events alone (a
std::priority_queue of std::pair<unsigned long, unsigned int> under
std::greater<void>, which no simulator code uses). --save then keeps the
named samples, one `count<TAB>object<TAB>function` line each, which
--from-samples reads back. A sample names the function it interrupted, so a
function inlined into its caller is charged to the caller, and a library's
internal functions, which its dynamic symbol table does not list, carry the
name of the exported symbol before them; their library's row is right
either way.

--top N also lists the N functions with the largest share of each profile
(its flat-profile self time, or its samples), the calibration kernel left
out.

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
UNSEEN = ("Time in shared libraries (memcpy, malloc, libm), in -pg's mcount "
          "and in the kernel falls in no row.")
LIMITS = ("Shares of gprof self-time samples, perfbench's calibration kernel "
          "excluded. -pg inflates call-heavy code, and a coroutine body can "
          "be charged to a neighbouring symbol of its class, so this table "
          "reports layer shares only, not functions or seconds.")
SAMPLED_LIMITS = ("Shares of PC samples, perfbench's calibration kernel "
                  "excluded. A sample is charged to the function it "
                  "interrupted: an inlined function to its caller, a shared "
                  "library to its own row.")
SAMPLES_HEADER = re.compile(r"^# pc samples every (\d+) us; (\d+) dropped$")

FLAT_ROW = re.compile(r"^\s*([\d.]+)\s+([\d.]+)\s+([\d.]+)\s+"
                      r"(?:\d+\s+[\d.]+\s+[\d.]+\s+)?(\S.*)$")
GRAPH_ROW = re.compile(r"^\s*([\d.]+)\s+([\d.]+)\s+(?:[\d+/]+\s+)?(\S.*?)\s+"
                       r"\[\d+\]$")
OPERATOR = re.compile(r"operator(<=>|<<=|>>=|<<|>>|<=|>=|->\*|->|<|>|\(\))")
NAMESPACE = re.compile(r"sanfault::(\w+)::(\w+)")


def fail(msg):
    print(f"layer_profile: {msg}", file=sys.stderr)
    sys.exit(2)


# --- reading gprof -b output ----------------------------------------------

def parse_flat(text):
    """{function: self seconds} from the flat profile."""
    self_s = {}
    part = text.split("Call graph", 1)[0]
    for line in part.splitlines():
        m = FLAT_ROW.match(line)
        if m:
            name = m.group(4).strip()
            self_s[name] = self_s.get(name, 0.0) + float(m.group(3))
    return self_s


def kernel_arcs(text):
    """{callee: self seconds it spent on the calibration kernel's behalf}."""
    if "Call graph" not in text:
        return {}
    graph = text.split("Call graph", 1)[1]
    for block in graph.split("-----"):
        lines = [ln for ln in block.splitlines() if ln.strip()]
        primary = [i for i, ln in enumerate(lines)
                   if ln.lstrip().startswith("[") and
                   ln.rstrip().endswith("]") and KERNEL in ln]
        if not primary:
            continue
        arcs = {}
        for ln in lines[primary[0] + 1:]:
            m = GRAPH_ROW.match(ln)
            if m:
                arcs[m.group(3)] = arcs.get(m.group(3), 0.0) + float(m.group(1))
        return arcs
    return {}


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


def simulator_seconds(text):
    """({function: self seconds}, kernel excluded; the flat profile's total
    seconds; the calibration kernel's part of that total)."""
    self_s = parse_flat(text)
    if not self_s:
        fail("no flat profile rows in the gprof output")
    total = sum(self_s.values())
    kernel = self_s.pop(KERNEL, 0.0)
    for callee, s in kernel_arcs(text).items():
        if callee in self_s:
            taken = min(self_s[callee], s)
            self_s[callee] -= taken
            kernel += taken
    return self_s, total, kernel


def attributed(label, text, cpu_s=None):
    """One line: the seconds gprof attributed, beside the run's CPU time."""
    _, total, kernel = simulator_seconds(text)
    held = f"gprof's flat profile holds {total:.2f} s"
    if cpu_s is not None:
        held += f" of the profiled process's {cpu_s:.2f} s CPU (user + sys)"
    return (f"{label}: {held}, {kernel:.2f} s of it perfbench's calibration "
            "kernel.")


def layer_shares(text):
    """{layer: share of the simulator's samples}, kernel excluded."""
    self_s, _, _ = simulator_seconds(text)
    by_layer = {}
    for name, s in self_s.items():
        layer = layer_of(name)
        by_layer[layer] = by_layer.get(layer, 0.0) + s
    total = sum(by_layer.values())
    if total <= 0.0:
        fail("the profile holds no simulator samples")
    return {k: v / total for k, v in by_layer.items()}


def table(columns, seconds, notes):
    """Markdown table: one row per layer, one share column per profile,
    below the `seconds` lines and the `notes`."""
    extra = sorted({k for _, shares in columns for k in shares
                    if k not in LAYERS and k != UNATTRIBUTED})
    rows = LAYERS + extra + [UNATTRIBUTED]
    out = seconds + notes + ["",
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


def build_perfbench(root, build, flags):
    if not (root / "perfbench" / "CMakeLists.txt").is_file():
        fail(f"no perfbench/ under {root}")
    if not (build / "CMakeCache.txt").is_file():
        run(["cmake", "-S", str(root / "perfbench"), "-B", str(build),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *flags], stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", str(build), "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr)
    return build / "perfbench"


def run_workload(binary, build, workload, seconds, seed, env=None):
    """Runs perfbench in `build`; returns the run's CPU seconds."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    run([str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--out", str(build / "result.json")],
        cwd=build, stdout=sys.stderr, env=env)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime -
                                                 before.ru_stime)


def profile(root, workload, seconds, seed):
    for tool in ("cmake", "gprof"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    build = root / ".bench_build" / "profile"
    binary = build_perfbench(root, build, ["-DCMAKE_CXX_FLAGS=-pg",
                                           "-DCMAKE_EXE_LINKER_FLAGS=-pg"])
    gmon = build / "gmon.out"
    if gmon.exists():
        gmon.unlink()
    cpu_s = run_workload(binary, build, workload, seconds, seed)
    if not gmon.is_file():
        fail("the profiled run wrote no gmon.out")
    text = run(["gprof", "-b", str(binary), str(gmon)], capture_output=True,
               text=True).stdout
    return text, cpu_s


def sample(root, workload, seconds, seed):
    for tool in ("cmake", "cc", "nm"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    build = root / ".bench_build" / "perfbench"
    binary = build_perfbench(root, build, [])
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
                    help="also write the gprof -b text, or the named "
                         "samples, to this file")
    ap.add_argument("--sample", action="store_true",
                    help="sample PCs without -pg instead of using gprof")
    ap.add_argument("--top", type=int, default=0, metavar="N",
                    help="also list the N heaviest functions")
    src = ap.add_mutually_exclusive_group()
    src.add_argument("--from-gprof", nargs="+", type=Path, metavar="FILE",
                     help="read saved gprof -b texts instead of profiling")
    src.add_argument("--from-samples", nargs="+", type=Path, metavar="FILE",
                     help="read saved named samples instead of profiling")
    args = ap.parse_args()

    # (label, text, CPU seconds or None) per profile.
    profiles = []
    sampled_mode = args.sample or args.from_samples is not None
    if args.from_gprof or args.from_samples:
        for path in args.from_gprof or args.from_samples:
            profiles.append((path.name, read(path), None))
    else:
        root = args.root.resolve()
        if args.sample:
            text, cpu_s = sample(root, args.workload, args.seconds, args.seed)
        else:
            text, cpu_s = profile(root, args.workload, args.seconds,
                                  args.seed)
        if args.save:
            args.save.write_text(text)
        profiles.append((args.workload, text, cpu_s))

    columns, seconds, tops = [], [], []
    for label, text, cpu_s in profiles:
        if sampled_mode:
            weights, shares = sample_weights(text)
            seconds.append(sampled(label, text, cpu_s))
        else:
            self_s, _, _ = simulator_seconds(text)
            weights = {}
            for fn, sec in self_s.items():
                weights[qualified_name(fn)] = weights.get(qualified_name(fn),
                                                          0.0) + sec
            shares = layer_shares(text)
            seconds.append(attributed(label, text, cpu_s))
        columns.append((label, shares))
        if args.top > 0:
            tops.append(top_table(label, weights, args.top))
    notes = [SAMPLED_LIMITS] if sampled_mode else [UNSEEN, "", LIMITS]
    print(table(columns, seconds, [""] + notes))
    for t in tops:
        print(t)
    return 0


if __name__ == "__main__":
    sys.exit(main())
