#!/usr/bin/env python3
"""Share of the simulator's host time per layer, from a gprof profile.

    scripts/layer_profile.py [--workload repair-hostkill] [--seconds 8]
                             [--seed 42] [--root CHECKOUT] [--save FILE]
    scripts/layer_profile.py --from-gprof FILE [FILE ...]

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

Exit status: 0 on success, 2 when the build, the run or the profile failed.
"""

import argparse
import os
import re
import resource
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNEL = "perfbench::reference_kernel_s()"
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


def table(columns, seconds):
    """Markdown table: one row per layer, one share column per profile,
    below the `seconds` lines."""
    extra = sorted({k for _, shares in columns for k in shares
                    if k not in LAYERS and k != UNATTRIBUTED})
    rows = LAYERS + extra + [UNATTRIBUTED]
    out = seconds + [UNSEEN, "", LIMITS, "",
           "| Layer | " + " | ".join(label for label, _ in columns) + " |",
           "|---|" + "---:|" * len(columns)]
    for layer in rows:
        cells = [f"{100.0 * shares.get(layer, 0.0):.1f} %"
                 for _, shares in columns]
        out.append(f"| {layer} | " + " | ".join(cells) + " |")
    return "\n".join(out)


# --- building and running the profiled benchmark --------------------------

def run(cmd, **kw):
    proc = subprocess.run(cmd, **kw)
    if proc.returncode != 0:
        fail(f"command failed ({proc.returncode}): {' '.join(map(str, cmd))}")
    return proc


def profile(root, workload, seconds, seed):
    for tool in ("cmake", "gprof"):
        if shutil.which(tool) is None:
            fail(f"{tool} not found")
    if not (root / "perfbench" / "CMakeLists.txt").is_file():
        fail(f"no perfbench/ under {root}")
    build = root / ".bench_build" / "profile"
    if not (build / "CMakeCache.txt").is_file():
        run(["cmake", "-S", str(root / "perfbench"), "-B", str(build),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo", "-DCMAKE_CXX_FLAGS=-pg",
             "-DCMAKE_EXE_LINKER_FLAGS=-pg"], stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    run(["cmake", "--build", str(build), "--target", "perfbench", "-j", jobs],
        stdout=sys.stderr)
    binary = build / "perfbench"
    gmon = build / "gmon.out"
    if gmon.exists():
        gmon.unlink()
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    run([str(binary), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--out", str(build / "result.json")],
        cwd=build, stdout=sys.stderr)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime -
                                                  before.ru_stime)
    if not gmon.is_file():
        fail("the profiled run wrote no gmon.out")
    text = run(["gprof", "-b", str(binary), str(gmon)], capture_output=True,
               text=True).stdout
    return text, cpu_s


def main():
    ap = argparse.ArgumentParser(
        description="Share of the simulator's host time per layer (gprof).")
    ap.add_argument("--workload", default="repair-hostkill")
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--root", type=Path, default=ROOT,
                    help="checkout to build and profile (default: this one)")
    ap.add_argument("--save", type=Path,
                    help="also write the gprof -b text to this file")
    ap.add_argument("--from-gprof", nargs="+", type=Path, metavar="FILE",
                    help="read saved gprof -b texts instead of profiling")
    args = ap.parse_args()

    columns, seconds = [], []
    if args.from_gprof:
        for path in args.from_gprof:
            try:
                text = path.read_text()
            except OSError as e:
                fail(f"cannot read {path}: {e}")
            columns.append((path.name, layer_shares(text)))
            seconds.append(attributed(path.name, text))
    else:
        text, cpu_s = profile(args.root.resolve(), args.workload,
                              args.seconds, args.seed)
        if args.save:
            args.save.write_text(text)
        columns.append((args.workload, layer_shares(text)))
        seconds.append(attributed(args.workload, text, cpu_s))
    print(table(columns, seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
