// perfbench: the repository benchmark's measuring binary.
//
//   perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//             [--out result.json] [--spans spans.json]
//   perfbench --self-test      check the benchmark's own derived metrics
//
// Repeats the workload (a fresh rig each time, same seed) until --seconds
// have passed and at least three repeats ran, then reports medians. The
// reference kernel (calibrate.hpp) runs before every repeat and once after
// the last; host times are reported both as measured and scaled by it. With
// --trace 1 it alternates untraced and traced repeats: the traced ones
// yield the per-layer numbers and spans, and the pair gives the tracing
// overhead. Every repeat must pass its correctness gates and reproduce the
// first repeat's simulated outcome and registry digest exactly; otherwise
// the result says correct=false and the exit code is 1.
//
// perfbench/run.py builds this binary and is the benchmark's entry point.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "calibrate.hpp"
#include "derived.hpp"
#include "obs/json.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace {

using namespace perfbench;

constexpr std::size_t kMinRepeats = 3;

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Reset the kernel's peak-RSS mark of this process (Linux 4.0+), so that
/// each repeat's peak is read on its own rather than as a running maximum
/// that heap fragmentation inflates with the repeat count.
bool reset_peak_rss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

/// Peak RSS in MB since the last reset (VmHWM), or since the process began
/// when /proc is unavailable.
double peak_rss_mb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kib = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kib) == 1;
    }
    std::fclose(f);
    if (found) return static_cast<double>(kib) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

/// Shortest text that reads back as the same double.
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// Summed host duration of every span called `name` in one repeat.
double span_seconds(const std::vector<Span>& spans, const std::string& name) {
  double s = 0;
  for (const Span& sp : spans) {
    if (sp.name == name) s += sp.host_t1 - sp.host_t0;
  }
  return s;
}

std::string hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Every repeat must reproduce the first one's simulated outcome, digest
/// and (traced repeats) per-layer counts. Returns the repeats that did not.
std::size_t check_determinism(const std::vector<const RepeatResult*>& all,
                       const std::vector<const RepeatResult*>& traced,
                       std::vector<std::string>& violations) {
  const RepeatResult& ref = *all.front();
  const std::size_t before = violations.size();
  std::size_t bad = 0;
  for (std::size_t i = 1; i < all.size(); ++i) {
    const RepeatResult& r = *all[i];
    const std::size_t seen = violations.size();
    if (r.digest != ref.digest) {
      violations.push_back("registry digest differs on repeat " +
                           std::to_string(i) + ": " + hex(r.digest) + " vs " +
                           hex(ref.digest));
    }
    for (std::size_t k = 0; k < ref.sim.size() && k < r.sim.size(); ++k) {
      if (r.sim[k].value != ref.sim[k].value) {
        violations.push_back(ref.sim[k].name + " differs on repeat " +
                             std::to_string(i));
      }
    }
    if (violations.size() != seen) ++bad;
  }
  for (std::size_t i = 1; i < traced.size(); ++i) {
    if (traced[i]->layers != traced.front()->layers) {
      violations.push_back("per-layer counts differ on traced repeat " +
                           std::to_string(i));
    }
  }
  if (bad == 0 && violations.size() != before) bad = 1;
  return bad;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <name> [--seed N] [--seconds S] "
               "[--trace 0|1] [--out FILE] [--spans FILE]\n"
               "       %s --self-test\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const char* workload = nullptr;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  const char* out_path = nullptr;
  const char* spans_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--self-test") {
      const std::vector<std::string> failures = self_test();
      for (const std::string& f : failures) {
        std::printf("self-test FAILED: %s\n", f.c_str());
      }
      std::printf("self-test: %s\n", failures.empty() ? "ok" : "FAILED");
      return failures.empty() ? 0 : 1;
    } else if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (a == "--trace" && has_value) {
      trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--out" && has_value) {
      out_path = argv[++i];
    } else if (a == "--spans" && has_value) {
      spans_path = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  const Workload* w = nullptr;
  for (const Workload& cand : workloads()) {
    if (workload != nullptr && std::strcmp(cand.name, workload) == 0) w = &cand;
  }
  if (w == nullptr) return usage(argv[0]);

  std::printf("perfbench %s seed=%" PRIu64 " seconds=%g trace=%d\n", w->name,
              seed, seconds, trace ? 1 : 0);

  // Repeat until the time is up; with tracing, alternate plain and traced.
  std::vector<RepeatResult> repeats;
  std::vector<bool> is_traced;
  std::vector<double> rss_mb;  // per untraced repeat
  const bool rss_per_repeat = reset_peak_rss();
  std::vector<std::string> violations;
  const Clock::time_point t_begin = Clock::now();
  std::size_t plain_n = 0;
  std::size_t traced_n = 0;
  std::vector<double> reference_s;
  for (std::size_t i = 0;; ++i) {
    const bool tr = trace && i % 2 == 1;
    reference_s.push_back(reference_kernel_s());
    if (rss_per_repeat) reset_peak_rss();
    repeats.push_back(w->run(seed, tr));
    if (!tr) rss_mb.push_back(peak_rss_mb());
    is_traced.push_back(tr);
    (tr ? traced_n : plain_n) += 1;
    for (const std::string& v : repeats.back().violations) {
      violations.push_back("repeat " + std::to_string(i) + ": " + v);
    }
    if (!repeats.back().violations.empty()) break;
    const bool enough =
        plain_n >= kMinRepeats && (!trace || traced_n >= kMinRepeats);
    if (enough && seconds_since(t_begin) >= seconds) break;
  }
  reference_s.push_back(reference_kernel_s());

  std::vector<const RepeatResult*> all;
  std::vector<const RepeatResult*> traced;
  std::vector<double> setup_s;
  std::vector<double> run_plain;
  std::vector<double> run_traced;
  std::vector<double> setup_wall;
  std::vector<double> run_wall;
  for (std::size_t i = 0; i < repeats.size(); ++i) {
    all.push_back(&repeats[i]);
    setup_s.push_back(repeats[i].setup_s);
    setup_wall.push_back(repeats[i].setup_wall_s);
    if (is_traced[i]) {
      traced.push_back(&repeats[i]);
      run_traced.push_back(repeats[i].run_s);
    } else {
      run_plain.push_back(repeats[i].run_s);
      run_wall.push_back(repeats[i].run_wall_s);
    }
  }
  std::size_t failed = 0;
  for (const RepeatResult& r : repeats) failed += r.violations.empty() ? 0 : 1;
  if (violations.empty()) failed = check_determinism(all, traced, violations);
  const RepeatResult& ref = repeats.front();
  const double setup_med = median(setup_s);
  const double run_med = median(run_plain);
  const double rss = median(rss_mb);
  const double host_scale =
      static_cast<double>(kReferenceNominalNs) / 1e9 / median(reference_s);

  // Per-layer values: counts from the first traced repeat (all traced
  // repeats agree), host-time spans as medians over the traced repeats.
  std::map<std::string, double> layers;
  double overhead = 0;
  if (!traced.empty()) {
    layers = traced.front()->layers;
    auto span_median = [&traced](const char* name) {
      std::vector<double> v;
      for (const RepeatResult* r : traced) v.push_back(span_seconds(r->spans, name));
      return median(v);
    };
    layers["harness.build_s"] = span_median("harness.build");
    layers["ec.preload_s"] = span_median("ec.preload");
    layers["obs.export_s"] = span_median("obs.export");
    const double events = layers["sim.events"];
    layers["sim.host_ns_per_event"] =
        events > 0 ? run_med * host_scale * 1e9 / events : 0;
    overhead = run_med > 0 ? median(run_traced) / run_med : 0;
    layers["obs.trace_overhead"] = overhead;
  }

  // --- human-readable report ------------------------------------------------
  std::printf("  repeats: %zu untraced, %zu traced\n", plain_n, traced_n);
  std::printf("  host cost (scaled = measured CPU x %.4f, the reference kernel's\n"
              "  nominal %.1f ms over its median %.3f ms in this run):\n",
              host_scale, static_cast<double>(kReferenceNominalNs) / 1e6,
              median(reference_s) * 1e3);
  std::printf("    setup_s      %.6f s   scaled (CPU %.6f s, median of %zu; wall %.6f s)\n",
              setup_med * host_scale, setup_med, setup_s.size(),
              median(setup_wall));
  std::printf("    run_s        %.6f s   scaled (CPU %.6f s, median of %zu untraced; wall %.6f s)\n",
              run_med * host_scale, run_med, run_plain.size(),
              median(run_wall));
  std::printf("    peak_rss_mb  %.3f MB   (%s of %zu untraced)\n", rss,
              rss_per_repeat ? "median peak" : "process peak", rss_mb.size());
  std::printf("  simulated service outcome (seed %" PRIu64 "):\n", seed);
  for (const Metric& m : ref.sim) {
    std::printf("    %-16s %.6g %s   [%s]\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
  std::printf("    sim_events       %llu\n",
              static_cast<unsigned long long>(ref.events));
  std::printf("    sim_digest       %s\n", hex(ref.digest).c_str());
  if (!traced.empty()) {
    std::printf("  tracing overhead: traced/untraced run_s = %.4f\n", overhead);
  }
  for (const std::string& v : violations) {
    std::printf("  VIOLATION: %s\n", v.c_str());
  }
  const bool correct = violations.empty();
  std::printf("  correct: %s\n", correct ? "yes" : "NO");

  // --- machine-readable result -------------------------------------------------
  if (out_path != nullptr) {
    sanfault::obs::JsonWriter j;
    j.begin_object();
    j.key("workload").value(w->name);
    j.key("seed").value(seed);
    j.key("held_out_seed").value(kHeldOutSeed);
    j.key("build").begin_object();
    j.key("type").value(PERFBENCH_BUILD_TYPE);
    j.key("compiler").value(PERFBENCH_COMPILER);
#ifdef __OPTIMIZE__
    j.key("optimized").value(true);
#else
    j.key("optimized").value(false);
#endif
    j.end_object();
    j.key("correct").value(correct);
    j.key("repeats").value(static_cast<std::uint64_t>(repeats.size()));
    j.key("failed_repeats").value(static_cast<std::uint64_t>(failed));
    auto ns_list = [&j](const char* key, const std::vector<double>& v) {
      j.key(key).begin_array();
      for (const double s : v) j.value(static_cast<std::uint64_t>(s * 1e9));
      j.end_array();
    };
    ns_list("setup_ns", setup_s);
    ns_list("run_ns", run_plain);
    ns_list("run_traced_ns", run_traced);
    ns_list("setup_wall_ns", setup_wall);
    ns_list("run_wall_ns", run_wall);
    ns_list("reference_ns", reference_s);
    j.key("reference_nominal_ns").value(kReferenceNominalNs);
    j.key("peak_rss_kib").begin_array();
    for (const double mb : rss_mb) {
      j.value(static_cast<std::uint64_t>(mb * 1024.0));
    }
    j.end_array();
    j.key("peak_rss_per_repeat").value(rss_per_repeat);
    j.key("sim").begin_object();
    for (const Metric& m : ref.sim) {
      j.key(m.name).begin_object();
      j.key("value").value(m.value);
      j.key("unit").value(m.unit);
      j.key("base").value(m.base);
      j.end_object();
    }
    j.end_object();
    j.key("sim_digest").value(hex(ref.digest));
    j.key("digest_excludes_gauge_max").begin_array();
    for (const std::string& g : digest_excluded_gauge_max()) j.value(g);
    j.end_array();
    j.key("violations").begin_array();
    for (const std::string& v : violations) j.value(v);
    j.end_array();
    j.end_object();
    std::FILE* f = std::fopen(out_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out_path);
      return 1;
    }
    std::fputs(j.str().c_str(), f);
    std::fclose(f);
  }

  // --- span file: the last traced repeat, plus the per-layer values ---------
  if (spans_path != nullptr && !traced.empty()) {
    // Layer values are written with every digit; JsonWriter keeps six.
    std::string text = "{\"workload\":\"" + std::string(w->name) +
                       "\",\"seed\":" + std::to_string(seed) +
                       ",\"traced_repeats\":" + std::to_string(traced.size()) +
                       ",\"layers\":[";
    for (const LayerDef& d : layer_defs()) {
      const auto it = layers.find(d.name);
      if (text.back() == '}') text += ',';
      text += "{\"name\":\"" + std::string(d.name) + "\",\"value\":" +
              num(it == layers.end() ? 0.0 : it->second) + ",\"unit\":\"" +
              d.unit + "\",\"moves\":\"" + d.moves + "\"}";
    }
    sanfault::obs::JsonWriter j;
    write_spans(j, traced.back()->spans);
    text += "],\"spans\":" + j.str() + "}";
    std::FILE* f = std::fopen(spans_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", spans_path);
      return 1;
    }
    std::fputs(text.c_str(), f);
    std::fclose(f);
  }
  return correct ? 0 : 1;
}
