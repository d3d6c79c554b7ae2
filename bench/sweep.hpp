// The sweep code every bench binary shares: its flag parser, its cell
// runner and its artifact writers.
//
// Flags. A binary lists the flags it takes; parse_flags() checks argv
// against that list and builds the usage line from it. An unknown flag, a
// missing value or a number that is not decimal digits prints the usage
// line, and the binary exits 2.
//
// Cells. A sweep is a grid of independent simulation cells; each cell builds
// its own sim::Scheduler (and with it its own fabric, NICs and metrics
// registry) from fixed seeds, so cells share no mutable state and their
// results do not depend on when or where they execute. run_cells() exploits
// that: cells are claimed by a small thread pool, but results land in a
// vector indexed by declaration order and all printing happens afterwards on
// the caller's thread — the output of `--jobs N` is byte-identical to the
// serial run for every N. (The one piece of process-global state, the obs
// registry map, is mutex-guarded; see src/obs/metrics.cpp.)
//
// Artifacts. A Field names one JSON key beside its value and its printf
// format; json_rows() and metrics_array() lay out the per-cell files, and
// write_file() is the one place a bench writes a file.
#pragma once

#include <algorithm>
#include <atomic>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <initializer_list>
#include <optional>
#include <string>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

namespace sanfault::bench {

// --- flags -------------------------------------------------------------------

/// One flag a binary takes: a switch (`--quick`), a path (`--json <file>`),
/// or a decimal number (`--jobs <N>`) of at least `min`. A number parsed
/// into an optional records whether the flag was given (`--soak <seed>`).
struct Flag {
  Flag(const char* name, bool& on) : name(name), target(&on) {}
  Flag(const char* name, const char* meta, const char*& path)
      : name(name), meta(meta), target(&path) {}
  Flag(const char* name, const char* meta, std::uint64_t& n,
       std::uint64_t min = 0)
      : name(name), meta(meta), target(&n), min(min) {}
  Flag(const char* name, const char* meta, std::optional<std::uint64_t>& n)
      : name(name), meta(meta), target(&n) {}

  const char* name;
  const char* meta = nullptr;  // the value's placeholder; none for a switch
  std::variant<bool*, const char**, std::uint64_t*,
               std::optional<std::uint64_t>*>
      target;
  std::uint64_t min = 0;
};

/// "usage: <argv0> [--quick] [--json <file>] ...", the flags in list order.
inline std::string usage_line(const char* argv0,
                              std::initializer_list<Flag> flags) {
  std::string line = std::string("usage: ") + argv0;
  for (const Flag& f : flags) {
    line += std::string(" [") + f.name;
    if (f.meta != nullptr) line += std::string(" ") + f.meta;
    line += "]";
  }
  return line;
}

/// Set the flags' targets from argv. On an argument that is not a listed
/// flag, a flag without its value, or a number that is malformed or below
/// its minimum, print the fault and the usage line to stderr and return
/// false; the binary then exits 2.
inline bool parse_flags(int argc, char** argv,
                        std::initializer_list<Flag> flags) {
  const auto fail = [&](const std::string& fault) {
    std::fprintf(stderr, "%s: %s\n%s\n", argv[0], fault.c_str(),
                 usage_line(argv[0], flags).c_str());
    return false;
  };
  for (int i = 1; i < argc; ++i) {
    const Flag* f =
        std::find_if(flags.begin(), flags.end(), [&](const Flag& x) {
          return std::strcmp(argv[i], x.name) == 0;
        });
    if (f == flags.end()) return fail(std::string("unknown flag ") + argv[i]);
    if (auto* on = std::get_if<bool*>(&f->target)) {
      **on = true;
      continue;
    }
    if (i + 1 >= argc) return fail(std::string(f->name) + " needs " + f->meta);
    const char* value = argv[++i];
    if (auto* path = std::get_if<const char**>(&f->target)) {
      **path = value;
      continue;
    }
    // Decimal digits that fit in 64 bits: no sign, space or suffix.
    std::uint64_t n = 0;
    const char* end = value + std::strlen(value);
    const auto [stop, error] = std::from_chars(value, end, n);
    if (error != std::errc{} || stop != end || n < f->min) {
      const std::string floor =
          f->min > 0 ? " of at least " + std::to_string(f->min) : "";
      return fail(std::string(f->name) + " takes a decimal number" + floor +
                  ", not '" + value + "'");
    }
    if (auto* num = std::get_if<std::uint64_t*>(&f->target)) {
      **num = n;
    } else {
      *std::get<std::optional<std::uint64_t>*>(f->target) = n;
    }
  }
  return true;
}

// --- cells -------------------------------------------------------------------

/// fn(spec) for every spec, on up to `jobs` threads (0 and 1 run serially),
/// results in spec order. The first exception in spec order is rethrown.
template <class Spec, class Fn>
auto run_cells(std::uint64_t jobs, const std::vector<Spec>& specs, Fn fn)
    -> std::vector<std::invoke_result_t<Fn&, const Spec&>> {
  std::vector<std::invoke_result_t<Fn&, const Spec&>> results(specs.size());
  if (jobs <= 1 || specs.size() <= 1) {
    for (std::size_t i = 0; i < specs.size(); ++i) results[i] = fn(specs[i]);
    return results;
  }

  std::vector<std::exception_ptr> errors(specs.size());
  std::atomic<std::size_t> next{0};
  {
    const auto worker = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= specs.size()) return;
        try {
          results[i] = fn(specs[i]);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    };
    const auto n_workers =
        static_cast<std::size_t>(std::min<std::uint64_t>(jobs, specs.size()));
    std::vector<std::jthread> pool;  // joins each worker at the closing brace
    pool.reserve(n_workers);
    for (std::size_t t = 0; t < n_workers; ++t) pool.emplace_back(worker);
  }
  for (const std::exception_ptr& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

// --- artifacts ---------------------------------------------------------------

/// One key of a JSON object, with its value written as the printf format
/// beside it would write it: an integer as %d / %zu / %llu, a double as
/// %.<precision>f, a string as "%s" and a bool as true / false. Strings are
/// not escaped; every value a bench writes is one of its own names.
struct Field {
  template <std::integral T>
    requires(!std::same_as<T, bool>)
  Field(const char* key, T value) : key(key), text(std::to_string(value)) {}
  Field(const char* key, bool value)
      : key(key), text(value ? "true" : "false") {}
  Field(const char* key, double value, int precision)
      : key(key), text(fixed(value, precision)) {}
  Field(const char* key, double value) = delete;  // say its precision
  Field(const char* key, const char* value)
      : key(key), text(std::string("\"") + value + "\"") {}
  Field(const char* key, const std::string& value)
      : Field(key, value.c_str()) {}

  const char* key;
  std::string text;  // the value as JSON

 private:
  /// printf("%.<precision>f", value), however long.
  static std::string fixed(double value, int precision) {
    const int len = std::snprintf(nullptr, 0, "%.*f", precision, value);
    std::string s(static_cast<std::size_t>(len), '\0');
    std::snprintf(s.data(), s.size() + 1, "%.*f", precision, value);
    return s;
  }
};

using Fields = std::vector<Field>;

/// `{"key": value, "key": value}`.
inline std::string json_object(const Fields& fields) {
  std::string out = "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out += std::string(i > 0 ? ", \"" : "\"") + fields[i].key + "\": " +
           fields[i].text;
  }
  return out + "}";
}

/// A per-cell results file: `[\n  {...},\n  {...}\n]\n`, one object per row
/// holding the fields `fields_of(row)` returns.
template <class Row, class FieldsOf>
std::string json_rows(const std::vector<Row>& rows, FieldsOf fields_of) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += "  " + json_object(fields_of(rows[i])) +
           (i + 1 < rows.size() ? ",\n" : "\n");
  }
  return out + "]\n";
}

/// A per-cell metrics file, the layout scripts/metrics_diff.py reads:
/// `[\n{"cell": {...},\n"metrics": <registry JSON>},\n...]\n`, the cell named
/// by `cell_of(row)` and the registry dump taken from `row.metrics_json`.
template <class Row, class CellOf>
std::string metrics_array(const std::vector<Row>& rows, CellOf cell_of) {
  std::string out = "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out += "{\"cell\": " + json_object(cell_of(rows[i])) + ",\n\"metrics\": " +
           rows[i].metrics_json + "}" + (i + 1 < rows.size() ? ",\n" : "\n");
  }
  return out + "]\n";
}

/// Write `text` to `path` and print "wrote <path>". On failure, say so on
/// stderr and return false.
inline bool write_file(const char* path, const std::string& text) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return false;
  }
  const bool written =
      std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  std::printf("wrote %s\n", path);
  return true;
}

}  // namespace sanfault::bench
