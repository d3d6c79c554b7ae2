#include <cmath>
#include <string>
#include <vector>

#include "derived.hpp"

namespace perfbench {

namespace {

using sanfault::sim::milliseconds;

struct Checker {
  std::vector<std::string> failures;
  void expect(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void near(double got, double want, const std::string& what) {
    if (std::fabs(got - want) > 1e-9) {
      failures.push_back(what + ": got " + std::to_string(got) + ", want " +
                         std::to_string(want));
    }
  }
};

void check_outage(Checker& c) {
  const auto w = milliseconds(10);
  // Traffic starts at 5 ms (window 0 is partial, so not in the baseline).
  // Windows 1..4 commit 100 each; the fault lands at 52 ms (window 5).
  // Windows 5..7 sag below half, 8 recovers, 9 sags again; the last arrival
  // is in window 10, which is excluded together with the drain after it.
  const std::vector<std::uint64_t> committed = {40, 100, 100, 100, 100, 30,
                                                0,  49,  100, 10,  5,   0};
  const std::vector<std::uint64_t> issued = {50, 100, 100, 100, 100, 100,
                                             100, 100, 100, 100, 20, 0};
  const OutageResult r = outage(committed, issued, w, milliseconds(5),
                                milliseconds(52));
  c.expect(r.pre_windows == 4, "outage: baseline uses whole pre-fault windows");
  c.near(r.baseline, 100.0, "outage: baseline mean");
  c.expect(r.candidates == 5, "outage: candidates run fault..last arrival");
  c.expect(r.below == 4, "outage: windows under half the baseline");
  c.near(r.outage_ms, 40.0, "outage: 4 windows x 10 ms");

  // Exactly half the baseline is not an outage.
  const OutageResult half =
      outage({100, 100, 50, 50, 1}, {1, 1, 1, 1, 1}, w, 0, milliseconds(20));
  c.expect(half.below == 0, "outage: half the baseline is not an outage");

  // A fault before any whole window has no baseline and reports nothing.
  const OutageResult none = outage({0, 0, 0}, {1, 1, 1}, w, milliseconds(3),
                                   milliseconds(8));
  c.expect(none.pre_windows == 0 && none.outage_ms == 0,
           "outage: no baseline, no outage");
}

void check_tail(Checker& c) {
  c.expect(p999_tail_samples(0) == 0, "p999 tail: empty");
  c.expect(p999_tail_samples(1000) == 1, "p999 tail: 1000 samples -> 1");
  c.expect(p999_tail_samples(9999) == 10, "p999 tail: 9999 samples -> 10");
  c.expect(p999_tail_samples(9400) == 9, "p999 tail: 9400 samples -> 9");
  c.expect(p999_tail_samples(50000) == 50, "p999 tail: 50000 samples -> 50");
}

void check_false_confirms(Checker& c) {
  // Host 5 is killed. Its own confirms of the others, and the live hosts'
  // confirms of host 5, are all correct; 1 -> 2 and 3 -> 2 are false.
  const std::vector<std::pair<std::uint32_t, std::uint32_t>> confirms = {
      {0, 5}, {1, 5}, {5, 0}, {5, 1}, {1, 2}, {3, 2}};
  c.expect(false_confirms(confirms, {5}) == 2, "false confirms: 2 of 6");
  c.expect(false_confirms(confirms, {}) == 6,
           "false confirms: nothing killed, every confirm is false");
  c.expect(false_confirms({}, {5}) == 0, "false confirms: none");
}

void check_ratios(Checker& c) {
  c.near(utilisation(250, 1000), 0.25, "utilisation: 250/1000");
  c.near(utilisation(1000, 1000), 1.0, "utilisation: fully busy");
  c.near(utilisation(1001, 1000), -1, "utilisation: busy beyond the span");
  c.near(utilisation(5, 0), -1, "utilisation: empty span");
  c.near(failed_fraction(5, 100), 0.05, "failed_frac: 5/100");
  c.near(failed_fraction(0, 100), 0.0, "failed_frac: none failed");
  c.near(failed_fraction(1, 0), -1, "failed_frac: no base");
  c.near(failed_fraction(101, 100), -1, "failed_frac: more failed than issued");
}

}  // namespace

std::vector<std::string> self_test() {
  Checker c;
  check_outage(c);
  check_tail(c);
  check_false_confirms(c);
  check_ratios(c);
  return c.failures;
}

}  // namespace perfbench
