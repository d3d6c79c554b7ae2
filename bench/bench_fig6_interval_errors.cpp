// Figure 6: effect of the retransmission timer interval on bandwidth with
// injected errors at rates 1e-2, 1e-3, 1e-4 (NIC send queue fixed at 32).
//
// Paper: the 1 ms timer is the robust choice — at error rate 1e-4 it keeps
// bandwidth within ~10% of error-free for >= 4 KB messages, while 100 us
// loses > 18% and 1 s loses > 72% at the same sizes.
#include "sweep_common.hpp"

int main(int argc, char** argv) {
  using namespace sanfault::benchsweep;
  return run_figure(
      argc, argv,
      {"Figure 6: retransmission interval with errors, q=32",
       interval_settings(), kPaperErrorRates,
       kErrorSizes, kErrorQuickSizes,
       "Paper reference: 1ms stays within ~10% of error-free at 1e-4 for\n"
       ">=4KB messages; 100us loses >18%, 1s loses >72% at the same sizes.\n"});
}
