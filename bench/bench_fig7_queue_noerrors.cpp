// Figure 7: effect of the NIC send queue size on bandwidth with no errors
// (retransmission interval fixed at 1 ms).
//
// Paper: only very small queues hurt; any queue size above 8 reaches
// close-to-maximum bandwidth.
#include "sweep_common.hpp"

int main(int argc, char** argv) {
  using namespace sanfault::benchsweep;
  return run_figure(
      argc, argv,
      {"Figure 7: NIC send queue size, no errors, r=1ms", queue_settings(),
       kNoErrors, kAllSizes, kAllSizes,
       "Paper reference: any queue size above 8 is close to maximum.\n"});
}
