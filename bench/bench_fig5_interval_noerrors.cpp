// Figure 5: effect of the retransmission timer interval on bandwidth with no
// injected errors (NIC send queue fixed at 32).
//
// Paper: intervals of 100 us or less cost > 17% bandwidth across message
// sizes (timer scans + false retransmissions when the timer is shorter than
// the ack latency); 1 ms or longer is near-free.
#include "sweep_common.hpp"

int main(int argc, char** argv) {
  using namespace sanfault::benchsweep;
  return run_figure(
      argc, argv,
      {"Figure 5: retransmission interval, no errors, q=32",
       interval_settings(), kNoErrors, kAllSizes, kAllSizes,
       "Paper reference: <=100us drops bandwidth by >17%; >=1ms is within a "
       "few % of No FT.\n"});
}
