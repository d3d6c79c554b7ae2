// Figure 8: effect of the NIC send queue size on bandwidth with injected
// errors at rates 1e-2, 1e-3, 1e-4 (retransmission interval fixed at 1 ms).
//
// Paper: q >= 8 stays near-best for error rates <= 1e-4, but at 1e-2 the
// q128 unidirectional bandwidth collapses by > 30%: sender-based feedback
// defers ACK requests when buffers are plentiful, so each drop rolls back a
// much deeper go-back-N window (no selective retransmission).
#include "sweep_common.hpp"

int main(int argc, char** argv) {
  using namespace sanfault::benchsweep;
  return run_figure(
      argc, argv,
      {"Figure 8: NIC send queue size with errors, r=1ms", queue_settings(),
       kPaperErrorRates, kErrorSizes, kErrorQuickSizes,
       "Paper reference: q>=8 near-best at <=1e-4; at 1e-2 the q128\n"
       "unidirectional case degrades by >30% (deep go-back-N rollbacks).\n"});
}
