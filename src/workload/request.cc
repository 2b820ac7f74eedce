#include "src/workload/request.h"

#include "src/common/logging.h"

namespace adaserve {

double Request::AvgTpot() const {
  ADASERVE_CHECK(state == RequestState::kFinished) << "AvgTpot on unfinished request " << id;
  const int decode_tokens = output_len() - 1;
  ADASERVE_CHECK(decode_tokens >= 1) << "request " << id << " produced too few tokens";
  return (finish_time - first_token_time) / decode_tokens;
}

bool Request::Attained() const {
  // A hair of tolerance absorbs floating-point accumulation over thousands
  // of iterations; it never flips a materially violating request.
  return AvgTpot() <= tpot_slo * (1.0 + 1e-9);
}

void Request::ReleasePayload() {
  ADASERVE_CHECK(state == RequestState::kFinished || state == RequestState::kRejected)
      << "payload release on live request " << id;
  std::vector<Token>().swap(output);
  std::vector<SimTime>().swap(token_times);
}

double Request::MeanAccepted() const {
  if (verifications == 0) {
    return 0.0;
  }
  return static_cast<double>(accepted_tokens) / static_cast<double>(verifications);
}

}  // namespace adaserve
