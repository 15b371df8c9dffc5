#include "src/obs/metrics_snapshot.h"

#include <cstdio>

#include "src/sim/check.h"

namespace rlobs {

void MetricsSnapshotter::Start(const bool* stop) {
  RL_CHECK_MSG(interval_ > rlsim::Duration::Zero(),
               "MetricsSnapshotter interval must be positive");
  sim_.Spawn(Loop(stop));
}

rlsim::Task<void> MetricsSnapshotter::Loop(const bool* stop) {
  while (!*stop) {
    co_await sim_.Sleep(interval_);
    if (*stop) {
      break;
    }
    snapshots_.push_back(Snapshot{sim_.now().nanos(), registry_.ToJson()});
  }
}

std::string MetricsSnapshotter::ToJson() const {
  std::string out = "[";
  char buf[48];
  for (size_t i = 0; i < snapshots_.size(); ++i) {
    if (i > 0) {
      out += ',';
    }
    out += '\n';
    std::snprintf(buf, sizeof(buf), "{\"t_ns\":%lld,\"stats\":",
                  static_cast<long long>(snapshots_[i].at_ns));
    out += buf;
    out += snapshots_[i].json;
    out += '}';
  }
  out += "\n]";
  return out;
}

}  // namespace rlobs
