// Per-node delivery logs for TOB tests. The service keeps no log of what it
// delivered; a test that checks total order records each node's deliveries
// through subscribe_local() instead.
#pragma once

#include <vector>

#include "tob/tob.hpp"

namespace shadow::testing {

/// logs[i] receives node i's delivered commands, in delivery order. `logs`
/// must outlive the service and must not be resized afterwards.
inline void record_deliveries(tob::TobService& service,
                              std::vector<std::vector<tob::Command>>& logs) {
  logs.assign(service.size(), {});
  for (std::size_t i = 0; i < service.size(); ++i) {
    service[i].subscribe_local(
        [&logs, i](net::NodeContext&, Slot, std::uint64_t, const tob::Command& cmd) {
          logs[i].push_back(cmd);
        });
  }
}

}  // namespace shadow::testing
