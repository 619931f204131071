// Predicts, from the messages a run sends, how many already-encoded batch
// bytes the run copies (splice_stats().batch_bytes_copied). A batch is
// encoded once; after that its bytes are copied, never re-encoded, at exactly
// three points:
//   * framing: make_msg writes each batch's payload into the message's one
//     frame — once per frame, however many destinations share it;
//   * folding: a leader copies every relayed unit it receives into its next
//     proposal (consensus::BatchBuilder);
//   * the simulator's wire-fidelity check re-encodes every delivered body.
// Attach one BatchCopies to every transport of a run. Fault-free runs only:
// a relay delivered to a node that does not propose it is not folded.
#pragma once

#include <cstdint>
#include <set>

#include "consensus/paxos.hpp"
#include "consensus/two_third.hpp"
#include "core/replica_common.hpp"
#include "net/transport.hpp"
#include "tob/tob.hpp"

namespace shadow::testing {

/// The encoded batch bytes a message body carries.
inline std::uint64_t batch_bytes(const net::Message& m) {
  if (const auto* b = net::msg_body_if<tob::RelayBody>(m)) return b->batch.payload_size();
  if (const auto* b = net::msg_body_if<tob::DeliverBody>(m)) return b->batch.payload_size();
  if (const auto* b = net::msg_body_if<consensus::ProposeBody>(m)) return b->batch.payload_size();
  if (const auto* b = net::msg_body_if<consensus::P2aBody>(m)) {
    return b->pvalue.batch.payload_size();
  }
  if (const auto* b = net::msg_body_if<consensus::DecisionBody>(m)) {
    return b->batch.payload_size();
  }
  if (const auto* b = net::msg_body_if<consensus::P1bBody>(m)) {
    std::uint64_t n = 0;
    for (const consensus::PValue& pv : b->accepted) n += pv.batch.payload_size();
    return n;
  }
  if (const auto* b = net::msg_body_if<consensus::VoteBody>(m)) return b->batch.payload_size();
  if (const auto* b = net::msg_body_if<consensus::DecideBody>(m)) return b->batch.payload_size();
  if (const auto* b = net::msg_body_if<core::DeliverBatchHandoff>(m)) {
    return b->batch.payload_size();
  }
  return 0;
}

struct BatchCopies final : net::TransportObserver {
  std::set<OwnedBytes> frames;  // held, so a freed frame's address is never reused
  std::uint64_t framed = 0;     // batch bytes over distinct frames sent
  std::uint64_t folded = 0;     // batch bytes of relayed units delivered to a leader
  std::uint64_t delivered = 0;  // batch bytes over deliveries (the fidelity re-encode)

  void on_frame_sent(net::Time, const net::Message& m) override {
    if (frames.insert(m.frame).second) framed += batch_bytes(m);
  }
  void on_deliver(net::Time, NodeId, const net::Message& m) override {
    if (net::msg_body_if<tob::RelayBody>(m) != nullptr) folded += batch_bytes(m);
    delivered += batch_bytes(m);
  }
};

}  // namespace shadow::testing
