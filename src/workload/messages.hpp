// The client ↔ database-service protocol: transaction requests (type +
// parameters) and responses (commit/abort + result set). Shared by ShadowDB
// (both replication modes) and the baseline replicators.
#pragma once

#include <string>
#include <vector>

#include "common/ids.hpp"
#include "db/value.hpp"
#include "db/wire.hpp"
#include "net/message.hpp"
#include "workload/procedures.hpp"

namespace shadow::workload {

inline constexpr const char* kTxnRequestHeader = "txn-request";
inline constexpr const char* kTxnResponseHeader = "txn-response";

struct TxnRequest {
  ClientId client{};
  RequestSeq seq = 0;  // per-client sequence number (at-most-once execution)
  NodeId reply_to{};   // where the answer should be sent
  std::string proc;
  Params params;
};

struct TxnResponse {
  ClientId client{};
  RequestSeq seq = 0;
  bool committed = false;
  std::vector<db::Row> rows;  // the transaction's answer set, if any
  std::string error;
  /// Commit position (sharded deployments): the coordinator group and its
  /// apply position when the transaction executed. Read-only sessions use
  /// these as per-group read floors so a client's next snapshot read cannot
  /// miss its own committed write. Zero for classic (unsharded) clusters.
  std::uint32_t commit_group = 0;
  std::uint64_t commit_pos = 0;
};

/// Serialized request — the opaque payload carried in TOB commands and in
/// PBR's primary→backup forwarding.
std::string encode_request(const TxnRequest& req);
TxnRequest decode_request(const std::string& payload);

net::Message make_request_msg(const TxnRequest& req);
net::Message make_response_msg(const TxnResponse& resp);

}  // namespace shadow::workload

namespace shadow::wire {

template <>
struct Codec<workload::TxnRequest>
    : Fields<&workload::TxnRequest::client, &workload::TxnRequest::seq,
             &workload::TxnRequest::reply_to, &workload::TxnRequest::proc,
             &workload::TxnRequest::params> {};

template <>
struct Codec<workload::TxnResponse>
    : Fields<&workload::TxnResponse::client, &workload::TxnResponse::seq,
             &workload::TxnResponse::committed, &workload::TxnResponse::rows,
             &workload::TxnResponse::error, &workload::TxnResponse::commit_group,
             &workload::TxnResponse::commit_pos> {};

}  // namespace shadow::wire
