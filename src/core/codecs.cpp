#include "core/codecs.hpp"

#include <mutex>

#include "consensus/paxos.hpp"
#include "consensus/two_third.hpp"
#include "core/chain.hpp"
#include "core/migrate.hpp"
#include "core/pbr.hpp"
#include "core/recovery.hpp"
#include "core/replica_common.hpp"
#include "core/rosnap.hpp"
#include "core/smr.hpp"
#include "core/twopc.hpp"
#include "tob/tob.hpp"
#include "wire/registry.hpp"
#include "workload/messages.hpp"

namespace shadow::core {

namespace {

void register_wire_codecs_impl() {
  wire::Registry& reg = wire::registry();

  // Consensus: Paxos Synod and TwoThird.
  reg.ensure<consensus::P1aBody>(consensus::kP1aHeader);
  reg.ensure<consensus::P1bBody>(consensus::kP1bHeader);
  reg.ensure<consensus::P2aBody>(consensus::kP2aHeader);
  reg.ensure<consensus::P2bBody>(consensus::kP2bHeader);
  reg.ensure<consensus::DecisionBody>(consensus::kDecisionHeader);
  reg.ensure<consensus::ProposeBody>(consensus::kProposeHeader);
  reg.ensure<consensus::VoteBody>(consensus::kVoteHeader);
  reg.ensure<consensus::DecideBody>(consensus::kTwoThirdDecideHeader);

  // Total order broadcast service.
  reg.ensure<tob::BroadcastBody>(tob::kBroadcastHeader);
  reg.ensure<tob::AckBody>(tob::kAckHeader);
  reg.ensure<tob::RelayBody>(tob::kRelayHeader);

  // Client/server transaction traffic.
  reg.ensure<workload::TxnRequest>(workload::kTxnRequestHeader);
  reg.ensure<workload::TxnResponse>(workload::kTxnResponseHeader);

  // SMR replica: TOB→replica loopback handoffs.
  // (smr-hb and smr-snap-req are bodyless signals: nothing to decode.)
  reg.ensure<DeliverHandoff>(kSmrDeliverHeader);
  reg.ensure<DeliverBatchHandoff>(kSmrDeliverBatchHeader);

  // The snapshot stream every protocol's state transfer mounts.
  reg.ensure<repl::SnapBegin2Body>(kSnapBegin2Header);
  reg.ensure<repl::SnapBatch2Body>(kSnapBatch2Header);
  reg.ensure<repl::SnapDelete2Body>(kSnapDelete2Header);
  reg.ensure<repl::SnapDone2Body>(kSnapDone2Header);

  // Cross-shard 2PC (sharded deployments; every group shares one header
  // vocabulary — the participant group travels inside the message bodies,
  // so N groups in one process register exactly the same bindings).
  reg.ensure<XsSnapBody>(kXsSnapHeader);

  // Read-only snapshot reads (node-addressed, never enter a TOB log).
  reg.ensure<RoSnapBody>(kRoSnapHeader);
  reg.ensure<RoSnapRespBody>(kRoSnapRespHeader);
  reg.ensure<RoReadBody>(kRoReadHeader);
  reg.ensure<RoReadRespBody>(kRoReadRespHeader);

  // Shard-range migration: pull handshake, the filtered stream mounted on
  // its own headers, and the rejoin/promotion rider.
  reg.ensure<MigPullBody>(kMigPullHeader);
  reg.ensure<repl::SnapBegin2Body>(kMigSnapBeginHeader);
  reg.ensure<repl::SnapBatch2Body>(kMigSnapBatchHeader);
  reg.ensure<repl::SnapDelete2Body>(kMigSnapDeleteHeader);
  reg.ensure<repl::SnapDone2Body>(kMigSnapDoneHeader);
  reg.ensure<MigSnapBody>(kMigSnapRiderHeader);

  // Primary/backup and chain replication: the forwarding header (the body's
  // config scopes it to whichever protocol the receiver runs), the one
  // recovery vocabulary of core/recovery.hpp, and PBR's ack and redirect
  // (chain redirects clients with the same body).
  reg.ensure<ReplForwardBody>(kReplFwdHeader);
  reg.ensure<ReplElectBody>(kReplElectHeader);
  reg.ensure<ReplCatchupBody>(kReplCatchupHeader);
  reg.ensure<ReplAckBody>(kReplRecoveredHeader);
  reg.ensure<consensus::Command>(kReplDeliverHeader);
  reg.ensure<ReplAckBody>(kPbrAckHeader);
  reg.ensure<RedirectBody>(kPbrRedirectHeader);
}

}  // namespace

void register_wire_codecs() {
  // Once per process, even when many groups assemble concurrently with live
  // transport threads already decoding frames (a sharded in-process cluster
  // builds group g+1 while group g's TCP loops run): Registry::ensure is
  // idempotent per header but not synchronized, so the one-time guard is
  // what keeps later assemblies from racing the map.
  static std::once_flag once;
  std::call_once(once, register_wire_codecs_impl);
}

}  // namespace shadow::core
