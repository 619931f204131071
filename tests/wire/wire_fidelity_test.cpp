// End-to-end tests of the network's byte path: wire-fidelity mode (every
// message is encoded to a real frame at send and decoded at delivery — a
// round-trip proof over the full protocol stack) and byte-level fault
// injection (seeded corruption/truncation detected by the frame checksum and
// surfaced as message drops, which the protocols must absorb via retries).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/batch_copies.hpp"
#include "sim/world.hpp"
#include "core/shadowdb.hpp"
#include "obs/checker.hpp"
#include "wire/framing.hpp"
#include "workload/bank.hpp"

namespace shadow::core {
namespace {

struct PbrFixture {
  sim::World world;
  obs::Tracer tracer{{.capacity = 1 << 20, .record_messages = false}};
  PbrCluster cluster;
  std::vector<std::unique_ptr<DbClient>> clients;
  workload::bank::BankConfig bank{1000, 0};

  explicit PbrFixture(std::uint64_t seed = 1, ClusterOptions opts = {}) : world(seed) {
    tracer.attach(world);
    auto registry = std::make_shared<workload::ProcedureRegistry>();
    workload::bank::register_procedures(*registry);
    opts.registry = registry;
    opts.tracer = &tracer;
    opts.loader = [this](db::Engine& e) { workload::bank::load(e, bank); };
    cluster = make_pbr_cluster(world, opts);
  }

  /// Adds a client on a node the test knows (so it can fault its links).
  std::pair<DbClient*, NodeId> add_client(std::size_t txns, std::uint64_t seed,
                                          net::Time retry_timeout = 2000000) {
    const ClientId id{static_cast<std::uint32_t>(clients.size() + 1)};
    const NodeId node = world.add_node("client" + std::to_string(id.value));
    DbClient::Options options;
    options.mode = DbClient::Mode::kDirect;
    options.targets = cluster.request_targets();
    options.txn_limit = txns;
    options.retry_timeout = retry_timeout;
    options.tracer = &tracer;
    auto rng = std::make_shared<Rng>(seed);
    auto cfg = bank;
    clients.push_back(std::make_unique<DbClient>(
        world, node, id, options, [rng, cfg]() {
          return std::make_pair(std::string(workload::bank::kDepositProc),
                                workload::bank::make_deposit(*rng, cfg));
        }));
    return {clients.back().get(), node};
  }

  obs::CheckResult check() const { return obs::check_trace(tracer.snapshot()); }
};

struct SmrFixture {
  sim::World world;
  obs::Tracer tracer{{.capacity = 1 << 20, .record_messages = false}};
  SmrCluster cluster;
  std::vector<std::unique_ptr<DbClient>> clients;
  workload::bank::BankConfig bank{1000, 0};

  explicit SmrFixture(std::uint64_t seed = 1, ClusterOptions opts = {}) : world(seed) {
    tracer.attach(world);
    auto registry = std::make_shared<workload::ProcedureRegistry>();
    workload::bank::register_procedures(*registry);
    opts.registry = registry;
    opts.tracer = &tracer;
    opts.loader = [this](db::Engine& e) { workload::bank::load(e, bank); };
    cluster = make_smr_cluster(world, opts);
  }

  std::pair<DbClient*, NodeId> add_client(std::size_t txns, std::uint64_t seed,
                                          net::Time retry_timeout = 2000000) {
    const ClientId id{static_cast<std::uint32_t>(clients.size() + 1)};
    const NodeId node = world.add_node("client" + std::to_string(id.value));
    DbClient::Options options;
    options.mode = DbClient::Mode::kTob;
    options.targets = cluster.broadcast_targets();
    options.txn_limit = txns;
    options.retry_timeout = retry_timeout;
    options.tracer = &tracer;
    auto rng = std::make_shared<Rng>(seed);
    auto cfg = bank;
    clients.push_back(std::make_unique<DbClient>(
        world, node, id, options, [rng, cfg]() {
          return std::make_pair(std::string(workload::bank::kDepositProc),
                                workload::bank::make_deposit(*rng, cfg));
        }));
    return {clients.back().get(), node};
  }

  obs::CheckResult check() const { return obs::check_trace(tracer.snapshot()); }
};

// ---------------------------------------------------------- wire fidelity --

TEST(WireFidelity, PbrEndToEndWithRealBytesOnEveryLink) {
  const SpliceStats splice_base = splice_stats();
  PbrFixture fx;
  fx.world.set_wire_fidelity(true);
  auto [client, node] = fx.add_client(60, 99);
  client->start();
  fx.world.run_until(60000000);
  EXPECT_TRUE(client->done());
  EXPECT_EQ(client->committed(), 60u);
  EXPECT_EQ(fx.cluster.replicas[0]->executed(), 60u);
  EXPECT_EQ(fx.cluster.replicas[1]->executed(), 60u);
  EXPECT_EQ(fx.cluster.replicas[0]->state_digest(), fx.cluster.replicas[1]->state_digest());
  EXPECT_EQ(fx.world.wire_drops(), 0u) << "no faults installed: nothing may drop";
  const obs::CheckResult check = fx.check();
  EXPECT_TRUE(check.ok()) << check.summary();
  EXPECT_EQ(check.committed_txns_checked, 60u);

  // PBR orders client transactions primary→backup directly; TOB (and thus
  // consensus batches) only carries reconfigurations, of which a fault-free
  // run has none — so no batch is encoded, and no batch byte is copied.
  const SpliceStats& now = splice_stats();
  EXPECT_EQ(now.batch_bytes_copied, splice_base.batch_bytes_copied);
  EXPECT_EQ(now.batch_encodes, splice_base.batch_encodes);
  fx.tracer.sync_batch_stats();
  EXPECT_EQ(fx.tracer.metrics().counter("net.batch_bytes_copied").value(), 0u);
  EXPECT_EQ(fx.tracer.metrics().counter("net.batch_encode_count").value(), 0u);
}

TEST(WireFidelity, SmrEndToEndWithRealBytesOnEveryLink) {
  const SpliceStats splice_base = splice_stats();
  SmrFixture fx;
  fx.world.set_wire_fidelity(true);
  shadow::testing::BatchCopies copies;
  fx.world.add_observer(&copies);
  auto [client, node] = fx.add_client(50, 7);
  client->start();
  fx.world.run_until(60000000);
  EXPECT_TRUE(client->done());
  EXPECT_EQ(client->committed(), 50u);
  EXPECT_EQ(fx.cluster.replicas[0]->state_digest(), fx.cluster.replicas[1]->state_digest());
  EXPECT_EQ(fx.world.wire_drops(), 0u);
  const obs::CheckResult check = fx.check();
  EXPECT_TRUE(check.ok()) << check.summary();
  EXPECT_GE(check.committed_txns_checked, 50u);

  // Every transaction rides a consensus batch, encoded at most once. Its
  // bytes are copied exactly once per frame carrying them, once per relayed
  // unit a leader folds into a proposal, and once per delivery by the
  // fidelity check's re-encode — nowhere else.
  const SpliceStats& now = splice_stats();
  const std::uint64_t copied = now.batch_bytes_copied - splice_base.batch_bytes_copied;
  EXPECT_GE(now.batch_encodes - splice_base.batch_encodes, 1u);
  EXPECT_LE(now.batch_encodes - splice_base.batch_encodes, 50u);
  EXPECT_GT(copies.framed, 0u);
  EXPECT_EQ(copied, copies.framed + copies.folded + copies.delivered);
  fx.tracer.sync_batch_stats();
  EXPECT_EQ(fx.tracer.metrics().counter("net.batch_bytes_copied").value(), copied);
  EXPECT_EQ(fx.tracer.metrics().counter("net.batch_encode_count").value(),
            now.batch_encodes - splice_base.batch_encodes);
}

TEST(WireFidelity, DeliveredBodiesAreFreshDecodes) {
  // In fidelity mode the handler must receive a body decoded from the frame
  // bytes, not the sender's object: mutable state cannot be smuggled through
  // the type-erased shared_ptr body.
  sim::World world(3);
  world.set_wire_fidelity(true);
  const NodeId a = world.add_node("a");
  const NodeId b = world.add_node("b");
  const sim::Message sent = sim::make_msg("fresh-check", std::string("payload"));
  const std::any* received = nullptr;
  std::string received_value;
  world.set_handler(b, [&](net::NodeContext&, const sim::Message& m) {
    received = m.body.get();
    received_value = sim::msg_body<std::string>(m);
  });
  world.post(a, b, sent);
  world.run_until(1000000);
  ASSERT_NE(received, nullptr);
  EXPECT_EQ(received_value, "payload");
  EXPECT_NE(received, sent.body.get()) << "handler saw the sender's body object";
}

// ----------------------------------------------------- byte-level faults --

TEST(WireFault, CorruptionIsDetectedDroppedAndRetriedPbr) {
  PbrFixture fx(11);
  auto [client, client_node] = fx.add_client(40, 13, /*retry_timeout=*/500000);
  // Corrupt ~15% of the frames the client sends at the primary. The frame
  // checksum must catch every flip; the client's resend path must absorb the
  // losses; dedup keeps the retries at-most-once.
  fx.world.set_link_fault(client_node, fx.cluster.replica_nodes[0],
                          {.corrupt_prob = 0.15, .truncate_prob = 0.0});
  client->start();
  fx.world.run_until(300000000);
  EXPECT_TRUE(client->done());
  EXPECT_EQ(client->committed(), 40u);
  EXPECT_GT(fx.world.frames_faulted(), 0u) << "fault model never fired: test is vacuous";
  EXPECT_GT(fx.world.wire_drops(), 0u) << "corrupted frames must be dropped";
  EXPECT_GT(client->retries(), 0u) << "drops must surface as client retries";
  EXPECT_EQ(fx.cluster.replicas[0]->executed(), 40u) << "retries must dedup";

  // The drops are observable: counted in metrics and present in the trace.
  EXPECT_EQ(fx.tracer.metrics().counter("net.wire_drops").value(), fx.world.wire_drops());
  std::uint64_t drop_events = 0;
  bool checksum_reason = false;
  for (const obs::TraceEvent& e : fx.tracer.snapshot().events) {
    if (e.kind != obs::EventKind::kMsgDrop) continue;
    ++drop_events;
    if (e.c == static_cast<std::uint64_t>(wire::FrameStatus::kChecksumMismatch)) {
      checksum_reason = true;
    }
  }
  EXPECT_EQ(drop_events, fx.world.wire_drops());
  EXPECT_TRUE(checksum_reason) << "at least one drop must be a checksum catch";

  // And the run still satisfies every offline invariant.
  const obs::CheckResult check = fx.check();
  EXPECT_TRUE(check.ok()) << check.summary();
  EXPECT_EQ(check.committed_txns_checked, 40u);
}

TEST(WireFault, TruncationIsDetectedDroppedAndRetriedSmr) {
  SmrFixture fx(17);
  auto [client, client_node] = fx.add_client(30, 19, /*retry_timeout=*/500000);
  fx.world.set_wire_fidelity(true);  // faults compose with full fidelity
  fx.world.set_link_fault(client_node, fx.cluster.tob_nodes[0],
                          {.corrupt_prob = 0.0, .truncate_prob = 0.2});
  client->start();
  fx.world.run_until(300000000);
  EXPECT_TRUE(client->done());
  EXPECT_EQ(client->committed(), 30u);
  EXPECT_GT(fx.world.wire_drops(), 0u);
  EXPECT_GT(client->retries(), 0u);
  EXPECT_EQ(fx.cluster.replicas[0]->state_digest(), fx.cluster.replicas[1]->state_digest());
  const obs::CheckResult check = fx.check();
  EXPECT_TRUE(check.ok()) << check.summary();
  EXPECT_GE(check.committed_txns_checked, 30u);
}

TEST(WireFault, ClearLinkFaultStopsTheDamage) {
  sim::World world(5);
  const NodeId a = world.add_node("a");
  const NodeId b = world.add_node("b");
  std::uint64_t delivered = 0;
  world.set_handler(b, [&](net::NodeContext&, const sim::Message&) { ++delivered; });
  world.set_link_fault(a, b, {.corrupt_prob = 1.0, .truncate_prob = 0.0});
  for (int i = 0; i < 20; ++i) world.post(a, b, sim::make_msg("blast", i));
  world.run_until(10000000);
  EXPECT_EQ(delivered, 0u) << "every frame was corrupted; none may deliver";
  EXPECT_EQ(world.wire_drops(), 20u);

  world.clear_link_fault(a, b);
  for (int i = 0; i < 20; ++i) world.post(a, b, sim::make_msg("blast", i));
  world.run_until(20000000);
  EXPECT_EQ(delivered, 20u) << "healed link must deliver everything";
  EXPECT_EQ(world.wire_drops(), 20u) << "no further drops after the fault is cleared";
}

}  // namespace
}  // namespace shadow::core
