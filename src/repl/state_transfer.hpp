// The unified state-transfer engine.
//
// Sender and receiver state machines for streaming database state between
// replicas, shared by every replication protocol in the stack:
//
//   * SMR crash-restart rejoin and spare promotion (core/smr.cpp)
//   * primary-backup and chain-replication recovery (core/recovery.cpp)
//   * shard-range migration (core/migrate.cpp)
//
// A transfer is one `begin` message (schemas + dedup floor + protocol
// bookkeeping + the sender's state version), N ~50 KB row batches (each sent
// as soon as the engine has serialized it), optional protocol riders, and
// one `done`. The protocols differ only in which headers the stream is
// mounted on and what they do at the endpoints, so they pass a StreamHeaders
// set plus begin/done templates and keep their own epilogue logic.
//
// Every receiving side mounts one FetchSession. It owns the frame dispatch
// (by header and stream tag), the frame-count gap check at `done`, the
// refetch after a silence interval, and the rider frames; the protocol keeps
// only what it requests, what a prologue installs, and what a complete
// stream means. A migration's session buffers the row batches instead of
// applying them.
//
// There is one stream format (bodies in repl/wire.hpp). A stream is a full
// copy or, when the receiver presents a state version the sender's dirty
// tracking still covers, a delta of only the rows touched since then (plus
// deletions); either may be block-compressed. Every stream carries the
// sender's state version, so a completed full restore re-opens the
// receiver's delta floor and versioned reads at exactly that version.
//
// Layering: repl/ sees common/, wire/, net/ (transport-independent parts),
// obs/ and db/ — never sim/ or net/tcp (enforced by scripts/check.sh).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "db/engine.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"
#include "repl/wire.hpp"

namespace shadow::repl {

/// The message headers one protocol mounts a snapshot stream on.
struct StreamHeaders {
  std::string begin;
  std::string batch;
  std::string done;
  std::string deletes;  // delta deletion lists
};

/// Volume accounting for one sent stream (feeds the repl.* counters and the
/// Fig. 10(b) byte-volume table). Byte counts cover row payloads only, not
/// framing or deletion lists, so raw/wire ratios compare like with like.
struct SendStats {
  std::size_t raw_bytes = 0;   // serialized row bytes before compression
  std::size_t wire_bytes = 0;  // row payload bytes actually sent
  std::uint64_t rows = 0;
  std::uint64_t frames = 0;  // batch + delete messages (gap detection)
  bool delta = false;
};

class StateTransfer {
 public:
  using KeyFilter = std::function<bool(const std::string&, const db::Key&)>;

  /// Sender parameters. `begin_base` arrives with config/order/dedup_seqs
  /// filled by the protocol; schemas and the stream fields are filled here.
  /// `done_base` is the protocol's template (config, resume point); the row
  /// total and the stream fields are filled here.
  struct SendV2 {
    StreamHeaders headers;
    std::size_t batch_bytes = 50 * 1024;
    SnapBegin2Body begin_base;
    SnapDone2Body done_base;
    std::uint64_t tag = 0;  // stream id (0 rejoin; migration id otherwise)
    bool compress = false;
    /// Receiver's state version; a delta is sent when the sender's dirty
    /// tracking still covers it (engine.delta_valid), a full copy otherwise.
    std::optional<std::uint64_t> delta_since;
    /// Restricts a full copy to matching rows (shard-range migration).
    /// Ignored in delta mode, which always covers the whole keyspace.
    KeyFilter filter;
    /// Runs after the row batches, before `done` — SMR mounts its 2PC and
    /// migration riders here.
    std::function<void()> mid_stream;
    obs::Tracer* tracer = nullptr;
  };

  /// Traces kBegin and sends `begin`, then frames and sends each row batch
  /// as the engine's cursor (db::Engine::serialize_rows) fills it — full or
  /// delta, optionally compressed — so no snapshot is ever held whole. The
  /// serialize cost is charged once, after the last batch. Then come a
  /// delta's deletion lists, the riders and `done`, and the repl.bytes_raw /
  /// repl.bytes_wire / repl.delta_hits counters on the sender's tracer.
  static SendStats send_v2(net::NodeContext& ctx, const db::Engine& engine,
                           NodeId to, SendV2 spec);

  /// Recovers the engine SnapshotBatch a batch frame carries, decompressing
  /// if flagged. Returns false on a malformed compressed payload (the caller
  /// drops the stream and re-requests; wire checksums catch corruption
  /// first, this guards the decoder itself).
  static bool unwrap_batch(const SnapBatch2Body& body, db::Engine::SnapshotBatch& out);

  /// Receiver state machine: one in-progress inbound stream. Owns the
  /// awaiting/pending-order state the protocols used to keep ad hoc; the
  /// dedup-table install and protocol epilogues stay with the caller.
  class Receiver {
   public:
    struct Config {
      obs::Tracer* tracer = nullptr;
      NodeId self{0};
      /// Keep the row batches (take_batches) instead of applying them: the
      /// engine is never touched, nothing is charged or traced.
      bool buffer = false;
    };
    explicit Receiver(Config cfg) : cfg_(cfg) {}
    Receiver() = default;

    /// Prologue. A full stream installs schemas and clears data; in delta
    /// mode the engine keeps its rows and only upserts/deletes are applied.
    /// Either way it stashes the order the finished snapshot will represent.
    void begin_v2(db::Engine& engine, const SnapBegin2Body& body);

    /// Row batch: restore, charge, trace kBatch (counts toward the frame
    /// total). Returns false on a malformed compressed payload; the stream
    /// should be abandoned.
    bool on_batch2(net::NodeContext& ctx, db::Engine& engine,
                   const SnapBatch2Body& body, NodeId from);
    /// Delta deletion list (counts toward the frame total).
    void on_delete2(net::NodeContext& ctx, db::Engine& engine,
                    const SnapDelete2Body& body);

    /// True when every frame the epilogue announces actually arrived
    /// (checksum-dropped frames surface as a gap here).
    bool complete(const SnapDone2Body& done) const { return frames_seen_ == done.frames; }

    /// Ends the stream: stamps the engine with the sender's state version
    /// and, after a full restore, sets the delta floor — and with it the
    /// oldest versioned read — to that version (history before the restore
    /// was never observed here). Returns the represented order.
    std::uint64_t finish(db::Engine& engine);
    /// Abandons an in-progress stream (sender crash, view change, gap).
    void reset();

    bool awaiting() const { return awaiting_; }
    /// Buffering receiver: the batches of the last finished stream.
    std::vector<db::Engine::SnapshotBatch> take_batches() { return std::move(batches_); }

   private:
    Config cfg_;
    std::vector<db::Engine::SnapshotBatch> batches_;
    bool awaiting_ = false;
    bool delta_ = false;
    std::uint64_t pending_order_ = 0;
    std::uint64_t sender_version_ = 0;
    std::uint64_t frames_seen_ = 0;
  };
};

/// One inbound fetch: the receiver every protocol mounts. start() arms it
/// when the owner requests a stream; a complete stream or stop() disarms it.
/// While armed it accepts a `begin` unless another sender's stream is in
/// progress, and the rest of a stream from its sender only.
class FetchSession {
 public:
  struct Mount {
    StreamHeaders headers{};
    std::uint64_t tag = 0;              // the stream id this session accepts
    std::vector<std::string> riders{};  // rider headers, handed to Hooks::rider
    db::Engine* engine = nullptr;       // restored in place (unless buffering)
    StateTransfer::Receiver::Config receiver{};
  };
  struct Hooks {
    /// A prologue arrived; false refuses its stream (stale configuration).
    /// Null accepts every prologue.
    std::function<bool(net::NodeContext&, const SnapBegin2Body&)> begin{};
    std::function<void(net::NodeContext&, const net::Message&)> rider{};
    /// The stream arrived whole and is finished (the session disarmed);
    /// `order` is what its prologue represented.
    std::function<void(net::NodeContext&, const SnapDone2Body&, NodeId from, std::uint64_t order)>
        done{};
    /// Ask for a fresh stream: `from`'s stream was damaged, or the fetch
    /// fell silent (`from` is then the sender last asked or heard).
    std::function<void(net::NodeContext&, NodeId from)> refetch{};
  };

  FetchSession() = default;
  FetchSession(Mount mount, Hooks hooks);

  /// Arms the session: a request just went to `from`, which restarts the
  /// silence clock. An in-progress stream is kept.
  void start(net::Time now, NodeId from);
  /// Disarms the session and drops any partial stream.
  void stop();
  bool fetching() const { return fetching_; }

  /// Consumes this session's stream frames and riders (true); other headers
  /// and other tags are left to the caller.
  bool on_message(net::NodeContext& ctx, const net::Message& msg);

  /// From the owner's periodic tick: no sign of the stream for `interval`
  /// drops any partial stream and refetches.
  void tick(net::NodeContext& ctx, net::Time interval);

  std::vector<db::Engine::SnapshotBatch> take_batches() { return rx_.take_batches(); }

 private:
  void refetch(net::NodeContext& ctx, NodeId from);

  Mount mount_;
  Hooks hooks_;
  StateTransfer::Receiver rx_;
  bool fetching_ = false;
  NodeId source_{};  // the current stream's sender, or who was last asked
  net::Time last_sign_ = 0;
};

}  // namespace shadow::repl
