#include "repl/state_transfer.hpp"

#include <algorithm>
#include <utility>

#include "net/message.hpp"
#include "repl/compress.hpp"

namespace shadow::repl {

namespace {

// Virtual CPU cost of the LZSS codec, per byte of raw payload. Calibrated to
// the rough throughput of small-window LZ codecs (~250 MB/s compressing,
// ~1 GB/s decompressing) so compression trades CPU for wire volume in the
// simulator the way it would on hardware.
constexpr double kCompressByteUs = 0.004;
constexpr double kDecompressByteUs = 0.001;

/// Wraps one serialized row batch as a batch frame, compressing when asked and
/// profitable, and sends it. Keeps the raw bytes when compression does not
/// shrink them, so a frame never inflates.
void send_batch2(net::NodeContext& ctx, NodeId to, const StateTransfer::SendV2& spec,
                 db::Engine::SnapshotBatch&& batch, std::uint8_t flags, SendStats& stats) {
  const std::size_t raw_len = batch.data.size();
  Bytes payload = std::move(batch.data);
  if (spec.compress) {
    Bytes packed = compress_block(payload);
    ctx.charge(static_cast<net::Time>(kCompressByteUs * static_cast<double>(raw_len)));
    if (!packed.empty() && packed.size() < raw_len) {
      flags |= kBatchCompressed;
      payload = std::move(packed);
    }
  }
  stats.raw_bytes += raw_len;
  stats.wire_bytes += payload.size();
  stats.rows += batch.rows;
  ++stats.frames;
  ctx.send(to, net::make_msg(spec.headers.batch,
                             SnapBatch2Body{std::move(batch.table), flags,
                                            static_cast<std::uint32_t>(raw_len), batch.rows,
                                            std::move(payload), spec.tag}));
}

}  // namespace

SendStats StateTransfer::send_v2(net::NodeContext& ctx, const db::Engine& engine,
                                 NodeId to, SendV2 spec) {
  SendStats stats;
  // Delta only when the receiver's base is still covered by dirty tracking
  // and not ahead of us (a filtered copy always ships the range in full).
  stats.delta = spec.delta_since.has_value() && !spec.filter &&
                engine.delta_valid(*spec.delta_since) &&
                *spec.delta_since <= engine.state_version();
  if (spec.tracer) {
    spec.tracer->state_transfer(ctx.now(), ctx.self(), obs::StatePhase::kBegin, 0, to);
    if (stats.delta) spec.tracer->count("repl.delta_hits");
  }
  SnapBegin2Body begin = spec.begin_base;
  // A delta carries no schemas: the receiver keeps its tables.
  if (!stats.delta) begin.schemas = engine.schemas();
  begin.mode = static_cast<std::uint8_t>(stats.delta ? TransferMode::kDelta : TransferMode::kFull);
  begin.state_version = engine.state_version();
  begin.tag = spec.tag;
  ctx.send(to, net::make_msg(spec.headers.begin, std::move(begin)));

  const db::Engine::RowSelection selection{
      .since = stats.delta ? spec.delta_since : std::nullopt, .include = spec.filter};
  const std::uint8_t flags = stats.delta ? kBatchDeltaUpsert : 0;
  ctx.charge(engine.serialize_rows(spec.batch_bytes, selection,
                                   [&](db::Engine::SnapshotBatch&& batch) {
                                     send_batch2(ctx, to, spec, std::move(batch), flags, stats);
                                   }));
  if (stats.delta) {
    for (auto& [table, keys] : engine.deleted_since(*spec.delta_since)) {
      ctx.send(to, net::make_msg(spec.headers.deletes,
                                 SnapDelete2Body{std::move(table), std::move(keys), spec.tag}));
      ++stats.frames;
    }
  }
  if (spec.mid_stream) spec.mid_stream();
  SnapDone2Body done = spec.done_base;
  done.tag = spec.tag;
  done.rows = stats.rows;
  done.frames = stats.frames;
  ctx.send(to, net::make_msg(spec.headers.done, std::move(done)));
  if (spec.tracer) {
    spec.tracer->count("repl.bytes_raw", stats.raw_bytes);
    spec.tracer->count("repl.bytes_wire", stats.wire_bytes);
  }
  return stats;
}

bool StateTransfer::unwrap_batch(const SnapBatch2Body& body, db::Engine::SnapshotBatch& out) {
  out.table = body.table;
  out.rows = body.rows;
  if ((body.flags & kBatchCompressed) != 0) {
    Bytes raw;
    if (!decompress_block(body.payload, body.raw_len, raw)) return false;
    out.data = std::move(raw);
  } else {
    if (body.payload.size() != body.raw_len) return false;
    out.data = body.payload;
  }
  return true;
}

// ------------------------------------------------------------------ receiver --

void StateTransfer::Receiver::begin_v2(db::Engine& engine, const SnapBegin2Body& body) {
  delta_ = body.mode == static_cast<std::uint8_t>(TransferMode::kDelta);
  if (cfg_.buffer) {
    batches_.clear();
  } else if (delta_) {
    // Advance to the sender's version up front so the upserts about to be
    // applied mark their keys at it — this engine must be able to serve a
    // correct delta of its own later.
    engine.set_state_version(body.state_version);
  } else {
    engine.reset_for_restore(body.schemas);
  }
  awaiting_ = true;
  // The snapshot's order is claimed only once the full snapshot applied: a
  // partially-restored replica must not present itself as up to date in a
  // later election (a crash of the sender mid-stream would otherwise let
  // garbage state win).
  pending_order_ = body.order;
  sender_version_ = body.state_version;
  frames_seen_ = 0;
}

bool StateTransfer::Receiver::on_batch2(net::NodeContext& ctx, db::Engine& engine,
                                        const SnapBatch2Body& body, NodeId from) {
  if (!awaiting_) return true;
  db::Engine::SnapshotBatch batch;
  if (!unwrap_batch(body, batch)) return false;
  ++frames_seen_;
  if (cfg_.buffer) {
    batches_.push_back(std::move(batch));
    return true;
  }
  if ((body.flags & kBatchCompressed) != 0) {
    ctx.charge(static_cast<net::Time>(kDecompressByteUs * static_cast<double>(batch.data.size())));
  }
  ctx.charge((body.flags & kBatchDeltaUpsert) != 0 ? engine.restore_upsert_batch(batch)
                                                   : engine.restore_batch(batch));
  if (cfg_.tracer) {
    cfg_.tracer->state_transfer(ctx.now(), cfg_.self, obs::StatePhase::kBatch,
                                body.payload.size(), from);
  }
  return true;
}

void StateTransfer::Receiver::on_delete2(net::NodeContext& ctx, db::Engine& engine,
                                         const SnapDelete2Body& body) {
  if (!awaiting_) return;
  if (!cfg_.buffer) ctx.charge(engine.apply_deletes(body.table, body.keys));
  ++frames_seen_;
}

std::uint64_t StateTransfer::Receiver::finish(db::Engine& engine) {
  awaiting_ = false;
  frames_seen_ = 0;
  if (cfg_.buffer) return pending_order_;
  // A full restore never observed history before the sender's version, so
  // neither deltas nor versioned reads can be served from below it; after a
  // delta the existing floor still holds.
  if (!delta_) engine.set_delta_floor(sender_version_);
  engine.set_state_version(sender_version_);
  return pending_order_;
}

void StateTransfer::Receiver::reset() {
  awaiting_ = false;
  delta_ = false;
  frames_seen_ = 0;
  batches_.clear();
}

// ------------------------------------------------------------ fetch session --

FetchSession::FetchSession(Mount mount, Hooks hooks)
    : mount_(std::move(mount)), hooks_(std::move(hooks)), rx_(mount_.receiver) {}

void FetchSession::start(net::Time now, NodeId from) {
  fetching_ = true;
  if (!rx_.awaiting()) source_ = from;
  last_sign_ = now;
}

void FetchSession::stop() {
  fetching_ = false;
  rx_.reset();
}

void FetchSession::refetch(net::NodeContext& ctx, NodeId from) {
  rx_.reset();
  last_sign_ = ctx.now();
  hooks_.refetch(ctx, from);
}

bool FetchSession::on_message(net::NodeContext& ctx, const net::Message& msg) {
  const StreamHeaders& headers = mount_.headers;
  // While a stream is in progress, frames from anyone but its sender belong
  // to a stream this session is not installing (a redundant or stale one).
  const bool ours = fetching_ && (!rx_.awaiting() || msg.from == source_);
  if (msg.header == headers.begin) {
    const auto& begin = net::msg_body<SnapBegin2Body>(msg);
    if (begin.tag != mount_.tag) return false;
    if (ours && (!hooks_.begin || hooks_.begin(ctx, begin))) {
      source_ = msg.from;
      last_sign_ = ctx.now();
      rx_.begin_v2(*mount_.engine, begin);
    }
  } else if (msg.header == headers.batch) {
    const auto& batch = net::msg_body<SnapBatch2Body>(msg);
    if (batch.tag != mount_.tag) return false;
    if (ours) {
      last_sign_ = ctx.now();
      // A malformed frame drops the stream; its `done` asks again.
      if (!rx_.on_batch2(ctx, *mount_.engine, batch, msg.from)) rx_.reset();
    }
  } else if (msg.header == headers.deletes) {
    const auto& del = net::msg_body<SnapDelete2Body>(msg);
    if (del.tag != mount_.tag) return false;
    if (ours) {
      last_sign_ = ctx.now();
      rx_.on_delete2(ctx, *mount_.engine, del);
    }
  } else if (msg.header == headers.done) {
    const auto& done = net::msg_body<SnapDone2Body>(msg);
    if (done.tag != mount_.tag) return false;
    if (!ours) return true;
    if (!rx_.awaiting() || !rx_.complete(done)) {
      // A lost begin, or a lost or malformed frame (checksum corruption
      // surfaces as loss): never install a hole, fetch a fresh stream.
      refetch(ctx, msg.from);
      return true;
    }
    fetching_ = false;
    const std::uint64_t order = rx_.finish(*mount_.engine);
    hooks_.done(ctx, done, msg.from, order);
  } else if (std::find(mount_.riders.begin(), mount_.riders.end(), msg.header) !=
             mount_.riders.end()) {
    if (ours) hooks_.rider(ctx, msg);
  } else {
    return false;
  }
  return true;
}

void FetchSession::tick(net::NodeContext& ctx, net::Time interval) {
  if (fetching_ && ctx.now() - last_sign_ >= interval) refetch(ctx, source_);
}

}  // namespace shadow::repl
