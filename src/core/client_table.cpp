#include "core/client_table.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace mwreg {

ClientTable::ClientTable(Network& net, const ClusterConfig& global,
                         const std::vector<ClusterConfig>& key_cfgs,
                         TableWriterProgram writer_program,
                         TableReaderProgram reader_program,
                         std::vector<History*> histories)
    : Process(global.writer_id(0), net),
      global_(global),
      key_cfgs_(key_cfgs),
      writer_program_(writer_program),
      reader_program_(reader_program),
      histories_(std::move(histories)),
      w_(global.w()),
      r_(global.r()) {
  const int n = w_ + r_;
  phase_.assign(static_cast<std::size_t>(n), 0);
  key_.assign(static_cast<std::size_t>(n), 0);
  rpc_.assign(static_cast<std::size_t>(n), 0);
  next_rpc_.assign(static_cast<std::size_t>(n), 1);
  acks_.assign(static_cast<std::size_t>(n), 0);
  op_.assign(static_cast<std::size_t>(n), -1);
  wr_payload_.assign(static_cast<std::size_t>(w_), 0);
  acc_tag_.assign(static_cast<std::size_t>(w_), Tag{});
  local_ts_.assign(static_cast<std::size_t>(w_), 0);
  acc_val_.assign(static_cast<std::size_t>(r_), TaggedValue{});
  // The Process ctor claimed the first client id; claim the rest.
  for (int s = 1; s < n; ++s) net.attach(slot_node(s), *this);
  if (reader_key_affine()) {
    fr_.resize(static_cast<std::size_t>(r_));
    for (int ri = 0; ri < r_; ++ri) {
      auto st = std::make_unique<FrReaderState>();
      st->val_queue.push_back(TaggedValue{});  // (0, bottom)
      if (reader_program_ == TableReaderProgram::kFrDelta) {
        st->caches.resize(static_cast<std::size_t>(global_.s()));
      }
      fr_[static_cast<std::size_t>(ri)] = std::move(st);
    }
    for (const ClusterConfig& kc : key_cfgs_) {
      picker_.reserve(kc);
      // Each reader serves one key: its caches and reply arenas take that
      // group's span.
      const NodeId base = kc.first_client();
      const int span = kc.id_end() - base;
      for (int i = 0; i < kc.r(); ++i) {
        const int ri = kc.reader_id(i) - global_.first_reader();
        if (ri < 0 || ri >= r_) continue;
        FrReaderState& st = *fr_[static_cast<std::size_t>(ri)];
        if (reader_program_ == TableReaderProgram::kFrFull) {
          st.arenas.assign(static_cast<std::size_t>(kc.quorum()),
                           FrRows(base, span));
        }
        for (FrServerCache& c : st.caches) c.rows.reset(base, span);
      }
    }
  }
}

std::uint64_t ClientTable::decode_arena_grows() const {
  std::uint64_t total = 0;
  for (const auto& st : fr_) {
    if (!st) continue;
    for (const FrRows& a : st->arenas) total += a.grows();
  }
  return total;
}

void ClientTable::broadcast(int slot, std::uint32_t key, MsgType type,
                            ByteSpan payload) {
  const ClusterConfig& kc = key_cfgs_[key];
  const NodeId src = slot_node(slot);
  const std::uint64_t rpc = next_rpc_[static_cast<std::size_t>(slot)]++;
  rpc_[static_cast<std::size_t>(slot)] = rpc;
  acks_[static_cast<std::size_t>(slot)] = 0;
  // Fan out in server order (the order every golden digest was recorded
  // with). Each send copies the bytes, so all of them read one encoding.
  for (int i = 0; i < kc.s(); ++i) {
    net().send_bytes(src, kc.server_id(i), type, key, rpc, payload);
  }
}

void ClientTable::check_start(bool writer, int index, std::uint32_t key) const {
  // Messages are built only on refusal: a start that passes allocates
  // nothing here.
  const char* who =
      writer ? "ClientTable::start_write: " : "ClientTable::start_read: ";
  const int count = writer ? w_ : r_;
  if (index < 0 || index >= count) {
    throw std::out_of_range(std::string(who) + "index " +
                            std::to_string(index) + " outside [0, " +
                            std::to_string(count) + ")");
  }
  if (key >= key_cfgs_.size()) {
    throw std::out_of_range(std::string(who) + "key " + std::to_string(key) +
                            " outside [0, " +
                            std::to_string(key_cfgs_.size()) + ")");
  }
  const int slot = writer ? index : w_ + index;
  if (phase_[static_cast<std::size_t>(slot)] != 0) {
    throw std::logic_error(std::string(who) + (writer ? "writer " : "reader ") +
                           std::to_string(index) +
                           " already has an operation in flight");
  }
}

OpId ClientTable::start_write(int wi, std::uint32_t key, std::int64_t payload) {
  check_start(/*writer=*/true, wi, key);
  const int slot = wi;
  const auto s = static_cast<std::size_t>(slot);
  const NodeId node = slot_node(slot);
  const OpId op = histories_[key]->begin_op(node, OpKind::kWrite, sim().now());
  op_[s] = op;
  key_[s] = key;
  wr_payload_[s] = payload;
  switch (writer_program_) {
    case TableWriterProgram::kAbdTwoRound:
      acc_tag_[s] = kBottomTag;
      phase_[s] = 1;
      broadcast(slot, key, kAbdReadReq);
      break;
    case TableWriterProgram::kFrQueryThenWrite:
      acc_tag_[s] = kBottomTag;
      phase_[s] = 1;
      broadcast(slot, key, kFrQueryReq);
      break;
    case TableWriterProgram::kAbdLocalTs:
      begin_write_round2(slot, Tag{++local_ts_[s], node});
      break;
    case TableWriterProgram::kFrLocalTs:
      begin_write_round2(slot, Tag{++local_ts_[s], node});
      break;
  }
  return op;
}

void ClientTable::begin_write_round2(int slot, Tag tag) {
  const auto s = static_cast<std::size_t>(slot);
  acc_tag_[s] = tag;
  phase_[s] = 2;
  const bool fr = writer_program_ == TableWriterProgram::kFrQueryThenWrite ||
                  writer_program_ == TableWriterProgram::kFrLocalTs;
  ByteWriter& w = out();
  w.put_value(TaggedValue{tag, wr_payload_[s]});
  broadcast(slot, key_[s], fr ? kFrWriteReq : kAbdWriteReq, w.bytes());
}

OpId ClientTable::start_read(int ri, std::uint32_t key) {
  check_start(/*writer=*/false, ri, key);
  const int slot = w_ + ri;
  const auto s = static_cast<std::size_t>(slot);
  const NodeId node = slot_node(slot);
  const OpId op = histories_[key]->begin_op(node, OpKind::kRead, sim().now());
  op_[s] = op;
  key_[s] = key;
  switch (reader_program_) {
    case TableReaderProgram::kAbdTwoRound:
    case TableReaderProgram::kAbdOneRoundMax:
      acc_val_[static_cast<std::size_t>(ri)] = TaggedValue{};
      phase_[s] = 1;
      broadcast(slot, key, kAbdReadReq);
      break;
    case TableReaderProgram::kFrFull: {
      FrReaderState& st = *fr_[static_cast<std::size_t>(ri)];
      ByteWriter& w = out();
      encode_value_list_into(w, st.val_queue);
      phase_[s] = 1;
      broadcast(slot, key, kFrReadReq, w.bytes());
      break;
    }
    case TableReaderProgram::kFrDelta: {
      FrReaderState& st = *fr_[static_cast<std::size_t>(ri)];
      // The pruned valQueue: only the confirmed watermark value. Every
      // server re-admits and confirms it before replying, which is all
      // Lemma 3 needs (DESIGN.md section 6.3).
      st.queue_scratch.clear();
      st.queue_scratch.push_back(st.watermark);
      st.acked_scratch.clear();
      for (const FrServerCache& c : st.caches) {
        st.acked_scratch.push_back(c.rev);
      }
      ByteWriter& w = out();
      encode_delta_read_req_into(w, st.queue_scratch, st.acked_scratch.data(),
                                 st.acked_scratch.size());
      st.round_servers.clear();
      phase_[s] = 1;
      broadcast(slot, key, kFrReadDeltaReq, w.bytes());
      break;
    }
  }
  return op;
}

void ClientTable::on_message(const Frame& m) { handle_reply(m); }

void ClientTable::handle_reply(const Frame& m) {
  const int slot = slot_of(m.dst);
  if (slot < 0) return;
  const auto s = static_cast<std::size_t>(slot);
  // Late reply to a finished round (rpc_ is zeroed at completion and never
  // reused: per-slot ids start at 1).
  if (phase_[s] == 0 || m.rpc_id != rpc_[s]) return;
  if (slot < w_) {
    on_writer_reply(slot, m);
  } else {
    on_reader_reply(slot, m);
  }
}

void ClientTable::on_writer_reply(int slot, const Frame& m) {
  const auto s = static_cast<std::size_t>(slot);
  const ClusterConfig& kc = key_cfgs_[key_[s]];
  if (phase_[s] == 1) {
    // RT 1: accumulate the max tag incrementally — the same result as a
    // fold over the quorum's replies.
    if (writer_program_ == TableWriterProgram::kAbdTwoRound) {
      acc_tag_[s] = std::max(acc_tag_[s], decode_value(m.payload).tag);
    } else {
      acc_tag_[s].ts = std::max(acc_tag_[s].ts, decode_tag(m.payload).ts);
    }
    if (++acks_[s] < kc.quorum()) return;
    ++rounds_done_;
    begin_write_round2(slot, Tag{acc_tag_[s].ts + 1, slot_node(slot)});
    return;
  }
  if (++acks_[s] < kc.quorum()) return;
  ++rounds_done_;
  complete_write(slot);
}

void ClientTable::on_reader_reply(int slot, const Frame& m) {
  const auto s = static_cast<std::size_t>(slot);
  const ClusterConfig& kc = key_cfgs_[key_[s]];
  const int ri = slot - w_;
  switch (reader_program_) {
    case TableReaderProgram::kAbdTwoRound:
    case TableReaderProgram::kAbdOneRoundMax: {
      TaggedValue& acc = acc_val_[static_cast<std::size_t>(ri)];
      if (phase_[s] == 1) {
        const TaggedValue v = decode_value(m.payload);
        if (v.tag > acc.tag) acc = v;
        if (++acks_[s] < kc.quorum()) return;
        ++rounds_done_;
        if (reader_program_ == TableReaderProgram::kAbdOneRoundMax) {
          complete_read(slot, acc);
          return;
        }
        // RT 2: write back ("atomic reads must write").
        phase_[s] = 2;
        ByteWriter& w = out();
        w.put_value(acc);
        broadcast(slot, key_[s], kAbdWriteReq, w.bytes());
        return;
      }
      if (++acks_[s] < kc.quorum()) return;
      ++rounds_done_;
      complete_read(slot, acc);
      return;
    }
    case TableReaderProgram::kFrFull: {
      FrReaderState& st = *fr_[static_cast<std::size_t>(ri)];
      // Decode in place, one arena per reply index (arrival order), instead
      // of buffering pooled copies until quorum — same decoded views.
      const auto i = static_cast<std::size_t>(acks_[s]);
      ByteReader br(m.payload);
      const bool ok = decode_rows_into(br, st.arenas[i]);
      assert(ok && "malformed kFrReadAck");
      (void)ok;
      if (++acks_[s] < kc.quorum()) return;
      ++rounds_done_;
      reader_decide_full(slot);
      return;
    }
    case TableReaderProgram::kFrDelta: {
      FrReaderState& st = *fr_[static_cast<std::size_t>(ri)];
      const auto si = static_cast<std::size_t>(m.src - kc.server_base);
      const bool ok = fr_apply_delta(st.caches[si], m.payload);
      assert(ok && "malformed kFrReadAckDelta");
      (void)ok;
      st.round_servers.push_back(static_cast<int>(si));
      if (++acks_[s] < kc.quorum()) return;
      ++rounds_done_;
      reader_decide_delta(slot);
      return;
    }
  }
}

void ClientTable::reader_decide_full(int slot) {
  const auto s = static_cast<std::size_t>(slot);
  FrReaderState& st = *fr_[static_cast<std::size_t>(slot - w_)];
  st.views.clear();
  for (std::int32_t i = 0; i < acks_[s]; ++i) {
    st.views.push_back(&st.arenas[static_cast<std::size_t>(i)]);
  }
  // valQueue <- valQueue union everything received (kept sorted unique —
  // the contents of the paper's valQueue set). Each reply is sorted and
  // duplicate-free, so merge them in one at a time.
  for (const FrRows* v : st.views) {
    st.queue_merge.clear();
    auto q = st.val_queue.cbegin();
    std::size_t e = 0;
    while (q != st.val_queue.cend() && e < v->size()) {
      if (v->value(e) < *q) {
        st.queue_merge.push_back(v->value(e++));
      } else {
        if (v->value(e) == *q) ++e;
        st.queue_merge.push_back(*q++);
      }
    }
    st.queue_merge.insert(st.queue_merge.end(), q, st.val_queue.cend());
    for (; e < v->size(); ++e) st.queue_merge.push_back(v->value(e));
    st.val_queue.swap(st.queue_merge);
  }
  complete_read(slot, picker_.pick(st.views, key_cfgs_[key_[s]]));
}

void ClientTable::reader_decide_delta(int slot) {
  const auto s = static_cast<std::size_t>(slot);
  FrReaderState& st = *fr_[static_cast<std::size_t>(slot - w_)];
  st.views.clear();
  for (const int si : st.round_servers) {
    st.views.push_back(&st.caches[static_cast<std::size_t>(si)].rows);
  }
  const TaggedValue v = picker_.pick(st.views, key_cfgs_[key_[s]]);
  // valQueue semantics, compressed: the watermark is the max of everything
  // ever received (>= the value returned).
  for (const FrRows* view : st.views) {
    if (!view->empty()) {
      st.watermark = std::max(st.watermark, view->value(view->size() - 1));
    }
  }
  complete_read(slot, v);
}

void ClientTable::complete_write(int slot) {
  const auto s = static_cast<std::size_t>(slot);
  phase_[s] = 0;
  rpc_[s] = 0;
  const TaggedValue v{acc_tag_[s], wr_payload_[s]};
  histories_[key_[s]]->end_op(op_[s], sim().now(), v);
  if (on_complete_) on_complete_(slot, OpKind::kWrite, v);
}

void ClientTable::complete_read(int slot, const TaggedValue& v) {
  const auto s = static_cast<std::size_t>(slot);
  phase_[s] = 0;
  rpc_[s] = 0;
  histories_[key_[s]]->end_op(op_[s], sim().now(), v);
  if (on_complete_) on_complete_(slot, OpKind::kRead, v);
}

}  // namespace mwreg
