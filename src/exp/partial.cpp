#include "exp/partial.h"

#include <cstring>
#include <fstream>
#include <utility>

#include "common/codec.h"

namespace mwreg::exp {
namespace {

// "MWSP": mwreg sweep partial.
constexpr std::uint8_t kMagic[4] = {'M', 'W', 'S', 'P'};

// Doubles travel as their raw 8-byte little-endian bit pattern: latency
// samples must survive the round trip BIT-exactly (the whole point is a
// byte-identical merged report), and random mantissas make varints a
// pessimization anyway.
void put_f64(ByteWriter& w, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v, "double is 64-bit");
  std::memcpy(&bits, &v, sizeof bits);
  for (int i = 0; i < 8; ++i) {
    w.put_u8(static_cast<std::uint8_t>(bits >> (8 * i)));
  }
}

double get_f64(ByteReader& r) {
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<std::uint64_t>(r.get_u8()) << (8 * i);
  }
  double v = 0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

void put_samples(ByteWriter& w, const std::vector<double>& v) {
  w.put_varint(v.size());
  for (double d : v) put_f64(w, d);
}

std::vector<double> get_samples(ByteReader& r) {
  // get_count caps the prefix by the bytes actually remaining, so a
  // truncated or hostile count can never force an oversized reserve; each
  // 8-byte sample then fails cleanly at end-of-buffer.
  const std::uint64_t n = r.get_count();
  std::vector<double> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) out.push_back(get_f64(r));
  return out;
}

void put_trial(ByteWriter& w, const TrialResult& tr) {
  w.put_varint(tr.trial_index);
  w.put_signed(tr.spec_index);
  w.put_signed(tr.cell_index);
  w.put_string(tr.spec_name);
  w.put_string(tr.protocol);
  w.put_signed(tr.cfg.num_servers);
  w.put_signed(tr.cfg.num_writers);
  w.put_signed(tr.cfg.num_readers);
  w.put_signed(tr.cfg.max_faulty);
  w.put_signed(tr.cfg.server_base);
  w.put_signed(tr.cfg.client_base);
  w.put_signed(tr.cfg.reader_base);
  w.put_string(tr.fault_plan);
  w.put_signed(tr.keyspace.num_keys);
  w.put_signed(tr.keyspace.shards);
  put_f64(w, tr.keyspace.zipf_s);
  w.put_varint(tr.user_seed);
  w.put_varint(tr.harness_seed);
  w.put_bool(tr.expected_atomic);
  w.put_bool(tr.tag_atomic);
  w.put_bool(tr.graph_atomic);
  w.put_bool(tr.stream_atomic);
  w.put_varint(tr.stream_peak_window);
  w.put_string(tr.violation);
  put_samples(w, tr.write_ms);
  put_samples(w, tr.read_ms);
  w.put_varint(tr.completed_ops);
  w.put_varint(tr.msgs_sent);
  w.put_varint(tr.sim_events);
  w.put_signed(tr.faults_injected);
  w.put_varint(tr.ops_under_fault);
  put_f64(w, tr.recovery_ms);
}

TrialResult get_trial(ByteReader& r) {
  TrialResult tr;
  tr.trial_index = r.get_varint();
  tr.spec_index = static_cast<int>(r.get_signed());
  tr.cell_index = static_cast<int>(r.get_signed());
  tr.spec_name = r.get_string();
  tr.protocol = r.get_string();
  tr.cfg.num_servers = static_cast<int>(r.get_signed());
  tr.cfg.num_writers = static_cast<int>(r.get_signed());
  tr.cfg.num_readers = static_cast<int>(r.get_signed());
  tr.cfg.max_faulty = static_cast<int>(r.get_signed());
  tr.cfg.server_base = static_cast<NodeId>(r.get_signed());
  tr.cfg.client_base = static_cast<NodeId>(r.get_signed());
  tr.cfg.reader_base = static_cast<NodeId>(r.get_signed());
  tr.fault_plan = r.get_string();
  tr.keyspace.num_keys = static_cast<int>(r.get_signed());
  tr.keyspace.shards = static_cast<int>(r.get_signed());
  tr.keyspace.zipf_s = get_f64(r);
  tr.user_seed = r.get_varint();
  tr.harness_seed = r.get_varint();
  tr.expected_atomic = r.get_bool();
  tr.tag_atomic = r.get_bool();
  tr.graph_atomic = r.get_bool();
  tr.stream_atomic = r.get_bool();
  tr.stream_peak_window = r.get_varint();
  tr.violation = r.get_string();
  tr.write_ms = get_samples(r);
  tr.read_ms = get_samples(r);
  tr.completed_ops = r.get_varint();
  tr.msgs_sent = r.get_varint();
  tr.sim_events = r.get_varint();
  tr.faults_injected = static_cast<int>(r.get_signed());
  tr.ops_under_fault = r.get_varint();
  tr.recovery_ms = get_f64(r);
  return tr;
}

bool refuse(std::string* error, std::string why) {
  if (error != nullptr) *error = std::move(why);
  return false;
}

}  // namespace

PartialMeta make_partial_meta(const std::string& name,
                              const std::vector<ExperimentSpec>& specs,
                              const ShardSpec& shard) {
  const ExpansionInfo info = expansion_info(specs);
  PartialMeta meta;
  meta.name = name;
  meta.shard = shard;
  meta.total_trials = info.total_trials;
  meta.expansion_digest = info.digest;
  return meta;
}

std::vector<std::uint8_t> encode_partial(
    const PartialMeta& meta, const std::vector<TrialResult>& results) {
  ByteWriter w;
  for (std::uint8_t b : kMagic) w.put_u8(b);
  w.put_varint(kPartialVersion);
  w.put_string(meta.name);
  w.put_signed(meta.shard.index);
  w.put_signed(meta.shard.count);
  w.put_varint(meta.total_trials);
  w.put_varint(meta.expansion_digest);
  w.put_varint(results.size());
  for (const TrialResult& tr : results) put_trial(w, tr);
  return w.take();
}

bool decode_partial(const std::uint8_t* data, std::size_t size, Partial* out,
                    std::string* error) {
  ByteReader r(data, size);
  for (std::uint8_t b : kMagic) {
    if (r.get_u8() != b || !r.ok()) {
      return refuse(error, "not a sweep partial (bad magic)");
    }
  }
  const std::uint64_t version = r.get_varint();
  if (!r.ok()) return refuse(error, "truncated partial header");
  if (version != kPartialVersion) {
    return refuse(error, "partial version mismatch: file has v" +
                             std::to_string(version) + ", this build reads v" +
                             std::to_string(kPartialVersion));
  }
  Partial p;
  p.meta.name = r.get_string();
  p.meta.shard.index = static_cast<int>(r.get_signed());
  p.meta.shard.count = static_cast<int>(r.get_signed());
  p.meta.total_trials = r.get_varint();
  p.meta.expansion_digest = r.get_varint();
  const std::uint64_t count = r.get_count();
  if (!r.ok()) return refuse(error, "truncated partial header");
  if (!p.meta.shard.valid()) {
    return refuse(error, "partial has invalid shard " + p.meta.shard.to_string());
  }
  p.results.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    p.results.push_back(get_trial(r));
    if (!r.ok()) {
      return refuse(error, "truncated partial: trial record " +
                               std::to_string(i) + " of " +
                               std::to_string(count) + " is cut short");
    }
  }
  if (!r.exhausted()) {
    return refuse(error, "partial has " + std::to_string(r.remaining()) +
                             " trailing bytes after the last trial record");
  }
  *out = std::move(p);
  return true;
}

bool save_partial(const std::string& path, const PartialMeta& meta,
                  const std::vector<TrialResult>& results,
                  std::string* error) {
  const std::vector<std::uint8_t> bytes = encode_partial(meta, results);
  std::ofstream f(path, std::ios::binary);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f.good()) return refuse(error, "failed to write partial: " + path);
  return true;
}

bool load_partial(const std::string& path, Partial* out, std::string* error) {
  std::ifstream f(path, std::ios::binary);
  if (!f.good()) return refuse(error, "failed to open partial: " + path);
  std::vector<std::uint8_t> bytes((std::istreambuf_iterator<char>(f)),
                                  std::istreambuf_iterator<char>());
  if (f.bad()) return refuse(error, "failed to read partial: " + path);
  std::string derr;
  if (!decode_partial(bytes.data(), bytes.size(), out, &derr)) {
    return refuse(error, path + ": " + derr);
  }
  return true;
}

bool merge_partials(const std::vector<Partial>& partials,
                    std::vector<TrialResult>* out, std::string* error) {
  if (partials.empty()) return refuse(error, "no partials to merge");
  const PartialMeta& first = partials.front().meta;
  for (const Partial& p : partials) {
    if (p.meta.name != first.name) {
      return refuse(error, "partials name different reports: '" + first.name +
                               "' vs '" + p.meta.name + "'");
    }
    if (p.meta.total_trials != first.total_trials ||
        p.meta.expansion_digest != first.expansion_digest) {
      return refuse(error,
                    "partials come from different expansions (total/digest "
                    "mismatch) — refusing to merge shards of different runs");
    }
  }
  // total_trials is read from a file: size nothing by it until the records
  // actually present account for every trial. Once they do, each index
  // below is in range and seen once exactly when all are present.
  std::uint64_t records = 0;
  for (const Partial& p : partials) records += p.results.size();
  if (records < first.total_trials) {
    return refuse(error, std::to_string(first.total_trials - records) +
                             " of " + std::to_string(first.total_trials) +
                             " trials missing — is a shard's partial absent?");
  }
  if (records > first.total_trials) {
    return refuse(error, std::to_string(records) + " trial records for " +
                             std::to_string(first.total_trials) +
                             " trials — a trial appears in more than one "
                             "partial");
  }
  // Slot-indexed scatter: expansion order is restored no matter the order
  // the partials arrive in (merge is order-independent by construction).
  std::vector<TrialResult> merged(first.total_trials);
  std::vector<bool> seen(first.total_trials, false);
  for (const Partial& p : partials) {
    for (const TrialResult& tr : p.results) {
      if (tr.trial_index >= first.total_trials) {
        return refuse(error, "trial index " + std::to_string(tr.trial_index) +
                                 " out of range (expansion has " +
                                 std::to_string(first.total_trials) +
                                 " trials)");
      }
      if (seen[tr.trial_index]) {
        return refuse(error, "trial index " + std::to_string(tr.trial_index) +
                                 " appears in more than one partial");
      }
      seen[tr.trial_index] = true;
      merged[tr.trial_index] = tr;
    }
  }
  *out = std::move(merged);
  return true;
}

}  // namespace mwreg::exp
