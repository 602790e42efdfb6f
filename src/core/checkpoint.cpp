// Journal implementation + DistKfacOptimizer checkpoint/restore.  Format
// documented in checkpoint.hpp.

#include "core/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "core/dist_kfac.hpp"

namespace spdkfac::core::journal {

namespace {

constexpr std::size_t kFrameHeaderBytes = 12;  // u16 type, u16 index, u64 len

/// Frames above this payload size are rejected by the Reader before
/// allocation: a corrupted length field must not turn into a multi-gigabyte
/// vector resize.  Far above any real record (the largest is a weight
/// matrix) yet small enough to fail fast on garbage.
constexpr std::uint64_t kMaxPayloadBytes = std::uint64_t{1} << 32;

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    table[i] = c;
  }
  return table;
}

void put_le(std::vector<unsigned char>& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<unsigned char>(v >> (8 * i)));
  }
}

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("checkpoint: " + what);
}

void write_bytes(std::ostream& out, std::span<const unsigned char> bytes) {
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) fail("write failed");
}

void read_bytes(std::istream& in, unsigned char* data, std::size_t n) {
  in.read(reinterpret_cast<char*>(data), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(in.gcount()) != n) fail("truncated journal");
}

}  // namespace

std::uint32_t crc32(std::span<const unsigned char> bytes, std::uint32_t seed) {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (unsigned char b : bytes) {
    c = table[(c ^ b) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void Payload::put_u64(std::uint64_t v) { put_le(bytes_, v, 8); }

void Payload::put_f64(double v) {
  put_le(bytes_, std::bit_cast<std::uint64_t>(v), 8);
}

void Payload::put_f64s(std::span<const double> values) {
  for (double v : values) put_f64(v);
}

void Payload::put_matrix(const tensor::Matrix& m) {
  put_u64(m.rows());
  put_u64(m.cols());
  put_f64s(m.data());
}

std::uint64_t PayloadView::get_u64() {
  if (bytes_.size() - offset_ < 8) fail("truncated record payload");
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes_[offset_ + i]) << (8 * i);
  }
  offset_ += 8;
  return v;
}

double PayloadView::get_f64() { return std::bit_cast<double>(get_u64()); }

std::vector<double> PayloadView::get_f64s(std::size_t count) {
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) out.push_back(get_f64());
  return out;
}

tensor::Matrix PayloadView::get_matrix() {
  const std::uint64_t rows = get_u64();
  const std::uint64_t cols = get_u64();
  // Guard the product before sizing: two plausible-looking u64s must not
  // overflow into a huge (or tiny) allocation on a CRC-passing frame from
  // a buggy producer.
  if (rows != 0 && cols > (bytes_.size() - offset_) / 8 / rows) {
    fail("matrix larger than its record");
  }
  tensor::Matrix m(static_cast<std::size_t>(rows),
                   static_cast<std::size_t>(cols));
  for (double& slot : m.data()) slot = get_f64();
  return m;
}

Writer::Writer(std::ostream& out) : out_(out) {
  std::vector<unsigned char> header(kMagic, kMagic + sizeof(kMagic));
  put_le(header, kVersion, 4);
  write_bytes(out_, header);
}

void Writer::record(RecordType type, std::uint16_t index,
                    std::span<const unsigned char> payload) {
  if (finished_) fail("record() after finish()");
  std::vector<unsigned char> frame;
  frame.reserve(kFrameHeaderBytes + payload.size() + 4);
  put_le(frame, static_cast<std::uint16_t>(type), 2);
  put_le(frame, index, 2);
  put_le(frame, payload.size(), 8);
  frame.insert(frame.end(), payload.begin(), payload.end());
  put_le(frame, crc32(frame), 4);
  write_bytes(out_, frame);
  ++records_;
}

void Writer::finish() {
  if (finished_) fail("finish() called twice");
  record(RecordType::kEnd, records_, std::span<const unsigned char>{});
  finished_ = true;
  out_.flush();
  if (!out_) fail("write failed");
}

Reader::Reader(std::istream& in) : in_(in) {
  unsigned char header[sizeof(kMagic) + 4];
  read_bytes(in_, header, sizeof(header));
  if (std::memcmp(header, kMagic, sizeof(kMagic)) != 0) {
    fail("bad magic (not a checkpoint journal)");
  }
  std::uint32_t version = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    version |= static_cast<std::uint32_t>(header[sizeof(kMagic) + i])
               << (8 * i);
  }
  if (version != kVersion) {
    fail("unsupported journal version " + std::to_string(version));
  }
}

std::optional<Reader::Record> Reader::next() {
  if (done_) return std::nullopt;
  std::vector<unsigned char> frame(kFrameHeaderBytes);
  read_bytes(in_, frame.data(), kFrameHeaderBytes);
  std::uint64_t len = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    len |= static_cast<std::uint64_t>(frame[4 + i]) << (8 * i);
  }
  if (len > kMaxPayloadBytes) fail("record payload length implausible");
  frame.resize(kFrameHeaderBytes + static_cast<std::size_t>(len));
  read_bytes(in_, frame.data() + kFrameHeaderBytes,
             static_cast<std::size_t>(len));
  unsigned char crc_bytes[4];
  read_bytes(in_, crc_bytes, 4);
  std::uint32_t stored = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    stored |= static_cast<std::uint32_t>(crc_bytes[i]) << (8 * i);
  }
  if (crc32(frame) != stored) fail("CRC mismatch (corrupt record)");

  Record rec;
  rec.type = static_cast<RecordType>(static_cast<std::uint16_t>(frame[0]) |
                                     (static_cast<std::uint16_t>(frame[1])
                                      << 8));
  rec.index = static_cast<std::uint16_t>(static_cast<std::uint16_t>(frame[2]) |
                                         (static_cast<std::uint16_t>(frame[3])
                                          << 8));
  rec.payload.assign(frame.begin() + kFrameHeaderBytes, frame.end());

  if (rec.type == RecordType::kEnd) {
    if (rec.index != records_) {
      fail("record count mismatch (journal truncated or spliced)");
    }
    done_ = true;
    return std::nullopt;
  }
  ++records_;
  return rec;
}

}  // namespace spdkfac::core::journal

namespace spdkfac::core {

namespace {

void put_timing(journal::Payload& p, const sched::PassTiming& t) {
  p.put_u64(t.a_ready.size());
  p.put_f64s(t.a_ready);
  p.put_u64(t.g_ready.size());
  p.put_f64s(t.g_ready);
  p.put_u64(t.grad_ready.size());
  p.put_f64s(t.grad_ready);
  p.put_f64(t.backward_end);
}

sched::PassTiming get_timing(journal::PayloadView& v) {
  sched::PassTiming t;
  t.a_ready = v.get_f64s(static_cast<std::size_t>(v.get_u64()));
  t.g_ready = v.get_f64s(static_cast<std::size_t>(v.get_u64()));
  t.grad_ready = v.get_f64s(static_cast<std::size_t>(v.get_u64()));
  t.backward_end = v.get_f64();
  return t;
}

}  // namespace

void DistKfacOptimizer::save_checkpoint(std::ostream& out) const {
  using journal::Payload;
  using journal::RecordType;
  if (hooked_active_) {
    throw std::logic_error(
        "save_checkpoint: a hooked step is in flight; checkpoint between "
        "steps");
  }
  const std::size_t L = layers_.size();
  journal::Writer writer(out);

  Payload meta;
  meta.put_u64(static_cast<std::uint64_t>(comm_.size()));
  meta.put_u64(L);
  meta.put_u64(static_cast<std::uint64_t>(options_.strategy));
  meta.put_u64(step_count_);
  meta.put_u64(replan_count_);
  meta.put_u64(replan_epoch_);
  meta.put_u64(next_replan_step_);
  meta.put_u64(profiled_timing_ ? 1 : 0);
  writer.record(RecordType::kMeta, 0, meta);

  for (std::size_t l = 0; l < L; ++l) {
    const auto idx = static_cast<std::uint16_t>(l);
    Payload w, a, g, ai, gi;
    w.put_matrix(layers_[l]->weight());
    writer.record(RecordType::kWeights, idx, w);
    a.put_matrix(state_[l].a);
    writer.record(RecordType::kFactorA, idx, a);
    g.put_matrix(state_[l].g);
    writer.record(RecordType::kFactorG, idx, g);
    ai.put_matrix(state_[l].a_chol);
    writer.record(RecordType::kInverseA, idx, ai);
    gi.put_matrix(state_[l].g_chol);
    writer.record(RecordType::kInverseG, idx, gi);
  }

  // Error-feedback residuals exist only once a top-k gradient step ran;
  // checkpoints without them restore to zeroed residuals (same state a
  // fresh optimizer starts from), so they need no format version of their
  // own.
  for (std::size_t l = 0; l < grad_residuals_.size(); ++l) {
    Payload r;
    r.put_u64(grad_residuals_[l].size());
    r.put_f64s(grad_residuals_[l]);
    writer.record(RecordType::kGradResidual, static_cast<std::uint16_t>(l), r);
  }

  Payload holders;
  holders.put_u64(static_cast<std::uint64_t>(comm_.rank()));
  for (const std::int64_t holder : inverse_holder_) {
    holders.put_u64(static_cast<std::uint64_t>(holder));
  }
  writer.record(RecordType::kInverseHolders, 0, holders);

  const std::vector<double> prof = profiler_.serialize();
  Payload p;
  p.put_u64(prof.size());
  p.put_f64s(prof);
  writer.record(RecordType::kProfiler, 0, p);

  Payload t;
  put_timing(t, current_timing_);
  writer.record(RecordType::kTiming, 0, t);

  writer.finish();
}

void DistKfacOptimizer::restore_checkpoint(std::istream& in) {
  using journal::RecordType;
  if (hooked_active_) {
    throw std::logic_error(
        "restore_checkpoint: a hooked step is in flight; restore between "
        "steps");
  }
  const std::size_t L = layers_.size();
  journal::Reader reader(in);

  // Stage everything, validate, then commit — a journal that fails halfway
  // through (CRC, shape mismatch) must leave the optimizer untouched.
  bool have_meta = false, have_profiler = false, have_timing = false;
  std::vector<bool> have_weights(L, false), have_factors(L, false);
  std::vector<tensor::Matrix> weights(L), fa(L), fg(L), ia(L), ig(L);
  std::vector<std::vector<double>> residuals(L);
  bool have_residuals = false;
  std::vector<double> prof;
  sched::PassTiming timing;
  std::uint64_t meta_steps = 0, meta_replans = 0, meta_epoch = 0,
                meta_next_replan = 0, meta_world = 0;
  bool meta_profiled = false;
  std::vector<int> holders(L, -1);
  std::int64_t saver_rank = -1;

  while (auto rec = reader.next()) {
    auto view = rec->view();
    switch (rec->type) {
      case RecordType::kMeta: {
        // Restoring at a different P is the elastic-restart path; the saved
        // P only decides whether owned layers' inverses stay usable.
        meta_world = view.get_u64();
        const std::uint64_t layers = view.get_u64();
        if (layers != L) {
          throw std::runtime_error(
              "restore_checkpoint: layer count mismatch (checkpoint has " +
              std::to_string(layers) + ", model has " + std::to_string(L) +
              ")");
        }
        const auto strategy = static_cast<DistStrategy>(view.get_u64());
        if (strategy != options_.strategy) {
          throw std::runtime_error(
              "restore_checkpoint: strategy mismatch (checkpoint: " +
              std::string(to_string(strategy)) +
              ", optimizer: " + std::string(to_string(options_.strategy)) +
              ")");
        }
        meta_steps = view.get_u64();
        meta_replans = view.get_u64();
        meta_epoch = view.get_u64();
        meta_next_replan = view.get_u64();
        meta_profiled = view.get_u64() != 0;
        have_meta = true;
        break;
      }
      case RecordType::kWeights:
      case RecordType::kFactorA:
      case RecordType::kFactorG:
      case RecordType::kInverseA:
      case RecordType::kInverseG: {
        if (rec->index >= L) {
          throw std::runtime_error("restore_checkpoint: record for layer " +
                                   std::to_string(rec->index) + " of an " +
                                   std::to_string(L) + "-layer model");
        }
        tensor::Matrix m = view.get_matrix();
        if (rec->type == RecordType::kWeights) {
          const tensor::Matrix& w = layers_[rec->index]->weight();
          if (m.rows() != w.rows() || m.cols() != w.cols()) {
            throw std::runtime_error(
                "restore_checkpoint: weight shape mismatch at layer " +
                std::to_string(rec->index));
          }
          weights[rec->index] = std::move(m);
          have_weights[rec->index] = true;
        } else if (rec->type == RecordType::kFactorA) {
          fa[rec->index] = std::move(m);
          have_factors[rec->index] = true;
        } else if (rec->type == RecordType::kFactorG) {
          fg[rec->index] = std::move(m);
        } else if (rec->type == RecordType::kInverseA) {
          ia[rec->index] = std::move(m);
        } else {
          ig[rec->index] = std::move(m);
        }
        break;
      }
      case RecordType::kGradResidual: {
        if (rec->index >= L) {
          throw std::runtime_error(
              "restore_checkpoint: residual record for layer " +
              std::to_string(rec->index) + " of an " + std::to_string(L) +
              "-layer model");
        }
        const std::size_t n = static_cast<std::size_t>(view.get_u64());
        if (n != layers_[rec->index]->weight_grad().size()) {
          throw std::runtime_error(
              "restore_checkpoint: residual size mismatch at layer " +
              std::to_string(rec->index));
        }
        residuals[rec->index] = view.get_f64s(n);
        have_residuals = true;
        break;
      }
      case RecordType::kInverseHolders:
        saver_rank = static_cast<std::int64_t>(view.get_u64());
        for (std::size_t l = 0; l < L; ++l) {
          holders[l] = static_cast<int>(
              static_cast<std::int64_t>(view.get_u64()));
        }
        break;
      case RecordType::kProfiler:
        prof = view.get_f64s(static_cast<std::size_t>(view.get_u64()));
        have_profiler = true;
        break;
      case RecordType::kTiming:
        timing = get_timing(view);
        have_timing = true;
        break;
      case RecordType::kEnd:
        break;  // consumed by the reader; unreachable
    }
  }

  if (!have_meta || !have_profiler || !have_timing) {
    throw std::runtime_error("restore_checkpoint: journal missing records");
  }
  for (std::size_t l = 0; l < L; ++l) {
    if (!have_weights[l] || !have_factors[l]) {
      throw std::runtime_error("restore_checkpoint: journal missing layer " +
                               std::to_string(l));
    }
  }

  // Commit.  The profiler restore validates its own vector size first, so
  // it stays in the all-or-nothing window.
  profiler_.restore(prof);
  for (std::size_t l = 0; l < L; ++l) {
    layers_[l]->weight() = std::move(weights[l]);
    state_[l].a = std::move(fa[l]);
    state_[l].g = std::move(fg[l]);
    state_[l].a_chol = std::move(ia[l]);
    state_[l].g_chol = std::move(ig[l]);
  }
  if (have_residuals) {
    ensure_grad_residuals();
    for (std::size_t l = 0; l < L; ++l) {
      if (residuals[l].size() == grad_residuals_[l].size()) {
        std::copy(residuals[l].begin(), residuals[l].end(),
                  grad_residuals_[l].begin());
      } else {  // layer absent from the journal: nothing accumulated yet
        std::fill(grad_residuals_[l].begin(), grad_residuals_[l].end(), 0.0);
      }
    }
  } else {
    // A pre-compression (or lossless-run) checkpoint carries no residuals;
    // whatever this incarnation accumulated belongs to a different history.
    for (std::span<double> r : grad_residuals_) {
      std::fill(r.begin(), r.end(), 0.0);
    }
  }
  step_count_ = static_cast<std::size_t>(meta_steps);
  replan_count_ = static_cast<std::size_t>(meta_replans);
  replan_epoch_ = static_cast<std::size_t>(meta_epoch);
  next_replan_step_ = static_cast<std::size_t>(meta_next_replan);
  profiled_timing_ = meta_profiled;
  current_timing_ = std::move(timing);
  // A layer owner's inverses are current only in its own journal, and only
  // at the world size that placed the layer.  Replicated ones are the same
  // in every rank's journal.
  const bool own_journal =
      saver_rank == comm_.rank() &&
      meta_world == static_cast<std::uint64_t>(comm_.size());
  for (std::size_t l = 0; l < L; ++l) {
    inverse_holder_[l] = (holders[l] == -1 || own_journal) ? holders[l] : -2;
  }
  restore_check_pending_ = true;
  // Memoized plans were built from the timing just replaced; the next step
  // re-plans from the restored one.
  plan_cache_.clear();
  // A restored optimizer is a fresh start: the failure that motivated the
  // restore belonged to the previous incarnation's cluster.
  failed_ = false;
  backward_events_ = 0;
}

}  // namespace spdkfac::core
