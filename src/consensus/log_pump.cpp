#include "consensus/log_pump.h"

#include <chrono>

#include "obs/flight_recorder.h"

namespace omega {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Descriptor layout: bit 0..6 count, bit 7..12 sealer replica id.
constexpr std::uint64_t kCountBits = 7;
constexpr std::uint64_t kCountMask = (1u << kCountBits) - 1;
constexpr std::uint64_t kSealerBits = 6;
constexpr std::uint64_t kSealerMask = (1u << kSealerBits) - 1;

/// Bounded seqlock retries per harvest before stalling to the next tick.
constexpr int kPayloadReadAttempts = 4;

}  // namespace

std::uint64_t encode_batch_descriptor(std::uint32_t count, ProcessId sealer) {
  OMEGA_CHECK(count >= 1 && count <= kMaxBatchCommands,
              "batch count " << count << " out of range");
  OMEGA_CHECK(sealer <= kSealerMask, "sealer " << sealer << " out of range");
  return (static_cast<std::uint64_t>(sealer) << kCountBits) | count;
}

void decode_batch_descriptor(std::uint64_t descriptor, std::uint32_t& count,
                             ProcessId& sealer) {
  count = static_cast<std::uint32_t>(descriptor & kCountMask);
  sealer = static_cast<ProcessId>((descriptor >> kCountBits) & kSealerMask);
  OMEGA_CHECK(count >= 1 && descriptor < kLogNoOp &&
                  (descriptor >> (kCountBits + kSealerBits)) == 0,
              "malformed batch descriptor " << descriptor);
}

std::uint32_t batch_checksum(const std::uint64_t* cmds, std::uint32_t count) {
  // Order-sensitive so a rotated/reordered buffer row is caught too.
  std::uint32_t acc = 0x811C9DC5u;  // FNV-1a style fold
  for (std::uint32_t i = 0; i < count; ++i) {
    acc = (acc ^ static_cast<std::uint32_t>(cmds[i] & 0xFFFF)) * 0x01000193u;
    acc = (acc ^ (acc >> 15)) + 1;
  }
  return acc;
}

std::uint64_t pack_seal(std::uint32_t slot, std::uint32_t checksum) {
  return (static_cast<std::uint64_t>(slot) + 1) << 32 | checksum;
}

std::uint64_t seal_slot(std::uint64_t seal) {
  const std::uint64_t hi = seal >> 32;
  return hi == 0 ? kNoSealedSlot : hi - 1;
}

std::uint32_t seal_checksum(std::uint64_t seal) {
  return static_cast<std::uint32_t>(seal);
}

BatchBuffer::BatchBuffer(std::string tag, std::uint32_t banks,
                         std::uint32_t rows, std::uint32_t cols)
    : tag_(std::move(tag)), banks_(banks), rows_(rows), cols_(cols) {
  OMEGA_CHECK(banks_ >= 1 && rows_ >= 1 && cols_ >= 1,
              "empty batch buffer " << tag_);
  OMEGA_CHECK(cols_ <= kMaxBatchCommands,
              "batch buffer " << tag_ << " cols " << cols_
                              << " exceed the descriptor's count range");
}

void BatchBuffer::declare(LayoutBuilder& b) {
  OMEGA_CHECK(!declared_, "batch buffer " << tag_ << " declared twice");
  // One matrix row per (bank, ring row); column 0 is the seal cell, the
  // commands follow, then one trace-id cell per command (v1.4). Keeping
  // it one group keeps the layout identical on every process of a
  // mirrored deployment by construction.
  b.add_buffer(tag_ + "BAT", banks_ * rows_, 1 + 2 * cols_);
  declared_ = true;
}

void BatchBuffer::bind(const Layout& layout) {
  OMEGA_CHECK(declared_, "bind before declare");
  GroupId g = 0;
  OMEGA_CHECK(layout.find_group(tag_ + "BAT", g),
              "layout is missing " << tag_ << "BAT");
  base_ = layout.cell(g, 0, 0).index;
}

std::uint32_t BatchBuffer::cell_index(std::uint32_t bank, std::uint32_t row,
                                      std::uint32_t col) const {
  OMEGA_CHECK(base_ != kNoBase, "batch buffer " << tag_ << " not bound");
  OMEGA_CHECK(bank < banks_ && row < rows_ && col < 1 + 2 * cols_,
              "batch cell out of range");
  return base_ + (bank * rows_ + row) * (1 + 2 * cols_) + col;
}

void BatchBuffer::store_cmd(MemoryBackend& mem, std::uint32_t bank,
                            std::uint32_t row, std::uint32_t col,
                            std::uint64_t v) const {
  mem.poke(Cell{cell_index(bank, row, 1 + col)}, v);
}

std::uint64_t BatchBuffer::load_cmd(MemoryBackend& mem, std::uint32_t bank,
                                    std::uint32_t row,
                                    std::uint32_t col) const {
  return mem.peek(Cell{cell_index(bank, row, 1 + col)});
}

void BatchBuffer::store_seal(MemoryBackend& mem, std::uint32_t bank,
                             std::uint32_t row, std::uint64_t seal) const {
  mem.poke(Cell{cell_index(bank, row, 0)}, seal);
}

std::uint64_t BatchBuffer::load_seal(MemoryBackend& mem, std::uint32_t bank,
                                     std::uint32_t row) const {
  return mem.peek(Cell{cell_index(bank, row, 0)});
}

void BatchBuffer::store_trace(MemoryBackend& mem, std::uint32_t bank,
                              std::uint32_t row, std::uint32_t col,
                              std::uint64_t trace) const {
  mem.poke(Cell{cell_index(bank, row, 1 + cols_ + col)}, trace);
}

std::uint64_t BatchBuffer::load_trace(MemoryBackend& mem, std::uint32_t bank,
                                      std::uint32_t row,
                                      std::uint32_t col) const {
  return mem.peek(Cell{cell_index(bank, row, 1 + cols_ + col)});
}

LogPump::LogPump(ReplicatedLog& log, PumpHost& host, std::uint32_t window,
                 BatchPolicy batch)
    : log_(log), host_(host), window_(window), batch_(batch) {
  OMEGA_CHECK(window_ >= 1, "pump window must be >= 1");
  OMEGA_CHECK(host_.n() == log_.n(), "host has " << host_.n()
                                                 << " replicas, log wants "
                                                 << log_.n());
  OMEGA_CHECK(batch_.max_batch >= 1 && batch_.max_batch <= kMaxBatchCommands,
              "max_batch " << batch_.max_batch << " out of range");
  if (batch_.max_batch > 1) {
    OMEGA_CHECK(batch_.buffer != nullptr,
                "batched pump needs a batch buffer");
    OMEGA_CHECK(batch_.buffer->cols() >= batch_.max_batch,
                "batch buffer holds " << batch_.buffer->cols()
                                      << " commands per row, max_batch is "
                                      << batch_.max_batch);
    // A row is reused `rows` slots later; with rows >= window the previous
    // tenant has always been harvested by then.
    OMEGA_CHECK(batch_.buffer->rows() >= window_,
                "batch ring of " << batch_.buffer->rows()
                                 << " rows cannot back a window of "
                                 << window_);
    OMEGA_CHECK(batch_.sealer < batch_.buffer->banks(),
                "sealer " << batch_.sealer << " has no bank in a "
                          << batch_.buffer->banks() << "-bank buffer");
    scratch_.reserve(batch_.max_batch);
  }
  seal_to_decide_hist_ = &obs::histogram("smr.seal_to_decide_ns");
  failover_ctr_ = &obs::counter("smr.failover_tickets");
}

void LogPump::fast_forward(std::uint32_t next_slot) {
  OMEGA_CHECK(committed_ == 0 && started_ == 0,
              "fast_forward on a pump that already ran (committed="
                  << committed_ << ", started=" << started_ << ")");
  OMEGA_CHECK(next_slot <= log_.capacity(),
              "fast_forward past capacity: " << next_slot << " > "
                                             << log_.capacity());
  committed_ = next_slot;
  started_ = next_slot;
}

bool LogPump::read_payload(std::uint32_t s, std::uint64_t descriptor,
                           std::uint32_t& count, ProcessId& sealer) {
  decode_batch_descriptor(descriptor, count, sealer);
  OMEGA_CHECK(count <= batch_.max_batch,
              "slot " << s << " decided a batch of " << count
                      << ", max_batch is " << batch_.max_batch);
  OMEGA_CHECK(sealer < batch_.buffer->banks(),
              "slot " << s << " decided sealer " << sealer
                      << ", buffer has " << batch_.buffer->banks()
                      << " banks");
  const std::uint32_t row = s % batch_.buffer->rows();
  MemoryBackend& mem = host_.memory();
  for (int attempt = 0; attempt < kPayloadReadAttempts; ++attempt) {
    const std::uint64_t seal = batch_.buffer->load_seal(mem, sealer, row);
    const std::uint64_t sealed_for = seal_slot(seal);
    if (sealed_for == kNoSealedSlot || sealed_for < s) {
      // The sealer's push stream has not delivered this row yet (the
      // decision became visible through another replica's board first).
      // FIFO streams guarantee it eventually will; stall this tick.
      return false;
    }
    OMEGA_CHECK(sealed_for == s,
                "slot " << s << ": spill row already reused for slot "
                        << sealed_for
                        << " — this mirror lagged past the ring");
    scratch_.clear();
    trace_scratch_.clear();
    for (std::uint32_t i = 0; i < count; ++i) {
      scratch_.push_back(batch_.buffer->load_cmd(mem, sealer, row, i));
    }
    // Trace cells ride the same seqlock window but are not checksummed:
    // a mirror that delivered the seal delivered them too (poke order),
    // and a torn id only degrades forensics, never correctness.
    for (std::uint32_t i = 0; i < count; ++i) {
      trace_scratch_.push_back(batch_.buffer->load_trace(mem, sealer, row, i));
    }
    // Re-read the seal: an in-flight push batch may have landed between
    // the loads (seqlock discipline); retry on movement or a checksum
    // mismatch — both mean "row application raced us", never corruption,
    // because a settled FIFO prefix containing the seal contains the rows.
    if (batch_.buffer->load_seal(mem, sealer, row) != seal) continue;
    if (batch_checksum(scratch_.data(), count) != seal_checksum(seal)) {
      continue;
    }
    return true;
  }
  return false;
}

void LogPump::propose(std::uint32_t s, std::uint64_t value) {
  for (ProcessId i = 0; i < host_.n(); ++i) {
    if (!host_.live(i)) continue;
    host_.spawn(i, log_.slot(s).proposer(i, value, [](std::uint64_t) {}));
  }
}

bool LogPump::foreign_batch(std::uint32_t s, std::uint64_t& descriptor) {
  if (batch_.max_batch == 1) return false;
  const BatchBuffer& buf = *batch_.buffer;
  const std::uint32_t row = s % buf.rows();
  MemoryBackend& mem = host_.memory();
  for (ProcessId bank = 0; bank < buf.banks(); ++bank) {
    if (bank == batch_.sealer) continue;
    const std::uint64_t seal = buf.load_seal(mem, bank, row);
    if (seal_slot(seal) != s) continue;
    scratch_.clear();
    for (std::uint32_t i = 0; i < buf.cols(); ++i) {
      const std::uint64_t cmd = buf.load_cmd(mem, bank, row, i);
      if (cmd == 0) break;
      scratch_.push_back(cmd);
    }
    const auto count = static_cast<std::uint32_t>(scratch_.size());
    // Same seqlock discipline as read_payload: the seal must not have
    // moved while the row was read, and the row must match it.
    if (count == 0 || count > batch_.max_batch ||
        buf.load_seal(mem, bank, row) != seal ||
        batch_checksum(scratch_.data(), count) != seal_checksum(seal)) {
      continue;
    }
    descriptor = encode_batch_descriptor(count, bank);
    return true;
  }
  return false;
}

void LogPump::drop_resubmits(std::vector<std::uint64_t>& tickets) {
  for (const Seal& seal : resubmit_) tickets.push_back(seal.ticket);
  resubmit_.clear();
}

std::uint32_t LogPump::tick(BatchSource& source, std::vector<Commit>& commits,
                            bool repush_remote, std::uint32_t seal_limit) {
  // 1. Harvest in slot order: a later slot may already be decided, but it
  // is not visible until every earlier slot is (log order = slot order).
  // The probe runs past started_ too — in a mirrored deployment another
  // process's pump may seal and decide slots this pump never started.
  std::uint32_t newly = 0;
  bool stalled = false;
  while (committed_ < log_.capacity() && !stalled) {
    const auto v = log_.decided(host_.memory(), committed_);
    if (!v.has_value()) break;
    const std::uint32_t s = committed_;
    if (!local_seals_.empty() && local_seals_.front().slot == s &&
        local_seals_.front().value == *v) {
      // This pump's batch decided: commit from the ledger (no payload
      // re-read — the sealed commands are authoritative by checksum).
      Seal& mine = local_seals_.front();
      if (mine.sealed_ns > 0) {
        const std::int64_t now = steady_ns();
        if (now > mine.sealed_ns) {
          seal_to_decide_hist_->record(
              static_cast<std::uint64_t>(now - mine.sealed_ns));
        }
      }
      obs::trace(obs::TraceEvent::kSlotDecide, s, mine.cmds.size(),
                 mine.traces.empty() ? 0 : mine.traces.front(),
                 mine.traces.empty() ? 0 : mine.traces.back());
      for (std::size_t i = 0; i < mine.cmds.size(); ++i) {
        commits.push_back(Commit{s, mine.cmds[i], true, mine.ticket,
                                 i < mine.traces.size() ? mine.traces[i]
                                                        : 0});
        ++newly;
      }
      local_seals_.pop_front();
      ++committed_;
      continue;
    }
    if (!local_seals_.empty() && local_seals_.front().slot == s) {
      // Decided against this pump's seal: another sealer won the slot
      // (failover contention). The displaced batch re-proposes at the
      // next free slot — exactly once, ledger entry moves wholesale.
      failover_ctr_->add();
      obs::trace(obs::TraceEvent::kFailoverTicket, s,
                 local_seals_.front().ticket);
      resubmit_.push_back(std::move(local_seals_.front()));
      local_seals_.pop_front();
    }
    // Remote-sealed slot (or a displaced one being read back).
    if (batch_.max_batch == 1) {
      obs::trace(obs::TraceEvent::kSlotDecide, s, 1);
      commits.push_back(Commit{s, *v, false, 0});
      ++newly;
      ++committed_;
      continue;
    }
    std::uint32_t count = 0;
    ProcessId sealer = kNoProcess;
    if (!read_payload(s, *v, count, sealer)) {
      ++payload_stalls_;
      stalled = true;
      break;
    }
    obs::trace(obs::TraceEvent::kSlotDecide, s, count,
               trace_scratch_.empty() ? 0 : trace_scratch_.front(),
               trace_scratch_.empty() ? 0 : trace_scratch_.back());
    for (std::uint32_t i = 0; i < count; ++i) {
      commits.push_back(Commit{s, scratch_[i], false, 0, trace_scratch_[i]});
      ++newly;
    }
    if (repush_remote && sealer != batch_.sealer) {
      // Adopted from a (possibly dead) sealer: re-publish the payload on
      // this process's own push stream — commands and traces first, seal
      // last, the same order every mirror relies on — so peers whose
      // stream from the original sealer was cut short still converge.
      const std::uint32_t row = s % batch_.buffer->rows();
      MemoryBackend& mem = host_.memory();
      for (std::uint32_t i = 0; i < count; ++i) {
        batch_.buffer->store_cmd(mem, sealer, row, i, scratch_[i]);
      }
      if (count < batch_.buffer->cols()) {
        batch_.buffer->store_cmd(mem, sealer, row, count, 0);
      }
      for (std::uint32_t i = 0; i < count; ++i) {
        batch_.buffer->store_trace(mem, sealer, row, i, trace_scratch_[i]);
      }
      batch_.buffer->store_seal(mem, sealer, row,
                                pack_seal(s, batch_checksum(scratch_.data(),
                                                            count)));
    }
    ++committed_;
  }
  if (committed_ > started_) started_ = committed_;

  // 2. Refill the window. A slot is only started when some replica is live
  // to drive it — with nobody live the commands would be parked in a slot
  // no proposer will ever finish, while leaving them with the supplier
  // lets them commit once replicas come back. Adaptive flush: the slot is
  // sealed with whatever is pending right now (1..max_batch commands) —
  // never waiting to fill up — so a lone command at low load pays no
  // batching delay, and a backlog under full windows drains max_batch per
  // freed slot. Displaced batches re-propose before fresh pulls.
  while (started_ < log_.capacity() && started_ < seal_limit &&
         started_ - committed_ < window_) {
    bool any_live = false;
    for (ProcessId i = 0; i < host_.n() && !any_live; ++i) {
      any_live = host_.live(i);
    }
    if (!any_live) break;
    Seal seal;
    if (!resubmit_.empty()) {
      seal = std::move(resubmit_.front());
      resubmit_.pop_front();
    } else {
      scratch_.clear();
      trace_scratch_.clear();
      seal.ticket = 0;
      const std::uint32_t count =
          source.pull(batch_.max_batch, scratch_, seal.ticket,
                      trace_scratch_);
      if (count == 0) {
        // Nothing of our own to seal. A batch another sealer sealed for
        // this slot (a deposed leader's in-flight batch) would otherwise
        // wait for our next append: drive it to decision ourselves.
        std::uint64_t foreign = 0;
        if (!foreign_batch(started_, foreign)) break;
        propose(started_, foreign);
        ++started_;
        continue;
      }
      OMEGA_CHECK(count <= batch_.max_batch && scratch_.size() == count,
                  "supplier returned " << count << "/" << scratch_.size()
                                       << " commands, max_batch is "
                                       << batch_.max_batch);
      trace_scratch_.resize(count, 0);  // tolerate trace-less suppliers
      seal.cmds = scratch_;
      seal.traces = trace_scratch_;
    }
    for (const std::uint64_t cmd : seal.cmds) {
      OMEGA_CHECK(cmd >= 1 && cmd < kLogNoOp,
                  "command " << cmd << " out of range");
    }
    const std::uint32_t count = static_cast<std::uint32_t>(seal.cmds.size());
    seal.traces.resize(count, 0);
    seal.slot = started_;
    if (seal.sealed_ns == 0) seal.sealed_ns = steady_ns();
    obs::trace(obs::TraceEvent::kBatchSeal, started_, count,
               seal.traces.front(), seal.traces.back());
    if (batch_.max_batch == 1) {
      seal.value = seal.cmds[0];
    } else {
      const std::uint32_t row = started_ % batch_.buffer->rows();
      for (std::uint32_t i = 0; i < count; ++i) {
        batch_.buffer->store_cmd(host_.memory(), batch_.sealer, row, i,
                                 seal.cmds[i]);
      }
      // A zero after a short batch lets another sealer's pump recover the
      // count from the row alone (foreign_batch).
      if (count < batch_.buffer->cols()) {
        batch_.buffer->store_cmd(host_.memory(), batch_.sealer, row, count, 0);
      }
      for (std::uint32_t i = 0; i < count; ++i) {
        batch_.buffer->store_trace(host_.memory(), batch_.sealer, row, i,
                                   seal.traces[i]);
      }
      // Seal after the rows: a FIFO mirror that can see the seal already
      // has the commands (and their trace ids).
      batch_.buffer->store_seal(
          host_.memory(), batch_.sealer, row,
          pack_seal(started_, batch_checksum(seal.cmds.data(), count)));
      // The seal poke is the moment the batch enters the mirror's push
      // stream — the kMirrorPush twin that knows the trace ids.
      obs::trace(obs::TraceEvent::kBatchPush, started_, count,
                 seal.traces.front(), seal.traces.back());
      seal.value = encode_batch_descriptor(count, batch_.sealer);
    }
    propose(started_, seal.value);
    local_seals_.push_back(std::move(seal));
    ++started_;
  }
  return newly;
}

namespace {

/// Adapts the single-command supplier to the batch seam (max == 1 always,
/// enforced by the wrapper tick below).
class FnSource final : public BatchSource {
 public:
  explicit FnSource(const std::function<std::uint64_t()>& supply)
      : supply_(supply) {}

  std::uint32_t pull(std::uint32_t /*max*/, std::vector<std::uint64_t>& out,
                     std::uint64_t& ticket,
                     std::vector<std::uint64_t>& traces) override {
    ticket = 0;
    const std::uint64_t cmd = supply_();
    if (cmd == kNoCommand) return 0;
    out.push_back(cmd);
    traces.push_back(0);
    return 1;
  }

 private:
  const std::function<std::uint64_t()>& supply_;
};

}  // namespace

std::uint32_t LogPump::tick(const std::function<std::uint64_t()>& supply,
                            std::vector<Commit>& commits) {
  OMEGA_CHECK(batch_.max_batch == 1,
              "single-command tick on a pump with max_batch "
                  << batch_.max_batch);
  FnSource source(supply);
  return tick(source, commits);
}

}  // namespace omega
