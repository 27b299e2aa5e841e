// Driver-agnostic replicated-log pumping.
//
// ReplicatedLog::pump used to be welded to SimDriver: it spawned proposers,
// then *blocked* inside driver.run_for until the slot decided. A live
// runtime (svc::WorkerPool stepping executors on real threads) cannot block
// like that — the thread that notices a decision is the same thread that
// must keep stepping the proposers. So the slot mechanics are factored out
// here into an *incremental* state machine:
//
//   * PumpHost — the seam between the pump and whatever executes tasks.
//     The simulator implements it with SimDriver::add_app_task; the live
//     service implements it with ProcExecutor::add_app_task on the group's
//     executors (see smr::LogGroup).
//   * LogPump  — owns the slot cursors. Each tick() harvests decided slots
//     *in slot order* (the log order) and keeps up to `window` slots in
//     flight, pulling commands from a supplier for each new slot.
//     Pipelining is safe because the log order is the slot order, not the
//     decision order: slot s+1 may decide before slot s, but it is not
//     *applied* until s has been.
//
// Batching (group commit): one consensus round per *command* caps the log
// at the slot rate, so a slot may instead decide a whole batch. The
// supplier drains up to `max_batch` commands into a BatchBuffer row (a
// shared spill region declared next to the log's registers — all replicas
// see it, as everything in the paper's shared-memory model), and the slot's
// proposers agree on the packed descriptor (count, sealer) instead of the
// command itself. Harvest decodes the descriptor, validates the row's seal
// against the buffer, and expands the batch back into per-command commits
// in FIFO order. With max_batch == 1 no buffer is touched and the proposed
// value IS the command — byte-for-byte the unbatched pump.
//
// Multi-process operation (registers/mirror.h): replicas of a group can be
// split across OS processes, each process pumping only the replicas it
// hosts. Three pump mechanics exist for that deployment and are inert in
// single-process use:
//
//   * Observer harvest — a slot may decide without this pump ever starting
//     it (another node's pump sealed and drove it). Harvest probes the
//     decision boards past `started_` and fast-forwards the cursors, so a
//     follower applies the leader's slots in order.
//   * Per-sealer row banks — the descriptor names the *sealer* (the
//     replica whose node sealed the batch), and each sealer owns a
//     private bank of spill rows. Competing sealers (the failover window:
//     a new leader takes over while the dead leader's last batches are
//     still in flight) therefore never overwrite each other's payloads.
//     The sealer pokes a row's commands first and its *seal cell* (slot +
//     checksum) last — a mirror that can see a decided descriptor over a
//     FIFO push stream already has the matching rows, and a seal naming
//     the wrong slot exposes ring reuse instead of silently misreading.
//   * Local-seal ledger + re-proposal — the pump records each batch it
//     seals (slot, descriptor, commands, supplier ticket). A slot that
//     decides *against* the local seal (the other sealer won) re-proposes
//     the displaced batch at the next free slot, exactly once; commits
//     report whether they were locally sealed (and under which ticket) so
//     the intake layer acknowledges exactly its own commands.
//   * Adoption — a leader with nothing of its own to seal proposes the
//     batch another sealer already sealed for its next slot (a deposed
//     leader's in-flight batch), so the clients waiting on it get their
//     answer without waiting for the next append. A short batch's row
//     ends in a zero command, so the count is recoverable from the row.
//
// Flush policy is adaptive by construction: a slot is proposed as soon as
// the window has room and *anything* is pending (no wait to fill a batch),
// so batching is latency-neutral at low load; while every window slot is
// in flight, arrivals accumulate in the supplier and the next free slot
// drains up to max_batch of them at once.
//
// Forwarding, as in leader-based SMR: every live replica proposes the same
// value for a slot (the supplier's choice), and whichever process Ω has
// elected drives it to decision. Because all proposers of a slot propose
// the same value, the slot always decides the value assigned to it, and
// commits therefore pop the supplier's commands in FIFO order — except
// across a sealer change, where the re-proposal ledger above takes over.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "consensus/replicated_log.h"
#include "obs/metrics.h"

namespace omega {

/// "No command pending" sentinel for the pump's command supplier.
inline constexpr std::uint64_t kNoCommand = 0;

/// Hard cap on commands per slot: the descriptor packs the count into 7
/// bits next to a 6-bit sealer id, keeping every descriptor inside the
/// 16-bit consensus value range (and distinct from kLogNoOp).
inline constexpr std::uint32_t kMaxBatchCommands = 127;

/// Packs a batch descriptor for a slot: count in the low 7 bits, the
/// sealer's replica id above it. The result is in [1, 8191] ⊂ [1, kLogNoOp).
/// The payload integrity check lives in the row's seal cell, not here.
std::uint64_t encode_batch_descriptor(std::uint32_t count, ProcessId sealer);
void decode_batch_descriptor(std::uint64_t descriptor, std::uint32_t& count,
                             ProcessId& sealer);

/// Order-sensitive 32-bit fold of a batch's commands; corruption tripwire
/// for the buffer-descriptor pairing (stored in the row's seal cell).
std::uint32_t batch_checksum(const std::uint64_t* cmds, std::uint32_t count);

/// Seal-cell packing: slot+1 in the high half (0 = never sealed), the
/// batch checksum in the low half.
std::uint64_t pack_seal(std::uint32_t slot, std::uint32_t checksum);
/// Slot a seal names (or kNoSealedSlot when the cell was never sealed).
inline constexpr std::uint64_t kNoSealedSlot = ~std::uint64_t{0};
std::uint64_t seal_slot(std::uint64_t seal);
std::uint32_t seal_checksum(std::uint64_t seal);

/// Execution seam: where the pump's proposer coroutines run. All calls are
/// made from the pump owner's thread (the sim loop, or the owning shard
/// worker in the live service). In a multi-process deployment live()
/// answers false for replicas hosted elsewhere, so proposers only ever
/// spawn on local execution streams.
class PumpHost {
 public:
  virtual ~PumpHost() = default;

  /// Replica count of the group (== the log's n).
  virtual std::uint32_t n() const = 0;

  /// Whether replica `i` can currently execute steps here (hosted locally
  /// and not crashed/halted).
  virtual bool live(ProcessId i) const = 0;

  /// Hands a proposer coroutine to replica `i`'s execution stream.
  virtual void spawn(ProcessId i, ProcTask task) = 0;

  /// The memory the log's registers live in (for decision-board reads).
  virtual MemoryBackend& memory() = 0;
};

/// Pull seam between the pump and the command intake: moves up to `max`
/// pending commands (FIFO, each in [1, kLogNoOp)) into `out` — appended,
/// not replaced — and returns how many it moved. Returning fewer than
/// `max` (including 0) simply seals a smaller batch; it does not end the
/// stream. `ticket` is an opaque tag the supplier may set per batch; the
/// pump echoes it on the batch's commits (and keeps it across
/// re-proposals) so a supplier with per-batch bookkeeping can match
/// acknowledgements without relying on global FIFO order. `traces` must
/// receive one v1.4 trace id per command appended to `out` (0 for
/// untraced commands); the pump stamps them into the spill row and onto
/// the batch's commits.
class BatchSource {
 public:
  virtual ~BatchSource() = default;
  virtual std::uint32_t pull(std::uint32_t max, std::vector<std::uint64_t>& out,
                             std::uint64_t& ticket,
                             std::vector<std::uint64_t>& traces) = 0;
};

/// The per-slot batch spill: `banks` independent rings (one per potential
/// sealer) of `rows` rows, each row holding one seal cell followed by
/// `cols` commands and `cols` trace-id cells, living in the group's
/// shared memory (slot s uses row s % rows of the sealer's bank). Row
/// reuse is safe once rows >= the pump window: a row is only overwritten
/// `rows` slots later, and by then its slot has been harvested locally;
/// mirrors additionally verify the seal's slot stamp. Accessed
/// uninstrumented (peek/poke) by the pump owner thread only — the
/// descriptor, not the buffer, is what consensus orders — but pokes
/// still reach the write observer, so rows replicate to mirrors in poke
/// order (commands, then traces, then seal). Trace cells carry the v1.4
/// per-command trace ids across the mirror: best-effort forensics, NOT
/// covered by the row checksum — consensus never depends on them.
class BatchBuffer {
 public:
  BatchBuffer(std::string tag, std::uint32_t banks, std::uint32_t rows,
              std::uint32_t cols);

  /// Declares the "<tag>BAT" spill group; call from the LayoutExtension.
  void declare(LayoutBuilder& b);
  /// Resolves the group to concrete cells once the layout is built.
  void bind(const Layout& layout);

  std::uint32_t banks() const noexcept { return banks_; }
  std::uint32_t rows() const noexcept { return rows_; }
  std::uint32_t cols() const noexcept { return cols_; }

  void store_cmd(MemoryBackend& mem, std::uint32_t bank, std::uint32_t row,
                 std::uint32_t col, std::uint64_t v) const;
  std::uint64_t load_cmd(MemoryBackend& mem, std::uint32_t bank,
                         std::uint32_t row, std::uint32_t col) const;
  void store_seal(MemoryBackend& mem, std::uint32_t bank, std::uint32_t row,
                  std::uint64_t seal) const;
  std::uint64_t load_seal(MemoryBackend& mem, std::uint32_t bank,
                          std::uint32_t row) const;
  void store_trace(MemoryBackend& mem, std::uint32_t bank, std::uint32_t row,
                   std::uint32_t col, std::uint64_t trace) const;
  std::uint64_t load_trace(MemoryBackend& mem, std::uint32_t bank,
                           std::uint32_t row, std::uint32_t col) const;

 private:
  static constexpr std::uint32_t kNoBase = 0xFFFFFFFFu;

  std::uint32_t cell_index(std::uint32_t bank, std::uint32_t row,
                           std::uint32_t col) const;

  std::string tag_;
  std::uint32_t banks_;
  std::uint32_t rows_;
  std::uint32_t cols_;
  bool declared_ = false;
  std::uint32_t base_ = kNoBase;  ///< flat cell index of bank 0, row 0
};

/// Batch configuration. max_batch == 1 (the default) proposes raw
/// commands and needs no buffer; max_batch > 1 requires a bound
/// BatchBuffer with cols >= max_batch, rows >= the pump window and
/// banks > sealer. `sealer` is the replica id this pump seals under —
/// the lowest locally-hosted replica by convention (0 in single-process
/// deployments). (Namespace-scope so it can be a default argument below;
/// addressed as LogPump::BatchPolicy by callers.)
struct PumpBatchPolicy {
  std::uint32_t max_batch = 1;
  const BatchBuffer* buffer = nullptr;
  ProcessId sealer = 0;
};

class LogPump {
 public:
  struct Commit {
    std::uint32_t slot = 0;
    std::uint64_t value = 0;  ///< the command (batches arrive expanded)
    /// Sealed by this pump: the supplier's commands of `ticket` committed
    /// here. False for slots sealed by another process's pump.
    bool local = true;
    std::uint64_t ticket = 0;  ///< supplier's tag for local commits
    /// v1.4 trace id of the command (0 = untraced). Local commits carry
    /// the supplier's id; remote ones what the spill row's trace cells
    /// held (best-effort — 0 when the mirror has not delivered them).
    std::uint64_t trace = 0;
  };

  using BatchPolicy = PumpBatchPolicy;

  /// `window` — how many slots may be in flight (spawned, not yet
  /// harvested) at once. 1 reproduces the strictly sequential pump; the
  /// live service pipelines (16..64) to overlap consensus rounds.
  LogPump(ReplicatedLog& log, PumpHost& host, std::uint32_t window = 1,
          BatchPolicy batch = {});

  LogPump(const LogPump&) = delete;
  LogPump& operator=(const LogPump&) = delete;

  /// One pump step. Appends the commands of newly decided slots (in slot
  /// order, batches expanded FIFO) to `commits` and returns how many were
  /// appended; then, while the window has room, capacity remains and the
  /// next slot is below `seal_limit`, re-proposes displaced batches and
  /// drains up to max_batch commands per new slot from `source`, spawning
  /// one proposer per live replica. Never blocks. `repush_remote` re-pokes
  /// the payload of remote-sealed slots as they are harvested (commands,
  /// then seal), so a node taking over leadership re-publishes adopted
  /// batches onto its own push stream for mirrors whose stream from the
  /// dead sealer was cut short. `seal_limit` is the multi-process
  /// sealing bound: a node that does not lead starts no slot (0), and a
  /// leader starts none a live mirror could not read back from the ring.
  std::uint32_t tick(BatchSource& source, std::vector<Commit>& commits,
                     bool repush_remote = false,
                     std::uint32_t seal_limit = kNoSealLimit);

  /// tick()'s default: no bound beyond the window and the capacity.
  static constexpr std::uint32_t kNoSealLimit = ~std::uint32_t{0};

  /// Gives up every displaced batch still waiting for re-proposal:
  /// appends their supplier tickets to `tickets` and forgets them. For a
  /// node that no longer leads — its batches lost their slots, so none of
  /// them is in the log, and the supplier answers their commands instead
  /// of letting them wait for a leadership that went elsewhere.
  void drop_resubmits(std::vector<std::uint64_t>& tickets);

  /// Single-command convenience: `supply` returns one command (kNoCommand
  /// when nothing is pending). Requires max_batch == 1.
  std::uint32_t tick(const std::function<std::uint64_t()>& supply,
                     std::vector<Commit>& commits);

  /// Crash-restart recovery: moves both cursors past an already-applied
  /// prefix recovered from the WAL, so the pump neither re-proposes nor
  /// re-harvests those slots (the applied values came back through the
  /// replay, not through tick()). Call once, before the first tick, on a
  /// pump that has done nothing yet.
  void fast_forward(std::uint32_t next_slot);

  /// Slots harvested so far (== the next slot to be applied).
  std::uint32_t committed() const noexcept { return committed_; }
  /// Slots started so far (== the next slot to be assigned a command).
  std::uint32_t started() const noexcept { return started_; }
  std::uint32_t in_flight() const noexcept { return started_ - committed_; }
  std::uint32_t max_batch() const noexcept { return batch_.max_batch; }
  /// True once every slot has been assigned; further commands can never be
  /// placed and should be rejected upstream.
  bool exhausted() const noexcept { return started_ == log_.capacity(); }
  /// Batches displaced by another sealer, waiting to be re-proposed.
  std::size_t resubmit_pending() const noexcept { return resubmit_.size(); }
  /// Harvest stalls: a decided slot whose payload was not yet visible in
  /// this process's mirror (retried next tick; nonzero only multi-process).
  std::uint64_t payload_stalls() const noexcept { return payload_stalls_; }

 private:
  /// One batch this pump sealed (or wants to re-propose).
  struct Seal {
    std::uint32_t slot = 0;
    std::uint64_t value = 0;  ///< proposed value (descriptor or raw command)
    std::uint64_t ticket = 0;
    std::vector<std::uint64_t> cmds;
    std::vector<std::uint64_t> traces;  ///< per-command trace ids
    /// Seal time; harvest records seal -> decide into smr.seal_to_decide_ns
    /// (kept across re-proposals, so a displaced batch's latency spans the
    /// failover it survived).
    std::int64_t sealed_ns = 0;
  };

  /// Spawns slot `s`'s proposers (one per live replica) for `value`.
  void propose(std::uint32_t s, std::uint64_t value);

  /// A batch another sealer sealed for slot `s`: its descriptor, recovered
  /// from that sealer's spill row (the count is the commands before the
  /// row's zero terminator, checked against the seal). False when no
  /// other bank holds an intact seal for `s`.
  bool foreign_batch(std::uint32_t s, std::uint64_t& descriptor);

  /// Reads slot `s`'s payload out of the spill row named by `descriptor`
  /// into scratch_. Returns false when the payload is not yet visible
  /// (mirror lag) — the caller stalls and retries next tick.
  bool read_payload(std::uint32_t s, std::uint64_t descriptor,
                    std::uint32_t& count, ProcessId& sealer);

  ReplicatedLog& log_;
  PumpHost& host_;
  const std::uint32_t window_;
  const BatchPolicy batch_;
  std::uint32_t committed_ = 0;
  std::uint32_t started_ = 0;
  std::uint64_t payload_stalls_ = 0;
  std::vector<std::uint64_t> scratch_;  ///< per-slot pull buffer
  std::vector<std::uint64_t> trace_scratch_;  ///< per-slot trace ids
  std::deque<Seal> local_seals_;        ///< in-flight batches this pump sealed
  std::deque<Seal> resubmit_;           ///< displaced batches to re-propose

  /// obs instruments, resolved once at construction (tick never touches
  /// the registry lock).
  obs::Histogram* seal_to_decide_hist_ = nullptr;  ///< smr.seal_to_decide_ns
  obs::Counter* failover_ctr_ = nullptr;  ///< smr.failover_tickets
};

/// PumpHost over the discrete-event simulator (SimDriver comes in via
/// replicated_log.h): proposers become app tasks of the simulated
/// processes; liveness follows the crash plan. Used by
/// ReplicatedLog::pump and by tests that drive a LogPump directly.
class SimPumpHost final : public PumpHost {
 public:
  explicit SimPumpHost(SimDriver& driver) : driver_(driver) {}

  std::uint32_t n() const override { return driver_.n(); }
  bool live(ProcessId i) const override {
    return !driver_.plan().crashed_by(i, driver_.now());
  }
  void spawn(ProcessId i, ProcTask task) override {
    driver_.add_app_task(i, std::move(task));
  }
  MemoryBackend& memory() override { return driver_.memory(); }

 private:
  SimDriver& driver_;
};

}  // namespace omega
