#include "smr/log_group.h"

#include <algorithm>
#include <chrono>

#include "obs/flight_recorder.h"

namespace omega::smr {

namespace {

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

ProcessId lowest_local(const SmrSpec& spec) {
  for (ProcessId p = 0; p < spec.n; ++p) {
    if (spec.is_local(p)) return p;
  }
  return 0;
}

std::uint32_t count_local(const SmrSpec& spec) {
  if (spec.local_mask == 0) return spec.n;
  std::uint32_t c = 0;
  for (ProcessId p = 0; p < spec.n; ++p) {
    if (spec.is_local(p)) ++c;
  }
  return c;
}

bool is_multi_node(const SmrSpec& spec) {
  if (spec.local_mask == 0) return false;
  for (ProcessId p = 0; p < spec.n; ++p) {
    if (!spec.is_local(p)) return true;
  }
  return false;
}

}  // namespace

LogGroup::LogGroup(svc::GroupId gid, const SmrSpec& spec, CommitHook hook)
    : gid_(gid),
      spec_(spec),
      multi_node_(is_multi_node(spec)),
      sealer_(lowest_local(spec)),
      log_(spec.n, spec.capacity),
      queue_(spec.max_pending, spec.session_ttl_us),
      source_(*this),
      hook_(std::move(hook)),
      lease_(spec.lease_ttl_us, spec.lease_skew_us),
      local_votes_(count_local(spec)) {
  OMEGA_CHECK(spec_.window >= 1 && spec_.window <= spec_.capacity,
              "bad pump window " << spec_.window);
  OMEGA_CHECK(!spec_.quorum_ack || spec_.wal != nullptr,
              "quorum_ack without a WAL: the local durability gate is the "
              "point");
  OMEGA_CHECK(spec_.max_batch >= 1 && spec_.max_batch <= kMaxBatchCommands,
              "bad max_batch " << spec_.max_batch);
  // Multi-node needs the descriptor to NAME its sealer (failover
  // contention resolves by sealer identity). A raw max_batch == 1
  // command carries no sealer, so two nodes sealing the same command
  // value for one slot would both claim it — batch mode is mandatory.
  OMEGA_CHECK(!multi_node_ || spec_.max_batch >= 2,
              "multi-node logs need max_batch >= 2 (the batch descriptor "
              "carries the sealer identity)");
  if (spec_.max_batch > 1) {
    // The ring must cover the pipelined window (see BatchBuffer's reuse
    // argument). Multi-node: one bank per potential sealer — competing
    // sealers never overwrite each other — plus slack rows so live
    // followers may trail the sealer by up to the apply-reach bound.
    const std::uint32_t banks = multi_node_ ? spec_.n : 1;
    const std::uint32_t rows =
        spec_.window + (multi_node_ ? spec_.ring_slack : 0);
    batch_.emplace("LOG", banks, rows, spec_.max_batch);
  }
  applied_.reserve(std::min<std::uint32_t>(spec_.capacity, 4096));
  // make_unique value-initializes: every key starts "never applied".
  applied_key_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(kKeySpace);
  apply_hist_ = &obs::histogram("smr.decide_to_apply_ns");
  commits_ctr_ = &obs::counter("smr.commits");
  watchdog_ctr_ = &obs::counter("smr.watchdog_fires");
  fence_wait_hist_ = &obs::histogram("smr.fence_wait_ns");
  lease_acq_ctr_ = &obs::counter("smr.lease.acquired");
  lease_drop_ctr_ = &obs::counter("smr.lease.dropped");
  reads_lease_ctr_ = &obs::counter("smr.reads.lease");
  reads_index_ctr_ = &obs::counter("smr.reads.index");
  reads_fallback_ctr_ = &obs::counter("smr.reads.fallback");
  reads_refused_ctr_ = &obs::counter("smr.reads.refused");
  obs::Registry& reg = obs::Registry::instance();
  gauge_ids_.push_back(reg.register_gauge("smr.queue_pending", [this] {
    return static_cast<std::int64_t>(queue_.stats().pending);
  }));
  gauge_ids_.push_back(reg.register_gauge("smr.queue_in_flight", [this] {
    return static_cast<std::int64_t>(queue_.stats().in_flight);
  }));
  gauge_ids_.push_back(reg.register_gauge("smr.sessions", [this] {
    return static_cast<std::int64_t>(queue_.stats().sessions);
  }));
  gauge_ids_.push_back(reg.register_gauge("smr.sessions_evicted", [this] {
    return static_cast<std::int64_t>(queue_.stats().evicted);
  }));
  gauge_ids_.push_back(reg.register_gauge("smr.lease_expected", [this] {
    return static_cast<std::int64_t>(
        lease_expected_pub_.load(std::memory_order_relaxed));
  }));
  gauge_ids_.push_back(reg.register_gauge("smr.lease_valid", [this] {
    return static_cast<std::int64_t>(
        lease_valid_snap_.load(std::memory_order_relaxed));
  }));
  gauge_ids_.push_back(reg.register_gauge("smr.read_waiters", [this] {
    return static_cast<std::int64_t>(
        waiters_size_.load(std::memory_order_relaxed));
  }));
}

LogGroup::~LogGroup() {
  for (const std::uint64_t id : gauge_ids_) {
    obs::Registry::instance().unregister_gauge(id);
  }
}

void LogGroup::attach(svc::Group& g) {
  OMEGA_CHECK(g.spec.n == spec_.n,
              "group n " << g.spec.n << " != log n " << spec_.n);
  log_.bind(g.inst.memory->layout());
  if (batch_.has_value()) batch_->bind(g.inst.memory->layout());
  {
    GroupId lease_grp = 0;
    const Layout& layout = g.inst.memory->layout();
    if (layout.find_group("LEASE", lease_grp)) {
      lease_hb_cell_ = layout.cell(lease_grp, kLeaseCellHb);
      lease_fence_cell_ = layout.cell(lease_grp, kLeaseCellFence);
      lease_cells_ok_ = true;
    }
    applied_cells_ok_ = layout.find_group("APPLIED", applied_grp_);
  }
  host_.g_ = &g;
  waker_.store(g.waker, std::memory_order_release);
  pump_ = std::make_unique<LogPump>(
      log_, host_, spec_.window,
      LogPump::BatchPolicy{spec_.max_batch,
                           batch_.has_value() ? &*batch_ : nullptr,
                           multi_node_ ? sealer_ : ProcessId{0}});
  if (spec_.wal != nullptr) {
    // Journal every durable-floor store by wrapping whatever observer is
    // already installed (the mirror-push observer in multi-node mode).
    // Installed AFTER the recovery pokes (SmrNode pokes in the memory
    // factory, which ran before attach), so replayed cells re-push to
    // mirrors but are not re-journaled.
    durable_floor_ = wal::durable_floor(g.inst.memory->layout());
    if (durable_floor_ != wal::kNoDurableFloor) {
      MemoryBackend::WriteObserver prev = g.inst.memory->write_observer();
      wal::Wal* const w = spec_.wal;
      const std::uint32_t floor = durable_floor_;
      const svc::GroupId gid = gid_;
      g.inst.memory->set_write_observer(
          [prev = std::move(prev), w, floor, gid](Cell c, std::uint64_t v) {
            if (c.index >= floor) w->append_cell(gid, c.index, v);
            if (prev) prev(c, v);
          });
    }
  }
  if (spec_.recovery && !spec_.recovery->applied.empty()) {
    // Crash-restart: the replayed applied prefix becomes the log's state
    // before the first sweep, and the pump resumes past it — recovered
    // slots are neither re-proposed nor re-harvested.
    {
      std::lock_guard<std::mutex> lock(applied_mu_);
      OMEGA_CHECK(applied_.empty(), "recovery into a non-empty log");
      applied_ = spec_.recovery->applied;
    }
    // Preseed the applied-key index from the recovered prefix (ascending,
    // so each key lands on its LATEST position).
    for (std::size_t i = 0; i < spec_.recovery->applied.size(); ++i) {
      const std::uint64_t v = spec_.recovery->applied[i];
      if (v < kKeySpace) {
        applied_key_[v].store(i + 1, std::memory_order_relaxed);
      }
    }
    commit_index_.store(spec_.recovery->applied.size(),
                        std::memory_order_release);
    pump_->fast_forward(spec_.recovery->next_slot);
  }
}

bool LogGroup::on_sweep(svc::Group& g, std::int64_t now_us) {
  OMEGA_CHECK(pump_ != nullptr && host_.g_ == &g, "on_sweep before attach");
  // Advance the queue's session clock *before* the harvest below stamps
  // committed sessions with it: on a group added to a long-running pool,
  // the first sweep's commits would otherwise be stamped with a stale (0)
  // clock and their retry windows would expire on the next scan. Entries
  // still queued or in flight are busy and never evicted regardless.
  queue_.evict_idle_sessions(now_us);
  {
    const std::uint64_t evicted = queue_.stats().evicted;
    if (evicted > last_evicted_) {
      obs::trace(obs::TraceEvent::kSessionEvict, gid_,
                 evicted - last_evicted_);
      last_evicted_ = evicted;
    }
  }
  // One cache load serves the sweep's gates AND the lease state machine
  // (single-node lease-enabled groups need the view too).
  const bool lease_on = spec_.lease_ttl_us > 0 && lease_cells_ok_;
  svc::LeaderView view{};
  if (multi_node_ || lease_on) view = g.cache.load();
  std::uint32_t seal_limit = LogPump::kNoSealLimit;
  if (multi_node_) {
    // Leadership and apply-reach gates, sampled once per sweep: only the
    // node hosting the agreed leader starts slots, and only as far as
    // every live follower can still read them back from the ring.
    leader_local_ =
        view.leader != kNoProcess && spec_.is_local(view.leader);
    seal_limit = leader_local_ ? reach_limit(g) : 0;
    if (leader_local_ && !was_leader_local_ &&
        last_remote_leader_ != kNoProcess) {
      // This node just took over from a distinct remote leader — the
      // failover window the flight recorder exists for. Dump the merged
      // trace now, while the takeover's ticket/reseal events are still
      // in the rings.
      obs::trace(obs::TraceEvent::kFailoverTicket, gid_,
                 last_remote_leader_);
      obs::dump_trace("failover");
    }
    was_leader_local_ = leader_local_;
    if (view.leader != kNoProcess && !leader_local_) {
      last_remote_leader_ = view.leader;
      answer_not_leader();
    }
  }
  scratch_.clear();
  const std::uint32_t started_before = pump_->started();
  pump_->tick(source_, scratch_,
              /*repush_remote=*/multi_node_ && leader_local_, seal_limit);
  // A freshly sealed slot's proposers are runnable now: step them in the
  // very next sweep instead of after the idle pace.
  if (pump_->started() > started_before) g.wake();
  if (multi_node_) publish_applied(g);
  if (!scratch_.empty()) {
    // Apply the sweep's whole harvest as one batch: one applied-log lock,
    // one commit-index publish, batched queue acknowledgement, one hook
    // invocation for the push fan-out.
    const std::int64_t apply_start = steady_ns();
    const std::uint32_t count = static_cast<std::uint32_t>(scratch_.size());
    values_.clear();
    for (const auto& c : scratch_) values_.push_back(c.value);
    std::uint64_t first = 0;
    {
      std::lock_guard<std::mutex> lock(applied_mu_);
      first = applied_.size();
      applied_.insert(applied_.end(), values_.begin(), values_.end());
    }
    // Applied-key index BEFORE the commit-index publish: a reader whose
    // fence is covered by the published index must see every key the
    // covered prefix wrote.
    for (std::uint32_t i = 0; i < count; ++i) {
      const std::uint64_t v = values_[i];
      if (v < kKeySpace) {
        applied_key_[v].store(first + i + 1, std::memory_order_release);
      }
    }
    commit_index_.store(first + count, std::memory_order_release);
    recs_.clear();
    fire_scratch_.clear();
    const bool defer = spec_.quorum_ack;
    if (multi_node_) {
      apply_commits_multi(first, defer ? &fire_scratch_ : nullptr);
    } else {
      if (defer) {
        queue_.commit_batch_deferred(first, count, recs_, fire_scratch_);
      } else {
        queue_.commit_batch(first, count, recs_);
      }
      for (std::uint32_t i = 0; i < count; ++i) {
        OMEGA_CHECK(recs_[i].command == values_[i],
                    "slot " << scratch_[i].slot << " decided " << values_[i]
                            << " but the oldest in-flight command is "
                            << recs_[i].command);
      }
    }
    if (spec_.wal != nullptr) {
      // Journal the applied batch (values + the pump's post-harvest slot
      // cursor) so recovery can rebuild the applied prefix even though
      // the spill ring's rows get reused.
      const std::uint64_t wal_seq = spec_.wal->append_applied(
          gid_, first, pump_->committed(), values_.data(), count);
      if (defer && !fire_scratch_.empty()) {
        DeferredBatch b;
        b.wal_seq = wal_seq;
        // Read AFTER the batch's stores: a watermark covering "now"
        // covers every register write the batch consists of.
        b.write_mark =
            spec_.mirror_write_seq ? spec_.mirror_write_seq() : 0;
        b.fire = std::move(fire_scratch_);
        fire_scratch_ = {};
        std::lock_guard<std::mutex> lock(deferred_mu_);
        deferred_.push_back(std::move(b));
        acks_held_.store(true, std::memory_order_release);
      }
    }
    {
      std::shared_lock<std::shared_mutex> lock(hook_mu_);
      if (hook_) hook_(first, values_, recs_);
    }
    // Finished proposer frames pile up one per slot per replica: reap so
    // the executors' round-robin scan stays O(live tasks).
    for (auto& ex : g.execs) {
      if (ex) ex->reap_apps();
    }
    apply_hist_->record(
        static_cast<std::uint64_t>(steady_ns() - apply_start));
    commits_ctr_->add(count);
    obs::trace(obs::TraceEvent::kBatchApply, first, count,
               scratch_.front().trace, scratch_.back().trace);
  }
  if (multi_node_ && spec_.mirror_resync) {
    // Watchdog: a decided slot whose payload stays unreadable means some
    // stream is wedged in a way FIFO retries cannot fix (half-dead TCP,
    // a cut that never surfaced). Force the transport to rebuild its
    // streams — snapshots always converge — instead of stalling forever.
    if (!scratch_.empty()) {
      stall_since_us_ = 0;
      stall_marker_ = pump_->payload_stalls();
    } else if (pump_->payload_stalls() > stall_marker_) {
      if (stall_since_us_ == 0) {
        stall_since_us_ = now_us;
      } else if (now_us - stall_since_us_ >= spec_.mirror_stall_resync_us) {
        obs::trace(obs::TraceEvent::kWatchdogFire, gid_,
                   pump_->payload_stalls());
        watchdog_ctr_->add(1);
        obs::dump_trace("mirror-stall-watchdog");
        spec_.mirror_resync();
        stall_since_us_ = 0;
        stall_marker_ = pump_->payload_stalls();
      }
    }
  }
  if (lease_on) lease_tick(g, view, now_us);
  drain_read_waiters(now_us);
  release_deferred();
  if (pump_->exhausted()) {
    log_full_.store(true, std::memory_order_release);
    // Whatever the pump can no longer place must not wait forever.
    if (pump_->in_flight() == 0) queue_.abort_all(AppendOutcome::kLogFull);
    else queue_.abort_pending(AppendOutcome::kLogFull);
  }
  bool deferred_pending = false;
  {
    std::lock_guard<std::mutex> lock(deferred_mu_);
    deferred_pending = !deferred_.empty();
  }
  // Pacing signal: this sweep either harvested commits, still has
  // commands queued/in flight, holds acks waiting on durability, or has
  // fence reads parked — all of which want fast sweeps. A lease-enabled
  // leader also sweeps fast so heartbeats keep their cadence.
  return !scratch_.empty() || queue_.has_work() || deferred_pending ||
         waiters_size_.load(std::memory_order_relaxed) != 0 ||
         (lease_on && leader_local_);
}

void LogGroup::release_deferred() {
  std::vector<CommandQueue::DeferredFire> ready;
  {
    std::lock_guard<std::mutex> lock(deferred_mu_);
    if (deferred_.empty()) return;
    const std::uint64_t durable = spec_.wal->durable_seq();
    const std::uint32_t needed = spec_.n / 2 + 1;
    while (!deferred_.empty()) {
      const DeferredBatch& b = deferred_.front();
      if (b.wal_seq > durable) break;  // local fsync pending
      if (multi_node_ && local_votes_ < needed) {
        const std::uint32_t votes =
            local_votes_ + (spec_.mirror_acked_votes
                                ? spec_.mirror_acked_votes(b.write_mark)
                                : 0);
        if (votes < needed) break;  // quorum of WALs pending
      }
      ready.push_back(std::move(deferred_.front().fire));
      deferred_.pop_front();
    }
    acks_held_.store(!deferred_.empty(), std::memory_order_release);
  }
  for (auto& fire : ready) {
    for (auto& [c, index] : fire) c(AppendOutcome::kCommitted, index);
  }
}

std::uint32_t LogGroup::reach_limit(svc::Group& g) const {
  if (!applied_cells_ok_) return LogPump::kNoSealLimit;
  const Layout& layout = g.inst.memory->layout();
  const std::uint64_t next = pump_->started();
  const std::uint64_t rows = std::uint64_t{spec_.window} + spec_.ring_slack;
  std::uint64_t limit = LogPump::kNoSealLimit;
  for (ProcessId p = 0; p < spec_.n; ++p) {
    if (spec_.is_local(p)) continue;
    if (spec_.mirror_live && !spec_.mirror_live(p)) continue;
    const std::uint64_t applied =
        g.inst.memory->peek(layout.cell(applied_grp_, p));
    // Already past the ring (sealing `next` reused the row of the slot it
    // needs next): holding the log back can no longer help it.
    if (next > applied + rows) continue;
    limit = std::min(limit, applied + spec_.ring_slack);
  }
  return static_cast<std::uint32_t>(limit);
}

void LogGroup::publish_applied(svc::Group& g) {
  if (!applied_cells_ok_) return;
  const std::uint32_t committed = pump_->committed();
  // A cursor that trails by a few slots only makes the leader's bound a
  // little tighter; publishing every slot would cost a push frame per
  // slot per peer.
  const std::uint32_t step = std::max<std::uint32_t>(1, spec_.ring_slack / 8);
  if (applied_published_ && committed < applied_pub_ + step) return;
  const Layout& layout = g.inst.memory->layout();
  for (ProcessId p = 0; p < spec_.n; ++p) {
    if (spec_.is_local(p)) {
      g.inst.memory->poke(layout.cell(applied_grp_, p), committed);
    }
  }
  applied_pub_ = committed;
  applied_published_ = true;
}

void LogGroup::answer_not_leader() {
  queue_.abort_pending(AppendOutcome::kNotLeader);
  ticket_scratch_.clear();
  pump_->drop_resubmits(ticket_scratch_);
  for (const std::uint64_t ticket : ticket_scratch_) {
    queue_.abort_owned(ticket, AppendOutcome::kNotLeader);
  }
}

void LogGroup::lease_tick(svc::Group& g, const svc::LeaderView& view,
                          std::int64_t now_us) {
  // Epoch fencing first: ANY change of the agreed view (including to "no
  // leader") drops the lease instantly — before a competing leader can
  // acquire one at the new epoch.
  if (lease_.on_epoch_change(view.epoch, now_us)) lease_drop_ctr_->add(1);
  const bool leader_here =
      view.leader != kNoProcess && spec_.is_local(view.leader);
  MemoryBackend& mem = *g.inst.memory;
  // A foreign holder's heartbeat (live, or a deposed leader's stale
  // pushes still draining) renews the floor this node's own lease must
  // wait out — two holders never overlap, even across the election
  // window.
  {
    const std::uint64_t hb = mem.peek(lease_hb_cell_);
    if (hb != lease_foreign_hb_) {
      if (hb != 0 && !spec_.is_local(static_cast<ProcessId>((hb >> 48) - 1))) {
        lease_.on_foreign_heartbeat(now_us);
      }
      lease_foreign_hb_ = hb;
    }
  }
  if (leader_here) {
    // Heartbeat at ttl/4 so several confirmations fit inside one TTL.
    const std::int64_t interval =
        std::max<std::int64_t>(1, spec_.lease_ttl_us / 4);
    if (now_us - lease_hb_sent_us_ >= interval) {
      lease_hb_sent_us_ = now_us;
      ++lease_hb_seq_;
      mem.poke(lease_hb_cell_, (std::uint64_t{sealer_} + 1) << 48 |
                                   (lease_hb_seq_ & 0xFFFFFFFFFFFFull));
      // The fence followers read-index against: the leader's applied
      // length, republished with every heartbeat and stamped with the
      // leader it comes from (read_point checks the stamp).
      mem.poke(lease_fence_cell_,
               (std::uint64_t{view.leader} + 1) << 48 |
                   (commit_index_.load(std::memory_order_acquire) &
                    kFenceIndexMask));
      lease_outstanding_.emplace_back(
          spec_.mirror_write_seq ? spec_.mirror_write_seq() : 0, now_us);
    }
    // Confirm the FIFO front: local replicas may carry the quorum alone
    // (single-process groups); otherwise the mirror's cumulative acks
    // must cover the heartbeat's write mark — the same vote rule as
    // release_deferred, minus the WAL gate (leases are not durable).
    const std::uint32_t needed = spec_.n / 2 + 1;
    while (!lease_outstanding_.empty()) {
      const auto [mark, t_send] = lease_outstanding_.front();
      if (t_send + spec_.lease_ttl_us <= now_us) {
        // The extension this confirmation could grant is already in the
        // past; drop it so a stalled mirror cannot grow the queue.
        lease_outstanding_.pop_front();
        continue;
      }
      std::uint32_t votes = local_votes_;
      if (votes < needed && spec_.mirror_acked_votes) {
        votes += spec_.mirror_acked_votes(mark);
      }
      if (votes < needed) break;
      lease_.on_heartbeat_confirmed(t_send);
      lease_outstanding_.pop_front();
    }
  } else {
    lease_hb_sent_us_ = 0;  // fresh cadence on the next takeover
    lease_outstanding_.clear();
  }
  // Publish for the IO threads: validity = fenced epoch (checked by the
  // reader against its FRESH cache view) + now inside the confirmed
  // window + past the foreign-holder floor.
  const std::int64_t pub_until =
      (leader_here && now_us >= lease_.not_before_us())
          ? lease_.lease_until_us()
          : 0;
  lease_until_pub_.store(pub_until, std::memory_order_release);
  lease_epoch_pub_.store(lease_.epoch(), std::memory_order_release);
  const bool valid_now = now_us < pub_until;
  if (valid_now && !lease_was_valid_) lease_acq_ctr_->add(1);
  lease_was_valid_ = valid_now;
  lease_expected_pub_.store(leader_here ? 1 : 0, std::memory_order_relaxed);
  lease_valid_snap_.store(valid_now ? 1 : 0, std::memory_order_relaxed);
}

void LogGroup::drain_read_waiters(std::int64_t now_us) {
  if (waiters_size_.load(std::memory_order_relaxed) == 0) return;
  waiter_scratch_.clear();
  std::size_t woken = 0;
  {
    std::lock_guard<std::mutex> lock(waiters_mu_);
    woken = waiters_.wake(commit_index_.load(std::memory_order_acquire),
                          waiter_scratch_);
    waiters_.expire(now_us, waiter_scratch_);
    waiters_size_.store(waiters_.size(), std::memory_order_relaxed);
  }
  // Fire outside the lock (completions post into IO-loop mailboxes).
  for (std::size_t i = 0; i < waiter_scratch_.size(); ++i) {
    waiter_scratch_[i](i < woken);
  }
  waiter_scratch_.clear();
}

LogGroup::ReadMode LogGroup::read_point(std::uint64_t key,
                                        std::uint64_t min_index,
                                        const svc::LeaderView& view,
                                        std::int64_t now_us, ReadAnswer& out,
                                        ReadCompletion done) {
  const bool leader_here =
      view.leader != kNoProcess && spec_.is_local(view.leader);
  if (leader_here) {
    out.index = lookup_key(key);
    out.commit_index = commit_index();
    if (spec_.lease_ttl_us > 0) {
      if (lease_valid(view.epoch, now_us)) {
        reads_lease_ctr_->add(1);
        return ReadMode::kLease;
      }
      // Leases are configured but this one is not valid — maybe startup,
      // maybe this node is a deposed leader whose cache has not caught up
      // (a partition). Refusing is the safety property: committed data
      // still rides along as a hint, but never with authority.
      reads_refused_ctr_->add(1);
      return ReadMode::kRefused;
    }
    reads_fallback_ctr_->add(1);
    return ReadMode::kFallback;
  }
  // Follower read-index: the fence is the leader's last published
  // applied length (mirrored LEASE cell), floored by the client's
  // session index for read-your-writes across a routing switch.
  std::uint64_t fence = min_index;
  if (lease_cells_ok_ && host_.g_ != nullptr) {
    // The fence cell is shared by every node that ever led, and a deposed
    // leader keeps its own last fence until the new leader's push lands
    // over it: only the fence of the leader this node follows bounds a
    // read (0 = no leader has published one yet). A node following no
    // one (kNoProcess) refuses every read once any fence exists.
    const std::uint64_t cell = host_.g_->inst.memory->peek(lease_fence_cell_);
    if (cell != 0 && cell >> 48 != std::uint64_t{view.leader} + 1) {
      reads_refused_ctr_->add(1);
      return ReadMode::kRefused;
    }
    fence = std::max(fence, cell & kFenceIndexMask);
  }
  const std::uint64_t applied = commit_index();
  if (applied >= fence) {
    out.index = lookup_key(key);
    out.commit_index = applied;
    reads_index_ctr_->add(1);
    return ReadMode::kIndex;
  }
  // Park until the local apply passes the fence, deadline-bounded like
  // the append path's deferred acknowledgements.
  const std::int64_t deadline =
      now_us + (spec_.lease_ttl_us > 0 ? 4 * spec_.lease_ttl_us : 500'000);
  const std::int64_t t_park_ns = steady_ns();
  {
    std::lock_guard<std::mutex> lock(waiters_mu_);
    if (waiters_.size() >= kMaxReadWaiters) {
      reads_refused_ctr_->add(1);
      return ReadMode::kOverloaded;
    }
    waiters_.park(fence, deadline,
                  [this, key, done = std::move(done), t_park_ns](bool passed) {
                    fence_wait_hist_->record(
                        static_cast<std::uint64_t>(steady_ns() - t_park_ns));
                    ReadAnswer a;
                    a.index = lookup_key(key);
                    a.commit_index = commit_index();
                    done(passed, a);
                  });
    waiters_size_.store(waiters_.size(), std::memory_order_relaxed);
  }
  reads_index_ctr_->add(1);
  return ReadMode::kDefer;
}

void LogGroup::apply_commits_multi(std::uint64_t first,
                                   CommandQueue::DeferredFire* defer) {
  // Resolve completions run by run: commits of one ticket are one slot's
  // batch and arrive contiguously; remote-sealed entries carry no local
  // bookkeeping (their sealer acknowledges its own clients).
  const std::size_t count = scratch_.size();
  std::size_t i = 0;
  while (i < count) {
    if (scratch_[i].local && scratch_[i].ticket != 0) {
      const std::uint64_t ticket = scratch_[i].ticket;
      std::size_t j = i;
      while (j < count && scratch_[j].local && scratch_[j].ticket == ticket) {
        ++j;
      }
      const std::size_t before = recs_.size();
      if (defer != nullptr) {
        queue_.commit_owned_deferred(ticket, first + i, recs_, *defer);
      } else {
        queue_.commit_owned(ticket, first + i, recs_);
      }
      OMEGA_CHECK(recs_.size() - before == j - i,
                  "ticket " << ticket << " resolved " << (recs_.size() - before)
                            << " entries, slot batch has " << (j - i));
      for (std::size_t k = i; k < j; ++k) {
        OMEGA_CHECK(recs_[before + k - i].command == values_[k],
                    "ticket " << ticket << " command mismatch at index "
                              << (first + k));
      }
      i = j;
    } else {
      recs_.push_back(CommandQueue::CommitRecord{0, 0, scratch_[i].value,
                                                 scratch_[i].trace});
      ++i;
    }
  }
}

void LogGroup::read(std::uint64_t from, std::uint32_t max,
                    Snapshot& out) const {
  out.entries.clear();
  std::lock_guard<std::mutex> lock(applied_mu_);
  out.commit_index = applied_.size();
  for (std::uint64_t i = from; i < applied_.size() && out.entries.size() < max;
       ++i) {
    out.entries.push_back(applied_[static_cast<std::size_t>(i)]);
  }
}

std::optional<std::uint64_t> LogGroup::decided_by(ProcessId pid,
                                                  std::uint32_t slot) const {
  OMEGA_CHECK(host_.g_ != nullptr, "decided_by before attach");
  OMEGA_CHECK(pid < spec_.n, "bad replica " << pid);
  std::uint64_t v = 0;
  if (!log_.slot(slot).read_decision(*host_.g_->inst.memory, pid, v)) {
    return std::nullopt;
  }
  return v;
}

void LogGroup::abort(AppendOutcome outcome) {
  // Deferred completions belong to COMMITTED entries — answer with the
  // truth even on teardown (kAborted would provoke a retry of a command
  // that is in the log).
  std::deque<DeferredBatch> held;
  {
    std::lock_guard<std::mutex> lock(deferred_mu_);
    held.swap(deferred_);
    acks_held_.store(false, std::memory_order_release);
  }
  for (auto& b : held) {
    for (auto& [c, index] : b.fire) c(AppendOutcome::kCommitted, index);
  }
  queue_.abort_all(outcome);
}

void LogGroup::clear_hook() {
  // Unique lock: waits out any sweep currently inside the hook, so the
  // caller may free the state the hook captured right after returning.
  std::unique_lock<std::shared_mutex> lock(hook_mu_);
  hook_ = {};
}

void register_health_rules(obs::HealthMonitor& hm) {
  // Commit-progress stall: commands are queued but the commit counter is
  // flat across the trailing window — the one symptom every replication
  // failure mode (dead leader, wedged mirror, starved pump) shares.
  // Escalates to critical once the flat stretch covers 10s. Span guards
  // keep a freshly started sampler from alarming before the ring covers
  // the window.
  hm.add_rule(obs::HealthRule{
      "commit-stall",
      [](const obs::TimeSeries& ts, std::string* reason) {
        const std::int64_t pending = ts.latest_value("smr.queue_pending");
        if (pending <= 0) return obs::Health::kOk;
        const std::int64_t span = ts.span_ms("smr.commits");
        if (span < 2'000) return obs::Health::kOk;
        if (ts.delta("smr.commits", 2'000) > 0) return obs::Health::kOk;
        const bool long_flat =
            span >= 10'000 && ts.delta("smr.commits", 10'000) == 0;
        *reason = std::to_string(pending) + " queued, commits flat for >=" +
                  (long_flat ? std::string("10s") : std::string("2s"));
        return long_flat ? obs::Health::kCritical : obs::Health::kDegraded;
      },
      /*degrade_after=*/2,
      /*recover_after=*/4});
  // Mirror push-lag: the WINDOWED p99 of seal -> mirror-ack latency (the
  // registry's since-boot p99 would take minutes to notice a lagging
  // follower; the differenced one reacts within the window).
  hm.add_rule(obs::HealthRule{
      "mirror-push-lag",
      [](const obs::TimeSeries& ts, std::string* reason) {
        const std::uint64_t p99 =
            ts.windowed_quantile("mirror.push_lag_ns", 5'000, 0.99);
        if (p99 <= 500'000'000) return obs::Health::kOk;
        *reason = "push-lag p99 " + std::to_string(p99 / 1'000'000) +
                  "ms over 5s";
        return obs::Health::kDegraded;
      },
      /*degrade_after=*/2,
      /*recover_after=*/4});
  // Session evictions: a spike means clients are losing their dedup
  // retry window faster than they resubmit — usually a TTL misconfig or
  // a stalled intake starving sessions of refresh traffic.
  hm.add_rule(obs::HealthRule{
      "session-evictions",
      [](const obs::TimeSeries& ts, std::string* reason) {
        const std::int64_t d = ts.delta("smr.sessions_evicted", 5'000);
        if (d <= 64) return obs::Health::kOk;
        *reason = std::to_string(d) + " sessions evicted in 5s";
        return obs::Health::kDegraded;
      },
      /*degrade_after=*/2,
      /*recover_after=*/4});
  // WAL stall: IO errors freeze durable_seq (the log is degraded — with
  // quorum_ack on, acks stop flowing), which is critical outright. A
  // climbing durable lag without errors means fsync cannot keep up with
  // the append rate — degraded before it becomes a commit stall.
  hm.add_rule(obs::HealthRule{
      "wal-stall",
      [](const obs::TimeSeries& ts, std::string* reason) {
        const std::int64_t errors = ts.delta("wal.io_errors", 10'000);
        if (errors > 0) {
          *reason = std::to_string(errors) +
                    " WAL IO error(s) in 10s (log degraded)";
          return obs::Health::kCritical;
        }
        const std::int64_t lag = ts.latest_value("wal.durable_lag");
        if (lag <= 4096) return obs::Health::kOk;
        *reason = "WAL durable lag " + std::to_string(lag) + " records";
        return obs::Health::kDegraded;
      },
      /*degrade_after=*/2,
      /*recover_after=*/4});
  // Lease health: a leader-hosted lease-enabled group without a valid
  // lease means every point read takes the consensus fallback — the fast
  // path the operator configured is not delivering. Followers publish
  // expected = 0, so election-only and lease-disabled nodes stay kOk.
  hm.add_rule(obs::HealthRule{
      "lease-health",
      [](const obs::TimeSeries& ts, std::string* reason) {
        const std::int64_t expected = ts.latest_value("smr.lease_expected");
        if (expected <= 0) return obs::Health::kOk;
        const std::int64_t valid = ts.latest_value("smr.lease_valid");
        if (valid >= expected) return obs::Health::kOk;
        *reason = std::to_string(expected - valid) +
                  " leader-hosted group(s) without a valid lease";
        return obs::Health::kDegraded;
      },
      /*degrade_after=*/2,
      /*recover_after=*/2});
  // The mirror-stall watchdog firing at all is critical: the transport
  // had to tear its streams down to make progress.
  hm.add_rule(obs::HealthRule{
      "watchdog",
      [](const obs::TimeSeries& ts, std::string* reason) {
        const std::int64_t d = ts.delta("smr.watchdog_fires", 10'000);
        if (d <= 0) return obs::Health::kOk;
        *reason = std::to_string(d) + " mirror-stall watchdog fire(s) in 10s";
        return obs::Health::kCritical;
      },
      /*degrade_after=*/1,
      /*recover_after=*/4});
}

}  // namespace omega::smr
