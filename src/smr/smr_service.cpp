#include "smr/smr_service.h"

namespace omega::smr {

SmrService::SmrService(svc::MultiGroupLeaderService& svc) : svc_(svc) {}

SmrService::~SmrService() {
  // The svc Groups outlive this service (they hold the LogGroups via
  // GroupSpec::pump) and may keep sweeping: detach every commit hook —
  // they capture `this` — before the service state goes away, then
  // answer whatever is still queued (it can never commit visibly now).
  std::unique_lock<std::shared_mutex> lock(logs_mu_);
  for (auto& [gid, lg] : logs_) {
    (void)gid;
    lg->clear_hook();
    lg->abort(AppendOutcome::kAborted);
  }
  logs_.clear();
}

void SmrService::add_log(svc::GroupId gid, const SmrSpec& spec) {
  auto lg = std::make_shared<LogGroup>(
      gid, spec,
      [this, gid](std::uint64_t first_index,
                  const std::vector<std::uint64_t>& values,
                  const std::vector<CommandQueue::CommitRecord>& recs) {
        notify_commit(gid, first_index, values, recs);
      });
  {
    std::unique_lock<std::shared_mutex> lock(logs_mu_);
    const auto [it, inserted] = logs_.emplace(gid, lg);
    (void)it;
    OMEGA_CHECK(inserted, "duplicate log group id " << gid);
  }
  svc::GroupSpec gspec;
  gspec.algo = spec.algo;
  gspec.n = spec.n;
  gspec.extra_registers = [lg](LayoutBuilder& b) { lg->declare(b); };
  gspec.pump = lg;
  gspec.local_mask = spec.local_mask;
  gspec.memory_factory = spec.memory_factory;
  try {
    svc_.add_group(gid, gspec);
  } catch (...) {
    std::unique_lock<std::shared_mutex> lock(logs_mu_);
    logs_.erase(gid);
    throw;
  }
}

bool SmrService::remove_log(svc::GroupId gid) {
  std::shared_ptr<LogGroup> victim;
  {
    std::unique_lock<std::shared_mutex> lock(logs_mu_);
    const auto it = logs_.find(gid);
    if (it == logs_.end()) return false;
    victim = it->second;
    logs_.erase(it);
  }
  svc_.remove_group(gid);
  victim->clear_hook();
  victim->abort(AppendOutcome::kAborted);
  return true;
}

bool SmrService::has_log(svc::GroupId gid) const {
  return find(gid) != nullptr;
}

std::size_t SmrService::num_logs() const {
  std::shared_lock<std::shared_mutex> lock(logs_mu_);
  return logs_.size();
}

std::shared_ptr<LogGroup> SmrService::find(svc::GroupId gid) const {
  std::shared_lock<std::shared_mutex> lock(logs_mu_);
  const auto it = logs_.find(gid);
  return it == logs_.end() ? nullptr : it->second;
}

void SmrService::append(svc::GroupId gid, std::uint64_t client,
                        std::uint64_t seq, std::uint64_t command,
                        AppendCompletion done, std::uint64_t trace) {
  OMEGA_CHECK(done != nullptr, "append needs a completion");
  const auto lg = find(gid);
  if (!lg) {
    done(AppendOutcome::kAborted, 0);
    return;
  }
  if (command < 1 || command >= kLogNoOp) {
    done(AppendOutcome::kBadCommand, 0);
    return;
  }
  if (lg->log_full()) {
    done(AppendOutcome::kLogFull, 0);
    return;
  }
  // The queue retains the completion only for kAccepted (it fires at
  // commit/abort); every other outcome is answered synchronously here, so
  // hand the queue a copy and keep the original callable.
  const CommandQueue::SubmitResult r =
      lg->queue().submit(client, seq, command, done, trace);
  if (r.outcome != AppendOutcome::kAccepted) {
    done(r.outcome, r.index);
    return;
  }
  lg->wake();  // seal it in the next sweep, not after the idle pace
}

void SmrService::wake_held_acks() const {
  std::shared_lock<std::shared_mutex> lock(logs_mu_);
  for (const auto& [gid, lg] : logs_) {
    (void)gid;
    lg->wake_if_acks_held();
  }
}

bool SmrService::read_log(svc::GroupId gid, std::uint64_t from,
                          std::uint32_t max, LogGroup::Snapshot& out) const {
  const auto lg = find(gid);
  if (!lg) return false;
  lg->read(from, max, out);
  return true;
}

bool SmrService::read_point(svc::GroupId gid, std::uint64_t key,
                            std::uint64_t min_index, svc::LeaderView& view,
                            LogGroup::ReadAnswer& answer,
                            LogGroup::ReadMode& mode,
                            LogGroup::ReadCompletion done) {
  const auto lg = find(gid);
  if (!lg) return false;
  if (!svc_.try_leader(gid, view)) view = svc::LeaderView{};
  mode = lg->read_point(key, min_index, view, svc_.now_us(), answer,
                        std::move(done));
  return true;
}

std::uint64_t SmrService::commit_index(svc::GroupId gid) const {
  const auto lg = find(gid);
  return lg ? lg->commit_index() : 0;
}

CommandQueue::Stats SmrService::queue_stats(svc::GroupId gid) const {
  const auto lg = find(gid);
  return lg ? lg->queue().stats() : CommandQueue::Stats{};
}

bool SmrService::open_session(svc::GroupId gid, std::uint64_t client,
                              std::int64_t& ttl_us) {
  const auto lg = find(gid);
  if (!lg) return false;
  ttl_us = lg->queue().open_session(client);
  return true;
}

bool SmrService::hosts_replica(svc::GroupId gid, ProcessId pid) const {
  const auto lg = find(gid);
  // Unknown gids answer true: the append path has already resolved the
  // group, and single-process deployments host everything.
  return lg ? lg->hosts(pid) : true;
}

std::optional<std::uint64_t> SmrService::decided_by(svc::GroupId gid,
                                                    ProcessId pid,
                                                    std::uint32_t slot) const {
  const auto lg = find(gid);
  if (!lg) return std::nullopt;
  return lg->decided_by(pid, slot);
}

void SmrService::set_commit_listener(CommitListener listener) {
  std::unique_lock<std::shared_mutex> lock(listener_mu_);
  listener_ = std::move(listener);
}

void SmrService::notify_commit(
    svc::GroupId gid, std::uint64_t first_index,
    const std::vector<std::uint64_t>& values,
    const std::vector<CommandQueue::CommitRecord>& recs) const {
  std::shared_lock<std::shared_mutex> lock(listener_mu_);
  if (!listener_) return;
  // recs is in lockstep with values on every path (batch, owned, remote);
  // project the trace column for the fan-out.
  std::vector<std::uint64_t> traces;
  traces.reserve(recs.size());
  for (const auto& r : recs) traces.push_back(r.trace);
  listener_(gid, first_index, values, traces);
}

}  // namespace omega::smr
