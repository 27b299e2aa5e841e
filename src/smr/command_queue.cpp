#include "smr/command_queue.h"

#include <unordered_set>

#include "common/check.h"

namespace omega::smr {

CommandQueue::CommandQueue(std::size_t max_pending,
                           std::int64_t session_ttl_us)
    : max_pending_(max_pending), session_ttl_us_(session_ttl_us) {
  OMEGA_CHECK(max_pending_ >= 1, "queue needs capacity >= 1");
  OMEGA_CHECK(session_ttl_us_ >= 0, "negative session TTL");
}

void CommandQueue::take(Entry& e, std::vector<AppendCompletion>& out) {
  for (auto& c : e.completions) {
    if (c) out.push_back(std::move(c));
  }
  e.completions.clear();
}

std::int64_t CommandQueue::open_session(std::uint64_t client) {
  std::lock_guard<std::mutex> lock(mu_);
  Session& sess = sessions_[client];
  sess.last_active_us = now_us_;
  return session_ttl_us_;
}

CommandQueue::SubmitResult CommandQueue::submit(std::uint64_t client,
                                                std::uint64_t seq,
                                                std::uint64_t command,
                                                AppendCompletion done,
                                                std::uint64_t trace) {
  std::unique_lock<std::mutex> lock(mu_);
  if (session_ttl_us_ > 0 && seq > 1 &&
      sessions_.find(client) == sessions_.end()) {
    // Mid-stream seq from a client we have no session for: with eviction
    // enabled this means the session was TTL-dropped (or never opened).
    // Accepting would silently treat a retry of an already-committed
    // command as fresh — answer explicitly instead; the client re-opens
    // and re-synchronizes its seq space.
    return SubmitResult{AppendOutcome::kSessionEvicted, 0};
  }
  Session& sess = sessions_[client];
  sess.last_active_us = now_us_;
  if (sess.any && seq == sess.last_seq) {
    if (sess.committed) {
      return SubmitResult{AppendOutcome::kCommitted, sess.last_index};
    }
    // Retry of the still-pending newest seq: attach to the original entry
    // (scan the two small queues back-to-front; retries target recent
    // entries, and duplicates are rare relative to the consensus work).
    for (auto queue : {&inflight_, &pending_}) {
      for (auto it = queue->rbegin(); it != queue->rend(); ++it) {
        if (it->client == client && it->seq == seq) {
          if (it->command != command) {
            // A "retry" that changes the command is a client bug, but it
            // arrives over the network — answer it, never throw on the
            // serving thread.
            return SubmitResult{AppendOutcome::kBadCommand, 0};
          }
          if (done) it->completions.push_back(std::move(done));
          return SubmitResult{AppendOutcome::kAccepted, 0};
        }
      }
    }
    for (auto& [ticket, batch] : owned_) {
      (void)ticket;
      for (auto& e : batch) {
        if (e.client == client && e.seq == seq) {
          if (e.command != command) {
            return SubmitResult{AppendOutcome::kBadCommand, 0};
          }
          if (done) e.completions.push_back(std::move(done));
          return SubmitResult{AppendOutcome::kAccepted, 0};
        }
      }
    }
    // The entry was aborted between the session update and now; treat the
    // retry as a fresh submission below.
  } else if (sess.any && seq < sess.last_seq) {
    return SubmitResult{AppendOutcome::kStaleSeq, 0};
  }
  if (pending_.size() >= max_pending_) {
    return SubmitResult{AppendOutcome::kQueueFull, 0};
  }
  sess.any = true;
  sess.last_seq = seq;
  sess.committed = false;
  Entry e;
  e.client = client;
  e.seq = seq;
  e.command = command;
  e.trace = trace;
  if (done) e.completions.push_back(std::move(done));
  pending_.push_back(std::move(e));
  return SubmitResult{AppendOutcome::kAccepted, 0};
}

std::uint64_t CommandQueue::pull() {
  std::lock_guard<std::mutex> lock(mu_);
  if (pending_.empty()) return 0;
  inflight_.push_back(std::move(pending_.front()));
  pending_.pop_front();
  return inflight_.back().command;
}

std::uint32_t CommandQueue::pull_batch(std::uint32_t max,
                                       std::vector<std::uint64_t>& out,
                                       std::vector<std::uint64_t>* traces) {
  std::lock_guard<std::mutex> lock(mu_);
  std::uint32_t moved = 0;
  while (moved < max && !pending_.empty()) {
    inflight_.push_back(std::move(pending_.front()));
    pending_.pop_front();
    out.push_back(inflight_.back().command);
    if (traces != nullptr) traces->push_back(inflight_.back().trace);
    ++moved;
  }
  return moved;
}

std::uint32_t CommandQueue::pull_batch_owned(std::uint32_t max,
                                             std::vector<std::uint64_t>& out,
                                             std::uint64_t& ticket,
                                             std::vector<std::uint64_t>* traces) {
  std::lock_guard<std::mutex> lock(mu_);
  if (pending_.empty()) return 0;
  ticket = next_ticket_++;
  auto& batch = owned_[ticket];
  std::uint32_t moved = 0;
  while (moved < max && !pending_.empty()) {
    batch.push_back(std::move(pending_.front()));
    pending_.pop_front();
    out.push_back(batch.back().command);
    if (traces != nullptr) traces->push_back(batch.back().trace);
    ++moved;
  }
  owned_entries_ += moved;
  return moved;
}

CommandQueue::CommitRecord CommandQueue::commit_front(std::uint64_t index) {
  std::vector<CommitRecord> recs;
  commit_batch(index, 1, recs);
  return recs.front();
}

void CommandQueue::commit_entry_locked(
    Entry& e, std::uint64_t index, std::vector<CommitRecord>& recs,
    std::vector<std::pair<AppendCompletion, std::uint64_t>>& fire) {
  CommitRecord rec;
  rec.client = e.client;
  rec.seq = e.seq;
  rec.command = e.command;
  rec.trace = e.trace;
  recs.push_back(rec);
  Session& sess = sessions_[e.client];
  // A commit is session activity: restamp so the TTL runs from the
  // commit, not from the submit — submit stamps with the *previous*
  // sweep's clock (0 before the first sweep), and an entry that sat
  // queued must not surface with its retry window pre-expired.
  sess.last_active_us = now_us_;
  if (sess.any && sess.last_seq == e.seq) {
    sess.committed = true;
    sess.last_index = index;
  }
  for (auto& c : e.completions) {
    if (c) fire.emplace_back(std::move(c), index);
  }
}

void CommandQueue::commit_owned_deferred(std::uint64_t ticket,
                                         std::uint64_t first_index,
                                         std::vector<CommitRecord>& recs,
                                         DeferredFire& fire) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = owned_.find(ticket);
  OMEGA_CHECK(it != owned_.end(), "commit of unknown ticket " << ticket);
  std::uint64_t index = first_index;
  for (auto& e : it->second) {
    commit_entry_locked(e, index++, recs, fire);
  }
  owned_entries_ -= it->second.size();
  owned_.erase(it);
}

void CommandQueue::commit_owned(std::uint64_t ticket,
                                std::uint64_t first_index,
                                std::vector<CommitRecord>& recs) {
  DeferredFire fire;
  commit_owned_deferred(ticket, first_index, recs, fire);
  for (auto& [c, index] : fire) c(AppendOutcome::kCommitted, index);
}

void CommandQueue::commit_batch_deferred(std::uint64_t first_index,
                                         std::uint32_t count,
                                         std::vector<CommitRecord>& recs,
                                         DeferredFire& fire) {
  std::lock_guard<std::mutex> lock(mu_);
  OMEGA_CHECK(inflight_.size() >= count,
              "commit of " << count << " with " << inflight_.size()
                           << " in flight");
  for (std::uint32_t i = 0; i < count; ++i) {
    commit_entry_locked(inflight_.front(), first_index + i, recs, fire);
    inflight_.pop_front();
  }
}

void CommandQueue::commit_batch(std::uint64_t first_index, std::uint32_t count,
                                std::vector<CommitRecord>& recs) {
  // (completion, index) pairs collected under the lock, fired outside it:
  // completions post to IO loops and must not nest under the queue mutex.
  DeferredFire fire;
  commit_batch_deferred(first_index, count, recs, fire);
  for (auto& [c, index] : fire) c(AppendOutcome::kCommitted, index);
}

void CommandQueue::abort_pending(AppendOutcome outcome) {
  std::vector<AppendCompletion> fire;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& e : pending_) take(e, fire);
    pending_.clear();
  }
  for (auto& c : fire) c(outcome, 0);
}

void CommandQueue::abort_owned(std::uint64_t ticket, AppendOutcome outcome) {
  std::vector<AppendCompletion> fire;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = owned_.find(ticket);
    if (it == owned_.end()) return;
    for (auto& e : it->second) take(e, fire);
    owned_entries_ -= it->second.size();
    owned_.erase(it);
  }
  for (auto& c : fire) c(outcome, 0);
}

void CommandQueue::abort_all(AppendOutcome outcome) {
  std::vector<AppendCompletion> fire;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& e : pending_) take(e, fire);
    for (auto& e : inflight_) take(e, fire);
    for (auto& [ticket, batch] : owned_) {
      (void)ticket;
      for (auto& e : batch) take(e, fire);
    }
    pending_.clear();
    // In-flight/owned entries stay: their slots may still decide (a sweep
    // can race this call), and commit_front/commit_owned must find the
    // matching entries. Their waiters have been answered; the late commit
    // fires nothing.
  }
  for (auto& c : fire) c(outcome, 0);
}

void CommandQueue::evict_idle_sessions(std::int64_t now_us) {
  if (session_ttl_us_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  now_us_ = now_us;
  // Full-map scans are O(sessions): amortize to a few per TTL. The extra
  // grace this grants an almost-expired session is harmless.
  if (now_us - last_scan_us_ < session_ttl_us_ / 4 + 1) return;
  last_scan_us_ = now_us;
  // A session with queued work is live no matter how old its stamp: its
  // commit must still find the session to record the dedup outcome.
  std::unordered_set<std::uint64_t> busy;
  for (const auto& e : pending_) busy.insert(e.client);
  for (const auto& e : inflight_) busy.insert(e.client);
  for (const auto& [ticket, batch] : owned_) {
    (void)ticket;
    for (const auto& e : batch) busy.insert(e.client);
  }
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if (now_us - it->second.last_active_us >= session_ttl_us_ &&
        busy.find(it->first) == busy.end()) {
      it = sessions_.erase(it);
      ++evicted_;
    } else {
      ++it;
    }
  }
}

CommandQueue::Stats CommandQueue::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  Stats s;
  s.pending = pending_.size();
  s.in_flight = inflight_.size() + owned_entries_;
  s.sessions = sessions_.size();
  s.evicted = evicted_;
  return s;
}

std::size_t CommandQueue::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

std::size_t CommandQueue::in_flight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_.size() + owned_entries_;
}

bool CommandQueue::has_work() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !pending_.empty() || !inflight_.empty() || owned_entries_ > 0;
}

}  // namespace omega::smr
