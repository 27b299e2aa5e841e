#include "smr/node.h"

#include <algorithm>

#include "obs/process_gauges.h"
#include "registers/mirror.h"

namespace omega::smr {

namespace {

/// Poke order of recovered cells: payload (spill commands, ballots) before
/// batch seals before decisions — so a peer replaying this node's re-push
/// never sees a seal naming a row it does not have, or a decision whose
/// payload is missing (the same write order the pump itself uses).
std::uint32_t recovery_rank(const Layout& layout, std::uint32_t cell) {
  const RegisterGroup& grp = layout.group(layout.group_of(Cell{cell}));
  if (grp.name.size() >= 3 &&
      grp.name.compare(grp.name.size() - 3, 3, "DEC") == 0) {
    return 2;
  }
  if (grp.name == "LOGBAT" && grp.cols > 0 &&
      (cell - grp.first) % grp.cols == 0) {
    return 1;  // a row's seal cell
  }
  return 0;
}

void poke_recovered(MemoryBackend& mem, const wal::GroupImage& img) {
  const Layout& layout = mem.layout();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> order;  // rank, cell
  order.reserve(img.cells.size());
  for (const auto& [cell, value] : img.cells) {
    (void)value;
    if (cell >= layout.size()) continue;  // shape drift; drop, resync heals
    order.emplace_back(recovery_rank(layout, cell), cell);
  }
  std::sort(order.begin(), order.end());
  for (const auto& [rank, cell] : order) {
    (void)rank;
    mem.poke(Cell{cell}, img.cells.at(cell));
  }
}

}  // namespace

std::uint64_t NodeTopology::local_mask(std::uint32_t n) const {
  OMEGA_CHECK(!nodes.empty(), "empty topology");
  OMEGA_CHECK(n <= 64, "mirror deployments support up to 64 replicas");
  std::uint64_t mask = 0;
  for (ProcessId p = 0; p < n; ++p) {
    if (node_of(p) == self) mask |= std::uint64_t{1} << p;
  }
  return mask;
}

const NodeEndpoint* NodeTopology::endpoint_of_replica(ProcessId pid) const {
  const std::uint32_t node = node_of(pid);
  for (const auto& e : nodes) {
    if (e.node == node) return &e;
  }
  return nullptr;
}

net::MirrorConfig SmrNode::mirror_config(const NodeTopology& topo) {
  OMEGA_CHECK(topo.self < topo.nodes.size(),
              "self " << topo.self << " outside the topology");
  net::MirrorConfig cfg;
  cfg.node = topo.self;
  for (std::uint32_t i = 0; i < topo.nodes.size(); ++i) {
    const NodeEndpoint& e = topo.nodes[i];
    OMEGA_CHECK(e.node == i, "topology nodes must be dense: entry "
                                 << i << " has id " << e.node);
    if (i == topo.self) {
      cfg.bind_address = e.host;
      cfg.port = e.mirror_port;
    } else {
      cfg.peers.push_back(
          net::MirrorPeerConfig{e.node, e.host, e.mirror_port});
    }
  }
  return cfg;
}

SmrNode::SmrNode(NodeTopology topo, svc::SvcConfig svc_cfg,
                 net::NetConfig net_cfg, wal::WalOptions wal_opts)
    : topo_(std::move(topo)),
      wal_(wal_opts.dir.empty() ? nullptr
                                : std::make_unique<wal::Wal>(wal_opts)),
      mirror_(mirror_config(topo_)),
      svc_(svc_cfg),
      smr_(svc_) {
  obs::register_process_gauges();
  if (wal_) {
    // Replay before anything serves. A clean (possibly torn-tail) log
    // yields per-group images consumed by add_log; damage beyond the tail
    // means the journal is not a prefix of this node's history — refuse
    // to impersonate the old replica.
    wal::ReplayResult replayed = wal_->replay();
    OMEGA_CHECK(!replayed.corrupt,
                "WAL in " << wal_->dir()
                          << " is corrupt beyond its tail; wipe the "
                             "directory to rejoin as a fresh node");
    wal_replayed_ = replayed.records;
    for (auto& [gid, image] : replayed.groups) {
      recovery_.emplace(
          gid, std::make_shared<const wal::GroupImage>(std::move(image)));
    }
    // Inbound pushes of durable-floor cells are journaled too, and their
    // REG_ACKs deferred until fsync — a peer's ack then attests "in my
    // WAL", which is what lets a quorum of acks mean a quorum of WALs.
    wal_->set_durable_listener([this](std::uint64_t seq) {
      mirror_.release_durable_acks(seq);
      smr_.wake_held_acks();  // the local half of quorum_ack's gate
    });
    mirror_.set_inbound_journal(
        [this](svc::GroupId gid, std::uint32_t cell,
               std::uint64_t value) -> std::uint64_t {
          std::uint32_t floor = wal::kNoDurableFloor;
          {
            std::lock_guard<std::mutex> lock(floors_mu_);
            const auto it = floors_.find(gid);
            if (it != floors_.end()) floor = it->second;
          }
          if (floor == wal::kNoDurableFloor || cell < floor) return 0;
          return wal_->append_cell(gid, cell, value);
        });
  }
  // A peer's ack watermark moving is the remote half of quorum_ack's
  // gate: wake the logs that hold acknowledgements for it.
  mirror_.set_ack_listener([this] { smr_.wake_held_acks(); });
  net_cfg.bind_address = topo_.nodes[topo_.self].host;
  net_cfg.port = topo_.nodes[topo_.self].serve_port;
  // Stamp this node's identity into METRICS responses (v1.5) so merged
  // multi-endpoint scrapes can tell the samples apart.
  net_cfg.node_id = topo_.self;
  server_ = std::make_unique<net::LeaderServer>(svc_, net_cfg);
  server_->serve_log(smr_);
}

SmrNode::~SmrNode() { stop(); }

void SmrNode::add_log(svc::GroupId gid, SmrSpec spec) {
  OMEGA_CHECK(spec.local_mask == 0 && !spec.memory_factory,
              "SmrNode derives locality and storage from the topology");
  const std::uint64_t mask = topo_.local_mask(spec.n);
  // A mask of 0 here means the placement rule put no replica on this
  // node (more nodes than replicas) — but 0 is the shared "all local"
  // convention downstream, so accepting it would spin up a disconnected
  // private copy of the whole group (split brain). Refuse loudly; such
  // nodes simply do not host this log.
  OMEGA_CHECK(mask != 0,
              "node " << topo_.self << " hosts no replica of group " << gid
                      << " (n=" << spec.n << ", " << topo_.num_nodes()
                      << " nodes): add the log only on hosting nodes");
  spec.local_mask = mask;
  // If the whole group happens to land on this node (more nodes than
  // replica slots used, or a 1-node topology), the mirror degenerates to
  // plain local storage and no push traffic exists for it — but keep the
  // MirroredMemory backend so the deployment story is uniform.
  net::MirrorTransport* transport = &mirror_;
  std::shared_ptr<const wal::GroupImage> image;
  if (wal_) {
    const auto it = recovery_.find(gid);
    if (it != recovery_.end()) image = it->second;
  }
  spec.memory_factory = [this, transport, gid, mask, image](
                            Layout layout, std::uint32_t n) {
    auto mem =
        std::make_unique<MirroredMemory>(std::move(layout), n, mask);
    if (mem->has_remote()) {
      MirroredMemory* raw = mem.get();
      transport->add_group(gid, raw);
      // Unregister before the cells die: a log retired at runtime must
      // never leave the transport's push path a dangling pointer (the
      // transport outlives every group by SmrNode's member order).
      raw->set_teardown(
          [transport, gid] { transport->remove_group(gid); });
      raw->set_write_observer(
          [transport, gid, raw](Cell c, std::uint64_t v) {
            if (raw->should_push(c)) transport->on_local_write(gid, c, v);
          });
    }
    if (wal_) {
      std::lock_guard<std::mutex> lock(floors_mu_);
      floors_[gid] = wal::durable_floor(mem->layout());
    }
    if (image) {
      // Replay the recovered registers through the push observer (they
      // mark dirty bits, so the reconnect snapshot re-publishes them to
      // peers) — but BEFORE LogGroup::attach wraps in the WAL journaling
      // observer, so nothing is re-journaled.
      poke_recovered(*mem, *image);
    }
    return mem;
  };
  spec.mirror_live = [transport, this](ProcessId p) {
    return transport->peer_live(topo_.node_of(p));
  };
  spec.mirror_resync = [transport] { transport->force_resync(); };
  // The quorum probes serve two consumers: quorum_ack commit deferral
  // (WAL-gated) AND lease heartbeat confirmation (no WAL involved) — so
  // they are wired whenever the node runs, not only with durability on.
  spec.mirror_write_seq = [transport] { return transport->write_seq(); };
  {
    // Replica votes per remote node: node_of is the shared placement
    // rule, so each acked node contributes the replicas it hosts.
    std::unordered_map<std::uint32_t, std::uint32_t> weights;
    for (ProcessId p = 0; p < spec.n; ++p) {
      const std::uint32_t node = topo_.node_of(p);
      if (node != topo_.self) ++weights[node];
    }
    spec.mirror_acked_votes =
        [transport, weights = std::move(weights)](std::uint64_t mark) {
          std::vector<std::pair<std::uint32_t, std::uint64_t>> marks;
          transport->acked_marks(marks);
          std::uint32_t votes = 0;
          for (const auto& [node, wseq] : marks) {
            if (wseq < mark) continue;
            const auto it = weights.find(node);
            if (it != weights.end()) votes += it->second;
          }
          return votes;
        };
  }
  if (wal_) {
    spec.wal = wal_.get();
    spec.recovery = image;
  }
  smr_.add_log(gid, spec);
}

void SmrNode::start() {
  OMEGA_CHECK(!started_, "start() called twice");
  started_ = true;
  if (wal_) wal_->start();
  mirror_.start();
  svc_.start();
  server_->start();
}

void SmrNode::stop() {
  if (!started_) return;
  // Server first (stops serving + uninstalls listeners), then the worker
  // pool (stops stepping — and with it every write-observer call), then
  // the WAL (final drain + fsync; its durable listener may still release
  // acks into the running mirror loop and wake logs), then the mirror
  // streams (whose ack listener wakes logs too). Both listeners reach
  // into smr_ and svc_, which outlive this call; once the WAL flusher
  // and the mirror loop have joined, nothing can invoke them again.
  server_->stop();
  svc_.stop();
  if (wal_) wal_->stop();
  mirror_.stop();
  started_ = false;
}

}  // namespace omega::smr
