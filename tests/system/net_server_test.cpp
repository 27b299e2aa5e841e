// End-to-end tests of the TCP front-end (src/net): a LeaderServer wired to
// a running MultiGroupLeaderService, exercised by blocking net::Clients
// over loopback — point queries, watches observing real fail-overs pushed
// through the epoch-listener seam, and protocol robustness against a
// misbehaving peer.
#include "net/leader_server.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <arpa/inet.h>

#include "net/client.h"

namespace omega::net {
namespace {

using svc::GroupId;
using svc::GroupSpec;
using svc::LeaderView;
using svc::MultiGroupLeaderService;
using svc::SvcConfig;

constexpr std::int64_t kAwaitUs = 30000000;  // generous: single-core CI box

SvcConfig small_pool(std::uint32_t workers) {
  SvcConfig cfg;
  cfg.workers = workers;
  cfg.tick_us = 500;
  cfg.wheel_slot_us = 256;
  cfg.wheel_slots = 128;
  cfg.ops_per_sweep = 8;
  // Leave CPU for the IO threads and clients: this box may be single-core.
  cfg.pace_us = 100;
  return cfg;
}

/// Service + server + one connected client, ready to query.
struct Rig {
  explicit Rig(std::uint32_t groups, std::uint32_t workers = 2,
               std::uint32_t io_threads = 1) {
    svc = std::make_unique<MultiGroupLeaderService>(small_pool(workers));
    for (GroupId gid = 0; gid < groups; ++gid) svc->add_group(gid);
    NetConfig net_cfg;
    net_cfg.io_threads = io_threads;
    server = std::make_unique<LeaderServer>(*svc, net_cfg);
    server->start();
    svc->start();
    for (GroupId gid = 0; gid < groups; ++gid) {
      EXPECT_NE(svc->await_leader(gid, kAwaitUs), kNoProcess)
          << "group " << gid << " never converged";
    }
    client.connect("127.0.0.1", server->port());
  }
  ~Rig() {
    client.close();
    server->stop();
    svc->stop();
  }

  std::unique_ptr<MultiGroupLeaderService> svc;
  std::unique_ptr<LeaderServer> server;
  Client client;
};

TEST(NetServer, LeaderQueriesMatchTheService) {
  Rig rig(/*groups=*/8);
  for (GroupId gid = 0; gid < 8; ++gid) {
    const Client::Result r = rig.client.leader(gid);
    ASSERT_TRUE(r.ok()) << "gid " << gid;
    EXPECT_EQ(r.gid, gid);
    EXPECT_NE(r.view.leader, kNoProcess);
    EXPECT_LT(r.view.leader, 3u);
    EXPECT_GE(r.view.epoch, 1u);
    // No crashes and already converged: the direct in-process read must
    // agree with what just crossed the wire.
    EXPECT_EQ(rig.svc->leader(gid), r.view);
  }
}

TEST(NetServer, UnknownGroupIsAnApplicationError) {
  Rig rig(/*groups=*/2);
  const Client::Result r = rig.client.leader(GroupId{999});
  EXPECT_EQ(r.status, Status::kUnknownGroup);
  EXPECT_EQ(r.gid, 999u);
  // The connection survives an application error.
  EXPECT_TRUE(rig.client.leader(GroupId{0}).ok());
  EXPECT_EQ(rig.client.watch(GroupId{999}).status, Status::kUnknownGroup);
}

TEST(NetServer, PingAndStats) {
  Rig rig(/*groups=*/4);
  rig.client.ping();
  EXPECT_GE(rig.server->stats().connections, 1u);
  EXPECT_EQ(rig.server->stats().queries, 0u);

  rig.client.leader(GroupId{1});
  EXPECT_GE(rig.server->stats().queries, 1u);
}

TEST(NetServer, WatchObservesFailoverWithoutPolling) {
  Rig rig(/*groups=*/4);
  const GroupId gid{1};
  const Client::Result snap = rig.client.watch(gid);
  ASSERT_TRUE(snap.ok());
  ASSERT_NE(snap.view.leader, kNoProcess);

  // Induce a leader change; the only thing the client does afterwards is
  // block on the socket — any event that arrives was pushed, not polled.
  rig.svc->crash(gid, snap.view.leader);

  // The group may pass through intermediate views (no-leader, then the
  // new leader); every hop must carry a strictly larger epoch.
  std::uint64_t last_epoch = snap.view.epoch;
  for (;;) {
    const auto ev = rig.client.next_event(/*timeout_ms=*/30000);
    ASSERT_TRUE(ev.has_value()) << "no pushed event within the deadline";
    EXPECT_EQ(ev->gid, gid);
    EXPECT_GT(ev->view.epoch, last_epoch)
        << "every pushed transition must bump the fencing epoch";
    last_epoch = ev->view.epoch;
    if (ev->view.leader != kNoProcess &&
        ev->view.leader != snap.view.leader) {
      break;  // fail-over observed
    }
  }
  EXPECT_GE(rig.server->stats().events, 1u);
}

TEST(NetServer, UnwatchStopsTheStream) {
  Rig rig(/*groups=*/2);
  const GroupId gid{0};
  ASSERT_TRUE(rig.client.watch(gid).ok());
  ASSERT_TRUE(rig.client.unwatch(gid).ok());
  // Drain anything pushed between watch and unwatch before inducing the
  // change the subscriber must NOT see.
  while (rig.client.next_event(200).has_value()) {
  }
  const LeaderView v = rig.svc->leader(gid);
  ASSERT_NE(v.leader, kNoProcess);
  rig.svc->crash(gid, v.leader);
  EXPECT_FALSE(rig.client.next_event(/*timeout_ms=*/1500).has_value())
      << "events after UNWATCH";
  EXPECT_EQ(rig.server->stats().watches, 0u);
}

TEST(NetServer, ManyClientsAcrossTwoLoops) {
  // Multiple connections land on different IO threads (round-robin) and
  // each gets correct answers and its own event stream.
  Rig rig(/*groups=*/6, /*workers=*/2, /*io_threads=*/2);
  constexpr int kClients = 6;
  std::vector<std::unique_ptr<Client>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<Client>());
    clients.back()->connect("127.0.0.1", rig.server->port());
  }
  const GroupId gid{3};
  std::uint64_t snap_epoch = 0;
  ProcessId old_leader = kNoProcess;
  for (auto& c : clients) {
    const Client::Result r = c->watch(gid);
    ASSERT_TRUE(r.ok());
    snap_epoch = r.view.epoch;
    old_leader = r.view.leader;
  }
  ASSERT_NE(old_leader, kNoProcess);
  rig.svc->crash(gid, old_leader);

  // Every watcher independently observes the fail-over.
  for (auto& c : clients) {
    std::uint64_t epoch = snap_epoch;
    for (;;) {
      const auto ev = c->next_event(30000);
      ASSERT_TRUE(ev.has_value());
      epoch = ev->view.epoch;
      if (ev->view.leader != kNoProcess && ev->view.leader != old_leader) {
        break;
      }
    }
    EXPECT_GT(epoch, snap_epoch);
  }
  EXPECT_GE(rig.server->stats().accepted, kClients + 1u);
}

TEST(NetServer, QueriesInterleaveWithWatchTraffic) {
  // A connection holding a watch can still issue point queries; pushed
  // events arriving mid-call are queued, not lost, and responses still
  // match their request ids.
  Rig rig(/*groups=*/3);
  ASSERT_TRUE(rig.client.watch(GroupId{0}).ok());
  const LeaderView v = rig.svc->leader(GroupId{0});
  rig.svc->crash(GroupId{0}, v.leader);
  // Hammer queries on other groups while the fail-over events stream in.
  for (int i = 0; i < 200; ++i) {
    const Client::Result r =
        rig.client.leader(static_cast<GroupId>(1 + (i % 2)));
    ASSERT_TRUE(r.ok());
  }
  // The events were queued behind the responses.
  const auto ev = rig.client.next_event(30000);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->gid, 0u);
}

TEST(NetServer, MalformedBytesCloseTheConnection) {
  Rig rig(/*groups=*/1);
  // Raw socket, no protocol: announce an absurd frame length.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(rig.server->port());
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr),
            0);
  const std::uint8_t garbage[8] = {0xff, 0xff, 0xff, 0xff,
                                   0x00, 0x01, 0x02, 0x03};
  ASSERT_EQ(::send(fd, garbage, sizeof garbage, 0),
            static_cast<ssize_t>(sizeof garbage));
  // The server must hang up on us (read returns 0 = orderly close).
  char buf[16];
  const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
  EXPECT_EQ(n, 0) << "server kept a corrupt connection open";
  ::close(fd);

  // And the healthy client is unaffected.
  EXPECT_TRUE(rig.client.leader(GroupId{0}).ok());
  EXPECT_GE(rig.server->stats().protocol_errors, 1u);
}

TEST(NetServer, WatchSurvivesConnectionChurn) {
  // Closing a watching connection cleans its subscriptions up server-side;
  // the next epoch change must not crash delivery or leak watch counts.
  Rig rig(/*groups=*/2);
  {
    Client ephemeral;
    ephemeral.connect("127.0.0.1", rig.server->port());
    ASSERT_TRUE(ephemeral.watch(GroupId{0}).ok());
    ASSERT_TRUE(ephemeral.watch(GroupId{1}).ok());
    ephemeral.close();
  }
  // Give the server a moment to observe the close.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (rig.server->stats().watches != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(rig.server->stats().watches, 0u);

  const LeaderView v = rig.svc->leader(GroupId{0});
  rig.svc->crash(GroupId{0}, v.leader);  // delivery to nobody must be safe
  EXPECT_TRUE(rig.client.leader(GroupId{1}).ok());
}

}  // namespace
}  // namespace omega::net
