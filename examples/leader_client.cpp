// Leader client: the network front-end (src/net) end to end.
//
//   $ ./example_leader_client
//
// A production lease manager is consumed over the network: clients ask
// "who leads group G?" over TCP, cache the answer with its epoch as a
// fencing token, and hold a WATCH open instead of polling for changes.
// This example runs the whole stack in one process — a 16-group service on
// a 2-worker pool, the epoll LeaderServer on a loopback port, and a
// blocking net::Client — then crashes a leader and shows the fail-over
// arriving as a pushed EVENT frame while the client sends nothing.
#include <iostream>

#include "common/table.h"
#include "net/client.h"
#include "net/leader_server.h"

int main() {
  using namespace omega;
  constexpr svc::GroupId kGroups = 16;

  std::cout << banner("leader queries and epoch watches over TCP",
                      {"16 groups x (n=3, fig2-write-efficient), 2 workers",
                       "epoll LeaderServer on loopback; blocking net::Client"});

  // 1. Service + server. The server binds an ephemeral loopback port at
  //    construction and starts pushing watch events once start()ed.
  svc::SvcConfig cfg;
  cfg.workers = 2;
  cfg.tick_us = 500;
  cfg.pace_us = 50;  // plays nice on small machines
  svc::MultiGroupLeaderService service(cfg);
  for (svc::GroupId gid = 0; gid < kGroups; ++gid) service.add_group(gid);
  net::LeaderServer server(service, net::NetConfig{});
  server.start();
  service.start();
  std::cout << "server listening on 127.0.0.1:" << server.port() << "\n\n";

  for (svc::GroupId gid = 0; gid < kGroups; ++gid) {
    if (service.await_leader(gid, 30000000) == kNoProcess) {
      std::cout << "group " << gid << " never settled (overloaded box?)\n";
      return 1;
    }
  }

  // 2. A client connects and reads the leader table over the wire. Each
  //    answer carries the fencing epoch.
  net::Client client;
  client.connect("127.0.0.1", server.port());
  AsciiTable table({"group", "leader", "epoch"});
  for (svc::GroupId gid = 0; gid < 6; ++gid) {  // first rows suffice
    const net::Client::Result r = client.leader(gid);
    if (!r.ok()) {
      std::cout << "query for group " << gid << " failed\n";
      return 1;
    }
    table.add_row({"group-" + std::to_string(gid),
                   "p" + std::to_string(r.view.leader),
                   std::to_string(r.view.epoch)});
  }
  std::cout << table.render() << "  ... (" << kGroups << " total)\n\n";

  // 3. Watch instead of polling: subscribe, then induce a fail-over. The
  //    client's only activity from here is blocking on its socket.
  const svc::GroupId watched = 4;
  const net::Client::Result snap = client.watch(watched);
  std::cout << "watching group-" << watched << ": leader p"
            << snap.view.leader << " at epoch " << snap.view.epoch << '\n';
  std::cout << "crashing p" << snap.view.leader << "...\n";
  service.crash(watched, snap.view.leader);

  for (;;) {
    const auto ev = client.next_event(/*timeout_ms=*/30000);
    if (!ev.has_value()) {
      std::cout << "no pushed event within 30s\n";
      return 1;
    }
    std::cout << "  pushed: group-" << ev->gid << " epoch " << ev->view.epoch
              << " leader "
              << (ev->view.leader == kNoProcess
                      ? std::string("(none)")
                      : "p" + std::to_string(ev->view.leader))
              << '\n';
    if (ev->view.leader != kNoProcess &&
        ev->view.leader != snap.view.leader) {
      std::cout << "fail-over observed purely via push: p" << snap.view.leader
                << " -> p" << ev->view.leader << "; any token from epoch "
                << snap.view.epoch << " is now stale\n\n";
      break;
    }
  }

  // 4. Server-side counters, over the wire as well: the METRICS scrape
  //    carries one net.frames.<type> counter per request type served.
  const net::Client::MetricsResult m = client.metrics();
  std::cout << "server frames served:";
  for (const obs::MetricSample& s : m.metrics) {
    if (s.name.rfind("net.frames.", 0) == 0 && s.value > 0) {
      std::cout << ' ' << s.name.substr(11) << '=' << s.value;
    }
  }
  std::cout << '\n';

  client.close();
  server.stop();
  service.stop();
  if (service.failed()) {
    std::cout << "model violation: " << service.failure_message() << '\n';
    return 1;
  }
  return 0;
}
