// follow_leader() against a live cluster of three forked nodes: an append
// stream holding the whole connection budget moves to the leader after a
// kNotLeader answer and after a SIGKILL of its node, and never opens a
// connection beyond the budget on the way.
#include <gtest/gtest.h>
#include <poll.h>

#include <filesystem>
#include <vector>

#include "cluster.h"
#include "streams.h"

namespace perfbench {
namespace {

/// Closed-loop appends on `s` until `more` further ones are acknowledged,
/// following the leader whenever the stream loses it. False on timeout
/// or when no leader is found.
bool append_more(AppendStream& s, const LogBook& book, const Cluster& cl,
                 Link& ctl, std::size_t more) {
  const std::size_t goal = book.acked.size() + more;
  const std::int64_t deadline = now_ns() + 20'000'000'000;
  while (book.acked.size() < goal && now_ns() < deadline) {
    std::vector<pollfd> fds;
    s.add_pollfds(fds);
    ::poll(fds.data(), fds.size(), 5);
    s.harvest(now_ns(), fds);
    if (s.lost_leader() && !follow_leader(s, cl, ctl, 10)) return false;
    s.pump(now_ns());
  }
  return book.acked.size() >= goal;
}

TEST(FollowLeader, MovesToTheLeaderWithinTheConnectionBudget) {
  const std::string dir = "follow_leader_test";
  {
    Cluster cl(dir);
    cl.start();
    Link ctl;
    const omega::ProcessId leader = find_leader(cl, ctl, 30);
    ASSERT_NE(leader, omega::kNoProcess);
    const std::uint32_t follower = (cl.node_of(leader) + 1) % kNodes;

    CommandDeck deck(1);
    LogBook book;
    Spans spans;
    Link l[kMaxConns];
    AppendStream s({&l[0], &l[1], &l[2], &l[3]}, 100, deck, book, spans);
    s.set_closed(true);

    // Every link at a follower: the appends are answered kNotLeader while
    // all four links stay open.
    s.connect(follower, cl.port(follower));
    ASSERT_TRUE(append_more(s, book, cl, ctl, 200));
    EXPECT_EQ(s.failed(), 0u);
    EXPECT_EQ(l[0].node(), cl.node_of(leader));

    // SIGKILL the stream's node: its links break, and the new leader is
    // asked for over the control link.
    cl.kill(l[0].node());
    ASSERT_TRUE(append_more(s, book, cl, ctl, 200));
    EXPECT_NE(l[0].node(), cl.node_of(leader));
    EXPECT_LE(max_open_conns(), kMaxConns);
    s.disconnect();
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace perfbench
