#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "simmpi/comm.h"

namespace brickx::mpi {
namespace {

NetModel quiet() { return NetModel{}; }

TEST(P2P, PingPong) {
  Runtime rt(2, quiet());
  rt.run([](Comm& c) {
    std::vector<int> buf(16);
    if (c.rank() == 0) {
      std::iota(buf.begin(), buf.end(), 100);
      c.send(buf.data(), buf.size() * sizeof(int), 1, 7);
      c.recv(buf.data(), buf.size() * sizeof(int), 1, 8);
      for (int i = 0; i < 16; ++i) EXPECT_EQ(buf[i], 200 + i);
    } else {
      c.recv(buf.data(), buf.size() * sizeof(int), 0, 7);
      for (int i = 0; i < 16; ++i) EXPECT_EQ(buf[i], 100 + i);
      std::iota(buf.begin(), buf.end(), 200);
      c.send(buf.data(), buf.size() * sizeof(int), 0, 8);
    }
  });
}

TEST(P2P, EagerSendBufferReusableImmediately) {
  Runtime rt(2, quiet());
  rt.run([](Comm& c) {
    if (c.rank() == 0) {
      int x = 1;
      Request r1 = c.isend(&x, sizeof x, 1, 0);
      x = 2;  // must not affect the already-sent message
      Request r2 = c.isend(&x, sizeof x, 1, 1);
      c.wait(r1);
      c.wait(r2);
    } else {
      int a = 0, b = 0;
      c.recv(&a, sizeof a, 0, 0);
      c.recv(&b, sizeof b, 0, 1);
      EXPECT_EQ(a, 1);
      EXPECT_EQ(b, 2);
    }
  });
}

TEST(P2P, TagMatchingOutOfOrder) {
  Runtime rt(2, quiet());
  rt.run([](Comm& c) {
    if (c.rank() == 0) {
      int a = 11, b = 22;
      c.send(&a, sizeof a, 1, 100);
      c.send(&b, sizeof b, 1, 200);
    } else {
      int b = 0, a = 0;
      // Receive in reverse tag order; matching must pick by tag, not FIFO.
      c.recv(&b, sizeof b, 0, 200);
      c.recv(&a, sizeof a, 0, 100);
      EXPECT_EQ(a, 11);
      EXPECT_EQ(b, 22);
    }
  });
}

TEST(P2P, FifoPerSameTag) {
  Runtime rt(2, quiet());
  rt.run([](Comm& c) {
    constexpr int kN = 50;
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) c.send(&i, sizeof i, 1, 5);
    } else {
      for (int i = 0; i < kN; ++i) {
        int v = -1;
        c.recv(&v, sizeof v, 0, 5);
        EXPECT_EQ(v, i);  // same (src, tag) preserves order
      }
    }
  });
}

TEST(P2P, InterleavedSourcesTagsAndPartitionsKeepPerKeyOrder) {
  // Three senders interleave two tags and, midway, the two partitions of a
  // partitioned message on tag 0 (partition 1 first). Rank 0 drains the
  // sources and tags in reverse: every (src, tag, part) stream comes out
  // FIFO, and bulk receives on tag 0 never take a partition.
  constexpr int kN = 12;
  Runtime rt(4, quiet());
  rt.run([](Comm& c) {
    std::vector<int> parts = {c.rank() * 100 + 1, c.rank() * 100 + 2};
    if (c.rank() != 0) {
      Partitioned ps = c.psend_init(parts.data(), sizeof(int) * 2, 0, 0, 2);
      ps.start();
      for (int i = 0; i < kN; ++i) {
        const int v = c.rank() * 1000 + i;
        c.send(&v, sizeof v, 0, i % 2);
        if (i == kN / 2) ps.pready(1);
        if (i == kN / 2 + 1) ps.pready(0);
      }
      ps.wait();
      return;
    }
    for (int src = 3; src >= 1; --src) {
      Partitioned pr = c.precv_init(parts.data(), sizeof(int) * 2, src, 0, 2);
      pr.start();
      for (int tag = 1; tag >= 0; --tag)
        for (int i = tag; i < kN; i += 2) {
          int v = -1;
          c.recv(&v, sizeof v, src, tag);
          EXPECT_EQ(v, src * 1000 + i) << "src " << src << " tag " << tag;
        }
      pr.wait();
      EXPECT_EQ(parts[0], src * 100 + 1);
      EXPECT_EQ(parts[1], src * 100 + 2);
    }
  });
}

TEST(P2P, WaitallCompletesMixedRequests) {
  Runtime rt(2, quiet());
  rt.run([](Comm& c) {
    std::vector<double> out(8, 3.14), in(8, 0.0);
    std::vector<Request> reqs;
    const int peer = 1 - c.rank();
    reqs.push_back(c.irecv(in.data(), in.size() * 8, peer, 1));
    reqs.push_back(c.isend(out.data(), out.size() * 8, peer, 1));
    c.waitall(reqs);
    EXPECT_TRUE(reqs.empty());
    for (double v : in) EXPECT_EQ(v, 3.14);
  });
}

TEST(P2P, SelfSend) {
  Runtime rt(1, quiet());
  rt.run([](Comm& c) {
    int x = 42, y = 0;
    Request s = c.isend(&x, sizeof x, 0, 0);
    Request r = c.irecv(&y, sizeof y, 0, 0);
    c.wait(r);
    c.wait(s);
    EXPECT_EQ(y, 42);
  });
}

TEST(P2P, ZeroByteMessage) {
  Runtime rt(2, quiet());
  rt.run([](Comm& c) {
    if (c.rank() == 0) {
      c.send(nullptr, 0, 1, 9);
    } else {
      c.recv(nullptr, 0, 0, 9);
    }
  });
}

TEST(P2P, ManyRanksRing) {
  const int n = 16;
  Runtime rt(n, quiet());
  std::atomic<int> sum{0};
  rt.run([&](Comm& c) {
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    int token = c.rank(), got = -1;
    Request r = c.irecv(&got, sizeof got, prev, 0);
    Request s = c.isend(&token, sizeof token, next, 0);
    c.wait(r);
    c.wait(s);
    EXPECT_EQ(got, prev);
    sum += got;
  });
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
}

TEST(P2P, SizeMismatchThrows) {
  Runtime rt(2, quiet());
  EXPECT_THROW(rt.run([](Comm& c) {
    if (c.rank() == 0) {
      std::int64_t x = 1;
      c.send(&x, 8, 1, 0);
    } else {
      int y = 0;
      c.recv(&y, 4, 0, 0);  // wrong size
    }
  }),
               brickx::Error);
}

TEST(P2P, BadRankThrows) {
  Runtime rt(2, quiet());
  EXPECT_THROW(rt.run([](Comm& c) {
    int x = 0;
    c.send(&x, sizeof x, c.size(), 0);  // out of range on every rank
  }),
               brickx::Error);
}

TEST(P2P, AbortUnblocksPeers) {
  // Rank 1 throws; rank 0 is blocked in recv and must be released with an
  // error instead of deadlocking.
  Runtime rt(2, quiet());
  EXPECT_THROW(rt.run([](Comm& c) {
    if (c.rank() == 0) {
      int x = 0;
      c.recv(&x, sizeof x, 1, 0);  // never sent
    } else {
      brickx::fail("injected failure");
    }
  }),
               brickx::Error);
  // The runtime stays usable for a subsequent clean run.
  Runtime rt2(2, quiet());
  rt2.run([](Comm& c) { c.barrier(); });
}

TEST(P2P, CountersTrackTraffic) {
  Runtime rt(2, quiet());
  rt.run([](Comm& c) {
    if (c.rank() == 0) {
      char buf[100] = {};
      c.send(buf, 100, 1, 0);
      c.send(buf, 50, 1, 1);
      EXPECT_EQ(c.counters().msgs_sent, 2);
      EXPECT_EQ(c.counters().bytes_sent, 150);
    } else {
      char buf[100];
      c.recv(buf, 100, 0, 0);
      c.recv(buf, 50, 0, 1);
      EXPECT_EQ(c.counters().msgs_sent, 0);
    }
  });
  EXPECT_EQ(rt.final_counters(0).msgs_sent, 2);
  EXPECT_EQ(rt.final_counters(0).bytes_sent, 150);
}

}  // namespace
}  // namespace brickx::mpi
