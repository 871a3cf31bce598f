// Runtime::park is the one place a rank blocks. These tests pin what it
// promises: a job whose live ranks are all parked fails fast with a
// DeadlockError naming every wait (where it used to hang), a rank's own
// failure still outranks that diagnosis, blocking outside simmpi is not
// parking, and a parked rank is woken only by the message it waits on.

#include <gtest/gtest.h>

#include <chrono>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.h"
#include "simmpi/comm.h"

namespace brickx::mpi {
namespace {

using Clock = std::chrono::steady_clock;

/// Run `body` on `n` ranks, expect a DeadlockError within one second, and
/// return its message.
std::string deadlock_of(int n, const std::function<void(Comm&)>& body) {
  Runtime rt(n, NetModel{});
  const auto t0 = Clock::now();
  std::string what;
  try {
    rt.run(body);
    ADD_FAILURE() << "run completed without a DeadlockError";
  } catch (const DeadlockError& e) {
    what = e.what();
  }
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(1));
  // The runtime is clean for the next job.
  rt.run([](Comm& c) { c.barrier(); });
  return what;
}

TEST(Deadlock, WrongTagThenBarrier) {
  // Rank 0 waits on tag 5, rank 1 sends tag 6 and goes on to the barrier.
  const std::string what = deadlock_of(2, [](Comm& c) {
    int x = 1;
    if (c.rank() == 0)
      c.recv(&x, sizeof x, 1, 5);
    else
      c.send(&x, sizeof x, 0, 6);
    c.barrier();
  });
  EXPECT_NE(what.find("rank 0 waits on (src=1, tag=5, part=-1)"),
            std::string::npos)
      << what;
  EXPECT_NE(what.find("rank 1 waits in collective #0"), std::string::npos)
      << what;
}

TEST(Deadlock, ReceiveFromAFinishedRank) {
  const std::string what = deadlock_of(3, [](Comm& c) {
    if (c.rank() != 0) return;
    int x = 0;
    c.recv(&x, sizeof x, 2, 9);
  });
  EXPECT_NE(what.find("rank 0 waits on (src=2, tag=9, part=-1)"),
            std::string::npos)
      << what;
  EXPECT_EQ(what.find("rank 1"), std::string::npos) << what;
}

TEST(Deadlock, PartitionItsSenderNeverReadied) {
  // The sender readies partitions 0 and 2 of three and returns; the
  // receiver's wait consumes partition 0 and parks on partition 1.
  const std::string what = deadlock_of(2, [](Comm& c) {
    std::vector<int> buf(3, c.rank());
    if (c.rank() == 1) {
      Partitioned p = c.psend_init(buf.data(), sizeof(int) * 3, 0, 4, 3);
      p.start();
      p.pready(0);
      p.pready(2);
    } else {
      Partitioned p = c.precv_init(buf.data(), sizeof(int) * 3, 1, 4, 3);
      p.start();
      p.wait();
    }
  });
  EXPECT_NE(what.find("rank 0 waits on (src=1, tag=4, part=1)"),
            std::string::npos)
      << what;
}

TEST(Deadlock, RankSkipsABarrier) {
  // Everyone meets at collective #0; rank 2 leaves before collective #1.
  const std::string what = deadlock_of(3, [](Comm& c) {
    c.barrier();
    if (c.rank() != 2) c.barrier();
  });
  EXPECT_NE(what.find("rank 0 waits in collective #1; rank 1 waits in "
                      "collective #1"),
            std::string::npos)
      << what;
  EXPECT_EQ(what.find("rank 2"), std::string::npos) << what;
}

TEST(Deadlock, ARanksOwnFailureStaysPrimary) {
  // Rank 0 parks on a message rank 1 never sends, because rank 1 throws:
  // the run reports rank 1's error, not the deadlock its teardown leaves.
  Runtime rt(3, NetModel{});
  try {
    rt.run([](Comm& c) {
      int x = 0;
      if (c.rank() == 0) c.recv(&x, sizeof x, 1, 0);
      if (c.rank() == 1) brickx::fail("rank 1 failed");
    });
    FAIL() << "run completed";
  } catch (const DeadlockError& e) {
    FAIL() << "deadlock masked the primary error: " << e.what();
  } catch (const AbortedError& e) {
    FAIL() << "teardown masked the primary error: " << e.what();
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 1 failed"), std::string::npos)
        << e.what();
  }
}

TEST(Deadlock, BlockingOutsideSimmpiIsNotParking) {
  // Rank 1 is busy outside simmpi while rank 0 is parked on it: live, not
  // parked, so the job is not deadlocked.
  Runtime rt(2, NetModel{});
  rt.run([](Comm& c) {
    int x = 7;
    if (c.rank() == 0) {
      c.recv(&x, sizeof x, 1, 0);
      EXPECT_EQ(x, 8);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      x = 8;
      c.send(&x, sizeof x, 0, 0);
    }
  });
}

TEST(ParkTally, ParkedReceiverWakesOnlyForItsMessage) {
  // Rank 1 sends 200 envelopes on tag 1, then one on tag 2. Rank 0 waits
  // for tag 2 first: none of the tag-1 deliveries may wake it.
  constexpr int kN = 200;
  Runtime rt(2, NetModel{});
  rt.run([](Comm& c) {
    if (c.rank() == 1) {
      for (int i = 0; i < kN; ++i) c.send(&i, sizeof i, 0, 1);
      const int last = -1;
      c.send(&last, sizeof last, 0, 2);
      return;
    }
    int v = 0;
    c.recv(&v, sizeof v, 1, 2);
    EXPECT_EQ(v, -1);
    for (int i = 0; i < kN; ++i) {
      c.recv(&v, sizeof v, 1, 1);
      ASSERT_EQ(v, i);
    }
  });
  const ParkTally& t = rt.park_tally(0);
  EXPECT_LE(t.parks, 1);
  EXPECT_LE(t.wakes, 1);
  EXPECT_EQ(t.wakes, t.parks);
  EXPECT_EQ(t.empty_wakes, 0);
  EXPECT_EQ(rt.park_tally(1).parks, 0);
}

TEST(ParkTally, CollectiveWakesEachParkedRankOnce) {
  constexpr int kRounds = 50;
  Runtime rt(6, NetModel{});
  rt.run([](Comm& c) {
    for (int i = 0; i < kRounds; ++i) c.barrier();
  });
  std::int64_t parks = 0;
  for (int r = 0; r < 6; ++r) {
    const ParkTally& t = rt.park_tally(r);
    EXPECT_LE(t.parks, kRounds);
    EXPECT_EQ(t.wakes, t.parks) << "rank " << r;
    EXPECT_EQ(t.empty_wakes, 0) << "rank " << r;
    parks += t.parks;
  }
  // The last arriver of each barrier never parks.
  EXPECT_LE(parks, 5 * kRounds);
}

}  // namespace
}  // namespace brickx::mpi
