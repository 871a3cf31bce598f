#include <gtest/gtest.h>

#include <atomic>
#include <exception>
#include <latch>
#include <thread>
#include <vector>

#include "simmpi/comm.h"

namespace brickx::mpi {
namespace {

TEST(Collectives, BarrierSynchronizesClocks) {
  Runtime rt(4, NetModel{});
  rt.run([](Comm& c) {
    // Stagger clocks, then barrier: all ranks must agree on a time >= the
    // maximum individual time.
    c.compute(0.001 * (c.rank() + 1));
    c.barrier();
    EXPECT_GE(c.clock().now(), 0.004);
    const double t = c.clock().now();
    const double tmax = c.allreduce_max(t);
    EXPECT_EQ(t, tmax);  // everyone left the barrier at the same vtime
  });
}

TEST(Collectives, AllreduceMaxAndSum) {
  Runtime rt(8, NetModel{});
  rt.run([](Comm& c) {
    EXPECT_EQ(c.allreduce_max(static_cast<double>(c.rank())), 7.0);
    EXPECT_EQ(c.allreduce_sum(static_cast<double>(c.rank())), 28.0);
    EXPECT_EQ(c.allreduce_sum(static_cast<std::int64_t>(c.rank() * 10)), 280);
  });
}

TEST(Collectives, AllgatherOrdersByRank) {
  Runtime rt(5, NetModel{});
  rt.run([](Comm& c) {
    auto vs = c.allgather(static_cast<double>(c.rank() * c.rank()));
    ASSERT_EQ(vs.size(), 5u);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(vs[static_cast<std::size_t>(i)], i * i);
  });
}

TEST(Collectives, BackToBackCollectivesDoNotCrosstalk) {
  Runtime rt(6, NetModel{});
  rt.run([](Comm& c) {
    for (int round = 0; round < 100; ++round) {
      const double v = c.rank() + round * 1000;
      auto vs = c.allgather(v);
      for (int r = 0; r < 6; ++r)
        ASSERT_EQ(vs[static_cast<std::size_t>(r)], r + round * 1000)
            << "round " << round;
    }
  });
}

TEST(Collectives, SingleRank) {
  Runtime rt(1, NetModel{});
  rt.run([](Comm& c) {
    c.barrier();
    EXPECT_EQ(c.allreduce_max(3.5), 3.5);
    EXPECT_EQ(c.allgather(1.0).size(), 1u);
  });
}

TEST(Collectives, RuntimeReusableAcrossRuns) {
  Runtime rt(3, NetModel{});
  std::atomic<int> total{0};
  for (int i = 0; i < 3; ++i) {
    rt.run([&](Comm& c) {
      c.barrier();
      total += c.rank();
    });
  }
  EXPECT_EQ(total.load(), 3 * 3);
}

TEST(Collectives, FailureInOneRuntimeDoesNotAbortAnother) {
  // Two jobs in one process (the tuner runs harness::run on a worker pool).
  // B is mid-run when A's rank throws; B's ranks then enter a barrier,
  // which must complete rather than see A's abort.
  Runtime a(2, NetModel{});
  Runtime b(2, NetModel{});
  std::latch b_running(2);
  std::latch a_failed(1);
  std::exception_ptr b_error;
  std::thread tb([&] {
    try {
      b.run([&](Comm& c) {
        b_running.count_down();
        a_failed.wait();
        c.barrier();
      });
    } catch (...) {
      b_error = std::current_exception();
    }
  });
  b_running.wait();
  EXPECT_THROW(a.run([](Comm& c) {
                 if (c.rank() == 0) throw brickx::Error("rank 0 failed");
                 c.barrier();
               }),
               brickx::Error);
  a_failed.count_down();
  tb.join();
  EXPECT_FALSE(b_error) << "runtime B was aborted by runtime A's failure";
}

}  // namespace
}  // namespace brickx::mpi
