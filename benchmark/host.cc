// Host facts the benchmark needs: CPU affinity, the last-level cache size and
// a memcpy bandwidth ceiling.

#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/error.h"

namespace bench {

namespace {

std::string read_line(const std::string& path) {
  std::ifstream in(path);
  std::string s;
  std::getline(in, s);
  return s;
}

/// "307200K" / "2048K" / "32M" -> bytes; 0 when unparseable.
std::size_t parse_size(const std::string& s) {
  std::size_t i = 0;
  std::size_t v = 0;
  while (i < s.size() && s[i] >= '0' && s[i] <= '9')
    v = v * 10 + static_cast<std::size_t>(s[i++] - '0');
  if (i == 0) return 0;
  if (i < s.size() && (s[i] == 'K' || s[i] == 'k')) return v << 10;
  if (i < s.size() && (s[i] == 'M' || s[i] == 'm')) return v << 20;
  return v;
}

/// Split [0, bytes) into `threads` slices and run fn(lo, hi) on each.
template <typename F>
void parallel_slices(std::size_t bytes, int threads, F&& fn) {
  std::vector<std::thread> pool;
  const std::size_t step = bytes / static_cast<std::size_t>(threads);
  for (int t = 0; t < threads; ++t) {
    const std::size_t lo = step * static_cast<std::size_t>(t);
    const std::size_t hi = t + 1 == threads ? bytes : lo + step;
    pool.emplace_back([&fn, lo, hi] { fn(lo, hi); });
  }
  for (std::thread& th : pool) th.join();
}

}  // namespace

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  BX_CHECK(sched_getaffinity(0, sizeof set, &set) == 0,
           "sched_getaffinity failed");
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  BX_CHECK(!cpus.empty(), "empty CPU affinity mask");
  return cpus;
}

void pin_to_cpu(int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  BX_CHECK(sched_setaffinity(0, sizeof set, &set) == 0,
           "sched_setaffinity failed");
}

std::size_t llc_bytes() {
  const std::string base = "/sys/devices/system/cpu/cpu0/cache/index";
  int best_level = 0;
  std::size_t best = 0;
  for (int i = 0; i < 16; ++i) {
    const std::string dir = base + std::to_string(i) + "/";
    const std::string level = read_line(dir + "level");
    if (level.empty()) break;
    if (read_line(dir + "type") == "Instruction") continue;
    const int lv = std::atoi(level.c_str());
    if (lv >= best_level) {
      best_level = lv;
      best = parse_size(read_line(dir + "size"));
    }
  }
  return best;
}

CopyCeiling measure_copy(std::size_t buffer_bytes, int threads) {
  CopyCeiling c;
  c.threads = std::max(1, threads);
  c.buffer_bytes = buffer_bytes;
  c.llc_bytes = llc_bytes();
  std::unique_ptr<char[]> src(new char[buffer_bytes]);
  std::unique_ptr<char[]> dst(new char[buffer_bytes]);
  // First touch in parallel, so page faults stay out of the timed copies.
  parallel_slices(buffer_bytes, c.threads, [&](std::size_t lo, std::size_t hi) {
    std::memset(src.get() + lo, 1, hi - lo);
    std::memset(dst.get() + lo, 0, hi - lo);
  });
  const double traffic = 2.0 * static_cast<double>(buffer_bytes);
  for (int round = 0; round < 3; ++round) {
    double t0 = now_s();
    std::memcpy(dst.get(), src.get(), buffer_bytes);
    c.gbps_1t = std::max(c.gbps_1t, traffic / (now_s() - t0) / 1e9);
    t0 = now_s();
    parallel_slices(buffer_bytes, c.threads,
                    [&](std::size_t lo, std::size_t hi) {
                      std::memcpy(dst.get() + lo, src.get() + lo, hi - lo);
                    });
    c.gbps_mt = std::max(c.gbps_mt, traffic / (now_s() - t0) / 1e9);
  }
  return c;
}

}  // namespace bench
