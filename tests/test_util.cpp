// Tests for utility components (RNG, statistics, CSV, thread pool).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "util/csv.hpp"
#include "util/rng.hpp"
#include "util/sha256.hpp"
#include "util/stats.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace mvf::util {
namespace {

TEST(Rng, DeterministicForSeed) {
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i) {
        if (a.next_u64() == b.next_u64()) ++same;
    }
    EXPECT_EQ(same, 0);
}

TEST(Rng, UniformIntStaysInRange) {
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const int v = rng.uniform_int(-3, 9);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 9);
    }
}

TEST(Rng, UniformIntCoversRange) {
    Rng rng(11);
    std::vector<int> counts(6, 0);
    for (int i = 0; i < 6000; ++i) ++counts[static_cast<std::size_t>(rng.uniform_int(0, 5))];
    for (const int c : counts) {
        EXPECT_GT(c, 800);  // roughly uniform
        EXPECT_LT(c, 1200);
    }
}

TEST(Rng, UniformRealInUnitInterval) {
    Rng rng(13);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniform_real();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, CoinMatchesProbability) {
    Rng rng(17);
    int heads = 0;
    for (int i = 0; i < 20000; ++i) heads += rng.coin(0.3);
    EXPECT_NEAR(heads / 20000.0, 0.3, 0.02);
}

TEST(Rng, PermutationIsValidAndVaried) {
    Rng rng(19);
    std::vector<int> first = rng.permutation(10);
    std::vector<bool> seen(10, false);
    for (const int x : first) {
        ASSERT_GE(x, 0);
        ASSERT_LT(x, 10);
        EXPECT_FALSE(seen[static_cast<std::size_t>(x)]);
        seen[static_cast<std::size_t>(x)] = true;
    }
    bool any_different = false;
    for (int t = 0; t < 10; ++t) {
        if (rng.permutation(10) != first) any_different = true;
    }
    EXPECT_TRUE(any_different);
}

TEST(Rng, SplitGivesIndependentStream) {
    Rng a(23);
    Rng child = a.split();
    EXPECT_NE(a.next_u64(), child.next_u64());
}

TEST(RunningStats, MeanVarianceMinMax) {
    RunningStats s;
    for (const double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStats, EmptyIsZero) {
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Histogram, BinningAndClamping) {
    Histogram h(0.0, 10.0, 5);
    h.add(0.5);   // bin 0
    h.add(3.0);   // bin 1
    h.add(9.99);  // bin 4
    h.add(-5.0);  // clamps to bin 0
    h.add(42.0);  // clamps to bin 4
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.bin_count(0), 2u);
    EXPECT_EQ(h.bin_count(1), 1u);
    EXPECT_EQ(h.bin_count(4), 2u);
    EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
    EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
    const std::string render = h.render(20);
    EXPECT_NE(render.find('#'), std::string::npos);
}

TEST(Csv, WritesAndEscapes) {
    const std::string path = ::testing::TempDir() + "/mvf_csv_test.csv";
    {
        CsvWriter w(path);
        ASSERT_TRUE(w.ok());
        w.write_row({"name", "value, with comma", "quote\"inside"});
        w.write_row({CsvWriter::field(1.5), CsvWriter::field(42),
                     CsvWriter::field(std::size_t{7})});
    }
    std::ifstream in(path);
    std::string line1;
    std::string line2;
    std::getline(in, line1);
    std::getline(in, line2);
    EXPECT_EQ(line1, "name,\"value, with comma\",\"quote\"\"inside\"");
    EXPECT_EQ(line2, "1.5,42,7");
    std::remove(path.c_str());
}

TEST(Stopwatch, MeasuresElapsedTime) {
    Stopwatch sw;
    volatile double sink = 0;
    for (int i = 0; i < 100000; ++i) sink += std::sqrt(static_cast<double>(i));
    const double ms = sw.elapsed_ms();
    EXPECT_GT(ms, 0.0);
    // elapsed_* keeps advancing monotonically.
    EXPECT_GE(sw.elapsed_ms(), ms);
    const double before = sw.elapsed_seconds();
    sw.reset();
    EXPECT_LE(sw.elapsed_seconds(), before + 1.0);
}

TEST(ThreadPool, ShardedSubmissionRunsEveryTask) {
    ThreadPool pool(3);
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futures;
    for (std::size_t i = 0; i < 64; ++i) {
        futures.push_back(pool.submit_sharded(i, [&ran] { ++ran; }));
    }
    for (std::future<void>& f : futures) f.get();
    EXPECT_EQ(ran.load(), 64);
    pool.wait_idle();
}

TEST(ThreadPool, ShardedAndSharedQueuesCoexist) {
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futures;
    for (std::size_t i = 0; i < 16; ++i) {
        futures.push_back(pool.submit_sharded(i, [&ran] { ++ran; }));
        futures.push_back(pool.submit([&ran] { ++ran; }));
    }
    for (std::future<void>& f : futures) f.get();
    EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, IdleWorkersStealFromALoadedShard) {
    // Pile every task onto shard 0 of a multi-worker pool; the only way
    // the other workers contribute (and steals() moves) is by stealing
    // from shard 0's deque.  Tasks block until all workers participate
    // would be flaky -- instead make them slow enough that one worker
    // alone cannot drain the deque before an idle neighbour grabs some.
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 32; ++i) {
        futures.push_back(pool.submit_sharded(0, [&ran] {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            ++ran;
        }));
    }
    for (std::future<void>& f : futures) f.get();
    EXPECT_EQ(ran.load(), 32);
    EXPECT_GT(pool.steals(), 0u);
}

TEST(ThreadPool, RunOneExecutesAPendingTaskOnTheCallingThread) {
    // Park the only worker behind a gate, then drain the queue from the
    // caller: run_one must execute pending tasks on the calling thread and
    // report false (without blocking) once every queue is empty.
    ThreadPool pool(1);
    std::promise<void> gate;
    std::atomic<bool> parked{false};
    std::future<void> blocker =
        pool.submit([&parked, f = gate.get_future().share()] {
            parked = true;
            f.wait();
        });
    // Make sure the WORKER holds the blocker (not us, below, via run_one).
    while (!parked.load()) std::this_thread::yield();

    std::thread::id ran_on;
    std::future<void> task =
        pool.submit([&ran_on] { ran_on = std::this_thread::get_id(); });
    // The worker is parked, so the task can only run through run_one.
    EXPECT_TRUE(pool.run_one());
    task.get();
    EXPECT_EQ(ran_on, std::this_thread::get_id());
    EXPECT_FALSE(pool.run_one());  // queues empty again

    gate.set_value();
    blocker.get();
}

TEST(ThreadPool, NestedSubmissionWithHelpingWaitDoesNotDeadlock) {
    // The deadlock regression: tasks submitting subtasks to their OWN pool
    // and waiting on them.  With blocking future::get every worker ends up
    // waiting for queued subtasks no thread is free to run; the helping-
    // wait loop (run_one until ready) keeps them flowing on the waiters'
    // threads instead.  More outer tasks than workers makes the naive
    // version deadlock deterministically.
    ThreadPool pool(2);
    std::atomic<int> inner_ran{0};
    const auto helping_get = [&pool](std::future<void>& f) {
        while (f.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready) {
            if (!pool.run_one()) std::this_thread::yield();
        }
        f.get();
    };

    std::vector<std::future<void>> outers;
    for (int o = 0; o < 6; ++o) {
        outers.push_back(pool.submit([&] {
            std::vector<std::future<void>> inners;
            for (int i = 0; i < 4; ++i) {
                inners.push_back(pool.submit([&inner_ran] { ++inner_ran; }));
            }
            for (std::future<void>& f : inners) helping_get(f);
        }));
    }
    for (std::future<void>& f : outers) helping_get(f);
    EXPECT_EQ(inner_ran.load(), 24);
}

TEST(ThreadPool, ShardedTaskExceptionsPropagateThroughTheFuture) {
    ThreadPool pool(2);
    std::future<void> bad =
        pool.submit_sharded(1, [] { throw std::runtime_error("boom"); });
    EXPECT_THROW(bad.get(), std::runtime_error);
    // The worker survives the throwing task.
    std::atomic<bool> ran{false};
    pool.submit_sharded(1, [&ran] { ran = true; }).get();
    EXPECT_TRUE(ran.load());
}

TEST(ParallelFor, RunsEveryIndexExactlyOnce) {
    for (const int threads : {1, 2, 4}) {
        ThreadPool pool(threads);
        for (const std::size_t count : {0, 1, 2, 7, 100}) {
            std::vector<std::atomic<int>> hits(count);
            parallel_for(pool, count, [&](std::size_t i) { ++hits[i]; });
            for (std::size_t i = 0; i < count; ++i) {
                EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
            }
        }
    }
}

TEST(ParallelFor, RethrowsAfterEveryClaimedItemFinished) {
    ThreadPool pool(3);
    std::atomic<int> running{0};
    EXPECT_THROW(parallel_for(pool, 64,
                              [&](std::size_t i) {
                                  ++running;
                                  std::this_thread::sleep_for(std::chrono::microseconds(200));
                                  --running;
                                  if (i == 5) throw std::runtime_error("boom");
                              }),
                 std::runtime_error);
    // Nothing still touches the caller's frame once the exception arrives.
    EXPECT_EQ(running.load(), 0);
    // The pool is still usable.
    std::atomic<int> ran{0};
    parallel_for(pool, 8, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 8);
}

TEST(ParallelFor, NestedInsideASaturatedPoolDoesNotDeadlock) {
    // Every worker runs an outer task that itself fans out on the same
    // pool: the callers' helping-wait keeps the inner batches moving.
    ThreadPool pool(2);
    std::atomic<int> inner{0};
    std::vector<std::future<void>> outers;
    for (int o = 0; o < 5; ++o) {
        outers.push_back(pool.submit([&] {
            parallel_for(pool, 10, [&](std::size_t) { ++inner; });
        }));
    }
    for (std::future<void>& f : outers) f.get();
    EXPECT_EQ(inner.load(), 50);
}

// NIST FIPS 180-4 test vectors (plus the standard one-million-'a' vector
// from the SHA byte-test suite).
TEST(Sha256, FipsVectors) {
    EXPECT_EQ(
        sha256_hex(""),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(
        sha256_hex("abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(
        sha256_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
    EXPECT_EQ(
        sha256_hex(std::string(1'000'000, 'a')),
        "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, BlockBoundaryLengths) {
    // The padding logic changes shape at 55/56 bytes (length field fits /
    // spills into a second block) and again at whole-block multiples;
    // cross-check the streaming API against the one-shot digest at each.
    for (const std::size_t len : {0u, 1u, 55u, 56u, 57u, 63u, 64u, 65u, 119u,
                                  120u, 127u, 128u, 129u}) {
        const std::string msg(len, 'x');
        const std::string oneshot = sha256_hex(msg);
        // Stream it byte by byte: buffered partial blocks must compose.
        Sha256 h;
        for (const char c : msg) h.update(std::string_view(&c, 1));
        EXPECT_EQ(Sha256::hex(h.finish()), oneshot) << "length " << len;
    }
    // Known-answer pin for one boundary so the pair above cannot agree on
    // a shared bug: 64 'x' bytes (exactly one message block).
    EXPECT_EQ(
        sha256_hex(std::string(64, 'x')),
        "7ce100971f64e7001e8fe5a51973ecdfe1ced42befe7ee8d5fd6219506b5393c");
}

TEST(Sha256, StreamingSplitInvariance) {
    const std::string msg =
        "the quick brown fox jumps over the lazy dog, 0123456789";
    const std::string oneshot = sha256_hex(msg);
    for (std::size_t split = 0; split <= msg.size(); ++split) {
        Sha256 h;
        h.update(std::string_view(msg).substr(0, split));
        h.update(std::string_view(msg).substr(split));
        EXPECT_EQ(Sha256::hex(h.finish()), oneshot) << "split " << split;
    }
}

TEST(Sha256, ResetReusesTheInstance) {
    Sha256 h;
    h.update("garbage the reset must discard");
    h.reset();
    h.update("abc");
    EXPECT_EQ(
        Sha256::hex(h.finish()),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

}  // namespace
}  // namespace mvf::util
