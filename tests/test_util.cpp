// Tests for the utility substrate.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <thread>

#include "util/error.hpp"
#include "util/jsonl.hpp"
#include "util/name_table.hpp"
#include "util/options.hpp"
#include "util/prng.hpp"
#include "util/rss.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace gfre {
namespace {

TEST(ErrorHandling, AssertThrowsWithContext) {
  try {
    GFRE_ASSERT(1 == 2, "context " << 42);
    FAIL() << "assert did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(ErrorHandling, ParseErrorCarriesLocation) {
  const ParseError e("file.eqn", 12, "bad token");
  EXPECT_EQ(e.file(), "file.eqn");
  EXPECT_EQ(e.line(), 12);
  EXPECT_NE(std::string(e.what()).find("file.eqn:12"), std::string::npos);
}

TEST(Prng, DeterministicForSeed) {
  Prng a(123), b(123), c(124);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
  // Different seeds diverge (overwhelmingly likely).
  bool diverged = false;
  Prng a2(123);
  for (int i = 0; i < 10; ++i) {
    if (a2.next_u64() != c.next_u64()) diverged = true;
  }
  EXPECT_TRUE(diverged);
}

TEST(Prng, NextBelowIsInRangeAndCoversValues) {
  Prng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.next_below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(Prng, DoubleIsUnitInterval) {
  Prng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  // Busy-wait a tiny amount.
  volatile unsigned long long sink = 0;
  for (int i = 0; i < 100000; ++i) sink = sink + i;
  EXPECT_GT(t.seconds(), 0.0);
  EXPECT_NEAR(t.micros(), t.seconds() * 1e6, 1e3);
  const double before = t.seconds();
  t.reset();
  EXPECT_LE(t.seconds(), before + 1.0);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.parallel_for(100, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(
      pool.parallel_for(10,
                        [&](std::size_t i) {
                          if (i == 7) throw Error("boom");
                        }),
      Error);
}

TEST(ThreadPool, ParallelForDrainsAllTasksWhenOneThrows) {
  // Regression: parallel_for used to rethrow on the first failed future,
  // returning while later tasks (which capture `fn` by reference) were
  // still queued — a use-after-free the sanitizer job would flag.  All
  // tasks must run to completion before the exception surfaces.
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::size_t i) {
                                   if (i == 0) throw Error("early boom");
                                   // Give the throwing task a head start so
                                   // the old bug would reliably leave these
                                   // queued at rethrow time.
                                   std::this_thread::sleep_for(
                                       std::chrono::microseconds(50));
                                   ++ran;
                                 }),
               Error);
  EXPECT_EQ(ran.load(), 63) << "every non-throwing task must have run";
}

TEST(ThreadPool, ParallelForReportsFirstFailureByIndex) {
  ThreadPool pool(2);
  try {
    pool.parallel_for(8, [&](std::size_t i) {
      if (i == 3 || i == 6) throw Error("task " + std::to_string(i));
    });
    FAIL() << "expected an exception";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "task 3");
  }
}

TEST(ThreadPool, SubmittedTaskExceptionIsStoredNotTerminating) {
  // A throwing submitted task must surface through the future as a stored
  // exception_ptr — never std::terminate the process.
  ThreadPool pool(2);
  auto fut = pool.submit([] { throw Error("stored"); });
  EXPECT_THROW(fut.get(), Error);
}

TEST(ThreadPool, SingleWorkerStillWorks) {
  ThreadPool pool(1);
  std::atomic<int> counter{0};
  auto f1 = pool.submit([&] { ++counter; });
  auto f2 = pool.submit([&] { ++counter; });
  f1.get();
  f2.get();
  EXPECT_EQ(counter.load(), 2);
  EXPECT_EQ(pool.size(), 1u);
  EXPECT_THROW(ThreadPool(0), Error);
}

TEST(NameTable, DenseFirstSeenIds) {
  util::NameTable table;
  EXPECT_EQ(table.size(), 0u);
  const auto a = table.intern("a");
  const auto b = table.intern("b");
  const auto a_again = table.intern("a");
  EXPECT_EQ(a.id, 0u);
  EXPECT_TRUE(a.added);
  EXPECT_EQ(b.id, 1u);
  EXPECT_TRUE(b.added);
  EXPECT_EQ(a_again.id, 0u);
  EXPECT_FALSE(a_again.added);
  EXPECT_EQ(table.size(), 2u);
  EXPECT_EQ(table.name(0), "a");
  EXPECT_EQ(table.name(1), "b");
  EXPECT_EQ(table.find("b"), 1u);
}

TEST(NameTable, FindMisses) {
  util::NameTable table;
  EXPECT_EQ(table.find("a"), util::NameTable::kNone);  // empty table
  EXPECT_EQ(table.find(""), util::NameTable::kNone);
  table.intern("abc");
  EXPECT_EQ(table.find("ab"), util::NameTable::kNone);
  EXPECT_EQ(table.find("abcd"), util::NameTable::kNone);
  EXPECT_EQ(table.find("ABC"), util::NameTable::kNone);
  EXPECT_EQ(table.size(), 1u) << "find must not intern";
}

TEST(NameTable, ManyNamesSurviveRehashes) {
  // 200k names cross many doublings; every id stays put and every name
  // stays findable, including after the last rehash.
  constexpr std::uint32_t kCount = 200000;
  util::NameTable table;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    const auto [id, added] = table.intern("net_" + std::to_string(i));
    ASSERT_EQ(id, i);
    ASSERT_TRUE(added);
  }
  EXPECT_EQ(table.size(), kCount);
  for (std::uint32_t i = 0; i < kCount; ++i) {
    const std::string name = "net_" + std::to_string(i);
    ASSERT_EQ(table.find(name), i) << name;
    ASSERT_EQ(table.name(i), name);
    ASSERT_FALSE(table.intern(name).added);
  }
  EXPECT_EQ(table.find("net_" + std::to_string(kCount)),
            util::NameTable::kNone);
}

TEST(NameTable, EmptyAndNearDuplicateNames) {
  util::NameTable table;
  const char* names[] = {"", "a", "a ", " a", "A", "ab", "ba",
                         "n1", "n10", "n01", "a[0]", "a[00]"};
  for (const char* n : names) EXPECT_TRUE(table.intern(n).added) << n;
  // An embedded NUL is part of the name, not a terminator.
  const std::string with_nul("a\0b", 3);
  EXPECT_TRUE(table.intern(with_nul).added);
  EXPECT_EQ(table.find(with_nul), table.size() - 1);
  EXPECT_EQ(table.find(std::string_view("a\0c", 3)), util::NameTable::kNone);
  for (std::uint32_t id = 0; id < std::size(names); ++id) {
    EXPECT_EQ(table.find(names[id]), id) << names[id];
    EXPECT_EQ(table.name(id), names[id]);
  }
}

TEST(NameTable, CopiesAreIndependent) {
  util::NameTable original;
  for (int i = 0; i < 100; ++i) original.intern("x" + std::to_string(i));
  util::NameTable copy = original;
  EXPECT_EQ(copy.size(), 100u);
  EXPECT_EQ(copy.find("x42"), 42u);
  EXPECT_EQ(copy.intern("fresh").id, 100u);
  EXPECT_EQ(original.find("fresh"), util::NameTable::kNone);
  EXPECT_EQ(original.intern("other").id, 100u);
  EXPECT_EQ(copy.find("other"), util::NameTable::kNone);
  copy = original;
  EXPECT_EQ(copy.find("other"), 100u);
  EXPECT_EQ(copy.find("fresh"), util::NameTable::kNone);
}

TEST(TextTable, RendersAligned) {
  TextTable table({"m", "P(x)", "Runtime(s)"});
  table.add_row({"64", "x64+x21+x19+x4+1", "9.2"});
  table.add_row({"571", "x571+x10+x5+x2+1", "4089.9"});
  const std::string out = table.render("Table I");
  EXPECT_NE(out.find("Table I"), std::string::npos);
  EXPECT_NE(out.find("| m  "), std::string::npos);
  EXPECT_NE(out.find("x571"), std::string::npos);
  EXPECT_EQ(table.rows(), 2u);
  // All lines equally wide (alignment check).
  std::size_t width = 0;
  std::istringstream iss(out);
  std::string line;
  std::getline(iss, line);  // title
  while (std::getline(iss, line)) {
    if (width == 0) width = line.size();
    EXPECT_EQ(line.size(), width) << line;
  }
}

TEST(TextTable, RowWidthValidated) {
  TextTable table({"a", "b"});
  EXPECT_THROW(table.add_row({"only-one"}), Error);
}

TEST(Formatting, Numbers) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_double(4089.9, 1), "4089.9");
  EXPECT_EQ(fmt_int(-42), "-42");
  EXPECT_EQ(fmt_thousands(0), "0");
  EXPECT_EQ(fmt_thousands(999), "999");
  EXPECT_EQ(fmt_thousands(21814), "21,814");
  EXPECT_EQ(fmt_thousands(1628170), "1,628,170");
}

TEST(Formatting, Bytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(37ull << 20), "37 MB");
  EXPECT_EQ(format_bytes((1ull << 30) + (1ull << 29)), "1.5 GB");
}

TEST(Rss, CurrentRssIsPositiveOnLinux) {
  // This container provides VmRSS; if the platform does not, 0 is the
  // documented fallback.
  const auto rss = current_rss_bytes();
  if (rss != 0) {
    EXPECT_GT(rss, 1024u * 1024u) << "a running process uses > 1 MB";
  }
}

// -- JSONL ------------------------------------------------------------------

/// Extracts the rendered value of a single-field JsonLine: '{"k": VALUE}'.
std::string rendered_value(const JsonLine& line) {
  const std::string text = line.render();
  const auto colon = text.find(": ");
  EXPECT_NE(colon, std::string::npos) << text;
  return text.substr(colon + 2, text.size() - colon - 3);
}

TEST(Jsonl, DoublesRoundTripBitExact) {
  // The writer used "%.9g", which drops up to 24 mantissa bits — a timing
  // re-read from a JSONL report disagreed with the run that wrote it.
  // Shortest-round-trip formatting must reproduce every value exactly.
  const double cases[] = {
      0.0,
      1.0 / 3.0,
      0.1,
      6.62607015e-34,
      -1.7976931348623157e308,  // DBL_MAX, negated
      5e-324,                   // smallest denormal
      9007199254740991.0,       // 2^53 - 1
      123456.78901234567,
      1.0000000000000002,       // 1 + ulp
  };
  for (const double value : cases) {
    JsonLine line;
    line.add("v", value);
    const std::string text = rendered_value(line);
    char* end = nullptr;
    const double parsed = std::strtod(text.c_str(), &end);
    EXPECT_EQ(end, text.c_str() + text.size()) << "'" << text << "'";
    EXPECT_EQ(parsed, value) << "'" << text << "' is not round-trip exact";
  }
}

TEST(Jsonl, EscapesControlAndQuoteCharacters) {
  JsonLine line;
  line.add("v", std::string("a\"b\\c\n\t\r\x01\x1f") + '\0' + "z");
  EXPECT_EQ(rendered_value(line),
            "\"a\\\"b\\\\c\\n\\t\\r\\u0001\\u001f\\u0000z\"");
  // Keys are escaped with the same rules.
  JsonLine key_line;
  key_line.add("k\n", std::size_t{1});
  EXPECT_EQ(key_line.render(), "{\"k\\n\": 1}");
}

TEST(Jsonl, WriterRoundTripsThroughAFile) {
  const std::string path = ::testing::TempDir() + "jsonl_roundtrip.jsonl";
  const double wall = 0.12345678901234567;
  {
    JsonlWriter writer(path);
    JsonLine line;
    line.add("name", "job \"quoted\"\n");
    line.add("ok", true);
    line.add("wall_s", wall);
    writer.write(line);
    writer.close();
    EXPECT_TRUE(writer.ok());
    EXPECT_EQ(writer.lines_written(), 1u);
  }
  std::ifstream in(path);
  std::string text;
  ASSERT_TRUE(std::getline(in, text));
  EXPECT_EQ(text.find('\n'), std::string::npos);
  EXPECT_NE(text.find("\"name\": \"job \\\"quoted\\\"\\n\""),
            std::string::npos)
      << text;
  // The written double parses back to the identical value.
  const auto key = text.find("\"wall_s\": ");
  ASSERT_NE(key, std::string::npos);
  EXPECT_EQ(std::strtod(text.c_str() + key + 10, nullptr), wall);
  std::remove(path.c_str());
  EXPECT_THROW(JsonlWriter("/no/such/dir/report.jsonl"), Error);
}

TEST(Options, EnvParsing) {
  ::setenv("GFRE_TEST_UINT", "42", 1);
  EXPECT_EQ(env_uint("GFRE_TEST_UINT", 7), 42u);
  // Junk, a sign or a value out of range is an error naming the
  // variable, never a silent fallback.
  for (const char* junk : {"not-a-number", "12abc", "-1", " 5"}) {
    ::setenv("GFRE_TEST_UINT", junk, 1);
    try {
      env_uint("GFRE_TEST_UINT", 7);
      ADD_FAILURE() << "accepted '" << junk << "'";
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find("GFRE_TEST_UINT"),
                std::string::npos)
          << e.what();
    }
  }
  ::setenv("GFRE_TEST_UINT", "0", 1);
  EXPECT_THROW(env_uint("GFRE_TEST_UINT", 7, 1, 1000), InvalidArgument);
  ::setenv("GFRE_TEST_UINT", "", 1);
  EXPECT_EQ(env_uint("GFRE_TEST_UINT", 7), 7u);
  ::unsetenv("GFRE_TEST_UINT");
  EXPECT_EQ(env_uint("GFRE_TEST_UINT", 7), 7u);
  ::setenv("GFRE_TEST_STR", "hello", 1);
  EXPECT_EQ(env_string("GFRE_TEST_STR", "x"), "hello");
  ::unsetenv("GFRE_TEST_STR");
  EXPECT_EQ(env_string("GFRE_TEST_STR", "x"), "x");
  EXPECT_GE(configured_threads(), 1u);
}

TEST(Options, ParseUintIsStrict) {
  EXPECT_EQ(parse_uint("n", "0"), 0u);
  EXPECT_EQ(parse_uint("n", "18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_uint("n", "4096", 1, 4096), 4096u);
  // Everything std::stoull accepts, wraps or truncates.
  for (const char* bad : {"", "-1", "+5", " 5", "5 ", "12abc", "0x10", "1.5",
                          "18446744073709551616"}) {
    EXPECT_THROW(parse_uint("n", bad), InvalidArgument) << "'" << bad << "'";
  }
  EXPECT_THROW(parse_uint("--threads", "0", 1, 4096), InvalidArgument);
  EXPECT_THROW(parse_uint("--threads", "4097", 1, 4096), InvalidArgument);
  try {
    parse_uint("--threads", "abc", 1, 4096);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(),
                 "--threads wants an integer in 1..4096, got 'abc'");
  }
  try {
    parse_uint("max_terms", "-1");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "max_terms wants a non-negative integer, got '-1'");
  }
}

TEST(Options, ConfiguredThreadsIsBounded) {
  // Only the parse is exercised here: no pool is ever started with these.
  ::setenv("GFRE_THREADS", "8", 1);
  EXPECT_EQ(configured_threads(), 8u);
  ::setenv("GFRE_THREADS", "4096", 1);
  EXPECT_EQ(configured_threads(), 4096u);
  for (const char* bad : {"-1", "0", "4097", "99999999999", "abc", "12abc"}) {
    ::setenv("GFRE_THREADS", bad, 1);
    EXPECT_THROW(configured_threads(), InvalidArgument) << bad;
  }
  ::setenv("GFRE_THREADS", "", 1);
  EXPECT_GE(configured_threads(), 1u) << "empty means unset";
  ::unsetenv("GFRE_THREADS");
  EXPECT_GE(configured_threads(), 1u);
}

}  // namespace
}  // namespace gfre
