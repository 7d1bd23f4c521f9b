// The GENEALOG_* environment knobs parse strictly: the documented spellings
// map to their values, unset or empty keeps the default, and anything else
// throws std::invalid_argument naming the variable and the accepted values.
// The parsers are exercised on strings; no test touches the environment.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/engine_options.h"
#include "common/env_knob.h"

namespace genealog {
namespace {

// Returns the message of the std::invalid_argument `parse` throws, or fails.
template <typename F>
std::string RejectionOf(F parse) {
  try {
    parse();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  ADD_FAILURE() << "value was accepted";
  return "";
}

TEST(EnvKnobTest, FlagAcceptsZeroAndOneAndKeepsTheDefaultWhenUnsetOrEmpty) {
  EXPECT_TRUE(ParseFlagKnob("GENEALOG_ADAPTIVE_BATCH", "1", false));
  EXPECT_FALSE(ParseFlagKnob("GENEALOG_ADAPTIVE_BATCH", "0", true));
  EXPECT_TRUE(ParseFlagKnob("GENEALOG_ADAPTIVE_BATCH", nullptr, true));
  EXPECT_TRUE(ParseFlagKnob("GENEALOG_ADAPTIVE_BATCH", "", true));
  EXPECT_FALSE(ParseFlagKnob("GENEALOG_LINEAGE_STORE", nullptr, false));
  EXPECT_FALSE(ParseFlagKnob("GENEALOG_LINEAGE_STORE", "", false));
}

TEST(EnvKnobTest, FlagRejectsOtherSpellings) {
  // "true" used to read as atoi("true") == 0: adaptive batching silently
  // off, the lineage store silently left off.
  const std::string msg = RejectionOf(
      [] { ParseFlagKnob("GENEALOG_ADAPTIVE_BATCH", "true", true); });
  EXPECT_NE(msg.find("GENEALOG_ADAPTIVE_BATCH"), std::string::npos) << msg;
  EXPECT_NE(msg.find("\"true\""), std::string::npos) << msg;
  EXPECT_NE(msg.find("0, 1"), std::string::npos) << msg;
  for (const char* bad : {"true", "false", "on", "yes", "2", "-1", " 1", "1 ",
                          "01", "0x1"}) {
    EXPECT_THROW(ParseFlagKnob("GENEALOG_LINEAGE_STORE", bad, false),
                 std::invalid_argument)
        << bad;
  }
}

TEST(EnvKnobTest, SchedulerAcceptsItsTwoSpellingsExactly) {
  using engine_defaults::ParseScheduler;
  EXPECT_EQ(ParseScheduler("pool"), SchedulerMode::kPool);
  EXPECT_EQ(ParseScheduler("thread-per-node"), SchedulerMode::kThreadPerNode);
  EXPECT_EQ(ParseScheduler(nullptr), SchedulerMode::kThreadPerNode);
  EXPECT_EQ(ParseScheduler(""), SchedulerMode::kThreadPerNode);
  // "Pool" used to run thread-per-node without a word.
  const std::string msg = RejectionOf([] { ParseScheduler("Pool"); });
  EXPECT_NE(msg.find("GENEALOG_SCHEDULER"), std::string::npos) << msg;
  EXPECT_NE(msg.find("thread-per-node, pool"), std::string::npos) << msg;
  for (const char* bad : {"POOL", "pool ", "threads", "1"}) {
    EXPECT_THROW(ParseScheduler(bad), std::invalid_argument) << bad;
  }
}

TEST(EnvKnobTest, WireCodecAcceptsItsTwoSpellingsExactly) {
  using engine_defaults::ParseWireCodec;
  EXPECT_EQ(ParseWireCodec("raw"), WireCodec::kRaw);
  EXPECT_EQ(ParseWireCodec("compact"), WireCodec::kCompact);
  EXPECT_EQ(ParseWireCodec(nullptr), WireCodec::kCompact);
  EXPECT_EQ(ParseWireCodec(""), WireCodec::kCompact);
  const std::string msg = RejectionOf([] { ParseWireCodec("Raw"); });
  EXPECT_NE(msg.find("GENEALOG_WIRE_CODEC"), std::string::npos) << msg;
  EXPECT_NE(msg.find("compact, raw"), std::string::npos) << msg;
  EXPECT_THROW(ParseWireCodec("lz"), std::invalid_argument);
}

TEST(EnvKnobTest, CountAcceptsNonNegativeDecimals) {
  EXPECT_EQ(ParseCountKnob("GENEALOG_BATCH_SIZE", "64", 1), 64u);
  EXPECT_EQ(ParseCountKnob("GENEALOG_BATCH_SIZE", "0", 64), 0u);
  EXPECT_EQ(ParseCountKnob("GENEALOG_WORKERS", "007", 0), 7u);
  EXPECT_EQ(ParseCountKnob("GENEALOG_BATCH_SIZE", nullptr, 64), 64u);
  EXPECT_EQ(ParseCountKnob("GENEALOG_BATCH_SIZE", "", 64), 64u);
  EXPECT_EQ(ParseCountKnob("GENEALOG_LINEAGE_RETAIN_SPAN",
                           "9223372036854775807", 0),
            9223372036854775807ull);
}

TEST(EnvKnobTest, CountRejectsSuffixesSignsAndOverflow) {
  // "64k" used to read as atoi("64k") == 64.
  const std::string msg =
      RejectionOf([] { ParseCountKnob("GENEALOG_BATCH_SIZE", "64k", 64); });
  EXPECT_NE(msg.find("GENEALOG_BATCH_SIZE"), std::string::npos) << msg;
  EXPECT_NE(msg.find("non-negative decimal"), std::string::npos) << msg;
  for (const char* bad : {"64k", "-1", "+5", " 5", "5 ", "1e3", "0x10", "abc",
                          "9223372036854775808", "18446744073709551616"}) {
    EXPECT_THROW(ParseCountKnob("GENEALOG_WORKERS", bad, 0),
                 std::invalid_argument)
        << bad;
  }
}

}  // namespace
}  // namespace genealog
