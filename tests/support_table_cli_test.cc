// Unit tests for the table printer and CLI flag parser.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "support/cli.h"
#include "support/table.h"

namespace dhc::support {
namespace {

TEST(Table, PrintsAlignedColumnsWithRule) {
  Table t({"n", "rounds"});
  t.add_row({"64", "123"});
  t.add_row({"1024", "4567"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("n"), std::string::npos);
  EXPECT_NE(out.find("rounds"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_NE(out.find("4567"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RowArityMismatchThrows) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(Table, EmptyHeaderListThrows) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(Table, NumFormatting) {
  EXPECT_EQ(Table::num(3.14159, 2), "3.14");
  EXPECT_EQ(Table::num(3.14159, 4), "3.1416");
  EXPECT_EQ(Table::num(static_cast<std::uint64_t>(42)), "42");
}

Cli make_cli(std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return Cli(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, ParsesTypedFlags) {
  const auto cli = make_cli({"--n=4096", "--c=3.5", "--name=dhc2", "--verbose"});
  EXPECT_EQ(cli.get_int("n", 0), 4096);
  EXPECT_DOUBLE_EQ(cli.get_double("c", 0.0), 3.5);
  EXPECT_EQ(cli.get_string("name", ""), "dhc2");
  EXPECT_TRUE(cli.get_bool("verbose", false));
}

TEST(Cli, FallbacksWhenAbsent) {
  const auto cli = make_cli({});
  EXPECT_EQ(cli.get_int("n", 128), 128);
  EXPECT_DOUBLE_EQ(cli.get_double("c", 2.5), 2.5);
  EXPECT_EQ(cli.get_string("algo", "dra"), "dra");
  EXPECT_FALSE(cli.get_bool("verbose", false));
  EXPECT_FALSE(cli.has("n"));
}

// The strict value parsers behind flags and scenario files: the whole string
// must be the value, and an integer must fit the type it lands in.
TEST(StrictParsers, IntegersParseWholeAndInRange) {
  EXPECT_EQ(parse_integer<std::int64_t>("x", "-42"), -42);
  EXPECT_EQ(parse_integer<std::uint32_t>("x", "4294967295"), 4294967295u);
  EXPECT_EQ(parse_integer<std::uint64_t>("x", "18446744073709551615"),
            18446744073709551615u);
  for (const char* bad : {"", "300x", "2.9", " 7", "+7", "0x10", "1e3", "true"}) {
    EXPECT_THROW(parse_integer<std::int64_t>("x", bad), std::invalid_argument) << bad;
  }
  EXPECT_THROW(parse_integer<std::uint32_t>("x", "4294967296"), std::invalid_argument);
  EXPECT_THROW(parse_integer<std::uint64_t>("x", "-1"), std::invalid_argument);
  EXPECT_THROW(parse_integer<std::int64_t>("x", "9223372036854775808"), std::invalid_argument);
  try {
    parse_integer<std::uint32_t>("scenario key 'sizes'", "4294967312");
    FAIL() << "an out-of-range integer must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(),
                 "scenario key 'sizes' expects an integer in [0, 4294967295], got '4294967312'");
  }
}

TEST(StrictParsers, NumbersAndListsParseWhole) {
  EXPECT_DOUBLE_EQ(parse_number("x", "0.05"), 0.05);
  EXPECT_DOUBLE_EQ(parse_number("x", "1e-3"), 1e-3);
  for (const char* bad : {"", "0.01zz", "1e999", " 1", "x"}) {
    EXPECT_THROW(parse_number("x", bad), std::invalid_argument) << bad;
  }
  EXPECT_EQ(split_list("x", "a,bb"), (std::vector<std::string>{"a", "bb"}));
  for (const char* bad : {"", ",", "a,", ",a", "a,,b"}) {
    EXPECT_THROW(split_list("x", bad), std::invalid_argument) << bad;
  }
}

// A repeated flag is an error, as a duplicate key is in a scenario file:
// keeping the last value would silently drop the first.
TEST(Cli, RepeatedFlagThrows) {
  EXPECT_THROW(make_cli({"--sizes=64", "--sizes=128"}), std::invalid_argument);
  EXPECT_THROW(make_cli({"--verbose", "--verbose=false"}), std::invalid_argument);
  EXPECT_NO_THROW(make_cli({"--sizes=64", "--seeds=2"}));
}

TEST(Cli, StringListFlags) {
  const auto cli = make_cli({"--algos=dhc2,turau", "--empty=", "--holey=dhc2,,turau"});
  EXPECT_EQ(cli.get_string_list("algos", {}),
            (std::vector<std::string>{"dhc2", "turau"}));
  EXPECT_EQ(cli.get_string_list("absent", {"dra"}), (std::vector<std::string>{"dra"}));
  EXPECT_THROW(cli.get_string_list("empty", {}), std::invalid_argument);
  EXPECT_THROW(cli.get_string_list("holey", {}), std::invalid_argument);
}

TEST(Cli, MalformedValuesThrow) {
  const auto cli = make_cli({"--n=abc", "--flag=maybe", "--m=4096x", "--c=3.5zz",
                             "--big=9223372036854775808"});
  EXPECT_THROW(cli.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_bool("flag", false), std::invalid_argument);
  EXPECT_THROW(cli.get_int("m", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_double("c", 0.0), std::invalid_argument);
  EXPECT_THROW(cli.get_int("big", 0), std::invalid_argument);
}

TEST(Cli, RejectUnknownThrowsOnTheStrayFlagOnly) {
  const auto cli = make_cli({"--sizez=64", "--seeds=1"});
  try {
    cli.reject_unknown({"sizes", "seeds"});
    FAIL() << "a flag outside the known set must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown flag --sizez");
  }
  EXPECT_NO_THROW(make_cli({"--seeds=1", "--help"}).reject_unknown({"seeds", "help"}));
  EXPECT_NO_THROW(make_cli({}).reject_unknown({}));
}

TEST(Cli, PositionalArgumentRejected) {
  std::vector<const char*> argv{"prog", "positional"};
  EXPECT_THROW(Cli(2, argv.data()), std::invalid_argument);
}

}  // namespace
}  // namespace dhc::support
