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

TEST(Cli, ListFlags) {
  const auto cli = make_cli({"--sizes=256,512,1024", "--deltas=0.3,0.5"});
  EXPECT_EQ(cli.get_int_list("sizes", {}), (std::vector<std::int64_t>{256, 512, 1024}));
  EXPECT_EQ(cli.get_double_list("deltas", {}), (std::vector<double>{0.3, 0.5}));
  EXPECT_EQ(cli.get_int_list("absent", {7}), (std::vector<std::int64_t>{7}));
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
  const auto cli = make_cli({"--n=abc", "--flag=maybe"});
  EXPECT_THROW(cli.get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(cli.get_bool("flag", false), std::invalid_argument);
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
