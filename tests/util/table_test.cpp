#include "util/table.hpp"

#include <gtest/gtest.h>

#include <cstdio>

namespace musketeer::util {
namespace {

TEST(TableTest, CsvRoundTrip) {
  Table t({"a", "b"});
  t.add_row({"1", "x"});
  t.add_row({"2", "y"});
  EXPECT_EQ(t.to_csv(), "a,b\n1,x\n2,y\n");
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, FormatHelpers) {
  EXPECT_EQ(format("%d-%s", 3, "x"), "3-x");
  EXPECT_EQ(fmt_double(1.23456, 2), "1.23");
  EXPECT_EQ(fmt_int(-7), "-7");
}

TEST(TableTest, PrintAligns) {
  Table t({"name", "v"});
  t.add_row({"long-name", "1"});
  // Smoke: printing to a temp stream must not crash and must contain rows.
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  t.print(tmp);
  std::rewind(tmp);
  char buf[256];
  std::string all;
  while (std::fgets(buf, sizeof buf, tmp) != nullptr) all += buf;
  std::fclose(tmp);
  EXPECT_NE(all.find("long-name"), std::string::npos);
  EXPECT_NE(all.find("name"), std::string::npos);
}

}  // namespace
}  // namespace musketeer::util
