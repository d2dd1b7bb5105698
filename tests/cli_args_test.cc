// Copyright 2026 The ARSP Authors.
//
// Exit-code / usage hygiene for arsp_cli flag parsing: unknown flags,
// missing values, malformed numbers, and conflicting mode combinations must
// all be caught at parse time (main turns a false return into stderr usage
// + exit 2). The parser is covered directly — tools/cli_args.h — so the
// tests need no subprocess.

#include "tools/cli_args.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace arsp {
namespace {

using cli::CliArgs;
using cli::ParseCliArgs;

// argv builder: copies the strings and exposes a char** like main's.
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    strings_.insert(strings_.begin(), "arsp_cli");
    for (std::string& s : strings_) pointers_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> pointers_;
};

bool Parse(std::vector<std::string> cl, CliArgs* args, std::string* error) {
  Argv argv(std::move(cl));
  return ParseCliArgs(argv.argc(), argv.argv(), args, error);
}

TEST(CliArgsTest, MinimalLocalInvocationParses) {
  CliArgs args;
  std::string error;
  ASSERT_TRUE(Parse({"--input", "d.csv", "--constraints", "wr:0.5,2.0"},
                    &args, &error))
      << error;
  EXPECT_EQ(args.input, "d.csv");
  EXPECT_EQ(args.constraints, "wr:0.5,2.0");
  EXPECT_EQ(args.algo, "auto");
  EXPECT_FALSE(args.remote);
}

TEST(CliArgsTest, UnknownFlagFails) {
  CliArgs args;
  std::string error;
  EXPECT_FALSE(Parse({"--input", "d.csv", "--constraints", "wr:1,2",
                      "--bogus"},
                     &args, &error));
  EXPECT_NE(error.find("--bogus"), std::string::npos) << error;
}

TEST(CliArgsTest, MissingValueNamesTheFlag) {
  for (const char* flag :
       {"--input", "--constraints", "--batch", "--algo", "--opt", "--repeat",
        "--subset", "--topk", "--threshold", "--instances", "--objects",
        "--connect", "--name"}) {
    CliArgs args;
    std::string error;
    EXPECT_FALSE(Parse({flag}, &args, &error)) << flag;
    EXPECT_NE(error.find(flag), std::string::npos) << error;
  }
}

TEST(CliArgsTest, MalformedNumbersFail) {
  CliArgs args;
  std::string error;
  EXPECT_FALSE(Parse({"--input", "d", "--constraints", "c", "--repeat", "x"},
                     &args, &error));
  EXPECT_FALSE(Parse({"--input", "d", "--constraints", "c", "--repeat", "0"},
                     &args, &error));
  EXPECT_FALSE(Parse({"--input", "d", "--constraints", "c", "--topk", "3x"},
                     &args, &error));
  // Out of int range: must fail, not wrap to --topk 1 / --repeat 1.
  EXPECT_FALSE(Parse(
      {"--input", "d", "--constraints", "c", "--topk", "4294967297"}, &args,
      &error));
  EXPECT_FALSE(Parse(
      {"--input", "d", "--constraints", "c", "--repeat", "4294967297"},
      &args, &error));
  EXPECT_FALSE(Parse(
      {"--input", "d", "--constraints", "c", "--threshold", "half"}, &args,
      &error));
  EXPECT_FALSE(Parse(
      {"--input", "d", "--constraints", "c", "--subset", "20,banana"},
      &args, &error));
  EXPECT_FALSE(Parse({"--input", "d", "--constraints", "c", "--subset",
                      "0"},
                     &args, &error));
  EXPECT_FALSE(Parse({"--input", "d", "--constraints", "c", "--subset",
                      "101"},
                     &args, &error));
}

TEST(CliArgsTest, SubsetAcceptsPercentSuffixes) {
  CliArgs args;
  std::string error;
  ASSERT_TRUE(Parse({"--input", "d", "--constraints", "c", "--subset",
                     "20,40%,100"},
                    &args, &error))
      << error;
  EXPECT_EQ(args.subset_pcts, (std::vector<int>{20, 40, 100}));
}

TEST(CliArgsTest, MissingRequiredFlagsFail) {
  CliArgs args;
  std::string error;
  EXPECT_FALSE(Parse({}, &args, &error));
  EXPECT_NE(error.find("--input"), std::string::npos);
  args = CliArgs();
  EXPECT_FALSE(Parse({"--input", "d.csv"}, &args, &error));
  EXPECT_NE(error.find("--constraints"), std::string::npos);
}

TEST(CliArgsTest, AlgoListNeedsNoInput) {
  CliArgs args;
  std::string error;
  ASSERT_TRUE(Parse({"--algo", "LIST"}, &args, &error)) << error;
  EXPECT_EQ(args.algo, "list");  // normalized
}

TEST(CliArgsTest, SubsetConflictsAreParseErrors) {
  CliArgs args;
  std::string error;
  // --subset + --batch: the sweep needs exactly one constraint spec.
  EXPECT_FALSE(Parse({"--input", "d", "--batch", "b.txt", "--subset", "50"},
                     &args, &error));
  EXPECT_NE(error.find("--subset"), std::string::npos) << error;
  // --subset + --repeat / CSV outputs.
  args = CliArgs();
  EXPECT_FALSE(Parse({"--input", "d", "--constraints", "c", "--subset",
                      "50", "--repeat", "2"},
                     &args, &error));
  args = CliArgs();
  EXPECT_FALSE(Parse({"--input", "d", "--constraints", "c", "--subset",
                      "50", "--instances", "out.csv"},
                     &args, &error));
}

TEST(CliArgsTest, ConnectParsesHostPort) {
  CliArgs args;
  std::string error;
  ASSERT_TRUE(Parse({"--input", "d", "--constraints", "c", "--connect",
                     "10.0.0.5:7439"},
                    &args, &error))
      << error;
  EXPECT_TRUE(args.remote);
  EXPECT_EQ(args.host, "10.0.0.5");
  EXPECT_EQ(args.port, 7439);

  args = CliArgs();
  EXPECT_FALSE(Parse({"--input", "d", "--constraints", "c", "--connect",
                      "nocolon"},
                     &args, &error));
  args = CliArgs();
  EXPECT_FALSE(Parse({"--input", "d", "--constraints", "c", "--connect",
                      "host:99999"},
                     &args, &error));
  args = CliArgs();
  EXPECT_FALSE(Parse({"--input", "d", "--constraints", "c", "--connect",
                      "host:"},
                     &args, &error));
}

TEST(CliArgsTest, ControlVerbsRequireConnect) {
  CliArgs args;
  std::string error;
  EXPECT_FALSE(Parse({"--ping"}, &args, &error));
  EXPECT_NE(error.find("--connect"), std::string::npos) << error;
  args = CliArgs();
  EXPECT_FALSE(Parse({"--shutdown"}, &args, &error));
  args = CliArgs();
  EXPECT_FALSE(Parse({"--connect", "h:1", "--ping", "--shutdown"}, &args,
                     &error));
  // With --connect they need no input/constraints.
  args = CliArgs();
  ASSERT_TRUE(Parse({"--connect", "h:1", "--ping"}, &args, &error)) << error;
  EXPECT_TRUE(args.ping);
}

TEST(CliArgsTest, ConnectWithNameNeedsNoInput) {
  // Querying a daemon-preloaded dataset: --name substitutes for --input.
  CliArgs args;
  std::string error;
  ASSERT_TRUE(Parse({"--connect", "h:1", "--name", "foo", "--constraints",
                     "wr:0.5,2.0"},
                    &args, &error))
      << error;
  EXPECT_TRUE(args.input.empty());
  EXPECT_EQ(args.remote_name, "foo");
  // But result CSVs need the local dataset copy.
  args = CliArgs();
  EXPECT_FALSE(Parse({"--connect", "h:1", "--name", "foo", "--constraints",
                      "wr:0.5,2.0", "--instances", "out.csv"},
                     &args, &error));
  EXPECT_NE(error.find("--input"), std::string::npos) << error;
  // Without --name, remote mode still requires --input.
  args = CliArgs();
  EXPECT_FALSE(Parse({"--connect", "h:1", "--constraints", "wr:0.5,2.0"},
                     &args, &error));
  EXPECT_NE(error.find("--input"), std::string::npos) << error;
}

TEST(CliArgsTest, NameRequiresConnect) {
  CliArgs args;
  std::string error;
  EXPECT_FALSE(Parse({"--input", "d", "--constraints", "c", "--name", "x"},
                     &args, &error));
  EXPECT_NE(error.find("--name"), std::string::npos) << error;
  args = CliArgs();
  ASSERT_TRUE(Parse({"--input", "d", "--constraints", "c", "--connect",
                     "h:1", "--name", "x"},
                    &args, &error))
      << error;
  EXPECT_EQ(args.remote_name, "x");
}

}  // namespace
}  // namespace arsp
