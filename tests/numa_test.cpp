// Tests for the NUMA topology layer (util/numa.hpp): cpulist parsing and
// sysfs detection against fake trees.

#include "util/numa.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace tlp {
namespace {

namespace fs = std::filesystem;

/// Scoped fake sysfs node tree: root/node<i>/cpulist per entry.
class FakeSysfs {
 public:
  explicit FakeSysfs(const std::vector<std::pair<int, std::string>>& nodes) {
    root_ = fs::temp_directory_path() /
            ("tlp_numa_test_" + std::to_string(::getpid()) + "_" +
             std::to_string(counter_++));
    fs::create_directories(root_);
    for (const auto& [id, cpulist] : nodes) {
      const fs::path dir = root_ / ("node" + std::to_string(id));
      fs::create_directories(dir);
      std::ofstream out(dir / "cpulist");
      out << cpulist << "\n";
    }
  }
  ~FakeSysfs() {
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  [[nodiscard]] const fs::path& root() const { return root_; }

 private:
  static inline int counter_ = 0;
  fs::path root_;
};

TEST(ParseCpulist, SinglesRangesAndMixes) {
  EXPECT_EQ(numa::parse_cpulist("0"), (std::vector<int>{0}));
  EXPECT_EQ(numa::parse_cpulist("0-3"), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(numa::parse_cpulist("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  // Whitespace/newline trim (the sysfs file ends in '\n').
  EXPECT_EQ(numa::parse_cpulist(" 4-5 \n"), (std::vector<int>{4, 5}));
  // Out-of-order chunks come back sorted and deduplicated.
  EXPECT_EQ(numa::parse_cpulist("8,0-2,1"), (std::vector<int>{0, 1, 2, 8}));
}

TEST(ParseCpulist, MalformedChunksAreSkippedNotFatal) {
  EXPECT_TRUE(numa::parse_cpulist("").empty());
  EXPECT_TRUE(numa::parse_cpulist("\n").empty());
  EXPECT_TRUE(numa::parse_cpulist("abc").empty());
  EXPECT_TRUE(numa::parse_cpulist("3-1").empty());  // inverted range
  EXPECT_EQ(numa::parse_cpulist("x,2,y-3,4-5"), (std::vector<int>{2, 4, 5}));
  // Ids past any real NR_CPUS: skipped without overflowing or expanding
  // billions of entries.
  EXPECT_TRUE(numa::parse_cpulist("2147483646-2147483647").empty());
  EXPECT_TRUE(numa::parse_cpulist("2147483647").empty());
  EXPECT_TRUE(numa::parse_cpulist("0-2147483647").empty());
  EXPECT_TRUE(numa::parse_cpulist("99999999999").empty());
  EXPECT_EQ(numa::parse_cpulist("1,0-2147483647,3"), (std::vector<int>{1, 3}));
  // The cap is 65535: the last id in range is kept, one past it is not.
  EXPECT_EQ(numa::parse_cpulist("65535"), (std::vector<int>{65535}));
  EXPECT_TRUE(numa::parse_cpulist("65535-65536").empty());
}

TEST(Detect, TwoNodeTree) {
  const FakeSysfs sysfs({{0, "0-3"}, {1, "4-7"}});
  const numa::Topology topo = numa::detect(sysfs.root());
  ASSERT_EQ(topo.num_nodes(), 2u);
  EXPECT_TRUE(topo.multi_node());
  EXPECT_EQ(topo.total_cpus(), 8u);
  EXPECT_EQ(topo.node_cpus[0], (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(topo.node_cpus[1], (std::vector<int>{4, 5, 6, 7}));
}

TEST(Detect, NodesOrderedByIdNotDirectoryOrder) {
  const FakeSysfs sysfs({{2, "8-11"}, {0, "0-3"}, {1, "4-7"}});
  const numa::Topology topo = numa::detect(sysfs.root());
  ASSERT_EQ(topo.num_nodes(), 3u);
  EXPECT_EQ(topo.node_cpus[0].front(), 0);
  EXPECT_EQ(topo.node_cpus[1].front(), 4);
  EXPECT_EQ(topo.node_cpus[2].front(), 8);
}

TEST(Detect, MemoryOnlyNodesAreSkipped) {
  // node1 has memory but no CPUs (CXL expander): nothing to pin there.
  const FakeSysfs sysfs({{0, "0-7"}, {1, ""}});
  const numa::Topology topo = numa::detect(sysfs.root());
  ASSERT_EQ(topo.num_nodes(), 1u);
  EXPECT_FALSE(topo.multi_node());
}

TEST(Detect, MissingRootYieldsEmptyTopology) {
  const numa::Topology topo =
      numa::detect("/nonexistent/tlp_numa_test_no_such_dir");
  EXPECT_EQ(topo.num_nodes(), 0u);
  EXPECT_FALSE(topo.multi_node());
  EXPECT_EQ(topo.total_cpus(), 0u);
}

TEST(Detect, NonNodeEntriesIgnored) {
  FakeSysfs sysfs({{0, "0-1"}, {1, "2-3"}});
  // Stray files and directories a real sysfs tree carries.
  fs::create_directories(sysfs.root() / "power");
  std::ofstream(sysfs.root() / "online") << "0-1\n";
  const numa::Topology topo = numa::detect(sysfs.root());
  EXPECT_EQ(topo.num_nodes(), 2u);
}

}  // namespace
}  // namespace tlp
