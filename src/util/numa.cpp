#include "util/numa.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <fstream>
#include <string>
#include <system_error>

namespace tlp::numa {
namespace {

/// Largest cpu id parse_cpulist accepts (Linux caps NR_CPUS at 8192). The
/// cap also keeps the range loop below free of signed overflow.
constexpr int kMaxCpuId = 65535;

/// Parses the integer prefix of `s`; returns false on no digits.
bool parse_int(std::string_view s, int& out) {
  const auto* first = s.data();
  const auto* last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(first, last, out);
  return ec == std::errc{} && ptr == last && out >= 0;
}

}  // namespace

std::vector<int> parse_cpulist(std::string_view list) {
  std::vector<int> cpus;
  std::size_t pos = 0;
  while (pos < list.size()) {
    std::size_t comma = list.find(',', pos);
    if (comma == std::string_view::npos) comma = list.size();
    std::string_view chunk = list.substr(pos, comma - pos);
    pos = comma + 1;
    // Trim whitespace (the sysfs file ends in '\n').
    while (!chunk.empty() && std::isspace(static_cast<unsigned char>(
                                 chunk.front()))) {
      chunk.remove_prefix(1);
    }
    while (!chunk.empty() &&
           std::isspace(static_cast<unsigned char>(chunk.back()))) {
      chunk.remove_suffix(1);
    }
    if (chunk.empty()) continue;
    const std::size_t dash = chunk.find('-');
    int lo = 0;
    int hi = 0;
    if (dash == std::string_view::npos) {
      if (!parse_int(chunk, lo)) continue;
      hi = lo;
    } else {
      if (!parse_int(chunk.substr(0, dash), lo) ||
          !parse_int(chunk.substr(dash + 1), hi) || hi < lo) {
        continue;
      }
    }
    if (hi > kMaxCpuId) continue;
    for (int c = lo; c <= hi; ++c) cpus.push_back(c);
  }
  std::sort(cpus.begin(), cpus.end());
  cpus.erase(std::unique(cpus.begin(), cpus.end()), cpus.end());
  return cpus;
}

Topology detect(const std::filesystem::path& root) {
  Topology topo;
  std::error_code ec;
  if (!std::filesystem::is_directory(root, ec) || ec) return topo;

  // Collect (node id, cpus) pairs, then sort by node id: directory
  // iteration order is unspecified, and the topology must be
  // deterministic for a given machine.
  std::vector<std::pair<int, std::vector<int>>> nodes;
  for (const auto& entry : std::filesystem::directory_iterator(root, ec)) {
    if (ec) return Topology{};
    const std::string name = entry.path().filename().string();
    if (name.size() < 5 || name.compare(0, 4, "node") != 0) continue;
    int id = 0;
    if (!parse_int(std::string_view(name).substr(4), id)) continue;
    std::ifstream in(entry.path() / "cpulist");
    if (!in) continue;
    std::string line;
    std::getline(in, line);
    auto cpus = parse_cpulist(line);
    // Memory-only nodes (CXL expanders, ballooned guests) have an empty
    // cpulist; they hold no CPUs, so they don't count.
    if (cpus.empty()) continue;
    nodes.emplace_back(id, std::move(cpus));
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  topo.node_cpus.reserve(nodes.size());
  for (auto& [id, cpus] : nodes) topo.node_cpus.push_back(std::move(cpus));
  return topo;
}

const Topology& system_topology() {
  static const Topology topo = detect();
  return topo;
}

}  // namespace tlp::numa
