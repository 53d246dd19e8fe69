#include "bench_common/options.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "bench_common/datasets.hpp"

namespace tlp::bench {
namespace {

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> items;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

}  // namespace

double bench_scale() {
  const char* env = std::getenv("TLP_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double scale = std::strtod(env, nullptr);
  if (scale <= 0.0) {
    throw std::runtime_error("TLP_BENCH_SCALE must be a positive number");
  }
  return scale;
}

std::vector<std::string> bench_graph_ids() {
  const char* env = std::getenv("TLP_BENCH_GRAPHS");
  if (env == nullptr) {
    std::vector<std::string> all;
    for (const DatasetSpec& spec : paper_datasets()) all.push_back(spec.id);
    return all;
  }
  return split_csv(env);
}

std::vector<PartitionId> bench_partition_counts() {
  const char* env = std::getenv("TLP_BENCH_PS");
  if (env == nullptr) return {10, 15, 20};
  std::vector<PartitionId> ps;
  for (const std::string& item : split_csv(env)) {
    const long value = std::strtol(item.c_str(), nullptr, 10);
    if (value <= 0) throw std::runtime_error("TLP_BENCH_PS entries must be > 0");
    ps.push_back(static_cast<PartitionId>(value));
  }
  return ps;
}

StorageOptions bench_storage() {
  const char* env = std::getenv("TLP_BENCH_STORAGE");
  if (env == nullptr) return {};
  try {
    return StorageOptions::parse(env);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("TLP_BENCH_STORAGE: ") + e.what());
  }
}

}  // namespace tlp::bench
