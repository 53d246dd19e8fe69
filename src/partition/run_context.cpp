#include "partition/run_context.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace tlp {
namespace {

/// Shortest round-trippable representation; integers without a decimal
/// point so counter JSON stays readable (and parseable as int where it is
/// one).
void append_number(std::string& out, double v) {
  char buf[32];
  if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else if (std::isfinite(v)) {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  } else {
    // JSON has no Infinity/NaN literals; emit null.
    std::snprintf(buf, sizeof buf, "null");
  }
  out += buf;
}

void append_quoted(std::string& out, std::string_view name) {
  out += '"';
  for (const char c : name) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

void Telemetry::add(std::string_view name, double v) {
  const auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), v);
  } else {
    it->second += v;
  }
}

void Telemetry::set(std::string_view name, double v) {
  const auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), v);
  } else {
    it->second = v;
  }
}

void Telemetry::set_max(std::string_view name, double v) {
  const auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), v);
  } else if (v > it->second) {
    it->second = v;
  }
}

double Telemetry::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

void Telemetry::add_seconds(std::string_view name, double seconds) {
  const auto it = timers_.find(name);
  if (it == timers_.end()) {
    timers_.emplace(std::string(name), seconds);
  } else {
    it->second += seconds;
  }
}

double Telemetry::timer_seconds(std::string_view name) const {
  const auto it = timers_.find(name);
  return it == timers_.end() ? 0.0 : it->second;
}

void Telemetry::ScopedTimer::stop() {
  if (sink_ == nullptr) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  const double seconds = std::chrono::duration<double>(elapsed).count();
  sink_->add_seconds(name_, seconds);
  if (sink_->phase_hook_) sink_->phase_hook_(name_, seconds);
  sink_ = nullptr;
}

void Telemetry::append(std::string_view name, double v) {
  const auto it = series_.find(name);
  if (it == series_.end()) {
    series_.emplace(std::string(name), std::vector<double>{v});
  } else {
    it->second.push_back(v);
  }
}

const std::vector<double>* Telemetry::series(std::string_view name) const {
  const auto it = series_.find(name);
  return it == series_.end() ? nullptr : &it->second;
}

std::string Telemetry::to_json() const {
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters_) {
    if (!first) out += ',';
    first = false;
    append_quoted(out, name);
    out += ':';
    append_number(out, value);
  }
  out += "},\"timers\":{";
  first = true;
  for (const auto& [name, value] : timers_) {
    if (!first) out += ',';
    first = false;
    append_quoted(out, name);
    out += ':';
    append_number(out, value);
  }
  out += "},\"series\":{";
  first = true;
  for (const auto& [name, values] : series_) {
    if (!first) out += ',';
    first = false;
    append_quoted(out, name);
    out += ":[";
    bool first_value = true;
    for (const double v : values) {
      if (!first_value) out += ',';
      first_value = false;
      append_number(out, v);
    }
    out += ']';
  }
  out += "}}";
  return out;
}

void Telemetry::merge_from(const Telemetry& other) {
  for (const auto& [name, value] : other.counters_) add(name, value);
  for (const auto& [name, value] : other.timers_) add_seconds(name, value);
  for (const auto& [name, values] : other.series_) {
    auto& mine = series_[name];
    mine.insert(mine.end(), values.begin(), values.end());
  }
}

void Telemetry::clear() {
  counters_.clear();
  timers_.clear();
  series_.clear();
}

void RunContext::check_cancelled() const {
  if (cancel_.cancelled()) {
    throw RunCancelled("partition run cancelled" +
                       (last_algorithm_.empty() ? std::string{}
                                                : " (" + last_algorithm_ + ")"));
  }
}

void RunContext::begin_run(std::string_view algorithm) {
  if (depth_++ > 0) return;
  ++runs_;
  last_algorithm_.assign(algorithm);
  telemetry_.add("runs");
}

RunContext& RunContext::child(std::size_t index) {
  while (children_.size() <= index) {
    children_.push_back(std::make_unique<RunContext>());
  }
  return *children_[index];
}

}  // namespace tlp
