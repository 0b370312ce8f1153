#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace ptqbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

CpuTimes ReadCpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTimes t;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    uint64_t v = 0;
    if (!(stat >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double StealShare(const CpuTimes& before, const CpuTimes& after) {
  const uint64_t total = after.total - before.total;
  return total == 0 ? 0.0
                    : static_cast<double>(after.steal - before.steal) /
                          static_cast<double>(total);
}

double HostSpeedProbeMs() {
  static std::vector<uint32_t> table(size_t{1} << 16);
  double best = 1e300;
  for (int round = 0; round < 3; ++round) {
    const auto t0 = Clock::now();
    uint64_t x = 88172645463325252ULL;
    uint32_t acc = 0;
    for (int i = 0; i < 200000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      uint32_t& slot = table[(x >> 20) & 0xffff];
      slot += acc;
      acc = acc * 31 + slot;
    }
    best = std::min(best, MsBetween(t0, Clock::now()));
    if (acc == 0x12345678u) table[0] ^= 1;  // keeps the loop observable
  }
  return best;
}

void Report::Add(std::string name, std::string unit, double value,
                 size_t samples) {
  metrics_.push_back({std::move(name), std::move(unit), value, samples});
}

void Report::PrintTable(const char* title) const {
  std::printf("%s\n", title);
  std::printf("  %-36s %16s  %-6s %9s\n", "metric", "value", "unit",
              "samples");
  for (const Metric& m : metrics_) {
    std::printf("  %-36s %16.6g  %-6s %9zu\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.samples);
  }
}

std::string Report::MetricsJson() const {
  std::string out = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics_[i].name) + ": {\"value\": " +
           JsonNumber(metrics_[i].value) +
           ", \"unit\": " + JsonString(metrics_[i].unit) + "}";
  }
  return out + "}";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
      continue;
    }
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace ptqbench
