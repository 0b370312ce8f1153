// Measurement scaffolding of the PTQ serving benchmark: a steady clock,
// order statistics over latency samples, the process's peak resident
// set, and the metric report that ends every run.
#ifndef PTQBENCH_HARNESS_H_
#define PTQBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace ptqbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

inline int64_t NsSinceEpoch(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             t.time_since_epoch())
      .count();
}

/// The q-quantile (0 <= q <= 1) of `values`, linearly interpolated
/// between order statistics; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// Peak resident set of this process in MiB (VmHWM), 0 if unreadable.
double PeakRssMb();

/// \brief Host-wide CPU time counters (/proc/stat, all CPUs, in ticks).
/// `steal` is time a virtual CPU wanted to run but the hypervisor ran
/// another guest: the main source of run-to-run noise on shared hosts.
struct CpuTimes {
  uint64_t total = 0;
  uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();

/// Share of CPU time stolen between two readings (0 if none elapsed).
double StealShare(const CpuTimes& before, const CpuTimes& after);

/// Milliseconds a fixed, library-independent integer kernel takes on
/// this thread (best of three): a probe of host speed.
double HostSpeedProbeMs();

/// \brief One reported metric: value, unit, and how many samples it
/// summarizes (1 for a single measurement or a count).
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  size_t samples = 0;
};

/// \brief The metrics of one run, printed as an aligned table for people
/// and as the JSON object of the final output line.
class Report {
 public:
  void Add(std::string name, std::string unit, double value, size_t samples);
  void PrintTable(const char* title) const;
  /// {"name": {"value": v, "unit": u}, ...} with every digit of v.
  std::string MetricsJson() const;

 private:
  std::vector<Metric> metrics_;
};

/// JSON string literal for `s` (quotes and backslashes escaped).
std::string JsonString(const std::string& s);

/// A double printed with all significant digits.
std::string JsonNumber(double v);

}  // namespace ptqbench

#endif  // PTQBENCH_HARNESS_H_
