//===- Support.h - Clocks, statistics, /proc gauges, span tracer -*- C++ -*-===//
//
// Part of matbench, the matcoal benchmark (see perfbench/README.md).
//
//===----------------------------------------------------------------------===//

#ifndef MATBENCH_SUPPORT_H
#define MATBENCH_SUPPORT_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace matbench {

/// Monotonic clock, in seconds.
double nowSec();

/// splitmix64: the one PRNG every seeded choice goes through, so a seed
/// names the same inputs on every platform and standard library.
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next();
  /// Uniform in [0, N).
  std::uint64_t below(std::uint64_t N) { return next() % N; }
  template <class T> void shuffle(std::vector<T> &V) {
    for (std::size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  std::uint64_t State;
};

double median(std::vector<double> V);
/// Linear-interpolation quantile, \p Q in [0, 1].
double quantile(std::vector<double> V, double Q);
double geomean(const std::vector<double> &V);

/// Fields of /proc/<pid>/status (kB for memory, -1 when unreadable).
struct ProcStatus {
  long Threads = -1;
  long VmHWMkB = -1;
  long VmRSSkB = -1;
};
ProcStatus readProcStatus(int Pid);
/// Resets the calling process's VmHWM to its current RSS, so a later
/// reading covers only what follows (a no-op where the kernel refuses).
void resetPeakRss();
/// Distinct files under \p Dir mapped into process \p Pid.
long countMappedUnder(int Pid, const std::string &Dir);
/// Total size of the regular files under \p Dir.
std::int64_t dirBytes(const std::string &Dir);

/// Spans recorded around the benchmark's calls into each layer. Kept in
/// memory; written as a Chrome trace at the end. Disabled tracers record
/// nothing, so one code path serves the traced and the untraced runs.
class Tracer {
public:
  struct Span {
    std::string Name;
    double Start = 0, End = 0; ///< nowSec() values.
    int Parent = -1;
    std::uint64_t Op = 0; ///< Spans of one operation share this id.
  };

  explicit Tracer(bool On) : On(On) {}
  bool on() const { return On; }

  /// Starts a new operation: spans opened from here share a fresh id.
  void beginOp() { ++CurOp; }

  class Scope {
  public:
    Scope(Tracer *T, int Idx) : T(T), Idx(Idx) {}
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope() { close(); }
    void close();

  private:
    Tracer *T;
    int Idx;
  };
  /// Opens a span nested in the innermost open one.
  Scope span(const std::string &Name);
  /// Records an already-measured span with no parent.
  void add(const std::string &Name, double Start, double End);

  /// Per span name: total duration minus the time its child spans cover.
  std::map<std::string, double> selfSeconds() const;
  std::string chromeJson() const;

private:
  bool On;
  std::uint64_t CurOp = 0;
  std::vector<Span> Spans;
  std::vector<int> Open;
};

} // namespace matbench

#endif // MATBENCH_SUPPORT_H
