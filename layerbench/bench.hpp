#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

/// \file bench.hpp
/// Shared vocabulary of the layer benchmark: the span log the traced run
/// records around every library call, the seeded op list, and the workload
/// interface the runner in main.cpp drives.

namespace layerbench {

// ---------------------------------------------------------------- seeding

/// splitmix64: the benchmark's own generator, so the op list depends on
/// nothing inside the library under test.
inline std::uint64_t splitmix(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

inline std::uint64_t mix(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  std::uint64_t s = a ^ (b * 0xd1342543de82ef95ull) ^ (c + 0x2545f4914f6cdd1dull);
  splitmix(s);
  return splitmix(s);
}

/// Small deterministic stream over splitmix64.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() { return splitmix(s_); }
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  template <class T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i)
      std::swap(v[i - 1], v[static_cast<std::size_t>(below(i))]);
  }

 private:
  std::uint64_t s_;
};

/// A size in octave k (k = 0..17), jittered inside [2^k, 2^(k+1)): the
/// OSU sweep's 1 B .. 256 KB range, one size per octave.
inline std::int64_t octave_size(int k, Gen& g) {
  const std::int64_t lo = std::int64_t{1} << k;
  return lo + static_cast<std::int64_t>(g.below(static_cast<std::uint64_t>(lo)));
}
inline constexpr int kOctaves = 18;

// ------------------------------------------------------------------ spans

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// One recorded span.  `name` is "<layer>:<call>"; the layer part is what
/// self time is attributed to.
struct Span {
  std::string name;
  int parent = -1;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// In-memory span log.  Disabled (the untraced run) it records nothing and
/// reads no clock.
class SpanLog {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  int open(const char* name);
  void close(int id);
  /// A child of the innermost open span with a duration the library
  /// reported itself (ReorderedComm::mapping_seconds), placed at the start
  /// of that parent.
  void add_reported(const char* name, double seconds);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span around one library call.
class Scope {
 public:
  Scope(SpanLog& log, const char* name)
      : log_(log.enabled() ? &log : nullptr),
        id_(log_ != nullptr ? log_->open(name) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------- op list

/// One op of the seeded op list.  Pass p is a seeded shuffle of the
/// workload's full-factorial grid, so every pass holds each grid class
/// exactly once and op-class shares are fixed.
struct OpSpec {
  int pass = 0;
  int index = 0;  ///< position inside the pass
  int cls = 0;    ///< grid class
  std::uint64_t seed = 0;      ///< the op's own seed
  std::uint64_t run_seed = 0;  ///< the run's --seed
};

std::vector<OpSpec> pass_specs(std::uint64_t seed, int pass, int classes);

/// What one op produced, for the output checks and the quality guards.
struct Outcome {
  std::vector<double> latencies;     ///< every simulated latency priced (us)
  std::vector<double> cost_ratios;   ///< mapping_cost after / before
  std::vector<double> improvements;  ///< simulated-latency improvement, %
  /// Per-op layer counters the library reports in its results.
  std::vector<std::pair<std::string, double>> counters;
  std::string failure;               ///< non-empty: an output check failed
  void fail(const std::string& why) {
    if (failure.empty()) failure = why;
  }
};

/// Extra timings the traced run takes outside the op span (sink ratios).
struct Calibration {
  double bare_s = 0.0;      ///< collectives with no sink
  double tracer_s = 0.0;    ///< same with only a Tracer
  double tlog_s = 0.0;      ///< same with only a TlogSink
  double recorder_s = 0.0;  ///< same with only a ScheduleRecorder
};

/// A workload: set-up, op-list generation and one op.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  /// Size of the full-factorial grid (ops per pass).
  virtual int classes() const = 0;
  /// Human-readable generated parameters of one op (--list-ops).
  virtual std::string describe(const OpSpec& op) const = 0;
  /// Fresh set-up; discards any previous one.  Timed as setup_s.
  virtual void setup(SpanLog& log) = 0;
  /// Build the op's inputs (untimed).
  virtual void generate(const OpSpec& op) = 0;
  /// The timed op, over the inputs generate() built.
  virtual void run(SpanLog& log, Outcome& out) = 0;
  /// Untimed output checks and quality figures of the op just run.
  virtual void check(Outcome& out) = 0;
  /// Traced run only: time the op's collectives under each sink alone.
  virtual void calibrate(Calibration& /*c*/) {}
  /// Quality figures fixed by set-up alone (reorders cached there).
  virtual void setup_quality(Outcome& /*out*/) {}
  /// Layers this workload must exercise, and the one expected to hold the
  /// largest self-time share of its ops (checked by the traced run).
  virtual std::vector<std::string> layers() const = 0;
  virtual std::string dominant_layer() const = 0;
};

/// Workload factory; nullptr for an unknown name.  `scratch_dir` is where a
/// workload may put temporary files.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const std::string& scratch_dir);

}  // namespace layerbench
