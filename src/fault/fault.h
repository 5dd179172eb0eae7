#ifndef SUBEX_FAULT_FAULT_H_
#define SUBEX_FAULT_FAULT_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace subex {

/// \file
/// Deterministic, seeded fault injection.
///
/// Production code wraps its fallible syscalls and admission decisions in
/// named *injection points* (`SUBEX_FAULT(...)`). Each point is disarmed by
/// default: the wrapper is a single relaxed atomic load of a process-wide
/// "anything armed?" flag, and under `-DSUBEX_FAULT_DISABLED=ON` it compiles
/// to the constant `false` — a branch-free no-op.
///
/// Tests and the chaos harness arm points with per-point rules — fire with
/// probability p, only after the first N evaluations, at most M times — via
/// the `FaultRegistry` API, the `FaultControl` RAII test hook, or the
/// `SUBEX_FAULT_SPEC`/`SUBEX_FAULT_SEED` environment variables. Whether a
/// given evaluation fires is a pure function of (seed, point, evaluation
/// index), so a chaos run is replayable from its seed alone.

/// Every named injection point. Names (see `FaultPointName`) are the
/// identifiers used in `SUBEX_FAULT_SPEC` and in metrics.
enum class FaultPoint : std::uint8_t {
  kSocketRead = 0,   ///< `recv` in client/server read paths.
  kSocketWrite,      ///< `send` in client/server write paths.
  kSocketConnect,    ///< `ExplainClient`'s TCP connect.
  kSocketAccept,     ///< The server's `accept` loop.
  kColumnarPread,    ///< `pread` chunk loads in `ColumnarFile`.
  kColumnarMmap,     ///< `mmap` chunk maps in `ColumnarFile` (falls back).
  kCacheAdmit,       ///< `ScoreCache::Put` admission.
  kMemReserve,       ///< `EvictionManager::Reserve` (non-overcommit).
  kWalAppend,        ///< Online WAL record append.
  kWalSync,          ///< Online WAL/checkpoint fsync.
  kPointCount,       ///< Sentinel — not a point.
};

inline constexpr std::size_t kNumFaultPoints =
    static_cast<std::size_t>(FaultPoint::kPointCount);

/// Stable lowercase name, e.g. `socket_read`, `wal_append`.
const char* FaultPointName(FaultPoint point);

/// Reverse of `FaultPointName`. False when `name` matches no point.
bool ParseFaultPoint(const std::string& name, FaultPoint* out);

/// What an armed point does when it fires. Sites interpret the action in
/// their own terms; actions that make no sense at a site (e.g. `kShort` on
/// an admission decision) degrade to `kFail`.
enum class FaultAction : std::uint8_t {
  kFail = 0,  ///< Hard failure: syscall-like error (EIO) / admission denial.
  kEintr,     ///< Transient interruption — a correct site retries.
  kShort,     ///< Partial transfer (1 byte) — a correct site resumes.
};

bool ParseFaultAction(const std::string& name, FaultAction* out);

/// One point's trigger rule.
struct FaultRule {
  /// Chance of firing per evaluation once past `after`, in [0, 1].
  double probability = 1.0;
  /// The first `after` evaluations of the point never fire.
  std::uint64_t after = 0;
  /// Total injections allowed; 0 = unlimited. `limit=1` + `after=N` is the
  /// classic "fail exactly once, on the (N+1)-th call" rule.
  std::uint64_t limit = 0;
  FaultAction action = FaultAction::kFail;
};

/// One `name=rule` entry of a fault spec.
struct FaultSpecEntry {
  FaultPoint point;
  FaultRule rule;
};

/// Parses a spec like
/// `socket_read=0.01;wal_append=1:after=10:limit=1;socket_write=0.05:action=short`
/// into `*entries` without arming anything. Each `;`-separated entry is
/// `name=probability[:after=N][:limit=N][:action=fail|eintr|short]`.
/// Returns false (and sets `*error`) on the first malformed entry; `entries`
/// may be null to only validate.
bool ParseFaultSpec(const std::string& spec,
                    std::vector<FaultSpecEntry>* entries,
                    std::string* error = nullptr);

/// Per-point counters plus process totals, for `kStats` and tests.
struct FaultPointStats {
  std::uint64_t evaluations = 0;
  std::uint64_t injected = 0;
  bool armed = false;
};

struct FaultStats {
  std::uint64_t evaluations = 0;  ///< Evaluations of *armed* points.
  std::uint64_t injected = 0;
  std::array<FaultPointStats, kNumFaultPoints> points;

  /// `{"armed":true,"injected":N,"evaluations":N,"points":{name:{...}}}`
  /// (only points with activity or armed rules are listed).
  std::string ToJson() const;
};

/// Process-wide registry of injection points. All methods are thread-safe;
/// `Evaluate` on a fully-disarmed registry is one relaxed atomic load.
class FaultRegistry {
 public:
  static FaultRegistry& Global();

  FaultRegistry();

  /// Arms `point` with `rule` (replacing any previous rule) and resets the
  /// point's evaluation/injection counters so `after`/`limit` are relative
  /// to the arming.
  void Arm(FaultPoint point, const FaultRule& rule);
  void Disarm(FaultPoint point);
  /// Disarms every point and clears all counters.
  void DisarmAll();

  /// Seed of the deterministic firing decisions. Changing the seed does not
  /// reset counters.
  void SetSeed(std::uint64_t seed);
  std::uint64_t seed() const { return seed_.load(std::memory_order_relaxed); }

  /// Arms every point of a `ParseFaultSpec` spec, or none: returns false
  /// (and sets `*error`) when any entry is malformed.
  bool ConfigureFromSpec(const std::string& spec, std::string* error = nullptr);

  /// Reads `SUBEX_FAULT_SEED` (u64) and `SUBEX_FAULT_SPEC` (spec grammar
  /// above). Malformed specs abort — a chaos run silently running without
  /// its faults would be a false green.
  void ConfigureFromEnv();

  /// True (with `*action` set) when `point` fires on this evaluation.
  /// Disarmed fast path: one relaxed load, no counters touched.
  bool Evaluate(FaultPoint point, FaultAction* action = nullptr) {
    if (!any_armed_.load(std::memory_order_relaxed)) return false;
    return EvaluateSlow(point, action);
  }

  bool any_armed() const {
    return any_armed_.load(std::memory_order_relaxed);
  }

  FaultStats stats() const;

 private:
  struct PointState {
    std::atomic<bool> armed{false};
    std::atomic<double> probability{1.0};
    std::atomic<std::uint64_t> after{0};
    std::atomic<std::uint64_t> limit{0};
    std::atomic<std::uint8_t> action{0};
    std::atomic<std::uint64_t> evaluations{0};
    std::atomic<std::uint64_t> injected{0};
  };

  bool EvaluateSlow(FaultPoint point, FaultAction* action);
  void RecomputeArmedFlag();

  std::array<PointState, kNumFaultPoints> points_;
  std::atomic<bool> any_armed_{false};
  std::atomic<std::uint64_t> seed_{0x5u};
  std::atomic<std::uint64_t> total_evaluations_{0};
  std::atomic<std::uint64_t> total_injected_{0};
};

/// RAII test hook: arms points on a scope's entry and guarantees the global
/// registry is fully disarmed (and counters cleared) on exit, so a failing
/// EXPECT can't leak armed faults into the next test.
class FaultControl {
 public:
  explicit FaultControl(std::uint64_t seed = 0x5u) {
    FaultRegistry::Global().DisarmAll();
    FaultRegistry::Global().SetSeed(seed);
  }
  ~FaultControl() { FaultRegistry::Global().DisarmAll(); }

  FaultControl(const FaultControl&) = delete;
  FaultControl& operator=(const FaultControl&) = delete;

  void Arm(FaultPoint point, const FaultRule& rule) {
    FaultRegistry::Global().Arm(point, rule);
  }
  void Disarm(FaultPoint point) { FaultRegistry::Global().Disarm(point); }
};

}  // namespace subex

/// The injection-point wrapper production code uses. Yields `false`
/// (optionally setting `*action_out`) unless the point is armed and fires.
/// Compiled out entirely under SUBEX_FAULT_DISABLED.
#if defined(SUBEX_FAULT_DISABLED)
#define SUBEX_FAULT(point, action_out) false
#else
#define SUBEX_FAULT(point, action_out) \
  (::subex::FaultRegistry::Global().Evaluate((point), (action_out)))
#endif

#endif  // SUBEX_FAULT_FAULT_H_
