// Flight recorder: the always-on black box behind crash postmortems.
//
// A fixed-capacity ring of compact 32-byte POD records continuously captures
// the simulator's recent past — engine events, scheduler invocations with
// verdict counts, fluid solves (via profiler phase taps), job state
// transitions, fault-injector actions, and cancellation — so an abnormal end
// (uncaught exception, InvariantChecker trip, watchdog timeout/stall, SIGINT,
// or a fatal signal) can dump `postmortem.json` explaining what the run was
// doing when it died, without re-running anything.
//
// Design constraints, in the PR-6 profiler style:
//   * Single-writer: one recorder per simulating thread (thread_current()),
//     so the hot path is branch + array store, no atomics, no locks.
//   * Bounded memory: power-of-two ring (default 4096 records = 128 KiB);
//     old records are overwritten, `recorded - capacity` counts the drops.
//   * Cheap timestamps: raw rdtsc/steady-clock ticks (profiler::tick_now),
//     calibrated against the wall clock only when a dump is rendered.
//   * Determinism-neutral: the recorder observes, it never feeds anything
//     back into the simulation, so sinks stay byte-identical with it on.
//
// Dump paths: to_json()/write_postmortem() produce the full decoded
// `elastisim-postmortem-v1` document (schema in docs/FORMATS.md);
// write_postmortem_fd() is the best-effort async-signal-safe variant used by
// the SIGSEGV/SIGABRT handler — no allocation, no locks, manual number
// formatting straight into write(2).
//
// Disable process-wide with ELSIM_FLIGHT=0 (the knob the ≤2% overhead budget
// is measured against; see docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "json/json.h"
#include "stats/observer.h"
#include "stats/profiler.h"

namespace elastisim::core {

/// What one ring record describes. Order is stable (records store the raw
/// value); to_string() must stay in sync.
enum class FlightKind : std::uint16_t {
  /// One engine event dispatched; recorded before the callback runs, so the
  /// last such record names the event a crash died inside. b = events
  /// processed so far.
  kEngineEvent = 0,
  /// Profiler phase entered/left (ScopedPhase tap); code = Phase.
  kPhaseEnter,
  kPhaseExit,
  /// One scheduling point completed; code = JournalCause, a = queue depth
  /// after, b packs (rounds << 32 | jobs started).
  kSchedulerInvoke,
  /// A job changed state; code = FlightJobState, a = nodes involved (the
  /// allocation, or the nodes given back), b = job id.
  kJobState,
  /// Fault-injector action; code = FlightFault, b = node id.
  kFault,
  /// Cooperative cancellation observed; code = sim::CancelReason, b = events
  /// processed at that point.
  kCancel,
  /// Run lifecycle marker; code = FlightMark, b = marker-specific value.
  kMark,
};

const char* to_string(FlightKind kind) noexcept;

/// Compact job-state vocabulary for ring records (the batch system's richer
/// state machine folds into these; postmortems need the trajectory, not the
/// bookkeeping distinctions).
enum class FlightJobState : std::uint16_t {
  kQueued = 0,
  kHeld,
  kRunning,
  kBoundary,
  kFinished,
  kKilled,
  kRequeued,
  kCancelled,
};

const char* to_string(FlightJobState state) noexcept;

/// Fault-injector actions worth keeping on the black box.
enum class FlightFault : std::uint16_t {
  kNodeFail = 0,
  kNodeRepair,
  kNodeDrain,
  kNodeUndrain,
};

const char* to_string(FlightFault fault) noexcept;

/// Run lifecycle markers.
enum class FlightMark : std::uint16_t {
  /// Engine drain about to start; b = jobs submitted.
  kRunBegin = 0,
  /// Engine drain returned normally; b = events processed.
  kRunEnd,
};

const char* to_string(FlightMark mark) noexcept;

/// One ring slot. POD on purpose: written on the hot path, read from a
/// signal handler.
struct FlightRecord {
  std::uint64_t ticks = 0;   ///< profiler::detail::tick_now() at record time.
  double sim_time = 0.0;     ///< Simulated seconds (last known for wall-side records).
  std::uint16_t kind = 0;    ///< FlightKind.
  std::uint16_t code = 0;    ///< Kind-specific discriminator (phase, state, cause...).
  std::uint32_t a = 0;       ///< Kind-specific small payload.
  std::uint64_t b = 0;       ///< Kind-specific wide payload (job id, counters).
};

static_assert(std::is_trivially_copyable_v<FlightRecord>, "ring slots must be POD");
static_assert(sizeof(FlightRecord) == 32, "keep ring slots cache-friendly");

/// Coarse simulator state refreshed at every scheduling point, so a dump can
/// describe the queue/cluster/fluid shape at death from plain PODs without
/// walking live (possibly corrupt) structures.
struct FlightSnapshot {
  double sim_time = 0.0;
  std::uint64_t events = 0;
  std::uint64_t pending_events = 0;
  std::uint32_t jobs_queued = 0;
  std::uint32_t jobs_running = 0;
  std::uint32_t nodes_free = 0;
  std::uint32_t nodes_failed = 0;
  std::uint32_t nodes_drained = 0;
  std::uint32_t nodes_total = 0;
};

/// Attached to every run as a stats::RunObserver (run_scenario does it while
/// enabled()): job transitions, faults, scheduling points and the run's
/// begin/end land on the ring, and each scheduling point's snapshot becomes
/// the dump's snapshot.
class FlightRecorder final : public stats::RunObserver {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;
  static constexpr int kMaxPhaseDepth = 16;

  /// Capacity is rounded up to a power of two (minimum 2).
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Process-wide switch, read once: ELSIM_FLIGHT=0 disables recording (the
  /// overhead-measurement baseline). Default on.
  static bool enabled() noexcept;

  /// This thread's recorder, created on first use. One per thread keeps the
  /// writer single even under the sweep worker pool.
  static FlightRecorder& thread_current();

  /// Drops all records, the phase stack, the snapshot, and context; restarts
  /// the calibration window. Called per sweep-cell attempt.
  void reset();

  // --- hot path -----------------------------------------------------------

  void note(FlightKind kind, double sim_time, std::uint16_t code, std::uint32_t a,
            std::uint64_t b) noexcept {
    FlightRecord& slot = ring_[head_ & mask_];
    slot.ticks = stats::profiler::detail::tick_now();
    slot.sim_time = sim_time;
    slot.kind = static_cast<std::uint16_t>(kind);
    slot.code = code;
    slot.a = a;
    slot.b = b;
    ++head_;
  }

  void note_engine_event(double sim_time, std::uint64_t events) noexcept {
    last_sim_time_ = sim_time;
    note(FlightKind::kEngineEvent, sim_time, 0, 0, events);
  }

  /// Trampoline for sim::Engine::set_event_hook.
  static void engine_event_hook(void* ctx, double now, std::uint64_t events) noexcept {
    static_cast<FlightRecorder*>(ctx)->note_engine_event(now, events);
  }

  void note_scheduler_invoke(double sim_time, std::uint16_t cause, std::uint32_t queued,
                             std::uint32_t rounds, std::uint32_t started) noexcept {
    note(FlightKind::kSchedulerInvoke, sim_time, cause, queued,
         (static_cast<std::uint64_t>(rounds) << 32U) | started);
  }

  void note_job_state(double sim_time, FlightJobState state, std::uint64_t job,
                      std::uint32_t nodes = 0) noexcept {
    note(FlightKind::kJobState, sim_time, static_cast<std::uint16_t>(state), nodes, job);
  }

  void note_fault(double sim_time, FlightFault fault, std::uint64_t node) noexcept {
    note(FlightKind::kFault, sim_time, static_cast<std::uint16_t>(fault), 0, node);
  }

  void note_cancel(double sim_time, int reason, std::uint64_t events) noexcept {
    cancel_reason_ = reason;
    note(FlightKind::kCancel, sim_time, static_cast<std::uint16_t>(reason), 0, events);
  }

  void note_mark(double sim_time, FlightMark mark, std::uint64_t value) noexcept {
    note(FlightKind::kMark, sim_time, static_cast<std::uint16_t>(mark), 0, value);
  }

  // --- run observer -------------------------------------------------------

  void on_run_begin(double time, std::size_t submitted) override;
  void on_run_end(const stats::RunEnd& event) override;
  void on_job(const stats::JobEvent& event) override;
  void on_fault(const stats::FaultEvent& event) override;
  void on_point_end(const stats::SchedulingPoint& point) override;

  // --- phase tap ----------------------------------------------------------

  /// Routes this thread's profiler phase transitions (ScopedPhase tap) into
  /// this recorder. Returns the previous hook so scopes can nest; pass the
  /// result to stats::profiler::set_phase_hook to restore.
  std::pair<stats::profiler::detail::PhaseHook, void*> arm_phase_tap() noexcept;

  /// Maintains the live phase stack and records the transition.
  void on_phase(stats::profiler::Phase phase, bool enter) noexcept;

  // --- cold-path state for dumps ------------------------------------------

  void set_snapshot(const FlightSnapshot& snapshot) noexcept { snapshot_ = snapshot; }
  const FlightSnapshot& snapshot() const noexcept { return snapshot_; }

  /// Sets (or overwrites) a context string embedded verbatim in dumps:
  /// scheduler name, input paths, sweep cell coordinates, seed.
  void set_context(const std::string& key, const std::string& value);

  std::size_t capacity() const noexcept { return ring_.size(); }
  /// Total records ever written since reset(); min(recorded, capacity) are
  /// still in the ring.
  std::uint64_t recorded() const noexcept { return head_; }
  std::size_t size() const noexcept;

  /// Live records, oldest first.
  std::vector<FlightRecord> decode() const;

  /// Active profiler phases, outermost first ("engine.dispatch scheduler").
  std::vector<const char*> phase_stack() const;

  /// Last phase ever entered (-1 = none). Unlike the live stack — which stack
  /// unwinding pops before an exception-path dump runs — this survives, so
  /// postmortems can still name the dying phase.
  int last_phase() const noexcept { return last_phase_; }

  int cancel_reason() const noexcept { return cancel_reason_; }

  // --- dumps --------------------------------------------------------------

  /// The full postmortem document (schema "elastisim-postmortem-v1"):
  /// cause/detail, build provenance, context, peak RSS, cancel reason, phase
  /// stack, snapshot, and the decoded ring.
  json::Value to_json(std::string_view cause, std::string_view detail) const;

  /// to_json() pretty-printed to `path`, parent directories created.
  void write_postmortem(const std::string& path, std::string_view cause,
                        std::string_view detail) const;

  /// Best-effort async-signal-safe dump: schema-compatible JSON with the
  /// same members, hand-formatted into a stack buffer and write(2)-flushed.
  /// Context strings and tick calibration are included from state captured
  /// before the signal. Returns bytes written (0 on failure).
  std::size_t write_postmortem_fd(int fd, const char* cause) const noexcept;

  /// Arms a process-wide SIGSEGV/SIGABRT handler that dumps `recorder` to
  /// `path` and re-raises with default disposition. Pass nullptr to disarm.
  /// Best-effort: the path is truncated to an internal fixed buffer.
  static void install_crash_handler(FlightRecorder* recorder, const std::string& path);

 private:
  /// Ticks→seconds over the window since reset(), calibrated lazily against
  /// the wall clock (profiler style). Returns 0 when uncalibratable.
  double ticks_per_second() const noexcept;

  std::vector<FlightRecord> ring_;
  std::size_t mask_ = 0;
  std::uint64_t head_ = 0;
  double last_sim_time_ = 0.0;
  int cancel_reason_ = 0;

  FlightSnapshot snapshot_;
  int phase_stack_[kMaxPhaseDepth] = {};
  int phase_depth_ = 0;
  int last_phase_ = -1;

  std::uint64_t window_start_ticks_ = 0;
  double window_start_wall_ = 0.0;

  std::vector<std::pair<std::string, std::string>> context_;
};

}  // namespace elastisim::core
