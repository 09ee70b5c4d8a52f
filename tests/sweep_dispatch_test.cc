// Tests for the distributed sweep dispatcher (sweep/dispatch.h) and the
// worker protocol it speaks (sweep/protocol.h).
//
// Two layers:
//
//  * In-process fakes: a WorkerTransport that executes work specs inline
//    and injects scripted faults (worker death, timeouts, truncated /
//    corrupt / mis-versioned answers, wrong task echoes) — fast, covers
//    the dispatcher's retry / respawn / fail-loudly state machine against
//    every fault mode, and proves the recovered aggregate is byte-identical
//    to the in-process SweepRunner.
//
//  * Real subprocesses: `bench_sim_sweep --worker` spawned from the build
//    directory over pipes — the merge audit (1-, 2-, and 4-worker sweeps
//    over the whole scenario library bit-compare equal to SweepRunner,
//    shuffled dispatch order included) and a fault chain driven by the
//    bench's own --worker-fault injection (die, truncate, corrupt,
//    bad-version, then a healthy respawn) plus a hung-worker timeout kill.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "sim/scenario.h"
#include "sweep/dispatch.h"
#include "sweep/protocol.h"
#include "sweep/serialize.h"
#include "sweep/sweep.h"

namespace titan::sweep {
namespace {

// Mirrors sweep_test's small_spec: every scenario shrunk to ctest cost.
SweepSpec library_spec() {
  SweepSpec spec;
  spec.num_seeds = 1;
  spec.peak_slot_calls = 25.0;
  spec.training_weeks = 1;
  spec.shards = 8;
  spec.replan_interval_slots = 12;
  spec.max_reduced_configs = 20;
  spec.oracle_counts = true;
  return spec;
}

// One cheap scenario, two seeds: the fault-injection workload.
SweepSpec tiny_spec() {
  SweepSpec spec = library_spec();
  spec.scenarios = {"steady-week"};
  spec.num_seeds = 2;
  return spec;
}

// The byte-comparison surface: everything but the declared wall-clock
// metrics, which are the only legitimate difference between schedules.
std::string masked_text(SweepResult result) {
  mask_timing_metrics(result);
  return to_json_text(result);
}

// --- in-process fakes ----------------------------------------------------

enum class Fault {
  none,         // answer normally
  eof,          // die without a byte (worker crash / exec failure)
  timeout,      // never answer (hung worker)
  truncate,     // half the answer line (cut pipe mid-write)
  corrupt,      // a full line that is not JSON
  bad_version,  // well-formed answer from an unknown protocol version
  wrong_echo,   // answer for a different (scenario, seed) than dispatched
};

// Executes work specs inline; consumes one scripted fault per task, then
// answers cleanly forever. Optionally logs every dispatched line so tests
// can inspect what actually crossed the "wire".
class FakeWorker final : public WorkerTransport {
 public:
  FakeWorker(std::vector<Fault> script, std::vector<std::string>* sent_log,
             std::mutex* log_mu)
      : script_(std::move(script)), sent_log_(sent_log), log_mu_(log_mu) {}

  void send(const std::string& line) override {
    if (dead_) throw std::runtime_error("fake worker: send to a dead worker");
    if (sent_log_ != nullptr) {
      std::lock_guard<std::mutex> lock(*log_mu_);
      sent_log_->push_back(line);
    }
    pending_ = line;
  }

  Recv recv(std::string& line, double /*timeout_sec*/) override {
    Fault fault = Fault::none;
    if (task_ < script_.size()) fault = script_[task_];
    ++task_;
    if (fault == Fault::eof) {
      dead_ = true;
      return Recv::eof;
    }
    if (fault == Fault::timeout) return Recv::timeout;

    PartialResult partial = run_work_spec(work_spec_from_text(pending_));
    if (fault == Fault::wrong_echo) partial.seed += 1;
    if (fault == Fault::bad_version) partial.protocol = kWorkProtocolVersion + 98;
    std::string answer = to_json_line(partial);
    if (fault == Fault::truncate) answer.resize(answer.size() / 2);
    if (fault == Fault::corrupt) answer = "{\"protocol\": 1, this is not json}";
    line = std::move(answer);
    return Recv::ok;
  }

 private:
  std::vector<Fault> script_;
  std::vector<std::string>* sent_log_;
  std::mutex* log_mu_;
  std::string pending_;
  std::size_t task_ = 0;
  bool dead_ = false;
};

// Factory whose Nth spawned transport gets the Nth script (later spawns
// are healthy). Tracks spawn count.
struct FakeFleet {
  std::vector<std::vector<Fault>> spawn_scripts;
  std::vector<std::string> sent_log;
  std::mutex mu;
  int spawned = 0;

  WorkerFactory factory(bool log_sends = false) {
    return [this, log_sends]() -> std::unique_ptr<WorkerTransport> {
      std::vector<Fault> script;
      {
        std::lock_guard<std::mutex> lock(mu);
        const std::size_t n = static_cast<std::size_t>(spawned++);
        if (n < spawn_scripts.size()) script = spawn_scripts[n];
      }
      return std::make_unique<FakeWorker>(std::move(script), log_sends ? &sent_log : nullptr,
                                          &mu);
    };
  }
};

// --- dispatcher correctness against every injected fault mode ------------

class SweepDispatchFaultTest : public ::testing::TestWithParam<Fault> {};

// One worker's first task hits the fault; the dispatcher must kill that
// worker, respawn, re-dispatch, and still produce the in-process bytes.
TEST_P(SweepDispatchFaultTest, FaultIsRetriedAndResultStaysByteIdentical) {
  const SweepSpec spec = tiny_spec();
  const std::string reference = masked_text(SweepRunner(spec).run());

  FakeFleet fleet;
  fleet.spawn_scripts = {{GetParam()}};  // first spawn faults once
  DispatchOptions options;
  options.workers = 2;
  options.task_timeout_sec = 0.2;  // fakes "time out" instantly; keep tests fast
  SweepDispatcher dispatcher(spec, fleet.factory(), options);
  const SweepResult result = dispatcher.run();

  EXPECT_EQ(masked_text(result), reference);
  const DispatchReport& report = dispatcher.report();
  int faults = 0, completed = 0;
  for (const auto& w : report.workers) {
    faults += w.faults;
    completed += w.tasks_completed;
  }
  EXPECT_EQ(faults, 1);
  EXPECT_EQ(completed, 2);  // 1 scenario x 2 seeds
  EXPECT_EQ(report.retries, 1);
  // At least the faulty spawn plus a healthy one; whether the faulted slot
  // respawns depends on which slot wins the requeued task (racy, and
  // allowed to be — the bytes above are not).
  EXPECT_GE(fleet.spawned, 2);
}

INSTANTIATE_TEST_SUITE_P(AllFaultModes, SweepDispatchFaultTest,
                         ::testing::Values(Fault::eof, Fault::timeout, Fault::truncate,
                                           Fault::corrupt, Fault::bad_version,
                                           Fault::wrong_echo));

// A spec that fails on every attempt must fail the sweep with the offending
// (scenario, seed) named — never silently drop work or hang.
TEST(SweepDispatchTest, ExhaustedRetriesFailLoudlyNamingTheSpec) {
  const SweepSpec spec = tiny_spec();
  FakeFleet fleet;
  // Every transport ever spawned answers EOF to everything.
  fleet.spawn_scripts.assign(64, std::vector<Fault>(8, Fault::eof));
  DispatchOptions options;
  options.workers = 2;
  options.max_attempts = 3;
  options.max_respawns = 8;
  SweepDispatcher dispatcher(spec, fleet.factory(), options);
  try {
    (void)dispatcher.run();
    FAIL() << "a permanently failing spec must fail the sweep";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("scenario=steady-week"), std::string::npos) << what;
    EXPECT_NE(what.find("seed="), std::string::npos) << what;
    EXPECT_NE(what.find("failed after 3 attempts"), std::string::npos) << what;
  }
}

// Worker slots that cannot even spawn retire after requeueing their work;
// when no slot is left the dispatcher reports it instead of deadlocking.
TEST(SweepDispatchTest, UnspawnableWorkersFailTheSweepInsteadOfHanging) {
  SweepDispatcher dispatcher(
      tiny_spec(),
      []() -> std::unique_ptr<WorkerTransport> {
        throw std::runtime_error("spawn refused");
      },
      DispatchOptions{.workers = 1});
  EXPECT_THROW((void)dispatcher.run(), std::runtime_error);
}

// The dispatcher validates like the runner: bad specs and bad options are
// rejected before any worker spawns.
TEST(SweepDispatchTest, RejectsBadSpecsAndOptionsUpFront) {
  FakeFleet fleet;
  SweepSpec bad = tiny_spec();
  bad.scenarios = {"no-such-scenario"};
  EXPECT_THROW(SweepDispatcher(bad, fleet.factory(), DispatchOptions{}),
               std::invalid_argument);
  EXPECT_THROW(SweepDispatcher(tiny_spec(), fleet.factory(), DispatchOptions{.workers = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      SweepDispatcher(tiny_spec(), fleet.factory(), DispatchOptions{.task_timeout_sec = 0.0}),
      std::invalid_argument);
  EXPECT_THROW(
      SweepDispatcher(tiny_spec(), fleet.factory(), DispatchOptions{.max_attempts = 0}),
      std::invalid_argument);
  EXPECT_THROW(SweepDispatcher(tiny_spec(), WorkerFactory{}, DispatchOptions{}),
               std::invalid_argument);
}

// What crosses the wire describes the work, never the scheduling: the
// spec's execution knobs are normalized out of every dispatched WorkSpec,
// and a dispatch-order shuffle reorders the sends without changing a byte
// of the result.
TEST(SweepDispatchTest, WireSpecsAreNormalizedAndShuffleOnlyReordersDispatch) {
  SweepSpec spec = tiny_spec();
  spec.num_seeds = 4;
  spec.workers = 7;             // in-process knobs, meaningless on the wire
  spec.task_order_seed = 1234;

  FakeFleet ordered;
  SweepDispatcher a(spec, ordered.factory(/*log_sends=*/true),
                    DispatchOptions{.workers = 1});
  const std::string bytes_a = masked_text(a.run());
  ASSERT_EQ(ordered.sent_log.size(), 4u);
  std::vector<std::uint64_t> seeds_a;
  for (const auto& line : ordered.sent_log) {
    const WorkSpec sent = work_spec_from_text(line);
    EXPECT_EQ(sent.spec.workers, 0);
    EXPECT_EQ(sent.spec.task_order_seed, 0u);
    seeds_a.push_back(sent.seed);
  }

  FakeFleet shuffled;
  DispatchOptions shuffle_options;
  shuffle_options.workers = 1;
  shuffle_options.dispatch_order_seed = 0xC0FFEE;
  SweepDispatcher b(spec, shuffled.factory(/*log_sends=*/true), shuffle_options);
  const std::string bytes_b = masked_text(b.run());
  ASSERT_EQ(shuffled.sent_log.size(), 4u);
  std::vector<std::uint64_t> seeds_b;
  for (const auto& line : shuffled.sent_log)
    seeds_b.push_back(work_spec_from_text(line).seed);

  EXPECT_NE(seeds_a, seeds_b);  // the shuffle really reordered dispatch
  EXPECT_EQ(bytes_a, bytes_b);  // ...and the bytes never noticed
}

// The per-worker accounting that feeds the CI timing artifact: every
// completed task is attributed to exactly one slot, busy time is positive,
// and the obs registry mirror carries the same counts.
TEST(SweepDispatchTest, ReportAndRegistryCarryPerWorkerTiming) {
  const SweepSpec spec = tiny_spec();
  FakeFleet fleet;
  SweepDispatcher dispatcher(spec, fleet.factory(), DispatchOptions{.workers = 2});
  (void)dispatcher.run();

  const DispatchReport& report = dispatcher.report();
  ASSERT_EQ(report.workers.size(), 2u);
  int completed = 0;
  for (const auto& w : report.workers) {
    completed += w.tasks_completed;
    if (w.tasks_completed > 0) {
      EXPECT_GT(w.busy_seconds, 0.0);
    }
  }
  EXPECT_EQ(completed, 2);
  EXPECT_EQ(report.retries, 0);
  EXPECT_GT(report.seconds, 0.0);

  const obs::Registry& registry = dispatcher.registry();
  std::int64_t counted = 0;
  for (const auto& w : report.workers)
    counted += registry.counters()
                   .at("sweep.dispatch.worker." + std::to_string(w.worker) + ".tasks")
                   .value();
  EXPECT_EQ(counted, 2);
  EXPECT_EQ(registry.histograms().at("sweep.dispatch.task_seconds").total_count(), 2u);
}

// --- the protocol executes exactly what the runner executes ---------------

TEST(SweepDispatchTest, RunWorkSpecMatchesRunSweepTask) {
  const SweepSpec spec = tiny_spec();
  WorkSpec work;
  work.scenario = "steady-week";
  work.seed = spec.base_seed;
  work.spec = spec;

  PartialResult partial = run_work_spec(work);
  SweepTaskResult task = run_sweep_task(spec, work.scenario, work.seed);
  EXPECT_EQ(partial.scenario, work.scenario);
  EXPECT_EQ(partial.seed, work.seed);
  // Two independent executions: identical up to the wall-clock metrics.
  for (auto* records : {&partial.records, &task.records})
    for (RunRecord& run : *records)
      for (const std::size_t m : timing_metric_indices()) run.values[m] = 0.0;
  EXPECT_TRUE(partial.records == task.records);
  EXPECT_TRUE(partial.determinism_violations == task.determinism_violations);
  EXPECT_GT(partial.task_seconds, 0.0);
}

// --- real worker subprocesses (bench_sim_sweep --worker) ------------------

// The worker binary sits next to this test binary in the build directory.
std::string worker_binary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  std::string path(buf);
  const std::size_t slash = path.find_last_of('/');
  path = path.substr(0, slash) + "/bench_sim_sweep";
  return ::access(path.c_str(), X_OK) == 0 ? path : "";
}

// The merge audit: for every scenario in the library, distributed sweeps
// at 1, 2, and 4 worker processes — one of them with a shuffled dispatch
// order — serialize to the exact bytes the in-process SweepRunner
// produces, wall-clock metrics masked on both sides.
TEST(SweepDispatchE2ETest, DistributedSweepsAreByteIdenticalToInProcess) {
  const std::string binary = worker_binary();
  ASSERT_FALSE(binary.empty()) << "bench_sim_sweep not found next to the test binary";

  const SweepSpec spec = library_spec();  // whole library
  SweepResult reference_result = SweepRunner(spec).run();
  ASSERT_EQ(reference_result.aggregates.size(), sim::scenario_names().size());
  const std::string reference = masked_text(std::move(reference_result));

  const struct {
    int workers;
    std::uint64_t dispatch_order_seed;
  } cases[] = {{1, 0}, {2, 0xBEEF}, {4, 0}};
  for (const auto& c : cases) {
    DispatchOptions options;
    options.workers = c.workers;
    options.task_timeout_sec = 120.0;
    options.dispatch_order_seed = c.dispatch_order_seed;
    SweepDispatcher dispatcher(spec, process_worker_factory({binary, "--worker"}), options);
    const SweepResult result = dispatcher.run();
    EXPECT_EQ(masked_text(result), reference)
        << c.workers << " workers, shuffle seed " << c.dispatch_order_seed;
    const DispatchReport& report = dispatcher.report();
    EXPECT_EQ(report.retries, 0);
    int completed = 0;
    for (const auto& w : report.workers) completed += w.tasks_completed;
    EXPECT_EQ(completed, static_cast<int>(sim::scenario_names().size()));
  }
}

// Every --worker-fault mode of the real binary, chained on one slot: the
// faulty incarnations die (or get killed) one after another, each time the
// spec is re-dispatched, and the healthy respawn finishes the sweep with
// the in-process bytes.
TEST(SweepDispatchE2ETest, WorkerFaultChainIsRecoveredByteIdentically) {
  const std::string binary = worker_binary();
  ASSERT_FALSE(binary.empty()) << "bench_sim_sweep not found next to the test binary";

  const SweepSpec spec = tiny_spec();
  const std::string reference = masked_text(SweepRunner(spec).run());

  const std::vector<std::string> faults = {"die", "truncate", "corrupt", "bad-version"};
  auto spawned = std::make_shared<int>(0);
  WorkerFactory factory = [binary, faults, spawned]() -> std::unique_ptr<WorkerTransport> {
    const int n = (*spawned)++;
    std::vector<std::string> argv = {binary, "--worker"};
    if (n < static_cast<int>(faults.size())) {
      argv.push_back("--worker-fault");
      argv.push_back(faults[static_cast<std::size_t>(n)]);
    }
    return process_worker_factory(argv)();
  };

  DispatchOptions options;
  options.workers = 1;  // single slot: the fault chain is deterministic
  options.task_timeout_sec = 120.0;
  options.max_attempts = static_cast<int>(faults.size()) + 2;
  options.max_respawns = static_cast<int>(faults.size()) + 2;
  SweepDispatcher dispatcher(spec, factory, options);
  const SweepResult result = dispatcher.run();

  EXPECT_EQ(masked_text(result), reference);
  const DispatchReport& report = dispatcher.report();
  ASSERT_EQ(report.workers.size(), 1u);
  EXPECT_EQ(report.workers[0].faults, static_cast<int>(faults.size()));
  EXPECT_EQ(report.workers[0].respawns, static_cast<int>(faults.size()));
  EXPECT_EQ(report.workers[0].tasks_completed, 2);
  EXPECT_EQ(report.retries, static_cast<int>(faults.size()));
}

// A hung worker (answers nothing, forever) trips the per-task timeout, is
// SIGKILLed, and its task migrates to a fresh worker — the slow path of
// the fault model, with real wall time, so the budget is kept tight.
TEST(SweepDispatchE2ETest, HungWorkerIsKilledAfterTimeoutAndWorkMigrates) {
  const std::string binary = worker_binary();
  ASSERT_FALSE(binary.empty()) << "bench_sim_sweep not found next to the test binary";

  SweepSpec spec = tiny_spec();
  spec.num_seeds = 1;  // one task: exactly one timeout + one clean retry
  const std::string reference = masked_text(SweepRunner(spec).run());

  auto spawned = std::make_shared<int>(0);
  WorkerFactory factory = [binary, spawned]() -> std::unique_ptr<WorkerTransport> {
    const int n = (*spawned)++;
    std::vector<std::string> argv = {binary, "--worker"};
    if (n == 0) {
      argv.push_back("--worker-fault");
      argv.push_back("hang");
    }
    return process_worker_factory(argv)();
  };

  DispatchOptions options;
  options.workers = 1;
  options.task_timeout_sec = 15.0;  // > task cost, << the default 600
  SweepDispatcher dispatcher(spec, factory, options);
  const SweepResult result = dispatcher.run();

  EXPECT_EQ(masked_text(result), reference);
  ASSERT_EQ(dispatcher.report().workers.size(), 1u);
  EXPECT_EQ(dispatcher.report().workers[0].faults, 1);
  EXPECT_EQ(dispatcher.report().workers[0].tasks_completed, 1);
}

}  // namespace
}  // namespace titan::sweep
