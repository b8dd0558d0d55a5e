#include "src/check/parallel.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <thread>

#include "src/check/state_codec.h"
#include "src/support/hash.h"
#include "src/support/state_table.h"

namespace efeu::check {

namespace {

using Transition = CheckedSystem::Transition;

struct WorkItem {
  // Post-closure state key (see StateCodec), already claimed in the shared
  // table.
  std::vector<int32_t> state;
  // Transitions from the initial state to `state` (rendered only for a
  // violation); doubles as the item's depth (transitions taken so far).
  std::vector<Transition> path;
};

class Engine {
 public:
  Engine(const ParallelCheckerOptions& options, int workers)
      : options_(options), workers_(workers), table_(TableOptions(options, workers)) {}

  CheckResult Run(CheckedSystem& system);

 private:
  static StateTableOptions TableOptions(const ParallelCheckerOptions& options, int workers) {
    StateTableOptions t;
    t.num_shards = workers * 8;
    t.fingerprint_only = options.fingerprint_only;
    return t;
  }

  // Expands a BFS prefix on the caller's system until the frontier is large
  // enough to feed every worker, then moves it into the global queue. Returns
  // false when no worker phase is needed: the space was fully explored during
  // seeding, a violation was found (stored in *result), or a budget ran out.
  // The prefix is expanded without partial-order reduction: seed states are
  // the roots every worker's reduced DFS hangs off, and fully expanding them
  // trivially satisfies the cycle proviso for any cycle through them.
  bool Seed(CheckedSystem& system, CheckResult* result);

  void Worker(CheckedSystem& system);
  // `walk_seen` is the worker's reused set of a forced walk's unsampled
  // states.
  void Explore(CheckedSystem& system, StateCodec& codec, ShardedStateTable& walk_seen,
               const WorkItem& item);

  // Depth-prune probe: sets the exhausted flag only if one of the remaining
  // successors of `key` is actually unvisited (or its closure violates).
  void ProbeSkipped(CheckedSystem& system, StateCodec& codec, const std::vector<int32_t>& key,
                    const std::vector<Transition>& transitions, size_t begin);

  std::optional<WorkItem> Pop();
  void PushWork(WorkItem item);
  void RequestStop();
  bool ShouldStop() const { return stop_.load(std::memory_order_relaxed); }
  bool OutOfBudget();
  void ReportViolation(Violation v);
  void NoteDepth(int depth);
  double Elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time_).count();
  }

  const ParallelCheckerOptions& options_;
  const int workers_;
  ShardedStateTable table_;
  // Shared COLLAPSE component store (null without options.base.collapse).
  // Interning is content-addressed, so all workers' codecs agree on ids.
  std::unique_ptr<CollapseTable> collapse_;
  const std::chrono::steady_clock::time_point start_time_ = std::chrono::steady_clock::now();

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<WorkItem> queue_;
  int idle_ = 0;
  std::atomic<bool> stop_{false};
  // Approximate queue length, readable without the lock; workers donate
  // subtrees while it is below the worker count.
  std::atomic<size_t> queue_hint_{0};

  std::mutex violation_mu_;
  std::optional<Violation> violation_;

  std::atomic<uint64_t> transitions_{0};
  std::atomic<uint64_t> por_reduced_{0};
  std::atomic<int> max_depth_{0};
  std::atomic<bool> exhausted_{false};
};

std::optional<WorkItem> Engine::Pop() {
  std::unique_lock<std::mutex> lock(queue_mu_);
  ++idle_;
  for (;;) {
    if (stop_.load(std::memory_order_relaxed)) {
      return std::nullopt;
    }
    if (!queue_.empty()) {
      --idle_;
      WorkItem item = std::move(queue_.front());
      queue_.pop_front();
      queue_hint_.store(queue_.size(), std::memory_order_relaxed);
      return item;
    }
    if (idle_ == workers_) {
      // Every worker is waiting on an empty queue: exploration is complete.
      stop_.store(true, std::memory_order_relaxed);
      queue_cv_.notify_all();
      return std::nullopt;
    }
    queue_cv_.wait(lock);
  }
}

void Engine::PushWork(WorkItem item) {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    queue_.push_back(std::move(item));
    queue_hint_.store(queue_.size(), std::memory_order_relaxed);
  }
  queue_cv_.notify_one();
}

void Engine::RequestStop() {
  {
    std::lock_guard<std::mutex> lock(queue_mu_);
    stop_.store(true, std::memory_order_relaxed);
  }
  queue_cv_.notify_all();
}

void Engine::ReportViolation(Violation v) {
  {
    std::lock_guard<std::mutex> lock(violation_mu_);
    if (!violation_.has_value()) {
      violation_ = std::move(v);
    }
  }
  RequestStop();
}

void Engine::NoteDepth(int depth) {
  int seen = max_depth_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !max_depth_.compare_exchange_weak(seen, depth, std::memory_order_relaxed)) {
  }
}

bool Engine::OutOfBudget() {
  const CheckerOptions& base = options_.base;
  bool over = false;
  if (base.max_states != 0 && table_.size() >= base.max_states) {
    over = true;
  }
  if (!over && base.max_transitions != 0 &&
      transitions_.load(std::memory_order_relaxed) >= base.max_transitions) {
    over = true;
  }
  if (!over && base.time_budget_seconds > 0 && Elapsed() > base.time_budget_seconds) {
    over = true;
  }
  if (over) {
    exhausted_.store(true, std::memory_order_relaxed);
    RequestStop();
  }
  return over;
}

void Engine::ProbeSkipped(CheckedSystem& system, StateCodec& codec,
                          const std::vector<int32_t>& key,
                          const std::vector<Transition>& transitions, size_t begin) {
  if (exhausted_.load(std::memory_order_relaxed)) {
    return;
  }
  std::vector<int32_t> probe_key;
  for (size_t i = begin; i < transitions.size(); ++i) {
    codec.Restore(key);
    codec.NoteStep(transitions[i]);
    system.Apply(transitions[i]);
    Violation violation;
    bool progress = false;
    if (!system.Closure(&violation, &progress)) {
      exhausted_.store(true, std::memory_order_relaxed);
      return;
    }
    codec.EncodeStep(&probe_key);
    if (table_.WouldClaimHashed(HashWords(probe_key), probe_key)) {
      exhausted_.store(true, std::memory_order_relaxed);
      return;
    }
  }
}

bool Engine::Seed(CheckedSystem& system, CheckResult* result) {
  StateCodec codec(system, collapse_.get());
  system.ResetAll();
  Violation violation;
  bool progress = false;
  if (!system.Closure(&violation, &progress)) {
    result->violation = std::move(violation);
    return false;
  }
  std::vector<int32_t> init;
  codec.EncodeFull(&init);
  table_.ClaimHashed(HashWords(init), init);
  if (system.EnabledTransitions().empty()) {
    if (options_.base.check_deadlock && !system.AllAtValidEnd()) {
      Violation v;
      v.kind = ViolationKind::kInvalidEndState;
      v.message = "invalid end state: " + system.DescribeBlockedProcesses();
      result->violation = std::move(v);
    }
    return false;
  }

  std::deque<WorkItem> frontier;
  frontier.push_back(WorkItem{std::move(init), {}});
  int seed_factor = options_.seed_factor < 1 ? 1 : options_.seed_factor;
  size_t target = static_cast<size_t>(seed_factor) * static_cast<size_t>(workers_);

  std::vector<int32_t> next_key;
  ShardedStateTable walk_seen;
  while (!frontier.empty() && frontier.size() < target) {
    if (OutOfBudget()) {
      return false;
    }
    WorkItem item = std::move(frontier.front());
    frontier.pop_front();
    int depth = static_cast<int>(item.path.size()) + 1;
    codec.Restore(item.state);
    std::vector<Transition> transitions = system.EnabledTransitions();
    if (depth > options_.base.max_depth) {
      ProbeSkipped(system, codec, item.state, transitions, 0);
      continue;
    }
    NoteDepth(depth);
    for (const Transition& t : transitions) {
      codec.Restore(item.state);
      codec.NoteStep(t);
      system.Apply(t);
      transitions_.fetch_add(1, std::memory_order_relaxed);
      std::vector<Transition> path = item.path;
      path.push_back(t);
      Violation step_violation;
      bool step_progress = false;
      if (!system.Closure(&step_violation, &step_progress)) {
        step_violation.trace = system.DescribePath(path);
        result->violation = std::move(step_violation);
        return false;
      }
      codec.EncodeStep(&next_key);
      uint64_t next_hash = HashWords(next_key);
      if (!table_.ClaimHashed(next_hash, next_key)) {
        continue;
      }
      std::vector<Transition> next_transitions = system.EnabledTransitions();

      // Forced-run compression during seeding too, with the same sampling
      // rule as the DFS engines: the seed phase must store the same states
      // the sequential engine would, or the engines' stored sets diverge.
      // Seed states are fully expanded, and run states are fully expanded by
      // construction, so the proviso argument is unchanged.
      if (options_.base.por && next_transitions.size() == 1) {
        walk_seen.Clear();
        bool abandoned = false;
        while (next_transitions.size() == 1) {
          const Transition forced = next_transitions[0];
          codec.NoteStep(forced);
          system.Apply(forced);
          transitions_.fetch_add(1, std::memory_order_relaxed);
          path.push_back(forced);
          Violation chain_violation;
          bool chain_progress = false;
          if (!system.Closure(&chain_violation, &chain_progress)) {
            chain_violation.trace = system.DescribePath(path);
            result->violation = std::move(chain_violation);
            return false;
          }
          codec.EncodeStep(&next_key);
          next_hash = HashWords(next_key);
          system.EnabledTransitions(&next_transitions);
          if (next_transitions.size() != 1) {
            break;  // Landing state (branch point or end): claimed below.
          }
          if ((codec.FullStateHash(next_hash) & kPorChainSampleMask) == 0) {
            if (!table_.ClaimHashed(next_hash, next_key)) {
              abandoned = true;  // Sampled run state already stored.
              break;
            }
          } else {
            if (!walk_seen.ClaimHashed(next_hash, next_key)) {
              abandoned = true;  // Unsampled cycle, now fully traversed once.
              break;
            }
            por_reduced_.fetch_add(1, std::memory_order_relaxed);
          }
          if (OutOfBudget()) {
            return false;
          }
        }
        if (abandoned) {
          continue;
        }
        if (!table_.ClaimHashed(next_hash, next_key)) {
          continue;
        }
      }

      if (next_transitions.empty()) {
        if (options_.base.check_deadlock && !system.AllAtValidEnd()) {
          Violation v;
          v.kind = ViolationKind::kInvalidEndState;
          v.message = "invalid end state: " + system.DescribeBlockedProcesses();
          v.trace = system.DescribePath(path);
          result->violation = std::move(v);
          return false;
        }
        continue;
      }
      frontier.push_back(WorkItem{next_key, std::move(path)});
    }
  }

  if (frontier.empty()) {
    return false;  // Fully explored during seeding.
  }
  queue_ = std::move(frontier);
  queue_hint_.store(queue_.size(), std::memory_order_relaxed);
  return true;
}

void Engine::Worker(CheckedSystem& system) {
  StateCodec codec(system, collapse_.get());
  ShardedStateTable walk_seen;
  for (;;) {
    std::optional<WorkItem> item = Pop();
    if (!item.has_value()) {
      return;
    }
    Explore(system, codec, walk_seen, *item);
  }
}

void Engine::Explore(CheckedSystem& system, StateCodec& codec, ShardedStateTable& walk_seen,
                     const WorkItem& item) {
  const bool por = options_.base.por;
  struct Frame {
    std::vector<int32_t> key;
    std::vector<Transition> transitions;
    size_t next = 0;
    // >= 0: only transitions[ample] is explored (partial-order reduction);
    // reset to -1 with next = 0 when the ample successor turns out to be
    // already claimed (the parallel cycle proviso, conservative: any cycle's
    // closing edge necessarily targets an already-claimed state).
    int ample = -1;
    // The transition that led into this frame (unused for the item's root
    // frame, whose path is item.path).
    Transition edge;
    // The forced-run transitions walked inline between that edge and this
    // frame's state (see kPorChainSampleMask in checker.h).
    std::vector<Transition> chain;
  };
  std::vector<Frame> stack;

  // The path from the initial state through the stack, then `current` and
  // `chain`: a violation's trace or a donated item's path.
  auto build_path = [&](const Transition& current, const std::vector<Transition>& chain) {
    std::vector<Transition> path = item.path;
    for (size_t i = 1; i < stack.size(); ++i) {
      path.push_back(stack[i].edge);
      path.insert(path.end(), stack[i].chain.begin(), stack[i].chain.end());
    }
    path.push_back(current);
    path.insert(path.end(), chain.begin(), chain.end());
    return path;
  };
  auto report = [&](Violation v, const Transition& current, const std::vector<Transition>& chain) {
    v.trace = system.DescribePath(build_path(current, chain));
    ReportViolation(std::move(v));
  };

  codec.Restore(item.state);
  Frame root;
  root.key = item.state;
  root.transitions = system.EnabledTransitions();
  if (por) {
    // The parallel engine only runs safety passes (no livelock), so progress
    // visibility never constrains the ample choice.
    root.ample = system.PickAmple(root.transitions, /*livelock_sensitive=*/false);
  }
  stack.push_back(std::move(root));

  std::vector<int32_t> next_key;
  std::vector<Transition> chain;
  while (!stack.empty()) {
    if (ShouldStop()) {
      return;
    }
    Frame& frame = stack.back();
    bool frame_done =
        frame.ample >= 0 ? frame.next > 0 : frame.next >= frame.transitions.size();
    if (frame_done) {
      if (frame.ample >= 0) {
        por_reduced_.fetch_add(1, std::memory_order_relaxed);
      }
      stack.pop_back();
      continue;
    }
    if (OutOfBudget()) {
      return;
    }
    int depth = static_cast<int>(item.path.size() + stack.size());
    if (depth > options_.base.max_depth) {
      ProbeSkipped(system, codec, frame.key, frame.transitions,
                   frame.ample >= 0 ? 0 : frame.next);
      stack.pop_back();
      continue;
    }
    NoteDepth(depth);

    size_t index = frame.ample >= 0 ? static_cast<size_t>(frame.ample) : frame.next;
    ++frame.next;
    const Transition t = frame.transitions[index];
    codec.Restore(frame.key);
    codec.NoteStep(t);
    system.Apply(t);
    transitions_.fetch_add(1, std::memory_order_relaxed);
    chain.clear();
    Violation violation;
    bool progress = false;
    if (!system.Closure(&violation, &progress)) {
      report(std::move(violation), t, chain);
      return;
    }
    codec.EncodeStep(&next_key);
    uint64_t next_hash = HashWords(next_key);
    if (!table_.ClaimHashed(next_hash, next_key)) {
      // Another worker (or this one) already owns this state. If it was the
      // ample successor, it might close a cycle of reduced states: fall back
      // to the full expansion (cycle proviso).
      if (frame.ample >= 0) {
        frame.ample = -1;
        frame.next = 0;
      }
      continue;
    }
    std::vector<Transition> next_transitions = system.EnabledTransitions();

    // Forced-run compression, mirroring the sequential engine exactly (same
    // full-state sampling rule, so both engines store identical sets; see
    // kPorChainSampleMask in checker.h). Run states are fully expanded by
    // construction, so no cycle-proviso fallback is needed on a mid-run
    // claim failure.
    if (por && next_transitions.size() == 1) {
      walk_seen.Clear();
      bool abandoned = false;
      while (next_transitions.size() == 1) {
        const Transition forced = next_transitions[0];
        codec.NoteStep(forced);
        system.Apply(forced);
        transitions_.fetch_add(1, std::memory_order_relaxed);
        chain.push_back(forced);
        Violation chain_violation;
        bool chain_progress = false;
        if (!system.Closure(&chain_violation, &chain_progress)) {
          report(std::move(chain_violation), t, chain);
          return;
        }
        codec.EncodeStep(&next_key);
        next_hash = HashWords(next_key);
        system.EnabledTransitions(&next_transitions);
        if (next_transitions.size() != 1) {
          break;  // Landing state (branch point or end): claimed below.
        }
        if ((codec.FullStateHash(next_hash) & kPorChainSampleMask) == 0) {
          if (!table_.ClaimHashed(next_hash, next_key)) {
            abandoned = true;  // Sampled run state already stored.
            break;
          }
        } else {
          if (!walk_seen.ClaimHashed(next_hash, next_key)) {
            abandoned = true;  // Unsampled cycle, now fully traversed once.
            break;
          }
          por_reduced_.fetch_add(1, std::memory_order_relaxed);
        }
        if (ShouldStop() || OutOfBudget()) {
          return;
        }
      }
      if (abandoned) {
        continue;
      }
      // Claim the landing state like any other fresh child.
      if (!table_.ClaimHashed(next_hash, next_key)) {
        continue;
      }
    }

    if (next_transitions.empty()) {
      if (options_.base.check_deadlock && !system.AllAtValidEnd()) {
        Violation v;
        v.kind = ViolationKind::kInvalidEndState;
        v.message = "invalid end state: " + system.DescribeBlockedProcesses();
        report(std::move(v), t, chain);
        return;
      }
      continue;
    }
    if (queue_hint_.load(std::memory_order_relaxed) < static_cast<size_t>(workers_)) {
      // Other workers look starved: donate this subtree instead of descending.
      PushWork(WorkItem{next_key, build_path(t, chain)});
      continue;
    }
    Frame child;
    child.edge = t;
    child.chain = chain;
    child.key = next_key;
    child.transitions = std::move(next_transitions);
    if (por) {
      child.ample = system.PickAmple(child.transitions, /*livelock_sensitive=*/false);
    }
    stack.push_back(std::move(child));
  }
}

CheckResult Engine::Run(CheckedSystem& system) {
  CheckResult result;
  if (options_.base.collapse) {
    collapse_ = std::make_unique<CollapseTable>(system.SnapshotSizes());
  }
  if (Seed(system, &result)) {
    // Each worker explores on its own structural clone of the system.
    std::vector<std::unique_ptr<CheckedSystem>> clones;
    clones.reserve(static_cast<size_t>(workers_));
    for (int i = 0; i < workers_; ++i) {
      clones.push_back(system.Clone());
    }
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(workers_));
    for (int i = 0; i < workers_; ++i) {
      threads.emplace_back([this, &clones, i] { Worker(*clones[static_cast<size_t>(i)]); });
    }
    for (std::thread& thread : threads) {
      thread.join();
    }
  }
  {
    std::lock_guard<std::mutex> lock(violation_mu_);
    if (violation_.has_value() && !result.violation.has_value()) {
      result.violation = std::move(*violation_);
    }
  }
  result.states_stored = table_.size();
  result.state_bytes = table_.payload_bytes();
  result.component_bytes = collapse_ != nullptr ? collapse_->payload_bytes() : 0;
  result.por_reduced_states = por_reduced_.load(std::memory_order_relaxed);
  result.transitions = transitions_.load(std::memory_order_relaxed);
  result.max_depth_reached = max_depth_.load(std::memory_order_relaxed);
  result.budget_exhausted = exhausted_.load(std::memory_order_relaxed);
  result.ok = !result.violation.has_value();
  result.seconds = Elapsed();
  return result;
}

}  // namespace

CheckResult CheckParallel(CheckedSystem& system, const ParallelCheckerOptions& options) {
  int workers = options.num_threads;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) {
      workers = 1;
    }
  }
  if (workers <= 1 || options.base.check_livelock || options.base.disable_state_dedup) {
    CheckerOptions sequential = options.base;
    sequential.num_threads = 1;
    sequential.fingerprint_only = options.fingerprint_only || sequential.fingerprint_only;
    return system.Check(sequential);
  }
  Engine engine(options, workers);
  return engine.Run(system);
}

}  // namespace efeu::check
