// One chunk-native executor for the flow's per-window hot loops: OPC
// correction, CD extraction and the hotspot (ORC) scan.  It has the shape
// of a generic for_each(work, operator).  The executor owns everything the
// three loops share; each phase supplies a small descriptor of hooks.
//
// The window range is cut into chunks of `chunk` consecutive windows (the
// batch width), and one worker owns a chunk end to end:
//   1. each window is opened once.  Its context (geometry, cache key)
//      serves the journal, the cache probe and the compute alike.  A
//      journaled window replays its result and containment outcome.
//   2. the other windows probe the phase's cache in index order.
//   3. the misses are computed in one batched call.  Each window runs as
//      its own fault::Lane, so a faulting window fails only its own
//      attempt 0 and never aborts its batch-mates.
//   4. in index order, each window stores its result (cache insert, result
//      slot).  A window whose attempt 0 failed retries alone with escalated
//      settings, then degrades.  Then it is journaled.
// A window whose cache key repeats an earlier miss of the same chunk waits
// one round and then hits the entry that window inserted, so cache
// counters match a width-1 run on one thread exactly.  Every decision is
// keyed by window index, never by scheduling: results, health and injected
// faults are identical at any batch width and thread count.
//
// Containment off (fail-fast) is the same loop with no retries and no
// degrade; after the loop the lowest failing window's original exception
// is rethrown.
//
// A phase P supplies (see OpcPhase, ExtractPhase and ScanPhase in
// src/core/flow.cpp):
//   using Window = ...;        derives from WindowState: context + result
//   name, domain, journal_phase   health phase name ("opc", ...), fault
//                                 domain and journal phase of its windows
//   size(), index(k)           window count; item id at loop position k
//   skip(w)                    settled without compute or journal
//   open(w)                    builds the context; sets keyed/key
//   record_fp(w), replay(w, rec), payload(w)    journal identity and codec;
//                              the identity covers everything the result
//                              depends on, so a replayed record equals a
//                              recompute or matches nothing
//   probe(w)                   cache lookup; true = nothing to compute
//   compute(ws, n)             nominal batched compute, per-lane failures
//   store(w)                   cache-inserts what was computed, fills slot
//   retry(w)                   escalated width-1 attempt; never touches the
//                              cache, so no escalated result is stored
//                              under the nominal key
//   degrade(w)                 fallback result once every attempt failed
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "src/cache/fingerprint.h"
#include "src/common/error.h"
#include "src/common/fault.h"
#include "src/par/thread_pool.h"
#include "src/run/journal.h"

namespace poc {

/// Containment outcome of one window, merged into FlowHealth in window
/// order and journaled with the window's result.
struct WindowOutcome {
  std::uint64_t index = 0;  ///< item id (instance or gate)
  bool faulted = false;     ///< at least one attempt threw
  FlowError first_error;    ///< the first attempt's failure
  std::size_t attempts = 1;
  bool recovered = false;
  bool degraded = false;
};

/// Loop-wide settings, resolved once per loop by the flow.
struct WindowLoopOptions {
  std::size_t threads = 1;
  std::size_t chunk = 1;  ///< batch width and parallel chunk
  const CancelToken* cancel = nullptr;
  RunJournal* journal = nullptr;  ///< null: no replay, no append
  bool contain = true;            ///< false: fail fast
  std::size_t max_retries = 0;
};

/// The executor's per-window state; each phase's Window derives from it.
struct WindowState {
  std::size_t k = 0;        ///< loop position
  std::uint64_t index = 0;  ///< item id: the fault index and journal index
  fault::Domain domain = fault::Domain::kNone;
  Fingerprint record;       ///< journal record identity
  bool keyed = false;       ///< `key` names the window's cache entry
  Fingerprint key;
  std::exception_ptr error;  ///< failure of the nominal attempt

  /// The window as a batch lane: its scope, its failure slot.
  fault::Lane lane() { return {domain, index, &error}; }
};

/// Runs every window of `phase` (see the file comment); returns the
/// per-window outcomes, indexed by loop position.
template <typename Phase>
std::vector<WindowOutcome> run_window_loop(Phase& phase,
                                           const WindowLoopOptions& opt) {
  using Window = typename Phase::Window;
  const std::size_t n = phase.size();
  const std::string origin = std::string("flow.") + phase.name;
  std::vector<WindowOutcome> outcomes(n);
  std::vector<std::exception_ptr> failures(n);  // fail-fast only
  std::atomic<bool> stopped{false};  // cancellation cut a chunk short
  // Flush on every exit path, the kCancelled unwind included, so a
  // graceful shutdown leaves each drained window durable on disk.
  struct Flusher {
    RunJournal* j;
    ~Flusher() {
      if (j != nullptr) j->flush();
    }
  } flusher{opt.journal};

  // Anything thrown outside the window's attempts (context, degrade).
  const auto escaped = [&](Window& w) {
    if (!opt.contain) {
      failures[w.k] = std::current_exception();
      return;
    }
    WindowOutcome& oc = outcomes[w.k];
    oc.faulted = oc.degraded = true;
    oc.first_error = capture_flow_error(w.index, origin);
    try {
      phase.degrade(w);
    } catch (...) {
    }
  };
  // Step 4 for one window.
  const auto settle = [&](Window& w) {
    WindowOutcome& oc = outcomes[w.k];
    if (!w.error) fault::run_lane(w.lane(), [&] { phase.store(w); });
    if (w.error) {
      if (!opt.contain) {
        failures[w.k] = w.error;
        return;
      }
      oc.faulted = true;
      try {
        std::rethrow_exception(w.error);
      } catch (...) {
        oc.first_error = capture_flow_error(w.index, origin);
      }
      for (std::size_t a = 1; a <= opt.max_retries && !oc.recovered; ++a) {
        std::exception_ptr error;
        oc.attempts = a + 1;
        oc.recovered =
            fault::run_lane({phase.domain, w.index, &error}, [&] {
              fault::maybe_throw(fault::Kind::kAlloc);
              phase.retry(w);
            });
      }
      if (!oc.recovered) {
        oc.degraded = true;
        phase.degrade(w);
      }
    }
    if (opt.journal == nullptr) return;
    JournalRecord rec;
    rec.phase = phase.journal_phase;
    rec.index = w.index;
    rec.fp = w.record;
    rec.outcome = {oc.faulted,  oc.first_error.code,
                   oc.first_error.origin, oc.first_error.message,
                   static_cast<std::uint32_t>(oc.attempts),
                   oc.recovered, oc.degraded};
    rec.payload = phase.payload(w);
    opt.journal->append(std::move(rec));
  };

  const auto run_chunk = [&](std::size_t c) {
    const std::size_t lo = c * opt.chunk;
    std::vector<Window> ws(std::min(opt.chunk, n - lo));
    std::vector<Window*> todo;
    for (std::size_t j = 0; j < ws.size(); ++j) {
      Window& w = ws[j];
      w.k = lo + j;
      w.index = phase.index(w.k);
      w.domain = phase.domain;
      outcomes[w.k].index = w.index;
      try {
        if (phase.skip(w)) continue;
        phase.open(w);
        if (opt.journal != nullptr) {
          w.record = phase.record_fp(w);
          const JournalRecord* hit = opt.journal->find(w.record);
          if (hit != nullptr && phase.replay(w, *hit)) {
            // Reconstruct the outcome so health() matches the
            // uninterrupted run entry for entry.
            WindowOutcome& oc = outcomes[w.k];
            oc.faulted = hit->outcome.faulted;
            oc.first_error = {hit->outcome.code, w.index,
                              hit->outcome.origin, hit->outcome.message};
            oc.attempts = hit->outcome.attempts;
            oc.recovered = hit->outcome.recovered;
            oc.degraded = hit->outcome.degraded;
            continue;
          }
        }
      } catch (...) {
        escaped(w);
        continue;
      }
      // Every attempt opens with an allocation probe, attempt 0 included.
      fault::run_lane(w.lane(),
                      [] { fault::maybe_throw(fault::Kind::kAlloc); });
      todo.push_back(&w);
    }
    while (!todo.empty()) {
      std::vector<Window*> ready, misses, later;
      for (Window* w : todo) {
        const auto same_key = [w](const Window* m) { return m->key == w->key; };
        if (!w->error && w->keyed &&
            std::any_of(misses.begin(), misses.end(), same_key)) {
          later.push_back(w);
          continue;
        }
        fault::run_lane(w->lane(), [&] {
          if (!phase.probe(*w)) misses.push_back(w);
        });
        ready.push_back(w);
      }
      if (!misses.empty()) {
        try {
          phase.compute(misses.data(), misses.size());
        } catch (...) {
          // Shared batch work failed: every lane in it lost attempt 0.
          for (Window* w : misses) {
            if (!w->error) w->error = std::current_exception();
          }
        }
      }
      for (Window* w : ready) {
        // In-flight windows drain one at a time: a cancel stops the chunk
        // at the next window, computed or not.
        if (opt.cancel != nullptr && opt.cancel->cancelled()) {
          stopped = true;
          return;
        }
        try {
          settle(*w);
        } catch (...) {
          escaped(*w);
        }
      }
      todo = std::move(later);
    }
  };
  parallel_for(opt.threads, (n + opt.chunk - 1) / opt.chunk, 1, run_chunk,
               opt.cancel);
  if (stopped) throw_cancelled();
  for (const std::exception_ptr& e : failures) {
    if (e) std::rethrow_exception(e);
  }
  return outcomes;
}

}  // namespace poc
