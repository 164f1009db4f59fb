#ifndef MAXSON_ENGINE_EXEC_CONTEXT_H_
#define MAXSON_ENGINE_EXEC_CONTEXT_H_

#include <atomic>
#include <cstdint>

namespace maxson::exec {
class ThreadPool;
}  // namespace maxson::exec

namespace maxson::engine {

/// Everything one plan execution needs besides the plan itself, gathered
/// into a single struct threaded from ExecutePlan through the scan into the
/// operators: new per-query execution state lands here once instead of
/// rippling through every signature on the path.
///
/// Plain pointers are non-owning and may be null; a default-constructed
/// context executes sequentially and uncancellable — the simplest correct
/// configuration. Scans subscribe to the engine's own SharedScanManager.
struct ExecContext {
  /// Pool fanning split passes and row chunks; null runs inline.
  exec::ThreadPool* pool = nullptr;
  /// Cache-state stamp (CacheRegistry version) keying shared-scan groups:
  /// queries planned across an invalidation never share passes.
  uint64_t scan_validity = 0;
  /// Cooperative cancellation: checked between split passes and between
  /// operators, never mid-pass. Null = uncancellable.
  const std::atomic<bool>* cancel = nullptr;

  bool cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }
};

}  // namespace maxson::engine

#endif  // MAXSON_ENGINE_EXEC_CONTEXT_H_
