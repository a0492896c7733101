//===- perfbench/src/Spans.h - Bench-owned layer spans ----------*- C++ -*-===//
///
/// \file
/// Timing spans around the calls into each layer's public entry points.
/// The traced driver (Wrap.cpp) records one Span per intercepted call into
/// a buffer owned by the calling thread; a Server worker's buffer is
/// collected in the request's completion callback, so every span is
/// attributed to exactly one request (or to set-up, on the main thread).
/// The untraced driver links the same buffers but nothing records into
/// them.
///
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <vector>

namespace perfbench {

/// The intercepted layer entry points.
enum class Layer : uint8_t {
  Load,            ///< host::ModuleHost::loadBytes (parent of the next six)
  Deserialize,     ///< vm::Module::deserialize
  Verify,          ///< vm::verifyExecutable
  Translate,       ///< translate::translate
  SfiCheck,        ///< sficheck::checkTranslation
  DiskRead,        ///< host::DiskCache::load
  DiskDecode,      ///< host::decodeTranslationImage
  DiskStore,       ///< host::DiskCache::store
  SessionCreate,   ///< host::ModuleHost::createSession
  SessionRun,      ///< host::Session::run
  SessionTeardown, ///< Session::run return -> completion callback
};
constexpr unsigned NumLayers = 11;

const char *layerName(Layer L);

/// One timed call. A/B/C carry layer-specific counts:
///   Load: OWX bytes, 1 when loaded      Deserialize: OWX bytes
///   Verify: VM instrs                   Translate: VM instrs, native instrs
///   SfiCheck: obligations               DiskRead: payload bytes, 1 on hit
///   DiskDecode/DiskStore: payload bytes
///   SessionRun: simulated cycles, native instrs, sfi instrs
struct Span {
  Layer L = Layer::Load;
  uint64_t BeginNs = 0;
  uint64_t EndNs = 0;
  uint64_t A = 0, B = 0, C = 0;

  uint64_t durNs() const { return EndNs - BeginNs; }
};

/// Monotonic nanoseconds (steady_clock); one clock for every thread.
uint64_t nowNs();

/// Whether the wrappers record (the traced driver switches this off for
/// its overhead-reference phase). Relaxed: phases are separated by drains.
bool spansOn();
void setSpansOn(bool On);

/// Appends \p S to the calling thread's buffer.
void recordSpan(const Span &S);
/// Moves the calling thread's buffer out, leaving it empty.
std::vector<Span> takeThreadSpans();

/// End of the calling thread's last Session::run (0 when none since the
/// last take); the completion callback closes the teardown span with it.
uint64_t takeLastRunEnd();
void setLastRunEnd(uint64_t Ns);

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
