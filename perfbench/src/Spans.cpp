//===- perfbench/src/Spans.cpp ---------------------------------------------===//

#include "Spans.h"

#include <atomic>
#include <chrono>

namespace perfbench {

namespace {
std::atomic<bool> On{true};
thread_local std::vector<Span> Buffer;
thread_local uint64_t LastRunEnd = 0;
} // namespace

const char *layerName(Layer L) {
  switch (L) {
  case Layer::Load: return "host.loadBytes";
  case Layer::Deserialize: return "vm.deserialize";
  case Layer::Verify: return "vm.verify";
  case Layer::Translate: return "translate";
  case Layer::SfiCheck: return "sficheck";
  case Layer::DiskRead: return "diskcache.load";
  case Layer::DiskDecode: return "diskcache.decode";
  case Layer::DiskStore: return "diskcache.store";
  case Layer::SessionCreate: return "session.create";
  case Layer::SessionRun: return "session.run";
  case Layer::SessionTeardown: return "session.teardown";
  }
  return "?";
}

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool spansOn() { return On.load(std::memory_order_relaxed); }
void setSpansOn(bool V) { On.store(V, std::memory_order_relaxed); }

void recordSpan(const Span &S) { Buffer.push_back(S); }

std::vector<Span> takeThreadSpans() {
  std::vector<Span> Out;
  Out.swap(Buffer);
  return Out;
}

uint64_t takeLastRunEnd() {
  uint64_t T = LastRunEnd;
  LastRunEnd = 0;
  return T;
}

void setLastRunEnd(uint64_t Ns) { LastRunEnd = Ns; }

} // namespace perfbench
