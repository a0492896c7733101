//===- perfbench/src/Inputs.h - Workload fixtures ---------------*- C++ -*-===//
///
/// \file
/// Builds one workload's inputs from the seed: the modules (compiled from
/// source in set-up), the host and its 2-worker Server, the distinct
/// request kinds with their reference outcomes, and the round-robin order
/// requests are sent in. Reference outputs never come from the translator
/// under test: SPEC programs use their pinned checksums, everything else
/// the interpreter (ModuleHost::runInterpreter).
///
//===----------------------------------------------------------------------===//
#ifndef PERFBENCH_INPUTS_H
#define PERFBENCH_INPUTS_H

#include "Spans.h"

#include "host/Server.h"

#include <memory>
#include <string>
#include <vector>

namespace perfbench {

enum class WorkloadId { WarmShort, WarmSpec, ColdChurn, L2Spill };

bool parseWorkload(const std::string &Name, WorkloadId &Out);
const char *workloadName(WorkloadId W);
inline bool isWarm(WorkloadId W) {
  return W == WorkloadId::WarmShort || W == WorkloadId::WarmSpec;
}

/// Server workers (and closed-loop clients) for every workload.
constexpr unsigned NumWorkers = 2;

/// One distinct request and the outcome it must produce.
struct RequestKind {
  std::string Label;
  omni::target::TargetKind Target = omni::target::TargetKind::Mips;
  /// Warm workloads: the pre-loaded translation.
  std::shared_ptr<const omni::host::LoadedModule> Module;
  /// Cold workloads: the OWX wire bytes sent with every request.
  std::shared_ptr<const std::vector<uint8_t>> Owx;
  /// Hostile image: must come back as a deserialize reject.
  bool ExpectReject = false;
  std::string Output;  ///< reference output
  uint64_t Instrs = 0; ///< native instrs of a translated reference run
  uint64_t Cycles = 0; ///< simulated cycles of that run

  omni::host::Request request() const;
  /// Whether \p R is the expected outcome of this request.
  bool check(const omni::host::Response &R) const;
};

struct Fixture {
  WorkloadId W = WorkloadId::WarmShort;
  std::unique_ptr<omni::host::ModuleHost> Host;
  std::unique_ptr<omni::host::Server> Srv;
  std::vector<RequestKind> Kinds;
  std::vector<uint32_t> Pattern; ///< request order (Kinds indices), cycled
  /// Pattern position of the next request; every phase continues the
  /// cycle, so a key is never re-sent before a full turn has passed.
  size_t Cursor = 0;
  double OpenRate = 0;           ///< open-loop offered load, requests/s
  std::vector<double> CompileMs; ///< per compiled module (set-up)
  std::string L2Dir;             ///< empty without an L2
  /// Layer spans recorded while setting up (traced build only).
  std::vector<Span> SetupSpans;

  /// Simulated Mcycles per executed request over one turn of Pattern.
  double mcyclesPerReq() const;

  Fixture() = default;
  Fixture(const Fixture &) = delete;
  Fixture &operator=(const Fixture &) = delete;
  /// Stops the server, then removes the L2 directory.
  ~Fixture();
};

/// Builds the fixture for \p W: compiles, loads, computes references, seeds
/// the L2, and warms the server up. \p WorkDir holds the L2 directory.
/// Exits the process with a message on any set-up failure.
std::unique_ptr<Fixture> buildFixture(WorkloadId W, uint64_t Seed,
                                      const std::string &WorkDir);

} // namespace perfbench

#endif // PERFBENCH_INPUTS_H
