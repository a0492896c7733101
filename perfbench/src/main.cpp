//===- perfbench/src/main.cpp - Serving benchmark driver --------*- C++ -*-===//
///
/// \file
/// Drives host::Server (2 workers) from one process through one workload:
///
///   set-up xR (median = setup_s) -> (closed-loop slice, open-loop slice)*
///
/// The slices alternate (about 1 s each) so both loops see the same stretch
/// of machine time. Closed loop: 2 clients, one per worker, each sending
/// its next request from the previous one's completion callback;
/// throughput_rps is completed requests over the slices' wall clock. Open
/// loop: whole turns of the request pattern on a seeded Poisson schedule
/// at the workload's fixed rate (a fifth to a third of the 2-worker
/// capacity), sent by this thread; each latency runs from the moment the
/// request was due to its completion callback. Every latency and queue
/// wait is kept exactly; no percentile comes from the server's histogram.
///
/// Every response is checked against its reference outcome, and the
/// timed phases' HostStats deltas must match the workload's census (which
/// layer it claims to load). In the traced build every other closed-loop
/// slice runs with its layer spans off (the overhead reference), and the
/// per-layer breakdown comes from the spans of the other slices.
///
/// Usage: perfbench --workload <name> --seed <n> --seconds <s>
///                  [--trace 0|1] [--workdir <dir>]
/// The last stdout line is the JSON result.
///
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "Spans.h"

#include "obs/TraceExporter.h"
#include "support/Format.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <malloc.h>
#include <random>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace omni;
using namespace perfbench;

namespace {

#ifdef PERFBENCH_TRACED
constexpr bool Traced = true;
#else
constexpr bool Traced = false;
#endif

/// Set-up runs at least MinSetupReps times and until MinSetupS have passed
/// (at most MaxSetupReps): a 40 ms set-up timed three times moved by half
/// between runs, its median over a second's worth of repeats does not.
constexpr unsigned MinSetupReps = 3, MaxSetupReps = 40;
constexpr double MinSetupS = 1.5;

struct Args {
  WorkloadId W = WorkloadId::WarmShort;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir = ".";
};

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "warm_short|warm_spec|cold_churn|l2_spill --seed N --seconds "
               "S [--trace 0|1] [--workdir DIR]\n",
               Why);
  std::exit(2);
}

Args parseArgs(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Flag).c_str());
    std::string Val = Argv[++I];
    if (Flag == "--workload") {
      if (!parseWorkload(Val, A.W))
        usage(("unknown workload " + Val).c_str());
      HaveWorkload = true;
    } else if (Flag == "--seed") {
      A.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    } else if (Flag == "--seconds") {
      A.Seconds = std::atof(Val.c_str());
    } else if (Flag == "--trace") {
      A.Trace = Val == "1";
    } else if (Flag == "--workdir") {
      A.WorkDir = Val;
    } else {
      usage(("unknown flag " + Flag).c_str());
    }
  }
  if (!HaveWorkload)
    usage("--workload is required");
  if (!(A.Seconds > 0))
    usage("--seconds must be positive");
  if (A.Trace != Traced)
    usage(Traced ? "this is the traced build: pass --trace 1"
                 : "this is the untraced build: pass --trace 0");
  return A;
}

// --- small statistics helpers ---------------------------------------------

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

double cpuSeconds() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_utime.tv_sec + U.ru_stime.tv_sec) +
         static_cast<double>(U.ru_utime.tv_usec + U.ru_stime.tv_usec) / 1e6;
}

/// Resets the kernel's peak-RSS mark to the current RSS, so the peak read
/// afterwards covers only what follows (Linux: clear_refs value 5).
void resetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

double statusMb(const char *Key) {
  std::ifstream Status("/proc/self/status");
  for (std::string Line; std::getline(Status, Line);)
    if (Line.rfind(Key, 0) == 0)
      return std::atof(Line.c_str() + std::strlen(Key)) / 1024.0;
  return 0;
}

/// Peak resident set (VmHWM) in MB.
double peakRssMb() {
  if (double Mb = statusMb("VmHWM:"))
    return Mb;
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

double currentRssMb() { return statusMb("VmRSS:"); }

/// A fixed ALU kernel owned by the benchmark: its time tracks the speed the
/// machine gave this process, independent of any code under test.
double probeMs() {
  uint64_t X = 0x9e3779b97f4a7c15ull;
  uint64_t T0 = nowNs();
  for (unsigned I = 0; I < 20'000'000; ++I) {
    X ^= X << 13;
    X ^= X >> 7;
    X ^= X << 17;
  }
  asm volatile("" : : "r"(X)); // keep the loop
  return static_cast<double>(nowNs() - T0) / 1e6;
}

void sleepUntilNs(uint64_t T) {
  for (;;) {
    uint64_t Now = nowNs();
    if (Now >= T)
      return;
    if (T - Now > 300'000)
      std::this_thread::sleep_for(std::chrono::nanoseconds(T - Now - 200'000));
    else
      std::this_thread::yield();
  }
}

/// Waits for \p T without sleeping. Every open-loop latency counts the
/// generator's lateness, and waking a sleeping thread on a VM whose host
/// is busy took milliseconds (gen_lag_p99_ms 3-5 ms against 0.05 ms).
void spinUntilNs(uint64_t T) {
  while (nowNs() < T) {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
  }
}

// --- request records and phases -------------------------------------------

struct Record {
  uint32_t Kind = 0;
  uint64_t DueNs = 0;    ///< open loop: scheduled send; closed: send
  uint64_t SubmitNs = 0; ///< just before Server::submit
  uint64_t DoneNs = 0;   ///< completion callback entry
  uint64_t QueueNs = 0;  ///< Response::QueueNs (submit -> dequeue)
  unsigned Worker = 0;
  bool Ok = false;
  bool Refused = false; ///< backpressure refusal (a failure)
  std::vector<Span> Spans;

  uint64_t dequeueNs() const { return SubmitNs + QueueNs; }
};

/// Completes \p Rec from \p R on the worker thread that served it.
void finish(const Fixture &F, Record &Rec, const host::Response &R) {
  Rec.DoneNs = nowNs();
  Rec.QueueNs = R.QueueNs;
  Rec.Worker = R.Worker;
  Rec.Ok = F.Kinds[Rec.Kind].check(R);
  if (Traced) {
    Rec.Spans = takeThreadSpans();
    // The session is destroyed between Session::run's return and this
    // callback; that gap is the teardown span.
    if (uint64_t RunEnd = takeLastRunEnd())
      Rec.Spans.push_back({Layer::SessionTeardown, RunEnd, Rec.DoneNs});
  }
}

struct PhaseResult {
  std::vector<Record> Recs; ///< sent requests, in send order
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;   ///< closed loop: window end; open: last completion
  uint64_t InWindow = 0; ///< requests completed by EndNs
  double wallS() const { return static_cast<double>(EndNs - StartNs) / 1e9; }
};

/// Closed loop: NumWorkers clients, each sending its next request from the
/// previous one's completion callback until \p Seconds have passed. The
/// window's throughput counts the requests completed inside it; the ones
/// still running at its end are drained and checked but not counted.
class ClosedLoop {
public:
  ClosedLoop(Fixture &F, double Seconds)
      : F(F), Seconds(Seconds), Base(F.Cursor),
        // Generous upper bound on completions; the loop stops early if hit.
        Recs(static_cast<size_t>(Seconds * 20000) + 64) {}

  PhaseResult run() {
    PhaseResult P;
    P.StartNs = nowNs();
    EndNs = P.StartNs + static_cast<uint64_t>(Seconds * 1e9);
    for (unsigned C = 0; C < NumWorkers; ++C)
      send(Next.fetch_add(1));
    sleepUntilNs(EndNs);
    F.Srv->drain();
    size_t N = std::min(Next.load(), Recs.size());
    // Give back the unused bound before the next slice allocates its own,
    // so peak_rss_mb does not count a dozen of them.
    Recs.resize(N);
    Recs.shrink_to_fit();
    F.Cursor = (Base + N) % F.Pattern.size();
    P.Recs = std::move(Recs);
    P.EndNs = EndNs;
    P.InWindow = static_cast<uint64_t>(
        std::count_if(P.Recs.begin(), P.Recs.end(), [&](const Record &R) {
          return !R.Refused && R.DoneNs <= EndNs;
        }));
    return P;
  }

private:
  void send(size_t I) {
    if (I >= Recs.size())
      return;
    Record &R = Recs[I];
    R.Kind = F.Pattern[(Base + I) % F.Pattern.size()];
    R.DueNs = R.SubmitNs = nowNs();
    bool Accepted = F.Srv->submit(
        F.Kinds[R.Kind].request(),
        [this, I](host::Response Rsp) { onDone(I, Rsp); });
    if (!Accepted) {
      R.Refused = true;
      R.DoneNs = R.SubmitNs;
    }
  }

  void onDone(size_t I, const host::Response &Rsp) {
    finish(F, Recs[I], Rsp);
    if (nowNs() < EndNs)
      send(Next.fetch_add(1));
  }

  Fixture &F;
  double Seconds;
  size_t Base; ///< pattern position of the first request
  std::vector<Record> Recs;
  std::atomic<size_t> Next{0};
  uint64_t EndNs = 0;
};

/// Open loop: \p Turns whole turns of the pattern on a Poisson schedule at
/// F.OpenRate, drawn from \p Rng and sent from this thread whatever the
/// server's state. Whole turns send every request kind equally often, so a
/// percentile of a mix whose kinds differ tenfold in service time does not
/// move with where the slice happened to cut the cycle.
PhaseResult openLoop(Fixture &F, unsigned Turns, std::mt19937_64 &Rng,
                     std::vector<double> &LagMs) {
  std::exponential_distribution<double> Gap(F.OpenRate);
  std::vector<uint64_t> Due(Turns * F.Pattern.size());
  double T = 0;
  for (uint64_t &D : Due) {
    T += Gap(Rng);
    D = static_cast<uint64_t>(T * 1e9);
  }

  PhaseResult P;
  P.Recs.resize(Due.size());
  P.StartNs = nowNs() + 1'000'000;
  for (size_t I = 0; I < Due.size(); ++I) {
    Record &R = P.Recs[I];
    R.Kind = F.Pattern[(F.Cursor + I) % F.Pattern.size()];
    R.DueNs = P.StartNs + Due[I];
    spinUntilNs(R.DueNs);
    R.SubmitNs = nowNs();
    LagMs.push_back(static_cast<double>(R.SubmitNs - R.DueNs) / 1e6);
    Record *Slot = &R;
    bool Accepted = F.Srv->submit(
        F.Kinds[R.Kind].request(),
        [&F, Slot](host::Response Rsp) { finish(F, *Slot, Rsp); });
    if (!Accepted) {
      R.Refused = true;
      R.DoneNs = R.SubmitNs;
    }
  }
  F.Srv->drain();
  P.EndNs = P.StartNs;
  for (const Record &R : P.Recs)
    if (!R.Refused) {
      P.EndNs = std::max(P.EndNs, R.DoneNs);
      ++P.InWindow;
    }
  return P;
}

uint64_t busyNs(const host::HostStats &St) {
  uint64_t Ns = 0;
  for (const host::WorkerStats &W : St.Serving.Workers)
    Ns += W.BusyNs;
  return Ns;
}

// --- census ---------------------------------------------------------------

struct Tally {
  uint64_t Sent = 0, Failed = 0, Executed = 0, Hostile = 0, Refused = 0;

  void add(const Fixture &F, const PhaseResult &P) {
    for (const Record &R : P.Recs) {
      ++Sent;
      if (R.Refused) {
        ++Refused;
        ++Failed;
        continue;
      }
      if (!R.Ok)
        ++Failed;
      if (F.Kinds[R.Kind].ExpectReject)
        ++Hostile;
      else
        ++Executed;
    }
  }
};

/// HostStats delta checks: does the timed traffic load the layer the
/// workload claims? Returns the failed checks (empty = census passed).
std::vector<std::string> census(const Fixture &F, const host::HostStats &A,
                                const host::HostStats &B, const Tally &T) {
  std::vector<std::string> Bad;
  auto Expect = [&](const char *What, uint64_t Got, uint64_t Want) {
    if (Got != Want)
      Bad.push_back(std::string(What) + "=" + std::to_string(Got) +
                    " (expected " + std::to_string(Want) + ")");
  };
  uint64_t Translations = B.TranslateCount - A.TranslateCount;
  uint64_t L1Hits = B.CacheHits - A.CacheHits;
  uint64_t L1Misses = B.CacheMisses - A.CacheMisses;
  Expect("completed", B.Serving.Completed - A.Serving.Completed,
         T.Sent - T.Refused);
  Expect("deserialize_rejects",
         B.rejects(host::LoadStage::Deserialize) -
             A.rejects(host::LoadStage::Deserialize),
         T.Hostile);
  switch (F.W) {
  case WorkloadId::WarmShort:
  case WorkloadId::WarmSpec:
    Expect("translations", Translations, 0);
    Expect("l1_misses", L1Misses, 0);
    break;
  case WorkloadId::ColdChurn:
    Expect("translations", Translations, T.Executed);
    Expect("l1_hits", L1Hits, 0);
    Expect("l2_attached", B.Disk.Configured ? 1 : 0, 0);
    break;
  case WorkloadId::L2Spill: {
    uint64_t DiskHits = B.Disk.Hits - A.Disk.Hits;
    Expect("translations", Translations, 0);
    Expect("l1_hits", L1Hits, 0);
    Expect("l2_hits", DiskHits, T.Executed);
    Expect("sfi_rechecks",
           B.SfiCheck.totalChecked() - A.SfiCheck.totalChecked(), DiskHits);
    break;
  }
  }
  return Bad;
}

// --- latency ----------------------------------------------------------------

/// Every latency window holds at least this many samples, so at least ten
/// lie beyond its p90.
constexpr size_t MinWindowSamples = 100;

/// lat_tail_ms is the p90 of each window, the median over the windows.
/// A stall of a second or two on a shared host lifts the tail of one or
/// two windows; over the whole run it lifted the tail itself, which then
/// spread by a third to a half of its median across ten runs of
/// cold_churn. p95 and p99 are printed but not reported: on a VM whose
/// vCPUs the host preempts, stalls set them. In ten runs of warm_short
/// made while the machine was busy (and the generator still slept between
/// sends), the windowed p95 spread by 0.74 of its median and the run-wide
/// p90 by 0.47; p99 moves by half even on a calm machine.
constexpr double TailPct = 90;

/// Open-loop latencies grouped into windows: consecutive open slices, each
/// window closed once it holds MinWindowSamples; a short remainder joins
/// the last window. The sizes follow from the workload and the run length
/// alone, so a workload always has the same windows.
std::vector<std::vector<double>>
latencyWindows(const std::vector<PhaseResult> &Opens) {
  std::vector<std::vector<double>> Ws(1);
  for (const PhaseResult &P : Opens) {
    if (Ws.back().size() >= MinWindowSamples)
      Ws.emplace_back();
    for (const Record &R : P.Recs)
      if (!R.Refused)
        Ws.back().push_back(static_cast<double>(R.DoneNs - R.DueNs) / 1e6);
  }
  if (Ws.size() > 1 && Ws.back().size() < MinWindowSamples) {
    Ws[Ws.size() - 2].insert(Ws[Ws.size() - 2].end(), Ws.back().begin(),
                             Ws.back().end());
    Ws.pop_back();
  }
  return Ws;
}

// --- output -----------------------------------------------------------------

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Ms) {
  for (const Metric &M : Ms)
    std::printf("  %-28s %14.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::string J = "{\"correct\": ";
  J += Correct ? "true" : "false";
  J += ", \"attempted\": " + std::to_string(Attempted);
  J += ", \"failed\": " + std::to_string(Failed);
  J += ", \"metrics\": {";
  for (size_t I = 0; I < Ms.size(); ++I) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g",
                  std::isfinite(Ms[I].Value) ? Ms[I].Value : 0.0);
    J += (I ? ", \"" : "\"") + Ms[I].Name + "\": {\"value\": " + Buf +
         ", \"unit\": \"" + Ms[I].Unit + "\"}";
  }
  J += "}}";
  std::printf("%s\n", J.c_str());
  std::fflush(stdout);
}

// --- per-layer breakdown (traced build) -------------------------------------

struct LayerAgg {
  uint64_t Calls = 0, Ns = 0, SelfNs = 0, A = 0, B = 0, C = 0;
  double meanUs() const { return Calls ? static_cast<double>(Ns) / Calls / 1e3 : 0; }
};

struct Breakdown {
  LayerAgg L[NumLayers];
  uint64_t Requests = 0, ServiceNs = 0, CoveredNs = 0, HandoffNs = 0;

  LayerAgg &at(Layer X) { return L[static_cast<unsigned>(X)]; }

  /// Adds one request: its spans, its service interval (dequeue ->
  /// completion callback), the part no span covers, and each layer's self
  /// time (its span minus the layer calls nested directly inside it).
  void add(const Record &R) {
    if (R.Refused || R.Spans.empty())
      return;
    std::vector<Span> S = R.Spans;
    std::sort(S.begin(), S.end(), [](const Span &X, const Span &Y) {
      return X.BeginNs != Y.BeginNs ? X.BeginNs < Y.BeginNs
                                    : X.EndNs > Y.EndNs;
    });
    uint64_t Start = std::min(R.dequeueNs(), S.front().BeginNs);
    uint64_t End = R.DoneNs;
    ++Requests;
    ServiceNs += End - Start;
    HandoffNs += S.front().BeginNs - Start;
    std::vector<uint64_t> Self(S.size());
    std::vector<size_t> Open; // enclosing spans, innermost last
    uint64_t Reach = Start;   // union of span intervals so far
    for (size_t I = 0; I < S.size(); ++I) {
      const Span &X = S[I];
      uint64_t B = std::max(X.BeginNs, Reach), E = std::min(X.EndNs, End);
      if (E > B) {
        CoveredNs += E - B;
        Reach = E;
      }
      while (!Open.empty() && S[Open.back()].EndNs <= X.BeginNs)
        Open.pop_back();
      Self[I] = X.durNs();
      if (!Open.empty()) {
        uint64_t &P = Self[Open.back()];
        P -= std::min(P, X.durNs());
      }
      Open.push_back(I);
    }
    for (size_t I = 0; I < S.size(); ++I) {
      LayerAgg &A = at(S[I].L);
      ++A.Calls;
      A.Ns += S[I].durNs();
      A.SelfNs += Self[I];
      A.A += S[I].A;
      A.B += S[I].B;
      A.C += S[I].C;
    }
  }

  double frac(std::initializer_list<Layer> Ls) {
    uint64_t Self = 0;
    for (Layer X : Ls)
      Self += at(X).SelfNs;
    return ratio(static_cast<double>(Self), static_cast<double>(ServiceNs));
  }
};

LayerAgg aggregate(const std::vector<Span> &Spans, Layer X) {
  LayerAgg A;
  for (const Span &S : Spans)
    if (S.L == X) {
      ++A.Calls;
      A.Ns += S.durNs();
      A.A += S.A;
      A.B += S.B;
    }
  return A;
}

std::string formatTable(Breakdown &Bd) {
  std::string T = formatStr(
      "per-layer breakdown: %llu traced requests, mean service %.3f ms\n"
      "  %-18s %9s %12s %10s\n",
      static_cast<unsigned long long>(Bd.Requests),
      ratio(static_cast<double>(Bd.ServiceNs), static_cast<double>(Bd.Requests)) / 1e6,
      "layer", "calls", "mean_us", "self_frac");
  for (unsigned I = 0; I < NumLayers; ++I) {
    const LayerAgg &A = Bd.L[I];
    if (!A.Calls)
      continue;
    T += formatStr("  %-18s %9llu %12.2f %10.4f\n",
                   layerName(static_cast<Layer>(I)),
                   static_cast<unsigned long long>(A.Calls), A.meanUs(),
                   ratio(static_cast<double>(A.SelfNs),
                         static_cast<double>(Bd.ServiceNs)));
  }
  T += formatStr("  %-18s %9s %12s %10.4f\n", "(uncovered)", "", "",
                 1 - ratio(static_cast<double>(Bd.CoveredNs),
                           static_cast<double>(Bd.ServiceNs)));
  return T;
}

/// Writes the chrome trace (obs::writeChromeTrace) of set-up plus the
/// first traced requests, and a per-layer summary table.
void exportTrace(const std::string &Dir, const char *Workload,
                 const std::vector<Span> &Setup,
                 const std::vector<const Record *> &Reqs, Breakdown &Bd,
                 uint64_t EpochNs) {
  static const char *ArgNames[NumLayers][3] = {
      {"owx_bytes", "loaded", ""},      {"owx_bytes", "", ""},
      {"vm_instrs", "", ""},            {"vm_instrs", "native_instrs", ""},
      {"obligations", "", ""},          {"payload_bytes", "hit", ""},
      {"payload_bytes", "", ""},        {"payload_bytes", "", ""},
      {"", "", ""},                     {"cycles", "instrs", "sfi_instrs"},
      {"", "", ""}};
  std::vector<obs::TraceEvent> Events;
  auto Add = [&](const char *Name, uint32_t Thread, uint64_t Corr,
                 uint64_t B, uint64_t E, const Span *S) {
    obs::TraceEvent Ev;
    Ev.Name = Name;
    Ev.Category = "perfbench";
    Ev.Kind = obs::EventKind::Complete;
    Ev.ThreadId = Thread;
    Ev.TimeNs = B - std::min(B, EpochNs);
    Ev.DurNs = E - B;
    Ev.Correlation = Corr;
    if (S) {
      const uint64_t Vals[3] = {S->A, S->B, S->C};
      for (unsigned I = 0; I < 3; ++I)
        if (*ArgNames[static_cast<unsigned>(S->L)][I]) {
          Ev.ArgNames[Ev.NumArgs] = ArgNames[static_cast<unsigned>(S->L)][I];
          Ev.ArgValues[Ev.NumArgs++] = Vals[I];
        }
    }
    Events.push_back(Ev);
  };
  for (const Span &S : Setup)
    Add(layerName(S.L), 0, 0, S.BeginNs, S.EndNs, &S);
  constexpr size_t MaxTracedRequests = 2000;
  for (size_t I = 0; I < Reqs.size() && I < MaxTracedRequests; ++I) {
    const Record &R = *Reqs[I];
    uint32_t Thread = R.Worker + 1;
    Add("request", Thread, I + 1, R.dequeueNs(), R.DoneNs, nullptr);
    for (const Span &S : R.Spans)
      Add(layerName(S.L), Thread, I + 1, S.BeginNs, S.EndNs, &S);
  }
  std::string Error;
  std::string Path = Dir + "/trace_" + Workload + ".json";
  if (!obs::writeChromeTrace(Path, Events, Error))
    std::fprintf(stderr, "perfbench: trace export failed: %s\n",
                 Error.c_str());

  std::string Table = formatTable(Bd);
  std::ofstream(Dir + "/layers_" + std::string(Workload) + ".txt") << Table;
  std::fprintf(stderr, "%s", Table.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  Args A = parseArgs(Argc, Argv);
  const char *WName = workloadName(A.W);
  uint64_t EpochNs = nowNs();
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", WName,
              static_cast<unsigned long long>(A.Seed), A.Seconds,
              A.Trace ? 1 : 0);
  std::printf("stamp: nproc=%ld compiler=%s build=%s workers=%u\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_CXX_ID,
              PERFBENCH_BUILD_TYPE, NumWorkers);
  std::vector<double> Probes;
  for (unsigned I = 0; I < 3; ++I)
    Probes.push_back(probeMs());

  // Set-up, several times; the last fixture serves the timed phases.
  std::vector<double> SetupS;
  std::unique_ptr<Fixture> F;
  double SetupTotalS = 0;
  while (SetupS.size() < MinSetupReps ||
         (SetupTotalS < MinSetupS && SetupS.size() < MaxSetupReps)) {
    F.reset();
    uint64_t T0 = nowNs();
    F = buildFixture(A.W, A.Seed, A.WorkDir);
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    SetupTotalS += SetupS.back();
  }
  std::printf("set-up: %zu repeats, %.3f s in all\n", SetupS.size(),
              SetupTotalS);

  // Timed phases.
  malloc_trim(0);
  std::printf("rss before timed phases: %.1f MB\n", currentRssMb());
  resetPeakRss();
  host::HostStats St0 = F->Srv->stats();
  double Cpu0 = cpuSeconds();
  Tally T;
  std::vector<PhaseResult> ClosedOn, ClosedOff, Opens;
  std::vector<double> LagMs;
  std::mt19937_64 Arrivals(A.Seed ^ 0x5bd1e995u);
  uint64_t OpenBusyNs = 0;
  // Closed- and open-loop slices alternate, so both metrics sample the same
  // stretch of machine time. In the traced build the closed-loop slices
  // alternate spans off and on; the off slices are the reference for the
  // tracing overhead. The open loop gets about half the run, in whole
  // pattern turns spread evenly over the slices, and at least one latency
  // window's worth of requests.
  constexpr double MinOpenSamples = MinWindowSamples;
  unsigned Slices =
      std::max(2u, 2 * static_cast<unsigned>(std::lround(A.Seconds / 4)));
  double SliceS = A.Seconds / (2 * Slices);
  size_t Turn = F->Pattern.size();
  double TurnD = static_cast<double>(Turn);
  unsigned OpenTurns = static_cast<unsigned>(
      std::max(std::round(F->OpenRate * A.Seconds / 2 / TurnD),
               std::ceil(MinOpenSamples / TurnD)));
  for (unsigned I = 0; I < Slices; ++I) {
    bool On = !Traced || I % 2 == 1;
    setSpansOn(On);
    (On ? ClosedOn : ClosedOff).push_back(ClosedLoop(*F, SliceS).run());
    setSpansOn(true);
    unsigned Turns = (I + 1) * OpenTurns / Slices - I * OpenTurns / Slices;
    if (!Turns)
      continue;
    uint64_t Busy0 = busyNs(F->Srv->stats());
    Opens.push_back(openLoop(*F, Turns, Arrivals, LagMs));
    OpenBusyNs += busyNs(F->Srv->stats()) - Busy0;
  }
  host::HostStats St1 = F->Srv->stats();
  double CpuS = cpuSeconds() - Cpu0;
  for (const std::vector<PhaseResult> *Ps : {&ClosedOn, &ClosedOff, &Opens})
    for (const PhaseResult &P : *Ps)
      T.add(*F, P);
  for (unsigned I = 0; I < 3; ++I)
    Probes.push_back(probeMs());

  std::vector<std::string> Bad = census(*F, St0, St1, T);
  bool Correct = T.Failed == 0 && Bad.empty();
  for (const std::string &B : Bad)
    std::fprintf(stderr, "perfbench: census failed: %s\n", B.c_str());
  if (T.Failed)
    std::fprintf(stderr, "perfbench: %llu of %llu responses were wrong\n",
                 static_cast<unsigned long long>(T.Failed),
                 static_cast<unsigned long long>(T.Sent));

  auto completed = [](const std::vector<PhaseResult> &Ps) {
    double N = 0;
    for (const PhaseResult &P : Ps)
      N += static_cast<double>(std::count_if(
          P.Recs.begin(), P.Recs.end(),
          [](const Record &R) { return !R.Refused; }));
    return N;
  };
  auto wallS = [](const std::vector<PhaseResult> &Ps) {
    double S = 0;
    for (const PhaseResult &P : Ps)
      S += P.wallS();
    return S;
  };
  auto inWindow = [](const std::vector<PhaseResult> &Ps) {
    double N = 0;
    for (const PhaseResult &P : Ps)
      N += static_cast<double>(P.InWindow);
    return N;
  };
  double Throughput = ratio(inWindow(ClosedOn), wallS(ClosedOn));
  std::vector<double> LatMs, QueueMs;
  for (const PhaseResult &P : Opens)
    for (const Record &R : P.Recs)
      if (!R.Refused) {
        LatMs.push_back(static_cast<double>(R.DoneNs - R.DueNs) / 1e6);
        QueueMs.push_back(static_cast<double>(R.QueueNs) / 1e6);
      }
  std::vector<std::vector<double>> Windows = latencyWindows(Opens);
  size_t Smallest = LatMs.size();
  std::vector<double> WindowTails;
  std::string TailList;
  for (const std::vector<double> &W : Windows) {
    Smallest = std::min(Smallest, W.size());
    WindowTails.push_back(quantile(W, TailPct / 100));
    TailList += formatStr(" %.3f", WindowTails.back());
  }
  double Tail = median(WindowTails);
  std::printf("open loop: rate=%g/s samples=%zu tail=p%g median of %zu "
              "windows (smallest %zu samples) run-wide "
              "p75/p90/p95/p99=%.3f/%.3f/%.3f/%.3f ms\n",
              F->OpenRate, LatMs.size(), TailPct, Windows.size(), Smallest,
              quantile(LatMs, 0.75), quantile(LatMs, 0.90),
              quantile(LatMs, 0.95), quantile(LatMs, 0.99));
  std::printf("window p%g ms:%s\n", TailPct, TailList.c_str());
  std::printf("harness: probe_ms=%.3f (before %.3f, after %.3f) "
              "gen_lag_p99_ms=%.4f\n",
              median(Probes),
              median({Probes.begin(), Probes.begin() + 3}),
              median({Probes.end() - 3, Probes.end()}), quantile(LagMs, 0.99));
  // Always 0 on a correct run, so it is printed here and carried by the
  // result's failed/attempted, not listed among the metrics.
  std::printf("  %-28s %14.6f ratio (%llu of %llu)\n", "fail_frac",
              ratio(static_cast<double>(T.Failed), static_cast<double>(T.Sent)),
              static_cast<unsigned long long>(T.Failed),
              static_cast<unsigned long long>(T.Sent));

  std::vector<Metric> Ms;
  if (!Traced) {
    Ms = {{"setup_s", median(SetupS), "s"},
          {"throughput_rps", Throughput, "1/s"},
          {"lat_p50_ms", median(LatMs), "ms"},
          {"lat_tail_ms", Tail, "ms"},
          {"sim_mcycles_per_req", F->mcyclesPerReq(), "Mcycles"},
          {"peak_rss_mb", peakRssMb(), "MB"}};
    printResult(Correct, T.Sent, T.Failed, Ms);
    return 0;
  }

  // Per-layer breakdown from the traced phases.
  Breakdown Bd;
  std::vector<const Record *> TracedRecs;
  for (const std::vector<PhaseResult> *Ps : {&ClosedOn, &Opens})
    for (const PhaseResult &P : *Ps)
      for (const Record &R : P.Recs) {
        Bd.add(R);
        TracedRecs.push_back(&R);
      }
  auto D = [](uint64_t B, uint64_t A) { return static_cast<double>(B - A); };
  double Requests = completed(ClosedOn) + completed(ClosedOff) + completed(Opens);
  double L1Lookups = D(St1.CacheHits, St0.CacheHits) + D(St1.CacheMisses, St0.CacheMisses);
  double DiskProbes = D(St1.Disk.Hits, St0.Disk.Hits) +
                      D(St1.Disk.Misses, St0.Disk.Misses) +
                      D(St1.Disk.CorruptRejects, St0.Disk.CorruptRejects) +
                      D(St1.Disk.Rejected, St0.Disk.Rejected);
  std::vector<Span> AllSpans = F->SetupSpans;
  for (const Record *R : TracedRecs)
    AllSpans.insert(AllSpans.end(), R->Spans.begin(), R->Spans.end());
  LayerAgg TrAll = aggregate(AllSpans, Layer::Translate);
  LayerAgg ChkAll = aggregate(AllSpans, Layer::SfiCheck);
  LayerAgg Store = aggregate(F->SetupSpans, Layer::DiskStore);
  LayerAgg &Create = Bd.at(Layer::SessionCreate);
  LayerAgg &Run = Bd.at(Layer::SessionRun);
  double BindUs = ratio(D(St1.BindNs, St0.BindNs), D(St1.BindCount, St0.BindCount)) / 1e3;
  double CompileMs = 0;
  for (double C : F->CompileMs)
    CompileMs += C / static_cast<double>(F->CompileMs.size());
  double UncoveredFrac = 1 - ratio(static_cast<double>(Bd.CoveredNs),
                                   static_cast<double>(Bd.ServiceNs));
  // Tracing overhead: each spans-off closed slice against the spans-on
  // slice right after it, which ran on nearly the same machine; the median
  // over the pairs.
  std::vector<double> Overheads;
  for (size_t I = 0; I < ClosedOff.size() && I < ClosedOn.size(); ++I) {
    double Off = ratio(static_cast<double>(ClosedOff[I].InWindow), ClosedOff[I].wallS());
    double On = ratio(static_cast<double>(ClosedOn[I].InWindow), ClosedOn[I].wallS());
    if (Off > 0)
      Overheads.push_back(1 - On / Off);
  }
  auto Mean = [](const LayerAgg &L, uint64_t Sum) {
    return ratio(static_cast<double>(Sum), static_cast<double>(L.Calls));
  };
  Ms = {
      {"server.queue_wait_p50_ms", median(QueueMs), "ms"},
      {"server.busy_frac", ratio(static_cast<double>(OpenBusyNs) / 1e9, NumWorkers * wallS(Opens)), "ratio"},
      {"server.handoff_us", ratio(static_cast<double>(Bd.HandoffNs), static_cast<double>(Bd.Requests)) / 1e3, "us"},
      {"server.rejected_on_full", D(St1.Serving.RejectedOnFull, St0.Serving.RejectedOnFull), "count"},
      {"vm.deserialize_us", Bd.at(Layer::Deserialize).meanUs(), "us"},
      {"vm.verify_us", Bd.at(Layer::Verify).meanUs(), "us"},
      {"vm.frac", Bd.frac({Layer::Deserialize, Layer::Verify}), "ratio"},
      {"host.load_self_us", Bd.at(Layer::Load).Calls ? static_cast<double>(Bd.at(Layer::Load).SelfNs) / Bd.at(Layer::Load).Calls / 1e3 : 0, "us"},
      {"host.frac", Bd.frac({Layer::Load}), "ratio"},
      {"translate.us", Bd.at(Layer::Translate).meanUs(), "us"},
      {"translate.native_instrs", Mean(Bd.at(Layer::Translate), Bd.at(Layer::Translate).B), "count"},
      {"translate.expansion", ratio(static_cast<double>(TrAll.B), static_cast<double>(TrAll.A)), "ratio"},
      {"translate.frac", Bd.frac({Layer::Translate}), "ratio"},
      {"sficheck.us", Bd.at(Layer::SfiCheck).meanUs(), "us"},
      {"sficheck.obligations", Mean(Bd.at(Layer::SfiCheck), Bd.at(Layer::SfiCheck).A), "count"},
      {"sficheck.frac_of_translate", ratio(ChkAll.meanUs(), TrAll.meanUs()), "ratio"},
      {"sficheck.frac", Bd.frac({Layer::SfiCheck}), "ratio"},
      {"codecache.hit_ratio", L1Lookups > 0 ? D(St1.CacheHits, St0.CacheHits) / L1Lookups : 1, "ratio"},
      {"codecache.lookups_per_req", ratio(L1Lookups, Requests), "count"},
      {"codecache.evictions_per_req", ratio(D(St1.CacheEvictions, St0.CacheEvictions), Requests), "count"},
      {"diskcache.hit_ratio", ratio(D(St1.Disk.Hits, St0.Disk.Hits), DiskProbes), "ratio"},
      {"diskcache.read_us", Bd.at(Layer::DiskRead).meanUs(), "us"},
      {"diskcache.decode_us", Bd.at(Layer::DiskDecode).meanUs(), "us"},
      {"diskcache.entry_kb", Mean(Bd.at(Layer::DiskRead), Bd.at(Layer::DiskRead).A) / 1024, "KiB"},
      {"diskcache.store_us", Store.meanUs(), "us"},
      {"diskcache.frac", Bd.frac({Layer::DiskRead, Layer::DiskDecode}), "ratio"},
      {"session.create_us", Create.meanUs(), "us"},
      {"session.bind_us", BindUs, "us"},
      {"session.untimed_us", Create.Calls ? Create.meanUs() - BindUs : 0, "us"},
      {"session.teardown_us", Bd.at(Layer::SessionTeardown).meanUs(), "us"},
      {"session.create_frac", Bd.frac({Layer::SessionCreate}), "ratio"},
      {"session.frac", Bd.frac({Layer::SessionCreate, Layer::SessionTeardown}), "ratio"},
      {"sim.run_us", Run.meanUs(), "us"},
      {"sim.mcycles_per_s", ratio(static_cast<double>(Run.A), static_cast<double>(Run.Ns) / 1e9) / 1e6, "Mcycles/s"},
      {"sim.instrs", Mean(Run, Run.B), "count"},
      {"sim.sfi_frac", ratio(static_cast<double>(Run.C), static_cast<double>(Run.B)), "ratio"},
      {"sim.frac", Bd.frac({Layer::SessionRun}), "ratio"},
      {"driver.compile_ms", CompileMs, "ms"},
      {"proc.cpu_ms_per_req", ratio(CpuS * 1e3, Requests), "ms"},
      {"harness.gen_lag_p99_ms", quantile(LagMs, 0.99), "ms"},
      {"harness.probe_ms", median(Probes), "ms"},
      {"trace.overhead_frac", median(Overheads), "ratio"},
      {"trace.uncovered_frac", UncoveredFrac, "ratio"},
  };
  exportTrace(A.WorkDir, WName, F->SetupSpans, TracedRecs, Bd, EpochNs);
  printResult(Correct, T.Sent, T.Failed, Ms);
  return 0;
}
