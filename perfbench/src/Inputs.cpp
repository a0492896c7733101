//===- perfbench/src/Inputs.cpp --------------------------------------------===//

#include "Inputs.h"

#include "driver/Compiler.h"
#include "support/Format.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <random>
#include <unistd.h>

using namespace omni;
using namespace perfbench;

namespace {

using Clock = std::chrono::steady_clock;

constexpr target::TargetKind AllTargets[] = {
    target::TargetKind::Mips, target::TargetKind::Sparc,
    target::TargetKind::Ppc, target::TargetKind::X86};

/// Open-loop offered load per workload: about a fifth of what the 2
/// workers complete in the closed loop on a 4-vCPU x86-64 VM. At half
/// capacity the tail sits in the queueing knee and moved 30% between runs
/// with the machine's speed; here it stays in the service-time regime.
/// warm_spec at a third of capacity still queued 15-35 ms behind its
/// 50-90 ms requests, and its tail moved by 19% between seeds. Fixed, so
/// latency is always compared at the same rate.
double openRate(WorkloadId W) {
  switch (W) {
  case WorkloadId::WarmShort: return 300;
  case WorkloadId::WarmSpec: return 7;
  case WorkloadId::ColdChurn: return 100;
  case WorkloadId::L2Spill: return 170;
  }
  return 1;
}

/// Generated modules per cold workload (x 4 targets = distinct cache keys)
/// and the share of their translations the L1 byte budget holds.
constexpr unsigned NumColdModules = 8;
constexpr double L1Share = 0.4;
/// One hostile (truncated) image after every this many cold requests.
constexpr unsigned HostileEvery = 16;

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench: set-up failed: %s\n", Msg.c_str());
  std::exit(1);
}

double msSince(Clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

vm::Module compile(const std::string &Source, driver::Language Lang,
                   const std::string &What, std::vector<double> &CompileMs) {
  driver::CompileOptions Opts;
  Opts.Lang = Lang;
  vm::Module Exe;
  std::string Error;
  auto T0 = Clock::now();
  if (!driver::compileAndLink(Source, Opts, Exe, Error))
    die("compiling " + What + ": " + Error);
  CompileMs.push_back(msSince(T0));
  return Exe;
}

/// The small serving body of warm_short: a 2000-step hash loop whose result
/// depends on \p Salt, so every seed serves different modules.
std::string shortBodyMiniC(uint32_t Salt) {
  return formatStr(R"(
void print_int(int);
int main() {
  int i, h = %u;
  for (i = 0; i < 2000; i++) h = (h ^ i) * 16777619 + ((h & 0x7fffffff) >> 7);
  print_int(h);
  return 0;
}
)",
                   Salt);
}

std::string shortBodyPascal(uint32_t Salt) {
  return formatStr(R"(
program serve;
var i, h: integer;
begin
  h := %u;
  for i := 0 to 1999 do
    h := (h xor i) * 16777619 + ((h and $7fffffff) shr 7);
  write(h)
end.
)",
                   Salt);
}

/// A large generated MiniC module: 64 functions of straight-line
/// arithmetic, short loops, branches and array traffic, each called once
/// from main, so translation dwarfs execution. \p Shape picks the
/// statements and \p Rng their constants and trip counts. The shapes come
/// from a fixed seed, so every seed translates the same statements and
/// the amount of translation work does not move with the seed.
std::string coldModuleSource(std::mt19937_64 &Shape, std::mt19937_64 &Rng) {
  constexpr unsigned NumFuncs = 64, StmtsPerFunc = 10;
  auto R = [&](unsigned N) { return static_cast<unsigned>(Rng() % N); };
  auto C = [&] { return 1 + R(4093); };
  std::string S = "void print_int(int);\n";
  for (unsigned F = 0; F < NumFuncs; ++F) {
    S += formatStr("int f%u(int a, int b) {\n  int i, s = a * %u + %u, "
                   "u = b ^ %u;\n  int t[8];\n"
                   "  for (i = 0; i < 8; i++) t[i] = (s ^ (i * %u)) + u;\n",
                   F, C(), C(), C(), C());
    for (unsigned K = 0; K < StmtsPerFunc; ++K) {
      switch (Shape() % 7) {
      case 0:
        S += formatStr("  if (s > u) s = s + (t[%u] >> %u); else u = u - "
                       "t[%u] * %u;\n",
                       R(8), 1 + R(7), R(8), C());
        break;
      case 1:
        S += formatStr("  for (i = 0; i < %u; i++) { s = s * %u + t[i & 7]; "
                       "u = u ^ (s >> %u); }\n",
                       1 + R(3), C(), 1 + R(9));
        break;
      case 2:
        S += formatStr("  t[%u] = t[%u] + (s & %u) - (u | %u);\n", R(8), R(8),
                       C(), C());
        break;
      case 3:
        S += formatStr("  s = (s << %u) ^ ((u & 0x7fffffff) >> %u) ^ %u;\n",
                       1 + R(5), 1 + R(9), C());
        break;
      case 4:
        S += formatStr("  u = u + (s %% %u + %u) %% %u;\n", 3 + R(97), 100,
                       7 + R(31));
        break;
      case 5:
        S += formatStr("  i = 0; while (i < %u && u > %u) { u = u - %u; i++; "
                       "}\n",
                       2 + R(4), C(), C());
        break;
      case 6:
        S += formatStr("  s = s > %u ? s - %u : s + t[%u];\n", C(), C(), R(8));
        break;
      }
    }
    S += "  return s ^ u;\n}\n";
  }
  S += formatStr("int main() {\n  int acc = %u;\n", C());
  for (unsigned F = 0; F < NumFuncs; ++F)
    S += formatStr("  acc = acc ^ f%u(acc & 4095, %u);\n", F, C());
  S += "  print_int(acc);\n  return 0;\n}\n";
  return S;
}

/// Runs \p LM once, directly on \p Host, for its reference simulated
/// instruction and cycle counts; its output must match \p K.Output.
void measureReference(host::ModuleHost &Host,
                      std::shared_ptr<const host::LoadedModule> LM,
                      RequestKind &K) {
  auto S = Host.createSession(std::move(LM));
  runtime::RunResult R = S->run();
  if (!R.Trap.isHalt() || R.Output != K.Output)
    die(K.Label + ": translated run gave '" + R.Output + "', reference '" +
        K.Output + "'");
  K.Instrs = R.InstrCount;
  K.Cycles = S->stats().Cycles;
}

std::string interpreterOutput(host::ModuleHost &Host, const vm::Module &Exe,
                              const std::string &What) {
  runtime::RunResult R =
      Host.runInterpreter(Exe, vm::DefaultStepBudget, nullptr);
  if (!R.Trap.isHalt())
    die(What + ": interpreter reference run trapped");
  return R.Output;
}

std::shared_ptr<const host::LoadedModule>
loadOrDie(host::ModuleHost &Host, target::TargetKind T, const vm::Module &Exe,
          const std::string &What) {
  host::LoadError Err;
  auto LM = Host.load(T, Exe, translate::TranslateOptions::mobile(true), Err);
  if (!LM)
    die(What + ": " + Err.str());
  return LM;
}

void buildWarm(Fixture &F, uint64_t Seed) {
  struct Program {
    std::string Name;
    vm::Module Exe;
    std::string Output;
  };
  std::vector<Program> Programs;
  if (F.W == WorkloadId::WarmShort) {
    std::mt19937_64 Rng(Seed);
    uint32_t SaltC = static_cast<uint32_t>(Rng() % 100000) + 1;
    uint32_t SaltP = static_cast<uint32_t>(Rng() % 100000) + 1;
    Programs.push_back({"serve.c", compile(shortBodyMiniC(SaltC),
                                           driver::Language::MiniC, "serve.c",
                                           F.CompileMs),
                        ""});
    Programs.push_back({"serve.pas", compile(shortBodyPascal(SaltP),
                                             driver::Language::Pascal,
                                             "serve.pas", F.CompileMs),
                        ""});
    for (Program &P : Programs)
      P.Output = interpreterOutput(*F.Host, P.Exe, P.Name);
  } else {
    for (unsigned I = 0; I < workloads::NumWorkloads; ++I) {
      const workloads::Workload &W = workloads::getWorkload(I);
      Programs.push_back({W.Name,
                          compile(W.Source, driver::Language::MiniC, W.Name,
                                  F.CompileMs),
                          W.ExpectedOutput});
    }
  }
  // Pattern: programs interleaved, round-robin over the targets.
  for (unsigned T = 0; T < 4; ++T)
    for (const Program &P : Programs) {
      RequestKind K;
      K.Label = P.Name + "/" + target::getTargetInfo(AllTargets[T]).Name;
      K.Target = AllTargets[T];
      K.Output = P.Output;
      K.Module = loadOrDie(*F.Host, K.Target, P.Exe, K.Label);
      measureReference(*F.Host, K.Module, K);
      F.Pattern.push_back(static_cast<uint32_t>(F.Kinds.size()));
      F.Kinds.push_back(std::move(K));
    }
}

void buildCold(Fixture &F, uint64_t Seed, const std::string &WorkDir) {
  std::mt19937_64 Rng(Seed * 0x9e3779b97f4a7c15ull + 17);
  std::mt19937_64 Shape(0x5eed5ca1eull);
  // The reference host never serves a timed request: its interpreter
  // gives the expected outputs, its translations the reference counts and
  // the resident size the L1 budget is cut from.
  host::ModuleHost Ref;
  std::vector<std::shared_ptr<const std::vector<uint8_t>>> Images;
  std::vector<std::string> Outputs;
  for (unsigned M = 0; M < NumColdModules; ++M) {
    std::string What = formatStr("gen%u.c", M);
    vm::Module Exe = compile(coldModuleSource(Shape, Rng),
                             driver::Language::MiniC, What, F.CompileMs);
    Outputs.push_back(interpreterOutput(Ref, Exe, What));
    Images.push_back(
        std::make_shared<const std::vector<uint8_t>>(Exe.serialize()));
  }
  size_t TotalBytes = 0;
  for (unsigned T = 0; T < 4; ++T)
    for (unsigned M = 0; M < NumColdModules; ++M) {
      RequestKind K;
      K.Label = formatStr("gen%u/%s", M,
                          target::getTargetInfo(AllTargets[T]).Name);
      K.Target = AllTargets[T];
      K.Owx = Images[M];
      K.Output = Outputs[M];
      host::LoadError Err;
      auto LM = Ref.loadBytes(K.Target, *K.Owx,
                              translate::TranslateOptions::mobile(true), Err);
      if (!LM)
        die(K.Label + ": " + Err.str());
      TotalBytes += LM->Translation->ByteSize;
      measureReference(Ref, LM, K);
      F.Kinds.push_back(std::move(K));
    }
  // Hostile images: truncated copies, rejected at deserialize.
  unsigned FirstHostile = static_cast<unsigned>(F.Kinds.size());
  for (unsigned H = 0; H < 2; ++H) {
    const std::vector<uint8_t> &Src = *Images[Rng() % NumColdModules];
    RequestKind K;
    K.Label = formatStr("truncated%u", H);
    K.Owx = std::make_shared<const std::vector<uint8_t>>(
        Src.begin(), Src.begin() + 16 + Rng() % (Src.size() / 2));
    K.ExpectReject = true;
    F.Kinds.push_back(std::move(K));
  }
  for (unsigned I = 0; I < FirstHostile; ++I) {
    F.Pattern.push_back(I);
    if (I % HostileEvery == HostileEvery - 1)
      F.Pattern.push_back(FirstHostile + (I / HostileEvery) % 2);
  }

  F.Host = std::make_unique<host::ModuleHost>(
      static_cast<size_t>(static_cast<double>(TotalBytes) * L1Share));
  if (F.W == WorkloadId::L2Spill) {
    static unsigned Generation = 0;
    F.L2Dir = formatStr("%s/l2-%d-%u", WorkDir.c_str(),
                        static_cast<int>(getpid()), Generation++);
    std::filesystem::remove_all(F.L2Dir);
    F.Host->options().CacheDir = F.L2Dir;
  }
}

/// One pass over the pattern through the server, one request at a time,
/// every response checked. The workers' spans go to the set-up record.
void warmUpPass(Fixture &F) {
  std::mutex Mu;
  std::condition_variable Cv;
  for (uint32_t I : F.Pattern) {
    bool Done = false;
    host::Response Got;
    F.Srv->submit(
        F.Kinds[I].request(),
        [&](host::Response R) {
          std::vector<Span> S = takeThreadSpans();
          takeLastRunEnd();
          std::lock_guard<std::mutex> Lock(Mu);
          F.SetupSpans.insert(F.SetupSpans.end(), S.begin(), S.end());
          Got = std::move(R);
          Done = true;
          Cv.notify_one();
        },
        /*Wait=*/true);
    std::unique_lock<std::mutex> Lock(Mu);
    Cv.wait(Lock, [&] { return Done; });
    if (!F.Kinds[I].check(Got))
      die(F.Kinds[I].Label + ": warm-up response was wrong: " +
          Got.Run.Output.substr(0, 200));
  }
}

} // namespace

bool perfbench::parseWorkload(const std::string &Name, WorkloadId &Out) {
  for (WorkloadId W : {WorkloadId::WarmShort, WorkloadId::WarmSpec,
                       WorkloadId::ColdChurn, WorkloadId::L2Spill})
    if (Name == workloadName(W)) {
      Out = W;
      return true;
    }
  return false;
}

const char *perfbench::workloadName(WorkloadId W) {
  switch (W) {
  case WorkloadId::WarmShort: return "warm_short";
  case WorkloadId::WarmSpec: return "warm_spec";
  case WorkloadId::ColdChurn: return "cold_churn";
  case WorkloadId::L2Spill: return "l2_spill";
  }
  return "?";
}

host::Request RequestKind::request() const {
  host::Request Req;
  Req.Module = Module;
  if (!Module)
    Req.Owx = *Owx;
  Req.Kind = Target;
  return Req;
}

bool RequestKind::check(const host::Response &R) const {
  if (ExpectReject)
    return !R.Executed && R.Load.Stage == host::LoadStage::Deserialize;
  return R.Executed && R.Run.Trap.isHalt() && R.Run.Output == Output &&
         R.Run.InstrCount == Instrs;
}

double Fixture::mcyclesPerReq() const {
  double Sum = 0;
  unsigned N = 0;
  for (uint32_t I : Pattern)
    if (!Kinds[I].ExpectReject) {
      Sum += static_cast<double>(Kinds[I].Cycles);
      ++N;
    }
  return N ? Sum / N / 1e6 : 0;
}

Fixture::~Fixture() {
  Srv.reset();
  Host.reset();
  if (!L2Dir.empty()) {
    std::error_code Ec;
    std::filesystem::remove_all(L2Dir, Ec);
  }
}

std::unique_ptr<Fixture> perfbench::buildFixture(WorkloadId W, uint64_t Seed,
                                                 const std::string &WorkDir) {
  takeThreadSpans(); // drop what an earlier set-up left on this thread
  auto F = std::make_unique<Fixture>();
  F->W = W;
  F->OpenRate = openRate(W);
  if (isWarm(W)) {
    F->Host = std::make_unique<host::ModuleHost>();
    buildWarm(*F, Seed);
  } else {
    buildCold(*F, Seed, WorkDir);
  }
  host::Server::Options SO;
  SO.Workers = NumWorkers;
  F->Srv = std::make_unique<host::Server>(*F->Host, SO);
  // Cold: the first pass translates (and, with an L2, stores) every key;
  // the second runs the path the timed phase measures.
  warmUpPass(*F);
  if (!isWarm(W))
    warmUpPass(*F);
  std::vector<Span> Own = takeThreadSpans();
  F->SetupSpans.insert(F->SetupSpans.end(), Own.begin(), Own.end());
  return F;
}
