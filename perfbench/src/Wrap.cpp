//===- perfbench/src/Wrap.cpp - Layer-call interception ---------*- C++ -*-===//
///
/// \file
/// Traced build only. The link step passes `--wrap=<symbol>` for every
/// function in wrapped_symbols.txt, so each call into that function from
/// another object file (ModuleHost calling the translator, Server calling
/// createSession, ...) lands on the `__wrap_` definition below, which
/// times the `__real_` call and records a Span. The libraries themselves
/// are built unmodified; only the traced executable's link differs.
///
/// Member functions are wrapped as free functions taking `this` first,
/// which is how the Itanium C++ ABI passes it (a by-value class return
/// still goes through the hidden result pointer ahead of `this`). Every
/// `__real_`/`__wrap_` name is spelled from the same list the link flags
/// come from, so a stale mangled name fails the link instead of silently
/// leaving a layer untimed.
///
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "host/ModuleHost.h"
#include "sficheck/SfiChecker.h"
#include "translate/Translator.h"
#include "vm/Module.h"
#include "vm/Verifier.h"

using namespace omni;
using perfbench::Layer;
using perfbench::Span;

#define PERFBENCH_REAL(Sym) __asm__("__real_" PERFBENCH_SYM_##Sym)
#define PERFBENCH_WRAP(Sym) __asm__("__wrap_" PERFBENCH_SYM_##Sym)

namespace perfbench::wrap {

// --- declarations: the real entry points and their wrappers -------------

std::shared_ptr<const host::LoadedModule>
realLoadBytes(host::ModuleHost *Self, target::TargetKind Kind,
              const std::vector<uint8_t> &Owx,
              const translate::TranslateOptions &Opts,
              host::LoadError &Err) PERFBENCH_REAL(LOADBYTES);
std::shared_ptr<const host::LoadedModule>
wrapLoadBytes(host::ModuleHost *Self, target::TargetKind Kind,
              const std::vector<uint8_t> &Owx,
              const translate::TranslateOptions &Opts,
              host::LoadError &Err) PERFBENCH_WRAP(LOADBYTES);

bool realDeserialize(const std::vector<uint8_t> &Bytes, vm::Module &Out,
                     std::string &Error) PERFBENCH_REAL(DESERIALIZE);
bool wrapDeserialize(const std::vector<uint8_t> &Bytes, vm::Module &Out,
                     std::string &Error) PERFBENCH_WRAP(DESERIALIZE);

bool realVerify(const vm::Module &M, std::vector<std::string> &Errors)
    PERFBENCH_REAL(VERIFY);
bool wrapVerify(const vm::Module &M, std::vector<std::string> &Errors)
    PERFBENCH_WRAP(VERIFY);

bool realTranslate(target::TargetKind Kind, const vm::Module &Exe,
                   const translate::TranslateOptions &Opts,
                   const translate::SegmentLayout &Seg,
                   target::TargetCode &Out, std::string &Error,
                   translate::SfiOptStats *OptStats) PERFBENCH_REAL(TRANSLATE);
bool wrapTranslate(target::TargetKind Kind, const vm::Module &Exe,
                   const translate::TranslateOptions &Opts,
                   const translate::SegmentLayout &Seg,
                   target::TargetCode &Out, std::string &Error,
                   translate::SfiOptStats *OptStats) PERFBENCH_WRAP(TRANSLATE);

sficheck::CheckResult realCheck(target::TargetKind Kind,
                                const target::TargetCode &Code,
                                const translate::SegmentLayout &Seg,
                                const sficheck::CheckOptions &Opts)
    PERFBENCH_REAL(SFICHECK);
sficheck::CheckResult wrapCheck(target::TargetKind Kind,
                                const target::TargetCode &Code,
                                const translate::SegmentLayout &Seg,
                                const sficheck::CheckOptions &Opts)
    PERFBENCH_WRAP(SFICHECK);

host::DiskCache::Probe
realDiskLoad(host::DiskCache *Self, const host::CacheKey &K,
             std::vector<uint8_t> &Payload,
             const std::function<void(std::vector<uint8_t> &)> &Mutate)
    PERFBENCH_REAL(DISKLOAD);
host::DiskCache::Probe
wrapDiskLoad(host::DiskCache *Self, const host::CacheKey &K,
             std::vector<uint8_t> &Payload,
             const std::function<void(std::vector<uint8_t> &)> &Mutate)
    PERFBENCH_WRAP(DISKLOAD);

bool realDiskStore(host::DiskCache *Self, const host::CacheKey &K,
                   const std::vector<uint8_t> &Payload)
    PERFBENCH_REAL(DISKSTORE);
bool wrapDiskStore(host::DiskCache *Self, const host::CacheKey &K,
                   const std::vector<uint8_t> &Payload)
    PERFBENCH_WRAP(DISKSTORE);

bool realDecode(const std::vector<uint8_t> &Payload, target::TargetKind Kind,
                vm::Module &Exe, target::TargetCode &Code, std::string &Error)
    PERFBENCH_REAL(DECODE);
bool wrapDecode(const std::vector<uint8_t> &Payload, target::TargetKind Kind,
                vm::Module &Exe, target::TargetCode &Code, std::string &Error)
    PERFBENCH_WRAP(DECODE);

std::unique_ptr<host::Session>
realCreateSession(host::ModuleHost *Self,
                  std::shared_ptr<const host::LoadedModule> LM,
                  const std::function<void(runtime::HostEnv &)> &Extra)
    PERFBENCH_REAL(CREATESESSION);
std::unique_ptr<host::Session>
wrapCreateSession(host::ModuleHost *Self,
                  std::shared_ptr<const host::LoadedModule> LM,
                  const std::function<void(runtime::HostEnv &)> &Extra)
    PERFBENCH_WRAP(CREATESESSION);

runtime::RunResult realRun(host::Session *Self, uint64_t MaxSteps)
    PERFBENCH_REAL(RUN);
runtime::RunResult wrapRun(host::Session *Self, uint64_t MaxSteps)
    PERFBENCH_WRAP(RUN);

// --- definitions ---------------------------------------------------------

namespace {
/// Times one call: Begin at construction, End + record at finish().
struct Timed {
  Span S;
  bool On;
  explicit Timed(Layer L) : On(spansOn()) {
    S.L = L;
    if (On)
      S.BeginNs = nowNs();
  }
  void finish(uint64_t A = 0, uint64_t B = 0, uint64_t C = 0) {
    if (!On)
      return;
    S.EndNs = nowNs();
    S.A = A;
    S.B = B;
    S.C = C;
    recordSpan(S);
  }
};
} // namespace

std::shared_ptr<const host::LoadedModule>
wrapLoadBytes(host::ModuleHost *Self, target::TargetKind Kind,
              const std::vector<uint8_t> &Owx,
              const translate::TranslateOptions &Opts, host::LoadError &Err) {
  Timed T(Layer::Load);
  auto LM = realLoadBytes(Self, Kind, Owx, Opts, Err);
  T.finish(Owx.size(), LM ? 1 : 0);
  return LM;
}

bool wrapDeserialize(const std::vector<uint8_t> &Bytes, vm::Module &Out,
                     std::string &Error) {
  Timed T(Layer::Deserialize);
  bool Ok = realDeserialize(Bytes, Out, Error);
  T.finish(Bytes.size());
  return Ok;
}

bool wrapVerify(const vm::Module &M, std::vector<std::string> &Errors) {
  Timed T(Layer::Verify);
  bool Ok = realVerify(M, Errors);
  T.finish(M.Code.size());
  return Ok;
}

bool wrapTranslate(target::TargetKind Kind, const vm::Module &Exe,
                   const translate::TranslateOptions &Opts,
                   const translate::SegmentLayout &Seg,
                   target::TargetCode &Out, std::string &Error,
                   translate::SfiOptStats *OptStats) {
  Timed T(Layer::Translate);
  bool Ok = realTranslate(Kind, Exe, Opts, Seg, Out, Error, OptStats);
  T.finish(Exe.Code.size(), Out.Code.size());
  return Ok;
}

sficheck::CheckResult wrapCheck(target::TargetKind Kind,
                                const target::TargetCode &Code,
                                const translate::SegmentLayout &Seg,
                                const sficheck::CheckOptions &Opts) {
  Timed T(Layer::SfiCheck);
  sficheck::CheckResult R = realCheck(Kind, Code, Seg, Opts);
  T.finish(R.Proved + R.Assumed + R.Failed);
  return R;
}

host::DiskCache::Probe
wrapDiskLoad(host::DiskCache *Self, const host::CacheKey &K,
             std::vector<uint8_t> &Payload,
             const std::function<void(std::vector<uint8_t> &)> &Mutate) {
  Timed T(Layer::DiskRead);
  host::DiskCache::Probe P = realDiskLoad(Self, K, Payload, Mutate);
  T.finish(Payload.size(), P == host::DiskCache::Probe::Hit ? 1 : 0);
  return P;
}

bool wrapDiskStore(host::DiskCache *Self, const host::CacheKey &K,
                   const std::vector<uint8_t> &Payload) {
  Timed T(Layer::DiskStore);
  bool Ok = realDiskStore(Self, K, Payload);
  T.finish(Payload.size());
  return Ok;
}

bool wrapDecode(const std::vector<uint8_t> &Payload, target::TargetKind Kind,
                vm::Module &Exe, target::TargetCode &Code,
                std::string &Error) {
  Timed T(Layer::DiskDecode);
  bool Ok = realDecode(Payload, Kind, Exe, Code, Error);
  T.finish(Payload.size());
  return Ok;
}

std::unique_ptr<host::Session>
wrapCreateSession(host::ModuleHost *Self,
                  std::shared_ptr<const host::LoadedModule> LM,
                  const std::function<void(runtime::HostEnv &)> &Extra) {
  Timed T(Layer::SessionCreate);
  std::unique_ptr<host::Session> S =
      realCreateSession(Self, std::move(LM), Extra);
  T.finish();
  return S;
}

runtime::RunResult wrapRun(host::Session *Self, uint64_t MaxSteps) {
  Timed T(Layer::SessionRun);
  runtime::RunResult R = realRun(Self, MaxSteps);
  const target::SimStats &St = Self->stats();
  T.finish(St.Cycles, St.Instructions, St.catCount(target::ExpCat::Sfi));
  if (T.On)
    setLastRunEnd(T.S.EndNs);
  return R;
}

} // namespace perfbench::wrap
