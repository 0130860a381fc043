//===- main.cpp - matbench: matcoal's end-to-end and per-layer benchmark --===//
//
//   matbench --workload compile|serve --seed N --seconds S --trace 0|1
//            --work-dir DIR
//
// Workloads (why each exists is recorded in BENCHMARK.json):
//   compile  compile-only sweeps over the 11 suite programs; all work lands
//            in frontend .. codegen, none in vm/runtime/native/service.
//   serve    a real matcoald driven over one pipe by a closed loop keeping
//            2 x workers requests in flight: warm VM and native requests
//            plus about one in ten never-seen variants that miss the cache.
//
// Every output is checked against the AST interpreter (runInterp), whose
// reference outputs are computed before set-up and excluded from setup_s.
// With --trace 0 the result line carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics, from a run whose calls into
// each layer are wrapped in spans (written as a Chrome trace to DIR).
//
//===----------------------------------------------------------------------===//

#include "Daemon.h"
#include "Replay.h"
#include "Support.h"

#include "bench/programs/Programs.h"
#include "native/NativeEngine.h"
#include "service/Json.h"
#include "support/Subprocess.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include <unistd.h>

using namespace matcoal;
using namespace matbench;

namespace {

constexpr std::uint64_t BaseSeed = 20030609; // The programs' default seed.
constexpr int SetupReps = 3;

struct Options {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string WorkDir;
};

/// One program the workload runs: a suite program or a cold variant of one.
struct Prog {
  std::string Name; ///< "capr", or "capr.cold3" for a cold variant.
  std::string Source;
  std::vector<std::uint64_t> Seeds; ///< Seeds[0] is BaseSeed.
};

/// Outcome bookkeeping shared by every phase: an op is anything whose
/// output the benchmark checks.
struct Tally {
  std::uint64_t Attempted = 0, Failed = 0;
  void op(bool OK, const std::string &What) {
    ++Attempted;
    if (!OK) {
      ++Failed;
      std::fprintf(stderr, "matbench: FAILED %s\n", What.c_str());
    }
  }
};

/// Latency samples per op class ("vm:capr", "compile:nb3d", ...).
struct Samples {
  std::map<std::string, std::vector<double>> ByClass;
  std::vector<double> All;
  void add(const std::string &Class, double Ms) {
    ByClass[Class].push_back(Ms);
    All.push_back(Ms);
  }
  double classMedian(const std::string &Class) const {
    auto It = ByClass.find(Class);
    return It == ByClass.end() ? 0 : median(It->second);
  }
  /// Geomean over the classes starting with \p Prefix of their medians.
  double geomeanOf(const std::string &Prefix = "") const {
    std::vector<double> M;
    for (const auto &[Class, V] : ByClass)
      if (Class.compare(0, Prefix.size(), Prefix) == 0)
        M.push_back(median(V));
    return geomean(M);
  }
};

unsigned nproc() {
  unsigned N = std::thread::hardware_concurrency();
  return N ? N : 1;
}

/// Runs Fn(0..N-1) on up to nproc() threads.
void parallelFor(std::size_t N, const std::function<void(std::size_t)> &Fn) {
  std::atomic<std::size_t> Next{0};
  auto Worker = [&] {
    for (std::size_t I; (I = Next++) < N;)
      Fn(I);
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < std::min<std::size_t>(nproc(), N); ++T)
    Pool.emplace_back(Worker);
  Worker();
  for (std::thread &T : Pool)
    T.join();
}

std::vector<Prog> suitePrograms(Rng &R, unsigned SeedsPerProg) {
  std::vector<Prog> Out;
  for (const BenchmarkProgram &B : benchmarkSuite()) {
    Prog P;
    P.Name = B.Name;
    P.Source = B.Source;
    P.Seeds.push_back(BaseSeed);
    while (P.Seeds.size() < SeedsPerProg)
      P.Seeds.push_back(1 + R.below(2147483647ull));
    Out.push_back(std::move(P));
  }
  return Out;
}

/// Reference outputs from the AST interpreter, keyed by (program, seed),
/// plus the static-model run at BaseSeed of every program that feeds the
/// paper's storage metrics and the exact VM counts.
struct Oracle {
  std::map<std::pair<std::string, std::uint64_t>, std::string> Ref;
  std::map<std::string, ExecResult> BaseRun;
  /// compileSource's plans and C per program: every later compile, the
  /// stage replay included, must reproduce them byte for byte.
  std::map<std::string, CompileOut> Expected;

  const std::string *ref(const std::string &Prog, std::uint64_t Seed) const {
    auto It = Ref.find({Prog, Seed});
    return It == Ref.end() ? nullptr : &It->second;
  }
};

Oracle buildOracle(const std::vector<const Prog *> &Progs,
                   const std::set<std::string> &BaseRunFor, Tally &T) {
  std::vector<CompileOut> Compiled(Progs.size());
  parallelFor(Progs.size(), [&](std::size_t I) {
    Compiled[I] = compileOnce(Progs[I]->Source, 1);
  });
  struct Task {
    std::size_t Prog;
    std::uint64_t Seed;
    bool Static;
  };
  std::vector<Task> Tasks;
  for (std::size_t I = 0; I < Progs.size(); ++I) {
    T.op(Compiled[I].P != nullptr, "reference compile of " + Progs[I]->Name);
    if (!Compiled[I].P)
      continue;
    for (std::uint64_t S : Progs[I]->Seeds)
      Tasks.push_back({I, S, false});
    if (BaseRunFor.count(Progs[I]->Name))
      Tasks.push_back({I, BaseSeed, true});
  }
  std::vector<InterpResult> Interp(Tasks.size());
  std::vector<ExecResult> Static(Tasks.size());
  parallelFor(Tasks.size(), [&](std::size_t I) {
    const CompiledProgram &P = *Compiled[Tasks[I].Prog].P;
    if (Tasks[I].Static)
      Static[I] = P.runStatic(Tasks[I].Seed);
    else
      Interp[I] = P.runInterp(Tasks[I].Seed);
  });
  Oracle O;
  for (std::size_t I = 0; I < Tasks.size(); ++I) {
    const std::string &Name = Progs[Tasks[I].Prog]->Name;
    if (Tasks[I].Static)
      continue;
    T.op(Interp[I].OK, "reference run of " + Name);
    if (Interp[I].OK)
      O.Ref[{Name, Tasks[I].Seed}] = std::move(Interp[I].Output);
  }
  for (std::size_t I = 0; I < Tasks.size(); ++I) {
    if (!Tasks[I].Static)
      continue;
    const std::string &Name = Progs[Tasks[I].Prog]->Name;
    const std::string *Ref = O.ref(Name, BaseSeed);
    T.op(Static[I].OK && Ref && Static[I].Output == *Ref,
         "static-model check of " + Name);
    O.BaseRun[Name] = std::move(Static[I]);
  }
  for (std::size_t I = 0; I < Progs.size(); ++I)
    O.Expected[Progs[I]->Name] = std::move(Compiled[I]);
  return O;
}

/// Exact per-program counts, which must repeat on every compile.
struct Counts {
  std::int64_t IrInstrs = 0, SymNodes = 0, GctdEdges = 0, FrameBytes = 0,
               StackGroups = 0, HeapGroups = 0, CBytes = 0;
  bool operator==(const Counts &) const = default;
  static Counts of(const CompileOut &C) {
    return {C.IrInstrs,   C.SymNodes,    C.GctdEdges,
            C.FrameBytes, C.StackGroups, C.HeapGroups,
            static_cast<std::int64_t>(C.C.size())};
  }
};

/// Compiles \p P (traced replay or the plain compile) and checks the plans
/// and C against compileSource's; records counts on the traced path.
CompileOut checkedCompile(const Prog &P, Tracer &Tr, bool Traced,
                          const Oracle &Ref,
                          std::map<std::string, Counts> &CountsByProg,
                          Tally &T) {
  CompileOut C = Traced ? replayCompile(P.Source, 1, Tr)
                        : compileOnce(P.Source, 1);
  auto Expected = Ref.Expected.find(P.Name);
  bool OK = C.P != nullptr && Expected != Ref.Expected.end() &&
            C.Plans == Expected->second.Plans && C.C == Expected->second.C;
  if (OK && Traced) {
    auto [It, New] = CountsByProg.emplace(P.Name, Counts::of(C));
    OK = New || It->second == Counts::of(C);
  }
  T.op(OK, "compile of " + P.Name + (Traced ? " (stage replay)" : ""));
  return C;
}

struct RunState {
  Options Opt;
  Tracer Tr;
  Tally T;
  Samples Untraced, Traced;
  std::vector<double> SetupSec;
  std::map<std::string, Counts> CountsByProg;
  std::size_t CompileSweeps = 0; ///< Sweeps the stage self times cover.
  std::map<std::string, double> Gauge; ///< Per-layer values, by name.
  Oracle Ref;
  /// VmHWM of the process hosting the system after a fixed amount of work
  /// -- set-up plus the first compile sweep; the daemon's set-up on
  /// serve -- so memory that runs keep (a leak) adds the same amount to
  /// every run.
  double PeakRssMb = 0;

  explicit RunState(const Options &O) : Opt(O), Tr(O.Trace) {}
  Samples &samples(bool TracedOp) { return TracedOp ? Traced : Untraced; }
  /// Traced and untraced samples together, for the per-layer rows.
  Samples both() const {
    Samples B = Untraced;
    for (const auto &[C, V] : Traced.ByClass)
      for (double X : V)
        B.add(C, X);
    return B;
  }
};

std::string freshDir(const Options &O, const std::string &Tag) {
  static int N = 0;
  std::string D = O.WorkDir + "/" + Tag + "." + std::to_string(getpid()) +
                  "." + std::to_string(N++);
  std::filesystem::remove_all(D);
  std::filesystem::create_directories(D);
  return D;
}

double peakRssMbSelf() { return readProcStatus(getpid()).VmHWMkB / 1024.0; }

//===----------------------------------------------------------------------===//
// compile
//===----------------------------------------------------------------------===//

void runCompile(RunState &S) {
  Rng R(S.Opt.Seed);
  std::vector<Prog> Progs = suitePrograms(R, 1);
  std::vector<const Prog *> All;
  std::set<std::string> Names;
  for (const Prog &P : Progs) {
    All.push_back(&P);
    Names.insert(P.Name);
  }
  S.Ref = buildOracle(All, Names, S.T);
  resetPeakRss();

  // Set-up: build the suite, compiling every program once per repetition.
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    double T0 = nowSec();
    for (const Prog &P : Progs)
      checkedCompile(P, S.Tr, S.Opt.Trace, S.Ref, S.CountsByProg, S.T);
    S.SetupSec.push_back(nowSec() - T0);
    ++S.CompileSweeps;
  }

  std::vector<std::size_t> Order(Progs.size());
  for (std::size_t I = 0; I < Order.size(); ++I)
    Order[I] = I;
  double T0 = nowSec();
  std::size_t Sweep = 0;
  for (; nowSec() - T0 < S.Opt.Seconds; ++Sweep) {
    R.shuffle(Order);
    // A traced run traces every other sweep; the untraced ones give the
    // tracing overhead.
    bool Traced = S.Opt.Trace && Sweep % 2 == 0;
    if (Traced)
      ++S.CompileSweeps;
    for (std::size_t I : Order) {
      double A = nowSec();
      if (Traced) {
        S.Tr.beginOp();
        auto Root = S.Tr.span("compile." + Progs[I].Name);
        checkedCompile(Progs[I], S.Tr, true, S.Ref, S.CountsByProg, S.T);
      } else {
        checkedCompile(Progs[I], S.Tr, false, S.Ref, S.CountsByProg, S.T);
      }
      S.samples(Traced).add("compile:" + Progs[I].Name, (nowSec() - A) * 1e3);
    }
    if (Sweep == 0)
      S.PeakRssMb = peakRssMbSelf();
  }
  S.Gauge["compile_ms"] = 0;
  for (const Prog &P : Progs)
    S.Gauge["compile_ms"] += S.Untraced.classMedian("compile:" + P.Name);
}

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

/// Programs whose data is complex, which the native tier does not run: a
/// native request for them traps in mcrt and re-runs on the VM with a
/// loud Degraded remark (docs/EXECUTION_TIERS.md). For these, landing on
/// the VM with the right output is the tier's specified behaviour, not a
/// failure; it is counted in native.fallbacks. Any other fallback fails.
const std::set<std::string> ComplexData = {"diff"};

bool isComplexData(const std::string &ProgName) {
  return ComplexData.count(ProgName.substr(0, ProgName.find('.'))) != 0;
}

/// A never-seen variant of \p P: one extra statement at the top of main
/// changes the printed IR, so the artifact cache cannot hold it.
Prog coldVariant(const Prog &P, std::uint64_t Nonce, std::size_t Idx) {
  Prog V = P;
  V.Name = P.Name + ".cold" + std::to_string(Idx);
  V.Seeds = {BaseSeed};
  std::size_t At = V.Source.find("function main");
  At = V.Source.find('\n', At);
  V.Source.insert(At + 1, "  disp(" + std::to_string(Nonce) + ");\n");
  return V;
}

std::string requestLine(const std::string &Id, const Prog &P,
                        std::uint64_t Seed, bool Native) {
  JsonValue O = JsonValue::object();
  O.set("id", JsonValue::str(Id));
  O.set("source", JsonValue::str(P.Source));
  O.set("seed", JsonValue::number(static_cast<double>(Seed)));
  O.set("threads", JsonValue::number(1));
  O.set("native", JsonValue::boolean(Native));
  return O.dump();
}

struct Reply {
  bool OK = false;
  bool Rejected = false;
  bool Degraded = false;
  std::int64_t Hits = 0, Misses = 0;
  double QueueMs = 0, CompileMs = 0, RunMs = 0;
  std::string Output;
};

Reply parseReply(const JsonValue &V) {
  Reply R;
  R.OK = V.get("ok").asBool(false);
  R.Rejected = V.get("rejected").asBool(false);
  R.Output = V.get("output").asString();
  R.QueueMs = V.get("queue_ms").asNumber();
  R.CompileMs = V.get("compile_ms").asNumber();
  R.RunMs = V.get("run_ms").asNumber();
  R.Degraded = V.get("rung").asString() != "full";
  const JsonValue &C = V.get("counters");
  R.Hits = C.get("native.cache.hits").asInt();
  R.Misses = C.get("native.cache.misses").asInt();
  return R;
}

struct Request {
  std::string Class; ///< "vm:<prog>", "native:<prog>" or "cold".
  const Prog *P;
  std::uint64_t Seed;
  bool Native, Cold;
  bool Traced = false; ///< A traced run traces every other request.
};

void runServe(RunState &S) {
  Rng R(S.Opt.Seed);
  const unsigned Workers = nproc();
  const unsigned Window = 2 * Workers;
  std::vector<Prog> Progs = suitePrograms(R, 3);
  // Cold variants come from programs that run quickly, so a cold request
  // costs its cc + dlopen rather than a long run, and their interpreter
  // references stay cheap. Each cold request needs a second of cc, so the
  // window cannot complete more than Seconds x Workers of them.
  const std::set<std::string> ColdBase = {"adpt", "capr", "clos", "dich",
                                          "edit", "nb1d", "nb3d"};
  std::vector<const Prog *> ColdFrom;
  for (const Prog &P : Progs)
    if (ColdBase.count(P.Name))
      ColdFrom.push_back(&P);
  std::vector<Prog> Cold;
  std::size_t ColdPool =
      static_cast<std::size_t>(S.Opt.Seconds * Workers) + 4;
  // Bases cycle through seeded permutations, so every run draws each
  // base program equally often.
  for (std::size_t I = 0; I < ColdPool; ++I) {
    if (I % ColdFrom.size() == 0)
      R.shuffle(ColdFrom);
    Cold.push_back(coldVariant(*ColdFrom[I % ColdFrom.size()],
                               1 + R.below(999999999ull), I));
  }
  std::vector<const Prog *> All;
  std::set<std::string> Names;
  for (const Prog &P : Progs) {
    All.push_back(&P);
    Names.insert(P.Name);
  }
  for (const Prog &P : Cold)
    All.push_back(&P);
  S.Ref = buildOracle(All, Names, S.T);
  // The daemon compiles out of sight; one traced replay of the suite gives
  // this workload the stage and count metrics of the same compiles.
  if (S.Opt.Trace) {
    for (const Prog &P : Progs)
      checkedCompile(P, S.Tr, true, S.Ref, S.CountsByProg, S.T);
    ++S.CompileSweeps;
  }

  // Set-up: start a daemon on a fresh cache and fill it with one native
  // request per program.
  std::unique_ptr<Daemon> D;
  std::vector<std::string> CacheDirs;
  const std::string Env = std::string("MATCOAL_MCRT_DIR=") + MATBENCH_MCRT_DIR;
  // Sends \p Lines with at most Window unanswered, as the timed loop
  // does, so the daemon's queue never refuses one.
  auto Exchange = [&](Daemon &Dm, const std::vector<std::string> &Lines,
                      const std::function<void(const JsonValue &)> &On) {
    double Deadline = nowSec() + 120;
    std::size_t Sent = 0, Got = 0;
    std::vector<std::string> In;
    while (Got < Lines.size() && nowSec() < Deadline) {
      while (Sent < Lines.size() && Sent - Got < Window)
        Dm.send(Lines[Sent++]);
      In.clear();
      if (!Dm.poll(50, In))
        break;
      for (const std::string &L : In) {
        std::string Err;
        if (std::optional<JsonValue> V = JsonValue::parse(L, Err)) {
          On(*V);
          ++Got;
        }
      }
    }
    return Got == Lines.size();
  };
  for (int Rep = 0; Rep < SetupReps; ++Rep) {
    double T0 = nowSec();
    CacheDirs.push_back(freshDir(S.Opt, "cache"));
    auto Dm = std::make_unique<Daemon>(
        MATBENCH_MATCOALD,
        std::vector<std::string>{"--workers=" + std::to_string(Workers),
                                 "--queue=" + std::to_string(Window),
                                 "--cache-dir=" + CacheDirs.back()},
        std::vector<std::string>{Env});
    std::vector<std::string> Fill;
    for (std::size_t I = 0; I < Progs.size(); ++I)
      Fill.push_back(
          requestLine("w" + std::to_string(I), Progs[I], BaseSeed, true));
    bool Filled = Exchange(*Dm, Fill, [&](const JsonValue &V) {
      std::size_t I = std::strtoul(V.get("id").asString().c_str() + 1,
                                   nullptr, 10);
      Reply Rp = parseReply(V);
      const std::string *Ref =
          I < Progs.size() ? S.Ref.ref(Progs[I].Name, BaseSeed) : nullptr;
      bool OK = Rp.OK && Ref && Rp.Output == *Ref && !Rp.Degraded &&
                Rp.Misses == 1 &&
                (V.get("tier").asString() == "native" ||
                 (I < Progs.size() && isComplexData(Progs[I].Name)));
      S.T.op(OK, "daemon cache fill of " +
                     (I < Progs.size() ? Progs[I].Name : "?") +
                     (OK ? "" : ": " + V.dump().substr(0, 400)));
    });
    S.SetupSec.push_back(nowSec() - T0);
    if (!Filled)
      S.T.op(false, "daemon cache fill timed out");
    // Read once the daemon is idle after its set-up, whose requests do
    // not depend on the seed: the same work on every run.
    S.PeakRssMb = readProcStatus(Dm->pid()).VmHWMkB / 1024.0;
    if (D)
      D->stop();
    D = std::move(Dm);
  }

  // The mix comes in rounds: each is a seeded permutation of every warm
  // class (VM and native, each suite program) plus two cold requests, so
  // any window holds each class in nearly fixed proportion.
  Rng Mix(S.Opt.Seed ^ 0x5e7e5e7eull);
  std::size_t NextCold = 0, NextId = 0;
  std::vector<Request> Round;
  std::map<std::string, std::size_t> Turn;
  const std::size_t RoundSize = 2 * Progs.size() + 2;
  auto Draw = [&]() {
    if (Round.empty()) {
      for (const Prog &P : Progs)
        for (bool Native : {false, true}) {
          std::string Class = (Native ? "native:" : "vm:") + P.Name;
          Round.push_back({Class, &P, P.Seeds[Turn[Class]++ % P.Seeds.size()],
                           Native, false});
        }
      for (int C = 0; C < 2 && NextCold < Cold.size(); ++C)
        Round.push_back({"cold", &Cold[NextCold++], BaseSeed, true, true});
      Mix.shuffle(Round);
    }
    Request Q = Round.back();
    Round.pop_back();
    return Q;
  };
  std::vector<double> QueueMs, CompileMs, RunMs, ColdE2E, WarmE2E, ColdRun,
      WarmNativeRun;
  std::int64_t Hits = 0, Misses = 0, Backpressure = 0, Degraded = 0,
               Fallbacks = 0;
  long ThreadsMax = 0;
  std::size_t InWindow = 0;
  Samples RunByClass; // The daemon's run_ms by (tier, program).

  // The closed loop: keeps Window requests in flight until MaxRequests
  // were sent or Seconds passed, then drains. Only a timed loop records.
  auto Drive = [&](std::size_t MaxRequests, double Seconds, bool Timed) {
    std::map<std::string, Request> InFlight;
    std::map<std::string, double> SentAt;
    std::size_t Sent = 0;
    double T0 = nowSec(), LastSample = 0;
    bool Alive = true;
    std::vector<std::string> Lines;
    while (Alive) {
      double Now = nowSec();
      while (InFlight.size() < Window && Sent < MaxRequests &&
             Now - T0 < Seconds) {
        Request Q = Draw();
        std::string Id = "r" + std::to_string(NextId++);
        D->send(requestLine(Id, *Q.P, Q.Seed, Q.Native));
        SentAt[Id] = nowSec();
        Q.Traced = S.Opt.Trace && NextId % 2 == 0;
        InFlight[Id] = Q;
        ++Sent;
      }
      if (InFlight.empty() || Now - T0 > Seconds + 150)
        break;
      if (Timed && Now - LastSample > 0.1) {
        ThreadsMax = std::max(ThreadsMax, readProcStatus(D->pid()).Threads);
        LastSample = Now;
      }
      Lines.clear();
      Alive = D->poll(20, Lines);
      for (const std::string &L : Lines) {
        double Got = nowSec();
        std::string Err;
        std::optional<JsonValue> V = JsonValue::parse(L, Err);
        if (!V)
          continue;
        std::string Id = V->get("id").asString();
        auto It = InFlight.find(Id);
        if (It == InFlight.end())
          continue;
        Request Q = It->second;
        InFlight.erase(It);
        Reply Rp = parseReply(*V);
        const std::string *Ref = S.Ref.ref(Q.P->Name, Q.Seed);
        bool OK = Rp.OK && Ref && Rp.Output == *Ref && !Rp.Degraded;
        bool Native = V->get("tier").asString() == "native";
        bool Fallback = !Native && isComplexData(Q.P->Name);
        if (Q.Native)
          OK = OK && (Native || Fallback) &&
               (Q.Cold ? Rp.Misses == 1 : Rp.Hits == 1);
        S.T.op(OK, "request " + Id + " (" + Q.Class + ")");
        if (!Timed)
          continue;
        double E2E = (Got - SentAt[Id]) * 1e3;
        if (Q.Traced)
          S.Tr.add("request." + Q.Class, SentAt[Id], Got);
        Backpressure += Rp.Rejected;
        if (Q.Native) {
          Degraded += !Native || Rp.Degraded;
          Fallbacks += Fallback;
          Hits += Rp.Hits;
          Misses += Rp.Misses;
          (Q.Cold ? ColdRun : WarmNativeRun).push_back(Rp.RunMs);
        }
        S.samples(Q.Traced).add(Q.Class, E2E);
        if (!Q.Cold)
          RunByClass.add(Q.Class, Rp.RunMs);
        QueueMs.push_back(Rp.QueueMs);
        CompileMs.push_back(Rp.CompileMs);
        RunMs.push_back(Rp.RunMs);
        (Q.Cold ? ColdE2E : WarmE2E).push_back(E2E);
        if (Got - T0 <= Seconds)
          ++InWindow;
      }
    }
    for (const auto &[Id, Q] : InFlight)
      S.T.op(false, "request " + Id + " (" + Q.Class + ") got no reply");
  };

  // Warm-up: one untimed round.
  Drive(RoundSize, 1e9, false);

  ProcStatus Start = readProcStatus(D->pid());
  S.Gauge["daemon.threads_start"] = Start.Threads;
  S.Gauge["daemon.rss_mb_start"] = Start.VmRSSkB / 1024.0;
  Drive(static_cast<std::size_t>(-1), S.Opt.Seconds, true);

  int Pid = D->pid();
  ProcStatus PS = readProcStatus(Pid);
  S.Gauge["daemon.threads_end"] = PS.Threads;
  S.Gauge["daemon.threads_max"] = std::max(ThreadsMax, PS.Threads);
  S.Gauge["daemon.rss_mb_end"] = PS.VmRSSkB / 1024.0;
  S.Gauge["daemon.artifacts_mapped"] = countMappedUnder(Pid, CacheDirs.back());
  S.Gauge["native.cache_disk_bytes"] =
      static_cast<double>(dirBytes(CacheDirs.back()));
  int Exit = D->stop();
  S.T.op(Exit == 0, "daemon exit status " + std::to_string(Exit));

  Samples Both = S.both();
  // Throughput counts the replies that landed inside the window; the
  // drain after it runs below full concurrency.
  S.Gauge["req_per_s"] = InWindow / S.Opt.Seconds;
  S.Gauge["e2e_ms_p50"] = median(Both.All);
  S.Gauge["e2e_ms_p95"] = quantile(Both.All, 0.95);
  S.Gauge["service.queue_ms_p50"] = median(QueueMs);
  S.Gauge["service.queue_ms_p95"] = quantile(QueueMs, 0.95);
  S.Gauge["service.compile_ms_p50"] = median(CompileMs);
  S.Gauge["service.run_ms_p50"] = median(RunMs);
  S.Gauge["service.cold_e2e_ms_p50"] = median(ColdE2E);
  S.Gauge["service.warm_e2e_ms_p50"] = median(WarmE2E);
  S.Gauge["service.backpressure"] = static_cast<double>(Backpressure);
  S.Gauge["service.tier_degraded"] = static_cast<double>(Degraded);
  S.Gauge["native.miss_ms"] = median(ColdRun) - median(WarmNativeRun);
  S.Gauge["native.fallbacks"] = static_cast<double>(Fallbacks);
  S.Gauge["native.hit_ratio"] =
      Hits + Misses ? static_cast<double>(Hits) / (Hits + Misses) : 0;
  S.Gauge["vm_run_ms"] = RunByClass.geomeanOf("vm:");
  S.Gauge["native_run_ms"] = RunByClass.geomeanOf("native:");
  for (const Prog &P : Progs) {
    S.Gauge["vm." + P.Name + "_ms"] = Both.classMedian("vm:" + P.Name);
    S.Gauge["native." + P.Name + "_ms"] = Both.classMedian("native:" + P.Name);
  }
  for (const std::string &Dir : CacheDirs)
    std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

/// The "metrics" object of the result line: {name: {"value", "unit"}}.
struct Metrics {
  JsonValue Obj = JsonValue::object();
  void metric(const std::string &Name, double Value, const std::string &Unit) {
    JsonValue M = JsonValue::object();
    M.set("value", JsonValue::number(std::isfinite(Value) ? Value : 0));
    M.set("unit", JsonValue::str(Unit));
    Obj.set(Name, std::move(M));
  }
};

/// The per-layer metrics, in BENCHMARK.json's order; each workload reports
/// all of them, with 0 for a layer it does not exercise.
const char *const StageSpans[] = {
    "frontend.parse",   "transforms.lower", "transforms.ssa",
    "transforms.cleanup", "typeinf",        "analysis.ranges",
    "analysis.alias",   "gctd.plan",        "verify",
    "verify.audit",     "transforms.invert", "codegen.cemit"};

void reportPerLayer(RunState &S, Metrics &Out) {
  std::map<std::string, double> Self = S.Tr.selfSeconds();
  for (const char *Span : StageSpans) {
    std::string Name = Span;
    // "typeinf" and "verify" name whole layers: "typeinf.ms", "verify.ms".
    std::string Metric = Name.find('.') == std::string::npos
                             ? Name + ".ms"
                             : Name + "_ms";
    double PerSweep =
        S.CompileSweeps ? Self[Name] * 1e3 / S.CompileSweeps : 0;
    Out.metric(Metric, PerSweep, "ms");
  }
  Samples Both = S.both();
  for (const BenchmarkProgram &B : benchmarkSuite())
    Out.metric("compile." + B.Name + "_ms",
               Both.classMedian("compile:" + B.Name), "ms");
  for (const char *Tier : {"vm", "native"})
    for (const BenchmarkProgram &B : benchmarkSuite())
      Out.metric(std::string(Tier) + "." + B.Name + "_ms",
                 S.Gauge[std::string(Tier) + "." + B.Name + "_ms"], "ms");

  Counts Sum;
  for (const auto &[Name, C] : S.CountsByProg) {
    if (Name.find('.') != std::string::npos)
      continue; // Suite programs only; large variants are extra.
    Sum.IrInstrs += C.IrInstrs;
    Sum.SymNodes += C.SymNodes;
    Sum.GctdEdges += C.GctdEdges;
    Sum.FrameBytes += C.FrameBytes;
    Sum.StackGroups += C.StackGroups;
    Sum.HeapGroups += C.HeapGroups;
    Sum.CBytes += C.CBytes;
  }
  Out.metric("ir.instrs", Sum.IrInstrs, "count");
  Out.metric("typeinf.sym_nodes", Sum.SymNodes, "count");
  Out.metric("gctd.edges", Sum.GctdEdges, "count");
  Out.metric("gctd.frame_bytes", Sum.FrameBytes, "B");
  Out.metric("gctd.groups.stack", Sum.StackGroups, "count");
  Out.metric("gctd.groups.heap", Sum.HeapGroups, "count");
  Out.metric("codegen.c_bytes", Sum.CBytes, "B");

  double Ops = 0, InPlace = 0, Steals = 0, Reuses = 0, Resizes = 0;
  for (const auto &[Name, X] : S.Ref.BaseRun) {
    Ops += X.Ops;
    InPlace += X.InPlaceOps + X.DestReuses;
    Steals += X.BufferSteals;
    Reuses += X.PoolReuses;
    Resizes += X.HeapResizes;
  }
  Out.metric("vm.ops", Ops, "count");
  Out.metric("vm.inplace_ops", InPlace, "count");
  Out.metric("runtime.buffer_steals", Steals, "count");
  Out.metric("runtime.pool_reuses", Reuses, "count");
  Out.metric("vm.heap_resizes", Resizes, "count");

  const std::pair<const char *, const char *> Gauges[] = {
      {"native.miss_ms", "ms"},
      {"native.hit_ratio", "ratio"},
      {"native.fallbacks", "count"},
      {"service.queue_ms_p50", "ms"},
      {"service.queue_ms_p95", "ms"},
      {"service.compile_ms_p50", "ms"},
      {"service.run_ms_p50", "ms"},
      {"service.cold_e2e_ms_p50", "ms"},
      {"service.warm_e2e_ms_p50", "ms"},
      {"service.backpressure", "count"},
      {"service.tier_degraded", "count"},
      {"daemon.threads_start", "count"},
      {"daemon.threads_end", "count"},
      {"daemon.threads_max", "count"},
      {"daemon.artifacts_mapped", "count"},
      {"daemon.rss_mb_start", "MiB"},
      {"daemon.rss_mb_end", "MiB"},
      {"native.cache_disk_bytes", "B"},
      {"compile_ms", "ms"},
      {"vm_run_ms", "ms"},
      {"native_run_ms", "ms"},
      {"req_per_s", "1/s"},
      {"e2e_ms_p50", "ms"},
      {"e2e_ms_p95", "ms"},
  };
  for (const auto &[Name, Unit] : Gauges)
    Out.metric(Name, S.Gauge[Name], Unit);

  Out.metric("fail_frac",
             S.T.Attempted ? static_cast<double>(S.T.Failed) / S.T.Attempted
                           : 1.0,
             "ratio");
  // Over the op classes measured both ways.
  std::vector<double> Ratio;
  for (const auto &[Class, V] : S.Traced.ByClass)
    if (S.Untraced.ByClass.count(Class))
      Ratio.push_back(median(V) / S.Untraced.classMedian(Class));
  Out.metric("trace.overhead_pct", Ratio.empty() ? 0 : (geomean(Ratio) - 1) * 100,
             "%");
  // The highest percentile with at least ten samples beyond it on every
  // workload, over the untraced ops.
  Out.metric("op_ms_p90", quantile(S.Untraced.All, 0.90), "ms");
}

void reportEndToEnd(RunState &S, Metrics &Out) {
  for (const auto &[Class, V] : S.Untraced.ByClass)
    std::fprintf(stderr,
                 "matbench: %-18s median %10.3f min %10.3f ms over %zu\n",
                 Class.c_str(), median(V),
                 *std::min_element(V.begin(), V.end()), V.size());
  Out.metric("setup_s", median(S.SetupSec), "s");
  std::fprintf(stderr, "matbench: as measured, geomean of class medians "
               "%.3f ms, p90 %.3f ms\n", S.Untraced.geomeanOf(),
               quantile(S.Untraced.All, 0.90));
  // Compiles run one at a time with nothing queued, so what moves one
  // between runs is the host: interference that only adds time, in
  // phases seconds long that shift a whole run's medians by 15% and more.
  // Each program's fastest compile is the steady estimate. Requests queue
  // behind each other and the wait is part of what a caller sees: serve
  // takes each class's median.
  std::vector<double> Typical;
  for (const auto &[Class, V] : S.Untraced.ByClass)
    Typical.push_back(S.Opt.Workload == "compile"
                          ? *std::min_element(V.begin(), V.end())
                          : median(V));
  Out.metric("op_ms_geomean", geomean(Typical), "ms");
  double AvgDyn = 0, PeakHeap = 0;
  for (const auto &[Name, X] : S.Ref.BaseRun) {
    AvgDyn += X.Mem.AvgDynamicBytes / 1024.0;
    PeakHeap += X.Mem.PeakHeapBytes / 1024.0;
  }
  Out.metric("avg_dynamic_kb", AvgDyn, "KiB");
  Out.metric("peak_heap_kb", PeakHeap, "KiB");
  Out.metric("peak_rss_mb", S.PeakRssMb, "MiB");
  Out.metric("success_frac",
             S.T.Attempted ? 1.0 - static_cast<double>(S.T.Failed) /
                                       S.T.Attempted
                           : 0.0,
             "ratio");
}

bool parseArgs(int Argc, char **Argv, Options &O) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string K = Argv[I], V = Argv[I + 1];
    if (K == "--workload")
      O.Workload = V;
    else if (K == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (K == "--seconds")
      O.Seconds = std::strtod(V.c_str(), nullptr);
    else if (K == "--trace")
      O.Trace = V == "1";
    else if (K == "--work-dir")
      O.WorkDir = V;
    else
      return false;
  }
  return (Argc % 2) == 1 && !O.WorkDir.empty() && O.Seconds > 0 &&
         (O.Workload == "compile" || O.Workload == "serve");
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  if (!parseArgs(Argc, Argv, O)) {
    std::fprintf(stderr,
                 "usage: matbench --workload compile|serve --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR\n");
    return 2;
  }
  std::filesystem::create_directories(O.WorkDir);
  SubprocessResult Cc = runSubprocess({"cc", "--version"}, 10000);
  std::string CcVersion =
      Cc.ok() ? Cc.Output.substr(0, Cc.Output.find('\n')) : "unknown";
  std::fprintf(stderr, "matbench: nproc=%u build=%s cc=%s\n", nproc(),
               MATBENCH_BUILD_TYPE, CcVersion.c_str());
  RunState S(O);
  try {
    if (O.Workload == "compile")
      runCompile(S);
    else
      runServe(S);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "matbench: %s\n", E.what());
    return 1;
  }
  Metrics Out;
  if (O.Trace) {
    reportPerLayer(S, Out);
    std::string Path = O.WorkDir + "/trace-" + O.Workload + "-" +
                       std::to_string(O.Seed) + ".json";
    std::ofstream(Path) << S.Tr.chromeJson();
    std::fprintf(stderr, "matbench: Chrome trace written to %s\n",
                 Path.c_str());
  } else {
    reportEndToEnd(S, Out);
  }
  JsonValue Result = JsonValue::object();
  Result.set("correct", JsonValue::boolean(S.T.Failed == 0));
  Result.set("attempted", JsonValue::number(static_cast<double>(
                              std::max<std::uint64_t>(S.T.Attempted, 1))));
  Result.set("failed", JsonValue::number(static_cast<double>(S.T.Failed)));
  Result.set("metrics", std::move(Out.Obj));
  std::printf("%s\n", Result.dump().c_str());
  return 0;
}
