//===- Replay.cpp ---------------------------------------------------------===//
//
// The stage sequence below follows compileSource (src/driver/Compiler.cpp)
// on its default options: verifier on, range analysis on, no lint, no
// fault injection. Every degradation branch there is a failure here.
//
//===----------------------------------------------------------------------===//

#include "Replay.h"

#include "codegen/CEmitter.h"
#include "frontend/Parser.h"
#include "transforms/Lowering.h"
#include "transforms/Passes.h"
#include "transforms/SSA.h"
#include "verify/PlanAudit.h"
#include "verify/Verifier.h"

using namespace matcoal;
using namespace matbench;

std::string matbench::planText(const CompiledProgram &P) {
  std::string Out;
  if (!P.M)
    return Out;
  for (const auto &F : P.M->Functions)
    Out += P.planOf(*F).str(*F);
  return Out;
}

static std::string emitC(const CompiledProgram &P) {
  return emitModuleC(P.module(), P.GCTDPlans, P.types(), P.ranges(), nullptr,
                     CEmitOptions(), P.legality());
}

CompileOut matbench::compileOnce(const std::string &Source, int Threads) {
  CompileOut Out;
  Diagnostics D;
  CompileOptions O;
  O.Threads = Threads;
  Out.P = compileSource(Source, D, O);
  if (!Out.P || Out.P->level() != DegradeLevel::Full) {
    Out.P.reset();
    return Out;
  }
  Out.Plans = planText(*Out.P);
  Out.C = emitC(*Out.P);
  return Out;
}

CompileOut matbench::replayCompile(const std::string &Source, int Threads,
                                   Tracer &T) {
  CompileOut Out;
  Diagnostics D;
  auto P = std::make_unique<CompiledProgram>();
  P->Entry = "main";
  P->Threads = resolveThreads(Threads);

  {
    auto S = T.span("frontend.parse");
    P->Ast = parseProgram(Source, D);
  }
  if (!P->Ast || !P->Ast->findFunction(P->Entry))
    return Out;
  {
    auto S = T.span("transforms.lower");
    P->M = lowerProgram(*P->Ast, D);
  }
  if (!P->M)
    return Out;
  {
    auto S = T.span("transforms.ssa");
    for (auto &F : P->M->Functions)
      if (!buildSSA(*F, D))
        return Out;
  }
  {
    auto S = T.span("transforms.cleanup");
    for (auto &F : P->M->Functions) {
      runCleanupPipeline(*F);
      auto V = T.span("verify");
      VerifierReport R;
      if (!verifyCFG(*F, R) || !verifySSA(*F, R))
        return Out;
    }
  }
  for (const auto &F : P->M->Functions)
    for (const auto &BB : F->Blocks)
      Out.IrInstrs += static_cast<std::int64_t>(BB->Instrs.size());

  P->Ctx = std::make_unique<SymExprContext>();
  P->TI = std::make_unique<TypeInference>(*P->M, *P->Ctx, D);
  {
    auto S = T.span("typeinf");
    P->TI->run(P->Entry);
  }
  Out.SymNodes = P->Ctx->numNodes();
  {
    auto S = T.span("verify");
    VerifierReport R;
    for (auto &F : P->M->Functions)
      verifyTypes(*F, *P->TI, R);
    if (!R.ok())
      return Out;
  }
  try {
    {
      auto S = T.span("analysis.ranges");
      P->RA = std::make_unique<RangeAnalysis>(*P->M, *P->TI, P->Entry);
    }
    {
      auto S = T.span("analysis.alias");
      P->AA = std::make_unique<AliasAnalysis>(*P->M, *P->TI, P->Entry);
      P->Legal = std::make_unique<InPlaceLegality>(*P->TI, P->RA.get(),
                                                   P->AA.get());
    }
    // The verifier's own, independently constructed range analysis.
    std::unique_ptr<RangeAnalysis> VerifyRA;
    {
      auto S = T.span("analysis.ranges");
      VerifyRA = std::make_unique<RangeAnalysis>(*P->M, *P->TI, P->Entry);
    }
    for (auto &F : P->M->Functions) {
      StoragePlan Plan, Identity;
      {
        auto S = T.span("gctd.plan");
        Identity = makeIdentityPlan(*F, *P->TI);
        InterferenceGraph IG(*F, *P->TI, /*Coalesce=*/true,
                             ColoringStrategy::Affinity, P->RA.get());
        Plan = decomposeColorClasses(*F, IG, *P->TI, P->RA.get());
        Out.GctdEdges += IG.numEdges();
        for (unsigned U = 0; U < F->numVars(); ++U)
          for (unsigned V = U + 1; V < F->numVars(); ++V)
            if (IG.participates(U) && IG.participates(V) &&
                IG.interferes(U, V) && Plan.sameSlot(U, V))
              return Out;
      }
      {
        auto S = T.span("verify");
        VerifierReport R;
        if (!verifyStoragePlan(*F, *P->TI, Plan, R, VerifyRA.get()))
          return Out;
      }
      {
        auto S = T.span("verify.audit");
        if (!auditStoragePlan(*F, Plan, *P->TI, P->RA.get(), P->AA.get())
                 .empty())
          return Out;
      }
      Out.FrameBytes += Plan.FrameBytes;
      for (const StorageGroup &G : Plan.Groups)
        ++(G.K == StorageGroup::Kind::Stack ? Out.StackGroups
                                            : Out.HeapGroups);
      P->GCTDPlans.emplace(F.get(), std::move(Plan));
      P->IdentityPlans.emplace(F.get(), std::move(Identity));
    }
  } catch (const std::exception &) {
    return Out;
  }
  {
    auto S = T.span("transforms.invert");
    for (auto &F : P->M->Functions) {
      invertSSA(*F);
      F->recomputePreds();
      {
        auto V = T.span("verify");
        VerifierReport R;
        if (!verifyCFG(*F, R))
          return Out;
      }
      P->AA->refresh(*F);
      P->Legal->refresh(*F);
    }
  }
  Out.Plans = planText(*P);
  {
    auto S = T.span("codegen.cemit");
    Out.C = emitC(*P);
  }
  Out.P = std::move(P);
  return Out;
}
