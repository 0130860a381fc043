//===- Replay.h - compileSource, stage by stage, under spans ----*- C++ -*-===//
//
// Part of matbench, the matcoal benchmark.
//
//===----------------------------------------------------------------------===//

#ifndef MATBENCH_REPLAY_H
#define MATBENCH_REPLAY_H

#include "Support.h"

#include "driver/Compiler.h"

#include <memory>
#include <string>

namespace matbench {

/// What one compile produced, plus the exact counts the benchmark
/// reports per program. The counts come from the traced replay only.
struct CompileOut {
  std::unique_ptr<matcoal::CompiledProgram> P;
  std::string Plans; ///< Every function's printed GCTD plan.
  std::string C;     ///< emitModuleC's translation unit.
  std::int64_t IrInstrs = 0, SymNodes = 0, GctdEdges = 0;
  std::int64_t FrameBytes = 0, StackGroups = 0, HeapGroups = 0;
};

/// The user-facing compile: compileSource then emitModuleC, untraced.
CompileOut compileOnce(const std::string &Source, int Threads);

/// The same pipeline, with each stage called by hand inside a span named
/// after its layer (frontend.parse, transforms.ssa, typeinf, ...). It
/// mirrors compileSource's verified, range-analysed path and fails (P is
/// null) wherever compileSource would degrade; the caller checks that
/// Plans and C match compileOnce byte for byte.
CompileOut replayCompile(const std::string &Source, int Threads, Tracer &T);

/// The printed GCTD plans of every function of \p P, in module order.
std::string planText(const matcoal::CompiledProgram &P);

} // namespace matbench

#endif // MATBENCH_REPLAY_H
