// Bytecode/VM tests: every operator and control-flow construct of EaseC, evaluated by
// compiling a tiny program and executing it on a never-failing device, plus VM-level
// edge cases (division by zero, deep nesting, repeat-loop counters).

#include <gtest/gtest.h>

#include <ostream>

#include "apps/runtime_factory.h"
#include "easec/program.h"
#include "kernel/engine.h"
#include "sim/failure.h"

namespace easeio::easec {
namespace {

// Compiles `task main_task() { out = <expr-or-stmts>; end_task; }` and returns the
// final value of __nv out.
int16_t EvalProgram(const std::string& body) {
  const std::string source = "__nv int16 out;\n__nv int16 aux[4];\ntask main_task() {\n" +
                             body + "\nend_task;\n}\n";
  const CompileResult compiled = Compile(source);
  EXPECT_TRUE(compiled.ok) << compiled.errors << "\nsource:\n" << source;
  if (!compiled.ok) {
    return -32768;
  }

  sim::NeverFailScheduler never;
  sim::DeviceConfig config;
  config.seed = 1;
  sim::Device dev(config, never);
  kernel::NvManager nv(dev.mem());
  auto rt = apps::MakeRuntime(apps::RuntimeKind::kEaseio);
  rt->Bind(dev, nv);
  InstantiatedProgram prog = Instantiate(compiled, dev, *rt, nv);
  kernel::Engine engine;
  const kernel::RunResult r = engine.Run(dev, *rt, nv, prog.graph, prog.entry);
  EXPECT_TRUE(r.completed);
  return dev.mem().ReadI16(nv.slot(prog.nv_slots[0]).addr);
}

struct ExprCase {
  const char* expr;
  int16_t expect;
};

// Without this gtest prints the raw struct bytes, a string-literal address that
// changes with every process's address layout, into each test's name.
void PrintTo(const ExprCase& c, std::ostream* os) { *os << c.expr << " => " << c.expect; }

class ExprEval : public ::testing::TestWithParam<ExprCase> {};

TEST_P(ExprEval, EvaluatesLikeC) {
  const ExprCase& c = GetParam();
  EXPECT_EQ(EvalProgram(std::string("out = ") + c.expr + ";"), c.expect) << c.expr;
}

INSTANTIATE_TEST_SUITE_P(
    Operators, ExprEval,
    ::testing::Values(ExprCase{"1 + 2", 3}, ExprCase{"7 - 10", -3}, ExprCase{"6 * 7", 42},
                      ExprCase{"17 / 5", 3}, ExprCase{"17 % 5", 2}, ExprCase{"9 / 0", 0},
                      ExprCase{"9 % 0", 0}, ExprCase{"-(5)", -5}, ExprCase{"!0", 1},
                      ExprCase{"!7", 0}, ExprCase{"3 == 3", 1}, ExprCase{"3 != 3", 0},
                      ExprCase{"2 < 3", 1}, ExprCase{"3 < 2", 0}, ExprCase{"2 <= 2", 1},
                      ExprCase{"4 > 1", 1}, ExprCase{"4 >= 5", 0},
                      ExprCase{"1 && 2", 1}, ExprCase{"1 && 0", 0}, ExprCase{"0 || 3", 1},
                      ExprCase{"0 || 0", 0}, ExprCase{"2 + 3 * 4", 14},
                      ExprCase{"(2 + 3) * 4", 20}, ExprCase{"10 - 2 - 3", 5},
                      ExprCase{"1 + 2 == 3 && 4 > 2", 1}, ExprCase{"0x1F", 31}),
    [](const auto& info) { return "case" + std::to_string(info.index); });

TEST(VmControlFlow, IfElseTakesTheRightBranch) {
  EXPECT_EQ(EvalProgram("int16 x = 5; if (x > 3) { out = 1; } else { out = 2; }"), 1);
  EXPECT_EQ(EvalProgram("int16 x = 2; if (x > 3) { out = 1; } else { out = 2; }"), 2);
  EXPECT_EQ(EvalProgram("int16 x = 2; if (x > 3) { out = 1; }"), 0);
}

TEST(VmControlFlow, WhileLoopAccumulates) {
  EXPECT_EQ(EvalProgram("int16 i = 0; int16 s = 0;"
                        "while (i < 10) { s = s + i; i = i + 1; } out = s;"),
            45);
}

TEST(VmControlFlow, NestedLoops) {
  // The inner declaration's initialiser re-runs on every outer iteration.
  EXPECT_EQ(EvalProgram("int16 i = 0; int16 s = 0;"
                        "while (i < 3) { int16 j = 0;"
                        "  while (j < 4) { s = s + 1; j = j + 1; }"
                        "  i = i + 1; } out = s;"),
            12);
}

TEST(VmControlFlow, RepeatRunsExactlyNTimes) {
  EXPECT_EQ(EvalProgram("int16 s = 0; repeat (7) { s = s + 2; } out = s;"), 14);
}

TEST(VmControlFlow, NamedRepeatCounterIsVisible) {
  EXPECT_EQ(EvalProgram("int16 s = 0; repeat (i, 5) { s = s + i; } out = s;"), 10);
  EXPECT_EQ(EvalProgram("repeat (i, 4) { aux[i] = i * 2; } out = aux[3];"), 6);
}

TEST(VmControlFlow, NamedRepeatCounterLanesTrackIterations) {
  // Each iteration's _call_IO uses the counter as its lane: a Single call inside a
  // named repeat runs once per lane, never more.
  const std::string source = R"(
__nv int16 count;
task main_task() {
  repeat (i, 6) {
    int16 v = _call_IO(Temp(), "Always");
    count = count + 1;
  }
  end_task;
}
)";
  const CompileResult compiled = Compile(source);
  ASSERT_TRUE(compiled.ok) << compiled.errors;
  EXPECT_EQ(compiled.analysis.sites[0].lanes, 6u);
}

TEST(VmArrays, IndexedReadsAndWrites) {
  EXPECT_EQ(EvalProgram("aux[0] = 10; aux[1] = 20; aux[2] = aux[0] + aux[1];"
                        "out = aux[2] + aux[3];"),
            30);
}

TEST(VmArrays, DynamicSubscripts) {
  EXPECT_EQ(EvalProgram("int16 i = 0; while (i < 4) { aux[i] = i * i; i = i + 1; }"
                        "out = aux[3] + aux[2];"),
            13);
}

TEST(VmBuiltins, GetTimeIsMonotonic) {
  EXPECT_EQ(EvalProgram("int16 t0 = GetTime(); delay(5000); int16 t1 = GetTime();"
                        "out = t1 >= t0;"),
            1);
}

TEST(VmCharges, EveryInstructionCostsSimTime) {
  const std::string source =
      "__nv int16 out;\ntask main_task() { int16 i = 0;"
      "while (i < 100) { i = i + 1; } out = i; end_task; }\n";
  const CompileResult compiled = Compile(source);
  ASSERT_TRUE(compiled.ok);
  sim::NeverFailScheduler never;
  sim::DeviceConfig config;
  sim::Device dev(config, never);
  kernel::NvManager nv(dev.mem());
  auto rt = apps::MakeRuntime(apps::RuntimeKind::kEaseio);
  rt->Bind(dev, nv);
  InstantiatedProgram prog = Instantiate(compiled, dev, *rt, nv);
  kernel::Engine engine;
  engine.Run(dev, *rt, nv, prog.graph, prog.entry);
  // 100 iterations x ~8 instructions each: at least several hundred charged cycles.
  EXPECT_GT(dev.clock().on_us(), 600u);
}

TEST(VmTasks, MultiTaskChainsExecuteInOrder) {
  const std::string source = R"(
__nv int16 trace;
task a() { trace = trace * 10 + 1; next_task(b); }
task b() { trace = trace * 10 + 2; next_task(c); }
task c() { trace = trace * 10 + 3; end_task; }
)";
  const CompileResult compiled = Compile(source);
  ASSERT_TRUE(compiled.ok) << compiled.errors;
  sim::NeverFailScheduler never;
  sim::DeviceConfig config;
  sim::Device dev(config, never);
  kernel::NvManager nv(dev.mem());
  auto rt = apps::MakeRuntime(apps::RuntimeKind::kAlpaca);
  rt->Bind(dev, nv);
  InstantiatedProgram prog = Instantiate(compiled, dev, *rt, nv);
  kernel::Engine engine;
  ASSERT_TRUE(engine.Run(dev, *rt, nv, prog.graph, prog.entry).completed);
  EXPECT_EQ(dev.mem().ReadI16(nv.slot(prog.nv_slots[0]).addr), 123);
}

TEST(VmTasks, FallingOffTheEndEndsTheProgram) {
  // A body with no end_task/next_task terminates (implicit kEndTask).
  EXPECT_EQ(EvalProgram("out = 5;"), 5);
}

}  // namespace
}  // namespace easeio::easec
