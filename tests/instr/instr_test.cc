// Tests for the ATOM substitution: the runtime access filter and the static
// classifier over synthetic binary images (§5.1, Table 2).
#include <gtest/gtest.h>

#include "src/instr/access_filter.h"
#include "src/instr/binary_image.h"

namespace cvm {
namespace {

TEST(AccessFilterTest, ClassifiesSharedAndPrivate) {
  AccessFilter filter(1024, 8 * 1024);
  // Shared access, then its page/word decomposition.
  EXPECT_TRUE(filter.OnAccess(SharedVa(1024 + 8), /*is_write=*/false));
  auto r = filter.Locate(1024 + 8);
  EXPECT_EQ(r.page, 1);
  EXPECT_EQ(r.word, 2u);
  auto last = filter.Locate(3 * 1024 + 1020);
  EXPECT_EQ(last.page, 3);
  EXPECT_EQ(last.word, 255u);
  // Private heap access.
  EXPECT_FALSE(filter.OnAccess(kPrivateHeapBase + 128, /*is_write=*/true));
  // Past the end of the shared segment: private.
  EXPECT_FALSE(filter.OnAccess(SharedVa(8 * 1024), false));

  const AccessCounters& c = filter.counters();
  EXPECT_EQ(c.instrumented_calls, 3u);
  EXPECT_EQ(c.shared_accesses, 1u);
  EXPECT_EQ(c.private_accesses, 2u);
  EXPECT_EQ(c.shared_reads, 1u);
  EXPECT_EQ(c.shared_writes, 0u);
}

TEST(ClassifierTest, EliminationRulesMatchCategories) {
  InstructionMix mix;
  mix.stack = 100;
  mix.static_data = 200;
  mix.library = 300;
  mix.cvm = 50;
  mix.candidate = 40;
  const BinaryImage image = SynthesizeBinary("test", mix, 1);
  EXPECT_EQ(image.TotalLoadsStores(), 690u);

  const ClassifyResult result = StaticClassifier().Classify(image);
  EXPECT_EQ(result.stack, 100u);
  EXPECT_EQ(result.static_data, 200u);
  EXPECT_EQ(result.library, 300u);
  EXPECT_EQ(result.cvm, 50u);
  EXPECT_EQ(result.instrumented, 40u);
  EXPECT_EQ(result.Total(), 690u);
}

TEST(ClassifierTest, InBlockProvablyPrivateCandidatesAreEliminated) {
  InstructionMix mix;
  mix.candidate = 1000;
  mix.candidate_private_block = 0.5;
  const BinaryImage image = SynthesizeBinary("t", mix, 2);
  const ClassifyResult result = StaticClassifier().Classify(image);
  // ~half eliminated (deterministic given the seed).
  EXPECT_GT(result.static_data, 400u);
  EXPECT_LT(result.static_data, 600u);
  EXPECT_EQ(result.static_data + result.instrumented, 1000u);
}

TEST(ClassifierTest, InterproceduralAnalysisEliminatesMore) {
  // §6.5: inter-procedural def-use tracking resolves more candidates as
  // provably private, reducing "false" instrumentation.
  InstructionMix mix;
  mix.candidate = 1000;
  mix.candidate_private_block = 0.1;
  mix.candidate_private_interproc = 0.6;
  const BinaryImage image = SynthesizeBinary("t", mix, 3);
  const ClassifyResult base = StaticClassifier(/*interprocedural=*/false).Classify(image);
  const ClassifyResult ip = StaticClassifier(/*interprocedural=*/true).Classify(image);
  EXPECT_LT(ip.instrumented, base.instrumented);
  EXPECT_EQ(ip.Total(), base.Total());
}

TEST(ClassifierTest, PaperMixesEliminateOverNinetyNinePercent) {
  // §5.1's headline: over 99% of loads and stores are statically eliminated.
  const struct {
    const char* name;
    InstructionMix mix;
  } apps[] = {
      {"FFT", {1285, 1496, 124716, 3910, 261, 0.0, 0.6}},
      {"SOR", {342, 1304, 48717, 3910, 126, 0.0, 0.55}},
      {"TSP", {244, 1213, 48717, 3910, 350, 0.0, 0.68}},
      {"Water", {649, 1919, 124716, 3910, 528, 0.0, 0.62}},
  };
  for (const auto& app : apps) {
    const BinaryImage image = SynthesizeBinary(app.name, app.mix, 42);
    const ClassifyResult result = StaticClassifier().Classify(image);
    EXPECT_GT(result.EliminatedFraction(), 0.99) << app.name;
    EXPECT_EQ(result.instrumented, app.mix.candidate) << app.name;
  }
}

}  // namespace
}  // namespace cvm
