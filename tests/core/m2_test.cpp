#include "core/m2_vcg.hpp"

#include <gtest/gtest.h>

#include "core/properties.hpp"
#include "flow/solve_context.hpp"
#include "gen/game_gen.hpp"

namespace musketeer::core {
namespace {

// Buyer 1 on 0->1; two competing return paths exist, so removing the
// buyer changes nothing for others but removing an intermediary reroutes.
Game diamond_game() {
  Game game(4);
  game.add_edge(0, 1, 10, 0.0, 0.03);  // depleted, buyer 1
  game.add_edge(1, 2, 10, 0.0, 0.0);   // via 2
  game.add_edge(2, 0, 10, 0.0, 0.0);
  game.add_edge(1, 3, 10, 0.0, 0.0);   // via 3
  game.add_edge(3, 0, 10, 0.0, 0.0);
  return game;
}

TEST(M2Test, SingleBuyerWithNoCompetitionPaysZero) {
  // Removing the only buyer leaves zero welfare either way, so the VCG
  // externality is zero: the buyer rides free (the §4 seller-fee
  // limitation).
  const Game game = diamond_game();
  const M2Vcg m2;
  const std::vector<double> prices =
      m2.vcg_prices(game, game.truthful_bids());
  EXPECT_NEAR(prices[1], 0.0, 1e-9);
}

TEST(M2Test, CompetingBuyersPayTheirExternality) {
  // Two buyers compete for one unit of shared seller capacity.
  Game game(4);
  const double high = 0.04, low = 0.01;
  game.add_edge(2, 3, 5, 0.0, 0.0);    // shared seller edge
  game.add_edge(3, 0, 10, 0.0, high);  // buyer 0
  game.add_edge(0, 2, 10, 0.0, 0.0);
  game.add_edge(3, 1, 10, 0.0, low);   // buyer 1
  game.add_edge(1, 2, 10, 0.0, 0.0);
  const M2Vcg m2;
  const std::vector<double> prices =
      m2.vcg_prices(game, game.truthful_bids());
  // Winner (buyer 0) pays what the loser would have got: 5 * low.
  EXPECT_NEAR(prices[0], 5 * low, 1e-9);
  EXPECT_NEAR(prices[1], 0.0, 1e-9);
}

TEST(M2Test, TruthfulForBuyers) {
  Game game(4);
  game.add_edge(2, 3, 5, 0.0, 0.0);
  game.add_edge(3, 0, 10, 0.0, 0.04);
  game.add_edge(0, 2, 10, 0.0, 0.0);
  game.add_edge(3, 1, 10, 0.0, 0.01);
  game.add_edge(1, 2, 10, 0.0, 0.0);
  const M2Vcg m2;
  for (PlayerId buyer : {0, 1}) {
    const DeviationReport report = probe_truthfulness(
        m2, game, buyer, {0.0, 0.2, 0.5, 0.8, 1.2, 1.5, 2.0});
    EXPECT_LE(report.gain(), 1e-9) << "buyer " << buyer;
  }
}

TEST(M2Test, SellerTailBidsAreIgnored) {
  Game game(3);
  game.add_edge(0, 1, 10, 0.0, 0.03);
  game.add_edge(1, 2, 10, -0.09, 0.0);  // exorbitant seller demand
  game.add_edge(2, 0, 10, 0.0, 0.0);
  const Outcome outcome = M2Vcg().run_truthful(game);
  // M2 treats sellers as non-strategic: the cycle still runs.
  ASSERT_EQ(outcome.cycles.size(), 1u);
  EXPECT_EQ(outcome.cycles[0].cycle.amount, 10);
}

TEST(M2Test, CollectedFeesGoToSellers) {
  Game game(4);
  game.add_edge(2, 3, 5, 0.0, 0.0);
  game.add_edge(3, 0, 10, 0.0, 0.04);
  game.add_edge(0, 2, 10, 0.0, 0.0);
  game.add_edge(3, 1, 10, 0.0, 0.01);
  game.add_edge(1, 2, 10, 0.0, 0.0);
  const Outcome outcome = M2Vcg().run_truthful(game);
  ASSERT_EQ(outcome.cycles.size(), 1u);
  const PricedCycle& pc = outcome.cycles[0];
  EXPECT_NEAR(pc.budget_imbalance(), 0.0, 1e-9);
  EXPECT_GT(pc.price_of(0), 0.0);   // winning buyer pays
  EXPECT_LT(pc.price_of(2), 0.0);   // sellers receive
  EXPECT_LT(pc.price_of(3), 0.0);
}

TEST(M2Test, IndividualRationalityForBuyers) {
  Game game(4);
  game.add_edge(2, 3, 5, 0.0, 0.0);
  game.add_edge(3, 0, 10, 0.0, 0.04);
  game.add_edge(0, 2, 10, 0.0, 0.0);
  game.add_edge(3, 1, 10, 0.0, 0.01);
  game.add_edge(1, 2, 10, 0.0, 0.0);
  const Outcome outcome = M2Vcg().run_truthful(game);
  for (PlayerId v = 0; v < game.num_players(); ++v) {
    EXPECT_GE(outcome.player_utility(game, v), -1e-9) << "player " << v;
  }
}

TEST(M2Test, EfficiencyUnderReportedBids) {
  const Game game = diamond_game();
  const BidVector bids = game.truthful_bids();
  const Outcome outcome = M2Vcg().run(game, bids);
  const EfficiencyReport report = check_efficiency(game, bids, outcome);
  EXPECT_TRUE(report.certified_optimal);
  EXPECT_NEAR(report.outcome_welfare, report.optimal_welfare, 1e-9);
}

TEST(M2Test, PricesBitIdenticalThroughReusedContext) {
  // The workspace-reuse equivalence bar extends to prices: a context
  // that has been through many unrelated games must yield exactly the
  // doubles a fresh context does, masked exclusion solves included.
  util::Rng rng(0xBEEF);
  gen::GameConfig config;
  config.depleted_share = 0.35;
  const M2Vcg m2;
  flow::SolveContext warm;
  for (int round = 0; round < 10; ++round) {
    const core::Game game =
        gen::random_ba_game(12 + 3 * round, 2, config, rng);
    const core::BidVector bids = game.truthful_bids();
    const std::vector<double> reused = m2.vcg_prices(warm, game, bids);
    flow::SolveContext fresh;
    const std::vector<double> expected = m2.vcg_prices(fresh, game, bids);
    ASSERT_EQ(reused.size(), expected.size());
    for (std::size_t v = 0; v < expected.size(); ++v) {
      EXPECT_EQ(reused[v], expected[v]) << "round " << round << " player " << v;
    }
    // And the legacy (thread-local context) entry point agrees too.
    const std::vector<double> legacy = m2.vcg_prices(game, bids);
    EXPECT_EQ(legacy, expected) << "round " << round;
  }
}

TEST(M2Test, RunSolvesTheFullGraphOnce) {
  // One run = one bind and one full-graph solve; the exclusions re-solve
  // component copies and never touch the context's graph.
  util::Rng rng(0xF00D);
  gen::GameConfig config;
  config.depleted_share = 0.35;
  const Game game = gen::random_ba_game(30, 2, config, rng);
  const M2Vcg m2;
  flow::SolveContext ctx;
  const Outcome cold = m2.run_truthful(ctx, game);  // structure build
  const flow::ContextStats before = ctx.stats();
  const Outcome warm = m2.run_truthful(ctx, game);
  EXPECT_EQ(ctx.stats().solves - before.solves, 1);
  EXPECT_EQ(ctx.stats().rebinds - before.rebinds, 1);
  EXPECT_EQ(ctx.stats().structure_builds, before.structure_builds);
  EXPECT_EQ(warm.circulation, cold.circulation);
  ASSERT_EQ(warm.cycles.size(), cold.cycles.size());
  for (std::size_t i = 0; i < warm.cycles.size(); ++i) {
    EXPECT_EQ(warm.cycles[i].cycle.edges, cold.cycles[i].cycle.edges);
    ASSERT_EQ(warm.cycles[i].prices.size(), cold.cycles[i].prices.size());
    for (std::size_t j = 0; j < warm.cycles[i].prices.size(); ++j) {
      EXPECT_EQ(warm.cycles[i].prices[j].price, cold.cycles[i].prices[j].price);
    }
  }
}

}  // namespace
}  // namespace musketeer::core
