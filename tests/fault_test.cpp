// Unit tests for the fault-injection subsystem: plan validation, the JSON
// spec, runtime window toggles, simulator arming, the RRC legality table
// and the invariant checker's own verdicts. (The cross-stack behaviour of
// the injectors lives in chaos_test.cpp, the chaos tier.)
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "energy/rrc_power_machine.h"
#include "fault/fault.h"
#include "fault/invariants.h"
#include "net/link.h"
#include "net/packet.h"
#include "ran/rrc.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace fiveg::fault {
namespace {

using sim::from_millis;
using sim::kSecond;

TEST(FaultKindTest, Names) {
  EXPECT_EQ(to_string(FaultKind::kSectorOutage), "sector_outage");
  EXPECT_EQ(to_string(FaultKind::kLinkLoss), "link_loss");
  EXPECT_EQ(to_string(FaultKind::kLinkDelay), "link_delay");
  EXPECT_EQ(to_string(FaultKind::kServerStall), "server_stall");
  EXPECT_EQ(to_string(FaultKind::kCoverageHole), "coverage_hole");
}

FaultSpec loss_spec(sim::Time begin, sim::Time end, double loss,
                    std::string link = {}) {
  FaultSpec s;
  s.kind = FaultKind::kLinkLoss;
  s.begin = begin;
  s.end = end;
  s.loss = loss;
  s.link = std::move(link);
  return s;
}

TEST(FaultPlanTest, AddValidatesWindows) {
  FaultPlan plan;
  plan.add(loss_spec(0, kSecond, 0.5));
  EXPECT_FALSE(plan.empty());
  EXPECT_TRUE(plan.has_kind(FaultKind::kLinkLoss));
  EXPECT_FALSE(plan.has_kind(FaultKind::kServerStall));

  // Empty or inverted windows are rejected.
  EXPECT_THROW(plan.add(loss_spec(kSecond, kSecond, 0.5)),
               std::invalid_argument);
  EXPECT_THROW(plan.add(loss_spec(2 * kSecond, kSecond, 0.5)),
               std::invalid_argument);
  EXPECT_THROW(plan.add(loss_spec(-kSecond, kSecond, 0.5)),
               std::invalid_argument);
  // Loss outside (0, 1].
  EXPECT_THROW(plan.add(loss_spec(0, kSecond, 0.0)), std::invalid_argument);
  EXPECT_THROW(plan.add(loss_spec(0, kSecond, 1.5)), std::invalid_argument);

  FaultSpec outage;
  outage.kind = FaultKind::kSectorOutage;
  outage.begin = 0;
  outage.end = kSecond;
  EXPECT_THROW(plan.add(outage), std::invalid_argument);  // pci missing
  outage.pci = 60;
  plan.add(outage);

  FaultSpec delay;
  delay.kind = FaultKind::kLinkDelay;
  delay.begin = 0;
  delay.end = kSecond;
  EXPECT_THROW(plan.add(delay), std::invalid_argument);  // no extra delay
  delay.extra_delay = from_millis(40);
  plan.add(delay);

  FaultSpec hole;
  hole.kind = FaultKind::kCoverageHole;
  hole.begin = 0;
  hole.end = kSecond;
  EXPECT_THROW(plan.add(hole), std::invalid_argument);  // no offset
  hole.offset_db = 30.0;
  plan.add(hole);

  EXPECT_EQ(plan.specs().size(), 4u);
}

constexpr const char* kFullPlanJson = R"({
  "schema": "fiveg-faults/v1",
  "faults": [
    {"kind": "sector_outage", "begin_s": 30, "end_s": 60, "pci": 62},
    {"kind": "link_loss", "begin_s": 5, "end_s": 8, "link": "wired",
     "loss": 0.3},
    {"kind": "link_delay", "begin_s": 10, "end_s": 12, "extra_delay_ms": 40},
    {"kind": "server_stall", "begin_s": 14, "end_s": 15},
    {"kind": "coverage_hole", "begin_s": 20, "end_s": 40, "offset_db": 30}
  ]
})";

TEST(FaultPlanTest, ParsesTheFullJsonCatalogue) {
  const FaultPlan plan = FaultPlan::parse_json(kFullPlanJson);
  ASSERT_EQ(plan.specs().size(), 5u);
  for (const FaultKind k :
       {FaultKind::kSectorOutage, FaultKind::kLinkLoss, FaultKind::kLinkDelay,
        FaultKind::kServerStall, FaultKind::kCoverageHole}) {
    EXPECT_TRUE(plan.has_kind(k)) << to_string(k);
  }
  const FaultSpec& outage = plan.specs()[0];
  EXPECT_EQ(outage.begin, 30 * kSecond);
  EXPECT_EQ(outage.end, 60 * kSecond);
  EXPECT_EQ(outage.pci, 62);
  const FaultSpec& loss = plan.specs()[1];
  EXPECT_EQ(loss.link, "wired");
  EXPECT_DOUBLE_EQ(loss.loss, 0.3);
  const FaultSpec& delay = plan.specs()[2];
  EXPECT_EQ(delay.extra_delay, from_millis(40));
  EXPECT_TRUE(delay.link.empty());  // empty matches every link
  const FaultSpec& hole = plan.specs()[4];
  EXPECT_DOUBLE_EQ(hole.offset_db, 30.0);
}

TEST(FaultPlanTest, ParseRejectsMalformedDocuments) {
  EXPECT_THROW(FaultPlan::parse_json("not json"), std::runtime_error);
  EXPECT_THROW(FaultPlan::parse_json(R"({"schema": "wrong", "faults": []})"),
               std::runtime_error);
  EXPECT_THROW(FaultPlan::parse_json(R"({"schema": "fiveg-faults/v1"})"),
               std::runtime_error);
  EXPECT_THROW(
      FaultPlan::parse_json(
          R"({"schema": "fiveg-faults/v1",
              "faults": [{"kind": "meteor_strike",
                          "begin_s": 0, "end_s": 1}]})"),
      std::runtime_error);
  // Per-kind validation errors surface through parse as well.
  EXPECT_THROW(
      FaultPlan::parse_json(
          R"({"schema": "fiveg-faults/v1",
              "faults": [{"kind": "link_loss",
                          "begin_s": 2, "end_s": 1, "loss": 0.5}]})"),
      std::runtime_error);
}

// Numbers that do not fit their field are rejected with the parser's
// error, never converted (a float-to-int cast out of range is undefined
// behaviour) and never rounded (pci 60.5 is not cell 60).
TEST(FaultPlanTest, ParseRejectsNumbersThatDoNotFit) {
  const auto plan_with = [](const std::string& fault) {
    return R"({"schema": "fiveg-faults/v1", "faults": [)" + fault + "]}";
  };
  for (const std::string fault : {
           R"({"kind": "server_stall", "begin_s": 0, "end_s": 1e300})",
           R"({"kind": "server_stall", "begin_s": -1e300, "end_s": 1})",
           R"({"kind": "server_stall", "begin_s": 0, "end_s": 1e400})",
           R"({"kind": "sector_outage", "begin_s": 0, "end_s": 1,
               "pci": 1e20})",
           R"({"kind": "sector_outage", "begin_s": 0, "end_s": 1,
               "pci": 60.5})",
           R"({"kind": "link_delay", "begin_s": 0, "end_s": 1,
               "extra_delay_ms": 1e300})",
           R"({"kind": "link_loss", "begin_s": 0, "end_s": 1,
               "loss": 1e400})",
       }) {
    try {
      (void)FaultPlan::parse_json(plan_with(fault));
      ADD_FAILURE() << "accepted " << fault;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()).rfind("fault plan: ", 0), 0u)
          << e.what();
    }
  }
  // The largest values that do fit still parse.
  const FaultPlan ok = FaultPlan::parse_json(plan_with(
      R"({"kind": "sector_outage", "begin_s": 0, "end_s": 9e9,
          "pci": 2147483647})"));
  EXPECT_EQ(ok.specs().front().pci, 2147483647);
  EXPECT_EQ(ok.specs().front().end, sim::from_seconds(9e9));
}

TEST(FaultPlanTest, LoadMissingFileThrows) {
  EXPECT_THROW(FaultPlan::load("/nonexistent/faults.json"),
               std::runtime_error);
}

TEST(RuntimeTest, TogglesMaintainAggregates) {
  FaultPlan plan;
  FaultSpec outage;
  outage.kind = FaultKind::kSectorOutage;
  outage.begin = 0;
  outage.end = kSecond;
  outage.pci = 62;
  plan.add(outage);
  plan.add(loss_spec(0, kSecond, 0.5, "ran"));
  plan.add(loss_spec(0, kSecond, 0.5));
  FaultSpec delay;
  delay.kind = FaultKind::kLinkDelay;
  delay.begin = 0;
  delay.end = kSecond;
  delay.extra_delay = from_millis(40);
  delay.link = "wired";
  plan.add(delay);
  FaultSpec stall;
  stall.kind = FaultKind::kServerStall;
  stall.begin = 0;
  stall.end = kSecond;
  plan.add(stall);
  FaultSpec hole;
  hole.kind = FaultKind::kCoverageHole;
  hole.begin = 0;
  hole.end = kSecond;
  hole.offset_db = 30.0;
  plan.add(hole);

  Runtime rt(&plan, 7);
  // Everything starts inactive.
  EXPECT_FALSE(rt.cell_down(62));
  EXPECT_DOUBLE_EQ(rt.link_loss("ran-nr"), 0.0);
  EXPECT_EQ(rt.link_extra_delay("wired-3"), 0);
  EXPECT_FALSE(rt.server_stalled());
  EXPECT_DOUBLE_EQ(rt.coverage_offset_db(), 0.0);

  for (std::size_t i = 0; i < plan.specs().size(); ++i) rt.set_active(i, true);
  EXPECT_TRUE(rt.cell_down(62));
  EXPECT_FALSE(rt.cell_down(63));
  // Both loss windows match "ran-nr" (substring + match-all): independent
  // drops combine as 1 - (1-p)(1-q).
  EXPECT_DOUBLE_EQ(rt.link_loss("ran-nr"), 1.0 - 0.5 * 0.5);
  // Only the match-all window covers "wired-3".
  EXPECT_DOUBLE_EQ(rt.link_loss("wired-3"), 0.5);
  EXPECT_EQ(rt.link_extra_delay("wired-3"), from_millis(40));
  EXPECT_EQ(rt.link_extra_delay("ran-nr"), 0);
  EXPECT_TRUE(rt.server_stalled());
  EXPECT_DOUBLE_EQ(rt.coverage_offset_db(), 30.0);

  rt.deactivate_all();
  EXPECT_FALSE(rt.cell_down(62));
  EXPECT_DOUBLE_EQ(rt.link_loss("ran-nr"), 0.0);
  EXPECT_EQ(rt.link_extra_delay("wired-3"), 0);
  EXPECT_FALSE(rt.server_stalled());
  EXPECT_DOUBLE_EQ(rt.coverage_offset_db(), 0.0);
}

TEST(ScopedFaultsTest, InstallsAndRestores) {
  EXPECT_EQ(runtime(), nullptr);
  FaultPlan plan;
  plan.add(loss_spec(0, kSecond, 0.5));
  Runtime rt(&plan, 1);
  {
    ScopedFaults scope(&rt);
    EXPECT_EQ(runtime(), &rt);
    {
      Runtime inner(&plan, 2);
      ScopedFaults nested(&inner);
      EXPECT_EQ(runtime(), &inner);
    }
    EXPECT_EQ(runtime(), &rt);
  }
  EXPECT_EQ(runtime(), nullptr);
}

TEST(ArmTest, TogglesWindowsAtScheduledTimes) {
  FaultPlan plan;
  plan.add(loss_spec(kSecond, 3 * kSecond, 0.5));
  Runtime rt(&plan, 1);
  ScopedFaults scope(&rt);
  sim::Simulator simr;  // arms the plan at construction
  bool before = true, during = false, after = true;
  simr.schedule_at(from_millis(500), [&] { before = rt.active(0); });
  simr.schedule_at(2 * kSecond, [&] { during = rt.active(0); });
  simr.schedule_at(4 * kSecond, [&] { after = rt.active(0); });
  simr.run();
  EXPECT_FALSE(before);
  EXPECT_TRUE(during);
  EXPECT_FALSE(after);
}

TEST(ArmTest, FreshSimulatorResetsHalfOpenWindows) {
  FaultPlan plan;
  plan.add(loss_spec(kSecond, 100 * kSecond, 0.5));
  Runtime rt(&plan, 1);
  ScopedFaults scope(&rt);
  {
    sim::Simulator simr;
    simr.run_until(2 * kSecond);  // begin fired, end never will
    EXPECT_TRUE(rt.active(0));
  }
  // The next timeline must not inherit the half-open window.
  sim::Simulator simr2;
  bool at_start = true;
  simr2.schedule_at(from_millis(1), [&] { at_start = rt.active(0); });
  simr2.run_until(from_millis(10));
  EXPECT_FALSE(at_start);
}

TEST(ArmTest, InertWithoutRuntime) {
  ASSERT_EQ(runtime(), nullptr);
  sim::Simulator simr;  // must not schedule anything
  simr.run();
  EXPECT_EQ(simr.now(), 0);
}

TEST(RrcLegalityTest, TransitionTable) {
  using ran::RrcState;
  const auto legal = ran::rrc_transition_legal;
  // Self-loops are legal everywhere.
  for (const RrcState s : {RrcState::kIdle, RrcState::kConnectedLte,
                           RrcState::kConnectedNr, RrcState::kInactive}) {
    EXPECT_TRUE(legal(s, s));
  }
  EXPECT_TRUE(legal(RrcState::kIdle, RrcState::kConnectedLte));
  EXPECT_TRUE(legal(RrcState::kConnectedLte, RrcState::kConnectedNr));
  EXPECT_TRUE(legal(RrcState::kConnectedNr, RrcState::kConnectedLte));
  EXPECT_TRUE(legal(RrcState::kConnectedLte, RrcState::kIdle));
  EXPECT_TRUE(legal(RrcState::kConnectedNr, RrcState::kIdle));
  EXPECT_TRUE(legal(RrcState::kConnectedLte, RrcState::kInactive));
  EXPECT_TRUE(legal(RrcState::kInactive, RrcState::kConnectedLte));
  EXPECT_TRUE(legal(RrcState::kInactive, RrcState::kIdle));
  // NSA: the NR leg always rides on an LTE anchor — no direct entry.
  EXPECT_FALSE(legal(RrcState::kIdle, RrcState::kConnectedNr));
  EXPECT_FALSE(legal(RrcState::kInactive, RrcState::kConnectedNr));
}

TEST(RrcLegalityTest, ReestablishTimersBound) {
  EXPECT_EQ(ran::kReestablishBound,
            ran::kRlfDetection + ran::kReestablishProcedure);
  EXPECT_GT(ran::kReestablishBound, 0);
}

TEST(InvariantCheckerTest, CleanLinkPasses) {
  sim::Simulator simr;
  net::Link::Config cfg;
  cfg.rate_bps = 12e6;
  cfg.queue_bytes = 3000;  // force queue drops too
  net::CountingSink sink;
  net::Link link(&simr, cfg, &sink);
  for (int i = 0; i < 10; ++i) {
    net::Packet p;
    p.flow_id = 1;
    p.seq = i;
    p.size_bytes = 1500;
    link.send(p);
  }
  simr.run();
  EXPECT_EQ(link.offered_packets(), 10u);
  EXPECT_EQ(link.fault_dropped_packets(), 0u);  // no runtime installed
  InvariantChecker checker;
  checker.check_link_conservation(link);
  EXPECT_TRUE(checker.ok()) << checker.report();
  EXPECT_GT(checker.checks_run(), 0u);
}

TEST(InvariantCheckerTest, RrcViolationsAreReported) {
  using ran::RrcState;
  InvariantChecker checker;
  checker.check_rrc_legality({{0, RrcState::kIdle},
                              {kSecond, RrcState::kConnectedNr}});
  EXPECT_FALSE(checker.ok());
  ASSERT_EQ(checker.violations().size(), 1u);
  EXPECT_NE(checker.report().find("illegal transition"), std::string::npos);

  InvariantChecker backwards;
  backwards.check_rrc_legality({{kSecond, RrcState::kIdle},
                                {0, RrcState::kConnectedLte}});
  EXPECT_FALSE(backwards.ok());

  InvariantChecker empty;
  empty.check_rrc_legality({});
  EXPECT_FALSE(empty.ok());
}

TEST(InvariantCheckerTest, EnergyViolationsAreReported) {
  const energy::RrcPowerMachine machine;
  const energy::EnergyResult good =
      machine.replay(energy::web_browsing_trace(sim::Rng(1)),
                     energy::RadioModel::kNrNsa);
  InvariantChecker checker;
  checker.check_energy(good);
  EXPECT_TRUE(checker.ok()) << checker.report();

  energy::EnergyResult bad = good;
  bad.radio_joules = -1.0;
  bad.residency_idle = 0;
  bad.residency_promoting = 0;
  bad.residency_connected = 0;
  InvariantChecker broken;
  broken.check_energy(bad);
  EXPECT_FALSE(broken.ok());
  EXPECT_GE(broken.violations().size(), 2u);  // energy sign + residency sum
}

}  // namespace
}  // namespace fiveg::fault
