// Battery profiling demo (pwrStrip): how much of a phone's power budget
// each component takes while running daily apps on 4G vs 5G, and what the
// Table-4 power-management policies would save.
//
//   ./example_energy_profile
#include <iostream>

#include "energy/power_strip.h"
#include "energy/rrc_power_machine.h"
#include "energy/traffic_trace.h"
#include "measure/table.h"

int main() {
  using namespace fiveg;
  using energy::RadioModel;

  const energy::RrcPowerMachine machine;

  int n_apps = 0;
  const energy::AppProfile* apps = energy::daily_apps(&n_apps);
  measure::TextTable t("One minute of app usage — mean power (mW)",
                       {"app", "4G total", "5G total", "5G radio share"});
  for (int i = 0; i < n_apps; ++i) {
    const auto lte = energy::measure_app_session(
        machine, RadioModel::kLteOnly, apps[i], 60 * sim::kSecond);
    const auto nr = energy::measure_app_session(
        machine, RadioModel::kNrNsa, apps[i], 60 * sim::kSecond);
    t.add_row({apps[i].name,
               measure::TextTable::num(lte.mean_power_mw(60 * sim::kSecond), 0),
               measure::TextTable::num(nr.mean_power_mw(60 * sim::kSecond), 0),
               measure::TextTable::pct(nr.radio_share())});
  }
  t.print(std::cout);

  measure::TextTable p("Policy comparison on a web-browsing trace (J)",
                       {"policy", "radio energy", "completion (s)"});
  const energy::TrafficTrace web = energy::web_browsing_trace(sim::Rng(1));
  for (const RadioModel m :
       {RadioModel::kLteOnly, RadioModel::kNrNsa, RadioModel::kNrOracle,
        RadioModel::kDynamicSwitch}) {
    const auto r = machine.replay(web, m);
    p.add_row({energy::to_string(m),
               measure::TextTable::num(r.radio_joules, 1),
               measure::TextTable::num(sim::to_seconds(r.completion), 1)});
  }
  p.print(std::cout);
  std::cout << "paper: the 5G radio takes ~55% of the budget; dynamic "
               "4G/5G switching recovers ~25% on bursty traffic\n";
  return 0;
}
