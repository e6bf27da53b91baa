#include "energy/rrc_power_machine.h"

#include <algorithm>
#include <cstdint>

#include "obs/obs.h"
#include "ran/drx.h"

namespace fiveg::energy {
namespace {

enum class Phase { kIdle, kPromoting, kConnected };

const char* phase_name(Phase p) noexcept {
  switch (p) {
    case Phase::kIdle:
      return "energy.rrc.idle";
    case Phase::kPromoting:
      return "energy.rrc.promoting";
    case Phase::kConnected:
      return "energy.rrc.connected";
  }
  return "energy.rrc.unknown";
}

const char* activity_name(ran::RadioActivity a) noexcept {
  switch (a) {
    case ran::RadioActivity::kTransfer:
      return "transfer";
    case ran::RadioActivity::kTailAwake:
      return "tail_awake";
    case ran::RadioActivity::kTailSleep:
      return "tail_sleep";
    case ran::RadioActivity::kPagingAwake:
      return "paging_awake";
    case ran::RadioActivity::kPagingSleep:
      return "paging_sleep";
  }
  return "unknown";
}

}  // namespace

EnergyResult RrcPowerMachine::replay(const TrafficTrace& trace,
                                     RadioModel model) const {
  EnergyResult result;
  if (trace.empty()) return result;

  const sim::Time dt = kReplayStep;
  const ran::DrxConfig lte_drx = ran::lte_drx();
  const RadioPower lte_power = lte_radio_power();
  const RadioPower nr_power = nr_radio_power();
  const bool oracle = model == RadioModel::kNrOracle;
  const bool sa = model == RadioModel::kNrSa;
  // SA keeps connection context in RRC_INACTIVE for a while after the
  // tail, enabling near-free reconnects (Rel-15 38.331, paper Appendix B).
  const sim::Time inactive_window = 20 * sim::kSecond;
  sim::Time last_idle_entry = -1;

  Phase phase = Phase::kIdle;
  radio::Rat rat = initial_rat(model);
  double backlog_bytes = 0.0;
  std::size_t next_demand = 0;
  sim::Time promotion_end = 0;
  sim::Time last_activity = -1;  // end of the most recent transfer
  sim::Time idle_since = 0;

  double joules = 0.0;
  double sample_acc_mw = 0.0;
  int sample_count = 0;
  sim::Time next_sample = kPowerSamplePeriod;

  // Observability: RRC phases become spans on the "energy" track, DRX
  // activity changes become instants, and per-phase residency feeds the
  // metrics registry. The replay itself is a fixed-step loop outside the
  // Simulator, so timestamps here are the loop's own simulated clock.
  obs::Tracer* tracer = obs::tracer();
  obs::MetricsRegistry* reg = obs::metrics();
  // Every replay restarts the loop clock at 0, so each gets its own
  // counter track ("energy.draw_mw", "energy.draw_mw#1", ...): overlaying
  // policy comparisons on one track would zigzag the viewer and violate
  // the per-track time monotonicity that fiveg_trace_check enforces. The
  // replay ordinal comes from the registry's energy.replays counter
  // (incremented at the end of each replay), keeping the name
  // deterministic for any --jobs value.
  std::string draw_track = "energy.draw_mw";
  if (reg != nullptr) {
    const std::uint64_t n = reg->counter("energy.replays").value();
    if (n > 0) draw_track += "#" + std::to_string(n);
  }
  // Per-phase instantaneous draw digests: the replay loop observes every
  // fixed step, so these hold the full draw distribution per RRC phase.
  obs::Digest* draw_d[3] = {nullptr, nullptr, nullptr};
  if (reg != nullptr) {
    draw_d[static_cast<int>(Phase::kIdle)] =
        &reg->digest("energy.draw_mw", {{"phase", "idle"}});
    draw_d[static_cast<int>(Phase::kPromoting)] =
        &reg->digest("energy.draw_mw", {{"phase", "promoting"}});
    draw_d[static_cast<int>(Phase::kConnected)] =
        &reg->digest("energy.draw_mw", {{"phase", "connected"}});
  }
  sim::Time residency_idle = 0;
  sim::Time residency_promoting = 0;
  sim::Time residency_connected = 0;
  std::uint64_t drx_transitions = 0;
  Phase span_phase = phase;
  ran::RadioActivity last_drx = ran::RadioActivity::kPagingSleep;
  bool have_drx = false;
  if (tracer != nullptr) {
    tracer->begin(0, phase_name(span_phase), "energy");
  }
  const auto note_activity = [&](sim::Time t, ran::RadioActivity a) {
    if (have_drx && a == last_drx) return;
    if (have_drx) {
      ++drx_transitions;
      if (tracer != nullptr) {
        tracer->instant(t, "energy.drx_transition", "energy",
                        {{"from", activity_name(last_drx)},
                         {"to", activity_name(a)}});
      }
    }
    last_drx = a;
    have_drx = true;
  };

  const sim::Time trace_end = trace.back().at;
  // Upper bound: everything served at LTE rate + promotion + full tail.
  const sim::Time horizon =
      trace_end +
      sim::from_seconds(8.0 * static_cast<double>(trace_bytes(trace)) /
                        config_.lte_rate_bps) +
      config_.nr_drx.tail + 20 * sim::kSecond;

  for (sim::Time t = 0; t <= horizon; t += dt) {
    while (next_demand < trace.size() && trace[next_demand].at <= t) {
      backlog_bytes += static_cast<double>(trace[next_demand].bytes);
      ++next_demand;
    }
    const bool all_arrived = next_demand == trace.size();

    // --- State transitions ---
    if (backlog_bytes > 0.0) {
      if (phase == Phase::kIdle) {
        sim::Time promo = promotion_delay(model);
        if (sa && last_idle_entry >= 0 &&
            t - last_idle_entry < inactive_window) {
          promo = 100 * sim::kMillisecond;  // RRC_INACTIVE resume
        }
        phase = promo > 0 ? Phase::kPromoting : Phase::kConnected;
        promotion_end = t + promo;
        rat = initial_rat(model);
      } else if (phase == Phase::kPromoting && t >= promotion_end) {
        phase = Phase::kConnected;
      }
      // Dynamic escalation: LTE backlog too deep -> add the NR leg.
      if (model == RadioModel::kDynamicSwitch && phase == Phase::kConnected &&
          rat == radio::Rat::kLte) {
        const double lte_drain_s =
            backlog_bytes * 8.0 / config_.lte_rate_bps;
        if (lte_drain_s > sim::to_seconds(kDynBacklogThreshold)) {
          phase = Phase::kPromoting;
          promotion_end = t + ran::kLteToNr;  // T4r_5r
          rat = radio::Rat::kNr;
        }
      }
    } else if (phase == Phase::kConnected && last_activity >= 0) {
      // SA runs a single NR tail (no LTE re-run): half the NSA tail.
      const sim::Time tail = rat != radio::Rat::kNr ? lte_drx.tail
                             : sa                   ? lte_drx.tail
                                                    : config_.nr_drx.tail;
      if (t - last_activity >= tail) {
        phase = Phase::kIdle;
        idle_since = t;
        last_idle_entry = t;
      }
    }

    if (phase != span_phase) {
      if (tracer != nullptr) {
        tracer->end(t, phase_name(span_phase), "energy");
        tracer->begin(t, phase_name(phase), "energy",
                      {{"rat", rat == radio::Rat::kNr ? "nr" : "lte"}});
      }
      span_phase = phase;
    }
    if (phase == Phase::kIdle) {
      residency_idle += dt;
    } else if (phase == Phase::kPromoting) {
      residency_promoting += dt;
    } else {
      residency_connected += dt;
    }

    // --- Serve and compute draw ---
    const RadioPower& active_power =
        rat == radio::Rat::kNr ? nr_power : lte_power;
    double draw_mw = 0.0;
    switch (phase) {
      case Phase::kIdle: {
        const ran::RadioActivity activity =
            ran::idle_activity(t - idle_since);
        note_activity(t, activity);
        draw_mw = radio_draw_mw(
            lte_power,  // NSA camps idle on LTE paging
            activity, 0.0);
        break;
      }
      case Phase::kPromoting:
        draw_mw = active_power.promotion_mw;
        break;
      case Phase::kConnected: {
        if (backlog_bytes > 0.0) {
          const double rate_bps = rat == radio::Rat::kNr
                                      ? config_.nr_rate_bps
                                      : config_.lte_rate_bps;
          const double served =
              std::min(backlog_bytes, rate_bps / 8.0 * sim::to_seconds(dt));
          backlog_bytes -= served;
          result.served_bits += 8.0 * served;
          note_activity(t, ran::RadioActivity::kTransfer);
          draw_mw = active_power.active_mw(rate_bps / 1e6);
          last_activity = t + dt;
          if (backlog_bytes <= 0.0 && all_arrived) result.completion = t + dt;
        } else {
          // Connected tail. The NSA tail runs the NR DRX machine first,
          // then re-runs the LTE tail (Fig. 23's compounded tail). The
          // Oracle sleeps perfectly through it — it eliminates on-duration
          // and inactivity-timer waste, but cannot dodge the tail's
          // hardware sleep floor (the paper's 11-16% ceiling).
          const sim::Time since = t - last_activity;
          if (rat == radio::Rat::kNr) {
            const sim::Time nr_tail_half = lte_drx.tail;
            const bool in_nr_half = since < nr_tail_half;
            const RadioPower& p = in_nr_half ? nr_power : lte_power;
            const ran::RadioActivity activity =
                oracle ? ran::RadioActivity::kTailSleep
                       : ran::connected_activity(config_.nr_drx, since);
            note_activity(t, activity);
            draw_mw = radio_draw_mw(p, activity, 0.0);
          } else {
            const ran::RadioActivity activity =
                oracle ? ran::RadioActivity::kTailSleep
                       : ran::connected_activity(lte_drx, since);
            note_activity(t, activity);
            draw_mw = radio_draw_mw(lte_power, activity, 0.0);
          }
        }
        break;
      }
    }

    if (reg != nullptr) draw_d[static_cast<int>(phase)]->observe(draw_mw);
    joules += draw_mw / 1000.0 * sim::to_seconds(dt);
    sample_acc_mw += draw_mw;
    ++sample_count;
    if (t >= next_sample) {
      const double mean_mw = sample_acc_mw / sample_count;
      result.power_trace_mw.add(t, mean_mw);
      if (tracer != nullptr) {
        tracer->counter(t, draw_track, "energy", mean_mw);
      }
      sample_acc_mw = 0.0;
      sample_count = 0;
      next_sample += kPowerSamplePeriod;
    }

    if (all_arrived && backlog_bytes <= 0.0 && phase == Phase::kIdle &&
        t > trace_end) {
      result.duration = t;
      break;
    }
    result.duration = t;
  }

  if (tracer != nullptr) {
    tracer->end(result.duration, phase_name(span_phase), "energy");
  }
  if (reg != nullptr) {
    const auto ms = [](sim::Time t) {
      return static_cast<std::uint64_t>(t / sim::kMillisecond);
    };
    reg->counter("energy.replays").add();
    reg->counter("energy.rrc_residency_ms.idle").add(ms(residency_idle));
    reg->counter("energy.rrc_residency_ms.promoting")
        .add(ms(residency_promoting));
    reg->counter("energy.rrc_residency_ms.connected")
        .add(ms(residency_connected));
    reg->counter("energy.drx_transitions").add(drx_transitions);
    // Per-replay residency distribution (one observation per replay call,
    // so multi-replay experiments get percentiles across replays).
    reg->digest("energy.rrc_residency_ms", {{"phase", "idle"}})
        .observe(sim::to_millis(residency_idle));
    reg->digest("energy.rrc_residency_ms", {{"phase", "promoting"}})
        .observe(sim::to_millis(residency_promoting));
    reg->digest("energy.rrc_residency_ms", {{"phase", "connected"}})
        .observe(sim::to_millis(residency_connected));
  }

  result.residency_idle = residency_idle;
  result.residency_promoting = residency_promoting;
  result.residency_connected = residency_connected;
  result.radio_joules = joules;
  result.mean_radio_mw =
      result.duration > 0 ? joules * 1000.0 / sim::to_seconds(result.duration)
                          : 0.0;
  return result;
}

}  // namespace fiveg::energy
