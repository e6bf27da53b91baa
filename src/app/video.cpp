#include "app/video.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "app/iperf.h"
#include "obs/obs.h"

namespace fiveg::app {

std::string to_string(Resolution r) {
  switch (r) {
    case Resolution::k720p:
      return "720P";
    case Resolution::k1080p:
      return "1080P";
    case Resolution::k4K:
      return "4K";
    case Resolution::k5p7K:
      return "5.7K";
  }
  return "?";
}

double nominal_bitrate_bps(Resolution r) noexcept {
  // Encoded panoramic streams (Insta360 ONE X class hardware): the paper
  // cites 35-68 Mbps for 4K telephony and shows ~80+ Mbps spikes at 5.7K.
  switch (r) {
    case Resolution::k720p:
      return 10e6;
    case Resolution::k1080p:
      return 18e6;
    case Resolution::k4K:
      return 45e6;
    case Resolution::k5p7K:
      return 80e6;
  }
  return 0.0;
}

struct VideoTelephony::Impl {
  sim::Simulator* sim;
  VideoConfig config;
  sim::Rng rng;
  std::unique_ptr<TcpSession> session;

  sim::Time stop_at = 0;
  std::uint64_t captured = 0;
  std::uint64_t delivered = 0;
  int freezes = 0;
  sim::Time last_delivery = -1;
  measure::Cdf delay_s;
  measure::Cdf frame_bytes;
  sim::Time first_capture = 0;

  // ABR state: the live encoding resolution (<= the configured one).
  Resolution live_res = Resolution::k4K;
  int downshifts = 0;
  int upshifts = 0;
  std::uint64_t reduced_frames = 0;
  int drain_streak = 0;

  static Resolution lower(Resolution r) {
    switch (r) {
      case Resolution::k5p7K:
        return Resolution::k4K;
      case Resolution::k4K:
        return Resolution::k1080p;
      default:
        return Resolution::k720p;
    }
  }
  static Resolution higher(Resolution r) {
    switch (r) {
      case Resolution::k720p:
        return Resolution::k1080p;
      case Resolution::k1080p:
        return Resolution::k4K;
      default:
        return Resolution::k5p7K;
    }
  }

  void adapt_bitrate() {
    const double backlog =
        static_cast<double>(session->sender().backlog_bytes());
    const double rate = nominal_bitrate_bps(live_res);
    const double backlog_s = backlog * 8.0 / rate;
    if (backlog_s > 1.0 && live_res != Resolution::k720p) {
      live_res = lower(live_res);
      ++downshifts;
      drain_streak = 0;
    } else if (backlog_s < 0.15 && live_res != config.resolution) {
      // Upshift only after the pipe stays drained for ~2 s of frames.
      if (++drain_streak >= 2 * kFps) {
        live_res = higher(live_res);
        ++upshifts;
        drain_streak = 0;
      }
    } else {
      drain_streak = 0;
    }
  }

  void capture_frame() {
    if (sim->now() >= stop_at) return;
    const sim::Time captured_at = sim->now();
    ++captured;

    if (config.adaptive_bitrate) {
      adapt_bitrate();
      if (live_res != config.resolution) ++reduced_frames;
    }

    // Encoded frame size: nominal bytes-per-frame with scene-dependent
    // fluctuation — dynamic scenes defeat motion prediction, so frames
    // run larger and much burstier (Fig. 19).
    const double mean_bytes =
        nominal_bitrate_bps(config.adaptive_bitrate ? live_res
                                                    : config.resolution) /
        8.0 / kFps;
    const double sigma = config.dynamic_scene ? 0.50 : 0.15;
    const double scale = config.dynamic_scene ? 1.25 : 1.0;
    const double bytes =
        std::max(2000.0, mean_bytes * scale *
                             rng.lognormal(-0.5 * sigma * sigma, sigma));
    frame_bytes.add(bytes);

    // The frame enters the wire only after stitch + encode.
    const sim::Time handoff = kCaptureStitch + kEncode;
    sim->schedule_in(handoff, [this, captured_at, bytes] {
      session->sender().send_bytes(
          static_cast<std::uint64_t>(bytes), [this, captured_at] {
            on_frame_delivered(captured_at);
          });
    });

    sim->schedule_in(sim::kSecond / kFps, [this] { capture_frame(); });
  }

  void on_frame_delivered(sim::Time captured_at) {
    ++delivered;
    const sim::Time display_at = sim->now() + kDecodeRender + kRtmpRelay;
    delay_s.add(sim::to_seconds(display_at - captured_at));
    if (auto* m = obs::metrics()) {
      m->digest("app.video.frame_delay_ms")
          .observe(sim::to_millis(display_at - captured_at));
    }
    if (last_delivery >= 0) {
      const sim::Time gap = sim->now() - last_delivery;
      if (gap > 3 * (sim::kSecond / kFps)) {
        ++freezes;
        if (auto* m = obs::metrics()) {
          m->counter("app.video.freezes").add();
          m->digest("app.video.freeze_gap_ms").observe(sim::to_millis(gap));
        }
      }
    }
    last_delivery = sim->now();
  }
};

VideoTelephony::VideoTelephony(sim::Simulator* simulator,
                               net::PathNetwork* path, PathFanout* fanout,
                               VideoConfig config, sim::Rng rng)
    : impl_(new Impl{simulator, config, rng, nullptr, 0, 0, 0, 0, -1,
                     {}, {}, 0}) {
  impl_->session = std::make_unique<TcpSession>(
      simulator, path, fanout, config.transport, /*flow_id=*/3000);
}

VideoTelephony::~VideoTelephony() = default;

void VideoTelephony::start(sim::Time duration) {
  impl_->stop_at = impl_->sim->now() + duration;
  impl_->first_capture = impl_->sim->now();
  impl_->live_res = impl_->config.resolution;
  impl_->capture_frame();
}

VideoStats VideoTelephony::stats() const {
  VideoStats s;
  s.frames_captured = impl_->captured;
  s.frames_delivered = impl_->delivered;
  s.freeze_events = impl_->freezes;
  s.frame_delay_s = impl_->delay_s;
  s.frame_bytes = impl_->frame_bytes;
  s.downshifts = impl_->downshifts;
  s.upshifts = impl_->upshifts;
  s.frames_at_reduced_res = impl_->reduced_frames;
  const sim::Time from = impl_->first_capture;
  const sim::Time to = impl_->stop_at;
  if (to > from) {
    s.mean_received_throughput_bps =
        impl_->session->receiver().mean_goodput_bps(from, to);
  }
  return s;
}

const measure::TimeSeries& VideoTelephony::received_bytes_log() const {
  return impl_->session->receiver().goodput_log();
}

}  // namespace fiveg::app
