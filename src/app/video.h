// 360TEL: the paper's UHD panoramic video telephony system (Sec. 5.2).
// Frames are captured at 30 FPS, stitched and hardware-encoded on the
// phone, streamed over RTMP/TCP up to the cloud, and decoded/rendered at
// the far end. The paper's measured pipeline costs are built in: the
// punchline — processing latency ~10x network transmission — is arithmetic
// this model reproduces.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "measure/cdf.h"
#include "measure/timeseries.h"
#include "net/path.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "tcp/tcp_endpoint.h"

namespace fiveg::app {

struct PathFanout;

/// Camera resolutions tested in the paper.
enum class Resolution { k720p, k1080p, k4K, k5p7K };

[[nodiscard]] std::string to_string(Resolution r);

/// Nominal encoded bit-rate of the stream.
[[nodiscard]] double nominal_bitrate_bps(Resolution r) noexcept;

// The paper's measured pipeline stage costs: camera + patch splice, the
// H.264 hardware codec, decode (50 ms) + render, and the server relay +
// jitter buffer.
inline constexpr sim::Time kCaptureStitch = sim::from_millis(360);
inline constexpr sim::Time kEncode = sim::from_millis(160);
inline constexpr sim::Time kDecodeRender = sim::from_millis(130);
inline constexpr sim::Time kRtmpRelay = sim::from_millis(230);

/// Camera frame rate of every session.
inline constexpr int kFps = 30;

/// Telephony session parameters.
struct VideoConfig {
  Resolution resolution = Resolution::k4K;
  bool dynamic_scene = false;  // moving camera: larger, burstier frames
  tcp::TcpConfig transport;  // RTMP rides TCP
  // Adaptive bit-rate: downshift resolution when the sender backlog
  // exceeds a second of airtime, recover when it drains (the codec/
  // transport coordination the paper cites as the fix for 4G telephony).
  bool adaptive_bitrate = false;
};

/// Per-session results.
struct VideoStats {
  std::uint64_t frames_captured = 0;
  std::uint64_t frames_delivered = 0;
  int freeze_events = 0;               // long gaps at the receiver
  measure::Cdf frame_delay_s;          // capture -> rendered, seconds
  measure::Cdf frame_bytes;            // encoded frame sizes
  double mean_received_throughput_bps = 0.0;  // server-side over the session
  // Adaptive bit-rate bookkeeping.
  int downshifts = 0;
  int upshifts = 0;
  std::uint64_t frames_at_reduced_res = 0;
};

/// One uplink telephony session over `path` (phone at A, cloud at B).
class VideoTelephony {
 public:
  VideoTelephony(sim::Simulator* simulator, net::PathNetwork* path,
                 PathFanout* fanout, VideoConfig config, sim::Rng rng);
  ~VideoTelephony();

  VideoTelephony(const VideoTelephony&) = delete;
  VideoTelephony& operator=(const VideoTelephony&) = delete;

  /// Captures frames for `duration`, then stops (in-flight frames drain).
  void start(sim::Time duration);

  /// Statistics so far (call after the simulator has drained).
  [[nodiscard]] VideoStats stats() const;

  /// Server-side received-bytes series (Fig. 19's fluctuation plot).
  [[nodiscard]] const measure::TimeSeries& received_bytes_log() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fiveg::app
