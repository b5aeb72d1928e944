// Deterministic fault-injection plans: one seeded, composable description
// of every failure channel the ingestion and streaming layers must survive
// (truncated captures, corrupted frames, packet drop/duplication/reorder,
// timestamp skew, DHCP churn, lagging or black-holed blacklist feeds).
//
// A FaultPlan is pure data; the channels in packet_faults / entry_faults /
// label_faults interpret it with their own Rng streams derived from
// plan.seed, so every failure scenario is a reproducible test case.
#pragma once

#include <cstdint>
#include <string>

namespace dnsembed::fault {

struct FaultPlan {
  std::uint64_t seed = 1;

  // --- Packet channels (pcap record level, applied in order: drop,
  // duplicate, truncate, corrupt, skew, reorder-hold). Rates are per
  // packet in [0, 1].
  double drop_rate = 0.0;
  double duplicate_rate = 0.0;
  /// Cut a uniform suffix off the link-layer frame (leaves >= 1 byte).
  double truncate_rate = 0.0;
  /// XOR 1..corrupt_max_bytes random bytes of the frame.
  double corrupt_rate = 0.0;
  std::size_t corrupt_max_bytes = 4;
  /// Shift the capture timestamp by uniform +-timestamp_skew_max seconds.
  double timestamp_skew_rate = 0.0;
  std::int64_t timestamp_skew_max = 120;
  /// Hold a packet back and release it after 1..reorder_window later
  /// packets have passed (models cross-link reordering).
  double reorder_rate = 0.0;
  std::size_t reorder_window = 8;
  /// Probability that the capture byte stream itself is cut mid-record
  /// (crashed capture process). Applied once per capture, not per packet.
  double capture_cut_rate = 0.0;

  // --- Entry channels (joined-log level).
  double entry_drop_rate = 0.0;
  double entry_duplicate_rate = 0.0;
  /// DHCP churn: the device loses its lease and its queries re-appear
  /// under a fresh synthetic identity per churn period (attribution
  /// splinters, as when the DHCP join misses a lease).
  double dhcp_churn_rate = 0.0;
  std::int64_t dhcp_churn_period = 3600;

  // --- Intelligence-feed channels (threat-feed level).
  /// Fraction of malicious domains the feed never publishes at all.
  double label_blackhole_rate = 0.0;
  /// Uniform per-domain extra feed lag in [0, label_extra_delay_max] days
  /// on top of the detector's configured label delay.
  std::size_t label_extra_delay_max = 0;

  // --- Artifact I/O channels (interpreted by fault::IoFaultChannel,
  // injected into util::fsio). Rates are per primitive operation / per
  // committed payload.
  /// Probability that a primitive filesystem operation (open/write/fsync/
  /// rename/read) fails with a transient EIO. Exercises the fsio retry
  /// path; a payload survives as long as one attempt in the retry budget
  /// succeeds.
  double io_error_rate = 0.0;
  /// Probability that a committed payload is truncated at a random offset
  /// (torn write that slipped past the write path). Must be caught by the
  /// artifact checksum on load.
  double io_torn_write_rate = 0.0;
  /// Probability that a committed payload has 1..io_bitflip_max_bits
  /// random bits flipped (silent media corruption).
  double io_bitflip_rate = 0.0;
  std::size_t io_bitflip_max_bits = 8;

  // --- Process channels (interpreted by fault::ProcessFaultChannel, drawn
  // once per (task, attempt) at worker-task start under the pipeline
  // supervisor). Rates are per task attempt; at most one process fault
  // fires per attempt (crash wins over hang over garbage when the draw
  // lands in an overlapping band).
  /// Probability that a worker attempt dies immediately (exit 137, as if
  /// SIGKILLed mid-task).
  double proc_crash_rate = 0.0;
  /// Probability that a worker attempt hangs at task start (never beats
  /// and never finishes; the supervisor's staleness watchdog must SIGKILL
  /// it).
  double proc_hang_rate = 0.0;
  /// Probability that a worker attempt commits garbage bytes over its
  /// output artifacts and reports success (must be caught by container
  /// validation, never by luck).
  double proc_garbage_rate = 0.0;
  /// Cap on faulted attempts per task (0 = unlimited). With a cap of k and
  /// max_retries >= k the run always recovers; uncapped rate-1 plans drive
  /// a task to quarantine deterministically.
  std::size_t proc_max_faults_per_task = 0;
  /// Restrict process faults to tasks whose name starts with this prefix
  /// (empty = every task). Lets tests target one task, e.g. one channel's
  /// projection ("behavior.query").
  std::string proc_target;

  /// Scale every rate by `severity` (clamped to [0, 1]); magnitudes
  /// (windows, byte counts, delays) are left untouched. severity 0 is a
  /// no-fault plan, 1 is the plan as written.
  FaultPlan scaled(double severity) const;

  /// Human-readable one-line summary ("drop=0.02 dup=0.02 ...", only
  /// non-zero channels).
  std::string describe() const;
};

/// Counters kept by the fault channels, one field per channel, so sweeps
/// can report exactly what was injected.
struct FaultStats {
  std::size_t packets_in = 0;
  std::size_t packets_out = 0;
  std::size_t dropped = 0;
  std::size_t duplicated = 0;
  std::size_t truncated = 0;
  std::size_t corrupted = 0;
  std::size_t skewed = 0;
  std::size_t reordered = 0;
  std::size_t capture_cut = 0;

  std::size_t entries_in = 0;
  std::size_t entries_out = 0;
  std::size_t entries_dropped = 0;
  std::size_t entries_duplicated = 0;
  std::size_t entries_churned = 0;
};

}  // namespace dnsembed::fault
