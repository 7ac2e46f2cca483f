/// \file fault_params.h
/// \brief Configuration of the unreliable-channel model and client
/// recovery policy.
///
/// The paper assumes a lossless broadcast medium; real mobile receivers
/// drop pages (fading, interference), decode garbage (detected by a
/// per-page checksum), and doze to save power. `FaultParams` bundles the
/// knobs for all three fault sources plus the client's recovery policy
/// (reception deadline, capped exponential backoff). A default-constructed
/// `FaultParams` is *inactive*: no fault machinery is built, no fault
/// randomness is drawn, and every result is bit-identical to the ideal
/// channel — the regression gate depends on that.

#ifndef BCAST_FAULT_FAULT_PARAMS_H_
#define BCAST_FAULT_FAULT_PARAMS_H_

#include <cstdint>
#include <string>

#include "common/status.h"

namespace bcast::fault {

/// \brief Process-level fault knobs: client crash–restart, server
/// transmission stalls, slot-boundary jitter, and schedule-version bumps.
///
/// Where `FaultParams` perturbs the *channel*, these perturb the
/// *processes* at its two ends. A crash wipes the client's volatile state
/// (outstanding pull request, backoff/deadline timers, learned schedule
/// position, and — under `crash_cold` — the cache) and the client re-tunes
/// through the existing resync path. A stall silences the server for a run
/// of slots without shifting the schedule, so fixed per-page inter-arrival
/// is violated transiently and clients must detect the gap via the
/// deadline machinery. Jitter smears each transmission's completion
/// within its slot. Version bumps re-phase the broadcast program
/// mid-cycle, exercising the resync path from the server side.
/// Default-constructed params are *inactive*: no windows are generated,
/// no randomness is drawn, and every run is bit-identical to the
/// process-fault-free tree.
struct ProcessFaultParams {
  /// Mean slots between client crashes (exponential inter-crash gaps,
  /// drawn per client from the (client id, crash) fault stream). 0 = off.
  double crash_every = 0.0;

  /// Downtime, in slots, after each crash before the client restarts.
  /// 0 models an instantaneous reboot: state is lost but no slot is
  /// missed by the radio.
  double crash_down = 0.0;

  /// When true the cache is flushed on restart (cold restart); otherwise
  /// cache contents survive the crash (warm restart, e.g. flash-backed).
  bool crash_cold = false;

  /// Mean slots between server transmission stalls. 0 = off.
  double stall_every = 0.0;

  /// Length of each stall, in slots. Slots inside a stall window are
  /// transmitted to no one; the schedule resumes on its nominal
  /// boundaries afterwards (airtime is lost, not shifted).
  double stall_len = 0.0;

  /// Maximum per-slot delivery jitter in [0, 1): each transmission
  /// completes up to this many slots late, by a deterministic per-slot
  /// draw shared by every listener. Latency, never loss.
  double slot_jitter = 0.0;

  /// Slots between schedule-version bumps: the server re-phases the
  /// current program (`SetProgram` at a non-boundary instant), forcing
  /// every tracked wait through the resync path. 0 = off. Each bump
  /// restarts the cycle, so a cadence shorter than the program's period
  /// would keep its later pages off the air for good: the runners reject
  /// it against the built program (`CheckVersionCadence`), before the
  /// first event.
  double version_every = 0.0;

  /// True when the client-side crash axis is configured.
  bool CrashActive() const { return crash_every > 0.0; }

  /// True when any server-side axis (stall or jitter) is configured.
  bool ServerActive() const { return stall_every > 0.0 || slot_jitter > 0.0; }

  /// True when any process-fault source is configured.
  bool Active() const {
    return CrashActive() || ServerActive() || version_every > 0.0;
  }

  /// Structural validation; OK for inactive params.
  Status Validate() const;

  /// Stable rendering appended to FaultParams::ToString, e.g.
  /// ",proc<crash=3000/50:cold,stall=2000/20,jitter=0.5,version=1500>".
  /// Empty when inactive (process-fault-free configs must not change).
  std::string ToString() const;
};

/// \brief Fault-injection and recovery knobs for one run.
///
/// Fault randomness is seeded by `fault_seed`, never by the master
/// simulation seed, and is drawn from sub-streams keyed by
/// (client id, purpose) — adding a fault source can never perturb the
/// access-generator or noise-mapping draws, and adding a client never
/// disturbs another client's channel.
struct FaultParams {
  /// Per-transmission loss probability in [0, 1). With `burst_len` <= 1
  /// losses are i.i.d.; otherwise this is the stationary loss rate of a
  /// Gilbert–Elliott chain.
  double loss = 0.0;

  /// Mean length (in listened transmissions) of a loss burst. Values
  /// <= 1 select the i.i.d. model; > 1 selects Gilbert–Elliott with this
  /// expected bad-state dwell time.
  double burst_len = 0.0;

  /// Probability in [0, 1) that a heard transmission is decoded with a
  /// damaged payload. Corruption is *detected* — the receiver recomputes
  /// the page checksum (see `broadcast/serialize.h`) and discards the
  /// mismatch — so it costs latency, never correctness.
  double corrupt = 0.0;

  /// \name Doze/disconnection windows.
  /// When `doze_for` > 0 the client alternates: radio on for `awake_for`
  /// broadcast units, then off for `doze_for` (it hears nothing and must
  /// resynchronize on wake). The phase is drawn once per client from the
  /// (client id, doze) fault stream so populations do not doze in
  /// lockstep.
  /// @{
  double doze_for = 0.0;
  double awake_for = 10000.0;
  /// @}

  /// Seed of all fault/doze randomness; independent of `SimParams::seed`.
  uint64_t fault_seed = 1;

  /// Reception deadline, in multiples of the page's guaranteed
  /// inter-arrival gap (Section 2.2 regularity): after this many expected
  /// arrivals pass without an intact reception the client declares the
  /// attempt expired, resets its backoff, and falls back to the next
  /// broadcast cycle.
  uint64_t deadline_arrivals = 4;

  /// \name Capped exponential backoff (slots of radio-off after a failed
  /// reception, before re-tuning). The cap keeps both the energy story
  /// and the latency bound finite; the multiplicative clamp makes the
  /// arithmetic overflow-proof at any failure count.
  /// @{
  double backoff_base = 1.0;
  double backoff_mult = 2.0;
  double backoff_cap = 64.0;
  /// @}

  /// Forces the fault machinery on even when every rate is zero. Used by
  /// the loss=0 golden baseline to prove the fault path reproduces the
  /// ideal channel bit-identically.
  bool force = false;

  /// Process-level faults (crash–restart, stalls, jitter, version bumps);
  /// inactive by default, in which case no schedule of fault windows is
  /// generated and the run is bit-identical to the process-fault-free
  /// tree.
  ProcessFaultParams process;

  /// True when any fault source is configured (or `force` is set): the
  /// simulator builds receivers, reports carry fault metrics, and
  /// `ToString` gains a fault section. Inactive params leave every code
  /// path and output byte-for-byte unchanged.
  bool Active() const {
    return force || loss > 0.0 || corrupt > 0.0 || doze_for > 0.0 ||
           process.Active();
  }

  /// Structural validation; OK for inactive params.
  Status Validate() const;

  /// Stable one-line rendering, e.g.
  /// "fault<loss=0.05,burst=4,corrupt=0,doze=0/10000,k=4,seed=1>".
  /// Empty when inactive (run configs must not change for ideal runs).
  std::string ToString() const;
};

}  // namespace bcast::fault

#endif  // BCAST_FAULT_FAULT_PARAMS_H_
