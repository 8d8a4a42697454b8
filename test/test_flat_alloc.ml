(* Allocation-regression gate for the flat core: the driver's own
   bookkeeping on the hot path must stay allocation-free.  A mid-size
   run's minor-words-per-event figure is read back from the driver's
   telemetry counters and held under a fixed ceiling, so any future edit
   that re-introduces boxing on the hot path (a mutable float field, an
   eagerly built trace event, a list where an array belongs) fails
   `dune runtest` instead of silently eroding the performance win.

   What remains under the ceiling is the irreducible per-event cost of
   the *policy interface* — decision records, [Some job] view answers,
   span closures — which the issue pins as unchanged.  [Gc.minor_words]
   counts words allocated, not collector activity, so the figure is
   deterministic for a fixed instance and policy and the gates can sit
   close to the measured values. *)

open Sched_model
open Sched_sim
module Rng = Sched_stats.Rng
module Obs = Sched_obs.Obs
module Registry = Sched_obs.Registry
module Metric = Sched_obs.Metric

(* Spread releases (not the dyadic differential generator): short queues,
   so the figure reflects the per-event code path rather than policy
   scans over deep pending sets. *)
let make_instance ~seed ~n ~m =
  let rng = Rng.create seed in
  let jobs =
    List.init n (fun id ->
        let release = float_of_int (Rng.int rng (4 * n)) /. 4. in
        let sizes = Array.init m (fun _ -> float_of_int (1 + Rng.int rng 32) /. 4.) in
        let weight = float_of_int (1 + Rng.int rng 16) /. 4. in
        Job.create ~id ~release ~weight ~sizes ())
  in
  Instance.create ~machines:(Machine.fleet m) ~jobs ()

let run_and_measure ?recorder ~n ~m policy =
  let instance = make_instance ~seed:7 ~n ~m in
  let registry = Registry.create () in
  let obs = Obs.create ~registry () in
  ignore (Driver.run_schedule ?recorder ~obs ~impl:Driver.Flat policy instance);
  let words =
    Metric.Counter.value (Registry.counter registry "sched_flat_loop_minor_words_total")
  in
  let events =
    Metric.Counter.value (Registry.counter registry "sched_flat_loop_events_total")
  in
  (words, events)

let check_gate ?recorder ?(m = 4) ~what ~gate policy =
  (* Warm-up run pays one-time lazy initialization. *)
  ignore (run_and_measure ~n:500 ~m:4 policy);
  let words, events = run_and_measure ?recorder ~n:4000 ~m policy in
  (* At least one arrival per job; rejected-before-start jobs push no
     finish event. *)
  Alcotest.(check bool) "events counted" true (events >= 4000.);
  let per_event = words /. events in
  if per_event > gate then
    Alcotest.failf
      "%s (m=%d): flat loop allocates %.1f minor words/event (gate %.1f): the hot path is boxing \
       again"
      what m per_event gate

(* Measured ~45 words/event (all policy-interface cost; the boxed core
   runs ~130 on the same instance). *)
let test_steady_state_allocs () =
  check_gate ~what:"greedy-spt" ~gate:80. Sched_baselines.Greedy_dispatch.spt

(* The rejection path through the loop is separate code; flow-reject also
   pays for its per-arrival candidate scan.  Measured ~41 words/event. *)
let test_steady_state_allocs_reject () =
  let module FR = Rejection.Flow_reject in
  check_gate ~what:"flow-reject" ~gate:100. (FR.policy (FR.config ~eps:0.3 ()))

(* Minor words per arrival are independent of m: the dispatch kernels
   scan every machine through a reused buffer and state-owned float
   cells, so m = 256 must fit under the same flow-reject ceiling as m = 4
   (both measure ~40 words/event).  Theorem 2's kernel, which also sorts
   each queue by density, is held to that ceiling too.  The greedy
   baselines are not pinned here: their cost reads
   [Driver.remaining_time]/[pending_work], which only the release build
   inlines, so under the dev profile's [-opaque] each boxes its result
   once per machine. *)
let test_reject_allocs_independent_of_m () =
  let module FR = Rejection.Flow_reject in
  let module FER = Rejection.Flow_energy_reject in
  List.iter
    (fun m ->
      check_gate ~m ~what:"flow-reject" ~gate:100. (FR.policy (FR.config ~eps:0.3 ()));
      check_gate ~m ~what:"flow-energy-reject" ~gate:100. (FER.policy (FER.config ~eps:0.3 ())))
    [ 4; 256 ]

(* Retire-mode residency is flat in m: with no per-(machine, job) columns
   the state a session keeps per fed job is the job columns and the
   outcome bits, whatever the fleet size.  The stream is the bench's
   rolling-retirement stream (dyadic sizes cycling over four values, so
   the backlog stays a small constant), fed and drained in chunks of
   512.  Its dispatches concentrate on a few machines; the per-machine
   pending heaps' position tables, indexed by job id, still grow with the
   ids each machine has seen, which a stream spread over many machines
   would expose (an open slot-recycling item, not this gate's subject). *)
let retire_words_per_job ~n ~m =
  let module FR = Rejection.Flow_reject in
  let job i =
    let release = 0.25 *. float_of_int i in
    let sizes = Array.init m (fun k -> 0.25 +. (0.25 *. float_of_int ((i + k) land 3))) in
    Job.create ~id:i ~release ~sizes ()
  in
  Gc.compact ();
  let base = (Gc.stat ()).Gc.live_words in
  let s =
    Driver.Session.open_session ~retire:true ~machines:(Machine.fleet m)
      (FR.policy (FR.config ~eps:0.3 ()))
  in
  let peak = ref 0 in
  let sample () =
    Gc.full_major ();
    peak := max !peak ((Gc.stat ()).Gc.live_words - base)
  in
  let chunk = 512 and every = n / 10 in
  let i = ref 0 in
  while !i < n do
    let stop = min n (!i + chunk) in
    for k = !i to stop - 1 do
      Driver.Session.feed s (job k)
    done;
    Driver.Session.drain_until s (0.25 *. float_of_int (stop - 1));
    if stop / every > !i / every then sample ();
    i := stop
  done;
  ignore (Driver.Session.close s);
  sample ();
  float_of_int !peak /. float_of_int n

let test_retire_residency_independent_of_m () =
  let n = 20_000 in
  let w4 = retire_words_per_job ~n ~m:4 and w64 = retire_words_per_job ~n ~m:64 in
  if w64 > 1.25 *. w4 then
    Alcotest.failf
      "retire mode keeps %.1f live words per fed job at m=64 against %.1f at m=4 (bound 1.25x)"
      w64 w4

(* The same ceilings must hold with a flight recorder attached: its write
   path is allocation-free by construction (int-only [reserve_*] calls
   plus direct stores into the hoisted float backing array).  Under the
   dev profile's [-opaque] the [Flat_state] float accessors feeding the
   recorder's payload are not inlined, so each boxes its return — a few
   words/event of build-mode (not code-path) cost; the release-profile
   bench pins the true zero.  greedy-spt absorbs it inside its existing
   gate; flow-reject's provenance payload reads more accessors (measured
   ~46 dev vs ~41 bare), so its recorder gate sits a notch higher. *)
let test_steady_state_allocs_recorded () =
  let recorder = Sched_obs.Recorder.create ~capacity:4096 () in
  check_gate ~recorder ~what:"greedy-spt+recorder" ~gate:80.
    Sched_baselines.Greedy_dispatch.spt;
  Alcotest.(check bool) "events recorded" true (Sched_obs.Recorder.total recorder > 0)

let test_steady_state_allocs_reject_recorded () =
  let module FR = Rejection.Flow_reject in
  let recorder = Sched_obs.Recorder.create ~capacity:4096 () in
  check_gate ~recorder ~what:"flow-reject+recorder" ~gate:110.
    (FR.policy (FR.config ~eps:0.3 ()))

(* Counters are absent unless the flat core actually ran: the boxed core
   must not register them, so a dashboard can tell the cores apart. *)
let test_counters_flat_only () =
  let instance = make_instance ~seed:11 ~n:50 ~m:2 in
  let registry = Registry.create () in
  let obs = Obs.create ~registry () in
  ignore
    (Driver.run_schedule ~obs ~impl:Driver.Boxed Sched_baselines.Greedy_dispatch.spt instance);
  let words =
    Metric.Counter.value (Registry.counter registry "sched_flat_loop_minor_words_total")
  in
  Alcotest.(check (float 0.)) "boxed run registers no flat counters" 0. words

let suite =
  [
    Alcotest.test_case "steady-state minor words/event under gate" `Quick test_steady_state_allocs;
    Alcotest.test_case "rejection path under gate" `Quick test_steady_state_allocs_reject;
    Alcotest.test_case "recorder attached stays under gate" `Quick
      test_steady_state_allocs_recorded;
    Alcotest.test_case "recorder attached, rejection path" `Quick
      test_steady_state_allocs_reject_recorded;
    Alcotest.test_case "flat counters only on flat runs" `Quick test_counters_flat_only;
    Alcotest.test_case "dispatch words per event independent of m" `Quick
      test_reject_allocs_independent_of_m;
    Alcotest.test_case "retire residency per fed job independent of m" `Quick
      test_retire_residency_independent_of_m;
  ]
