(* The repository benchmark: one process, one domain, public library
   calls only.  See README.md for the workloads, the metrics and the
   layer-to-end-to-end map.

     perfbench.exe --workload NAME --seed N --seconds S --trace 0|1

   The last line of standard output is the result object; the lines
   before it carry the provenance and the per-pass values. *)

open Sched_model
open Sched_sim
module PR = Sched_experiments.Policy_registry
module Session = Driver.Session
module Stats = Perfbench_util.Stats
module J = Perfbench_util.Jsonw

(* Nanosecond monotonic clock: [Unix.gettimeofday] ticks in whole
   microseconds, coarser than a single decision at m=16. *)
let now () = Monotonic_clock.now ()
let secs_since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type objective =
  | Flow_time  (** Theorem 1: total flow-time, rejected jobs counted. *)
  | Flow_energy  (** Theorem 2: weighted flow-time plus energy. *)

type workload =
  | W : {
      name : string;
      entry : PR.entry;  (** The registry entry: name and theorem budget. *)
      policy : 'a Driver.policy;
      gen : Sched_workload.Gen.t;
      n : int;
      m : int;
      objective : objective;
      batch_runs : int;
          (** [Driver.run_live] calls per pass.  Zero on the serving
              workload, whose users' throughput is the stream's. *)
    }
      -> workload

let registry name =
  match PR.find name with Some e -> e | None -> failwith ("no registry policy " ^ name)

let flow_reject ~name ~n ~m =
  W
    {
      name;
      entry = registry "flow-reject";
      policy = Rejection.Flow_reject.(policy (config ~eps:PR.eps ()));
      gen = Sched_workload.Suite.flow_pareto ~n ~m;
      n;
      m;
      objective = Flow_time;
      (* The batch path is several times faster than the stream; three
         runs keep its share of a pass near the stream's. *)
      batch_runs = 3;
    }

(* Sizes keep a pass near one to three seconds, so a run of tens of
   seconds holds several whole cycles; at m=512 the three snapshots of
   the m x capacity columns also bound n. *)
let workloads =
  [
    flow_reject ~name:"batch_m16" ~n:30_000 ~m:16;
    flow_reject ~name:"batch_m512" ~n:4_000 ~m:512;
    (let n = 15_000 and m = 64 in
     W
       {
         name = "serve_m64";
         entry = registry "flow-energy-reject";
         policy = Rejection.Flow_energy_reject.(policy (config ~eps:PR.eps ()));
         gen = Sched_workload.Suite.weighted_energy ~n ~m ~alpha:2.;
         n;
         m;
         objective = Flow_energy;
         batch_runs = 0;
       });
  ]

(* The fixed mid-stream points where the session is suspended and
   resumed: before the arrivals at a quarter, half and three quarters of
   the stream.  Three events per pass steady the summed time. *)
let suspend_points n = [ n / 4; n / 2; 3 * n / 4 ]

(* ------------------------------------------------------------------ *)
(* Failure accounting: feeds, drains, suspends, restores, closes, batch
   runs and output checks each count as one operation.                *)

let attempted = ref 0
let failed = ref 0
let errors = ref []

let fail msg =
  incr failed;
  errors := msg :: !errors

let check what ok =
  incr attempted;
  if not ok then fail ("output check failed: " ^ what)

(* ------------------------------------------------------------------ *)
(* Peak major heap: sampled at the end of every major cycle while a pass
   is in its timed phases, and at each phase boundary.                  *)

let peak_words = ref 0
let in_timed_phase = ref false

let sample_heap () =
  let h = (Gc.quick_stat ()).Gc.heap_words in
  if h > !peak_words then peak_words := h

let (_ : Gc.alarm) = Gc.create_alarm (fun () -> if !in_timed_phase then sample_heap ())

(* ------------------------------------------------------------------ *)
(* Tracing: one span per public call, kept in memory, written at exit.
   [enter] reads the clock and the minor-word counter after any growth
   of the span columns, so a span's words are those of the call alone. *)

module Tracer = struct
  let names =
    [| "gen"; "ingest"; "feed"; "drain"; "dispatch"; "select"; "close"; "export"; "checkpoint"; "restore" |]

  let gen = 0
  and ingest = 1
  and feed = 2
  and drain = 3
  and dispatch = 4
  and select = 5
  and close = 6
  and export = 7
  and checkpoint = 8
  and restore = 9

  type t = {
    mutable len : int;
    mutable name : int array;
    mutable parent : int array;
    mutable start : int array;
    mutable stop : int array;
    mutable words : float array;
    mutable current : int;
    busy_ns : int array;  (** per name *)
    calls : int array;
    total_words : float array;
  }

  let create () =
    let cap = 1024 and k = Array.length names in
    {
      len = 0;
      name = Array.make cap 0;
      parent = Array.make cap 0;
      start = Array.make cap 0;
      stop = Array.make cap 0;
      words = Array.make cap 0.;
      current = -1;
      busy_ns = Array.make k 0;
      calls = Array.make k 0;
      total_words = Array.make k 0.;
    }

  let reset t =
    t.len <- 0;
    t.current <- -1;
    Array.fill t.busy_ns 0 (Array.length names) 0;
    Array.fill t.calls 0 (Array.length names) 0;
    Array.fill t.total_words 0 (Array.length names) 0.

  let grow t =
    let cap = 2 * Array.length t.name in
    let ext a z = Array.append a (Array.make (cap - Array.length a) z) in
    t.name <- ext t.name 0;
    t.parent <- ext t.parent 0;
    t.start <- ext t.start 0;
    t.stop <- ext t.stop 0;
    t.words <- ext t.words 0.

  let enter t nm =
    if t.len = Array.length t.name then grow t;
    let i = t.len in
    t.len <- i + 1;
    t.name.(i) <- nm;
    t.parent.(i) <- t.current;
    t.current <- i;
    t.words.(i) <- Gc.minor_words ();
    t.start.(i) <- Int64.to_int (now ());
    i

  let leave t i =
    let stop = Int64.to_int (now ()) in
    let w = Gc.minor_words () -. t.words.(i) in
    t.stop.(i) <- stop;
    t.words.(i) <- w;
    t.current <- t.parent.(i);
    let nm = t.name.(i) in
    t.busy_ns.(nm) <- t.busy_ns.(nm) + (stop - t.start.(i));
    t.calls.(nm) <- t.calls.(nm) + 1;
    t.total_words.(nm) <- t.total_words.(nm) +. w

  let span t nm f =
    let i = enter t nm in
    let r = f () in
    leave t i;
    r

  let busy_s t nm = float_of_int t.busy_ns.(nm) *. 1e-9

  (* The policy's two closures, each call recorded as a child span of
     the drain or close that made it. *)
  let wrap (type a) t (p : a Driver.policy) : a Driver.policy =
    {
      p with
      on_arrival =
        (fun st v j ->
          let i = enter t dispatch in
          let d = p.on_arrival st v j in
          leave t i;
          d);
      select =
        (fun st v mach ->
          let i = enter t select in
          let s = p.select st v mach in
          leave t i;
          s);
    }

  let write t path =
    let oc = open_out path in
    output_string oc "span\tname\tparent\tstart_ns\tstop_ns\tminor_words\n";
    for i = 0 to t.len - 1 do
      Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%.0f\n" i names.(t.name.(i)) t.parent.(i) t.start.(i)
        t.stop.(i) t.words.(i)
    done;
    close_out oc
end

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)

let live_equal (a : Driver.live_metrics) (b : Driver.live_metrics) =
  let f (x : Metrics.flow) (y : Metrics.flow) =
    Float.equal x.total y.total && Float.equal x.weighted y.weighted
    && Float.equal x.total_with_rejected y.total_with_rejected
    && Float.equal x.weighted_with_rejected y.weighted_with_rejected
    && Float.equal x.max_flow y.max_flow && Float.equal x.mean_flow y.mean_flow
    && Float.equal x.max_stretch y.max_stretch
  in
  let r (x : Metrics.rejection) (y : Metrics.rejection) =
    x.count = y.count && Float.equal x.fraction y.fraction && Float.equal x.weight y.weight
    && Float.equal x.weight_fraction y.weight_fraction && x.mid_run = y.mid_run
  in
  f a.flow b.flow && Float.equal a.energy b.energy && r a.rejection b.rejection
  && Float.equal a.makespan b.makespan

let digest_of = function
  | Some sched -> Digest.to_hex (Digest.string (Serialize.schedule_to_canonical_string sched))
  | None -> "none"

(* FNV-1a over the exported bytes, folded as they are produced, so
   comparing a stream's decision lines with the reference holds no copy
   of either. *)
let fnv_basis = 0x811c9dc5

let fnv_char h c = (h lxor Char.code c) * 0x100000001b3

let fnv_string h s =
  let h = ref h in
  String.iter (fun c -> h := fnv_char !h c) s;
  !h

(* The uninterrupted run every pass on an instance is compared against:
   the batch path with a trace attached (a batch run is an
   open-feed-close session), audited by the oracle under the registry
   budget. *)
type reference = {
  lines_hash : int;  (** FNV-1a of its decision lines, newline-terminated *)
  lines_bytes : int;
  digest : string;  (** Canonical schedule digest. *)
  live : Driver.live_metrics;
  objective_ratio : float;
  rejected_frac : float;
}

let reference (W w) inst =
  let trace = Trace.create () in
  incr attempted;
  let sched, _, live = Driver.run_live ~trace w.policy inst in
  let mode = Sched_check.Oracle.mode ~allow_restarts:w.entry.PR.allow_restarts () in
  let live_snap =
    {
      Sched_check.Oracle.flow = live.flow;
      energy = live.energy;
      rejection = live.rejection;
      makespan = live.makespan;
    }
  in
  let violations = Sched_check.Oracle.check ~mode ?budget:w.entry.PR.budget ~live:live_snap sched in
  check
    ("oracle audit under the registry budget: " ^ Sched_check.Oracle.report violations)
    (match violations with [] -> true | _ :: _ -> false);
  let objective_ratio, rejected_frac =
    match w.objective with
    | Flow_time ->
        (live.flow.total_with_rejected /. Instance.total_min_volume inst, live.rejection.fraction)
    | Flow_energy ->
        ( (live.flow.weighted_with_rejected +. live.energy)
          /. Sched_energy.Energy_bounds.flow_energy_lb inst,
          live.rejection.weight_fraction )
  in
  let h = ref fnv_basis and bytes = ref 0 in
  Trace_export.iter_lines trace (fun l ->
      h := fnv_char (fnv_string !h l) '\n';
      bytes := !bytes + String.length l + 1);
  { lines_hash = !h; lines_bytes = !bytes; digest = digest_of (Some sched); live; objective_ratio; rejected_frac }

(* ------------------------------------------------------------------ *)
(* The stream phase: the engine driven as [rejsched serve --batch 1]
   drives it — per arrival feed, drain to its release, export the new
   decision lines — with suspend/resume at the fixed points.           *)

type stream_result = {
  decisions : float array;  (** seconds per arrival, feed to export *)
  close_s : float;
  checkpoint_s : float;
  restore_s : float;
  checkpoint_bytes : int;
  fed_at_suspend : int;
  export_lines : int;
  export_bytes : int;
  lines_hash : int;
  s_live : Driver.live_metrics;
}

let stream_phase (type a) ?tracer ~entry ~(policy : a Driver.policy) (session : a Session.t) jobs =
  let span nm f = match tracer with None -> f () | Some t -> Tracer.span t nm f in
  let n = Array.length jobs in
  let suspend = suspend_points n in
  let decisions = Array.make n 0. in
  let s = ref session in
  let trace_of s = match Session.trace s with Some t -> t | None -> failwith "session lost its trace" in
  let tr = ref (trace_of session) in
  let cursor = ref 0 and nlines = ref 0 in
  let line = Buffer.create 4096 in
  let export () =
    span Tracer.export (fun () ->
        List.iter
          (fun e ->
            Buffer.add_string line (Trace_export.entry_line e);
            Buffer.add_char line '\n';
            incr nlines)
          (Trace.since !tr !cursor));
    cursor := Trace.length !tr
  in
  (* Outside the timed span: fold the arrival's lines into the hash. *)
  let h = ref fnv_basis and bytes = ref 0 in
  let consume () =
    for i = 0 to Buffer.length line - 1 do
      h := fnv_char !h (Buffer.nth line i)
    done;
    bytes := !bytes + Buffer.length line;
    Buffer.clear line
  in
  let ck_s = ref 0. and rs_s = ref 0. and ck_bytes = ref 0 and fed_at = ref 0 in
  for k = 0 to n - 1 do
    if List.mem k suspend then begin
      incr attempted;
      let t0 = now () in
      let snap =
        span Tracer.checkpoint (fun () -> Snapshot.wrap ~policy:entry ~payload:(Session.freeze !s))
      in
      ck_s := !ck_s +. secs_since t0;
      ck_bytes := !ck_bytes + String.length snap;
      fed_at := !fed_at + Session.fed !s;
      incr attempted;
      let t0 = now () in
      span Tracer.restore (fun () ->
          match Snapshot.unwrap snap with
          | Ok (p, payload) when String.equal p entry -> s := Session.thaw policy payload
          | Ok (p, _) -> failwith ("snapshot names policy " ^ p)
          | Error e -> failwith ("cannot restore: " ^ Snapshot.error_to_string e));
      rs_s := !rs_s +. secs_since t0;
      tr := trace_of !s;
      check "restored trace resumes at the export cursor" (Trace.length !tr = !cursor)
    end;
    let j = jobs.(k) in
    attempted := !attempted + 2;
    let t0 = now () in
    span Tracer.feed (fun () -> Session.feed !s j);
    span Tracer.drain (fun () -> Session.drain_until !s j.Job.release);
    export ();
    decisions.(k) <- secs_since t0;
    consume ()
  done;
  incr attempted;
  let t0 = now () in
  let _, _, live = span Tracer.close (fun () -> Session.close !s) in
  export ();
  let close_s = secs_since t0 in
  consume ();
  {
    decisions;
    close_s;
    checkpoint_s = !ck_s;
    restore_s = !rs_s;
    checkpoint_bytes = !ck_bytes;
    fed_at_suspend = !fed_at;
    export_lines = !nlines;
    export_bytes = !bytes;
    lines_hash = !h;
    s_live = live;
  }

let check_stream (r : reference) (s : stream_result) =
  check "resumed stream's decision lines equal the uninterrupted run's"
    (s.lines_hash = r.lines_hash && s.export_bytes = r.lines_bytes);
  check "resumed stream's live metrics equal the uninterrupted run's" (live_equal s.s_live r.live)

(* ------------------------------------------------------------------ *)
(* One measured pass over one instance: set-up, the stream phase, the
   batch phase, then the output checks.  Tracing is off.               *)

type pass = {
  setup_s : float array;  (** one per set-up *)
  batch_s : float array;  (** one per batch run *)
  stream_s : float;  (** decisions plus close, suspend/resume excluded *)
  decisions_us : float array;
  checkpoint_s : float;
  restore_s : float;
  checkpoint_bytes : int;
  peak_heap_words : int;
  gc0 : Gc.stat;
  gc1 : Gc.stat;
}

(* Set-ups per pass (the last one is used): set-up is a small share of a
   pass, and one sample per pass would leave its median on few values. *)
let setup_runs = 3

let open_stream (type a) (policy : a Driver.policy) inst =
  Session.open_session ~trace:(Trace.create ()) ~name:inst.Instance.name
    ~machines:inst.Instance.machines policy

let measured_pass (W w) ~seed (r : reference) =
  Gc.compact ();
  peak_words := 0;
  in_timed_phase := true;
  sample_heap ();
  let setup_s = Array.make setup_runs 0. in
  let rec set_up k =
    let t0 = now () in
    let inst = Sched_workload.Gen.instance w.gen ~seed in
    let jobs = Instance.jobs_by_release inst in
    let session = open_stream w.policy inst in
    setup_s.(k) <- secs_since t0;
    if k + 1 < setup_runs then set_up (k + 1) else (inst, jobs, session)
  in
  let inst, jobs, session = set_up 0 in
  let gc0 = Gc.quick_stat () in
  let s = stream_phase ~entry:w.entry.PR.name ~policy:w.policy session jobs in
  sample_heap ();
  (* The first batch schedule is kept for the digest check, which runs
     after the timed phases so that its allocation stays out of them. *)
  let first = ref None in
  let batch_s =
    Array.init w.batch_runs (fun k ->
        incr attempted;
        let t0 = now () in
        let sched, _, live = Driver.run_live w.policy inst in
        let dt = secs_since t0 in
        if k = 0 then first := Some sched;
        check "batch live metrics equal the uninterrupted run's" (live_equal live r.live);
        dt)
  in
  let gc1 = Gc.quick_stat () in
  sample_heap ();
  in_timed_phase := false;
  Option.iter
    (fun sched ->
      check "batch schedule equals the uninterrupted run's"
        (String.equal (digest_of (Some sched)) r.digest))
    !first;
  check_stream r s;
  {
    setup_s;
    batch_s;
    stream_s = Array.fold_left ( +. ) s.close_s s.decisions;
    decisions_us = Array.map (fun x -> x *. 1e6) s.decisions;
    checkpoint_s = s.checkpoint_s;
    restore_s = s.restore_s;
    checkpoint_bytes = s.checkpoint_bytes;
    peak_heap_words = !peak_words;
    gc0;
    gc1;
  }

(* ------------------------------------------------------------------ *)
(* Traced round: the per-layer ledger for one instance.                *)

type round = {
  untraced : pass;
  gen_s : float;
  gen_words : float;
  ingest_s : float;
  ingest_words : float;
  ingest_live_words : float;
  split_untraced_s : float;
  split_traced_s : float;
  feed_s : float;
  dispatch_s : float;
  dispatch_calls : float;
  dispatch_words : float;
  select_s : float;
  select_calls : float;
  select_words : float;
  drain_s : float;
  drain_words : float;
  events : float;
  close_s : float;
  close_words : float;
  kept_frac : float;
  export_s : float;
  export_lines : float;
  export_bytes : float;
  checkpoint_s : float;
  checkpoint_bytes : float;
  fed_at_suspend : float;
  restore_s : float;
}

(* The batch path split into the public calls [Driver.run_live] is made
   of: open, feed every job, [drain_until infinity], close. *)
let split_run (type a) ?obs ?tracer (policy : a Driver.policy) inst jobs =
  let span nm f = match tracer with None -> f () | Some t -> Tracer.span t nm f in
  let s =
    Session.open_session ?obs ~name:inst.Instance.name ~machines:inst.Instance.machines policy
  in
  Array.iter (fun j -> span Tracer.feed (fun () -> Session.feed s j)) jobs;
  span Tracer.drain (fun () -> Session.drain_until s infinity);
  span Tracer.close (fun () -> Session.close s)

let traced_round (W w) ~seed (r : reference) t =
  let untraced = measured_pass (W w) ~seed r in
  Gc.compact ();
  Tracer.reset t;
  let inst = Tracer.span t Tracer.gen (fun () -> Sched_workload.Gen.instance w.gen ~seed) in
  let jobs = Instance.jobs_by_release inst in
  (* Ingest as run_live performs it: columns reserved up front. *)
  let fs =
    Tracer.span t Tracer.ingest (fun () ->
        let fs = Flat_state.of_stream ~machines:inst.Instance.machines in
        Flat_state.reserve fs w.n;
        Array.iter (Flat_state.add_job fs) jobs;
        fs)
  in
  let ingest_live_words = float_of_int (Obj.reachable_words (Obj.repr fs)) in
  Gc.compact ();
  let t0 = now () in
  let _ = split_run w.policy inst jobs in
  let split_untraced_s = secs_since t0 in
  Gc.compact ();
  let traced = Tracer.wrap t w.policy in
  let obs = Sched_obs.Obs.create () in
  let t0 = now () in
  let sched, _, live = split_run ~obs ~tracer:t traced inst jobs in
  let split_traced_s = secs_since t0 in
  check "traced schedule equals the untraced run's" (String.equal (digest_of sched) r.digest);
  check "traced live metrics equal the untraced run's" (live_equal live r.live);
  let events =
    Sched_obs.Metric.Counter.value
      (Sched_obs.Registry.counter (Sched_obs.Obs.registry obs) "sched_flat_loop_events_total")
  in
  let busy nm = Tracer.busy_s t nm
  and calls nm = float_of_int t.Tracer.calls.(nm)
  and words nm = t.Tracer.total_words.(nm) in
  (* Read before the stream phase adds spans of the same names. *)
  let feed_s = busy Tracer.feed
  and drain_s = busy Tracer.drain
  and drain_words = words Tracer.drain
  and close_s = busy Tracer.close
  and close_words = words Tracer.close
  and dispatch_s = busy Tracer.dispatch
  and dispatch_calls = calls Tracer.dispatch
  and dispatch_words = words Tracer.dispatch
  and select_s = busy Tracer.select
  and select_calls = calls Tracer.select
  and select_words = words Tracer.select in
  (* The stream phase, traced: the export, checkpoint and restore spans. *)
  Gc.compact ();
  let ts =
    stream_phase ~tracer:t ~entry:w.entry.PR.name ~policy:traced (open_stream traced inst) jobs
  in
  check_stream r ts;
  let n = float_of_int w.n in
  {
    untraced;
    gen_s = busy Tracer.gen;
    gen_words = words Tracer.gen /. n;
    ingest_s = busy Tracer.ingest;
    ingest_words = words Tracer.ingest /. n;
    ingest_live_words;
    split_untraced_s;
    split_traced_s;
    feed_s;
    dispatch_s;
    dispatch_calls;
    dispatch_words;
    select_s;
    select_calls;
    select_words;
    drain_s;
    drain_words;
    events;
    close_s;
    close_words;
    kept_frac = float_of_int (w.n - live.rejection.count) /. n;
    export_s = busy Tracer.export;
    export_lines = float_of_int ts.export_lines;
    export_bytes = float_of_int ts.export_bytes;
    checkpoint_s = busy Tracer.checkpoint;
    checkpoint_bytes = float_of_int ts.checkpoint_bytes;
    fed_at_suspend = float_of_int ts.fed_at_suspend;
    restore_s = busy Tracer.restore;
  }

(* ------------------------------------------------------------------ *)
(* Driving a run                                                       *)

(* Instances per run.  Run seed [s] expands to instance seeds
   [s * instances_per_run + k]; every pass cycles through them, so one
   run averages over several inputs and two runs' medians differ less
   by the luck of one instance. *)
let instances_per_run = 4

let instance_seeds seed = List.init instances_per_run (fun k -> (seed * instances_per_run) + k)

(* A discarded warm-up pass, then whole cycles over the instances —
   every instance weighs the same in a pooled statistic, and every
   deterministic count repeats exactly.  Cycles stop when the elapsed
   time is nearest [seconds]; returns the passes, the warm-up time and
   the measuring time. *)
let cycles ~seconds seeds f =
  let t0 = now () in
  ignore (f (List.hd seeds));
  let warmup_s = secs_since t0 in
  let t0 = now () in
  let rec go acc k =
    let acc = List.fold_left (fun acc s -> f s :: acc) acc seeds in
    let elapsed = secs_since t0 in
    if elapsed +. (elapsed /. float_of_int k /. 2.) >= seconds then (List.rev acc, warmup_s, elapsed)
    else go acc (k + 1)
  in
  go [] 1

let mean l = List.fold_left ( +. ) 0. l /. float_of_int (List.length l)
let median_of f l = Stats.median (Array.of_list (List.map f l))
let metric name unit value = (name, unit, value)

let end_to_end (W w) refs (passes : pass list) =
  let n = float_of_int w.n in
  let med f = median_of f passes in
  let pooled f = Array.concat (List.map f passes) in
  let decisions = pooled (fun p -> p.decisions_us) in
  let first_cycle = List.filteri (fun i _ -> i < instances_per_run) passes in
  [
    metric "jobs_per_s" "1/s"
      (if w.batch_runs > 0 then Stats.median (pooled (fun p -> Array.map (fun t -> n /. t) p.batch_s))
       else med (fun p -> n /. p.stream_s));
    metric "setup_s" "s" (Stats.median (pooled (fun p -> p.setup_s)));
    metric "decision_p50_us" "us" (Stats.percentile decisions 50.);
    metric "decision_p99_us" "us" (Stats.percentile decisions 99.);
    metric "peak_heap_mb" "MB" (med (fun p -> float_of_int (p.peak_heap_words * 8) /. 1e6));
    metric "checkpoint_s" "s" (med (fun p -> p.checkpoint_s));
    metric "restore_s" "s" (med (fun p -> p.restore_s));
    metric "checkpoint_mb" "MB"
      (mean (List.map (fun (p : pass) -> float_of_int p.checkpoint_bytes /. 1e6) first_cycle));
    metric "objective_ratio" "ratio" (mean (List.map (fun r -> r.objective_ratio) refs));
    metric "rejected_frac" "fraction" (mean (List.map (fun r -> r.rejected_frac) refs));
  ]

(* Every per-layer value is a mean over the traced rounds, which come in
   whole cycles: call, event and byte counts repeat exactly per seed. *)
let per_layer (W w) (rounds : round list) =
  let n = float_of_int w.n in
  let avg f = mean (List.map f rounds) in
  let gc f = avg (fun r -> f r.untraced.gc1 -. f r.untraced.gc0) in
  [
    metric "gen.busy_s" "s" (avg (fun r -> r.gen_s));
    metric "gen.minor_words_per_job" "words" (avg (fun r -> r.gen_words));
    metric "ingest.busy_s" "s" (avg (fun r -> r.ingest_s));
    metric "ingest.minor_words_per_job" "words" (avg (fun r -> r.ingest_words));
    metric "ingest.live_words_per_job" "words" (avg (fun r -> r.ingest_live_words /. n));
    metric "ingest.session_feed_s" "s" (avg (fun r -> r.feed_s));
    metric "dispatch.busy_s" "s" (avg (fun r -> r.dispatch_s));
    metric "dispatch.calls" "count" (avg (fun r -> r.dispatch_calls));
    metric "dispatch.minor_words_per_call" "words" (avg (fun r -> r.dispatch_words /. r.dispatch_calls));
    metric "dispatch.kept_frac" "fraction" (avg (fun r -> r.kept_frac));
    metric "dispatch.share" "fraction" (avg (fun r -> r.dispatch_s /. r.split_traced_s));
    metric "select.busy_s" "s" (avg (fun r -> r.select_s));
    metric "select.calls" "count" (avg (fun r -> r.select_calls));
    metric "select.minor_words_per_call" "words" (avg (fun r -> r.select_words /. r.select_calls));
    metric "loop.self_s" "s" (avg (fun r -> r.drain_s -. r.dispatch_s -. r.select_s));
    metric "loop.events" "count" (avg (fun r -> r.events));
    metric "loop.minor_words_per_event" "words"
      (avg (fun r -> (r.drain_words -. r.dispatch_words -. r.select_words) /. r.events));
    metric "close.busy_s" "s" (avg (fun r -> r.close_s));
    metric "close.minor_words" "words" (avg (fun r -> r.close_words));
    metric "export.busy_s" "s" (avg (fun r -> r.export_s));
    metric "export.lines" "count" (avg (fun r -> r.export_lines));
    metric "export.bytes" "B" (avg (fun r -> r.export_bytes));
    metric "checkpoint.busy_s" "s" (avg (fun r -> r.checkpoint_s));
    metric "checkpoint.bytes" "B" (avg (fun r -> r.checkpoint_bytes));
    metric "checkpoint.bytes_per_fed_job" "B" (avg (fun r -> r.checkpoint_bytes /. r.fed_at_suspend));
    metric "restore.busy_s" "s" (avg (fun r -> r.restore_s));
    metric "gc.minor_collections" "count" (gc (fun s -> float_of_int s.Gc.minor_collections));
    metric "gc.major_collections" "count" (gc (fun s -> float_of_int s.Gc.major_collections));
    metric "gc.minor_words_per_job" "words" (gc (fun s -> s.Gc.minor_words) /. n);
    metric "gc.promoted_words_per_job" "words" (gc (fun s -> s.Gc.promoted_words) /. n);
    metric "trace.overhead_ratio" "ratio" (avg (fun r -> r.split_traced_s /. r.split_untraced_s));
  ]

let provenance (W w) ~seed ~seconds ~trace ~count refs extra =
  J.Obj
    ([
       ("workload", J.String w.name);
       ("seed", J.Int seed);
       ("instance_seeds", J.List (List.map (fun s -> J.Int s) (instance_seeds seed)));
       ("n", J.Int w.n);
       ("m", J.Int w.m);
       ("policy", J.String w.entry.PR.name);
       ("eps", J.Float PR.eps);
       ("generator", J.String w.gen.Sched_workload.Gen.name);
       ("seconds", J.Float seconds);
       ("trace", J.Bool trace);
       ("passes", J.Int count);
       ("nproc", J.Int (Domain.recommended_domain_count ()));
       ("ocaml", J.String Sys.ocaml_version);
       ("schedule_digests", J.List (List.map (fun r -> J.String r.digest) refs));
     ]
    @ extra)

let tail_json samples =
  [
    ("decision_samples", J.Int samples);
    ("tail_percentile", match Stats.tail_percentile samples with Some q -> J.Float q | None -> J.Null);
  ]

let run (W w) ~seed ~seconds ~trace ~spans_dir =
  let seeds = instance_seeds seed in
  let t0 = now () in
  let refs = List.map (fun s -> (s, reference (W w) (Sched_workload.Gen.instance w.gen ~seed:s))) seeds in
  let reference_s = secs_since t0 in
  let ref_of s = List.assoc s refs and refs = List.map snd refs in
  let out extra = print_endline (J.to_string (J.Obj extra)) in
  let timing warmup_s measure_s =
    [
      ("reference_s", J.Float reference_s);
      ("warmup_s", J.Float warmup_s);
      ("measure_s", J.Float measure_s);
    ]
  in
  if trace then begin
    let t = Tracer.create () in
    let rounds, warmup_s, measure_s =
      cycles ~seconds seeds (fun s -> traced_round (W w) ~seed:s (ref_of s) t)
    in
    (try
       if not (Sys.file_exists spans_dir) then Sys.mkdir spans_dir 0o755;
       Tracer.write t (Filename.concat spans_dir (Printf.sprintf "%s-seed%d.tsv" w.name seed))
     with Sys_error msg -> prerr_endline ("perfbench: spans not written: " ^ msg));
    out
      [
        ( "provenance",
          provenance (W w) ~seed ~seconds ~trace ~count:(List.length rounds) refs
            ((("spans_last_round", J.Int t.Tracer.len) :: tail_json w.n)
            @ timing warmup_s measure_s) );
      ];
    per_layer (W w) rounds
  end
  else begin
    let passes, warmup_s, measure_s =
      cycles ~seconds seeds (fun s -> measured_pass (W w) ~seed:s (ref_of s))
    in
    let samples = w.n * List.length passes in
    check "the decision samples support a p99"
      (match Stats.tail_percentile samples with Some q -> q >= 99. | None -> false);
    let col f = J.List (List.map (fun p -> J.Float (f p)) passes) in
    out
      [
        ( "provenance",
          provenance (W w) ~seed ~seconds ~trace ~count:(List.length passes) refs
            (tail_json samples @ timing warmup_s measure_s) );
        ( "passes",
          J.Obj
            [
              ("setup_s", col (fun p -> Stats.median p.setup_s));
              ("batch_s", J.List (List.map (fun p -> J.List (List.map (fun t -> J.Float t) (Array.to_list p.batch_s))) passes));
              ("stream_s", col (fun p -> p.stream_s));
              ("p50_us", col (fun p -> Stats.percentile p.decisions_us 50.));
              ("p99_us", col (fun p -> Stats.percentile p.decisions_us 99.));
              ("checkpoint_s", col (fun p -> p.checkpoint_s));
              ("restore_s", col (fun p -> p.restore_s));
              ("peak_heap_words", col (fun p -> float_of_int p.peak_heap_words));
            ] );
      ];
    end_to_end (W w) refs passes
  end

let result ~metrics =
  J.Obj
    [
      ("correct", J.Bool (!failed = 0 && !attempted > 0));
      ("attempted", J.Int !attempted);
      ("failed", J.Int !failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, unit, value) ->
               assert (Stats.valid_name name && Stats.valid_unit unit);
               (name, J.Obj [ ("value", J.Float value); ("unit", J.String unit) ]))
             metrics) );
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spans_dir = ref (Filename.concat "perfbench" "out") in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  batch_m16 | batch_m512 | serve_m64");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  measuring time per run");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end metrics (0) or the per-layer ledger (1)");
      ("--spans-dir", Arg.Set_string spans_dir, "DIR  where a traced run writes its spans");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match List.find_opt (fun (W w) -> String.equal w.name !workload) workloads with
    | Some w -> w
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "perfbench: --trace must be 0 or 1";
    exit 2
  end;
  if !seed < 0 then begin
    prerr_endline "perfbench: --seed must be >= 0";
    exit 2
  end;
  let metrics =
    try run w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~spans_dir:!spans_dir
    with e ->
      fail ("run aborted: " ^ Printexc.to_string e);
      []
  in
  List.iter (fun e -> prerr_endline ("perfbench: " ^ e)) (List.rev !errors);
  print_endline (J.to_string (result ~metrics));
  exit (if !failed = 0 then 0 else 1)
