open Sched_model
module Rec = Sched_obs.Recorder

type running = { job : Job.t; started : Time.t; rate : float; finish : Time.t }

(* ------------------------------------------------------------------ *)
(* The driver has two interchangeable cores:

   - [Boxed]: the original implementation over [Job.t] records and
     [Pqueue.Indexed] heaps of boxed keys — the differential reference;
   - [Flat]: the default, running the same event loop over
     [Flat_state]'s struct-of-arrays representation so the steady state
     allocates nothing on the minor heap.

   Both produce byte-identical schedules, traces and telemetry (the
   differential suite pins this across the fuzz corpus and every
   registry policy); policies cannot observe which core is running —
   the [view] accessors below branch on it. *)

type impl = Boxed | Flat

let default_impl_ref = ref Flat
let set_default_impl i = default_impl_ref := i
let default_impl () = !default_impl_ref

(* ------------------------------------------------------------------ *)
(* Indexed pending sets (boxed core).

   Every ordering a policy may query is maintained as a Pqueue.Indexed
   heap over the machine's pending jobs, so insert, arbitrary removal
   (rejection) and head queries are all O(log k) instead of the seed's
   O(k) list scans.  Aggregate pending work/weight are carried
   incrementally for O(1) reads.  The float comparisons deliberately
   mirror the policies' original [<]/[>] comparisons (so e.g. -0. = 0.),
   and key ties fall through to the heap's id tie-break, reproducing the
   "ties by smaller id" convention of every policy order. *)

type pend = {
  by_spt : (Job.t, unit) Pqueue.Indexed.t;  (** (p_ij, release, id) ascending. *)
  by_spt_rev : (Job.t, unit) Pqueue.Indexed.t;  (** Same order, descending. *)
  by_density : (Job.t, unit) Pqueue.Indexed.t;
      (** weight/p_ij descending, ties release then id ascending. *)
  by_size_id : (Job.t, unit) Pqueue.Indexed.t;
      (** (p_ij, id) descending — the weighted Rule 2 victim order. *)
  by_fifo : (Job.t, unit) Pqueue.Indexed.t;  (** (release, id) ascending. *)
  mutable p_work : float;  (** Sum of p_ij over pending jobs. *)
  mutable p_weight : float;  (** Sum of weights over pending jobs. *)
}

let cmp_spt i (a : Job.t) (b : Job.t) =
  let pa = Job.size a i and pb = Job.size b i in
  if pa < pb then -1
  else if pa > pb then 1
  else if a.release < b.release then -1
  else if a.release > b.release then 1
  else 0

(* Reverse of [cmp_spt] including the id: the Rule 2 victim is the *max*
   of (p_ij, release, id), so equal (p, release) resolve to the larger id —
   the explicit flip keeps the heap's ascending-id fallback unreachable. *)
let cmp_spt_rev i (a : Job.t) (b : Job.t) =
  let c = cmp_spt i a b in
  if c <> 0 then -c else Int.compare b.id a.id

let cmp_density i (a : Job.t) (b : Job.t) =
  let da = a.weight /. Job.size a i and db = b.weight /. Job.size b i in
  if da > db then -1
  else if da < db then 1
  else if a.release < b.release then -1
  else if a.release > b.release then 1
  else 0

(* Descending size; equal sizes fall through to the heap's ascending-id
   tie-break, so min_elt is the largest size with the *smallest* id — the
   weighted rule wants the largest id, hence the explicit flip here. *)
let cmp_size_id i (a : Job.t) (b : Job.t) =
  let pa = Job.size a i and pb = Job.size b i in
  if pa > pb then -1 else if pa < pb then 1 else Int.compare b.id a.id

let cmp_fifo (a : Job.t) (b : Job.t) =
  if a.release < b.release then -1 else if a.release > b.release then 1 else 0

let pend_create i =
  {
    by_spt = Pqueue.Indexed.create ~cmp:(cmp_spt i) ();
    by_spt_rev = Pqueue.Indexed.create ~cmp:(cmp_spt_rev i) ();
    by_density = Pqueue.Indexed.create ~cmp:(cmp_density i) ();
    by_size_id = Pqueue.Indexed.create ~cmp:(cmp_size_id i) ();
    by_fifo = Pqueue.Indexed.create ~cmp:cmp_fifo ();
    p_work = 0.;
    p_weight = 0.;
  }

let pend_add p i (j : Job.t) =
  Pqueue.Indexed.add p.by_spt ~id:j.id ~key:j ();
  Pqueue.Indexed.add p.by_spt_rev ~id:j.id ~key:j ();
  Pqueue.Indexed.add p.by_density ~id:j.id ~key:j ();
  Pqueue.Indexed.add p.by_size_id ~id:j.id ~key:j ();
  Pqueue.Indexed.add p.by_fifo ~id:j.id ~key:j ();
  p.p_work <- p.p_work +. Job.size j i;
  p.p_weight <- p.p_weight +. j.weight

let pend_remove p i id =
  match Pqueue.Indexed.remove p.by_spt ~id with
  | None -> None
  | Some (j, ()) ->
      ignore (Pqueue.Indexed.remove p.by_spt_rev ~id);
      ignore (Pqueue.Indexed.remove p.by_density ~id);
      ignore (Pqueue.Indexed.remove p.by_size_id ~id);
      ignore (Pqueue.Indexed.remove p.by_fifo ~id);
      if Pqueue.Indexed.is_empty p.by_spt then begin
        (* Pin the aggregates back to exactly zero so float cancellation
           drift cannot survive an empty queue. *)
        p.p_work <- 0.;
        p.p_weight <- 0.
      end
      else begin
        p.p_work <- p.p_work -. Job.size j i;
        p.p_weight <- p.p_weight -. j.weight
      end;
      Some j

let pend_count p = Pqueue.Indexed.size p.by_spt

type machine_state = {
  mutable m_running : running option;
  mutable m_epoch : int;  (** Invalidates stale finish events after a mid-run
                              rejection. *)
  m_pend : pend;
}

(* ------------------------------------------------------------------ *)
(* Incremental metrics: maintained as outcomes and segments are laid down,
   so no post-hoc pass over the schedule is needed to read the run's
   objective values.  Float accumulation order differs from the post-hoc
   [Metrics] passes, so agreement is exact up to rounding (the
   differential tests pin it at 1e-9 relative). *)

type accum = {
  mutable a_completed : int;
  mutable a_flow : float;
  mutable a_wflow : float;
  mutable a_rej_flow : float;
  mutable a_rej_wflow : float;
  mutable a_max_flow : float;
  mutable a_max_stretch : float;
  mutable a_energy : float;
  mutable a_makespan : float;
  mutable a_rejected : int;
  mutable a_rej_weight : float;
  mutable a_mid_run : int;
}

type location = Unreleased | Pending of Machine.id | Running of Machine.id | Settled

(* Pre-resolved instrument cells: the hot path pays one mutable-field
   write per event, never a registry lookup. *)
type instr = {
  i_sink : Sched_obs.Sink.t;
  c_dispatch : Sched_obs.Metric.Counter.t;
  c_start : Sched_obs.Metric.Counter.t;
  c_complete : Sched_obs.Metric.Counter.t;
  c_reject : Sched_obs.Metric.Counter.t;
  c_reject_midrun : Sched_obs.Metric.Counter.t;
  c_restart : Sched_obs.Metric.Counter.t;
  g_pending : Sched_obs.Metric.Gauge.t array;
  g_inflight : Sched_obs.Metric.Gauge.t array;
}

type state = {
  instance : Instance.t;
  machines : machine_state array;
  loc : location array;  (** Indexed by job id. *)
  mutable clock : Time.t;
  builder : Schedule.builder;
  trace : Trace.t option;
  instr : instr option;
  recorder : Sched_obs.Recorder.t option;
  acc : accum;
  total_weight : float;
  mutable saw_restart : bool;
      (** Set when a running job is killed and requeued; picks the oracle's
          restart relaxation for [?check]. *)
}

(* The read-only window a policy looks through.  Wrapped once per run —
   never per call — so the hot path pays a tag dispatch, not an
   allocation. *)
type view = V_boxed of state | V_flat of Flat_state.t

let now = function V_boxed st -> st.clock | V_flat fs -> Flat_state.clock fs

let running_on v i =
  match v with
  | V_boxed st -> st.machines.(i).m_running
  | V_flat fs ->
      let id = Flat_state.run_job fs i in
      if id < 0 then None
      else
        Some
          {
            job = Flat_state.job fs id;
            started = Flat_state.run_started fs i;
            rate = Flat_state.run_rate fs i;
            finish = Flat_state.run_finish fs i;
          }

let remaining_volume v i =
  match v with
  | V_boxed st -> (
      match st.machines.(i).m_running with
      | None -> 0.
      | Some r -> Float.max 0. ((r.finish -. st.clock) *. r.rate))
  | V_flat fs ->
      if Flat_state.run_job fs i < 0 then 0.
      else
        Float.max 0.
          ((Flat_state.run_finish fs i -. Flat_state.clock fs) *. Flat_state.run_rate fs i)

(* [@inline] here and on [pending_work]: greedy dispatch prices every
   machine with these two, and only an inlined call keeps the float
   result unboxed (the release build; dev's [-opaque] inlines nothing
   across modules). *)
let[@inline] remaining_time v i =
  match v with
  | V_boxed st -> (
      match st.machines.(i).m_running with
      | None -> 0.
      | Some r -> Float.max 0. (r.finish -. st.clock))
  | V_flat fs ->
      if Flat_state.run_job fs i < 0 then 0.
      else Float.max 0. (Flat_state.run_finish fs i -. Flat_state.clock fs)

let pending v i =
  match v with
  | V_boxed st ->
      List.rev
        (Pqueue.Indexed.fold st.machines.(i).m_pend.by_spt ~init:[]
           ~f:(fun acc _ j () -> j :: acc))
  | V_flat fs ->
      let acc = ref [] in
      Flat_state.pend_iter fs i ~f:(fun id -> acc := Flat_state.job fs id :: !acc);
      List.rev !acc

let pending_into v i buf =
  match v with
  | V_boxed st ->
      let q = st.machines.(i).m_pend.by_spt in
      if Pqueue.Indexed.size q > Array.length buf then
        invalid_arg
          (Printf.sprintf "Driver.pending_into: %d pending jobs, buffer holds %d"
             (Pqueue.Indexed.size q) (Array.length buf));
      Pqueue.Indexed.fold q ~init:0 ~f:(fun k _ j () ->
          buf.(k) <- j;
          k + 1)
  | V_flat fs -> Flat_state.pend_into fs i buf

let pending_count v i =
  match v with
  | V_boxed st -> pend_count st.machines.(i).m_pend
  | V_flat fs -> Flat_state.pend_count fs i

let[@inline] pending_work v i =
  match v with
  | V_boxed st -> st.machines.(i).m_pend.p_work
  | V_flat fs -> Flat_state.pend_work fs i

let pending_weight v i =
  match v with
  | V_boxed st -> st.machines.(i).m_pend.p_weight
  | V_flat fs -> Flat_state.pend_weight fs i

let head q = match Pqueue.Indexed.min_elt q with None -> None | Some (_, j, ()) -> Some j
let flat_head fs id = if id < 0 then None else Some (Flat_state.job fs id)

let pending_shortest v i =
  match v with
  | V_boxed st -> head st.machines.(i).m_pend.by_spt
  | V_flat fs -> flat_head fs (Flat_state.head_spt fs i)

let pending_longest v i =
  match v with
  | V_boxed st -> head st.machines.(i).m_pend.by_spt_rev
  | V_flat fs -> flat_head fs (Flat_state.head_spt_rev fs i)

let pending_densest v i =
  match v with
  | V_boxed st -> head st.machines.(i).m_pend.by_density
  | V_flat fs -> flat_head fs (Flat_state.head_density fs i)

let pending_longest_tie_id v i =
  match v with
  | V_boxed st -> head st.machines.(i).m_pend.by_size_id
  | V_flat fs -> flat_head fs (Flat_state.head_size_id fs i)

let pending_earliest v i =
  match v with
  | V_boxed st -> head st.machines.(i).m_pend.by_fifo
  | V_flat fs -> flat_head fs (Flat_state.head_fifo fs i)

type live_metrics = {
  flow : Metrics.flow;
  energy : float;
  rejection : Metrics.rejection;
  makespan : Time.t;
}

let live_of ~completed ~flow ~wflow ~rej_flow ~rej_wflow ~max_flow ~max_stretch ~energy
    ~makespan ~rejected ~rej_weight ~mid_run ~n ~total_weight =
  {
    flow =
      {
        Metrics.total = flow;
        weighted = wflow;
        total_with_rejected = flow +. rej_flow;
        weighted_with_rejected = wflow +. rej_wflow;
        max_flow;
        mean_flow = (if completed = 0 then 0. else flow /. float_of_int completed);
        max_stretch;
      };
    energy;
    rejection =
      {
        Metrics.count = rejected;
        fraction = (if n = 0 then 0. else float_of_int rejected /. float_of_int n);
        weight = rej_weight;
        weight_fraction = (if total_weight = 0. then 0. else rej_weight /. total_weight);
        mid_run;
      };
    makespan;
  }

let live v =
  match v with
  | V_boxed st ->
      let a = st.acc in
      live_of ~completed:a.a_completed ~flow:a.a_flow ~wflow:a.a_wflow
        ~rej_flow:a.a_rej_flow ~rej_wflow:a.a_rej_wflow ~max_flow:a.a_max_flow
        ~max_stretch:a.a_max_stretch ~energy:a.a_energy ~makespan:a.a_makespan
        ~rejected:a.a_rejected ~rej_weight:a.a_rej_weight ~mid_run:a.a_mid_run
        ~n:(Instance.n st.instance) ~total_weight:st.total_weight
  | V_flat fs ->
      live_of ~completed:(Flat_state.completed fs) ~flow:(Flat_state.flow fs)
        ~wflow:(Flat_state.wflow fs) ~rej_flow:(Flat_state.rej_flow fs)
        ~rej_wflow:(Flat_state.rej_wflow fs) ~max_flow:(Flat_state.max_flow fs)
        ~max_stretch:(Flat_state.max_stretch fs) ~energy:(Flat_state.energy fs)
        ~makespan:(Flat_state.makespan fs) ~rejected:(Flat_state.rejected fs)
        ~rej_weight:(Flat_state.rej_weight fs) ~mid_run:(Flat_state.mid_run fs)
        ~n:(Flat_state.n fs) ~total_weight:(Flat_state.total_weight fs)

type decision = { dispatch_to : Machine.id; reject : Job.id list; restart : Job.id list }

let dispatch i = { dispatch_to = i; reject = []; restart = [] }

type start = { job : Job.id; speed : float }

type 'a policy = {
  name : string;
  init : Instance.t -> 'a;
  on_arrival : 'a -> view -> Job.t -> decision;
  select : 'a -> view -> Machine.id -> start option;
}

type event = Arrival of Job.t | Finish of Machine.id * int

(* Event ordering at equal times: completions before arrivals, so that a
   policy dispatching at time t sees machines that just finished as idle;
   within a kind, insertion sequence (deterministic).  The flat core
   realizes the same order by merging a release-ordered arrival cursor
   with its completion heap ([Flat_state.next_event_before]). *)
let tag_finish seq = seq
let tag_arrival seq = (1 lsl 40) + seq

let record st ev = match st.trace with None -> () | Some tr -> Trace.record tr st.clock ev

(* Decision provenance for the flight recorder: the candidate machine
   set behind each dispatch, as a count and an eligibility bitmask (bit
   [i] for machine [i] up to 61; machines beyond that saturate into bit
   62).  One int-only O(m) scan of the job's size row per query, with no
   per-run table setup; both cores call it. *)
let[@rejlint.hot] rec cand_mask (j : Job.t) m k acc =
  if k >= m then acc
  else
    cand_mask j m (k + 1)
      (if Job.eligible j k then acc lor (1 lsl (if k <= 61 then k else 62)) else acc)

let[@rejlint.hot] rec cand_count (j : Job.t) m k acc =
  if k >= m then acc
  else cand_count j m (k + 1) (if Job.eligible j k then acc + 1 else acc)

(* Kernighan popcount: when [m <= 62] no mask bit is shared, so the
   candidate count is the mask's popcount and the second eligibility
   scan (eight more float loads per dispatch in the bench fleet) is
   skipped; the saturated bit-62 case falls back to the full scan. *)
let[@rejlint.hot] rec popcount x acc =
  if x = 0 then acc else popcount (x land (x - 1)) (acc + 1)


(* ------------------------------------------------------------------ *)
(* Telemetry.  When a [Sched_obs.Obs.t] handle is supplied, the driver
   mirrors every trace-worthy event into counters and per-machine gauges
   and times its phases through the handle's sink.  Everything here is
   strictly observational: no value computed below ever flows back into a
   decision, so schedules are byte-identical with telemetry on or off
   (pinned by the differential tests). *)

let phase_on_arrival = "on_arrival"
let phase_select = "select"
let phase_segment = "segment"
let phase_heap = "heap"

let make_instr obs m =
  let reg = Sched_obs.Obs.registry obs in
  let machine_gauge name help =
    Array.init m (fun i ->
        Sched_obs.Registry.gauge reg ~help ~labels:[ ("machine", string_of_int i) ] name)
  in
  {
    i_sink = Sched_obs.Obs.sink obs;
    c_dispatch =
      Sched_obs.Registry.counter reg ~help:"Jobs dispatched to a machine" "sched_dispatch_total";
    c_start = Sched_obs.Registry.counter reg ~help:"Job executions started" "sched_start_total";
    c_complete = Sched_obs.Registry.counter reg ~help:"Jobs completed" "sched_complete_total";
    c_reject = Sched_obs.Registry.counter reg ~help:"Jobs rejected" "sched_reject_total";
    c_reject_midrun =
      Sched_obs.Registry.counter reg ~help:"Rejections that interrupted a running job"
        "sched_reject_midrun_total";
    c_restart =
      Sched_obs.Registry.counter reg ~help:"Running jobs killed and requeued"
        "sched_restart_total";
    g_pending = machine_gauge "sched_pending_jobs" "Dispatched and released, not yet started";
    g_inflight =
      machine_gauge "sched_inflight_jobs" "Dispatched, not yet completed or rejected";
  }

(* Lay down a segment and fold it into the incremental metrics. *)
let lay_segment_raw st (seg : Schedule.segment) =
  Schedule.add_segment st.builder seg;
  let alpha = (Instance.machine st.instance seg.machine).Machine.alpha in
  st.acc.a_energy <- st.acc.a_energy +. ((seg.stop -. seg.start) *. (seg.speed ** alpha));
  if seg.stop > st.acc.a_makespan then st.acc.a_makespan <- seg.stop

let lay_segment st seg =
  match st.instr with
  | None -> lay_segment_raw st seg
  | Some ins ->
      Sched_obs.Sink.time ins.i_sink phase_segment (fun () -> lay_segment_raw st seg)

let account_completion st (j : Job.t) finish =
  let a = st.acc in
  let f = finish -. j.release in
  a.a_completed <- a.a_completed + 1;
  a.a_flow <- a.a_flow +. f;
  a.a_wflow <- a.a_wflow +. (j.weight *. f);
  if f > a.a_max_flow then a.a_max_flow <- f;
  let stretch = f /. Job.min_size j in
  if stretch > a.a_max_stretch then a.a_max_stretch <- stretch

let account_rejection st (j : Job.t) time ~was_running =
  let a = st.acc in
  let f = time -. j.release in
  a.a_rejected <- a.a_rejected + 1;
  a.a_rej_flow <- a.a_rej_flow +. f;
  a.a_rej_wflow <- a.a_rej_wflow +. (j.weight *. f);
  a.a_rej_weight <- a.a_rej_weight +. j.weight;
  if was_running then a.a_mid_run <- a.a_mid_run + 1

let remove_pending st i id =
  match pend_remove st.machines.(i).m_pend i id with
  | Some j -> j
  | None -> invalid_arg (Printf.sprintf "Driver: job %d not pending" id)

let reject_job st id =
  let t = st.clock in
  match st.loc.(id) with
  | Pending i ->
      let j = remove_pending st i id in
      st.loc.(id) <- Settled;
      record st (Trace.Reject { job = id; machine = i; was_running = false; remaining = Job.size j i });
      (match st.instr with
      | None -> ()
      | Some ins ->
          Sched_obs.Metric.Counter.inc ins.c_reject;
          Sched_obs.Metric.Gauge.dec ins.g_pending.(i);
          Sched_obs.Metric.Gauge.dec ins.g_inflight.(i));
      Schedule.set_outcome st.builder id
        (Outcome.Rejected { time = t; assigned_to = Some i; was_running = false });
      account_rejection st j t ~was_running:false;
      (match st.recorder with
      | None -> ()
      | Some rc ->
          let s = Rec.reserve_reject rc ~job:id ~machine:i ~was_running:false
              ~rejected:st.acc.a_rejected in
          rc.Rec.floats.(s + Rec.o_time) <- t;
          rc.Rec.floats.(s + Rec.o_value) <- Job.size j i;
          rc.Rec.floats.(s + Rec.o_budget) <- st.acc.a_rej_weight);
      i
  | Running i ->
      let ms = st.machines.(i) in
      let r = match ms.m_running with Some r -> r | None -> assert false in
      assert (r.job.Job.id = id);
      ms.m_running <- None;
      ms.m_epoch <- ms.m_epoch + 1;
      st.loc.(id) <- Settled;
      let was_running = Time.gt t r.started in
      if was_running then
        lay_segment st
          { Schedule.job = id; machine = i; start = r.started; stop = t; speed = r.rate };
      let remaining = Float.max 0. ((r.finish -. t) *. r.rate) in
      record st (Trace.Reject { job = id; machine = i; was_running; remaining });
      (match st.instr with
      | None -> ()
      | Some ins ->
          Sched_obs.Metric.Counter.inc ins.c_reject;
          if was_running then Sched_obs.Metric.Counter.inc ins.c_reject_midrun;
          Sched_obs.Metric.Gauge.dec ins.g_inflight.(i));
      Schedule.set_outcome st.builder id
        (Outcome.Rejected { time = t; assigned_to = Some i; was_running });
      account_rejection st r.job t ~was_running;
      (match st.recorder with
      | None -> ()
      | Some rc ->
          let s = Rec.reserve_reject rc ~job:id ~machine:i ~was_running
              ~rejected:st.acc.a_rejected in
          rc.Rec.floats.(s + Rec.o_time) <- t;
          rc.Rec.floats.(s + Rec.o_value) <- remaining;
          rc.Rec.floats.(s + Rec.o_budget) <- st.acc.a_rej_weight);
      i
  | Unreleased -> invalid_arg (Printf.sprintf "Driver: rejecting unreleased job %d" id)
  | Settled -> invalid_arg (Printf.sprintf "Driver: rejecting settled job %d" id)

(* Kill a running job and return it (full size again) to the pending
   queue; its partial segment is kept for the wasted-work record. *)
let restart_job st id =
  let t = st.clock in
  match st.loc.(id) with
  | Running i ->
      let ms = st.machines.(i) in
      let r = match ms.m_running with Some r -> r | None -> assert false in
      assert (r.job.Job.id = id);
      ms.m_running <- None;
      ms.m_epoch <- ms.m_epoch + 1;
      if Time.gt t r.started then
        lay_segment st
          { Schedule.job = id; machine = i; start = r.started; stop = t; speed = r.rate };
      let wasted = Float.max 0. ((t -. r.started) *. r.rate) in
      st.saw_restart <- true;
      record st (Trace.Restart { job = id; machine = i; wasted });
      (match st.recorder with
      | None -> ()
      | Some rc ->
          let s = Rec.reserve_restart rc ~job:id ~machine:i in
          rc.Rec.floats.(s + Rec.o_time) <- t;
          rc.Rec.floats.(s + Rec.o_value) <- wasted);
      (match st.instr with
      | None -> ()
      | Some ins ->
          Sched_obs.Metric.Counter.inc ins.c_restart;
          Sched_obs.Metric.Gauge.inc ins.g_pending.(i));
      pend_add ms.m_pend i r.job;
      st.loc.(id) <- Pending i;
      i
  | Pending _ | Unreleased | Settled ->
      invalid_arg (Printf.sprintf "Driver: restarting job %d that is not running" id)

let try_start st vw queue seq policy pstate i =
  let ms = st.machines.(i) in
  match ms.m_running with
  | Some _ -> ()
  | None ->
      if pend_count ms.m_pend > 0 then begin
        let choice =
          match st.instr with
          | None -> policy.select pstate vw i
          | Some ins ->
              Sched_obs.Sink.time ins.i_sink phase_select (fun () -> policy.select pstate vw i)
        in
        match choice with
        | None -> ()
        | Some { job; speed } ->
            if speed <= 0. || not (Float.is_finite speed) then
              invalid_arg (Printf.sprintf "Driver: policy %s chose speed %g" policy.name speed);
            (match st.loc.(job) with
            | Pending i' when i' = i -> ()
            | _ -> invalid_arg (Printf.sprintf "Driver: job %d is not pending on machine %d" job i));
            let j = remove_pending st i job in
            let machine = Instance.machine st.instance i in
            let rate = speed *. machine.Machine.speed in
            let size = Job.size j i in
            if not (Float.is_finite size) then
              invalid_arg (Printf.sprintf "Driver: starting job %d on ineligible machine %d" job i);
            let finish = st.clock +. (size /. rate) in
            ms.m_running <- Some { job = j; started = st.clock; rate; finish };
            st.loc.(job) <- Running i;
            record st (Trace.Start { job; machine = i; speed = rate });
            (match st.recorder with
            | None -> ()
            | Some rc ->
                let s = Rec.reserve_start rc ~job ~machine:i in
                rc.Rec.floats.(s + Rec.o_time) <- st.clock;
                rc.Rec.floats.(s + Rec.o_value) <- rate;
                rc.Rec.floats.(s + Rec.o_score) <- size);
            (match st.instr with
            | None -> ()
            | Some ins ->
                Sched_obs.Metric.Counter.inc ins.c_start;
                Sched_obs.Metric.Gauge.dec ins.g_pending.(i));
            incr seq;
            Pqueue.push queue ~key:finish ~tag:(tag_finish !seq) (Finish (i, ms.m_epoch))
      end

(* Post-run oracle audit for [?check].  The oracle re-derives every
   invariant from scratch (independent of [Schedule.validate] and of the
   incremental accumulators), so a pass here really is a second opinion. *)
let audit ?obs ?recorder ~name ~saw_restart lm schedule =
  let snap =
    {
      Sched_check.Oracle.flow = lm.flow;
      energy = lm.energy;
      rejection = lm.rejection;
      makespan = lm.makespan;
    }
  in
  let mode = Sched_check.Oracle.mode ~allow_restarts:saw_restart () in
  let vs = Sched_check.Oracle.check ~mode ~live:snap schedule in
  (match obs with
  | Some o -> Sched_check.Check_obs.record (Sched_obs.Obs.registry o) vs
  | None -> ());
  (* With a flight recorder attached, a violation carries its forensics:
     the last recorded decisions, as trace/2 NDJSON, appended to the
     oracle's message. *)
  match recorder with
  | None -> Sched_check.Oracle.assert_clean ~what:name vs
  | Some rc -> (
      try Sched_check.Oracle.assert_clean ~what:name vs
      with Sched_check.Oracle.Violations (what, vs) ->
        raise
          (Sched_check.Oracle.Violations
             ( what ^ "\n-- flight recorder tail --\n"
               ^ Trace_export.recorder_to_ndjson ~last:32 rc,
               vs )))

let run_boxed ?trace ?obs ?recorder ?(check = false) policy instance =
  let m = Instance.m instance in
  let st =
    {
      instance;
      machines =
        Array.init m (fun i -> { m_running = None; m_epoch = 0; m_pend = pend_create i });
      loc = Array.make (Instance.n instance) Unreleased;
      clock = 0.;
      builder = Schedule.builder instance;
      trace;
      instr = (match obs with None -> None | Some o -> Some (make_instr o m));
      recorder;
      acc =
        {
          a_completed = 0;
          a_flow = 0.;
          a_wflow = 0.;
          a_rej_flow = 0.;
          a_rej_wflow = 0.;
          a_max_flow = 0.;
          a_max_stretch = 0.;
          a_energy = 0.;
          a_makespan = 0.;
          a_rejected = 0;
          a_rej_weight = 0.;
          a_mid_run = 0;
        };
      total_weight = Instance.total_weight instance;
      saw_restart = false;
    }
  in
  let vw = V_boxed st in
  let pstate = policy.init instance in
  let queue = Pqueue.create () in
  let seq = ref 0 in
  Array.iter
    (fun (j : Job.t) ->
      incr seq;
      Pqueue.push queue ~key:j.release ~tag:(tag_arrival !seq) (Arrival j))
    (Instance.jobs_by_release instance);
  let pop =
    match st.instr with
    | None -> fun () -> Pqueue.pop queue
    | Some ins ->
        fun () -> Sched_obs.Sink.time ins.i_sink phase_heap (fun () -> Pqueue.pop queue)
  in
  let rec loop () =
    match pop () with
    | None -> ()
    | Some (time, _, ev) ->
        st.clock <- Float.max st.clock time;
        (match ev with
        | Finish (i, epoch) ->
            let ms = st.machines.(i) in
            (match ms.m_running with
            | Some r when ms.m_epoch = epoch ->
                let id = r.job.Job.id in
                ms.m_running <- None;
                lay_segment st
                  { Schedule.job = id; machine = i; start = r.started; stop = r.finish; speed = r.rate };
                Schedule.set_outcome st.builder id
                  (Outcome.Completed { machine = i; start = r.started; speed = r.rate; finish = r.finish });
                account_completion st r.job r.finish;
                st.loc.(id) <- Settled;
                record st (Trace.Complete { job = id; machine = i });
                (match st.recorder with
                | None -> ()
                | Some rc ->
                    let s = Rec.reserve_complete rc ~job:id ~machine:i in
                    rc.Rec.floats.(s + Rec.o_time) <- st.clock;
                    rc.Rec.floats.(s + Rec.o_value) <- r.finish -. r.job.Job.release);
                (match st.instr with
                | None -> ()
                | Some ins ->
                    Sched_obs.Metric.Counter.inc ins.c_complete;
                    Sched_obs.Metric.Gauge.dec ins.g_inflight.(i));
                try_start st vw queue seq policy pstate i
            | _ -> () (* Stale event: the job was rejected mid-run. *))
        | Arrival j ->
            let decision =
              match st.instr with
              | None -> policy.on_arrival pstate vw j
              | Some ins ->
                  Sched_obs.Sink.time ins.i_sink phase_on_arrival (fun () ->
                      policy.on_arrival pstate vw j)
            in
            let i = decision.dispatch_to in
            if i < 0 || i >= m then
              invalid_arg (Printf.sprintf "Driver: policy %s dispatched to machine %d" policy.name i);
            if not (Job.eligible j i) then
              invalid_arg
                (Printf.sprintf "Driver: policy %s dispatched job %d to ineligible machine %d"
                   policy.name j.id i);
            (match st.recorder with
            | None -> ()
            | Some rc ->
                let work = st.machines.(i).m_pend.p_work in
                let rem =
                  match st.machines.(i).m_running with
                  | None -> 0.
                  | Some ru ->
                      let r = (ru.finish -. st.clock) *. ru.rate in
                      if r > 0. then r else 0.
                in
                let mask = cand_mask j m 0 0 in
                let cands = if m <= 62 then popcount mask 0 else cand_count j m 0 0 in
                let s = Rec.reserve_dispatch rc ~job:j.id ~machine:i ~cands ~mask in
                rc.Rec.floats.(s + Rec.o_time) <- st.clock;
                rc.Rec.floats.(s + Rec.o_value) <- work;
                rc.Rec.floats.(s + Rec.o_score) <- work +. rem);
            pend_add st.machines.(i).m_pend i j;
            st.loc.(j.id) <- Pending i;
            record st (Trace.Dispatch { job = j.id; machine = i });
            (match st.instr with
            | None -> ()
            | Some ins ->
                Sched_obs.Metric.Counter.inc ins.c_dispatch;
                Sched_obs.Metric.Gauge.inc ins.g_pending.(i);
                Sched_obs.Metric.Gauge.inc ins.g_inflight.(i));
            let touched = List.map (reject_job st) decision.reject in
            let touched = touched @ List.map (restart_job st) decision.restart in
            List.iter
              (try_start st vw queue seq policy pstate)
              (List.sort_uniq Int.compare (i :: touched)));
        loop ()
  in
  loop ();
  (* A machine can only be idle with pending jobs if the policy returned
     [None] from [select]; then those jobs never finish.  Surface it. *)
  Array.iteri
    (fun i ms ->
      if pend_count ms.m_pend > 0 || ms.m_running <> None then
        invalid_arg
          (Printf.sprintf "Driver: policy %s left work unfinished on machine %d" policy.name i))
    st.machines;
  let schedule = Schedule.finalize st.builder in
  if check then
    audit ?obs ?recorder ~name:policy.name ~saw_restart:st.saw_restart (live vw) schedule;
  (schedule, pstate, vw)

(* ------------------------------------------------------------------ *)
(* The flat core.  Same event loop, same validation, same trace/telemetry
   sites, same float-operation order — but over [Flat_state]'s unboxed
   arrays, so the steady state allocates nothing beyond what the policy
   itself builds.  Every step below is a mirror of a [run_boxed] step;
   when editing one, edit both. *)

let c_flat_minor_words_name = "sched_flat_loop_minor_words_total"
let c_flat_events_name = "sched_flat_loop_events_total"

(* The flat core's per-event handlers, closed over one simulation's
   state.  Every mutation below happens in exactly the order [run_boxed]
   performs it; byte-identity is pinned by the differential suites. *)
let make_flat_handlers ?trace ?recorder ~instr fs policy pstate vw =
  let m = Flat_state.m fs in
  let lay_segment ~job ~machine ~start ~stop ~speed =
    match instr with
    | None -> Flat_state.lay_segment fs ~job ~machine ~start ~stop ~speed
    | Some ins ->
        Sched_obs.Sink.time ins.i_sink phase_segment (fun () ->
            Flat_state.lay_segment fs ~job ~machine ~start ~stop ~speed)
  in
  (* [@rejlint.hot]: RJL103 statically proves these four loop bodies
     build no structures; the trace/instrumentation/failure arms that do
     allocate are individually marked [@rejlint.cold] (off in the
     steady state the dynamic minor-words ceiling measures). *)
  let[@rejlint.hot] reject_job id =
    let t = Flat_state.clock fs in
    let l = Flat_state.loc fs id in
    if Flat_state.loc_is_pending l then begin
      let i = Flat_state.loc_machine l in
      if not (Flat_state.pend_remove fs i id) then
        (invalid_arg (Printf.sprintf "Driver: job %d not pending" id) [@rejlint.cold]);
      Flat_state.set_loc fs id Flat_state.loc_settled;
      (* Read while the job is live: under rolling retirement its outcome
         drops the handle, and with it the size row. *)
      let size = Flat_state.size fs ~machine:i ~job:id in
      (match trace with
      | None -> ()
      | Some tr ->
          (Trace.record tr t
             (Trace.Reject { job = id; machine = i; was_running = false; remaining = size })
          [@rejlint.cold]));
      (match instr with
      | None -> ()
      | Some ins ->
          Sched_obs.Metric.Counter.inc ins.c_reject;
          Sched_obs.Metric.Gauge.dec ins.g_pending.(i);
          Sched_obs.Metric.Gauge.dec ins.g_inflight.(i));
      Flat_state.outcome_rejected fs ~job:id ~machine:i ~time:t ~was_running:false;
      Flat_state.account_rejection fs id t ~was_running:false;
      (match recorder with
      | None -> ()
      | Some rc ->
          let s = Rec.reserve_reject rc ~job:id ~machine:i ~was_running:false
              ~rejected:(Flat_state.rejected fs) in
          rc.Rec.floats.(s + Rec.o_time) <- t;
          rc.Rec.floats.(s + Rec.o_value) <- size;
          rc.Rec.floats.(s + Rec.o_budget) <- Flat_state.rej_weight fs);
      i
    end
    else if Flat_state.loc_is_running l then begin
      let i = Flat_state.loc_machine l in
      let started = Flat_state.run_started fs i
      and rate = Flat_state.run_rate fs i
      and fin = Flat_state.run_finish fs i in
      Flat_state.clear_running fs i;
      Flat_state.bump_epoch fs i;
      Flat_state.set_loc fs id Flat_state.loc_settled;
      let was_running = Time.gt t started in
      if was_running then
        lay_segment ~job:id ~machine:i ~start:started ~stop:t ~speed:rate;
      let remaining = Float.max 0. ((fin -. t) *. rate) in
      (match trace with
      | None -> ()
      | Some tr ->
          (Trace.record tr t (Trace.Reject { job = id; machine = i; was_running; remaining })
          [@rejlint.cold]));
      (match instr with
      | None -> ()
      | Some ins ->
          Sched_obs.Metric.Counter.inc ins.c_reject;
          if was_running then Sched_obs.Metric.Counter.inc ins.c_reject_midrun;
          Sched_obs.Metric.Gauge.dec ins.g_inflight.(i));
      Flat_state.outcome_rejected fs ~job:id ~machine:i ~time:t ~was_running;
      Flat_state.account_rejection fs id t ~was_running;
      (match recorder with
      | None -> ()
      | Some rc ->
          let s = Rec.reserve_reject rc ~job:id ~machine:i ~was_running
              ~rejected:(Flat_state.rejected fs) in
          rc.Rec.floats.(s + Rec.o_time) <- t;
          rc.Rec.floats.(s + Rec.o_value) <- remaining;
          rc.Rec.floats.(s + Rec.o_budget) <- Flat_state.rej_weight fs);
      i
    end
    else if l = Flat_state.loc_unreleased then
      (invalid_arg (Printf.sprintf "Driver: rejecting unreleased job %d" id) [@rejlint.cold])
    else (invalid_arg (Printf.sprintf "Driver: rejecting settled job %d" id) [@rejlint.cold])
  in
  let[@rejlint.hot] restart_job id =
    let t = Flat_state.clock fs in
    let l = Flat_state.loc fs id in
    if Flat_state.loc_is_running l then begin
      let i = Flat_state.loc_machine l in
      let started = Flat_state.run_started fs i and rate = Flat_state.run_rate fs i in
      Flat_state.clear_running fs i;
      Flat_state.bump_epoch fs i;
      if Time.gt t started then lay_segment ~job:id ~machine:i ~start:started ~stop:t ~speed:rate;
      let wasted = Float.max 0. ((t -. started) *. rate) in
      Flat_state.set_saw_restart fs;
      (match trace with
      | None -> ()
      | Some tr ->
          (Trace.record tr t (Trace.Restart { job = id; machine = i; wasted }) [@rejlint.cold]));
      (match recorder with
      | None -> ()
      | Some rc ->
          let s = Rec.reserve_restart rc ~job:id ~machine:i in
          rc.Rec.floats.(s + Rec.o_time) <- t;
          rc.Rec.floats.(s + Rec.o_value) <- wasted);
      (match instr with
      | None -> ()
      | Some ins ->
          Sched_obs.Metric.Counter.inc ins.c_restart;
          Sched_obs.Metric.Gauge.inc ins.g_pending.(i));
      Flat_state.pend_add fs i id;
      Flat_state.set_loc fs id (Flat_state.loc_pending ~machine:i);
      i
    end
    else (invalid_arg (Printf.sprintf "Driver: restarting job %d that is not running" id)
         [@rejlint.cold])
  in
  let[@rejlint.hot] try_start i =
    if Flat_state.run_job fs i < 0 && Flat_state.pend_count fs i > 0 then begin
      let choice =
        match instr with
        | None -> policy.select pstate vw i
        | Some ins ->
            (Sched_obs.Sink.time ins.i_sink phase_select (fun () -> policy.select pstate vw i)
            [@rejlint.cold])
      in
      match choice with
      | None -> ()
      | Some { job; speed } ->
          if speed <= 0. || not (Float.is_finite speed) then
            (invalid_arg (Printf.sprintf "Driver: policy %s chose speed %g" policy.name speed)
            [@rejlint.cold]);
          let l = Flat_state.loc fs job in
          if not (Flat_state.loc_is_pending l && Flat_state.loc_machine l = i) then
            (invalid_arg (Printf.sprintf "Driver: job %d is not pending on machine %d" job i)
            [@rejlint.cold]);
          if not (Flat_state.pend_remove fs i job) then
            (invalid_arg (Printf.sprintf "Driver: job %d not pending" job) [@rejlint.cold]);
          let rate = speed *. Flat_state.mach_speed fs i in
          let size = Flat_state.size fs ~machine:i ~job in
          if not (Float.is_finite size) then
            (invalid_arg (Printf.sprintf "Driver: starting job %d on ineligible machine %d" job i)
            [@rejlint.cold]);
          let clock = Flat_state.clock fs in
          let finish = clock +. (size /. rate) in
          Flat_state.set_running fs i ~job ~started:clock ~rate ~finish;
          Flat_state.set_loc fs job (Flat_state.loc_running ~machine:i);
          (match trace with
          | None -> ()
          | Some tr ->
              (Trace.record tr clock (Trace.Start { job; machine = i; speed = rate })
              [@rejlint.cold]));
          (match recorder with
          | None -> ()
          | Some rc ->
              let s = Rec.reserve_start rc ~job ~machine:i in
              rc.Rec.floats.(s + Rec.o_time) <- clock;
              rc.Rec.floats.(s + Rec.o_value) <- rate;
              rc.Rec.floats.(s + Rec.o_score) <- size);
          (match instr with
          | None -> ()
          | Some ins ->
              Sched_obs.Metric.Counter.inc ins.c_start;
              Sched_obs.Metric.Gauge.dec ins.g_pending.(i));
          Flat_state.push_finish fs ~machine:i ~time:finish
    end
  in
  let[@rejlint.hot] commit_arrival (j : Job.t) decision =
    let id = j.Job.id in
    let i = decision.dispatch_to in
        if i < 0 || i >= m then
          (invalid_arg
             (Printf.sprintf "Driver: policy %s dispatched to machine %d" policy.name i)
          [@rejlint.cold]);
        if not (Flat_state.eligible fs ~machine:i ~job:id) then
          (invalid_arg
             (Printf.sprintf "Driver: policy %s dispatched job %d to ineligible machine %d"
                policy.name id i) [@rejlint.cold]);
        (match recorder with
        | None -> ()
        | Some rc ->
            let mask = cand_mask j m 0 0 in
            let cands = if m <= 62 then popcount mask 0 else cand_count j m 0 0 in
            let s = Rec.reserve_dispatch rc ~job:id ~machine:i ~cands ~mask in
            let work = Flat_state.pend_work fs i in
            let rem =
              if Flat_state.run_job fs i < 0 then 0.
              else begin
                let r =
                  (Flat_state.run_finish fs i -. Flat_state.clock fs)
                  *. Flat_state.run_rate fs i
                in
                if r > 0. then r else 0.
              end
            in
            rc.Rec.floats.(s + Rec.o_time) <- Flat_state.clock fs;
            rc.Rec.floats.(s + Rec.o_value) <- work;
            rc.Rec.floats.(s + Rec.o_score) <- work +. rem);
        Flat_state.pend_add fs i id;
        Flat_state.set_loc fs id (Flat_state.loc_pending ~machine:i);
        (match trace with
        | None -> ()
        | Some tr ->
            (Trace.record tr (Flat_state.clock fs) (Trace.Dispatch { job = id; machine = i })
            [@rejlint.cold]));
        (match instr with
        | None -> ()
        | Some ins ->
            Sched_obs.Metric.Counter.inc ins.c_dispatch;
            Sched_obs.Metric.Gauge.inc ins.g_pending.(i);
            Sched_obs.Metric.Gauge.inc ins.g_inflight.(i));
        (* The scrutinee avoids pairing the two lists up: a tuple pattern
           match would compile allocation-free anyway, but the static
           proof is structural and cannot assume that optimization. *)
        match decision.reject with
        | [] when decision.restart = [] ->
            (* [sort_uniq [i] = [i]]: the common no-rejection case skips
               the list plumbing but starts exactly the same machine. *)
            try_start i
        | _ ->
            (* Rejection path: list plumbing is O(#rejections), not
               O(#events), so it may allocate. *)
            ((let touched = List.map reject_job decision.reject in
              let touched = touched @ List.map restart_job decision.restart in
              List.iter try_start (List.sort_uniq Int.compare (i :: touched)))
            [@rejlint.cold])
  in
  let[@rejlint.hot] commit_finish i epoch =
    let id = Flat_state.run_job fs i in
    if id >= 0 && Flat_state.epoch fs i = epoch then begin
      let started = Flat_state.run_started fs i
      and rate = Flat_state.run_rate fs i
      and fin = Flat_state.run_finish fs i in
      Flat_state.clear_running fs i;
      lay_segment ~job:id ~machine:i ~start:started ~stop:fin ~speed:rate;
      Flat_state.outcome_completed fs ~job:id ~machine:i ~start:started ~speed:rate ~finish:fin;
      Flat_state.account_completion fs id fin;
      Flat_state.set_loc fs id Flat_state.loc_settled;
      (match trace with
      | None -> ()
      | Some tr ->
          (Trace.record tr (Flat_state.clock fs) (Trace.Complete { job = id; machine = i })
          [@rejlint.cold]));
      (match recorder with
      | None -> ()
      | Some rc ->
          let s = Rec.reserve_complete rc ~job:id ~machine:i in
          rc.Rec.floats.(s + Rec.o_time) <- Flat_state.clock fs;
          rc.Rec.floats.(s + Rec.o_value) <- fin -. Flat_state.release fs id);
      (match instr with
      | None -> ()
      | Some ins ->
          Sched_obs.Metric.Counter.inc ins.c_complete;
          Sched_obs.Metric.Gauge.dec ins.g_inflight.(i));
      try_start i
    end
    (* else: stale event, the job was rejected mid-run. *)
  in
  (commit_arrival, commit_finish)

(* ------------------------------------------------------------------ *)
(* The incremental session: the flat core as a long-lived engine.
   [run_flat] below is a thin wrapper — open, feed every job, close — so
   the batch path is literally a replay of the session path and every
   batch differential gate also pins this machinery.

   Why streaming is byte-identical to batch: at equal keys a completion
   always pops before an arrival, so cross-kind ordering never consults
   the sequence number; arrivals pop in feed order, which [feed] pins to
   [(release, id)] — the batch run's order — and completions are
   scheduled in identical pop order, inductively.  The feed contract — a
   job's arrival must reach the cursor before any drain passes its
   release, enforced by the drained-horizon check — is therefore exactly
   the condition under which the pop sequence, and hence schedule,
   trace, recorder ring and live metrics, coincide with the
   uninterrupted batch run's, byte for byte. *)

type 'a session = {
  ss_policy : 'a policy;
  ss_pstate : 'a;
  ss_fs : Flat_state.t;
  ss_view : view;
  ss_trace : Trace.t option;
  ss_recorder : Rec.t option;
  ss_obs : Sched_obs.Obs.t option;
  ss_instr : instr option;
  ss_check : bool;
  ss_commit_arrival : Job.t -> decision -> unit;
  ss_commit_finish : int -> int -> unit;
  (* Float cells live in one-slot arrays so updates never box. *)
  ss_hwm : float array;  (** drained horizon: no event key below it remains *)
  ss_last_rel : float array;  (** release of the last fed job *)
  mutable ss_last_id : int;
  mutable ss_nfed : int;
  mutable ss_fed : Job.t list;
      (** Reverse feed order, for materializing the closing schedule's
          instance — empty in retire mode, which never materializes:
          retaining the job boxes would put an O(n) floor under the
          rolling-retirement memory bound the bench gates. *)
  mutable ss_closed : bool;
  ss_minor : float array;  (** minor words across all drains *)
  ss_batch : Instance.t option;
  ss_name : string;  (** name the materialized instance carries *)
}

(* Everything marshaled into a checkpoint.  Handlers, instruments and the
   policy's closures are rebuilt at thaw; [Marshal.Closures] covers the
   heap comparators inside [Flat_state.t] (closures over the very column
   arrays the state owns — sharing is preserved within the one marshal
   call) and pins the snapshot to the producing executable, which is the
   contract anyway (the container's version/checksum reject everything
   else first). *)
type 'a frozen = {
  z_fs : Flat_state.t;
  z_pstate : 'a;
  z_hwm : float;
  z_last_rel : float;
  z_last_id : int;
  z_nfed : int;
  z_fed : Job.t list;
  z_trace : Trace.t option;
  z_recorder : Rec.t option;
  z_check : bool;
  z_minor : float;
  z_batch : Instance.t option;
  z_name : string;
  z_iname : string;
}

let session_make ?trace ?obs ?recorder ~check ~retire ~batch ~name ~machines policy =
  if check && retire then
    invalid_arg "Driver.Session: cannot oracle-audit (check) a session that retires segments";
  let fs = Flat_state.of_stream ~machines in
  if retire then Flat_state.set_retire fs true;
  (match batch with
  | Some instance -> Flat_state.reserve fs (Instance.n instance)
  | None -> ());
  let vw = V_flat fs in
  let instr = match obs with None -> None | Some o -> Some (make_instr o (Array.length machines)) in
  let pstate = policy.init (match batch with Some i -> i | None -> Flat_state.instance fs) in
  let commit_arrival, commit_finish =
    make_flat_handlers ?trace ?recorder ~instr fs policy pstate vw
  in
  {
    ss_policy = policy;
    ss_pstate = pstate;
    ss_fs = fs;
    ss_view = vw;
    ss_trace = trace;
    ss_recorder = recorder;
    ss_obs = obs;
    ss_instr = instr;
    ss_check = check;
    ss_commit_arrival = commit_arrival;
    ss_commit_finish = commit_finish;
    ss_hwm = [| neg_infinity |];
    ss_last_rel = [| neg_infinity |];
    ss_last_id = -1;
    ss_nfed = 0;
    ss_fed = [];
    ss_closed = false;
    ss_minor = [| 0. |];
    ss_batch = batch;
    ss_name = name;
  }

let session_feed s (j : Job.t) =
  if s.ss_closed then invalid_arg "Driver.Session: feed on a closed session";
  let r = j.Job.release in
  if Float.is_nan r || r < s.ss_hwm.(0) then
    invalid_arg
      (Printf.sprintf "Driver.Session: job %d released at %g behind the drained horizon %g"
         j.Job.id r s.ss_hwm.(0));
  if r < s.ss_last_rel.(0) || (r = s.ss_last_rel.(0) && j.Job.id <= s.ss_last_id) then
    invalid_arg
      (Printf.sprintf
         "Driver.Session: job %d at %g breaks the strictly increasing (release, id) feed order"
         j.Job.id r);
  Flat_state.add_job s.ss_fs j;
  s.ss_last_rel.(0) <- r;
  s.ss_last_id <- j.Job.id;
  s.ss_nfed <- s.ss_nfed + 1;
  if not (Flat_state.retire s.ss_fs) then s.ss_fed <- j :: s.ss_fed

(* One bounded drain: [run_flat]'s event loop verbatim, except the pop
   refuses events beyond [limit] ([~limit:infinity] at close runs the
   queue dry, so batch runs execute this exact code).  [limit] is boxed
   once per call — captured by the [pop] closure — never per event. *)
let session_drain s ~limit =
  let fs = s.ss_fs in
  let policy = s.ss_policy and pstate = s.ss_pstate and vw = s.ss_view in
  let commit_arrival = s.ss_commit_arrival and commit_finish = s.ss_commit_finish in
  let instr = s.ss_instr in
  let pop =
    match instr with
    | None -> fun () -> Flat_state.next_event_before fs ~limit
    | Some ins ->
        fun () ->
          Sched_obs.Sink.time ins.i_sink phase_heap (fun () ->
              Flat_state.next_event_before fs ~limit)
  in
  let[@rejlint.hot] rec loop () =
    if pop () then begin
      let payload = Flat_state.ev_payload fs in
      (if Flat_state.ev_is_arrival fs then begin
         let j = Flat_state.job fs payload in
         let decision =
           match instr with
           | None -> policy.on_arrival pstate vw j
           | Some ins ->
               (Sched_obs.Sink.time ins.i_sink phase_on_arrival (fun () ->
                    policy.on_arrival pstate vw j) [@rejlint.cold])
         in
         commit_arrival j decision
       end
       else
         commit_finish
           (Pqueue.Events.Key.machine_of ~payload)
           (Pqueue.Events.Key.epoch_of ~payload));
      loop ()
    end
  in
  let w0 = Gc.minor_words () in
  loop ();
  let w1 = Gc.minor_words () in
  s.ss_minor.(0) <- s.ss_minor.(0) +. (w1 -. w0)

let session_drain_until s horizon =
  if s.ss_closed then invalid_arg "Driver.Session: drain_until on a closed session";
  if Float.is_nan horizon then invalid_arg "Driver.Session: drain_until NaN";
  session_drain s ~limit:horizon;
  if horizon > s.ss_hwm.(0) then s.ss_hwm.(0) <- horizon

let session_close s =
  if s.ss_closed then invalid_arg "Driver.Session: close on a closed session";
  session_drain s ~limit:infinity;
  s.ss_closed <- true;
  let fs = s.ss_fs in
  (match s.ss_obs with
  | None -> ()
  | Some o ->
      (* The allocations-per-event instrument: minor words allocated across
         the event loop (policy allocations included — the driver itself
         contributes none in steady state) over events processed.  Close
         runs the queue dry, so pushes = pops. *)
      let reg = Sched_obs.Obs.registry o in
      let cw =
        Sched_obs.Registry.counter reg
          ~help:"Minor-heap words allocated inside the flat event loop" c_flat_minor_words_name
      in
      let ce =
        Sched_obs.Registry.counter reg ~help:"Events processed by the flat event loop"
          c_flat_events_name
      in
      Sched_obs.Metric.Counter.add cw s.ss_minor.(0);
      Sched_obs.Metric.Counter.add ce (float_of_int (Flat_state.events_pushed fs)));
  for i = 0 to Flat_state.m fs - 1 do
    if Flat_state.pend_count fs i > 0 || Flat_state.run_job fs i >= 0 then
      invalid_arg
        (Printf.sprintf "Driver: policy %s left work unfinished on machine %d" s.ss_policy.name
           i)
  done;
  if Flat_state.retire fs then (None, s.ss_pstate, s.ss_view)
  else begin
    (match s.ss_batch with
    | Some instance -> Flat_state.set_instance fs instance
    | None ->
        (* Materialize the fed stream as a real instance so the schedule
           (and the oracle) get the same boxed shape batch runs produce.
           [Instance.create] re-validates — dense job ids included. *)
        let machines = (Flat_state.instance fs).Instance.machines in
        Flat_state.set_instance fs
          (Instance.create ~name:s.ss_name ~machines ~jobs:(List.rev s.ss_fed) ()));
    let schedule = Flat_state.to_schedule fs in
    if s.ss_check then
      audit ?obs:s.ss_obs ?recorder:s.ss_recorder ~name:s.ss_policy.name
        ~saw_restart:(Flat_state.saw_restart fs) (live s.ss_view) schedule;
    (Some schedule, s.ss_pstate, s.ss_view)
  end

let session_freeze s =
  if s.ss_closed then invalid_arg "Driver.Session: freeze on a closed session";
  Marshal.to_string
    {
      z_fs = s.ss_fs;
      z_pstate = s.ss_pstate;
      z_hwm = s.ss_hwm.(0);
      z_last_rel = s.ss_last_rel.(0);
      z_last_id = s.ss_last_id;
      z_nfed = s.ss_nfed;
      z_fed = s.ss_fed;
      z_trace = s.ss_trace;
      z_recorder = s.ss_recorder;
      z_check = s.ss_check;
      z_minor = s.ss_minor.(0);
      z_batch = s.ss_batch;
      z_name = s.ss_policy.name;
      z_iname = s.ss_name;
    }
    [ Marshal.Closures ]

let session_thaw ?obs policy payload =
  let z =
    try (Marshal.from_string payload 0 : _ frozen)
    with Failure msg -> invalid_arg ("Driver.Session: unreadable snapshot payload: " ^ msg)
  in
  if not (String.equal z.z_name policy.name) then
    invalid_arg
      (Printf.sprintf "Driver.Session: snapshot was taken under policy %s, not %s" z.z_name
         policy.name);
  let fs = z.z_fs in
  let vw = V_flat fs in
  let instr = match obs with None -> None | Some o -> Some (make_instr o (Flat_state.m fs)) in
  let commit_arrival, commit_finish =
    make_flat_handlers ?trace:z.z_trace ?recorder:z.z_recorder ~instr fs policy z.z_pstate vw
  in
  {
    ss_policy = policy;
    ss_pstate = z.z_pstate;
    ss_fs = fs;
    ss_view = vw;
    ss_trace = z.z_trace;
    ss_recorder = z.z_recorder;
    ss_obs = obs;
    ss_instr = instr;
    ss_check = z.z_check;
    ss_commit_arrival = commit_arrival;
    ss_commit_finish = commit_finish;
    ss_hwm = [| z.z_hwm |];
    ss_last_rel = [| z.z_last_rel |];
    ss_last_id = z.z_last_id;
    ss_nfed = z.z_nfed;
    ss_fed = z.z_fed;
    ss_closed = false;
    ss_minor = [| z.z_minor |];
    ss_batch = z.z_batch;
    ss_name = z.z_iname;
  }

module Session = struct
  type 'a t = 'a session

  let open_session ?trace ?obs ?recorder ?(check = false) ?(retire = false) ?(name = "stream")
      ~machines policy =
    session_make ?trace ?obs ?recorder ~check ~retire ~batch:None ~name ~machines policy

  let feed = session_feed
  let drain_until = session_drain_until
  let next_key s = Flat_state.next_key s.ss_fs
  let drained s = s.ss_hwm.(0)
  let fed s = s.ss_nfed
  let view s = s.ss_view
  let policy_state s = s.ss_pstate
  let live_metrics s = live s.ss_view
  let trace s = s.ss_trace

  let close s =
    let schedule, pstate, vw = session_close s in
    (schedule, pstate, live vw)

  let freeze = session_freeze
  let thaw = session_thaw
end

let run_flat ?trace ?obs ?recorder ?(check = false) policy instance =
  let s =
    session_make ?trace ?obs ?recorder ~check ~retire:false ~batch:(Some instance)
      ~name:instance.Instance.name ~machines:instance.Instance.machines policy
  in
  let jobs = Instance.jobs_by_release instance in
  for k = 0 to Array.length jobs - 1 do
    session_feed s jobs.(k)
  done;
  match session_close s with
  | Some schedule, pstate, vw -> (schedule, pstate, vw)
  | None, _, _ -> assert false

let run_view ?trace ?obs ?recorder ?check ?impl policy instance =
  (* The impl selector is benchmark plumbing, not policy state: both
     impls produce byte-identical schedules (enforced by the
     differential gates), so which one runs is unobservable to any
     policy decision. *)
  (* rejlint: allow policy-purity *)
  match (match impl with Some i -> i | None -> !default_impl_ref) with
  | Boxed -> run_boxed ?trace ?obs ?recorder ?check policy instance
  | Flat -> run_flat ?trace ?obs ?recorder ?check policy instance

let run ?trace ?obs ?recorder ?check ?impl policy instance =
  let schedule, pstate, _ = run_view ?trace ?obs ?recorder ?check ?impl policy instance in
  (schedule, pstate)

let run_live ?trace ?obs ?recorder ?check ?impl policy instance =
  let schedule, pstate, vw = run_view ?trace ?obs ?recorder ?check ?impl policy instance in
  (schedule, pstate, live vw)

let run_schedule ?trace ?obs ?recorder ?check ?impl policy instance =
  fst (run ?trace ?obs ?recorder ?check ?impl policy instance)
