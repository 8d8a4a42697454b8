open Sched_model
open Sched_sim

(* Dispatch scratch, one per run: the cost cells and the argmin, reused by
   every arrival so the scan allocates nothing. *)
type state = { f : float array; mutable best_i : int }

(* Slots of [state.f] (a [mutable float] field would box on every write). *)
let f_cost = 0 (* estimated completion on the machine just priced *)
let f_best = 1 (* smallest estimate so far *)

(* Argmin of the estimated completion time (remaining work + pending work
   + p_ij) over eligible machines in ascending order; a later machine
   replaces the best only when [not (best <= cost)], so ties go to the
   smallest machine id.  The machine count comes from the job's row, since
   [view] lacks the instance. *)
let[@rejlint.hot] argmin_completion st view (j : Job.t) =
  let f = st.f in
  st.best_i <- -1;
  for i = 0 to Array.length j.Job.sizes - 1 do
    let p = j.Job.sizes.(i) in
    if Float.is_finite p then begin
      f.(f_cost) <- Driver.remaining_time view i +. Driver.pending_work view i +. p;
      if st.best_i < 0 || not (f.(f_best) <= f.(f_cost)) then begin
        st.best_i <- i;
        f.(f_best) <- f.(f_cost)
      end
    end
  done;
  assert (st.best_i >= 0)

(* [head] picks the next job to serve: one of the driver's O(1) indexed
   head accessors, replacing the seed's linear pending scan. *)
let make name head =
  let init _ = { f = Array.make 2 0.; best_i = -1 } in
  let on_arrival st view (j : Job.t) =
    argmin_completion st view j;
    Driver.dispatch st.best_i
  in
  let select _ view i =
    match head view i with
    | None -> None
    | Some (chosen : Job.t) -> Some { Driver.job = chosen.Job.id; speed = 1.0 }
  in
  { Driver.name; init; on_arrival; select }

let fifo = make "greedy-fifo" Driver.pending_earliest
let spt = make "greedy-spt" Driver.pending_shortest
