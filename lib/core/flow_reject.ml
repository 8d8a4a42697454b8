open Sched_model
open Sched_sim

type dispatch_rule = Dual_lambda | Greedy_load

type config = { eps : float; rule1 : bool; rule2 : bool; dispatch : dispatch_rule }

let config ?(rule1 = true) ?(rule2 = true) ?(dispatch = Dual_lambda) ~eps () =
  if not (eps > 0. && eps < 1.) then invalid_arg "Flow_reject.config: eps must be in (0,1)";
  { eps; rule1; rule2; dispatch }

type state = {
  cfg : config;
  eps_eff : float;
      (** The effective epsilon [1 / ceil(1/eps)]: integer counters cannot
          trip at a fractional [1/eps], so the algorithm {e is} the paper's
          algorithm run at [eps_eff <= eps] — thresholds below are exactly
          [1/eps_eff] and [1 + 1/eps_eff], and the dual variables must use
          [eps_eff] for Lemma 4 to hold exactly. *)
  thr1 : int;  (** Rule 1 threshold, [1/eps_eff = ceil(1/eps)]. *)
  thr2 : int;  (** Rule 2 threshold, [1 + 1/eps_eff]. *)
  mutable v : int array;  (** Rule 1 counters, indexed by job id (valid while running). *)
  c : int array;  (** Rule 2 counters, indexed by machine id. *)
  mutable lambda : float array;  (** Dual variables, indexed by job id. *)
  mutable rej1 : int;
  mutable rej2 : int;
  (* Dispatch scratch, reused by every arrival so the argmin allocates
     nothing: the pending set of the machine being priced, the float
     cells below, the count of pending jobs after [j], and the argmin. *)
  mutable buf : Job.t array;
  f : float array;
  mutable after : int;
  mutable best_i : int;
}

(* Slots of [state.f].  A [mutable float] field would be boxed on every
   write; one flat float array keeps the scan's accumulators unboxed. *)
let f_before = 0 (* sum of p_il over the pending jobs that precede j *)
let f_cost = 1 (* cost of the machine just priced *)
let f_best = 2 (* smallest cost so far: lambda_ij at the argmin once a scan ends *)

(* The paper's order on the pending set of a fixed machine: shorter
   processing time first, ties by earlier release, then smaller id.
   Sizes are field reads of the job's row, so no float crosses a call. *)
let precede i (a : Job.t) (b : Job.t) =
  let pa = a.Job.sizes.(i) and pb = b.Job.sizes.(i) in
  if pa <> pb then pa < pb
  else if a.release <> b.release then a.release < b.release
  else a.id < b.id

(* Cold: the scratch buffer grows only when a queue outgrows every queue
   seen before; [j] is just the fill value. *)
let grow_buf st (j : Job.t) k = st.buf <- Array.make (max 16 (2 * k)) j

(* lambda_ij = (1/eps) p_ij + sum_{l <= j} p_il + sum_{l > j} p_ij, where l
   ranges over the pending set of machine i plus j itself ("l <= j" includes
   l = j, contributing p_ij).  The pending set does not yet contain j; one
   pass over the buffered pending set suffices, no sort.  Writes the cost
   to [f_cost]. *)
let[@rejlint.hot] lambda_ij st view i (j : Job.t) =
  let pij = j.Job.sizes.(i) in
  if Driver.pending_count view i > Array.length st.buf then
    (grow_buf st j (Driver.pending_count view i) [@rejlint.cold]);
  let k = Driver.pending_into view i st.buf in
  let f = st.f in
  f.(f_before) <- 0.;
  st.after <- 0;
  for s = 0 to k - 1 do
    let l = st.buf.(s) in
    if precede i l j then f.(f_before) <- f.(f_before) +. l.Job.sizes.(i)
    else st.after <- st.after + 1
  done;
  f.(f_cost) <- (pij /. st.eps_eff) +. f.(f_before) +. pij +. (float_of_int st.after *. pij)

(* Argmin of lambda_ij over eligible machines, in ascending machine order;
   a later machine replaces the best only on a strictly smaller cost (or
   an incomparable one, as the boxed [c' <= c] test read), so ties go to
   the smallest machine id.  Leaves the machine in [best_i] and its
   lambda in [f_best]. *)
let[@rejlint.hot] argmin_lambda st view (j : Job.t) =
  let f = st.f in
  st.best_i <- -1;
  for i = 0 to Array.length j.Job.sizes - 1 do
    if Float.is_finite j.Job.sizes.(i) then begin
      lambda_ij st view i j;
      if st.best_i < 0 || not (f.(f_best) <= f.(f_cost)) then begin
        st.best_i <- i;
        f.(f_best) <- f.(f_cost)
      end
    end
  done;
  assert (st.best_i >= 0)

(* The same argmin over the greedy completion-time estimate
   (remaining work + pending work + p_ij). *)
let[@rejlint.hot] argmin_load st view (j : Job.t) =
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

let largest_pending view i (j_new : Job.t) =
  (* Largest-processing-time job among the pending set (the just-dispatched
     job included); "largest" uses the same total order as [precede].  The
     reverse-SPT index hands over the pending maximum in O(1). *)
  match Driver.pending_longest view i with
  | None -> j_new
  | Some w -> if precede i j_new w then w else j_new

let init cfg instance =
  let n = Instance.n instance in
  let inv = Float.ceil (1. /. cfg.eps) in
  {
    cfg;
    eps_eff = 1. /. inv;
    thr1 = int_of_float inv;
    thr2 = int_of_float inv + 1;
    v = Array.make n 0;
    c = Array.make (max 1 (Instance.m instance)) 0;
    lambda = Array.make n 0.;
    rej1 = 0;
    rej2 = 0;
    buf = [||];
    f = Array.make 3 0.;
    after = 0;
    best_i = -1;
  }

(* Streaming sessions init with zero jobs and reveal ids as they arrive;
   the per-job counters grow on first sight of a larger id (batch runs
   pre-size to n, so this never fires there). *)
let ensure st id =
  let len = Array.length st.v in
  if id >= len then begin
    let cap = max 16 (max (id + 1) (2 * len)) in
    let nv = Array.make cap 0 in
    Array.blit st.v 0 nv 0 len;
    st.v <- nv;
    let nl = Array.make cap 0. in
    Array.blit st.lambda 0 nl 0 len;
    st.lambda <- nl
  end

(* The sequential tail of [on_arrival]: fix the dual variable from the
   lambda argmin's [f_best] and apply the rejection rules. *)
let commit st view (j : Job.t) ~target =
  ensure st j.id;
  let eps = st.eps_eff in
  st.lambda.(j.id) <- eps /. (1. +. eps) *. st.f.(f_best);
  (* Rejection Rule 1: bump the running job's counter. *)
  st.c.(target) <- st.c.(target) + 1;
  let rejections = ref [] in
  (match Driver.running_on view target with
  | Some r ->
      let k = r.Driver.job.Job.id in
      st.v.(k) <- st.v.(k) + 1;
      if st.cfg.rule1 && st.v.(k) >= st.thr1 then begin
        rejections := k :: !rejections;
        st.rej1 <- st.rej1 + 1
      end
  | None -> ());
  (* Rejection Rule 2: machine-level counter. *)
  if st.cfg.rule2 && st.c.(target) >= st.thr2 then begin
    let victim = largest_pending view target j in
    rejections := victim.Job.id :: !rejections;
    st.c.(target) <- 0;
    st.rej2 <- st.rej2 + 1
  end;
  { Driver.dispatch_to = target; reject = List.rev !rejections; restart = [] }

let on_arrival st view (j : Job.t) =
  let target =
    match st.cfg.dispatch with
    | Dual_lambda ->
        argmin_lambda st view j;
        st.best_i
    | Greedy_load ->
        argmin_load st view j;
        let target = st.best_i in
        (* The dual variable is defined from lambda_ij regardless of how we
           dispatched, so the instrumentation stays meaningful in E8. *)
        argmin_lambda st view j;
        target
  in
  commit st view j ~target

let select st view i =
  match Driver.pending_shortest view i with
  | None -> None
  | Some shortest ->
      (* A fresh Rule 1 counter for the execution that is about to begin. *)
      st.v.(shortest.Job.id) <- 0;
      Some { Driver.job = shortest.Job.id; speed = 1.0 }

let policy cfg =
  { Driver.name = "flow-reject"; init = init cfg; on_arrival; select }

let lambdas st = Array.copy st.lambda
let effective_eps st = st.eps_eff
let rule1_rejections st = st.rej1
let rule2_rejections st = st.rej2

let run ?trace ?obs cfg instance = Driver.run ?trace ?obs (policy cfg) instance
